"""Homogeneous polynomials, the apolarity pairing oracle and perpendicular
spaces."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpoly_oracle import (
    as_hpoly,
    as_row,
    diff_apply,
    evaluate,
    from_coeff_vector,
    is_zero,
    linform_product,
    pair,
    render,
)
from zonoforge import cli
from zonoforge.cli import _render_ideal
from zonoforge.errors import DimensionMismatch
from zonoforge.graded import IdealGens
from zonoforge.poly import (
    HPoly,
    monomials,
    multi_factorial,
    perp_space_gens,
)


def test_monomials_graded_lex_order():
    assert monomials(3, 2) == (
        (2, 0, 0),
        (1, 1, 0),
        (1, 0, 1),
        (0, 2, 0),
        (0, 1, 1),
        (0, 0, 2),
    )
    assert monomials(2, 0) == ((0, 0),)
    assert monomials(1, 4) == ((4,),)


def test_hpoly_rejects_mixed_degrees():
    with pytest.raises(DimensionMismatch):
        HPoly(2, {(1, 0): 1, (2, 0): 1})


def test_binomial_square():
    t1 = HPoly.linear_form((1, 0))
    t2 = HPoly.linear_form((0, 1))
    sq = (t1 + t2) ** 2
    assert sq.coeffs == {(2, 0): 1, (1, 1): 2, (0, 2): 1}


def test_zero_vector_is_not_a_linear_form():
    with pytest.raises(ValueError):
        HPoly.linear_form((0, 0, 0))


def test_render_canonical_text():
    p = HPoly(2, {(2, 0): 1, (1, 1): -2, (0, 2): 1})
    assert render(p) == "t1^2 - 2*t1*t2 + t2^2"
    assert render(HPoly.zero(3)) == "0"
    assert render(HPoly.constant(2, Fraction(1, 2))) == "1/2"
    assert render(HPoly.monomial(2, (0, 3), Fraction(-1, 3))) == "-1/3*t2^3"


def test_render_keeps_its_text_and_equality_reads_only_coefficients():
    p = HPoly(2, {(1, 0): Fraction(1, 2), (0, 1): -1})
    twin = from_coeff_vector(2, 1, (Fraction(1, 2), -1))
    assert render(p) == "1/2*t1 - t2" == render(twin)
    assert p == twin and hash(p) == hash(twin)
    assert render(HPoly.zero(2)) == "0"


def test_ideal_generators_are_rendered_once(monkeypatch):
    # IdealGens.make renders nothing; the CLI renders each distinct
    # generator once, in (degree, text) order
    calls = []
    real = cli._render

    def counting(nvars, poly):
        calls.append(poly)
        return real(nvars, poly)

    monkeypatch.setattr(cli, "_render", counting)
    gens = [as_row(linform_product(2, [(1, k)])) for k in (2, 1, 2, 0)]
    ideal = IdealGens.make(2, gens)
    assert calls == [] and len(ideal.gens) == 3
    assert _render_ideal(ideal) == ["t1", "t1 + 2*t2", "t1 + t2"]
    assert len(calls) == len(ideal.gens) and sorted(calls) == list(ideal.gens)


def test_coeff_vector_round_trip():
    p = HPoly(3, {(1, 1, 0): 2, (0, 0, 2): -1})
    q = from_coeff_vector(3, 2, p.coeff_vector())
    assert q == p


def test_evaluate():
    p = linform_product(2, [(1, 1), (1, -1)])  # t1^2 - t2^2
    assert evaluate(p, (3, 2)) == 5
    assert evaluate(p, (Fraction(1, 2), Fraction(1, 2))) == 0


def test_diff_apply_falling_factorials():
    d = HPoly.monomial(2, (2, 0))
    target = HPoly.monomial(2, (3, 0))
    assert diff_apply(d, target) == HPoly.monomial(2, (1, 0), 6)
    # operator degree exceeding the target in one variable kills the term
    assert is_zero(diff_apply(HPoly.monomial(2, (0, 1)), target))


def test_pairing_on_monomials():
    for a in monomials(2, 3):
        for b in monomials(2, 3):
            got = pair(HPoly.monomial(2, a), HPoly.monomial(2, b))
            assert got == (multi_factorial(a) if a == b else 0)


def test_pairing_symmetric_and_degree_separated():
    rng = random.Random(7)
    for _ in range(10):
        p = HPoly(2, {m: rng.randint(-3, 3) for m in monomials(2, 2)})
        q = HPoly(2, {m: rng.randint(-3, 3) for m in monomials(2, 2)})
        assert pair(p, q) == pair(q, p)
    assert pair(HPoly.monomial(2, (1, 0)), HPoly.monomial(2, (2, 0))) == 0


def test_perp_space_gens_along_one_axis():
    gens = perp_space_gens(3, [(1, 0, 0)], 2)
    # complement of span{e1} gives forms in t2, t3 only
    assert len(gens) == 3
    for d, row, _ in gens:
        assert d == 2 and any(row)
        assert all(x == 0 for x, exp in zip(row, monomials(3, 2)) if exp[0])


def test_perp_space_gens_empty_span_is_everything():
    gens = perp_space_gens(2, [], 2)
    assert len(gens) == len(monomials(2, 2))


def test_linform_product_empty_is_one():
    assert linform_product(3, []) == HPoly.constant(3)


# -- cli._render against the HPoly oracle ----------------------------------------

# (nvars, (degree, integer row, denominator), text)
RENDER_CASES = [
    (2, (2, (0, 0, 0), 1), "0"),  # the zero row
    (2, (2, (0, 0, 0), 6), "0"),
    (3, (0, (5,), 1), "5"),  # constants
    (1, (0, (-6,), 4), "-3/2"),
    (1, (3, (-2,), 3), "-2/3*t1^3"),  # n = 1
    (1, (1, (4,), 4), "t1"),
    (2, (2, (-1, 4, -6), 4), "-1/4*t1^2 + t1*t2 - 3/2*t2^2"),  # leading negative
    (3, (2, (0, -3, 0, 9, 6, -12), 6), "-1/2*t1*t2 + 3/2*t2^2 + t2*t3 - 2*t3^2"),  # 6 cancels partly
    (3, (1, (0, -7, 0), 7), "-t2"),
]


def _assert_render_matches_oracle(nvars: int, poly: tuple) -> None:
    assert cli._render(nvars, poly) == render(as_hpoly(nvars, poly))


@pytest.mark.parametrize("nvars,poly,text", RENDER_CASES)
def test_render_cases(nvars, poly, text):
    assert cli._render(nvars, poly) == text
    _assert_render_matches_oracle(nvars, poly)


def _random_tuple(rng, nvars: int) -> tuple:
    """Rows with many zeros, leading zeros and negative entries, over
    denominators that cancel fully, partly or not at all."""
    d = rng.randint(0, 4)
    row = tuple(rng.choice((0, 0, 0, 1, -1, 2, -3, 4, 6, -12, 35)) for _ in monomials(nvars, d))
    return d, row, rng.choice((1, 1, 2, 3, 4, 6, 12, 35, 70))


@pytest.mark.parametrize("seed", range(24))
def test_render_matches_the_oracle(seed):
    rng = random.Random(8100 + seed)
    for nvars in (1, 2, 3, 4):
        for _ in range(10):
            _assert_render_matches_oracle(nvars, _random_tuple(rng, nvars))


@st.composite
def _tuples(draw) -> tuple:
    nvars = draw(st.integers(1, 4))
    d = draw(st.integers(0, 4))
    size = len(monomials(nvars, d))
    entries = st.integers(-40, 40) | st.just(0)
    row = draw(st.lists(entries, min_size=size, max_size=size))
    den = draw(st.integers(1, 60))
    return nvars, (d, tuple(row), den)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_tuples())
def test_render_matches_the_oracle_hypothesis(case):
    _assert_render_matches_oracle(*case)

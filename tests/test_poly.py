"""Homogeneous polynomials, the apolarity pairing oracle and perpendicular
spaces."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from hpoly_oracle import as_row, diff_apply, evaluate, linform_product, pair
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
    assert p.render() == "t1^2 - 2*t1*t2 + t2^2"
    assert HPoly.zero(3).render() == "0"
    assert HPoly.constant(2, Fraction(1, 2)).render() == "1/2"
    assert HPoly.monomial(2, (0, 3), Fraction(-1, 3)).render() == "-1/3*t2^3"


def test_render_keeps_its_text_and_equality_reads_only_coefficients():
    p = HPoly(2, {(1, 0): Fraction(1, 2), (0, 1): -1})
    twin = HPoly.from_coeff_vector(2, 1, (Fraction(1, 2), -1))
    assert p.render() == "1/2*t1 - t2" == twin.render()
    assert p == twin and hash(p) == hash(twin)
    assert HPoly.zero(2).render() == "0"


def test_ideal_generators_are_rendered_once(monkeypatch):
    # IdealGens.make renders nothing; the CLI renders each distinct
    # generator once, in (degree, text) order
    calls = []
    real = HPoly.render

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(HPoly, "render", counting)
    gens = [as_row(linform_product(2, [(1, k)])) for k in (2, 1, 2, 0)]
    ideal = IdealGens.make(2, gens)
    assert calls == [] and len(ideal.gens) == 3
    assert _render_ideal(ideal) == ["t1", "t1 + 2*t2", "t1 + t2"]
    assert len(calls) == len(ideal.gens)


def test_coeff_vector_round_trip():
    p = HPoly(3, {(1, 1, 0): 2, (0, 0, 2): -1})
    q = HPoly.from_coeff_vector(3, 2, p.coeff_vector())
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
    assert diff_apply(HPoly.monomial(2, (0, 1)), target).is_zero


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

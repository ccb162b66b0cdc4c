"""Graded subspaces, ideal components, kernels and Hilbert functions."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import graded_oracle
from graded_oracle import assert_canonical, fraction_space, integer_contains
from hpoly_oracle import as_hpoly, as_row, reference_ideal_gens, render
from test_linalg import monic, reference_nullspace as nullspace, reference_rank
from zonoforge import graded
from zonoforge.cli import _render_ideal, parse_document
from zonoforge.config import Config, SemiExternalFamily, ensure_family, semiexternal_close
from zonoforge.errors import DimensionMismatch, InputError, NoStabilization
from zonoforge.graded import (
    GradedSubspace,
    Ideal,
    IdealGens,
    add,
    component_dim,
    direct_sum_certificate,
    hilbert_quotient,
    ideal_contains,
    ideals_equal,
    intersect,
    kernel,
)
from zonoforge.linalg import _integer_row, canonical
from zonoforge.poly import HPoly, monomials
from zonoforge.zonotopal import bundle_for

INPUTS = Path(__file__).resolve().parent.parent / "inputs"


def gens_of(nvars, exps):
    return IdealGens.make(nvars, [as_row(HPoly.monomial(nvars, e)) for e in exps])


def test_component_dim():
    assert component_dim(3, 2) == 6
    assert component_dim(1, 5) == 1
    assert component_dim(2, 0) == 1


def test_from_spanning_is_canonical():
    t1 = HPoly.linear_form((1, 0))
    t2 = HPoly.linear_form((0, 1))
    a = GradedSubspace.from_spanning(2, map(as_row, [t1, t2]))
    b = GradedSubspace.from_spanning(2, map(as_row, [t1 + t2, t1 - t2, t1]))
    assert a == b
    assert a.hilbert() == (0, 2)
    assert a.dim() == 2


def test_ideal_component_dims_principal():
    ideal = Ideal(gens_of(2, [(2, 0)]))
    assert [ideal.dim(d) for d in range(5)] == [0, 0, 1, 2, 3]
    assert ideal.full_degree is None


def test_kernel_of_two_pure_powers():
    g = gens_of(2, [(2, 0), (0, 2)])
    k = kernel(g, 4)
    assert k.hilbert() == (1, 2, 1)
    assert hilbert_quotient(g, cap=4) == (1, 2, 1)


def test_hilbert_quotient_never_stabilizes_without_gens():
    with pytest.raises(NoStabilization) as info:
        hilbert_quotient(IdealGens.make(2, []), cap=5)
    err = info.value
    assert (err.cap, err.values, err.nvars, err.ngens) == (5, (1, 2, 3, 4, 5, 6), 2, 0)
    text = str(err)
    assert "degree 5" in text
    assert "[1, 2, 3, 4, 5, 6]" in text
    assert "0 generators in 2 variables" in text


def test_kernel_ideal_duality_random():
    # dim kernel_d + dim ideal_d must always give the full component
    rng = random.Random(11)
    for _ in range(8):
        nvars = rng.randint(1, 3)
        exps = [rng.choice(monomials(nvars, rng.randint(1, 2))) for _ in range(2)]
        g = gens_of(nvars, exps)
        k = kernel(g, 4)
        ideal = Ideal(g)
        for d in range(5):
            assert len(k.component(d)) + ideal.dim(d) == component_dim(nvars, d)


def random_space(rng, nvars, degree, count):
    polys = [
        HPoly(nvars, {m: rng.randint(-2, 2) for m in monomials(nvars, degree)})
        for _ in range(count)
    ]
    return GradedSubspace.from_spanning(nvars, map(as_row, polys))


def test_lattice_identities_random():
    rng = random.Random(5)
    for _ in range(10):
        nvars = rng.randint(2, 3)
        d = rng.randint(1, 2)
        a = random_space(rng, nvars, d, rng.randint(1, 3))
        b = random_space(rng, nvars, d, rng.randint(1, 3))
        s = add(a, b)
        m = intersect(a, b)
        assert integer_contains(s, a) and integer_contains(s, b)
        assert integer_contains(a, m) and integer_contains(b, m)
        assert intersect(a, s) == a
        assert a.dim() + b.dim() == s.dim() + m.dim()


def test_direct_sum_certificate_pass_and_fail():
    g = gens_of(2, [(2, 0), (0, 2)])
    cert = direct_sum_certificate(kernel(g, 2), g)
    assert cert["passed"]
    assert cert["dmax"] == 3
    assert all(line["passed"] for line in cert["degrees"])
    wrong = GradedSubspace.from_spanning(2, [as_row(HPoly.monomial(2, (2, 0)))])
    assert not direct_sum_certificate(wrong, g)["passed"]


def test_negative_dmax_is_refused():
    # a negative bound leaves no degree to check, so a certificate would pass vacuously
    g = gens_of(2, [(2, 0), (0, 2)])
    with pytest.raises(InputError, match="dmax"):
        kernel(g, -1)
    with pytest.raises(InputError, match="dmax"):
        direct_sum_certificate(kernel(g, 2), g, dmax=-3)
    assert direct_sum_certificate(kernel(g, 2), g, dmax=0)["degrees"][0]["degree"] == 0


def test_ideal_equality_and_containment():
    a = gens_of(2, [(1, 0)])
    b = IdealGens.make(
        2, [as_row(HPoly.monomial(2, (1, 0))), as_row(HPoly.monomial(2, (2, 0)))]
    )
    assert ideals_equal(a, b, 5)
    assert ideal_contains(a, gens_of(2, [(2, 0)]), 5)
    assert not ideal_contains(gens_of(2, [(2, 0)]), a, 5)
    assert not ideals_equal(a, gens_of(2, [(0, 1)]), 3)


def test_contains_is_degreewise():
    big = GradedSubspace.from_spanning(
        2, [as_row(HPoly.monomial(2, (1, 0))), as_row(HPoly.monomial(2, (0, 1)))]
    )
    small = GradedSubspace.from_spanning(2, [as_row(HPoly.monomial(2, (2, 0)))])
    # degree 2 of big is empty, so the degree-2 line cannot sit inside it
    assert not integer_contains(big, small)
    assert integer_contains(big, GradedSubspace.zero(2))


# -- intersection against the complement-of-sum-of-complements route -----------


def _fractions(rows) -> tuple:
    """Integer rows as Fraction rows, the input of the Fraction reference loops."""
    return tuple(tuple(Fraction(x) for x in r) for r in rows)


def reference_intersect(a: GradedSubspace, b: GradedSubspace) -> GradedSubspace:
    """Degreewise intersection via complement-of-sum-of-complements."""
    if a.nvars != b.nvars:
        raise DimensionMismatch("intersection across different rings")
    comps = {}
    for d, basis_a in a.comps:
        basis_b = b.component(d)
        if not basis_b:
            continue
        ncols = component_dim(a.nvars, d)
        comp_a = nullspace(_fractions(basis_a), ncols=ncols)
        comp_b = nullspace(_fractions(basis_b), ncols=ncols)
        comps[d] = map(_integer_row, nullspace(comp_a + comp_b, ncols=ncols))
    return GradedSubspace.from_components(a.nvars, comps)


RELATIONS = ("zero", "equal", "nested", "trivial", "whole", "random")


def _component_pair(rng, nvars: int, d: int, relation: str):
    """Spanning polynomials of two degree-d components in the given relation:
    one side empty, the same space, one inside the other, meeting only in 0
    (disjoint monomial supports), one side the whole component, or drawn
    independently."""
    mons = monomials(nvars, d)

    def coeff():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    def draw(support, count):
        return [HPoly(nvars, {m: coeff() for m in support}) for _ in range(count)]

    def combos(polys, count):
        out = []
        for _ in range(count):
            p = HPoly.zero(nvars)
            for q in polys:
                p = p + q.scale(rng.randint(-2, 2))
            out.append(p)
        return out

    size = len(mons)
    ps = draw(mons, rng.randint(1, size))
    if relation == "zero":
        pair = (ps, [])
    elif relation == "equal":
        pair = (ps, ps[::-1] + combos(ps, 2))
    elif relation == "nested":
        pair = (ps, combos(ps, rng.randint(1, len(ps))))
    elif relation == "trivial":
        cut = rng.randint(0, size)
        left, right = mons[:cut], mons[cut:]
        pair = (
            draw(left, rng.randint(1, len(left))) if left else [],
            draw(right, rng.randint(1, len(right))) if right else [],
        )
    elif relation == "whole":
        units = [HPoly(nvars, {m: Fraction(rng.randint(1, 3), rng.randint(1, 3))}) for m in mons]
        pair = (ps, units + combos(ps, 1))
    else:
        pair = (ps, draw(mons, rng.randint(1, size)))
    return pair if rng.random() < 0.5 else pair[::-1]


def _space_pair(rng, nvars: int, relations):
    pa, pb = [], []
    for d, relation in enumerate(relations):
        a, b = _component_pair(rng, nvars, d, relation)
        pa += a
        pb += b
    return (
        GradedSubspace.from_spanning(nvars, map(as_row, pa)),
        GradedSubspace.from_spanning(nvars, map(as_row, pb)),
    )


def _assert_intersections_match(a, b):
    for x, y in ((a, b), (b, a), (a, a)):
        got = intersect(x, y)
        assert got == reference_intersect(x, y)
        assert_canonical(got)
        # the right halves are taken as they come out of the Zassenhaus
        # reduction: already canonical, with no zero component
        assert got == GradedSubspace.from_components(x.nvars, dict(got.comps))
        assert all(basis for _, basis in got.comps)


@pytest.mark.parametrize("seed", range(24))
def test_intersect_matches_complement_route(seed):
    rng = random.Random(seed)
    nvars = rng.randint(2, 4)
    relations = [RELATIONS[(seed + d) % len(RELATIONS)] for d in range(4)]
    a, b = _space_pair(rng, nvars, relations)
    _assert_intersections_match(a, b)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    nvars=st.integers(2, 4),
    relations=st.lists(st.sampled_from(RELATIONS), min_size=1, max_size=4),
    rng=st.randoms(use_true_random=False),
)
def test_intersect_matches_complement_route_hypothesis(nvars, relations, rng):
    a, b = _space_pair(rng, nvars, relations)
    _assert_intersections_match(a, b)


@pytest.mark.parametrize("seed", range(8))
def test_intersect_of_disjoint_supports_is_zero(seed):
    rng = random.Random(seed)
    nvars = rng.randint(2, 4)
    a, b = _space_pair(rng, nvars, ["trivial"] * 4)
    assert intersect(a, b) == reference_intersect(a, b) == GradedSubspace.zero(nvars)


def _proper_space(rng, nvars: int, degrees) -> GradedSubspace:
    """A random nonzero proper subspace of each given component."""
    polys = []
    for d in degrees:
        mons = monomials(nvars, d)
        for _ in range(rng.randint(1, len(mons) - 1)):
            polys.append(HPoly(nvars, {m: Fraction(rng.randint(-3, 3) or 1) for m in mons}))
    return GradedSubspace.from_spanning(nvars, map(as_row, polys))


@pytest.mark.parametrize("seed", range(8))
def test_intersect_eliminates_only_general_pairs(seed, monkeypatch):
    # equal and whole components are read off the canonical bases; two
    # distinct proper components are one Zassenhaus reduction, which the
    # complement-route tests above still reach
    rng = random.Random(seed)
    nvars = rng.randint(2, 4)
    read_off = [_space_pair(rng, nvars, [relation] * 4) for relation in ("equal", "whole")]
    a = b = _proper_space(rng, nvars, (1, 2, 3))
    while any(a.component(d) == b.component(d) for d in (1, 2, 3)):
        b = _proper_space(rng, nvars, (1, 2, 3))
    cheap = [p for x, y in read_off + [(a, a), (b, b)] for p in ((x, y), (y, x))]
    general = [(a, b), (b, a)]
    want = {p: reference_intersect(*p) for p in cheap + general}
    calls = []
    real = graded.canonical

    def counting(rows, ncols, *start):
        calls.append(ncols)
        return real(rows, ncols, *start)

    monkeypatch.setattr(graded, "canonical", counting)
    for pair in cheap:
        assert intersect(*pair) == want[pair]
        assert calls == []
    for pair in general:
        assert intersect(*pair) == want[pair]
        assert calls == [2 * component_dim(nvars, d) for d in (1, 2, 3)]
        calls.clear()


def test_intersect_rejects_different_rings():
    with pytest.raises(DimensionMismatch):
        intersect(GradedSubspace.zero(2), GradedSubspace.zero(3))


# -- Ideal against the all-multiples route ---------------------------------------
#
# The reference_* functions are the library's routes from before Ideal, kept
# verbatim except that the quotient loop returns None where the library
# raised: every generator times every monomial, compared through canonical
# row bases.


def row_basis(rows) -> tuple:
    """The RREF basis of rows of ints or Fractions, through the integer
    elimination: the all-multiples oracles below are independent of Ideal
    by construction, not by their row reduction."""
    rows = [_integer_row(r) for r in rows]
    return monic(canonical(rows, len(rows[0]))) if rows else ()


def reference_ideal_component(gens: IdealGens, d: int) -> tuple:
    """Canonical row basis of the ideal's degree-d component."""
    rows = []
    for g in gens.gens:
        g = as_hpoly(gens.nvars, g)
        k = d - g.degree
        if k < 0:
            continue
        for m in monomials(gens.nvars, k):
            rows.append((HPoly.monomial(gens.nvars, m) * g).coeff_vector())
    return row_basis(tuple(rows))


def reference_hilbert_quotient(gens: IdealGens, cap: int) -> tuple | None:
    """Quotient values up to the first zero, or None if the cap comes first."""
    values = []
    for d in range(cap + 1):
        q = component_dim(gens.nvars, d) - len(reference_ideal_component(gens, d))
        if q == 0:
            return tuple(values)
        values.append(q)
    return None


def reference_ideals_equal(a: IdealGens, b: IdealGens, dmax: int) -> bool:
    return all(
        reference_ideal_component(a, d) == reference_ideal_component(b, d)
        for d in range(dmax + 1)
    )


def reference_ideal_contains(big: IdealGens, small: IdealGens, dmax: int) -> bool:
    for d in range(dmax + 1):
        comp_big = reference_ideal_component(big, d)
        comp_small = reference_ideal_component(small, d)
        if len(row_basis(comp_big + comp_small)) != len(comp_big):
            return False
    return True


def reference_direct_sum_certificate(p: GradedSubspace, gens: IdealGens, dmax: int | None = None) -> dict:
    if dmax is None:
        dmax = p.top_degree() + 1
    table = []
    ok = True
    for d in range(dmax + 1):
        basis_p = p.component(d)
        basis_i = reference_ideal_component(gens, d)
        full = component_dim(p.nvars, d)
        stacked_rank = reference_rank(basis_p + basis_i)
        line = {
            "degree": d,
            "dim_space": len(basis_p),
            "dim_ideal": len(basis_i),
            "dim_full": full,
            "sum_ok": len(basis_p) + len(basis_i) == full,
            "independent": stacked_rank == len(basis_p) + len(basis_i),
        }
        line["passed"] = line["sum_ok"] and line["independent"]
        ok = ok and line["passed"]
        table.append(line)
    return {"dmax": dmax, "degrees": table, "passed": ok}


def _random_poly(rng, nvars: int, d: int) -> HPoly:
    mons = monomials(nvars, d)
    support = rng.sample(mons, rng.randint(1, min(3, len(mons))))
    return HPoly(nvars, {m: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4)) for m in support})


def _random_gens(rng, nvars: int) -> IdealGens:
    """Up to five generators of degrees 0-4 with rational coefficients; may
    add a zero generator, a duplicate, a scaled copy, or every monomial of a
    low degree (a component that is full early).  Built directly, not by
    IdealGens.make, so zeros and duplicates reach the Ideal."""
    polys = [
        _random_poly(rng, nvars, 0 if rng.random() < 0.05 else rng.randint(1, 4))
        for _ in range(rng.randint(0, 5))
    ]
    if rng.random() < 0.2:
        polys.append(HPoly.zero(nvars))
    if polys and rng.random() < 0.3:
        g = rng.choice(polys)
        polys.append(g if rng.random() < 0.5 else g.scale(Fraction(-3, 2)))
    if rng.random() < 0.2:
        e = rng.randint(1, 2)
        polys += [HPoly.monomial(nvars, m) for m in monomials(nvars, e)]
    rng.shuffle(polys)
    return IdealGens(nvars, tuple(map(as_row, polys)))


def _unit_rows(size: int) -> tuple:
    return tuple(tuple(Fraction(int(i == j)) for j in range(size)) for i in range(size))


def _nonzero(gens: IdealGens) -> IdealGens:
    """The all-multiples route needs nonzero generators (IdealGens.make drops
    zeros; a zero one would give a row of the wrong length)."""
    return IdealGens(gens.nvars, tuple(g for g in gens.gens if any(g[1])))


def _dense(row: dict, size: int) -> list:
    out = [0] * size
    for c, x in row.items():
        out[c] = x
    return out


def _assert_ideal_matches_oracle(gens: IdealGens, dmax: int):
    ideal = Ideal(gens)
    nonzero = _nonzero(gens)
    for d in range(dmax + 1):
        ref = reference_ideal_component(nonzero, d)
        assert ideal.dim(d) == len(ref)
        assert ideal.is_full(d) == (len(ref) == component_dim(gens.nvars, d))
        if ideal.is_full(d):
            assert ref == _unit_rows(component_dim(gens.nvars, d))
        else:
            size = component_dim(gens.nvars, d)
            assert row_basis(_dense(r, size) for r in ideal.pivots(d).values()) == ref
    expected = reference_hilbert_quotient(nonzero, dmax)
    if expected is None:
        with pytest.raises(NoStabilization):
            hilbert_quotient(gens, cap=dmax)
    else:
        assert hilbert_quotient(gens, cap=dmax) == expected


@pytest.mark.parametrize("seed", range(32))
def test_ideal_matches_all_multiples_oracle(seed):
    rng = random.Random(7000 + seed)
    _assert_ideal_matches_oracle(_random_gens(rng, 1 + seed % 4), 5 - seed % 4 // 2)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(nvars=st.integers(1, 4), rng=st.randoms(use_true_random=False))
def test_ideal_matches_all_multiples_oracle_hypothesis(nvars, rng):
    _assert_ideal_matches_oracle(_random_gens(rng, nvars), 4)


# -- IdealGens.make against the render-keyed dedupe -------------------------------


def _generator_rows(rng, nvars: int) -> tuple:
    """Seeded rational HPolys with 2p, -p and p itself next to some p, a
    zero polynomial, and their (degree, row, den) tuples, each row and
    denominator multiplied by a common factor (the same polynomial)."""
    polys = [_random_poly(rng, nvars, rng.randint(0, 3)) for _ in range(rng.randint(0, 5))]
    for p in list(polys):
        polys += rng.sample([p.scale(2), p.scale(-1), p, p.scale(Fraction(1, 3))], rng.randint(1, 4))
    if rng.random() < 0.5:
        polys.append(HPoly.zero(nvars))
    rng.shuffle(polys)
    rows = []
    for p in polys:
        d, row, den = as_row(p)
        k = rng.choice((1, 1, 2, 6))
        rows.append((d, tuple(k * x for x in row), k * den))
    if rng.random() < 0.5:
        d = rng.randint(1, 3)
        rows.append((d, (0,) * component_dim(nvars, d), rng.randint(1, 5)))
    return polys, rows


def _assert_make_matches_render_keys(nvars: int, polys, rows) -> None:
    got = IdealGens.make(nvars, rows)
    want = reference_ideal_gens(polys)
    assert tuple(as_hpoly(nvars, g) for g in got.gens) == tuple(sorted(want, key=lambda p: as_row(p)))
    assert _render_ideal(got) == [render(p) for p in want]
    assert list(got.gens) == sorted(set(got.gens))
    for d, row, den in got.gens:
        assert any(row) and den > 0 and gcd(den, *row) == 1
        assert len(row) == component_dim(nvars, d)


def test_ideal_gens_make_keeps_multiples_and_merges_equal_tuples():
    p = (1, (1, 2), 1)
    gens = IdealGens.make(
        2,
        [p, (1, (2, 4), 1), (1, (-1, -2), 1), (1, (2, 4), 2), (1, (0, 0), 3), (2, (0, 0, 0), 1), (1, (3, 6), 2)],
    )
    # 2p and -p are other polynomials; (2 row, 2 den) is p; zeros go
    assert gens.gens == ((1, (-1, -2), 1), (1, (1, 2), 1), (1, (2, 4), 1), (1, (3, 6), 2))


@pytest.mark.parametrize("seed", range(24))
def test_ideal_gens_make_matches_the_render_keyed_dedupe(seed):
    rng = random.Random(6100 + seed)
    nvars = 1 + seed % 4
    _assert_make_matches_render_keys(nvars, *_generator_rows(rng, nvars))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(nvars=st.integers(1, 4), rng=st.randoms(use_true_random=False))
def test_ideal_gens_make_matches_the_render_keyed_dedupe_hypothesis(nvars, rng):
    _assert_make_matches_render_keys(nvars, *_generator_rows(rng, nvars))


def test_ideal_full_from_a_constant_and_without_generators():
    whole = Ideal(gens_of(3, [(0, 0, 0)]))
    assert whole.full_degree is None  # nothing is built before it is asked for
    assert whole.is_full(0) and whole.full_degree == 0
    assert whole.dim(4) == component_dim(3, 4)
    empty = Ideal(IdealGens.make(3, []))
    assert [empty.dim(d) for d in range(4)] == [0, 0, 0, 0]
    assert empty.full_degree is None


def _related_gens(rng, a: IdealGens) -> IdealGens:
    """An ideal that equals a, lies inside it, or is unrelated to it."""
    nvars = a.nvars
    relation = rng.choice(("equal", "inside", "extra", "random"))
    if relation == "random" or not a.gens:
        return _random_gens(rng, nvars)
    multiples = [
        as_row(
            (HPoly.monomial(nvars, rng.choice(monomials(nvars, rng.randint(0, 1)))) * as_hpoly(nvars, g))
            .scale(rng.randint(1, 3))
        )
        for g in a.gens
        if rng.random() < 0.5
    ]
    if relation == "equal":
        return IdealGens(nvars, a.gens[::-1] + tuple(multiples))
    if relation == "inside":
        return IdealGens(nvars, tuple(multiples) + a.gens[: rng.randint(0, len(a.gens))])
    return IdealGens(nvars, a.gens + (as_row(_random_poly(rng, nvars, rng.randint(1, 3))),))


def _assert_comparisons_match(a: IdealGens, b: IdealGens, dmax: int):
    ra, rb = _nonzero(a), _nonzero(b)
    assert ideals_equal(a, b, dmax) == reference_ideals_equal(ra, rb, dmax)
    assert ideals_equal(b, a, dmax) == reference_ideals_equal(rb, ra, dmax)
    assert ideal_contains(a, b, dmax) == reference_ideal_contains(ra, rb, dmax)
    assert ideal_contains(b, a, dmax) == reference_ideal_contains(rb, ra, dmax)


@pytest.mark.parametrize("seed", range(24))
def test_ideal_comparisons_match_canonical_route(seed):
    rng = random.Random(9000 + seed)
    a = _random_gens(rng, rng.randint(1, 3))
    b = _related_gens(rng, a)
    for dmax in (1, 3, 5):
        _assert_comparisons_match(a, b, dmax)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(nvars=st.integers(1, 3), dmax=st.integers(0, 4), rng=st.randoms(use_true_random=False))
def test_ideal_comparisons_match_canonical_route_hypothesis(nvars, dmax, rng):
    a = _random_gens(rng, nvars)
    _assert_comparisons_match(a, _related_gens(rng, a), dmax)


@pytest.mark.parametrize("seed", range(24))
def test_direct_sum_certificate_matches_all_multiples_route(seed):
    # the kernel complements the ideal in every degree (a passing
    # certificate); a random space, a truncated kernel or one with an extra
    # component past the ideal's full degree does not
    rng = random.Random(5000 + seed)
    nvars = rng.randint(1, 3)
    gens = _random_gens(rng, nvars)
    top = rng.randint(0, 4)
    spaces = [kernel(_nonzero(gens), top), random_space(rng, nvars, rng.randint(0, 3), rng.randint(1, 3))]
    spaces.append(add(spaces[0], random_space(rng, nvars, top + 1, 1)))
    for p in spaces:
        for dmax in (None, top + 2):
            got = direct_sum_certificate(p, gens, dmax)
            assert got == reference_direct_sum_certificate(p, _nonzero(gens), dmax)


K4 = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, -1), (0, 1, -1))
KINDS = ("central", "external", "semi_external", "semi_internal")


@pytest.fixture(scope="module")
def document_bundles():
    """Every bundle of every shipped input document, and of K4 with i = {5}."""
    out = []
    for path in sorted(INPUTS.glob("*.json")):
        c, meta = parse_document(json.loads(path.read_text()))
        if meta["iprime_closed"]:
            fam = ensure_family(c, SemiExternalFamily(tuple(meta["iprime"])))
        else:
            fam = semiexternal_close(c, meta["iprime"])
        out += [bundle_for(c, kind, fam, frozenset(meta["i"])) for kind in KINDS]
    unit = tuple(tuple(int(i == j) for i in range(3)) for j in range(3))
    k4 = Config(K4, b0=unit)
    out += [bundle_for(k4, kind, None, frozenset({5})) for kind in KINDS if kind != "semi_external"]
    return out


def test_bundle_ideals_match_all_multiples_oracle(document_bundles):
    for b in document_bundles:
        dmax = b.p_space.top_degree() + 2
        for gens in (b.i_ideal, b.j_ideal, b.ieps_ideal):
            if gens is not None:
                _assert_ideal_matches_oracle(gens, dmax)
        if b.ieps_ideal is not None:
            _assert_comparisons_match(b.i_ideal, b.ieps_ideal, dmax)
        assert direct_sum_certificate(b.p_space, b.j_ideal) == reference_direct_sum_certificate(
            b.p_space, b.j_ideal
        )


def test_direct_sum_certificate_stops_eliminating_at_the_full_degree(monkeypatch):
    g = gens_of(2, [(2, 0), (0, 2)])  # full from degree 3 on
    widths = []
    real = graded.sparse_echelon

    def counting(rows, ncols, start=None):
        widths.append(ncols)
        return real(rows, ncols, start)

    monkeypatch.setattr(graded, "sparse_echelon", counting)
    cert = direct_sum_certificate(kernel(g, 2), g, dmax=30)
    assert cert["passed"] and len(cert["degrees"]) == 31
    assert cert["degrees"][30] == {
        "degree": 30,
        "dim_space": 0,
        "dim_ideal": 31,
        "dim_full": 31,
        "sum_ok": True,
        "independent": True,
        "passed": True,
    }
    # stacked ranks in degrees 0-2, components built in degrees 2-3; degree 3
    # (4 monomials in 2 variables) is the last one eliminated
    assert max(widths) == component_dim(2, 3)
    assert len(widths) == 5


# -- the sparse Ideal against the dense one it replaced -------------------------


@st.composite
def _drawn_poly(draw, nvars: int, degree: int) -> tuple:
    """A (degree, integer row, denominator) tuple with many zero entries."""
    size = component_dim(nvars, degree)
    row = draw(st.lists(st.sampled_from((0, 0, 0, 1, -1, 2, -3)), min_size=size, max_size=size))
    return degree, tuple(row), draw(st.integers(1, 4))


@st.composite
def _drawn_gens(draw) -> IdealGens:
    """1-4 variables and up to four generators of mixed degrees 1-3, with
    repeats and sometimes a constant; built directly, so repeats and zero
    rows reach the Ideal."""
    nvars = draw(st.integers(1, 4))
    polys = [draw(_drawn_poly(nvars, draw(st.integers(1, 3)))) for _ in range(draw(st.integers(0, 4)))]
    if polys and draw(st.booleans()):
        polys += draw(st.lists(st.sampled_from(polys), min_size=1, max_size=2))
    if draw(st.integers(0, 7)) == 0:
        polys.append(draw(_drawn_poly(nvars, 0)))
    return IdealGens(nvars, tuple(draw(st.permutations(polys))))


def _multiple(rng, nvars: int, g: tuple, d: int) -> tuple:
    """A monomial of degree d - deg g times g, scaled: a member of the ideal."""
    m = rng.choice(monomials(nvars, d - g[0]))
    return as_row((HPoly.monomial(nvars, m, rng.choice((1, -2, 3))) * as_hpoly(nvars, g)))


def _assert_sparse_matches_dense(gens: IdealGens, dmax: int, rng) -> None:
    """Dimensions, full degree, membership and direct-sum certificates of the
    sparse Ideal equal those of the dense oracle."""
    n = gens.nvars
    sparse, dense = Ideal(gens), graded_oracle.Ideal(gens)
    for d in range(dmax + 1):
        assert (sparse.dim(d), sparse.is_full(d)) == (dense.dim(d), dense.is_full(d))
    assert sparse.full_degree == dense.full_degree
    members = [as_row(_random_poly(rng, n, rng.randint(0, dmax))) for _ in range(3)]
    for g in gens.gens:
        d = rng.randint(g[0], dmax) if g[0] <= dmax else None
        if d is not None and any(g[1]):
            p = _multiple(rng, n, g, d)
            members.append(p)
            q = as_hpoly(n, p) + _random_poly(rng, n, d).scale(rng.choice((0, 1)))
            if q.coeffs:
                members.append(as_row(q))
    for p in members:
        assert (p in sparse) == (p in dense)
    top = rng.randint(0, dmax)
    for p in (kernel(_nonzero(gens), top), random_space(rng, n, top, rng.randint(1, 2))):
        for cap in (None, dmax):
            assert direct_sum_certificate(p, gens, cap) == graded_oracle.direct_sum_certificate(
                fraction_space(p), gens, cap
            )


@settings(derandomize=True, max_examples=80, deadline=None)
@given(gens=_drawn_gens(), dmax=st.integers(0, 5), rng=st.randoms(use_true_random=False))
@example(gens=IdealGens(2, ()), dmax=3, rng=random.Random(1))
@example(gens=IdealGens(3, ((0, (2,), 3), (2, (1, 0, 0, -1, 0, 0), 1))), dmax=4, rng=random.Random(2))
@example(gens=IdealGens(1, ((2, (3,), 1), (2, (3,), 1), (1, (-1,), 2))), dmax=4, rng=random.Random(3))
def test_sparse_ideal_matches_the_dense_one(gens, dmax, rng):
    _assert_sparse_matches_dense(gens, dmax, rng)


# draw_base(5, 8, (0, 1), 3) of the benchmark's algebra ladder, written out
LADDER_5X8 = (
    (0, 0, 1, 0, 0, 1, 1, 0),
    (0, 1, 1, 1, 1, 1, 0, 1),
    (1, 1, 1, 0, 0, 1, 0, 1),
    (1, 0, 0, 0, 1, 1, 0, 1),
    (0, 0, 0, 0, 1, 0, 1, 1),
)


def test_external_ideal_of_a_5_by_8_configuration():
    unit = tuple(tuple(int(i == j) for i in range(5)) for j in range(5))
    bundle = bundle_for(Config(tuple(zip(*LADDER_5X8)), b0=unit), "external")
    hilbert = (1, 5, 15, 35, 61, 55, 28, 8, 1)
    assert bundle.hilbert_valuation == bundle.hilbert_algebraic == bundle.p_space.hilbert() == hilbert
    sparse, dense = Ideal(bundle.i_ideal), graded_oracle.Ideal(bundle.i_ideal)
    dims = [sparse.dim(d) for d in range(len(hilbert) + 1)]
    assert dims == [dense.dim(d) for d in range(len(hilbert) + 1)]
    assert dims == [component_dim(5, d) - h for d, h in enumerate(hilbert + (0,))]
    assert sparse.full_degree == dense.full_degree == len(hilbert)

"""Integer graded subspaces and the integer kernel against the Fraction-RREF route.

Every GradedSubspace component is stored as its canonical integer basis and
every kernel row is written down from the generators' integer coefficients.
The oracle (graded_oracle) is the earlier code verbatim, on Fraction RREF
rows and diff_apply columns.  Both routes must render the same basis
polynomials, have the same Hilbert functions and make the same equality
and direct-sum decisions; every integer component must be in canonical
form.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graded_oracle as oracle
from graded_oracle import assert_canonical
from hpoly_oracle import as_hpoly, as_row, render
from zonoforge.graded import (
    GradedSubspace,
    IdealGens,
    add,
    direct_sum_certificate,
    intersect,
    kernel,
)
from zonoforge.poly import HPoly, monomials

RELATIONS = ("zero", "equal", "nested", "scaled", "random")


def _coeff(rng) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3, 4)))


def _poly(rng, nvars: int, d: int) -> HPoly:
    mons = monomials(nvars, d)
    return HPoly(nvars, {m: _coeff(rng) for m in rng.sample(mons, rng.randint(1, len(mons)))})


def _combination(rng, nvars: int, polys) -> HPoly:
    out = HPoly.zero(nvars)
    for p in polys:
        out = out + p.scale(_coeff(rng))
    return out


def _component_pair(rng, nvars: int, d: int, relation: str):
    """Spanning polynomials of two degree-d components: one side empty, the
    same space spanned differently, one inside the other, the same rows
    scaled and repeated, or drawn independently.  Zero polynomials and
    repeated rows are left in."""
    mons = monomials(nvars, d)
    ps = [_poly(rng, nvars, d) for _ in range(rng.randint(1, len(mons)))]
    if relation == "zero":
        pair = (ps, [HPoly.zero(nvars)] if rng.random() < 0.5 else [])
    elif relation == "equal":
        pair = (ps, ps[::-1] + [_combination(rng, nvars, ps) for _ in range(2)])
    elif relation == "nested":
        pair = (ps, [_combination(rng, nvars, ps) for _ in range(rng.randint(1, len(ps)))])
    elif relation == "scaled":
        pair = (ps, [p.scale(rng.choice((-2, Fraction(1, 3), Fraction(-5, 2)))) for p in ps] + ps[:1])
    else:
        pair = (ps, [_poly(rng, nvars, d) for _ in range(rng.randint(1, len(mons)))])
    return pair if rng.random() < 0.5 else pair[::-1]


def _space_pair(rng, nvars: int, relations):
    """Polynomials spanning two graded spaces, one relation per degree."""
    pa, pb = [], []
    for d, relation in enumerate(relations):
        a, b = _component_pair(rng, nvars, d, relation)
        pa += a
        pb += b
    return pa, pb


def _gens(rng, nvars: int) -> IdealGens:
    """Up to four generators of degrees 0-3, with a zero one, a scaled
    duplicate or every monomial of degree 1 or 2 sometimes added."""
    polys = [_poly(rng, nvars, 0 if rng.random() < 0.05 else rng.randint(1, 3)) for _ in range(rng.randint(0, 4))]
    if rng.random() < 0.2:
        polys.append(HPoly.zero(nvars))
    if polys and rng.random() < 0.3:
        polys.append(rng.choice(polys).scale(Fraction(-3, 2)))
    if rng.random() < 0.15:
        polys += [HPoly.monomial(nvars, m) for m in monomials(nvars, rng.randint(1, 2))]
    return IdealGens.make(nvars, map(as_row, polys))


def assert_same_space(got: GradedSubspace, ref: oracle.GradedSubspace) -> None:
    assert_canonical(got)
    assert got.nvars == ref.nvars
    polys = tuple(as_hpoly(got.nvars, p) for p in got.basis_polys())
    assert polys == ref.basis_polys()
    assert [render(p) for p in polys] == [render(p) for p in ref.basis_polys()]
    assert got.hilbert() == ref.hilbert()
    assert (got.dim(), got.top_degree()) == (ref.dim(), ref.top_degree())


def check_pair(nvars: int, pa, pb) -> None:
    a = GradedSubspace.from_spanning(nvars, map(as_row, pa))
    b = GradedSubspace.from_spanning(nvars, map(as_row, pb))
    ra, rb = oracle.GradedSubspace.from_spanning(nvars, pa), oracle.GradedSubspace.from_spanning(nvars, pb)
    assert_same_space(a, ra)
    assert_same_space(b, rb)
    assert (a == b) == (ra == rb)
    for x, y, rx, ry in ((a, b, ra, rb), (b, a, rb, ra), (a, a, ra, ra)):
        assert_same_space(intersect(x, y), oracle.intersect(rx, ry))
        assert_same_space(add(x, y), oracle.add(rx, ry))
    assert (intersect(a, b) == a) == (oracle.intersect(ra, rb) == ra)


def check_kernel(gens: IdealGens, dmax: int, rng) -> None:
    k, rk = kernel(gens, dmax), oracle.kernel(gens, dmax)
    assert_same_space(k, rk)
    # the kernel complements the ideal, a perturbed space need not
    other = [_poly(rng, gens.nvars, rng.randint(0, dmax)) for _ in range(2)]
    spaces = [
        (k, rk),
        (
            GradedSubspace.from_spanning(gens.nvars, map(as_row, other)),
            oracle.GradedSubspace.from_spanning(gens.nvars, other),
        ),
    ]
    for p, rp in spaces:
        for top in (None, dmax + 1):
            assert direct_sum_certificate(p, gens, top) == oracle.direct_sum_certificate(rp, gens, top)


@pytest.mark.parametrize("seed", range(24))
def test_spaces_match_the_fraction_route(seed):
    rng = random.Random(3100 + seed)
    nvars = 1 + seed % 4
    relations = [RELATIONS[(seed + d) % len(RELATIONS)] for d in range(4 if nvars < 4 else 3)]
    check_pair(nvars, *_space_pair(rng, nvars, relations))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    nvars=st.integers(1, 4),
    relations=st.lists(st.sampled_from(RELATIONS), min_size=1, max_size=3),
    rng=st.randoms(use_true_random=False),
)
def test_spaces_match_the_fraction_route_hypothesis(nvars, relations, rng):
    check_pair(nvars, *_space_pair(rng, nvars, relations))


@pytest.mark.parametrize("seed", range(24))
def test_kernel_matches_the_diff_apply_route(seed):
    rng = random.Random(4100 + seed)
    nvars = 1 + seed % 4
    check_kernel(_gens(rng, nvars), 4 if nvars < 4 else 3, rng)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(nvars=st.integers(1, 4), dmax=st.integers(0, 3), rng=st.randoms(use_true_random=False))
def test_kernel_matches_the_diff_apply_route_hypothesis(nvars, dmax, rng):
    check_kernel(_gens(rng, nvars), dmax, rng)


def test_canonical_rows_and_their_rendering():
    # a row is stored as the RREF row scaled to coprime integers, and
    # handed out with its pivot as the denominator: the RREF row again
    both = GradedSubspace.from_spanning(2, map(as_row, [HPoly(2, {(1, 0): 1, (0, 1): -2}), HPoly(2, {(0, 1): 3})]))
    assert both.comps == ((1, ((1, 0), (0, 1))),)
    line = GradedSubspace.from_spanning(2, [as_row(HPoly(2, {(1, 0): Fraction(-1, 2), (0, 1): 1}))])
    assert line.comps == ((1, ((1, -2),)),)
    assert line.basis_polys() == ((1, (1, -2), 1),)
    assert [render(as_hpoly(2, p)) for p in line.basis_polys()] == ["t1 - 2*t2"]
    third = GradedSubspace.from_spanning(2, [as_row(HPoly(2, {(1, 0): 3, (0, 1): 2}))])
    assert third.comps == ((1, ((3, 2),)),)
    assert third.basis_polys() == ((1, (3, 2), 3),)
    assert [render(as_hpoly(2, p)) for p in third.basis_polys()] == ["t1 + 2/3*t2"]


def test_kernel_without_generators_is_everything():
    k = kernel(IdealGens.make(3, []), 2)
    assert k.hilbert() == (1, 3, 6)
    assert_canonical(k)
    assert_same_space(k, oracle.kernel(IdealGens.make(3, []), 2))

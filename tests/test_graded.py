"""Graded subspaces, ideal components, kernels and Hilbert functions."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zonoforge.errors import DimensionMismatch, NoStabilization
from zonoforge.graded import (
    GradedSubspace,
    IdealGens,
    add,
    component_dim,
    contains,
    direct_sum_certificate,
    hilbert_quotient,
    ideal_component,
    ideal_contains,
    ideals_equal,
    intersect,
    kernel,
)
from zonoforge.linalg import nullspace
from zonoforge.poly import HPoly, monomials


def gens_of(nvars, exps):
    return IdealGens.make(nvars, [HPoly.monomial(nvars, e) for e in exps])


def test_component_dim():
    assert component_dim(3, 2) == 6
    assert component_dim(1, 5) == 1
    assert component_dim(2, 0) == 1


def test_from_spanning_is_canonical():
    t1 = HPoly.linear_form((1, 0))
    t2 = HPoly.linear_form((0, 1))
    a = GradedSubspace.from_spanning(2, [t1, t2])
    b = GradedSubspace.from_spanning(2, [t1 + t2, t1 - t2, t1])
    assert a == b
    assert a.hilbert() == (0, 2)
    assert a.dim() == 2


def test_ideal_component_dims_principal():
    g = gens_of(2, [(2, 0)])
    assert len(ideal_component(g, 1)) == 0
    assert len(ideal_component(g, 2)) == 1
    assert len(ideal_component(g, 3)) == 2
    assert len(ideal_component(g, 4)) == 3


def test_kernel_of_two_pure_powers():
    g = gens_of(2, [(2, 0), (0, 2)])
    k = kernel(g, 4)
    assert k.hilbert() == (1, 2, 1)
    assert hilbert_quotient(g) == (1, 2, 1)


def test_hilbert_quotient_never_stabilizes_without_gens():
    with pytest.raises(NoStabilization):
        hilbert_quotient(IdealGens.make(2, []), cap=5)


def test_kernel_ideal_duality_random():
    # dim kernel_d + dim ideal_d must always give the full component
    rng = random.Random(11)
    for _ in range(8):
        nvars = rng.randint(1, 3)
        exps = [rng.choice(monomials(nvars, rng.randint(1, 2))) for _ in range(2)]
        g = gens_of(nvars, exps)
        k = kernel(g, 4)
        for d in range(5):
            assert len(k.component(d)) + len(ideal_component(g, d)) == component_dim(
                nvars, d
            )


def random_space(rng, nvars, degree, count):
    polys = [
        HPoly(nvars, {m: rng.randint(-2, 2) for m in monomials(nvars, degree)})
        for _ in range(count)
    ]
    return GradedSubspace.from_spanning(nvars, polys)


def test_lattice_identities_random():
    rng = random.Random(5)
    for _ in range(10):
        nvars = rng.randint(2, 3)
        d = rng.randint(1, 2)
        a = random_space(rng, nvars, d, rng.randint(1, 3))
        b = random_space(rng, nvars, d, rng.randint(1, 3))
        s = add(a, b)
        m = intersect(a, b)
        assert contains(s, a) and contains(s, b)
        assert contains(a, m) and contains(b, m)
        assert intersect(a, s) == a
        assert a.dim() + b.dim() == s.dim() + m.dim()


def test_direct_sum_certificate_pass_and_fail():
    g = gens_of(2, [(2, 0), (0, 2)])
    cert = direct_sum_certificate(kernel(g, 2), g)
    assert cert["passed"]
    assert cert["dmax"] == 3
    assert all(line["passed"] for line in cert["degrees"])
    wrong = GradedSubspace.from_spanning(2, [HPoly.monomial(2, (2, 0))])
    assert not direct_sum_certificate(wrong, g)["passed"]


def test_ideal_equality_and_containment():
    a = gens_of(2, [(1, 0)])
    b = IdealGens.make(
        2, [HPoly.monomial(2, (1, 0)), HPoly.monomial(2, (2, 0))]
    )
    assert ideals_equal(a, b, 5)
    assert ideal_contains(a, gens_of(2, [(2, 0)]), 5)
    assert not ideal_contains(gens_of(2, [(2, 0)]), a, 5)
    assert not ideals_equal(a, gens_of(2, [(0, 1)]), 3)


def test_contains_is_degreewise():
    big = GradedSubspace.from_spanning(
        2, [HPoly.monomial(2, (1, 0)), HPoly.monomial(2, (0, 1))]
    )
    small = GradedSubspace.from_spanning(2, [HPoly.monomial(2, (2, 0))])
    # degree 2 of big is empty, so the degree-2 line cannot sit inside it
    assert not contains(big, small)
    assert contains(big, GradedSubspace.zero(2))


# -- intersection against the complement-of-sum-of-complements route -----------


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
        comp_a = nullspace(basis_a, ncols=ncols)
        comp_b = nullspace(basis_b, ncols=ncols)
        comps[d] = nullspace(comp_a + comp_b, ncols=ncols)
    return GradedSubspace.from_components(a.nvars, comps)


RELATIONS = ("zero", "equal", "nested", "trivial", "random")


def _component_pair(rng, nvars: int, d: int, relation: str):
    """Spanning polynomials of two degree-d components in the given relation:
    one side empty, the same space, one inside the other, meeting only in 0
    (disjoint monomial supports), or drawn independently."""
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
    else:
        pair = (ps, draw(mons, rng.randint(1, size)))
    return pair if rng.random() < 0.5 else pair[::-1]


def _space_pair(rng, nvars: int, relations):
    pa, pb = [], []
    for d, relation in enumerate(relations):
        a, b = _component_pair(rng, nvars, d, relation)
        pa += a
        pb += b
    return GradedSubspace.from_spanning(nvars, pa), GradedSubspace.from_spanning(nvars, pb)


def _assert_intersections_match(a, b):
    for x, y in ((a, b), (b, a), (a, a)):
        got = intersect(x, y)
        assert got == reference_intersect(x, y)
        assert all(type(v) is Fraction for _, basis in got.comps for row in basis for v in row)


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


def test_intersect_rejects_different_rings():
    with pytest.raises(DimensionMismatch):
        intersect(GradedSubspace.zero(2), GradedSubspace.zero(3))

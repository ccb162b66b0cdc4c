"""Acceptance gate: one test per criterion, all exact, tolerance zero.

Each test prints its own pass line so a verbose run reads as a checklist.
Expected values are hand-derived oracles frozen before implementation:
facet normals with their multiplicities, activity counts and the two family
closures of the worked three-dimensional example.
"""

from __future__ import annotations

import random

from zonoforge.config import (
    Config,
    bases,
    extend_basis,
    full_family,
    independents,
    is_coloop,
    is_independent,
    make_config,
    semiexternal_close,
)
from zonoforge.geometry import (
    least_space,
    make_arrangement,
    restriction_certificate,
    vertex_set,
    zonotope_lattice,
)
from graded_oracle import integer_contains
from hpoly_oracle import as_row
from zonoforge.graded import hilbert_quotient, ideals_equal, kernel
from zonoforge.poly import HPoly
from zonoforge.verify import run_theorem
from zonoforge.zonotopal import (
    central,
    codimension_counts,
    d_space,
    dual_pairing_certificate,
    external,
    full_span_space,
    internal_extension_check,
    minimal_completion_sum,
    semi_external,
    semi_internal,
    stabilization_cap,
)


def form(vec):
    return HPoly.linear_form(vec)


def certified_equal(a, b, c):
    cap = stabilization_cap(c)
    dmax = max(len(hilbert_quotient(a, cap)), len(hilbert_quotient(b, cap)))
    return ideals_equal(a, b, dmax)


def test_criterion_01_first_family_space_and_ideal(ex25, fam1):
    b = semi_external(ex25, fam1)
    assert b.dim() == 7
    assert b.p_space.hilbert() == (1, 3, 3)
    from zonoforge.graded import IdealGens

    hand = IdealGens.make(
        3,
        map(
            as_row,
            [
                form((0, 0, 1)) ** 3,
                form((0, 1, 0)) ** 3,
                form((0, 1, -1)) ** 3,
                form((1, 0, 0)) ** 2,
                form((1, 0, -1)) ** 2,
                form((1, -1, 0)) ** 2,
                form((0, 0, 1)) ** 2 * form((0, 1, 0)),
            ],
        ),
    )
    assert certified_equal(b.i_ideal, hand, ex25)
    print("criterion 1: first-family space and power ideal reproduce the worked values")


def test_criterion_02_second_family_pure_powers(ex25, fam2):
    b = semi_external(ex25, fam2)
    assert b.dim() == 8
    assert b.p_space.hilbert() == (1, 3, 3, 1)
    from zonoforge.config import normal_power_condition
    from zonoforge.graded import IdealGens

    hand = IdealGens.make(
        3,
        map(
            as_row,
            [
                form((0, 0, 1)) ** 3,
                form((0, 1, 0)) ** 3,
                form((0, 1, -1)) ** 3,
                form((1, 0, 0)) ** 2,
                form((1, 0, -1)) ** 2,
                form((1, -1, 0)) ** 2,
            ],
        ),
    )
    assert certified_equal(b.i_ideal, hand, ex25)
    holds, witness = normal_power_condition(ex25, fam2)
    assert holds and witness is None
    # part (1): the constructed ideal collapses to the plain normal powers
    assert certified_equal(b.i_ideal, b.ieps_ideal, ex25)
    # part (2): the minimal-member completion sum rebuilds the space
    assert minimal_completion_sum(ex25, fam2) == b.p_space
    print("criterion 2: second-family space, pure powers and both decomposition certificates")


def _bundles(ex25, fam1, fam2, triangle, identity2, repeated):
    tri_fam = semiexternal_close(triangle, [{2}])
    rep_fam = semiexternal_close(repeated, [{0}])
    return [
        central(ex25),
        external(ex25),
        semi_external(ex25, fam1),
        semi_external(ex25, fam2),
        semi_internal(ex25, {3}),
        central(triangle),
        external(triangle),
        semi_external(triangle, tri_fam),
        semi_internal(triangle, {2}),
        central(identity2),
        external(identity2),
        semi_external(identity2, full_family(identity2)),
        semi_internal(identity2, frozenset()),
        central(repeated),
        external(repeated),
        semi_external(repeated, rep_fam),
        semi_internal(repeated, {0}),
    ]


def test_criterion_03_triple_hilbert_everywhere(
    ex25, fam1, fam2, triangle, identity2, repeated
):
    count = 0
    for b in _bundles(ex25, fam1, fam2, triangle, identity2, repeated):
        assert b.hilbert_valuation == b.hilbert_algebraic == b.p_space.hilbert(), b.kind
        count += 1
    assert count == 17
    print("criterion 3: valuation, quotient and space Hilbert functions agree on all bundles")


def test_criterion_04_kernel_identities_everywhere(
    ex25, fam1, fam2, triangle, identity2, repeated
):
    for b in _bundles(ex25, fam1, fam2, triangle, identity2, repeated):
        assert kernel(b.i_ideal, b.p_space.top_degree()) == b.p_space, b.kind
    print("criterion 4: every primal space equals its power-ideal kernel")


def test_criterion_05_direct_sums(ex25, fam1, fam2):
    from zonoforge.graded import direct_sum_certificate

    pairs = [
        central(ex25),
        external(ex25),
        semi_external(ex25, fam1),
        semi_external(ex25, fam2),
        semi_internal(ex25, {3}),
    ]
    for b in pairs:
        cert = direct_sum_certificate(b.p_space, b.j_ideal)
        assert cert["passed"], b.kind
        assert cert["dmax"] == b.p_space.top_degree() + 1
    print("criterion 5: all five cover ideals complement their primal spaces degreewise")


def test_criterion_06_least_map_dualities(ex25_free, fam1):
    c = ex25_free

    def central_least(seed):
        arr = make_arrangement(c, seed=seed)
        return least_space([p for _, p in arr.vertices])

    def semi_external_least(seed):
        arr = make_arrangement(c.extended(), seed=seed)
        return least_space(vertex_set(arr, [extend_basis(c, s) for s in fam1]))

    def semi_internal_least(seed):
        b = semi_internal(c, {3})
        arr = make_arrangement(c, seed=seed)
        return least_space(vertex_set(arr, b.b_minus))

    for builder, bundle in (
        (central_least, central(c)),
        (semi_external_least, semi_external(c, fam1)),
        (semi_internal_least, semi_internal(c, {3})),
    ):
        first, second = builder(0), builder(1)
        assert first == second, bundle.kind
        assert first == d_space(bundle), bundle.kind
    print("criterion 6: least spaces match the cover-ideal kernels for two seeds each")


def test_criterion_07_codimension_counts(ex25, triangle):
    rep = codimension_counts(ex25)
    assert [(r["codim"], r["count"]) for r in rep["rows"]] == [(4, 4), (15, 15), (1, 1)]
    rep = codimension_counts(triangle)
    assert [(r["codim"], r["count"]) for r in rep["rows"]] == [(3, 3), (7, 7), (1, 1)]
    print("criterion 7: power-ideal codimensions equal the three enumeration counts")


def test_criterion_08_lattice_points_least_space(ex25):
    ok, points = zonotope_lattice(ex25)
    assert ok and len(points) == 15
    assert least_space(points) == full_span_space(ex25)
    assert least_space(points) == external(ex25).p_space
    print("criterion 8: the 15 lattice points of the zonotope span the full product space")


def test_criterion_09_gram_invertibility(ex25, fam1, fam2):
    for b in (
        central(ex25),
        semi_external(ex25, fam1),
        semi_external(ex25, fam2),
        semi_internal(ex25, {3}),
    ):
        cert = dual_pairing_certificate(b, d_space(b))
        assert cert["passed"] and cert["invertible"], b.kind
    print("criterion 9: pairing Gram matrices are invertible on all four bundles")


# -- criterion 10: randomized property suites ----------------------------------


def _pool(total):
    rng = random.Random(1_2026)
    configs = []
    while len(configs) < total:
        n = rng.choice([2, 2, 2, 3])
        ncols = rng.randint(n, 5 if n == 2 else 4)
        unit = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
        cols = list(unit)
        while len(cols) < ncols:
            v = tuple(rng.randint(-2, 2) for _ in range(n))
            if any(v):
                cols.append(v)
        rng.shuffle(cols)
        configs.append((Config(tuple(cols), b0=tuple(unit)), rng.randrange(10**6)))
    return configs


def _permuted(c, perm):
    return Config(tuple(c.columns[j] for j in perm), b0=c.b0)


def test_criterion_10_property_suites():
    configs = _pool(54)
    assert len(configs) >= 50
    checked_r37 = 0
    for c, salt in configs:
        rng = random.Random(salt)
        perm = list(range(c.ncols))
        rng.shuffle(perm)
        cp = _permuted(c, perm)

        # order invariance of the three space layers
        assert central(c).p_space == central(cp).p_space
        assert external(c).p_space == external(cp).p_space
        seed_col = rng.randrange(c.ncols)
        fam = semiexternal_close(c, [{seed_col}])
        fam_p = semiexternal_close(cp, [{perm.index(seed_col)}])
        mid = semi_external(c, fam).p_space
        assert mid == semi_external(cp, fam_p).p_space

        # monotone chain
        assert integer_contains(mid, central(c).p_space)
        assert integer_contains(external(c).p_space, mid)

        # least map on random points
        pts = set()
        while len(pts) < rng.randint(1, 5):
            pts.add(tuple(rng.randint(-3, 3) for _ in range(c.n)))
        pts = sorted(pts)
        space = least_space(pts)
        assert space.dim() == len(pts)
        assert restriction_certificate(pts, space)["passed"]

        # span-only dependence of the deletion intersection: doubling a
        # column makes either copy removable with the same outcome
        doubled = Config(c.columns + (c.columns[0],), b0=c.b0)
        first = semi_internal(doubled, {0}).p_space
        second = semi_internal(doubled, {c.ncols}).p_space
        assert first == second

        # patched-extension identity for small index sets
        if any(is_coloop(c, j) for j in range(c.ncols)):
            continue
        for size in (1, 2):
            for i_set in _independent_sets(c, size, rng):
                rep = internal_extension_check(c, i_set)
                assert rep["equal"], (c.columns, i_set)
                checked_r37 += 1
    assert checked_r37 >= 50
    print(
        "criterion 10: order invariance, monotone chain, least-map counts,"
        " deletion symmetry and the small-index identity hold on the pool"
    )


def _independent_sets(c, size, rng):
    cands = [s for s in independents(c) if len(s) == size and not any(is_coloop(c, j) for j in s)]
    rng.shuffle(cands)
    return cands[:2]

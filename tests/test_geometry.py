"""Arrangements, vertex sets, the least map and zonotope lattice points."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpoly_oracle import as_hpoly, as_row, evaluate, from_coeff_vector
from test_linalg import det, reference_rank, reference_rref as rref, subset_rows
from zonoforge import geometry
from zonoforge.config import Config, bases, independents, make_config, rank_of
from zonoforge.errors import (
    ConsistencyError,
    DimensionMismatch,
    DuplicatePoints,
    NotSimple,
    UnknownBasis,
)
from zonoforge.geometry import (
    is_unimodular,
    least_space,
    make_arrangement,
    restriction_certificate,
    vertex_set,
    zonotope_lattice,
)
from zonoforge.graded import GradedSubspace
from zonoforge.linalg import frac, matrix
from zonoforge.poly import monomials, multi_factorial


def test_vertices_of_the_example(ex25):
    arr = make_arrangement(ex25)
    points = {p for _, p in arr.vertices}
    one = Fraction(1)
    assert points == {
        (one, one, one),
        (one, one, -one),
        (one, -one, one),
        (-one, one, one),
    }
    assert reference_simplicity_witness(arr.config, arr.offsets) is None
    assert len(arr.vertices) == len(bases(ex25))


def test_offsets_taken_from_the_config(triangle):
    arr = make_arrangement(triangle)
    assert arr.offsets == (1, 2, 4)


def test_concurrent_lines_rejected():
    c = make_config([[1, 0, 1], [0, 1, 1]], lam=[1, 1, 2])
    with pytest.raises(NotSimple):
        make_arrangement(c)


def test_sampling_fills_holes():
    c = make_config([[1, 0, 1], [0, 1, 1]], lam=[1, None, None])
    arr = make_arrangement(c, seed=4)
    assert arr.offsets[0] == 1
    assert all(x is not None for x in arr.offsets)


def test_sampling_is_seed_deterministic():
    c = make_config([[1, 0, 1], [0, 1, 1]])
    a = make_arrangement(c, seed=12)
    b = make_arrangement(c, seed=12)
    other = make_arrangement(c, seed=13)
    assert a.offsets == b.offsets
    assert a.offsets != other.offsets


def test_sampling_cannot_fix_parallel_equal_offsets():
    # two copies of a column with equal fixed offsets stay concurrent no
    # matter what the sampled entries do, so the first witness ends it
    c = make_config([[1, 1, 0], [0, 0, 1]], lam=[1, 1, None])
    with pytest.raises(NotSimple) as info:
        make_arrangement(c)
    assert info.value.witness == (0, 1)
    # with the hole inside that circuit, a sample separates the copies
    arr = make_arrangement(c, [1, None, 1])
    assert arr.offsets[1] != 1
    assert reference_simplicity_witness(c, arr.offsets) is None


def test_a_coincident_draw_is_shifted_until_simple(monkeypatch):
    # the draw puts column 1's hyperplane on column 0's, its copy; hole k
    # is then shifted by t^(k+1), which separates the copies at t = 1
    class DrawsOne:
        def __init__(self, seed):
            pass

        def randint(self, lo, hi):
            return 1

    c = make_config([[1, 1, 0], [0, 0, 1]], lam=[1, None, None])
    real = geometry._vertices
    tried = []
    monkeypatch.setattr(geometry.random, "Random", DrawsOne)
    monkeypatch.setattr(geometry, "_vertices", lambda c, aug: tried.append(aug) or real(c, aug))
    arr = make_arrangement(c)
    assert [aug[1][-1] for aug in tried] == [1, 2]
    assert arr.offsets == (1, 2, 2)
    assert reference_simplicity_witness(c, arr.offsets) is None


def test_simplicity_asks_the_rank_cache_nothing():
    # K4 with the identity appended (X u B0): sampled offsets, then a fixed
    # vector that puts e1, e2 and e1 - e2 through the origin
    c = Config(((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, -1), (0, 1, -1))
               + ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    bases(c)
    calls = rank_of.cache_info()
    assert len(make_arrangement(c).vertices) == len(bases(c))
    with pytest.raises(NotSimple) as info:
        make_arrangement(c, [0, 0, 1, 0, 2, 3, 4, 5, 6])
    assert info.value.witness == (0, 1, 3)
    after = rank_of.cache_info()
    assert (after.hits, after.misses) == (calls.hits, calls.misses)


def reference_simplicity_witness(c: Config, offsets) -> tuple | None:
    """The earlier check: plain and augmented rank of every subset, here
    skipping subsets with a hole (None offset), which sampling can fix."""
    n = c.n
    for size in range(2, min(c.ncols, n + 1) + 1):
        for subset in itertools.combinations(range(c.ncols), size):
            if any(offsets[j] is None for j in subset):
                continue
            rows = [c.columns[j] for j in subset]
            aug = [row + (frac(offsets[j]),) for row, j in zip(rows, subset)]
            r_plain = reference_rank(rows)
            if reference_rank(aug) == r_plain and r_plain < size:
                return subset
    return None


def check_simplicity(c: Config, offsets) -> bool:
    """make_arrangement raises NotSimple exactly when the oracle finds a
    witness among the fixed offsets; its witness is then a circuit with
    fixed, consistent offsets, and otherwise the sampled arrangement is
    simple with one vertex per basis.  True when NotSimple was raised."""
    expected = reference_simplicity_witness(c, offsets)
    try:
        arr = make_arrangement(c, offsets)
    except NotSimple as exc:
        assert expected is not None
        w = exc.witness
        rows = [c.columns[j] for j in w]
        assert all(offsets[j] is not None for j in w)
        aug = [row + (frac(offsets[j]),) for row, j in zip(rows, w)]
        assert reference_rank(aug) == reference_rank(rows) == len(w) - 1
        assert all(reference_rank(rows[:k] + rows[k + 1:]) == len(w) - 1 for k in range(len(w)))
        return True
    assert expected is None
    assert reference_simplicity_witness(c, arr.offsets) is None
    assert [b for b, _ in arr.vertices] == list(bases(c))
    for b, point in arr.vertices:
        for j in b:
            assert sum(x * u for x, u in zip(c.columns[j], point)) == arr.offsets[j]
    return False


@pytest.mark.parametrize("seed", range(24))
def test_simplicity_witness_matches_two_eliminations(seed):
    # offsets in 0..2 make concurrent and parallel hyperplanes common
    rng = random.Random(seed)
    n = rng.choice((2, 3))
    cols = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    while len(cols) < rng.randint(n + 1, n + 4):
        v = tuple(rng.randint(-1, 2) for _ in range(n))
        if any(v):
            cols.append(v)
    c = Config(tuple(cols))
    for _ in range(6):
        check_simplicity(c, tuple(Fraction(rng.randint(0, 2)) for _ in cols))


@st.composite
def arrangements(draw):
    """A configuration with rational, repeated and scaled columns, n = 1..3,
    sometimes extended by a b0 basis as X u B0, and offsets in 0..2 with
    holes."""
    n = draw(st.integers(1, 3))
    entry = st.builds(Fraction, st.integers(-2, 2), st.sampled_from((1, 2, 3)))
    cols = []
    for _ in range(draw(st.integers(1, 6 - n))):
        kind = draw(st.sampled_from(["fresh", "fresh", "repeat", "scale"]))
        if cols and kind != "fresh":
            v = draw(st.sampled_from(cols))
            k = Fraction(1) if kind == "repeat" else draw(entry.filter(bool))
            cols.append(tuple(k * x for x in v))
        else:
            cols.append(draw(st.tuples(*[entry] * n).filter(any)))
    units = [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
    if draw(st.booleans()):
        cols += units  # X u B0 with b0 the identity, as Config.extended() builds it
    else:
        for u in units:
            if reference_rank(cols) == n:
                break
            cols.append(u)
    offset = st.one_of(st.none(), st.integers(0, 2).map(Fraction))
    offsets = draw(st.lists(offset, min_size=len(cols), max_size=len(cols)))
    return Config(tuple(cols)), tuple(offsets)


def test_simplicity_witness_matches_two_eliminations_hypothesis():
    seen = set()

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(arrangements())
    def check(case):
        c, offsets = case
        seen.add((c.n, check_simplicity(c, offsets), None in offsets))

    check()
    # the draws reach both verdicts, n = 1, and a fixed circuit beside a hole
    assert {n for n, _, _ in seen} == {1, 2, 3}
    assert {v for _, v, _ in seen} == {True, False}
    assert any(v and hole for _, v, hole in seen)


def test_explicit_offsets_override(triangle):
    arr = make_arrangement(triangle, offsets=[0, 0, 1])
    assert arr.offsets == (0, 0, 1)


def test_offsets_length_checked(triangle):
    with pytest.raises(DimensionMismatch):
        make_arrangement(triangle, offsets=[1, 2])


def test_vertex_set_selects_bases(ex25):
    arr = make_arrangement(ex25)
    pts = vertex_set(arr, [frozenset({0, 1, 2})])
    assert pts == ((Fraction(1), Fraction(1), Fraction(1)),)
    with pytest.raises(UnknownBasis):
        vertex_set(arr, [frozenset({0, 1})])


# -- least map -------------------------------------------------------------


def test_least_space_collinear_points():
    # three points on a line carry all univariate polynomials through degree 2
    space = least_space([(0,), (1,), (2,)])
    assert space.hilbert() == (1, 1, 1)


def test_least_space_affine_plane_points():
    space = least_space([(0, 0), (1, 0), (0, 1)])
    assert space.hilbert() == (1, 2)


def test_least_space_mixed_degrees():
    # three collinear points plus one off the line: 1, t1, t2, t1^2
    space = least_space([(0, 0), (1, 0), (2, 0), (0, 1)])
    assert space.hilbert() == (1, 2, 1)
    assert space.dim() == 4


def test_least_space_rejects_bad_input():
    with pytest.raises(DuplicatePoints):
        least_space([(0, 0), (0, 0)])
    with pytest.raises(DimensionMismatch):
        least_space([(0, 0), (1,)])


def test_least_space_single_point():
    space = least_space([(3, 5)])
    assert space.hilbert() == (1,)


def test_restriction_certificate(ex25):
    arr = make_arrangement(ex25)
    pts = [p for _, p in arr.vertices]
    space = least_space(pts)
    cert = restriction_certificate(pts, space)
    assert cert["passed"] and cert["invertible"] and cert["square"]
    assert cert["n_points"] == cert["dim_space"] == 4


def test_restriction_certificate_random_points():
    rng = random.Random(21)
    for _ in range(6):
        n = rng.randint(1, 3)
        count = rng.randint(1, 5)
        pts = set()
        while len(pts) < count:
            pts.add(tuple(rng.randint(-3, 3) for _ in range(n)))
        pts = sorted(pts)
        space = least_space(pts)
        assert space.dim() == len(pts)
        assert restriction_certificate(pts, space)["passed"]


def reference_restriction_invertible(points, space: GradedSubspace) -> bool:
    """The RREF basis evaluated at the points by HPoly dict arithmetic,
    ranked by the dense Fraction loop."""
    polys = [as_hpoly(space.nvars, q) for q in space.basis_polys()]
    ev = [[evaluate(q, p) for q in polys] for p in points]
    return len(polys) == len(points) and reference_rank(ev) == len(points)


@pytest.mark.parametrize("seed", range(8))
def test_restriction_certificate_matches_evaluation_oracle(seed):
    # mixed denominators make the common scale L a product of primes
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    count = rng.randint(1, 6)
    pts = set()
    while len(pts) < count:
        pts.add(tuple(Fraction(rng.randint(-9, 9), rng.choice((1, 7, 11, 13))) for _ in range(n)))
    pts = sorted(pts)
    space = least_space(pts)
    assert restriction_certificate(pts, space)["invertible"]
    assert reference_restriction_invertible(pts, space)
    # the same space against too few or other points of the right count
    others = [tuple(x + Fraction(k, 7) for x in p) for k, p in enumerate(pts)]
    got = restriction_certificate(others, space)
    assert got["invertible"] == reference_restriction_invertible(others, space)
    if count > 1:
        # on a line through the origin two forms of one degree are proportional,
        # so a space with a component of dimension two or more is singular there
        line = [tuple(Fraction(k, 11) * x for x in pts[-1]) for k in range(1, count + 1)]
        if len(set(line)) == count:
            got = restriction_certificate(line, space)
            assert got["invertible"] == reference_restriction_invertible(line, space)


def test_restriction_certificate_singular_square():
    # three collinear points against 1, t1, t2: the evaluation matrix is
    # square, but t2 vanishes on every point
    space = GradedSubspace.from_components(2, {0: [[1]], 1: [[1, 0], [0, 1]]})
    pts = [(0, 0), (1, 0), (2, 0)]
    cert = restriction_certificate(pts, space)
    assert cert["square"] and not cert["invertible"] and not cert["passed"]
    assert not reference_restriction_invertible(pts, space)
    # a point off the line makes the same square system invertible
    cert = restriction_certificate([(0, 0), (1, 0), (Fraction(1, 7), Fraction(2, 13))], space)
    assert cert["invertible"] and cert["passed"]


# Reference: the least map with the Taylor matrix truncated at the fixed
# degree #points - 1 + extra, which never depends on where a rank test
# stops; the oracle for the degree-incremental least_space.


def _taylor_row(point, nvars: int, dmax: int) -> tuple:
    row = []
    for d in range(dmax + 1):
        for exp in monomials(nvars, d):
            val = Fraction(1)
            for x, e in zip(point, exp):
                val *= frac(x) ** e
            row.append(val / multi_factorial(exp))
    return tuple(row)


def reference_least_space(points, extra: int = 0) -> GradedSubspace:
    pts = [tuple(frac(x) for x in p) for p in points]
    for i, p in enumerate(pts):
        if p in pts[:i]:
            raise DuplicatePoints(p)
    if not pts:
        return GradedSubspace.zero(0)
    nvars = len(pts[0])
    if any(len(p) != nvars for p in pts):
        raise DimensionMismatch("points of mixed dimension")

    dmax = max(len(pts) - 1, 0) + extra
    while True:
        rows = matrix([_taylor_row(p, nvars, dmax) for p in pts])
        reduced, pivots = rref(rows)
        if len(pivots) == len(pts):
            break
        dmax += 1  # cannot happen for distinct points, but stay safe

    block_of = []
    offsets = []
    start = 0
    for d in range(dmax + 1):
        size = len(monomials(nvars, d))
        offsets.append((start, start + size))
        block_of.extend([d] * size)
        start += size

    leasts = []
    for row, piv in zip(reduced, pivots):
        d = block_of[piv]
        lo, hi = offsets[d]
        leasts.append(from_coeff_vector(nvars, d, row[lo:hi]))
    space = GradedSubspace.from_spanning(nvars, map(as_row, leasts))
    if space.dim() != len(pts):
        raise ConsistencyError(
            f"least parts of {len(pts)} points span only {space.dim()} dimensions"
        )
    return space


def assert_least_matches_reference(points):
    expected = reference_least_space(points)
    for extra in (0, 1, 2):
        assert least_space(points, extra=extra) == expected


@pytest.mark.parametrize("seed", range(12))
def test_least_space_matches_fixed_truncation(seed):
    rng = random.Random(seed)
    nvars = rng.randint(1, 4)
    count = rng.randint(1, 10)
    pts = set()
    while len(pts) < count:
        pts.add(tuple(Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))) for _ in range(nvars)))
    assert_least_matches_reference(sorted(pts))


def test_least_space_matches_fixed_truncation_degenerate(ex25):
    # few directions among the points push the top degree up to #points - 1
    line = [(k, 2 * k, -k) for k in range(-3, 5)]
    assert_least_matches_reference(line)
    assert least_space(line).hilbert() == (1,) * 8
    assert_least_matches_reference([(Fraction(k, 3), 1 - Fraction(k, 3)) for k in range(9)])
    plane = [(a, b, a + b) for a in range(3) for b in range(3)]
    assert_least_matches_reference(plane)
    assert_least_matches_reference([(a, b, 0, 1) for a in range(2) for b in range(4)])
    assert_least_matches_reference([p for _, p in make_arrangement(ex25).vertices])


def test_least_space_rank_short_of_full_is_a_consistency_error(monkeypatch):
    import zonoforge.geometry as geometry

    real = geometry.echelon
    monkeypatch.setattr(geometry, "echelon", lambda rows, ncols: real(rows, ncols)[:-1])
    msg = "Taylor matrix of 3 distinct points reached rank 2 by degree 2"
    with pytest.raises(ConsistencyError, match=msg):
        least_space([(0,), (1,), (2,)])


@st.composite
def point_sets(draw):
    nvars = draw(st.integers(1, 3))
    coord = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    return draw(st.lists(st.tuples(*[coord] * nvars), min_size=1, max_size=7, unique=True))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(point_sets())
def test_least_space_matches_fixed_truncation_hypothesis(points):
    assert_least_matches_reference(points)


# -- zonotope lattice -------------------------------------------------------


def test_unimodular_detection(ex25, triangle):
    assert is_unimodular(ex25)
    assert is_unimodular(triangle)
    assert not is_unimodular(make_config([[2]]))
    assert not is_unimodular(make_config([[1, 1], [0, 2]]))
    assert not is_unimodular(make_config([["1/2", 0], [0, 1]]))


def test_unimodular_detection_matches_the_fraction_determinant():
    # seeded integer configurations, entries in -2..2: a configuration is
    # unimodular exactly when the Fraction determinant of every basis is
    # 1 or -1, and the bases seen have determinants 1, -1, 2 and -2
    rng = random.Random(5)
    seen = set()
    checked = 0
    while checked < 40:
        n = rng.randint(1, 3)
        cols = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n + rng.randint(0, 2))]
        if not all(map(any, cols)) or reference_rank(cols) < n:
            continue
        checked += 1
        c = Config(tuple(cols))
        dets = {det(matrix(subset_rows(c, b))) for b in bases(c)}
        seen |= dets
        assert is_unimodular(c) == (dets <= {1, -1}), cols
    assert {1, -1, 2, -2} <= seen


def test_lattice_points_of_the_example(ex25):
    ok, points = zonotope_lattice(ex25)
    assert ok
    assert len(points) == 15
    # independent oracle: p = (a+d, b+d, c+d) with weights in [0, 1] is
    # feasible iff some d in [0, 1] fits under every coordinate
    expected = set()
    for p1 in range(3):
        for p2 in range(3):
            for p3 in range(3):
                lo = max(max(p1, p2, p3) - 1, 0)
                hi = min(min(p1, p2, p3), 1)
                if lo <= hi:
                    expected.add((p1, p2, p3))
    assert set(points) == expected


def test_lattice_points_unit_square(identity2):
    ok, points = zonotope_lattice(identity2)
    assert ok
    assert set(points) == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_lattice_points_doubled_segment():
    c = make_config([[1, 1, 0], [0, 0, 1]])
    ok, points = zonotope_lattice(c)
    assert ok
    assert set(points) == {(a, b) for a in range(3) for b in range(2)}


def test_lattice_refused_for_non_unimodular():
    ok, points = zonotope_lattice(make_config([[1, 1], [0, 2]]))
    assert not ok and points is None


def test_lattice_matches_brute_force_random():
    # cross-check the exact feasibility programs against the 0/1 weight
    # images, which are always lattice points of the zonotope
    rng = random.Random(9)
    checked = 0
    while checked < 6:
        cols = [(1, 0), (0, 1)]
        for _ in range(rng.randint(0, 2)):
            v = (rng.randint(-1, 1), rng.randint(-1, 1))
            if any(v):
                cols.append(v)
        rng.shuffle(cols)
        c = make_config([[col[i] for col in cols] for i in range(2)])
        if not is_unimodular(c):
            continue
        checked += 1
        ok, points = zonotope_lattice(c)
        assert ok
        pts = set(points)
        for mask in range(1 << c.ncols):
            image = [0, 0]
            for j in range(c.ncols):
                if mask >> j & 1:
                    image[0] += c.columns[j][0]
                    image[1] += c.columns[j][1]
            assert (int(image[0]), int(image[1])) in pts


# Reference: the lattice points as the integer points of the bounding box
# that an exact phase-1 simplex finds feasible for X w = p, 0 <= w <= 1;
# the oracle for the subset-sum construction in zonotope_lattice.


def reference_phase1_feasible(c: Config, target) -> tuple | None:
    """Exact phase-1 simplex for  X w = target,  0 <= w <= 1.

    Standard form: w_j + s_j = 1 turns the box into equalities; one
    artificial variable per row; Bland's rule on both choices, so the walk
    terminates.  Returns the w-vector on feasibility, None otherwise.
    """
    n, ncols = c.n, c.ncols
    m = n + ncols
    width = 2 * ncols + m  # w block, slack block, artificial block
    rows = []
    for i in range(n):
        coeffs = [c.columns[j][i] for j in range(ncols)]
        rhs = frac(target[i])
        if rhs < 0:
            coeffs = [-x for x in coeffs]
            rhs = -rhs
        rows.append(coeffs + [Fraction(0)] * ncols + [Fraction(0)] * m + [rhs])
    for j in range(ncols):
        row = [Fraction(0)] * width + [Fraction(1)]
        row[j] = Fraction(1)
        row[ncols + j] = Fraction(1)
        rows.append(row)
    for i in range(m):
        rows[i][2 * ncols + i] = Fraction(1)
    basis = [2 * ncols + i for i in range(m)]

    # reduced costs for minimizing the artificial sum
    red = [Fraction(0)] * (width + 1)
    for i in range(m):
        for j in range(width + 1):
            red[j] -= rows[i][j]
    for i in range(m):
        red[2 * ncols + i] += Fraction(1)

    while True:
        enter = next(
            (j for j in range(width) if j not in basis and red[j] < 0), None
        )
        if enter is None:
            break
        pivot_i = None
        best = None
        for i in range(m):
            if rows[i][enter] > 0:
                ratio = rows[i][width] / rows[i][enter]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[pivot_i]
                ):
                    best = ratio
                    pivot_i = i
        if pivot_i is None:
            raise ConsistencyError("phase-1 objective unbounded below")
        piv = rows[pivot_i][enter]
        rows[pivot_i] = [x / piv for x in rows[pivot_i]]
        for i in range(m):
            if i != pivot_i and rows[i][enter] != 0:
                f = rows[i][enter]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[pivot_i])]
        if red[enter] != 0:
            f = red[enter]
            red = [a - f * b for a, b in zip(red, rows[pivot_i])]
        basis[pivot_i] = enter

    if -red[width] != 0:  # leftover artificial mass: infeasible
        return None
    w = [Fraction(0)] * ncols
    for i, b in enumerate(basis):
        if b < ncols:
            w[b] = rows[i][width]
    return tuple(w)


def reference_box_scan(c: Config) -> tuple:
    lo = [sum(min(v[i], 0) for v in c.columns) for i in range(c.n)]
    hi = [sum(max(v[i], 0) for v in c.columns) for i in range(c.n)]
    points = []
    for candidate in itertools.product(
        *[range(int(a), int(b) + 1) for a, b in zip(lo, hi)]
    ):
        w = reference_phase1_feasible(c, candidate)
        if w is None:
            continue
        # re-check the witness; the simplex and the witness must agree
        for i in range(c.n):
            total = sum(c.columns[j][i] * w[j] for j in range(c.ncols))
            if total != candidate[i]:
                raise ConsistencyError(f"simplex witness fails at point {candidate}")
        if any(x < 0 or x > 1 for x in w):
            raise ConsistencyError(f"simplex witness out of the box at {candidate}")
        points.append(candidate)
    return tuple(sorted(points))


def random_unimodular(rng, n: int) -> Config:
    """Unit vectors plus random 0/+-1 columns, repeated and negated copies."""
    while True:
        cols = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        for _ in range(rng.randint(0, 2)):
            v = tuple(rng.randint(-1, 1) for _ in range(n))
            if any(v):
                cols.append(v)
        for _ in range(rng.randint(1, 2)):
            v = rng.choice(cols)
            cols.append(v if rng.random() < 0.5 else tuple(-x for x in v))
        rng.shuffle(cols)
        c = make_config([[col[i] for col in cols] for i in range(n)])
        if is_unimodular(c):
            return c


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("seed", range(8))
def test_lattice_matches_simplex_box_scan(n, seed):
    c = random_unimodular(random.Random(seed), n)
    ok, points = zonotope_lattice(c)
    assert ok
    assert points == reference_box_scan(c)
    assert len(points) == len(independents(c))
    assert all(type(x) is int for p in points for x in p)


def test_lattice_count_mismatch_is_a_consistency_error(monkeypatch):
    import zonoforge.geometry as geometry

    c = make_config([[1, 0, 1], [0, 1, 1]])
    monkeypatch.setattr(geometry, "independents", lambda c: ((),))
    with pytest.raises(ConsistencyError, match="7 distinct subset sums"):
        zonotope_lattice(c)

"""Exact linear algebra: integer elimination against the Fraction loop."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zonoforge.errors import DimensionMismatch
from zonoforge.geometry import _solve_vertex
from zonoforge.linalg import (
    _integer_row,
    canonical,
    echelon,
    frac,
    integer_nullspace,
    matrix,
    sparse_echelon,
)


def dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def pivot(row) -> int:
    return next(k for k, x in enumerate(row) if x)


def monic(rows) -> tuple:
    """Integer rows divided by their pivots: Fraction RREF rows."""
    return tuple(tuple(Fraction(x, row[pivot(row)]) for x in row) for row in rows)


def test_frac_accepts_int_str_fraction():
    assert frac(3) == Fraction(3)
    assert frac("2/6") == Fraction(1, 3)
    assert frac(Fraction(-5, 7)) == Fraction(-5, 7)


def test_frac_passes_a_fraction_through_and_rejects_floats():
    x = Fraction(3, 4)
    assert frac(x) is x
    with pytest.raises(TypeError):
        frac(0.5)


def test_rref_pivots_and_idempotence():
    # the canonical basis is the RREF with each row scaled to coprime integers
    basis = canonical([[2, 4, 6], [1, 2, 4], [0, 0, 2]], 3)
    assert basis == ((1, 2, 0), (0, 0, 1))
    assert [pivot(r) for r in basis] == [0, 2]
    assert canonical(basis, 3) == basis
    assert canonical([[0, 0, -3], [-1, -2, 5]], 3) == basis


def test_rank_and_row_basis():
    m = matrix([[1, 2], [2, 4], [0, 1]])
    assert reference_rank(m) == 2
    assert len(echelon(map(_integer_row, m), 2)) == 2
    assert len(canonical(map(_integer_row, m), 2)) == 2
    assert reference_rank(()) == 0
    assert echelon([], 2) == [] and canonical([], 2) == ()


def test_nullspace_is_exact_kernel():
    m = [[1, 1, 0], [0, 1, 1]]
    ns = integer_nullspace(m, 3)
    assert ns == ((1, -1, 1),)
    for row in m:
        assert dot(row, ns[0]) == 0
    # no rows: the kernel is everything
    assert integer_nullspace([], 3) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_solve_square_inverts_and_detects_singular():
    a = matrix([[2, 1], [1, 1]])
    x = _solve_vertex([[2, 1, 3], [1, 1, 2]], 2)
    assert x == (Fraction(1), Fraction(1))
    assert tuple(dot(row, x) for row in a) == (Fraction(3), Fraction(2))
    assert _solve_vertex([[1, 2, 1], [2, 4, 0]], 2) is None  # inconsistent
    assert _solve_vertex([[1, 2, 1], [2, 4, 2]], 2) is None  # rank one


def det(a) -> Fraction:
    """Determinant by Fraction elimination: the former `linalg.det`, kept
    verbatim as the oracle of `geometry.is_unimodular`."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise DimensionMismatch("determinant of a non-square matrix")
    rows = [list(r) for r in a]
    d = Fraction(1)
    for c in range(n):
        pin = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pin is None:
            return Fraction(0)
        if pin != c:
            rows[c], rows[pin] = rows[pin], rows[c]
            d = -d
        d *= rows[c][c]
        inv = 1 / rows[c][c]
        rows[c] = [x * inv for x in rows[c]]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return d


def test_det_small_cases():
    assert det(matrix([[3]])) == 3
    assert det(matrix([[1, 2], [3, 4]])) == -2
    assert det(matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])) == 1
    assert det(matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])) == 1


def primitive_integer(v) -> tuple[int, ...]:
    """Scale a nonzero rational vector to coprime integers, first nonzero
    positive: the former `linalg.primitive_integer`, kept verbatim for the
    tests that normalize Fraction kernel vectors."""
    ints = _integer_row(v)
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(x // g for x in ints)


def test_primitive_integer_normalization():
    assert primitive_integer((Fraction(-2, 3), Fraction(4, 3))) == (1, -2)
    assert primitive_integer((0, Fraction(5, 2))) == (0, 1)
    assert primitive_integer((6, -9)) == (2, -3)


@pytest.mark.parametrize("seed", range(6))
def test_rank_nullity_random(seed):
    rng = random.Random(seed)
    nrows, ncols = rng.randint(1, 4), rng.randint(1, 5)
    m = matrix([[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)])
    r = reference_rank(m)
    ns = integer_nullspace(map(_integer_row, m), ncols)
    assert r + len(ns) == ncols
    for v in ns:
        for row in m:
            assert dot(row, v) == 0


# -- differential tests: the integer kernel against the Fraction loop ------------


def reference_rref(m):
    """The dense Fraction Gauss-Jordan loop rref() used before elimination
    moved to integers, kept verbatim as an independent oracle."""
    rows = [list(r) for r in m]
    if not rows:
        return (), ()
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pin = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pin is None:
            continue
        rows[r], rows[pin] = rows[pin], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return tuple(tuple(row) for row in rows), tuple(pivots)


def reference_rank(m) -> int:
    """Rank by reference_rref, for tests whose oracle must not share the
    library's elimination; ints are taken as Fractions."""
    return len(reference_rref([[Fraction(x) for x in row] for row in m])[1])


def subset_rows(c, cols) -> tuple:
    """The chosen columns of a Config as matrix rows, in index order: the
    former `Config.subset_rows`, which only the tests read."""
    return tuple(c.columns[i] for i in sorted(cols))


def reference_row_basis(m):
    red, piv = reference_rref(m)
    return red[: len(piv)]


def reference_nullspace(m, ncols):
    red, piv = reference_rref(m)
    pivset = set(piv)
    basis = []
    for f in range(ncols):
        if f in pivset:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, p in enumerate(piv):
            v[p] = -red[r][f]
        basis.append(tuple(v))
    return reference_row_basis(tuple(basis))


def reference_solve_square(a, b):
    n = len(a)
    aug = tuple(tuple(row) + (bi,) for row, bi in zip(a, b))
    red, piv = reference_rref(aug)
    if len(piv) < n or (piv and piv[-1] == n):
        return None
    return tuple(red[i][n] for i in range(n))


def all_fractions(rows) -> bool:
    return all(type(x) is Fraction for row in rows for x in row)


def assert_matches_reference(m, ncols, rhs=None):
    ints = [_integer_row(r) for r in m]
    red, piv = reference_rref(m)
    basis = canonical(ints, ncols)
    assert all(type(x) is int for row in basis for x in row)
    for row in basis:
        assert row[pivot(row)] > 0 and primitive_integer(row) == row
    assert tuple(pivot(r) for r in basis) == piv
    assert monic(basis) == reference_row_basis(m)
    assert len(echelon(ints, ncols)) == len(piv)
    kern = integer_nullspace(ints, ncols)
    assert monic(kern) == reference_nullspace(m, ncols)
    if rhs is not None:
        augmented = [_integer_row(tuple(r) + (b,)) for r, b in zip(m, rhs)]
        assert _solve_vertex(augmented, len(m)) == reference_solve_square(m, rhs)
    assert_echelon_matches_reference(m, ncols)
    assert_sparse_echelon_matches_reference(m, ncols)


def assert_echelon_matches_reference(m, ncols):
    """echelon() on the integer-scaled rows, in one go and as an extension of
    an echelon of the first half, spans the reference row space."""
    ints = [[int(x * lcm(*(y.denominator for y in r))) for x in r] for r in m]
    start = echelon(ints[: len(ints) // 2], ncols)
    kept = list(start)
    extended = echelon(ints[len(ints) // 2 :], ncols, start)
    assert start == kept and extended[: len(start)] == start
    for found in (echelon(ints, ncols), extended):
        assert len(found) == len(reference_rref(m)[1])
        for k, (c, row) in enumerate(found):
            assert row[c] > 0 and not any(row[:c])
            assert all(row[p] == 0 for p, _ in found[:k])
        assert monic(canonical([r for _, r in found], ncols)) == reference_row_basis(m)


def assert_sparse_echelon_matches_reference(m, ncols):
    """sparse_echelon() on the integer-scaled rows as {column: int} dicts, in
    one go and as an extension of an echelon of the first half, spans the
    reference row space; each pivot row is primitive, keyed by its smallest
    column, positive there and zero at the leads found before it, and no
    input row or start is modified."""
    rows = [{c: x for c, x in enumerate(_integer_row(r)) if x} for r in m]
    copies = [dict(r) for r in rows]
    start = sparse_echelon(rows[: len(rows) // 2], ncols)
    kept = {c: dict(r) for c, r in start.items()}
    extended = sparse_echelon(rows[len(rows) // 2 :], ncols, start)
    assert rows == copies and start == kept and start.items() <= extended.items()
    for found in (sparse_echelon(rows, ncols), extended):
        assert len(found) == len(reference_rref(m)[1])
        dense, earlier = [], []
        for lead, row in found.items():
            assert lead == min(row) and row[lead] > 0 and 0 not in row.values()
            assert gcd(*row.values()) == 1 and not any(c in row for c in earlier)
            earlier.append(lead)
            dense.append([row.get(c, 0) for c in range(ncols)])
        assert monic(canonical(dense, ncols)) == reference_row_basis(m)


def test_sparse_echelon_stops_at_full_rank():
    rows = iter([{0: 2, 1: -4}, {1: 3}, {0: 1, 2: 5}])
    assert sparse_echelon(rows, 2) == {0: {0: 1, 1: -2}, 1: {1: 1}}
    assert next(rows) == {0: 1, 2: 5}
    start = {0: {0: 1}}
    got = sparse_echelon([{0: 3}], 1, start)
    assert got == start and got is not start
    assert sparse_echelon([{0: -6, 3: 4}, {0: 3, 3: -2}, {}], 4) == {0: {0: 3, 3: -2}}


def random_matrix(rng, nrows, ncols):
    """Entries p/q with many zeros; some rows zero, some combinations of earlier rows."""
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.1:
            rows.append([Fraction(0)] * ncols)
        elif kind < 0.3 and rows:
            a, b = rng.choice(rows), rng.choice(rows)
            s, t = Fraction(rng.randint(-3, 3), rng.randint(1, 4)), Fraction(rng.randint(-3, 3))
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            rows.append([
                Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 5, 12))) if rng.random() < 0.7
                else Fraction(0)
                for _ in range(ncols)
            ])
    return tuple(tuple(r) for r in rows)


@pytest.mark.parametrize("seed", range(40))
def test_kernel_matches_fraction_reference(seed):
    rng = random.Random(seed)
    for nrows in range(0, 9):
        for ncols in (1, 2, 5, 10):
            m = random_matrix(rng, nrows, ncols)
            rhs = None
            if nrows == ncols and nrows:
                rhs = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(nrows))
            assert_matches_reference(m, ncols, rhs)


def test_kernel_matches_reference_on_edge_shapes():
    zero = Fraction(0)
    assert_matches_reference((), 3)
    assert_matches_reference(((zero,), (zero,)), 1)
    assert_matches_reference(((Fraction(-3, 4),), (Fraction(6),)), 1)
    assert_matches_reference(((Fraction(-3, 4),),), 1, (Fraction(2),))
    assert_matches_reference(((zero,),), 1, (Fraction(2),))
    assert_matches_reference(((zero, zero, zero),), 3)
    assert reference_rref(((), ())) == (((), ()), ()) and canonical([[], []], 0) == ()
    # dependent rows that leave the rank at one
    row = (Fraction(1, 2), Fraction(-2, 3), Fraction(5))
    assert_matches_reference((row, tuple(3 * x for x in row), row), 3)
    # entries with large coprime denominators
    big = tuple(Fraction(7**k, 2**(3 * k) + 1) for k in range(6))
    assert_matches_reference((big, big[::-1], tuple(x * x for x in big)), 6)


fractions_st = st.builds(
    Fraction, st.integers(-20, 20), st.integers(1, 9)
) | st.just(Fraction(0))


@st.composite
def matrices(draw):
    ncols = draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(fractions_st, min_size=ncols, max_size=ncols), max_size=7))
    if rows and draw(st.booleans()):
        k = draw(st.integers(0, len(rows) - 1))
        s = draw(fractions_st)
        rows.append([s * x for x in rows[k]])
    return ncols, tuple(tuple(r) for r in rows)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(matrices(), st.data())
def test_kernel_matches_reference_hypothesis(shape_and_matrix, data):
    ncols, m = shape_and_matrix
    rhs = None
    if len(m) == ncols:
        rhs = tuple(data.draw(st.lists(fractions_st, min_size=ncols, max_size=ncols)))
    assert_matches_reference(m, ncols, rhs)

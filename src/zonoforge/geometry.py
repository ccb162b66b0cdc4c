"""Affine side: simple hyperplane arrangements, the least map, lattice points.

An offset vector turns each column x into the hyperplane <x, u> = offset_x.
When the arrangement is simple (every k of the hyperplanes meet in
codimension k or not at all) the vertices are exactly the basis solutions,
and the space spanned by the lowest-degree parts of the point exponentials
interpolates any function on the vertex set uniquely.  That least space is
read off the Taylor matrix of the exponentials, truncated at the first
degree where the matrix has full rank (de Boor and Ron's least
interpolant).

Every matrix here is eliminated on integer rows.  The points are scaled by
one common denominator L (q = L p) and the Taylor entry p^a / a! is written
as q^a: column a of block d is multiplied by L^d a!.  A column scaling
keeps the rank and each row's lowest nonzero column, and multiplying
coefficient a of a least part by d!/a! leaves it scaled by the constant
L^d d!, which its canonical basis drops.  Evaluating a canonical row of
degree d at q scales its column of the evaluation matrix the same way.

The lattice points of a unimodular zonotope are the distinct
subset sums of its columns, one per independent set (Stanley's tiling of
the zonotope by half-open parallelepipeds).
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm, prod
from operator import mul

from .config import Config, bases, independents, rank_of
from .errors import (
    ConsistencyError,
    DimensionMismatch,
    DuplicatePoints,
    NotSimple,
    SamplingExhausted,
    UnknownBasis,
)
from .graded import GradedSubspace
from .linalg import _integer_row, canonical, echelon, frac
from .poly import monomials, multi_factorial

MAX_SAMPLING_TRIES = 100


@dataclass(frozen=True)
class Arrangement:
    config: Config
    offsets: tuple
    vertices: tuple  # ((basis frozenset, point tuple), ...) in basis order


def _simplicity_witness(c: Config, aug) -> tuple | None:
    """First set of hyperplanes meeting in too small a codimension, if any.

    `aug` holds the integer rows [x | offset_x].  A set S is fine when the
    system <x_s, u> = offset_s is either inconsistent or has solution set of
    codimension exactly #S.  Sets of size n+1 can never be fine while
    consistent, so checking sizes up to n+1 certifies simplicity of the
    whole arrangement.
    """
    n = c.n
    for size in range(2, min(c.ncols, n + 1) + 1):
        for subset in itertools.combinations(range(c.ncols), size):
            # independent rows make any right-hand side consistent with
            # codimension #S, so only dependent subsets need the offsets
            r_plain = rank_of(c, frozenset(subset))
            if r_plain < size:
                if len(echelon([aug[j] for j in subset], n + 1)) == r_plain:
                    return subset
    return None


def make_arrangement(c: Config, offsets=None, seed: int = 0) -> Arrangement:
    """Build the arrangement, sampling any missing offsets until simple.

    `offsets` may be None (use the offsets stored on the configuration,
    sampling whatever they leave open), or a sequence with None holes; the
    fixed entries are kept verbatim.  A fully fixed non-simple vector raises
    NotSimple immediately instead of burning retries.
    """
    if offsets is None:
        offsets = list(c.lam) if c.lam is not None else [None] * c.ncols
    else:
        offsets = list(offsets)
        if len(offsets) != c.ncols:
            raise DimensionMismatch(
                f"{len(offsets)} offsets for {c.ncols} columns"
            )
    fixed = [frac(v) if v is not None else None for v in offsets]
    holes = [i for i, v in enumerate(fixed) if v is None]

    rng = random.Random(seed)
    tries = MAX_SAMPLING_TRIES if holes else 1
    for _ in range(tries):
        lam = list(fixed)
        for i in holes:
            lam[i] = Fraction(rng.randint(1, 1000 * c.ncols * (i + 1)))
        aug = [_integer_row(x + (v,)) for x, v in zip(c.columns, lam)]
        witness = _simplicity_witness(c, aug)
        if witness is None:
            return _finish_arrangement(c, tuple(lam), aug)
    if holes:
        raise SamplingExhausted(tries)
    raise NotSimple(witness)


def _solve_vertex(rows, n: int) -> tuple | None:
    """x with a x = b from the n integer rows of [a | b], None if a is
    singular: canonical row i has its pivot p_i at column i, so x_i = q_i / p_i
    with q_i its last entry; a singular system misses a pivot or has one last."""
    basis = canonical(rows, n + 1)
    if len(basis) < n or not basis[-1][n - 1]:
        return None
    return tuple([Fraction(row[n], row[i]) for i, row in enumerate(basis)])


def _finish_arrangement(c: Config, lam: tuple, aug) -> Arrangement:
    verts = []
    seen = {}
    for b in bases(c):
        cols = sorted(b)
        point = _solve_vertex([aug[j] for j in cols], c.n)
        if point is None:
            raise ConsistencyError(f"basis {cols} gave a singular vertex system")
        if point in seen:
            # two bases sharing a vertex means too many hyperplanes through it
            raise ConsistencyError(
                f"bases {sorted(seen[point])} and {cols} share a vertex "
                "in an arrangement that passed the simplicity check"
            )
        seen[point] = b
        verts.append((b, point))
    return Arrangement(config=c, offsets=lam, vertices=tuple(verts))


def vertex_set(arr: Arrangement, basis_family) -> tuple:
    """Vertices of the given bases, sorted; unknown bases are an input error."""
    lookup = dict(arr.vertices)
    points = []
    for b in basis_family:
        key = frozenset(b)
        if key not in lookup:
            raise UnknownBasis(key)
        points.append(lookup[key])
    return tuple(sorted(points))


def _integer_points(points) -> list:
    """The distinct points times the lcm L of all their denominators, as
    tuples of ints; DuplicatePoints on the first repeat."""
    pts = [tuple(frac(x) for x in p) for p in points]
    seen = set()
    for p in pts:
        if p in seen:
            raise DuplicatePoints(p)
        seen.add(p)
    scale = lcm(*[x.denominator for p in pts for x in p])
    return [tuple([x.numerator * (scale // x.denominator) for x in p]) for p in pts]


def _monomial_values(q, d: int) -> list:
    """q^a for each a in monomials(len(q), d)."""
    return [prod([x**e for x, e in zip(q, a) if e]) for a in monomials(len(q), d)]


def least_space(points, extra: int = 0) -> GradedSubspace:
    """Span of the lowest-degree parts of the exponentials of the points.

    The integer Taylor rows grow one degree block at a time, from the first
    degree with at least as many monomials as points, until their echelon
    has full rank; no higher block can change a least part, and
    #points - 1 always suffices for distinct points.  `extra` pads that many
    blocks past the stop; the result must not depend on it (truncation
    stability).  Each echelon row's pivot is its lowest nonzero column and
    the pivots are distinct, so the degree-d slices of the rows with a pivot
    in block d are independent and span the least parts of degree d.
    """
    pts = _integer_points(points)
    if not pts:
        return GradedSubspace.zero(0)
    nvars = len(pts[0])
    if any(len(p) != nvars for p in pts):
        raise DimensionMismatch("points of mixed dimension")

    rows = [[] for _ in pts]
    starts = []

    def add_block(d: int):
        starts.append(len(rows[0]))
        for q, row in zip(pts, rows):
            row.extend(_monomial_values(q, d))

    first = next(d for d in itertools.count() if comb(nvars + d, nvars) >= len(pts))
    top = len(pts) - 1  # distinct points are separated in degree <= #points - 1
    for d in range(top + 1):
        add_block(d)
        if d >= first:
            pivots = echelon(rows, len(rows[0]))
            if len(pivots) == len(pts):
                break
    else:
        raise ConsistencyError(
            f"Taylor matrix of {len(pts)} distinct points reached rank "
            f"{len(pivots)} by degree {top}"
        )
    for k in range(1, extra + 1):
        add_block(d + k)
    if extra:
        pivots = echelon(rows, len(rows[0]))

    leasts: dict = {}
    for piv, row in pivots:
        d = bisect_right(starts, piv) - 1
        scale = [factorial(d) // multi_factorial(a) for a in monomials(nvars, d)]
        leasts.setdefault(d, []).append(list(map(mul, row[starts[d]:], scale)))
    space = GradedSubspace.from_components(nvars, leasts)
    if space.dim() != len(pts):
        raise ConsistencyError(
            f"least parts of {len(pts)} points span only {space.dim()} dimensions"
        )
    return space


def restriction_certificate(points, space: GradedSubspace) -> dict:
    """Invertibility of evaluation of the space's basis on the point set,
    read off its canonical rows at the integer points."""
    pts = _integer_points(points)
    dim = space.dim()
    square = dim == len(pts)
    ev = []
    if square:
        for q in pts:
            ev.append([])
            for d, basis in space.comps:
                values = _monomial_values(q, d)
                ev[-1].extend(sum(map(mul, b, values)) for b in basis)
    invertible = square and len(echelon(ev, dim)) == dim
    return {
        "n_points": len(pts),
        "dim_space": dim,
        "square": square,
        "invertible": invertible,
        "passed": square and invertible,
    }


def is_unimodular(c: Config) -> bool:
    """Integer entries and every basis determinant of absolute value 1.

    An integer basis B has |det B| = 1 exactly when B^-1 is integral, that
    is, when the reduced echelon of the rows [B | I], which is [I | B^-1],
    needs no scaling: every pivot of its canonical basis is 1."""
    for v in c.columns:
        if any(x.denominator != 1 for x in v):
            return False
    unit = [tuple(int(i == k) for i in range(c.n)) for k in range(c.n)]
    for b in bases(c):
        rows = [c._ints[j] + e for j, e in zip(sorted(b), unit)]
        if any(row[k] != 1 for k, row in enumerate(canonical(rows, 2 * c.n))):
            return False
    return True


def zonotope_lattice(c: Config):
    """(True, sorted integer points of the column-sum zonotope) when the
    configuration is unimodular, else (False, None).

    The points are the distinct subset sums of the columns.  Their count
    must equal the number of independent sets, which the rank oracle
    counts without looking at the sums.
    """
    if not is_unimodular(c):
        return False, None
    points = {(0,) * c.n}
    for v in c.columns:
        step = [int(x) for x in v]
        points |= {tuple([a + b for a, b in zip(p, step)]) for p in points}
    count = len(independents(c))
    if len(points) != count:
        raise ConsistencyError(
            f"{len(points)} distinct subset sums of the columns, "
            f"but {count} independent sets"
        )
    return True, tuple(sorted(points))

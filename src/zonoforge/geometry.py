"""Affine side: simple hyperplane arrangements, the least map, lattice points.

An offset vector turns each column x into the hyperplane <x, u> = offset_x.
When the arrangement is simple (every k of the hyperplanes meet in
codimension k or not at all) the vertices are exactly the basis solutions,
one per basis.  It is simple exactly when no basis vertex lies on the
hyperplane of a column outside its basis: a dependent set S of hyperplanes
through one point has a basis of its span inside S, which extends to a
basis B whose vertex lies on all of S, with S not inside B; conversely B
and such a column are n+1 hyperplanes through one point.  So each vertex is
solved once and the other columns are tested by an integer dot product,
and a failure names the fundamental circuit of the column in B, read off
the bases.

The space spanned by the lowest-degree parts of the point exponentials
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

from .config import Config, bases, independents, set_to_mask
from .errors import (
    ConsistencyError,
    DimensionMismatch,
    DuplicatePoints,
    NotSimple,
    UnknownBasis,
)
from .graded import GradedSubspace
from .linalg import _integer_row, canonical, echelon, frac
from .poly import monomials, multi_factorial


@dataclass(frozen=True)
class Arrangement:
    config: Config
    offsets: tuple
    vertices: tuple  # ((basis frozenset, point tuple), ...) in basis order


def make_arrangement(c: Config, offsets=None, seed: int = 0) -> Arrangement:
    """Build the arrangement, filling any missing offsets from one seeded
    draw, shifted until the arrangement is simple.

    `offsets` may be None (use the offsets stored on the configuration,
    sampling whatever they leave open), or a sequence with None holes; the
    fixed entries are kept verbatim.  A witness circuit whose offsets are
    all fixed raises NotSimple at once, since no sample can change it.
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
    drawn = [Fraction(rng.randint(1, 1000 * c.ncols * (i + 1))) for i in holes]
    # Try t = 0, 1, 2, ..., hole k at drawn_k + t^(k+1); t = 0 is the draw.
    # A witness circuit C is concurrent exactly when sum a_i offset_i = 0
    # over its one dependency a, every a_i nonzero.  Through a hole that sum
    # is a nonzero polynomial in t of degree <= #holes, so each such circuit
    # is a witness for finitely many t, and then a circuit with all offsets
    # fixed is the witness, or there is none: the loop ends.
    for t in itertools.count():
        lam = list(fixed)
        for k, i in enumerate(holes):
            lam[i] = drawn[k] + t ** (k + 1)
        aug = [_integer_row(x + (v,)) for x, v in zip(c.columns, lam)]
        vertices, witness = _vertices(c, aug)
        if witness is None:
            return Arrangement(config=c, offsets=tuple(lam), vertices=vertices)
        if all(fixed[j] is not None for j in witness):
            raise NotSimple(witness)


def _solve_vertex(rows, n: int) -> tuple | None:
    """x with a x = b from the n integer rows of [a | b], None if a is
    singular: canonical row i has its pivot p_i at column i, so x_i = q_i / p_i
    with q_i its last entry; a singular system misses a pivot or has one last."""
    basis = canonical(rows, n + 1)
    if len(basis) < n or not basis[-1][n - 1]:
        return None
    return tuple([Fraction(row[n], row[i]) for i, row in enumerate(basis)])


def _vertices(c: Config, aug) -> tuple:
    """(((basis, vertex), ...) in basis order, None) for a simple
    arrangement, else (None, witness circuit).

    `aug` holds the integer rows [x | offset_x].  Each basis vertex is
    solved once; written as q / D with D the lcm of its denominators, it
    lies on the hyperplane of column j exactly when aug_j . (q, -D) = 0.
    The first column j outside a basis B through its vertex gives the
    witness, the fundamental circuit of j in B: j and the b in B for which
    B - b + j is a basis.
    """
    verts = []
    for b in bases(c):
        cols = sorted(b)
        point = _solve_vertex([aug[j] for j in cols], c.n)
        if point is None:
            raise ConsistencyError(f"basis {cols} gave a singular vertex system")
        den = lcm(*[x.denominator for x in point])
        h = [x.numerator * (den // x.denominator) for x in point] + [-den]
        for j in range(c.ncols):
            if j not in b and not sum(map(mul, aug[j], h)):
                masks = {set_to_mask(s) for s in bases(c)}
                swap = set_to_mask(b) | (1 << j)
                return None, (j, *[i for i in cols if swap ^ (1 << i) in masks])
        verts.append((b, point))
    return tuple(verts), None


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

"""Graded subspaces of the polynomial ring and finitely generated ideals.

A GradedSubspace stores, for each degree, the canonical integer basis of a
subspace of the homogeneous component (linalg.canonical: the reduced
integer echelon sorted by pivot column, each row primitive with a positive
pivot), coefficients taken over the graded-lex monomial list.  Because the
bases are canonical, two graded subspaces are equal iff the dataclasses
compare equal.  Sums and intersections eliminate these rows as they are,
except that an intersection reads A meet A = A and A meet everything = A
straight off the bases.

Polynomials in and out are (degree, integer row, denominator) tuples (see
poly).  Scaling a row changes no span, rank or kernel, so the rows are
read as they are and the denominators never; basis_polys() hands out each
canonical row over its pivot, the RREF basis.  The CLI renders the tuples.

An Ideal is the one owner of an ideal's graded components.  It builds them
degree by degree (Macaulay): I_d is spanned by x_i times the pivot rows kept
for I_{d-1} together with the generators of degree d, as sparse integer
rows ({column: int}) reduced, sparsest first, to a non-reduced echelon by
linalg.sparse_echelon (F4-style: a Macaulay row has a few nonzeros among
hundreds of columns); x_i times a row is an index shift read from poly's
shift table.  Once a component is full every later one is too, so nothing
is eliminated past the first full degree.  Quotient Hilbert functions,
direct-sum certificates and ideal comparisons read ranks and pivot rows
from it, extending those echelons sparse too; an Ideal lives only for the
call that builds it.

The kernel of an ideal under the apolarity action only depends on the
generators: g(D) annihilates q for every generator g iff every element of
the ideal annihilates q.  `_apolar_rows` writes that condition from the
generators alone by the closed form g(D) t^m = sum_a c_a * m!/(m-a)! *
t^(m-a), never multiplying by a variable, and by Macaulay's duality
dim kernel_d + dim I_d = dim of the full degree-d component.  So
`equals_kernel` decides that a space S is the kernel with none built: the
rows annihilate S's canonical rows, and S's dimensions are those Ideal
leaves.  S comes from spans of products or from geometry, so the check
meets three independent routes and restates none.  `kernel`, the
nullspace of the same rows, renders `space --dmax` and is the tests'
reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import takewhile
from math import gcd

from .errors import DimensionMismatch, InputError, NoStabilization
from .linalg import canonical, integer_nullspace, sparse_echelon
from .poly import _shifts, monomials


def component_dim(nvars: int, d: int) -> int:
    return len(monomials(nvars, d))


@dataclass(frozen=True)
class GradedSubspace:
    nvars: int
    comps: tuple = field(default=())  # ((degree, canonical int rows), ...) sorted

    @classmethod
    def from_components(cls, nvars: int, mapping: dict) -> "GradedSubspace":
        """Degree -> spanning integer rows, each degree reduced to its
        canonical basis; zero components are dropped."""
        comps = []
        for d in sorted(mapping):
            basis = canonical(mapping[d], component_dim(nvars, d))
            if basis:
                comps.append((d, basis))
        return cls(nvars, tuple(comps))

    @classmethod
    def from_spanning(cls, nvars: int, polys) -> "GradedSubspace":
        """The span of (degree, integer row, denominator) polynomials."""
        by_degree: dict = {}
        for d, row, _ in polys:
            by_degree.setdefault(d, []).append(row)
        return cls.from_components(nvars, by_degree)

    @classmethod
    def zero(cls, nvars: int) -> "GradedSubspace":
        return cls(nvars, ())

    def component(self, d: int) -> tuple:
        for deg, basis in self.comps:
            if deg == d:
                return basis
        return ()

    def dim(self) -> int:
        return sum(len(basis) for _, basis in self.comps)

    def top_degree(self) -> int:
        return self.comps[-1][0] if self.comps else -1

    def hilbert(self) -> tuple:
        """Component dimensions from degree 0 through the top degree."""
        top = self.top_degree()
        if top < 0:
            return ()
        dims = [0] * (top + 1)
        for d, basis in self.comps:
            dims[d] = len(basis)
        return tuple(dims)

    def basis_polys(self) -> tuple:
        """The RREF basis: each canonical row over its pivot."""
        return tuple((d, row, next(x for x in row if x)) for d, basis in self.comps for row in basis)


@dataclass(frozen=True)
class IdealGens:
    nvars: int
    gens: tuple = field(default=())

    @classmethod
    def make(cls, nvars: int, polys) -> "IdealGens":
        """The distinct nonzero polynomials, sorted, each divided by the gcd
        of its row and denominator so that equal polynomials are equal."""
        uniq = set()
        for d, row, den in polys:
            if any(row):
                g = gcd(den, *row)
                uniq.add((d, tuple([x // g for x in row]), den // g))
        return cls(nvars, tuple(sorted(uniq)))


class Ideal:
    """Graded components of the ideal that an IdealGens generates.

    Components are built on demand, lowest degree first, and kept as sparse
    integer echelons ({lead column: {column: int}}) over monomials(nvars, d).
    full_degree is the first degree whose component is everything (None
    until one is found); no component past it is built.
    """

    def __init__(self, gens: IdealGens):
        self.nvars = gens.nvars
        self._gens: dict = {}  # degree -> sparse integer coefficient rows
        for d, row, _ in gens.gens:
            self._gens.setdefault(d, []).append(_sparse(row))
        self._echelons: list = []  # degree -> {lead column: sparse int row}
        self.full_degree = None

    def is_full(self, d: int) -> bool:
        self._build(d)
        return self.full_degree is not None and d >= self.full_degree

    def dim(self, d: int) -> int:
        if self.is_full(d):
            return component_dim(self.nvars, d)
        return len(self._echelons[d])

    def pivots(self, d: int) -> dict:
        """The kept {lead column: sparse int row} echelon of a component up
        to the full degree, in the form linalg.sparse_echelon extends."""
        self._build(d)
        return self._echelons[d]

    def __contains__(self, p: tuple) -> bool:
        d, row, _ = p
        if self.is_full(d):
            return True
        found = self._echelons[d]
        return len(sparse_echelon([_sparse(row)], component_dim(self.nvars, d), found)) == len(found)

    def _build(self, top: int) -> None:
        n = self.nvars
        while self.full_degree is None and len(self._echelons) <= top:
            d = len(self._echelons)
            size = component_dim(n, d)
            rows = list(self._gens.get(d, ()))
            prev = self._echelons[-1] if d else {}
            if prev:
                shifts = _shifts(n, d - 1)
                for b in prev.values():
                    for shift in shifts:
                        rows.append({shift[j]: v for j, v in b.items()})
            # sparsest rows first keeps the pivot rows sparse and small: on
            # the external ideal of a 5 x 8 configuration the entries reach
            # 40 bits in the order built and 11 bits sorted, 47x less work
            rows.sort(key=len)
            found = sparse_echelon(rows, size) if rows else {}
            self._echelons.append(found)
            if len(found) == size:
                self.full_degree = d


def _sparse(row) -> dict:
    """A dense integer row as the {column: int} dict of its nonzero entries."""
    return {c: x for c, x in enumerate(row) if x}


def _falling(m: tuple, a: tuple) -> int:
    """m!/(m-a)! for exponent tuples a <= m: the factor D^a brings down
    from t^m."""
    out = 1
    for mi, ai in zip(m, a):
        for k in range(ai):
            out *= mi - k
    return out


def _check_dmax(dmax: int) -> None:
    # a negative bound would leave no degree to check, and the check would pass
    if dmax < 0:
        raise InputError(f"dmax must be a non-negative degree, got {dmax}")


def _apolar_rows(gens: IdealGens, d: int):
    """Each generator g = sum_a c_a t^a of degree e <= d with its rows on
    degree d: the coefficient of t^u in g(D) q is sum_a c_a * (u+a)!/u! *
    q_(u+a), one sparse {column: int} row per target monomial u of degree
    d - e.  g(D) annihilates q_d exactly when every row is orthogonal to it."""
    n = gens.nvars
    index = {m: k for k, m in enumerate(monomials(n, d))}
    for g in gens.gens:
        e, row, _ = g
        if e > d:
            continue
        terms = [(a, c) for a, c in zip(monomials(n, e), row) if c]
        rows = []
        for u in monomials(n, d - e):
            shifted = [(tuple([x + y for x, y in zip(u, a)]), a, c) for a, c in terms]
            rows.append({index[m]: c * _falling(m, a) for m, a, c in shifted})
        yield g, rows


def kernel(gens: IdealGens, dmax: int) -> GradedSubspace:
    """Degrees 0..dmax of {q : g(D) q = 0 for every generator g}: each
    component is the integer nullspace of the `_apolar_rows` (everything
    when there are none)."""
    _check_dmax(dmax)
    n = gens.nvars
    comps = []
    for d in range(dmax + 1):
        size = component_dim(n, d)
        rows = [[r.get(k, 0) for k in range(size)] for _, rs in _apolar_rows(gens, d) for r in rs]
        basis = integer_nullspace(rows, size)
        if basis:
            comps.append((d, basis))
    return GradedSubspace(n, tuple(comps))


def equals_kernel(space: GradedSubspace, gens: IdealGens, dmax: int) -> tuple:
    """Whether space is kernel(gens, dmax), by the duality above: (a) every
    generator's `_apolar_rows` annihilate every canonical row of space, and
    (b) its Hilbert vector is dim R_d - dim I_d for d <= dmax, up to the
    first zero (every later one is zero too).  Returns the verdict, that
    Hilbert vector and the first (generator, degree) failing (a), or None."""
    _check_dmax(dmax)
    ideal = Ideal(gens)
    dims = (component_dim(gens.nvars, d) - ideal.dim(d) for d in range(dmax + 1))
    hilbert = tuple(takewhile(bool, dims))
    for d, basis in space.comps:
        if d > dmax:
            break
        for g, rows in _apolar_rows(gens, d):
            if any(sum(x * q[k] for k, x in r.items()) for r in rows for q in basis):
                return False, hilbert, (g, d)
    return space.hilbert() == hilbert, hilbert, None


def hilbert_quotient(gens: IdealGens, cap: int) -> tuple:
    """Hilbert function of (full ring)/(ideal), stopping at the first zero.

    Once a quotient component vanishes every later one does too (the ideal
    component then contains variable multiples of a full component), so the
    values are returned up to the first zero.  NoStabilization if no degree
    up to `cap` is full; a configuration's ideals take
    `zonotopal.stabilization_cap`.
    """
    ideal = Ideal(gens)
    values = []
    for d in range(cap + 1):
        if ideal.is_full(d):
            return tuple(values)
        values.append(component_dim(gens.nvars, d) - ideal.dim(d))
    raise NoStabilization(cap, tuple(values), gens.nvars, len(gens.gens))


def _pivoted(basis) -> list:
    """A canonical basis as the (pivot column, row) pairs that linalg.canonical
    and echelon extend."""
    return [(next(k for k, x in enumerate(row) if x), row) for row in basis]


def intersect(a: GradedSubspace, b: GradedSubspace) -> GradedSubspace:
    """Degreewise intersection by Zassenhaus' trick: reduce [u | u] for u in A
    over [v | 0] for v in B.  A combination reads [u + v | u], zero on the left
    exactly when u = -v lies in both, so the right halves of the reduced rows
    zero on the left span A meet B.  B's canonical rows, padded, already
    are a reduced echelon, so only A's rows are reduced.  The rows zero on
    the left are primitive with a positive pivot and zero in every other
    pivot column, so their right halves already are the canonical basis;
    nothing is reduced again.

    Canonical bases are unique, so a degree whose two bases are equal, or
    where one side is the whole component, is read off them with no
    elimination: A meet A = A, and A meet the whole component = A."""
    if a.nvars != b.nvars:
        raise DimensionMismatch("intersection across different rings")
    comps = []
    for d, basis_a in a.comps:
        basis_b = b.component(d)
        if not basis_b:
            continue
        m = len(basis_a[0])
        if basis_a == basis_b or len(basis_b) == m:
            comps.append((d, basis_a))
            continue
        if len(basis_a) == m:
            comps.append((d, basis_b))
            continue
        zeros = (0,) * m
        start = [(c, v + zeros) for c, v in _pivoted(basis_b)]
        reduced = canonical((u + u for u in basis_a), 2 * m, start)
        basis = tuple([row[m:] for row in reduced if not any(row[:m])])
        if basis:
            comps.append((d, basis))
    return GradedSubspace(a.nvars, tuple(comps))


def add(a: GradedSubspace, b: GradedSubspace) -> GradedSubspace:
    """Degreewise sum: b's rows extend a's canonical basis, which is
    already a reduced echelon."""
    if a.nvars != b.nvars:
        raise DimensionMismatch("sum across different rings")
    comps = []
    for d in sorted({d for d, _ in a.comps} | {d for d, _ in b.comps}):
        basis, extra = a.component(d), b.component(d)
        if extra:
            basis = canonical(extra, component_dim(a.nvars, d), _pivoted(basis))
        comps.append((d, basis))
    return GradedSubspace(a.nvars, tuple(comps))


def direct_sum_certificate(p: GradedSubspace, gens: IdealGens, dmax: int | None = None) -> dict:
    """Degree-by-degree check that p and the ideal sum directly to everything.

    For each degree through dmax (default: top degree of p, plus one) the
    certificate requires dim p_d + dim ideal_d = dim of the full component and
    a zero intersection; past the top of p this forces the ideal component to
    be full, which then persists for all higher degrees.  From the ideal's
    first full degree on the stacked rank is the full dimension, so a degree
    there is independent only when p_d = 0, and nothing is eliminated.
    """
    if dmax is None:
        dmax = p.top_degree() + 1
    _check_dmax(dmax)
    ideal = Ideal(gens)
    table = []
    ok = True
    for d in range(dmax + 1):
        basis_p = p.component(d)
        dim_i = ideal.dim(d)
        full = component_dim(p.nvars, d)
        if ideal.is_full(d):
            stacked_rank = full
        else:
            stacked_rank = len(sparse_echelon(map(_sparse, basis_p), full, ideal.pivots(d)))
        line = {
            "degree": d,
            "dim_space": len(basis_p),
            "dim_ideal": dim_i,
            "dim_full": full,
            "sum_ok": len(basis_p) + dim_i == full,
            "independent": stacked_rank == len(basis_p) + dim_i,
        }
        line["passed"] = line["sum_ok"] and line["independent"]
        ok = ok and line["passed"]
        table.append(line)
    return {"dmax": dmax, "degrees": table, "passed": ok}


def ideals_equal(a: IdealGens, b: IdealGens, dmax: int) -> bool:
    """Equal components through dmax: equal dimensions and b inside a."""
    ia, ib = Ideal(a), Ideal(b)
    if any(ia.dim(d) != ib.dim(d) for d in range(dmax + 1)):
        return False
    return all(g in ia for g in b.gens if g[0] <= dmax)


def ideal_contains(big: IdealGens, small: IdealGens, dmax: int) -> bool:
    """Every component of small through dmax lies in big's.

    Each component of small is spanned by multiples of its generators of at
    most that degree, so it is enough that those generators lie in big.
    """
    ideal = Ideal(big)
    return all(g in ideal for g in small.gens if g[0] <= dmax)

"""The Fraction-RREF graded subspaces, kept as an oracle for the integer ones.

Verbatim copies of the GradedSubspace dataclass, intersect, add, contains,
direct_sum_certificate and the diff_apply kernel as they were while every
component was stored as Fraction RREF rows.  Their row reductions are bound
to the dense Fraction Gauss-Jordan loop of test_linalg, so these subspaces
share no elimination code with the integer ones they check.  `Ideal` is
graded.Ideal as it was while its Macaulay rows were dense integer lists
reduced by linalg.echelon, before they became sparse rows for
linalg.sparse_echelon; the certificate reads it, and test_graded checks it
against the sparse Ideal, which the all-multiples oracle checks too.  The
kernel reads the library's (degree, integer row, denominator) generators
through `as_hpoly`.  `integer_contains` applies `contains` to integer
subspaces through `fraction_space`: the library has no containment test of
its own.

`assert_canonical` states the form every integer component must have.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import gcd

from hpoly_oracle import as_hpoly, diff_apply, from_coeff_vector, is_zero
from test_linalg import primitive_integer
from test_linalg import reference_nullspace as nullspace
from test_linalg import reference_row_basis as row_basis
from test_linalg import reference_rref as rref
from zonoforge.errors import DimensionMismatch
from zonoforge.graded import IdealGens, component_dim
from zonoforge.linalg import echelon
from zonoforge.poly import HPoly, _shifts, monomials


@dataclass(frozen=True)
class GradedSubspace:
    nvars: int
    comps: tuple = field(default=())  # ((degree, row-basis matrix), ...) sorted

    @classmethod
    def from_components(cls, nvars: int, mapping: dict) -> "GradedSubspace":
        """Degree -> spanning rows (of ints or Fractions), each degree
        reduced to its canonical basis; zero components are dropped."""
        comps = []
        for d in sorted(mapping):
            basis = row_basis(tuple(tuple(r) for r in mapping[d]))
            if basis:
                comps.append((d, basis))
        return cls(nvars, tuple(comps))

    @classmethod
    def from_spanning(cls, nvars: int, polys) -> "GradedSubspace":
        by_degree: dict = {}
        for p in polys:
            if is_zero(p):
                continue
            by_degree.setdefault(p.degree, []).append(p.coeff_vector())
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
        out = []
        for d, basis in self.comps:
            for row in basis:
                out.append(from_coeff_vector(self.nvars, d, row))
        return tuple(out)


class Ideal:
    """Graded components of the ideal that an IdealGens generates.

    Components are built on demand, lowest degree first, and kept as integer
    echelons over monomials(nvars, d).  full_degree is the first degree whose
    component is everything (None until one is found); no component past it
    is built.
    """

    def __init__(self, gens: IdealGens):
        self.nvars = gens.nvars
        self._gens: dict = {}  # degree -> integer coefficient rows
        for d, row, _ in gens.gens:
            self._gens.setdefault(d, []).append(row)
        self._echelons: list = []  # degree -> [(pivot column, int row), ...]
        self.full_degree = None

    def is_full(self, d: int) -> bool:
        self._build(d)
        return self.full_degree is not None and d >= self.full_degree

    def dim(self, d: int) -> int:
        if self.is_full(d):
            return component_dim(self.nvars, d)
        return len(self._echelons[d])

    def pivots(self, d: int) -> list:
        """The kept (pivot column, int row) pairs of a component up to the
        full degree, in the form linalg.echelon extends."""
        self._build(d)
        return self._echelons[d]

    def __contains__(self, p: tuple) -> bool:
        d, row, _ = p
        if self.is_full(d):
            return True
        return len(echelon([row], component_dim(self.nvars, d), self._echelons[d])) == self.dim(d)

    def _build(self, top: int) -> None:
        n = self.nvars
        while self.full_degree is None and len(self._echelons) <= top:
            d = len(self._echelons)
            size = component_dim(n, d)
            rows = list(self._gens.get(d, ()))
            prev = self._echelons[-1] if d else ()
            if prev:
                shifts = _shifts(n, d - 1)
                for _, b in prev:
                    support = [(j, v) for j, v in enumerate(b) if v]
                    for shift in shifts:
                        row = [0] * size
                        for j, v in support:
                            row[shift[j]] = v
                        rows.append(row)
            # sparsest rows first keeps the pivot rows sparse and small: on
            # the external ideal of a 5 x 8 configuration the entries reach
            # 132 bits in the order built and 10 bits sorted, 30x less work
            rows.sort(key=lambda r: len(r) - r.count(0))
            found = echelon(rows, size) if rows else []
            self._echelons.append(found)
            if len(found) == size:
                self.full_degree = d


def kernel(gens: IdealGens, dmax: int) -> GradedSubspace:
    """Degrees 0..dmax of {q : g(D) q = 0 for every generator g}."""
    comps = {}
    for d in range(dmax + 1):
        mons = monomials(gens.nvars, d)
        stacked = []
        for g in map(partial(as_hpoly, gens.nvars), gens.gens):
            if g.degree > d:
                continue
            target = monomials(gens.nvars, d - g.degree)
            cols = []
            for m in mons:
                r = diff_apply(g, HPoly.monomial(gens.nvars, m))
                cols.append([r.coeffs.get(t, Fraction(0)) for t in target])
            for ti in range(len(target)):
                stacked.append(tuple(col[ti] for col in cols))
        if stacked:
            comps[d] = nullspace(tuple(stacked), ncols=len(mons))
        else:
            comps[d] = tuple(
                tuple(Fraction(1 if i == j else 0) for j in range(len(mons)))
                for i in range(len(mons))
            )
    return GradedSubspace.from_components(gens.nvars, comps)


def intersect(a: GradedSubspace, b: GradedSubspace) -> GradedSubspace:
    """Degreewise intersection by Zassenhaus' trick: reduce [u | u] for u in A
    over [v | 0] for v in B.  A combination reads [u + v | u], zero on the left
    exactly when u = -v lies in both, so the right halves of the reduced rows
    pivoting in the right half span A meet B.  Those rows are zero on the
    left, lead with a 1 and are zero in every other pivot column, so their
    right halves already are the canonical basis; nothing is reduced again."""
    if a.nvars != b.nvars:
        raise DimensionMismatch("intersection across different rings")
    comps = []
    for d, basis_a in a.comps:
        basis_b = b.component(d)
        if not basis_b:
            continue
        m = len(basis_a[0])
        zeros = (Fraction(0),) * m
        red, piv = rref(tuple(u + u for u in basis_a) + tuple(v + zeros for v in basis_b))
        basis = tuple(row[m:] for row, p in zip(red, piv) if p >= m)
        if basis:
            comps.append((d, basis))
    return GradedSubspace(a.nvars, tuple(comps))


def add(a: GradedSubspace, b: GradedSubspace) -> GradedSubspace:
    if a.nvars != b.nvars:
        raise DimensionMismatch("sum across different rings")
    comps = {}
    for d in sorted({d for d, _ in a.comps} | {d for d, _ in b.comps}):
        comps[d] = a.component(d) + b.component(d)
    return GradedSubspace.from_components(a.nvars, comps)


def contains(a: GradedSubspace, b: GradedSubspace) -> bool:
    """Every component of b lies inside the matching component of a."""
    for d, basis_b in b.comps:
        basis_a = a.component(d)
        if len(row_basis(basis_a + basis_b)) != len(basis_a):
            return False
    return True


def fraction_space(space) -> GradedSubspace:
    """An integer GradedSubspace as an oracle one: each canonical row divided
    by its pivot, its Fraction RREF row."""
    return GradedSubspace(
        space.nvars,
        tuple(
            (d, tuple(tuple(Fraction(x, next(v for v in row if v)) for x in row) for row in basis))
            for d, basis in space.comps
        ),
    )


def integer_contains(a, b) -> bool:
    """contains on two integer GradedSubspaces, read as Fraction rows."""
    return contains(fraction_space(a), fraction_space(b))


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
            stacked_rank = len(echelon(map(primitive_integer, basis_p), full, ideal.pivots(d)))
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


def assert_canonical(space) -> None:
    """Each component of an integer GradedSubspace is its canonical basis:
    rows of ints over the degree's monomials, each primitive with a positive
    pivot, zero in every other row's pivot column, sorted by pivot column,
    and no component empty."""
    degrees = [d for d, _ in space.comps]
    assert degrees == sorted(set(degrees))
    for d, basis in space.comps:
        assert basis and type(basis) is tuple
        pivots = []
        for row in basis:
            assert type(row) is tuple and len(row) == component_dim(space.nvars, d)
            assert all(type(x) is int for x in row)
            assert gcd(*row) == 1
            lead = next(k for k, x in enumerate(row) if x)
            assert row[lead] > 0
            pivots.append(lead)
        assert pivots == sorted(set(pivots))
        for row, lead in zip(basis, pivots):
            assert all(row[p] == 0 for p in pivots if p != lead)

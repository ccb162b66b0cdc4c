"""Graded subspaces of the polynomial ring and finitely generated ideals.

A GradedSubspace stores, for each degree, a canonical (RREF) row basis of a
subspace of the homogeneous component, coefficients taken over the graded-lex
monomial list.  Because the bases are canonical, two graded subspaces are
equal iff the dataclasses compare equal.

Ideal components, kernels of differential ideals and quotient Hilbert
functions all live here.  The kernel of an ideal under the apolarity action
only depends on the generators: g(D) annihilates q for every generator g iff
every element of the ideal annihilates q.

Workhorse duality, used as a cross-check everywhere: for any generator set,
dim kernel_d + dim ideal_component_d = dim of the full degree-d component.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DimensionMismatch, NoStabilization
from .linalg import nullspace, rank, row_basis, rref
from .poly import HPoly, diff_apply, monomials


def component_dim(nvars: int, d: int) -> int:
    return len(monomials(nvars, d))


@dataclass(frozen=True)
class GradedSubspace:
    nvars: int
    comps: tuple = field(default=())  # ((degree, row-basis matrix), ...) sorted

    @classmethod
    def from_components(cls, nvars: int, mapping: dict) -> "GradedSubspace":
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
            if p.is_zero:
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
                out.append(HPoly.from_coeff_vector(self.nvars, d, row))
        return tuple(out)


@dataclass(frozen=True)
class IdealGens:
    nvars: int
    gens: tuple = field(default=())

    @classmethod
    def make(cls, nvars: int, polys) -> "IdealGens":
        uniq = {}
        for p in polys:
            if p.is_zero:
                continue
            uniq[(p.degree, p.render())] = p
        ordered = tuple(uniq[k] for k in sorted(uniq))
        return cls(nvars, ordered)

def ideal_component(gens: IdealGens, d: int) -> tuple:
    """Canonical row basis of the ideal's degree-d component."""
    rows = []
    for g in gens.gens:
        k = d - g.degree
        if k < 0:
            continue
        for m in monomials(gens.nvars, k):
            rows.append((HPoly.monomial(gens.nvars, m) * g).coeff_vector())
    return row_basis(tuple(rows))


def kernel(gens: IdealGens, dmax: int) -> GradedSubspace:
    """Degrees 0..dmax of {q : g(D) q = 0 for every generator g}."""
    comps = {}
    for d in range(dmax + 1):
        mons = monomials(gens.nvars, d)
        stacked = []
        for g in gens.gens:
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


def hilbert_quotient(gens: IdealGens, cap: int = 40) -> tuple:
    """Hilbert function of (full ring)/(ideal), stopping at the first zero.

    Once a quotient component vanishes every later one does too (the ideal
    component then contains variable multiples of a full component), so the
    values are returned up to the first zero.  NoStabilization if the cap is
    reached first.
    """
    values = []
    for d in range(cap + 1):
        q = component_dim(gens.nvars, d) - len(ideal_component(gens, d))
        if q == 0:
            return tuple(values)
        values.append(q)
    raise NoStabilization(cap)


def intersect(a: GradedSubspace, b: GradedSubspace) -> GradedSubspace:
    """Degreewise intersection by Zassenhaus' trick: reduce [u | u] for u in A
    over [v | 0] for v in B.  A combination reads [u + v | u], zero on the left
    exactly when u = -v lies in both, so the right halves of the reduced rows
    pivoting in the right half span A meet B."""
    if a.nvars != b.nvars:
        raise DimensionMismatch("intersection across different rings")
    comps = {}
    for d, basis_a in a.comps:
        basis_b = b.component(d)
        if not basis_b:
            continue
        m = len(basis_a[0])
        zeros = (Fraction(0),) * m
        red, piv = rref(tuple(u + u for u in basis_a) + tuple(v + zeros for v in basis_b))
        comps[d] = [row[m:] for row, p in zip(red, piv) if p >= m]
    return GradedSubspace.from_components(a.nvars, comps)


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


def direct_sum_certificate(p: GradedSubspace, gens: IdealGens, dmax: int | None = None) -> dict:
    """Degree-by-degree check that p and the ideal sum directly to everything.

    For each degree through dmax (default: top degree of p, plus one) the
    certificate requires dim p_d + dim ideal_d = dim of the full component and
    a zero intersection; past the top of p this forces the ideal component to
    be full, which then persists for all higher degrees.
    """
    if dmax is None:
        dmax = p.top_degree() + 1
    table = []
    ok = True
    for d in range(dmax + 1):
        basis_p = p.component(d)
        basis_i = ideal_component(gens, d)
        full = component_dim(p.nvars, d)
        stacked_rank = rank(basis_p + basis_i)
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


def ideals_equal(a: IdealGens, b: IdealGens, dmax: int) -> bool:
    return all(ideal_component(a, d) == ideal_component(b, d) for d in range(dmax + 1))


def ideal_contains(big: IdealGens, small: IdealGens, dmax: int) -> bool:
    for d in range(dmax + 1):
        comp_big = ideal_component(big, d)
        comp_small = ideal_component(small, d)
        if len(row_basis(comp_big + comp_small)) != len(comp_big):
            return False
    return True

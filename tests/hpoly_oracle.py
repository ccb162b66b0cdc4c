"""The HPoly dict-arithmetic routes that the library no longer runs, kept
verbatim as independent oracles.

`linform_product`, `diff_apply` and `evaluate` are the former
`zonoforge.poly` helpers (`evaluate` was the method `HPoly.evaluate`);
`reference_extend_basis` and `reference_perp_space_gens` are
`config.extend_basis` and `poly.perp_space_gens` as they were before the
extended configuration's rank cache and integer kernel rows replaced their
`Fraction` ranks, `Fraction` kernel and repeated `HPoly` multiplication.
Their kernels come from the dense Fraction Gauss-Jordan loop of
test_linalg, so they share no elimination code with the library.

`pair` is the former `zonoforge.poly.pair`, the `Fraction` apolarity
pairing that the Gram check used before it paired integer rows, and
`reference_ideal_gens` is `IdealGens.make` as it was while it keyed
generators by their rendered text.  `as_row` and `as_hpoly` convert
between HPoly and the library's (degree, integer row, denominator) format.

`render`, `from_coeff_vector` and `is_zero` are the former HPoly members
of those names, the text the reports printed before `cli._render` wrote
it from the tuple; they are the oracle that renderer is checked against.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from test_linalg import reference_nullspace, reference_rank, subset_rows
from zonoforge.config import Config, is_independent
from zonoforge.errors import DimensionMismatch, MissingB0, NotIndependent
from zonoforge.linalg import frac, matrix
from zonoforge.poly import HPoly, monomials, multi_factorial


def is_zero(p: HPoly) -> bool:
    return not p.coeffs


def from_coeff_vector(nvars: int, degree: int, vec) -> HPoly:
    mons = monomials(nvars, degree)
    if len(vec) != len(mons):
        raise DimensionMismatch("coefficient vector has the wrong length")
    return HPoly(nvars, dict(zip(mons, vec)))


def render(p: HPoly) -> str:
    """Canonical text form, terms in graded-lex order, rationals as p/q."""
    if is_zero(p):
        return "0"
    parts = []
    for exp in monomials(p.nvars, p.degree):
        c = p.coeffs.get(exp)
        if c is None:
            continue
        vars_part = "*".join(
            f"t{i + 1}^{e}" if e > 1 else f"t{i + 1}"
            for i, e in enumerate(exp)
            if e > 0
        )
        mag = abs(c)
        if not vars_part:
            body = str(mag)
        elif mag == 1:
            body = vars_part
        else:
            body = f"{mag}*{vars_part}"
        parts.append(("-" if c < 0 else "+", body))
    sign, body = parts[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def as_row(p: HPoly) -> tuple:
    """p as (degree, integer row, denominator): its coefficient vector
    times the lcm of the denominators, over that lcm."""
    vec = p.coeff_vector()
    den = lcm(*[x.denominator for x in vec])
    return p.degree, tuple(x.numerator * (den // x.denominator) for x in vec), den


def as_hpoly(nvars: int, poly) -> HPoly:
    """The HPoly of a (degree, integer row, denominator) tuple."""
    d, row, den = poly
    return from_coeff_vector(nvars, d, [Fraction(x, den) for x in row])


def pair(p: HPoly, q: HPoly) -> Fraction:
    """Apolarity pairing (p(D)q)(0); zero across different degrees."""
    if p.degree != q.degree:
        return Fraction(0)
    total = Fraction(0)
    for exp, c in p.coeffs.items():
        qc = q.coeffs.get(exp)
        if qc is not None:
            total += c * qc * multi_factorial(exp)
    return total


def reference_ideal_gens(polys) -> tuple:
    """Distinct nonzero HPolys in (degree, rendered text) order, keyed by
    that text."""
    uniq = {}
    for p in polys:
        if is_zero(p):
            continue
        uniq[(p.degree, render(p))] = p
    return tuple(uniq[k] for k in sorted(uniq))


def linform_product(nvars: int, vectors) -> HPoly:
    """Product of the linear forms of the given vectors (1 for no vectors)."""
    out = HPoly.constant(nvars)
    for v in vectors:
        out = out * HPoly.linear_form(v)
    return out


def diff_apply(p: HPoly, q: HPoly) -> HPoly:
    """Apply p as a constant-coefficient differential operator to q."""
    if p.nvars != q.nvars:
        raise DimensionMismatch("operator and argument have different arities")
    out = {}
    for pe, pc in p.coeffs.items():
        for qe, qc in q.coeffs.items():
            if any(a > b for a, b in zip(pe, qe)):
                continue
            coef = pc * qc
            for a, b in zip(pe, qe):
                # falling factorial b (b-1) ... (b-a+1)
                for k in range(a):
                    coef *= b - k
            exp = tuple(b - a for a, b in zip(pe, qe))
            out[exp] = out.get(exp, Fraction(0)) + coef
    return HPoly(p.nvars, out)


def evaluate(poly: HPoly, point) -> Fraction:
    total = Fraction(0)
    for exp, c in poly.coeffs.items():
        term = c
        for x, e in zip(point, exp):
            term *= frac(x) ** e
        total += term
    return total


def reference_extend_basis(c: Config, i_set) -> frozenset:
    """Greedy completion of an independent set by the b0 vectors.

    Returns indices into the extended configuration: 0..N-1 for columns of X,
    N..N+n-1 for b0 vectors, which sort after every column of X.
    """
    if c.b0 is None:
        raise MissingB0()
    i_set = frozenset(i_set)
    if not is_independent(c, i_set):
        raise NotIndependent(i_set)
    chosen = list(subset_rows(c, i_set))
    out = set(i_set)
    taken = []
    for k, b in enumerate(c.b0):
        if reference_rank(tuple(chosen) + tuple(taken) + (b,)) > reference_rank(tuple(chosen) + tuple(taken)):
            out.add(c.ncols + k)
        # the span of "i_set plus all earlier b0 vectors" is what matters,
        # so every earlier b0 vector joins the spanning rows either way
        taken.append(b)
    return frozenset(out)


def reference_perp_space_gens(nvars: int, span_vectors, degree: int) -> list[HPoly]:
    """Spanning set of the degree-d polynomials constant along span_vectors.

    Concretely: all degree-d monomials in the linear forms of a basis of the
    orthogonal complement of span(span_vectors).
    """
    null = reference_nullspace(matrix(span_vectors), ncols=nvars)
    forms = [HPoly.linear_form(v) for v in null]
    gens = []
    for exp in monomials(len(forms), degree):
        g = HPoly.constant(nvars)
        for f, e in zip(forms, exp):
            g = g * f ** e
        gens.append(g)
    return gens

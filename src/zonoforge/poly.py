"""Homogeneous polynomials in n variables with exact rational coefficients.

Below the CLI a polynomial is a (degree, integer row, denominator) tuple:
the row lists integer coefficients over monomials(n, degree) and the
polynomial is row / denominator, a positive int.  `perp_space_gens` here,
config.subset_polynomial and zonotopal.facet_powers produce them, graded
reads them, and the CLI writes their text straight from the tuple.

HPoly is a dict mapping exponent tuples (one entry per variable) to
nonzero Fraction coefficients, together with the variable count.  All
monomials in one HPoly share the same total degree; the zero polynomial is
the empty dict and reports degree 0.  The package makes none: its dict
arithmetic is the tests' independent oracle, and the benchmark's tracer
counts calls of `HPoly.__mul__`.

The fixed monomial order everywhere in the package is graded lexicographic:
degree first, then exponent tuples compared lexicographically in descending
order, so for three variables degree two reads t1^2, t1*t2, t1*t3, t2^2,
t2*t3, t3^2.  monomials(n, d) returns exactly that sequence and every
coefficient vector, matrix column and rendered string follows it.

Products run on integer coefficient rows: `_shifts` maps each monomial to
its index after multiplication by a variable, and `_times_linear`
multiplies a row by a linear form with it.  The subset-product table in
config, graded.Ideal and perp_space_gens all read it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .errors import DimensionMismatch
from .linalg import frac, integer_nullspace


@lru_cache(maxsize=None)
def monomials(nvars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All exponent tuples of the given total degree, graded-lex order."""
    if degree < 0:
        return ()
    if nvars == 0:
        return ((),) if degree == 0 else ()
    if nvars == 1:
        return ((degree,),)
    out = []
    for k in range(degree, -1, -1):
        for rest in monomials(nvars - 1, degree - k):
            out.append((k,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def _shifts(nvars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """Multiplication by a variable on monomial indices: entry i lists, for
    each monomial m of monomials(nvars, degree), the index of t_i * m in
    monomials(nvars, degree + 1).  Every integer-row product reads it."""
    index = {m: k for k, m in enumerate(monomials(nvars, degree + 1))}
    return tuple(
        tuple(index[m[:i] + (m[i] + 1,) + m[i + 1:]] for m in monomials(nvars, degree))
        for i in range(nvars)
    )


def _times_linear(row, vec, degree: int) -> list:
    """An integer coefficient row of the given degree times the linear form
    vec . t (vec of ints), as a row over monomials(len(vec), degree + 1)."""
    nvars = len(vec)
    out = [0] * len(monomials(nvars, degree + 1))
    for v, shift in zip(vec, _shifts(nvars, degree)):
        if v:
            for k, x in zip(shift, row):
                if x:
                    out[k] += v * x
    return out


def multi_factorial(exp) -> int:
    out = 1
    for e in exp:
        out *= factorial(e)
    return out


class HPoly:
    """A homogeneous polynomial; immutable by convention."""

    __slots__ = ("nvars", "degree", "coeffs")

    def __init__(self, nvars: int, coeffs: dict):
        clean = {}
        degrees = set()
        for exp, c in coeffs.items():
            c = frac(c)
            if c == 0:
                continue
            if len(exp) != nvars:
                raise DimensionMismatch(f"exponent {exp} has wrong arity")
            degrees.add(sum(exp))
            clean[tuple(int(e) for e in exp)] = c
        if len(degrees) > 1:
            raise DimensionMismatch(f"mixed degrees {sorted(degrees)} in one polynomial")
        self.nvars = nvars
        self.degree = degrees.pop() if degrees else 0
        self.coeffs = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "HPoly":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, value=1) -> "HPoly":
        return cls(nvars, {(0,) * nvars: frac(value)})

    @classmethod
    def monomial(cls, nvars: int, exp, coeff=1) -> "HPoly":
        return cls(nvars, {tuple(exp): frac(coeff)})

    @classmethod
    def linear_form(cls, vec) -> "HPoly":
        """The form t -> v . t; rejects the zero vector."""
        n = len(vec)
        coeffs = {}
        for i, x in enumerate(vec):
            x = frac(x)
            if x != 0:
                exp = [0] * n
                exp[i] = 1
                coeffs[tuple(exp)] = x
        if not coeffs:
            raise ValueError("zero vector does not define a linear form")
        return cls(n, coeffs)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "HPoly") -> "HPoly":
        out = dict(self.coeffs)
        for exp, c in other.coeffs.items():
            out[exp] = out.get(exp, Fraction(0)) + c
        return HPoly(self.nvars, out)

    def __sub__(self, other: "HPoly") -> "HPoly":
        return self + other.scale(-1)

    def scale(self, k) -> "HPoly":
        k = frac(k)
        return HPoly(self.nvars, {e: c * k for e, c in self.coeffs.items()})

    def __mul__(self, other: "HPoly") -> "HPoly":
        out = {}
        for ea, ca in self.coeffs.items():
            for eb, cb in other.coeffs.items():
                exp = tuple(a + b for a, b in zip(ea, eb))
                out[exp] = out.get(exp, Fraction(0)) + ca * cb
        return HPoly(self.nvars, out)

    def __pow__(self, k: int) -> "HPoly":
        out = HPoly.constant(self.nvars)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HPoly)
            and self.nvars == other.nvars
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.coeffs.items()))))

    def __repr__(self):
        return f"HPoly({self.nvars}, {self.coeffs!r})"

    # -- conversions -------------------------------------------------------

    def coeff_vector(self) -> tuple:
        """Coefficients over monomials(nvars, degree)."""
        return tuple(self.coeffs.get(m, Fraction(0)) for m in monomials(self.nvars, self.degree))


def perp_space_gens(nvars: int, span_rows, degree: int) -> list:
    """Spanning set of the degree-d polynomials constant along the span of
    canonical integer rows: all degree-d monomials in the linear forms of the
    RREF basis of its orthogonal complement, each built as a product of the
    integer kernel rows by `_times_linear` and divided by their pivots, as
    (degree, integer row, denominator)."""
    kern = integer_nullspace(span_rows, nvars)
    pivots = [next(x for x in v if x) for v in kern]
    gens = []
    for exp in monomials(len(kern), degree):
        row, den, d = (1,), 1, 0
        for v, p, e in zip(kern, pivots, exp):
            for _ in range(e):
                row = _times_linear(row, v, d)
                d += 1
            den *= p**e
        gens.append((degree, tuple(row), den))
    return gens

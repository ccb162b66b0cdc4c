"""Products of linear forms: the per-configuration subset-product table, the
closed-form facet powers, the spanning sets built from the table, and the
extended configuration X u B0 (cover generators, greedy completions) with
the perpendicular-space generators.

The HPoly dict arithmetic (`linform_product`, `HPoly.__pow__`, kept in
hpoly_oracle) is the independent oracle throughout, and the spanning-set
routes as they were before the table (every product built from scratch as
an HPoly) are kept here verbatim and compared by GradedSubspace equality.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpoly_oracle import (
    as_hpoly,
    as_row,
    from_coeff_vector,
    linform_product,
    reference_extend_basis,
    reference_perp_space_gens,
    render,
)
from test_linalg import reference_rank, reference_row_basis, subset_rows
from zonoforge.cli import parse_document
from zonoforge.config import (
    Config,
    SemiExternalFamily,
    _derive,
    _mask_to_set,
    _product,
    ensure_family,
    extend_basis,
    facets,
    full_family,
    independents,
    rank_of,
    semiexternal_close,
    subset_polynomial,
)
from zonoforge.graded import GradedSubspace
from zonoforge.linalg import canonical
from zonoforge.poly import HPoly, _shifts, monomials, perp_space_gens
from zonoforge.zonotopal import (
    _delete,
    _family_short_space,
    central_space,
    facet_powers,
    full_span_space,
)

ROOT = Path(__file__).resolve().parent.parent
INPUTS = ROOT / "inputs"

K4 = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, -1), (0, 1, -1))
# the base matrices of the random benchmark rungs (n=3/N=7, n=3/N=8, n=4/N=5)
LADDER = (
    ((0, 1, 1), (1, 1, 1), (1, 1, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1), (1, 0, 1)),
    ((1, 1, 0), (1, 0, 0), (1, 0, 0), (1, 0, 1), (1, 1, 0), (0, 0, 1), (0, 1, 1), (0, 0, 1)),
    ((1, 1, 0, 1), (1, 0, 1, 0), (0, 1, 1, 1), (1, 1, 1, 0), (0, 0, 1, 1)),
)


# -- the spanning-set routes before the product table, verbatim ---------------


def reference_subset_polynomial(c: Config, cols) -> HPoly:
    return linform_product(c.n, subset_rows(c, cols))


def reference_central_space(c: Config) -> GradedSubspace:
    everything = frozenset(range(c.ncols))
    polys = []
    for mask in range(1 << c.ncols):
        y = frozenset(i for i in range(c.ncols) if mask >> i & 1)
        if rank_of(c, everything - y) == c.n:
            polys.append(reference_subset_polynomial(c, y))
    return GradedSubspace.from_spanning(c.n, map(as_row, polys))


def reference_full_span_space(c: Config) -> GradedSubspace:
    polys = []
    for mask in range(1 << c.ncols):
        y = frozenset(i for i in range(c.ncols) if mask >> i & 1)
        polys.append(reference_subset_polynomial(c, y))
    return GradedSubspace.from_spanning(c.n, map(as_row, polys))


def reference_family_short_space(c: Config, fam: SemiExternalFamily) -> GradedSubspace:
    shorts = set()
    for i_set in fam:
        free = sorted(frozenset(range(c.ncols)) - i_set)
        for mask in range(1 << len(free)):
            shorts.add(frozenset(free[k] for k in range(len(free)) if mask >> k & 1))
    return GradedSubspace.from_spanning(c.n, [as_row(reference_subset_polynomial(c, y)) for y in shorts])


# -- configurations -------------------------------------------------------------


def _entry(rng: random.Random):
    """A small rational: integers, negatives and proper fractions."""
    return Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))


def random_rational_config(rng: random.Random, n: int, ncols: int) -> Config:
    """A full-rank configuration mixing fresh columns with repeated ones and
    rational multiples (negative ones included) of earlier columns."""
    cols = [tuple(Fraction(int(i == j)) for i in range(n)) for j in range(n)]
    while len(cols) < ncols:
        kind = rng.random()
        if kind < 0.2:
            cols.append(rng.choice(cols))
        elif kind < 0.4:
            k = _entry(rng) or Fraction(-1, 2)
            cols.append(tuple(k * x for x in rng.choice(cols)))
        else:
            v = tuple(_entry(rng) for _ in range(n))
            if any(v):
                cols.append(v)
    rng.shuffle(cols)
    return Config(tuple(cols))


def document_cases() -> list:
    """(configuration, closed family) of each shipped input document."""
    out = []
    for path in sorted(INPUTS.glob("*.json")):
        c, meta = parse_document(json.loads(path.read_text()))
        if meta["iprime_closed"]:
            fam = ensure_family(c, SemiExternalFamily(tuple(meta["iprime"])))
        else:
            fam = semiexternal_close(c, meta["iprime"])
        out.append((c, fam))
    return out


def fixed_configs() -> list:
    return [c for c, _ in document_cases()] + [Config(K4)] + [Config(cols) for cols in LADDER]


# -- the table against linform_product ------------------------------------------


def _assert_table_matches_oracle(c: Config, rng: random.Random) -> None:
    masks = list(range(1 << c.ncols))
    rng.shuffle(masks)  # the table fills lazily; any query order must do
    for mask in masks:
        cols = _mask_to_set(mask)
        want = linform_product(c.n, subset_rows(c, cols))
        row, den = _product(c, mask)
        assert all(type(x) is int for x in row) and type(den) is int and den > 0
        assert from_coeff_vector(c.n, len(cols), [Fraction(x, den) for x in row]) == want
        assert subset_polynomial(c, cols) == (len(cols), row, den)


def test_empty_mask_is_one():
    c = Config(((Fraction(1, 2), 3), (0, -1)))
    assert _product(c, 0) == ((1,), 1)
    assert as_hpoly(2, subset_polynomial(c, frozenset())) == HPoly.constant(2)
    assert c._products == {}  # the empty product is never stored


@pytest.mark.parametrize("nvars", range(1, 5))
def test_shift_table_is_multiplication_by_a_variable(nvars):
    for d in range(4):
        up = monomials(nvars, d + 1)
        for i, shift in enumerate(_shifts(nvars, d)):
            t_i = HPoly.monomial(nvars, [int(j == i) for j in range(nvars)])
            for m, k in zip(monomials(nvars, d), shift):
                assert HPoly.monomial(nvars, m) * t_i == HPoly.monomial(nvars, up[k])


@pytest.mark.parametrize("n", range(1, 6))
def test_table_matches_linform_product_seeded(n):
    rng = random.Random(8100 + n)
    for _ in range(3):
        _assert_table_matches_oracle(random_rational_config(rng, n, n + rng.randint(0, 7 - n // 2)), rng)


def test_table_matches_linform_product_on_fixed_configs():
    rng = random.Random(8200)
    for c in fixed_configs():
        _assert_table_matches_oracle(c, rng)


def test_table_keeps_denominators_and_signs():
    # (t1/2 - t2/3)(-t1 + 3/4 t2) with a parallel and a repeated column
    c = Config(((Fraction(1, 2), Fraction(-1, 3)), (-1, Fraction(3, 4)), (Fraction(3, 2), -1), (-1, Fraction(3, 4))))
    _assert_table_matches_oracle(c, random.Random(0))
    assert render(as_hpoly(2, subset_polynomial(c, {0, 1}))) == "-1/2*t1^2 + 17/24*t1*t2 - 1/4*t2^2"


@settings(derandomize=True, max_examples=40, deadline=None)
@given(n=st.integers(1, 5), extra=st.integers(0, 3), rng=st.randoms(use_true_random=False))
def test_table_matches_linform_product_hypothesis(n, extra, rng):
    _assert_table_matches_oracle(random_rational_config(rng, n, n + extra), rng)


# -- the extended configuration X u B0 against the HPoly routes -----------------


def random_rational_b0(rng: random.Random, n: int) -> tuple:
    """A rational basis of the ambient space: an upper triangular matrix with
    a nonzero rational diagonal, plus a rational multiple of the last vector
    added to the first."""
    cols = [[Fraction(0)] * n for _ in range(n)]
    for j in range(n):
        cols[j][j] = Fraction(rng.choice((1, -1, 2, -3)), rng.choice((1, 2, 3)))
        for i in range(j):
            cols[j][i] = _entry(rng)
    if n > 1:
        k = _entry(rng)
        cols[0] = [x + k * y for x, y in zip(cols[0], cols[-1])]
    b0 = tuple(tuple(col) for col in cols)
    assert reference_rank(b0) == n
    return b0


def _assert_extended_matches_oracle(c: Config) -> None:
    """Cover generators, greedy completions and perpendicular-space
    generators of a configuration with b0 against the routes they replaced."""
    ext = c.extended()
    assert ext is c.extended() and c._tables[("extended",)] is ext
    vectors = c.columns + c.b0
    for mask in range(1 << ext.ncols):
        y = _mask_to_set(mask)
        want = linform_product(c.n, [vectors[i] for i in sorted(y)])
        assert as_hpoly(c.n, subset_polynomial(ext, y)) == want
    for s in independents(c):
        assert extend_basis(c, s) == reference_extend_basis(c, s)
        span = canonical([c._ints[i] for i in sorted(s)], c.n)
        old_span = reference_row_basis(subset_rows(c, s))
        for d in range(4):
            got = [as_hpoly(c.n, g) for g in perp_space_gens(c.n, span, d)]
            assert got == reference_perp_space_gens(c.n, old_span, d)


def test_extended_routes_match_oracle_on_documents():
    for c, _ in document_cases():
        _assert_extended_matches_oracle(c)


@pytest.mark.parametrize("n", range(1, 4))
def test_extended_routes_match_oracle_seeded(n):
    rng = random.Random(8300 + n)
    for _ in range(3):
        c = random_rational_config(rng, n, n + rng.randint(0, 5 - n))
        _assert_extended_matches_oracle(Config(c.columns, b0=random_rational_b0(rng, n)))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(n=st.integers(1, 3), extra=st.integers(0, 2), rng=st.randoms(use_true_random=False))
def test_extended_routes_match_oracle_hypothesis(n, extra, rng):
    c = random_rational_config(rng, n, n + extra)
    _assert_extended_matches_oracle(Config(c.columns, b0=random_rational_b0(rng, n)))


def test_a_config_without_b0_builds_no_extension():
    c = Config(K4)
    full_span_space(c)
    assert ("extended",) not in c._tables


# -- facet powers against repeated HPoly multiplication ---------------------------


EXPONENTS = (
    lambda f: 0,
    lambda f: f.mult,
    lambda f: f.mult + 1,
    lambda f: f.mult - 1,
    lambda f: None if f.mult % 2 else f.mult + 2,
)


def _assert_facet_powers_match_oracle(c: Config) -> None:
    for exponent in EXPONENTS:
        want = [
            HPoly.linear_form(f.normal) ** exponent(f)
            for f in facets(c)
            if exponent(f) is not None
        ]
        got = facet_powers(c, exponent)
        assert all(den == 1 and all(type(x) is int for x in row) for _, row, den in got)
        assert [as_hpoly(c.n, g) for g in got] == want


def test_facet_powers_match_repeated_multiplication():
    # the coordinate hyperplanes of K4 and the documents give normals with
    # zero entries; exponent 0 gives the constant 1
    for c in fixed_configs():
        _assert_facet_powers_match_oracle(c)
    assert facet_powers(Config(K4), lambda f: 0) == [(0, (1,), 1)] * len(facets(Config(K4)))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(n=st.integers(1, 4), extra=st.integers(0, 3), rng=st.randoms(use_true_random=False))
def test_facet_powers_match_repeated_multiplication_hypothesis(n, extra, rng):
    _assert_facet_powers_match_oracle(random_rational_config(rng, n, n + extra))


# -- spanning sets against the routes before the table ----------------------------


def _assert_spaces_match_oracle(c: Config, fams) -> None:
    assert central_space(c) == reference_central_space(c)
    assert full_span_space(c) == reference_full_span_space(c)
    for fam in fams:
        assert _family_short_space(c, fam) == reference_family_short_space(c, fam)


def test_spaces_match_oracle_on_documents():
    for c, fam in document_cases():
        _assert_spaces_match_oracle(c, [fam, full_family(c)])


def test_spaces_match_oracle_on_k4_and_ladder_rungs():
    for cols in (K4,) + LADDER:
        c = Config(cols)
        fams = [full_family(c), semiexternal_close(c, [{0}]), semiexternal_close(c, [])]
        _assert_spaces_match_oracle(c, fams)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(n=st.integers(1, 4), extra=st.integers(0, 3), rng=st.randoms(use_true_random=False))
def test_spaces_match_oracle_hypothesis(n, extra, rng):
    c = random_rational_config(rng, n, n + extra)
    _assert_spaces_match_oracle(c, [full_family(c), semiexternal_close(c, [{rng.randrange(c.ncols)}])])


# -- lifetime of the table ------------------------------------------------------


def test_filling_the_table_leaves_equality_hash_and_repr_unchanged():
    c, twin = Config(K4), Config(K4)
    before = (hash(c), repr(c))
    full_span_space(c)
    assert len(c._products) == (1 << c.ncols) - 1
    assert (hash(c), repr(c)) == before
    assert c == twin and hash(c) == hash(twin) and repr(c) == repr(twin)
    assert "_products" not in repr(c)


def test_equal_configs_share_no_table():
    a, b = Config(K4), Config(K4)
    assert a == b and a._products is not b._products
    subset_polynomial(a, {0, 3})
    assert a._products and b._products == {}


def test_derived_configs_start_with_an_empty_table():
    c = Config(K4, lam=(1, 2, 3, 4, 5, 6))
    full_span_space(c)
    assert replace(c, lam=None)._products == {}
    assert replace(c)._products == {}
    assert _delete(c, 0)._products == {}
    assert _derive(c, [*range(6), 0, 5])._products == {}


def test_module_level_caches_are_the_ones_the_readme_lists():
    readme = (ROOT / "README.md").read_text()
    paragraph = readme[readme.index("module-level `lru_cache`s"):].split("\n\n")[0]
    listed = {name.split(".")[-1] for name in re.findall(r"`([\w.]+)`", paragraph)}
    listed -= {"lru_cache", "config", "zonotopal", "poly", "Config"}
    cached = set()
    for path in sorted((ROOT / "src" / "zonoforge").glob("*.py")):
        text = path.read_text()
        names = re.findall(r"^@lru_cache\b.*\ndef (\w+)", text, re.M)
        # every lru_cache is a decorator directly on a def
        assert len(names) == len(re.findall(r"\blru_cache\(", text)), path.name
        cached |= set(names)
    assert cached == listed


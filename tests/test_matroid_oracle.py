"""Matroid queries against the elimination routes they replaced.

internal_bases / i_internal_bases read fundamental cocircuits off the
independence table, and is_independent / passive_set / span_le /
extend_basis read that table or extend one echelon.  The oracles below
are verbatim copies of the earlier routes, which found each subbasis
hyperplane by a nullspace normal in the facet table and each span test by
ranks of freshly built Fraction rows.  A direct definition of activity
from ranks alone, which never reads the facet table, is a third route.
Every rank here comes from test_linalg's dense Fraction loop, so no
oracle shares the library's elimination.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_linalg import primitive_integer, reference_nullspace as nullspace, reference_rank, subset_rows
from zonoforge import config, zonotopal
from zonoforge.config import (
    Config,
    Facet,
    bases,
    extend_basis,
    facets,
    i_internal_bases,
    independents,
    index_order,
    internal_bases,
    is_independent,
    order_with_last,
    passive_set,
    rank_of,
    span_le,
)
from zonoforge.errors import NotIndependent
from zonoforge.linalg import frac
from zonoforge.zonotopal import r37_sides


# -- the earlier routes, verbatim ---------------------------------------------


def span_contains(c: Config, cols, vec) -> bool:
    rows = subset_rows(c, cols)
    return reference_rank(rows + (tuple(frac(x) for x in vec),)) == reference_rank(rows)


def reference_span_le(c: Config, a, b) -> bool:
    """span(columns a) contained in span(columns b)."""
    rows_b = subset_rows(c, b)
    rb = reference_rank(rows_b)
    return reference_rank(rows_b + subset_rows(c, a)) == rb


def reference_passive_set(c: Config, y, order=None) -> frozenset:
    """Columns outside y not spanned by the earlier members of y."""
    y = frozenset(y)
    order = index_order(c) if order is None else tuple(order)
    pos = {j: k for k, j in enumerate(order)}
    out = set()
    for x in range(c.ncols):
        if x in y:
            continue
        earlier = [j for j in y if pos[j] < pos[x]]
        if not span_contains(c, earlier, c.columns[x]):
            out.add(x)
    return frozenset(out)


def _facet_of_subbasis(c: Config, cols) -> Facet:
    """The facet spanned by a rank n-1 column set."""
    normal = primitive_integer(nullspace(subset_rows(c, cols), ncols=c.n)[0])
    for f in facets(c):
        if f.normal == normal:
            return f
    raise AssertionError("facet table is missing a spanned hyperplane")


def _is_active(c: Config, b: int, basis, pos) -> bool:
    """b in basis is internally active: b is the order-largest column off
    the hyperplane spanned by basis - {b}."""
    f = _facet_of_subbasis(c, frozenset(basis) - {b})
    outside = [x for x in range(c.ncols) if x not in f.members]
    return max(outside, key=pos.__getitem__) == b


def reference_internal_bases(c: Config, order=None) -> tuple:
    """Bases with no internally active element (w.r.t. the given order)."""
    order = index_order(c) if order is None else tuple(order)
    pos = {j: k for k, j in enumerate(order)}
    out = []
    for b_set in bases(c):
        if not any(_is_active(c, b, b_set, pos) for b in b_set):
            out.append(b_set)
    return tuple(out)


def reference_i_internal_bases(c: Config, i_set) -> tuple:
    i_set = frozenset(i_set)
    if not is_independent(c, i_set):
        raise NotIndependent(i_set)
    order = order_with_last(c, i_set)
    pos = {j: k for k, j in enumerate(order)}
    out = []
    for b_set in bases(c):
        if not any(_is_active(c, b, b_set, pos) for b in b_set & i_set):
            out.append(b_set)
    return tuple(out)


# -- activity from its definition, without the facet table ------------------


def defined_internal_bases(c: Config, order) -> tuple:
    """b is active in B when no column after b (in order) leaves the span of B - b."""
    pos = {j: k for k, j in enumerate(order)}
    out = []
    for b_set in bases(c):
        active = False
        for b in b_set:
            rows = subset_rows(c, b_set - {b})
            later_off = [
                x for x in range(c.ncols)
                if pos[x] > pos[b] and reference_rank(rows + (c.columns[x],)) == c.n
            ]
            active = active or not later_off
        if not active:
            out.append(b_set)
    return tuple(out)


# -- inputs -------------------------------------------------------------------


def full_rank(cols, n) -> bool:
    return reference_rank(tuple(tuple(Fraction(x) for x in v) for v in cols)) == n


def random_config(rng: random.Random, n: int, ncols: int) -> Config:
    """Entries in -2..2, full rank, with repeated and negated columns mixed in."""
    while True:
        cols = []
        while len(cols) < ncols:
            kind = rng.random()
            if cols and kind < 0.15:
                cols.append(rng.choice(cols))
            elif cols and kind < 0.3:
                cols.append(tuple(-x for x in rng.choice(cols)))
            else:
                v = tuple(rng.randint(-2, 2) for _ in range(n))
                if any(v):
                    cols.append(v)
        if full_rank(cols, n):
            return Config(tuple(cols))


def seeded_configs():
    rng = random.Random(20261018)
    out = []
    for n in (2, 3, 4):
        for _ in range(8):
            out.append(random_config(rng, n, rng.randint(n, 8)))
    return out


CONFIGS = seeded_configs()


def check_against_oracles(c: Config, rng: random.Random):
    order = list(range(c.ncols))
    rng.shuffle(order)
    order = tuple(order)

    assert internal_bases(c) == reference_internal_bases(c)
    assert internal_bases(c) == defined_internal_bases(c, index_order(c))
    assert internal_bases(c, order) == reference_internal_bases(c, order)
    assert internal_bases(c, order) == defined_internal_bases(c, order)

    indeps = independents(c)
    for i_set in rng.sample(indeps, min(4, len(indeps))) + [frozenset()]:
        assert i_internal_bases(c, i_set) == reference_i_internal_bases(c, i_set)

    subsets = [frozenset(s) for k in range(c.ncols + 1) for s in itertools.combinations(range(c.ncols), k)]
    for y in subsets:
        assert passive_set(c, y) == reference_passive_set(c, y)
        assert passive_set(c, y, order) == reference_passive_set(c, y, order)

    sample = rng.sample(subsets, min(12, len(subsets)))
    for a in sample:
        for b in sample:
            assert span_le(c, a, b) == reference_span_le(c, a, b)


@pytest.mark.parametrize("k", range(len(CONFIGS)))
def test_matroid_queries_match_elimination_routes(k):
    c = CONFIGS[k]
    check_against_oracles(c, random.Random(k))


def test_inputs_cover_repeats_negations_and_sizes():
    shapes = {(c.n, c.ncols) for c in CONFIGS}
    assert {n for n, _ in shapes} == {2, 3, 4}
    assert max(N for _, N in shapes) == 8
    assert any(len(set(c.columns)) < c.ncols for c in CONFIGS)
    assert any(
        tuple(-x for x in v) in set(c.columns) for c in CONFIGS for v in c.columns
    )


@st.composite
def configs(draw):
    n = draw(st.integers(2, 4))
    entry = st.integers(-2, 2)
    cols = []
    for _ in range(draw(st.integers(1, 8 - n))):
        kind = draw(st.sampled_from(["fresh", "fresh", "repeat", "negate"]))
        if cols and kind != "fresh":
            v = draw(st.sampled_from(cols))
            cols.append(v if kind == "repeat" else tuple(-x for x in v))
        else:
            cols.append(draw(st.tuples(*[entry] * n).filter(any)))
    # unit vectors fill up the rank, so no draw is thrown away and N <= 8
    for i in range(n):
        if full_rank(cols, n):
            break
        cols.append(tuple(int(i == j) for j in range(n)))
    return Config(tuple(cols))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(configs(), st.integers(0, 2**16))
def test_matroid_queries_match_elimination_routes_hypothesis(c, seed):
    check_against_oracles(c, random.Random(seed))


# -- the table against Fraction ranks, dependent and empty sets included ------


def greedy_extend_basis(c: Config, i_set) -> frozenset:
    """i_set plus each b0 vector that raises the Fraction rank of i_set and
    the b0 vectors before it."""
    rows = subset_rows(c, i_set)
    out = set(i_set)
    for k, b in enumerate(c.b0):
        if reference_rank(rows + (b,)) > reference_rank(rows):
            out.add(c.ncols + k)
        rows += (b,)
    return frozenset(out)


@st.composite
def configs_with_b0(draw):
    c = draw(configs())
    n = c.n
    b0 = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n), min_size=n, max_size=n))
    # unit vectors replace the trailing rows until b0 is a basis
    for k in range(n + 1):
        rows = b0[: n - k] + [tuple(int(i == j) for j in range(n)) for i in range(n - k, n)]
        if full_rank(rows, n):
            return Config(c.columns, b0=tuple(rows))
    raise AssertionError("the identity is a basis")


@settings(derandomize=True, max_examples=40, deadline=None)
@given(configs_with_b0())
def test_extend_basis_matches_fraction_greedy_hypothesis(c):
    for k in range(c.ncols + 1):
        for s in map(frozenset, itertools.combinations(range(c.ncols), k)):
            if reference_rank(subset_rows(c, s)) == len(s):
                assert extend_basis(c, s) == greedy_extend_basis(c, s)
            else:
                with pytest.raises(NotIndependent):
                    extend_basis(c, s)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(configs(), st.randoms(use_true_random=False))
def test_independence_and_span_on_dependent_and_empty_sets_hypothesis(c, rng):
    subsets = [frozenset(s) for k in range(c.ncols + 1) for s in itertools.combinations(range(c.ncols), k)]
    rank = {s: reference_rank(subset_rows(c, s)) for s in subsets}
    for s in subsets:
        assert is_independent(c, s) == (rank[s] == len(s))
    dependent = [s for s in subsets if rank[s] < len(s)]
    picks = rng.sample(dependent, min(6, len(dependent))) + [frozenset()]
    others = rng.sample(subsets, min(6, len(subsets))) + [frozenset()]
    for a in picks:
        for b in others:
            assert span_le(c, a, b) == (rank[a | b] == rank[b])
            assert span_le(c, b, a) == (rank[a | b] == rank[a])


# -- activity reads no facet ---------------------------------------------------


def _r37_counts(c: Config, i_set) -> tuple:
    _, _, n_plain, n_restricted = r37_sides(c, i_set)
    return n_plain, n_restricted


def _reference_r37_counts(c: Config, i_set) -> tuple:
    order = order_with_last(c, i_set)
    return len(reference_internal_bases(c, order)), len(reference_i_internal_bases(c, i_set))


ACTIVITY_QUERIES = {
    "internal_bases": (lambda c, i: internal_bases(c), lambda c, i: reference_internal_bases(c)),
    "i_internal_bases": (i_internal_bases, reference_i_internal_bases),
    "r37_sides": (_r37_counts, _reference_r37_counts),
}


@pytest.mark.parametrize("query", list(ACTIVITY_QUERIES))
def test_activity_reads_no_facet(monkeypatch, ex25, query):
    # the references read the facet table, so they run first; then every
    # facet lookup raises, and the activity routes on fresh Configs (empty
    # tables) answer all the same
    got, ref = ACTIVITY_QUERIES[query]
    cases = []
    for c in [ex25] + CONFIGS:
        if config._coloop_mask(c):
            continue  # r37_sides needs every deletion
        for i_set in [frozenset(), *independents(c)[-3:]]:
            cases.append((Config(c.columns), i_set, ref(c, i_set)))
    assert len(cases) >= 20

    def refuse(c):
        raise AssertionError("activity read the facet table")

    monkeypatch.setattr(config, "facets", refuse)
    monkeypatch.setattr(zonotopal, "facets", refuse)
    for c, i_set, want in cases:
        assert got(c, i_set) == want


# -- one hash per Config --------------------------------------------------------


def test_int_and_fraction_configs_share_hash_and_rank_cache():
    ints = Config(((3, 7), (5, -11), (2, 9)), lam=(1, 2, 3))
    fracs = Config(
        tuple(tuple(Fraction(x) for x in v) for v in ((3, 7), (5, -11), (2, 9))),
        lam=(Fraction(1), Fraction(2), Fraction(3)),
    )
    assert ints == fracs and hash(ints) == hash(fracs)
    assert hash(ints) == hash((ints.columns, ints.b0, ints.lam, ints.lam_b0))
    cols = frozenset({0, 2})
    before = rank_of.cache_info()
    assert rank_of(ints, cols) == 2
    middle = rank_of.cache_info()
    assert rank_of(fracs, cols) == 2
    after = rank_of.cache_info()
    assert after.hits == middle.hits + 1 and after.misses == middle.misses
    assert after.currsize == middle.currsize <= before.currsize + 1


def test_derived_config_keeps_the_same_entry_objects():
    c = Config(((Fraction(1, 2), 0), (0, Fraction(3, 4))))
    again = Config(c.columns)
    assert again == c and hash(again) == hash(c)
    assert all(x is y for u, v in zip(c.columns, again.columns) for x, y in zip(u, v))


def test_configs_that_differ_only_in_offsets_are_distinct():
    a = Config(((1, 0), (0, 1)), lam=(1, 2))
    b = Config(((1, 0), (0, 1)), lam=(1, 3))
    assert a != b
    assert Config(((1, 0), (0, 1))) != a

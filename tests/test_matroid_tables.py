"""The per-configuration matroid tables against the routes they replaced.

A Config keeps its columns as integer rows (each column scaled by the lcm
of its denominators), `independents` extends the echelon of each set's
parent by one column, `facets` skips the (n-1)-sets inside a hyperplane
already found, and each Config keeps its independence table, its
fundamental cocircuits and the central spaces of its single-column
deletions in its `per_config` memo.  The oracles below are verbatim
copies of the earlier routes.  `rank_of`'s earlier body (the rank of the
chosen Fraction columns) is inlined into `reference_independents`, so no
oracle reads the integer rows.  The configurations mix denominators
within a column, so a wrong scaling changes ranks and hyperplanes.
"""

from __future__ import annotations

import gc
import random
import weakref
from dataclasses import replace
from pathlib import Path
from fractions import Fraction
from functools import reduce
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_linalg import primitive_integer, reference_nullspace as nullspace, reference_rank, subset_rows
from zonoforge import cli, config, verify, zonotopal
from zonoforge.config import (
    Config,
    Facet,
    _cocircuits,
    _mask_to_set,
    _matroid,
    facets,
    i_internal_bases,
    independents,
    internal_bases,
    is_coloop,
    per_config,
    rank_of,
)
from zonoforge.errors import RankDeficient
from zonoforge.graded import intersect
from zonoforge.zonotopal import _augment, _delete, central_space, deletion_intersection


# -- the earlier routes, verbatim ---------------------------------------------


def dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def reference_independents(c: Config) -> tuple:
    """All independent column sets, lexicographic bitmask order."""
    out = []
    indep = {0}
    for mask in range(1 << c.ncols):
        if mask:
            low = mask & -mask
            # downward closed: a set can only be independent if dropping its
            # lowest element leaves an independent set
            if (mask ^ low) not in indep:
                continue
        cols = _mask_to_set(mask)
        if reference_rank(subset_rows(c, cols)) == len(cols):
            indep.add(mask)
            out.append(cols)
    return tuple(out)


def reference_facets(c: Config) -> tuple:
    """One Facet per distinct hyperplane spanned by columns, sorted by normal."""
    seen = {}
    for sub in combinations(range(c.ncols), c.n - 1):
        rows = subset_rows(c, sub)
        if reference_rank(rows) != c.n - 1:
            continue
        normal = primitive_integer(nullspace(rows, ncols=c.n)[0])
        if normal in seen:
            continue
        members = frozenset(
            i for i in range(c.ncols) if dot(normal, c.columns[i]) == 0
        )
        seen[normal] = Facet(members, normal, c.ncols - len(members))
    return tuple(seen[k] for k in sorted(seen))


def reference_deletion_intersection(c: Config, cols):
    """Intersection of the central spaces of the deletions X - x, x in cols
    (each a non-coloop); the central space of X itself when cols is empty."""
    if not cols:
        return central_space(c)
    return reduce(intersect, (central_space(_delete(c, x)) for x in sorted(cols)))


# -- configurations -------------------------------------------------------------


def _entry(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2, 3, 4)))


def rational_config(rng: random.Random, n: int, ncols: int) -> Config:
    """Entries with mixed denominators, full rank, with repeated columns and
    rational multiples (negative ones included) of earlier columns."""
    while True:
        cols = []
        while len(cols) < ncols:
            kind = rng.random()
            if cols and kind < 0.15:
                cols.append(rng.choice(cols))
            elif cols and kind < 0.35:
                k = _entry(rng) or Fraction(-3, 2)
                cols.append(tuple(k * x for x in rng.choice(cols)))
            else:
                v = tuple(_entry(rng) for _ in range(n))
                if any(v):
                    cols.append(v)
        try:
            return Config(tuple(cols))
        except RankDeficient:
            continue


def seeded_configs() -> list:
    rng = random.Random(909)
    return [rational_config(rng, n, rng.randint(n, 7)) for n in (2, 3, 4) for _ in range(6)]


CONFIGS = seeded_configs()


def check_tables(c: Config, rng: random.Random) -> None:
    assert facets(c) == reference_facets(c)
    assert independents(c) == reference_independents(c)
    for mask in range(1 << c.ncols):
        cols = _mask_to_set(mask)
        assert rank_of(c, cols) == reference_rank(subset_rows(c, cols))
    free = [x for x in range(c.ncols) if not is_coloop(c, x)]
    choices = [frozenset(s) for k in range(len(free) + 1) for s in combinations(free, k)]
    # each deletion is asked for under several I, so the table is read
    # after it has been filled
    for i_set in rng.sample(choices, min(6, len(choices))) + [frozenset(free)]:
        assert deletion_intersection(c, i_set) == reference_deletion_intersection(c, i_set)
    check_deletions(c)


def check_deletions(c: Config) -> None:
    """Each column is a coloop exactly when the other Fraction columns lose
    rank; deleting a non-coloop gives the Config of the other columns, whose
    only table is the independence table that Config would eliminate, and
    deleting a coloop raises what that Config raises."""
    for x in range(c.ncols):
        rest = c.columns[:x] + c.columns[x + 1:]
        assert is_coloop(c, x) == (reference_rank(rest) < c.n)
        if is_coloop(c, x):
            with pytest.raises(RankDeficient) as got:
                _delete(c, x)
            with pytest.raises(RankDeficient) as ref:
                Config(rest)
            assert (got.value.rank, str(got.value)) == (ref.value.rank, str(ref.value))
            continue
        child, ref = _delete(c, x), Config(rest)
        assert child == ref and hash(child) == hash(ref) and repr(child) == repr(ref)
        assert child._ints == ref._ints
        assert set(child._tables) == {("_matroid",)} and child._products == {}
        assert child._tables[("_matroid",)] == _matroid.__wrapped__(ref)


@pytest.mark.parametrize("k", range(len(CONFIGS)))
def test_tables_match_the_earlier_routes(k):
    check_tables(CONFIGS[k], random.Random(k))


def test_inputs_cover_denominators_coloops_and_sizes():
    assert {c.n for c in CONFIGS} == {2, 3, 4}
    # a column whose entries have different denominators
    assert any(
        len({x.denominator for x in v}) > 1 for c in CONFIGS for v in c.columns
    )
    assert any(any(is_coloop(c, x) for x in range(c.ncols)) for c in CONFIGS)
    assert any(not any(is_coloop(c, x) for x in range(c.ncols)) for c in CONFIGS)
    assert any(len(set(c.columns)) < c.ncols for c in CONFIGS)


@st.composite
def configs(draw):
    n = draw(st.integers(2, 4))
    entry = st.builds(Fraction, st.integers(-2, 2), st.sampled_from((1, 2, 3, 4)))
    cols = []
    for _ in range(draw(st.integers(1, 7 - n))):
        kind = draw(st.sampled_from(["fresh", "fresh", "repeat", "scale"]))
        if cols and kind != "fresh":
            v = draw(st.sampled_from(cols))
            k = Fraction(1) if kind == "repeat" else draw(entry.filter(bool))
            cols.append(tuple(k * x for x in v))
        else:
            cols.append(draw(st.tuples(*[entry] * n).filter(any)))
    # unit vectors fill up the rank, so no draw is thrown away and N <= 7
    for i in range(n):
        if reference_rank(cols) == n:
            break
        cols.append(tuple(Fraction(int(i == j)) for j in range(n)))
    return Config(tuple(cols))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(configs(), st.integers(0, 2**16))
def test_tables_match_the_earlier_routes_hypothesis(c, seed):
    check_tables(c, random.Random(seed))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(configs(), st.data())
def test_pulled_tables_equal_eliminated_ones_hypothesis(c, data):
    # deletions, augmentations (whose copies repeat columns) and deletions
    # of an augmentation read the table a validated Config eliminates
    extra = data.draw(st.sets(st.integers(0, c.ncols - 1), max_size=3))
    aug = _augment(c, extra)
    derived = [aug] + [_delete(d, x) for d in (c, aug) for x in range(d.ncols) if not is_coloop(d, x)]
    for d in derived:
        assert d._tables[("_matroid",)] == _matroid.__wrapped__(Config(d.columns))


def test_facets_solve_one_normal_per_hyperplane(monkeypatch):
    # five columns on the plane z = 0, then e3: after the first pair every
    # pair of plane columns is skipped, and only the pairs with e3 remain,
    # so each of the six hyperplanes costs one nullspace and no rank test
    c = Config(((1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 0), (2, 1, 0), (0, 0, 1)))
    solved = []
    real = config.integer_nullspace
    monkeypatch.setattr(
        config, "integer_nullspace", lambda rows, n: solved.append(rows) or real(rows, n)
    )
    monkeypatch.setattr(config, "rank_of", None)
    assert config.facets.__wrapped__(c) == reference_facets(c)
    pairs = [(0, 1)] + [(x, 5) for x in range(5)]
    assert solved == [[c._ints[a], c._ints[b]] for a, b in pairs]


def test_integer_rows_scale_each_column_by_its_denominators():
    c = Config(((Fraction(1, 2), Fraction(1, 3)), (Fraction(-3, 4), 0), (2, 6)))
    assert c._ints == ((3, 2), (-3, 0), (2, 6))
    assert all(type(x) is int for v in c._ints for x in v)


# -- lifetime of the matroid table ----------------------------------------------

K4 = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, -1), (0, 1, -1))


def _fill(c: Config) -> None:
    internal_bases(c)
    deletion_intersection(c, range(c.ncols))


def test_filling_the_table_leaves_equality_hash_and_repr_unchanged():
    c, twin = Config(K4), Config(K4)
    before = (hash(c), repr(c))
    _fill(c)
    # per_config keys each result on (function name, *args)
    assert {("_matroid",), ("_cocircuits",)} <= set(c._tables)
    assert {("_deletion_space", x) for x in range(c.ncols)} <= set(c._tables)
    assert (hash(c), repr(c)) == before
    assert c == twin and hash(c) == hash(twin) and repr(c) == repr(twin)
    assert "_tables" not in repr(c)


def test_equal_configs_share_no_table():
    a, b = Config(K4), Config(K4)
    assert a == b and a._tables is not b._tables
    i_internal_bases(a, {0})
    assert a._tables and b._tables == {}


def test_derived_configs_start_with_only_their_pulled_table():
    # a validated copy starts empty; a deletion or augmentation starts with
    # the independence table pulled from c's, and with nothing else
    c = Config(K4, lam=(1, 2, 3, 4, 5, 6))
    _fill(c)
    assert replace(c, lam=None)._tables == {}
    assert replace(c)._tables == {}
    for child, columns in [
        (_delete(c, 0), K4[1:]),
        (_augment(c, {0, 5}), K4 + (K4[0], K4[5])),
    ]:
        assert set(child._tables) == {("_matroid",)}
        assert child._tables[("_matroid",)] == _matroid.__wrapped__(Config(columns))


def test_the_coloop_mask_is_found_once_and_deletions_validate_nothing(monkeypatch):
    # the mask is the AND of the basis masks: once the bases are known it
    # eliminates nothing, and once found it is kept; each deletion reads
    # c's stored independence table and eliminates nothing either
    c = Config(K4 + ((1, 1, 1),))
    config.bases(c)

    def refuse(*args, **kwargs):
        raise AssertionError("re-derived from the Fraction columns")

    for name in ("echelon", "_integer_row", "frac", "rank_of"):
        monkeypatch.setattr(config, name, refuse)
    assert [is_coloop(c, x) for x in range(c.ncols)] == [False] * c.ncols
    monkeypatch.setattr(config, "bases", refuse)
    monkeypatch.setattr(config, "_matroid", lambda c: c._tables[("_matroid",)])
    assert not any(is_coloop(c, x) for x in range(c.ncols))
    children = [_delete(c, x) for x in range(c.ncols)]
    monkeypatch.undo()
    for x, child in enumerate(children):
        assert child.columns == c.columns[:x] + c.columns[x + 1:]
        assert child._ints == c._ints[:x] + c._ints[x + 1:]
        assert set(child._tables) == {("_matroid",)}
        assert child._tables[("_matroid",)] == _matroid.__wrapped__(Config(child.columns))
    # the coloop mask is kept in the memo, not in an attribute of its own,
    # and the deletions stored nothing on c
    assert set(c._tables) == {("_matroid",), ("bases",), ("_coloop_mask",)}
    assert not hasattr(c, "_coloops")


def test_the_table_holds_central_space_results_not_intersections(monkeypatch):
    c = Config(K4)
    built = []
    real = zonotopal._family_short_space

    def counting(c, fam):
        built.append(c.ncols)
        return real(c, fam)

    monkeypatch.setattr(zonotopal, "_family_short_space", counting)
    deletion_intersection(c, {0, 1})
    # each deletion is built once: later meets read both from the table
    deletion_intersection(c, {1, 0})
    deletion_intersection(c, {0})
    assert len(built) == 2
    # the coloop test of each deletion builds the independence table and
    # the coloop mask; no intersection is stored
    assert set(c._tables) == {
        ("_matroid",), ("_coloop_mask",), ("_deletion_space", 0), ("_deletion_space", 1)
    }
    assert c._tables[("_deletion_space", 0)] == central_space(_delete(c, 0))
    assert _matroid(c) is c._tables[("_matroid",)]
    assert _cocircuits(c) is c._tables[("_cocircuits",)]


EXAMPLE25 = Path(__file__).resolve().parent.parent / "inputs" / "example25_first.json"


@pytest.mark.parametrize(
    "run",
    [
        lambda: verify.search_internal_extension(3, 5),
        lambda: cli.main(["matroid", "--input", str(EXAMPLE25)]),
    ],
    ids=["search-r37-3-5", "matroid-example25"],
)
def test_no_config_outlives_the_run_that_built_it(run, monkeypatch, capsys):
    # every Config, validated or derived by `_from_ints`, starts its tables;
    # no module-level cache may keep one, or its tables, alive afterwards
    refs = []
    real = Config._start_tables

    def recording(self, ints):
        refs.append(weakref.ref(self))
        real(self, ints)

    monkeypatch.setattr(Config, "_start_tables", recording)
    run()
    capsys.readouterr()
    gc.collect()
    assert refs
    assert sum(ref() is not None for ref in refs) == 0


def test_per_config_keys_on_the_function_name_and_arguments():
    calls = []

    @per_config
    def probe(c, *args):
        calls.append(args)
        return [c.ncols, *args]

    c, twin = Config(K4), Config(K4)
    first = probe(c, 1, 2)
    assert probe(c, 1, 2) is first and first == [6, 1, 2]
    assert c._tables[("probe", 1, 2)] is first
    assert probe(c, 2, 1) == [6, 2, 1] and probe(twin, 1, 2) is not first
    assert calls == [(1, 2), (2, 1), (1, 2)]
    assert probe.__name__ == "probe" and twin._tables == {("probe", 1, 2): [6, 1, 2]}



def test_matroid_queries_read_only_the_independence_table(monkeypatch):
    # once `independents` has run, the independence, span, passive-set and
    # activity queries eliminate nothing and solve for no facet, and
    # extend_basis extends an echelon without asking for a rank; the
    # answers are those of an equal Config queried before the patch
    b0 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    c, twin = Config(K4 + ((1, 1, 1),), b0=b0), Config(K4 + ((1, 1, 1),), b0=b0)
    order = (6, 0, 5, 1, 4, 2, 3)
    sets = [_mask_to_set(m) for m in range(1 << c.ncols)]

    def ask(c):
        return (
            [config.is_independent(c, s) for s in sets],
            [config.span_le(c, a, b) for a in sets[::9] for b in sets[::7]],
            [config.passive_set(c, s, order) for s in sets],
            internal_bases(c, order),
            i_internal_bases(c, {0, 6}),
            [config.extend_basis(c, s) for s in independents(c)],
        )

    want = ask(twin)
    independents(c)
    c.extended()

    def refuse(*args, **kwargs):
        raise AssertionError("a matroid query left the independence table")

    for name in ("rank_of", "facets", "integer_nullspace"):
        monkeypatch.setattr(config, name, refuse)
    assert ask(c) == want

"""The patched-extension identity against the two routes it replaced.

`internal_extension_check` and the violation re-check in `verify` both
read `r37_sides`, and every semi-internal and internal space comes from
`deletion_intersection`.  The oracles below are verbatim copies of the
earlier code, which wrote each deletion intersection out as its own loop:
the report of `internal_extension_check`, `verify._r37_spaces`, and the
all-deletions `internal_space` they both read (uncached here).
"""

from __future__ import annotations

import itertools
import random

import pytest

from test_linalg import reference_rank
from zonoforge.config import (
    Config,
    _matroid,
    bases,
    i_internal_bases,
    independents,
    internal_bases,
    is_coloop,
    is_independent,
    make_config,
    order_with_last,
    passive_set,
    subset_polynomial,
)
from zonoforge import verify
from zonoforge.errors import ColoopInI, ConsistencyError, NotIndependent, RankDeficient, ZeroColumn
from zonoforge.graded import GradedSubspace, add, hilbert_quotient, intersect, kernel
from zonoforge.verify import _confirm_violation
from zonoforge.zonotopal import (
    _delete,
    central_space,
    deletion_intersection,
    internal_extension_check,
    internal_space,
    r37_sides,
    semi_internal_i_gens,
    stabilization_cap,
)


# -- the earlier routes, verbatim ---------------------------------------------


def reference_internal_space(c: Config) -> GradedSubspace:
    """Intersection of the deletion central spaces over every single column.

    Only defined when no column is a coloop (every deletion keeps full rank);
    callers check that before calling.
    """
    space = None
    for x in range(c.ncols):
        piece = central_space(_delete(c, x))
        space = piece if space is None else intersect(space, piece)
    return space


def reference_internal_extension_check(c: Config, i_set) -> dict:
    """Compare the deletion-intersection space against the all-deletions space
    patched by the extra passive-set products.

    For #i_set <= 2 the equality is a certified statement; for larger sets it
    is exploratory (the report carries the verdict either way).
    """
    i_set = frozenset(i_set)
    if not is_independent(c, i_set):
        raise NotIndependent(i_set)
    for b in sorted(i_set):
        if is_coloop(c, b):
            raise ColoopInI(b)
    report = {
        "i": sorted(i_set),
        "size": len(i_set),
        "mode": "assert" if len(i_set) <= 2 else "explore",
    }
    if any(is_coloop(c, x) for x in range(c.ncols)):
        report["skipped"] = (
            "configuration has a coloop; the all-deletions intersection is undefined"
        )
        return report

    order = order_with_last(c, i_set)
    b_plain = internal_bases(c, order=order)
    b_rel = i_internal_bases(c, i_set)

    if i_set:
        lhs = None
        for b in sorted(i_set):
            piece = central_space(_delete(c, b))
            lhs = piece if lhs is None else intersect(lhs, piece)
    else:
        lhs = central_space(c)

    p_minus = reference_internal_space(c)

    plain_set = set(b_plain)
    extra = [
        subset_polynomial(c, passive_set(c, b, order))
        for b in b_rel
        if b not in plain_set
    ]
    rhs = add(p_minus, GradedSubspace.from_spanning(c.n, extra))

    report.update(
        {
            "equal": lhs == rhs,
            "lhs_hilbert": list(lhs.hilbert()),
            "rhs_hilbert": list(rhs.hilbert()),
            "restricted_bases": len(b_rel),
            "plain_bases": len(b_plain),
        }
    )
    return report


def reference_r37_spaces(c: Config, i_set):
    """Both sides of the patched-extension identity, computed from scratch."""
    lhs = None
    for b in sorted(i_set):
        piece = central_space(_delete(c, b))
        lhs = piece if lhs is None else intersect(lhs, piece)
    if lhs is None:
        lhs = central_space(c)

    order = order_with_last(c, i_set)
    plain = set(internal_bases(c, order=order))
    extra = [
        subset_polynomial(c, passive_set(c, b, order))
        for b in i_internal_bases(c, i_set)
        if b not in plain
    ]
    rhs = add(reference_internal_space(c), GradedSubspace.from_spanning(c.n, extra))
    return lhs, rhs


# -- seeded n = 3 configurations ----------------------------------------------


def _draw_config(seed: int) -> Config:
    """n = 3, 3 to 6 columns, entries in 0..1 or -1..1, often a repeated column."""
    rng = random.Random(seed)
    entries = (0, 1) if seed % 2 else (-1, 0, 1)
    while True:
        ncols = rng.randint(3, 6)
        cols = [[rng.choice(entries) for _ in range(3)] for _ in range(ncols)]
        if ncols > 3 and rng.random() < 0.6:
            cols[-1] = list(rng.choice(cols[:-1]))
        try:
            return make_config([list(row) for row in zip(*cols)])
        except (RankDeficient, ZeroColumn):
            continue


def _small_i_sets(c: Config):
    return [s for s in independents(c) if len(s) <= 3]


def _outcome(fn, c, i_set):
    try:
        return fn(c, i_set)
    except (NotIndependent, ColoopInI) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("seed", range(16))
def test_report_matches_the_earlier_route(seed):
    # independent sets (coloop members refused), then dependent pairs
    c = _draw_config(seed)
    pairs = [frozenset(s) for s in itertools.combinations(range(c.ncols), 2)]
    for i_set in _small_i_sets(c) + [s for s in pairs if not is_independent(c, s)]:
        assert _outcome(internal_extension_check, c, i_set) == _outcome(
            reference_internal_extension_check, c, i_set
        )


@pytest.mark.parametrize("seed", range(16))
def test_r37_sides_match_the_earlier_spaces(seed):
    c = _draw_config(seed)
    if any(is_coloop(c, x) for x in range(c.ncols)):
        # the all-deletions intersection is undefined; the check says so
        assert "skipped" in internal_extension_check(c, frozenset())
        return
    assert internal_space(c) == reference_internal_space(c)
    for i_set in _small_i_sets(c):
        lhs, rhs, _, _ = r37_sides(c, i_set)
        assert (lhs, rhs) == reference_r37_spaces(c, i_set)
        assert deletion_intersection(c, i_set) == lhs


def test_the_seeds_cover_coloops_repeats_and_every_i_size():
    configs = [_draw_config(seed) for seed in range(16)]
    coloop_free = [c for c in configs if not any(is_coloop(c, x) for x in range(c.ncols))]
    assert 0 < len(coloop_free) < len(configs)
    assert any(len(set(c.columns)) < c.ncols for c in coloop_free)
    assert any(any(x < 0 for v in c.columns for x in v) for c in coloop_free)
    sizes = {len(s) for c in coloop_free for s in _small_i_sets(c)}
    assert sizes == {0, 1, 2, 3}


def test_deletion_intersection_of_no_columns_is_the_central_space(ex25):
    assert deletion_intersection(ex25, ()) == central_space(ex25)
    assert deletion_intersection(ex25, frozenset()) == central_space(ex25)


# -- the violation re-check ----------------------------------------------------


def _window_configs() -> list:
    """Every coloop-free configuration of the search-r37 3/5 window (0/1
    columns, n = 3, three to five columns), built and validated by Config,
    in the search's enumeration order."""
    pool = [v for v in itertools.product((0, 1), repeat=3) if any(v)]
    found = []
    for ncols in range(3, 6):
        for cols in itertools.combinations_with_replacement(pool, ncols):
            try:
                c = Config(cols)
            except RankDeficient:
                continue
            if not any(is_coloop(c, x) for x in range(c.ncols)):
                found.append(c)
    return found


def _window_triples(step: int = 3):
    """Every step-th coloop-free five-column configuration of the 3/5
    window with its independent triples."""
    return [
        (c, frozenset(tri))
        for c in [c for c in _window_configs() if c.ncols == 5][::step]
        for tri in itertools.combinations(range(c.ncols), 3)
        if is_independent(c, tri)
    ]


def test_the_violation_recheck_agrees_with_the_kernel_on_the_window():
    triples = _window_triples()
    assert len({c for c, _ in triples}) >= 20
    for c, i_set in triples:
        lhs, rhs, _, _ = r37_sides(c, i_set)
        assert _confirm_violation(c, i_set, lhs, rhs) is False
        gens = semi_internal_i_gens(c, i_set)
        dmax = max(lhs.top_degree(), rhs.top_degree(), len(hilbert_quotient(gens, cap=stabilization_cap(c))))
        assert kernel(gens, dmax) == lhs == rhs


def test_the_violation_recheck_names_a_disagreement(monkeypatch):
    c, i_set = _window_triples()[0]
    monkeypatch.setattr(verify, "kernel", lambda gens, dmax: GradedSubspace.zero(gens.nvars))
    with pytest.raises(ConsistencyError) as info:
        _confirm_violation(c, i_set, *r37_sides(c, i_set)[:2])
    text = str(info.value)
    assert "deletion-intersection space and power-ideal kernel disagree" in text
    assert str([list(map(str, v)) for v in c.columns]) in text
    assert f"i={sorted(i_set)}" in text


# -- the search's own configurations and checks ----------------------------------


def test_the_search_builds_and_checks_what_config_and_the_report_would(monkeypatch):
    # the search validates the pool of nonzero 0/1 vectors, derives each
    # examined configuration from it by `_derive` and checks each triple by
    # `r37_sides`; on the whole 3/5 window all agree with a validated
    # Config and with `internal_extension_check`
    validated, derived, verdicts = [], [], []
    real_validate, real_derive, real_sides = Config.__post_init__, verify._derive, verify.r37_sides

    def validate(self):
        real_validate(self)
        validated.append(self)

    def derive(ground, picks):
        c = real_derive(ground, picks)
        derived.append((ground, c, dict(c._tables)))
        return c

    def sides(c, i_set):
        out = real_sides(c, i_set)
        verdicts.append((c, i_set, out[0] == out[1]))
        return out

    monkeypatch.setattr(Config, "__post_init__", validate)
    monkeypatch.setattr(verify, "_derive", derive)
    monkeypatch.setattr(verify, "r37_sides", sides)
    report = verify.search_internal_extension(3, 5)
    monkeypatch.undo()
    (pool,) = validated
    assert pool == Config(tuple(v for v in itertools.product((0, 1), repeat=3) if any(v)))
    assert pool._tables == {("_matroid",): _matroid.__wrapped__(pool)}
    assert all(ground is pool for ground, _, _ in derived)
    built = [c for _, c, _ in derived]
    want = _window_configs()
    assert len(built) == len(want) == report["configs_examined"] == 100
    for (_, c, tables), ref in zip(derived, want):
        assert c == ref and hash(c) == hash(ref) and c._ints == ref._ints
        # when derived, the table is the examined configuration's only entry
        assert tables == {("_matroid",): _matroid.__wrapped__(ref)}
        assert (independents(c), bases(c)) == (independents(ref), bases(ref))
    assert len(verdicts) == report["triples_checked"] == 670
    expected = [
        (c, frozenset(tri))
        for c in built
        for tri in itertools.combinations(range(c.ncols), 3)
        if is_independent(c, tri)
    ]
    assert [(c, i_set) for c, i_set, _ in verdicts] == expected
    for c, i_set, equal in verdicts:
        assert equal == internal_extension_check(Config(c.columns), i_set)["equal"]


def test_the_search_validates_no_examined_configuration(monkeypatch):
    # the search validates one Config, the pool of nonzero 0/1 vectors, and
    # derives every examined configuration from it: no other validation and
    # no other Fraction pass in config.  The pool's validation is one rank
    # echelon of its 7 columns; its independence table is then the window's
    # only one that eliminates: its one-column extensions are every other
    # elimination, and the rank and coloop skips, every examined
    # configuration and every deletion read its masks
    from zonoforge import config

    validated, active = [], [False]
    real_validate = Config.__post_init__

    def validate(self):
        validated.append(self.columns)
        active[0] = True
        real_validate(self)
        active[0] = False

    def outside_validation(real):
        def guarded(*args):
            if not active[0]:
                raise AssertionError("an examined configuration was validated again")
            return real(*args)
        return guarded

    for name in ("frac", "_integer_row"):
        monkeypatch.setattr(config, name, outside_validation(getattr(config, name)))
    monkeypatch.setattr(Config, "__post_init__", validate)
    extensions = []
    real_extend = config.echelon

    def extend(rows, ncols, *start):
        extensions.append((len(rows), len(start)))
        return real_extend(rows, ncols, *start)

    monkeypatch.setattr(config, "echelon", extend)
    report = verify.search_internal_extension(3, 5)
    enumerated = report["configs_examined"] + report["configs_skipped_rank"] + report["configs_skipped_coloop"]
    assert enumerated == 756 and not hasattr(verify, "echelon")
    assert validated == [tuple(v for v in itertools.product((0, 1), repeat=3) if any(v))]
    # the 7-vector pool has 63 candidate masks past the empty one
    assert extensions == [(7, 0)] + [(1, 1)] * 63


def test_pulled_tables_equal_eliminated_ones_on_the_window(monkeypatch):
    # every configuration the 3/5 window examines, and every deletion of
    # each, reads the independence table a validated Config eliminates
    built = []
    real_derive = verify._derive
    monkeypatch.setattr(verify, "_derive", lambda ground, picks: built.append(real_derive(ground, picks)) or built[-1])
    verify.search_internal_extension(3, 5)
    assert len(built) == 100
    deletions = 0
    for c in built:
        assert c._tables[("_matroid",)] == _matroid.__wrapped__(Config(c.columns))
        for x in range(c.ncols):
            child = _delete(c, x)
            assert child._tables[("_matroid",)] == _matroid.__wrapped__(Config(child.columns))
            deletions += 1
    assert deletions == sum(c.ncols for c in built) == 489


def test_the_skips_read_the_ranks_of_the_columns_and_of_each_deletion(monkeypatch):
    # on the whole 3/6 window, a column tuple is skipped for rank exactly
    # when its Fraction columns do not span, for a coloop exactly when they
    # span and some single deletion does not, and examined otherwise
    pool = [v for v in itertools.product((0, 1), repeat=3) if any(v)]
    rank: dict = {}

    def spans(cols):
        if cols not in rank:
            rank[cols] = reference_rank(cols)
        return rank[cols] == 3

    want = {"rank": 0, "coloop": 0, "examined": []}
    for ncols in range(3, 7):
        for picks in itertools.combinations_with_replacement(range(len(pool)), ncols):
            cols = tuple(pool[p] for p in picks)
            if not spans(cols):
                want["rank"] += 1
            elif not all(spans(cols[:j] + cols[j + 1:]) for j in range(ncols)):
                want["coloop"] += 1
            else:
                want["examined"].append(picks)
    examined = []
    real_derive = verify._derive

    def derive(ground, picks):
        examined.append(tuple(picks))
        return real_derive(ground, picks)

    monkeypatch.setattr(verify, "_derive", derive)
    # the triples are not what this test checks
    monkeypatch.setattr(verify, "is_independent", lambda c, i_set: False)
    report = verify.search_internal_extension(3, 6)
    assert (report["configs_skipped_rank"], report["configs_skipped_coloop"]) == (want["rank"], want["coloop"])
    assert examined == want["examined"]
    assert (want["rank"], want["coloop"], len(examined)) == (442, 791, 447)


def test_the_n4_window_reads_the_15_vector_pool(monkeypatch):
    # the one window that builds the n = 4 pool's table, 32,768 masks
    monkeypatch.setattr(verify, "SEARCH_MAX_N", 4)
    report = verify.search_internal_extension(4, 5)
    assert (report["configs_examined"], report["triples_checked"], report["violations"]) == (588, 5550, [])


def test_the_search_rechecks_exactly_the_unequal_triples(monkeypatch):
    # a triple whose sides differ goes to the kernel re-check, and a
    # confirmed one is reported; equal ones never reach the re-check
    real_sides = verify.r37_sides
    altered, rechecked = [], []

    def sides(c, i_set):
        lhs, rhs, n_plain, n_restricted = real_sides(c, i_set)
        if not altered:  # the first triple's sides are made to differ
            altered.append((c, i_set))
            rhs = GradedSubspace.zero(c.n)
        return lhs, rhs, n_plain, n_restricted

    def recheck(c, i_set, lhs, rhs):
        # the search hands over the sides it has just compared
        assert (lhs, rhs) == (real_sides(c, i_set)[0], GradedSubspace.zero(c.n))
        rechecked.append((c, i_set))
        return True

    monkeypatch.setattr(verify, "r37_sides", sides)
    monkeypatch.setattr(verify, "_confirm_violation", recheck)
    report = verify.search_internal_extension(3, 4)
    assert rechecked == altered
    (c, i_set), = rechecked
    (hit,) = report["violations"]
    assert hit["i"] == sorted(i_set) and hit["reverified"] is True
    assert hit["matrix"] == [[int(col[i]) for col in c.columns] for i in range(c.n)]


# -- the n = 4, N = 7 counterexample --------------------------------------------

# columns e4, e4, e3, e2, e2 + e3, e1, e1 + e2 with I = {2, 3, 5}: the first
# configuration, in enumeration order, whose |I| = 3 identity fails
COUNTEREXAMPLE = [[0, 0, 0, 0, 0, 1, 1], [0, 0, 0, 1, 1, 0, 1], [0, 0, 1, 0, 1, 0, 0], [1, 1, 0, 0, 0, 0, 0]]


def test_the_n4_counterexample_is_a_confirmed_inequality():
    # the only input whose verdict is false: a shortcut that turned a real
    # violation into an equality would fail here
    i_set = frozenset({2, 3, 5})
    # the reference first, on its own Config: central spaces are memoized
    # per Config, so the second, fresh one reads none of the reference's
    want = reference_r37_spaces(make_config(COUNTEREXAMPLE), i_set)
    c = make_config(COUNTEREXAMPLE)
    assert c._tables == {}
    report = internal_extension_check(c, i_set)
    assert (report["mode"], report["equal"]) == ("explore", False)
    assert report["lhs_hilbert"] == report["rhs_hilbert"] == [1, 2, 1]
    lhs, rhs, _, _ = r37_sides(c, i_set)
    assert lhs != rhs
    assert (lhs, rhs) == want
    assert _confirm_violation(c, i_set, lhs, rhs) is True

"""The theorem-token layer: report envelopes, preconditions, the search."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from zonoforge import verify
from zonoforge.cli import parse_document
from zonoforge.config import Config, make_config, passive_set
from zonoforge.errors import InputError
from zonoforge.verify import THEOREMS, _reorder_row, run_theorem, search_internal_extension
from zonoforge.zonotopal import central, external

INPUTS = Path(__file__).resolve().parent.parent / "inputs"
K4 = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, -1), (0, 1, -1))


def test_token_list_is_fixed():
    assert THEOREMS == (
        "th1",
        "exzono",
        "pi",
        "plus",
        "basis",
        "explus",
        "t26",
        "t28",
        "t33",
        "t34",
        "r37",
    )


def test_unknown_token_rejected(ex25):
    with pytest.raises(InputError):
        run_theorem("t99", ex25)


def test_family_tokens_need_a_family(ex25):
    for token in ("t26", "t28"):
        with pytest.raises(InputError):
            run_theorem(token, ex25)


def test_index_tokens_need_i(ex25):
    for token in ("t33", "t34", "r37"):
        with pytest.raises(InputError):
            run_theorem(token, ex25)


def test_every_token_passes_on_the_example(ex25, fam1):
    for token in THEOREMS:
        rep = run_theorem(token, ex25, fam=fam1, i_set=[3])
        assert rep["theorem"] == token
        assert rep["passed"], token
        assert all("check" in row and "passed" in row for row in rep["checks"])


def test_th1_rows(ex25):
    rep = run_theorem("th1", ex25)
    rows = rep["checks"]
    assert [(r["codim"], r["count"]) for r in rows] == [(4, 4), (15, 15), (1, 1)]


def test_pi_on_a_single_vertex(identity2):
    # one basis, one vertex: the least space is the constants
    rep = run_theorem("pi", identity2)
    assert rep["passed"]


def test_t34_empty_i_uses_all_bases(ex25):
    rep = run_theorem("t34", ex25, i_set=[])
    assert rep["passed"]


def test_t28_reports_but_does_not_assert_the_condition(ex25, fam1, fam2):
    rep = run_theorem("t28", ex25, fam=fam1)
    assert rep["passed"]
    status = rep["checks"][0]
    assert status["holds"] is False
    assert status["witness"] == [0]
    assert len(rep["checks"]) == 2  # containment only

    rep = run_theorem("t28", ex25, fam=fam2)
    assert rep["passed"]
    assert rep["checks"][0]["holds"] is True
    assert len(rep["checks"]) == 3  # equality and decomposition


def test_r37_assert_mode(ex25):
    rep = run_theorem("r37", ex25, i_set=[3])
    assert rep["passed"]
    row = rep["checks"][0]
    assert row["mode"] == "assert" and row["equal"]


def test_r37_skips_coloop_configurations(repeated):
    rep = run_theorem("r37", repeated, i_set=[0])
    assert rep["passed"]
    assert "skipped" in rep["checks"][0]


def test_seeded_tokens_are_stable(ex25):
    a = run_theorem("basis", ex25, seed=5)
    b = run_theorem("basis", ex25, seed=5)
    assert a == b


def test_search_bounds_guard():
    with pytest.raises(InputError):
        search_internal_extension(4, 5)
    with pytest.raises(InputError):
        search_internal_extension(3, 7)


def test_search_small_window():
    rep = search_internal_extension(3, 4)
    assert rep["bounds"] == {"max_n": 3, "max_cols": 4}
    assert rep["configs_examined"] > 0
    assert rep["triples_checked"] > 0
    assert rep["violations"] == []
    assert "note" in rep


@pytest.mark.parametrize(
    "window,counts",
    [((3, 5), (100, 270, 386, 670)), ((3, 6), (447, 442, 791, 4578))],
)
def test_search_counts_are_pinned(window, counts):
    # every enumerated configuration is examined or skipped once, and the
    # examined ones carry the independent triples; no violation in either
    rep = search_internal_extension(*window)
    keys = ("configs_examined", "configs_skipped_rank", "configs_skipped_coloop", "triples_checked")
    assert tuple(rep[k] for k in keys) == counts
    assert rep["violations"] == []


def test_search_below_threshold_is_empty():
    # no independent triple exists in the plane, and with N = n every
    # column is a coloop: such a window would examine nothing, so it is
    # refused rather than reported as passed
    for max_n, max_cols in ((2, 4), (3, 3), (-1, 4), (3, -1)):
        with pytest.raises(InputError, match="empty search window"):
            search_internal_extension(max_n, max_cols)


def _unit(n: int) -> tuple:
    return tuple(tuple(int(i == j) for i in range(n)) for j in range(n))


def _reorder_configs() -> list:
    """The six shipped documents, K4, and seeded configurations with a
    repeated and a negated column, each with a b0."""
    out = [parse_document(json.loads(p.read_text()))[0] for p in sorted(INPUTS.glob("*.json"))]
    out.append(Config(K4, b0=_unit(3)))
    rng = random.Random(2211)
    while len(out) < 13:
        n = rng.choice([2, 3])
        cols = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n)]
        cols = [v for v in cols if any(v)]
        cols += [cols[0], tuple(-x for x in cols[-1])] if cols else []
        rng.shuffle(cols)
        try:
            out.append(Config(tuple(cols), b0=_unit(n)))
        except InputError:  # rank deficient: draw again
            continue
    return out


@pytest.mark.parametrize("build", [central, external], ids=["basis", "explus"])
def test_reorder_row_matches_the_permuted_configuration(build, monkeypatch):
    """The span of the passive-set products in a seeded order on X equals
    the primal space of the permuted configuration, whose power ideal is
    the same set of generators; the row reads as the old row did."""
    spans = []

    def recording_span(c, masks):
        spans.append(real_span(c, masks))
        return spans[-1]

    real_span = verify._span
    monkeypatch.setattr(verify, "_span", recording_span)
    configs = _reorder_configs()
    for c in configs:
        b = build(c)
        for seed in range(3):
            row = _reorder_row(b, seed)
            perm = row["permutation"]
            permuted = build(Config(tuple(c.columns[j] for j in perm), b0=c.b0))
            assert spans[-1] == permuted.p_space == b.p_space
            assert permuted.i_ideal == b.i_ideal
            assert row == {
                "check": "primal space is invariant under column reordering",
                "passed": True,
                "lhs_hilbert": list(permuted.p_space.hilbert()),
                "rhs_hilbert": list(b.p_space.hilbert()),
                "permutation": perm,
            }
    assert len(spans) == 3 * len(configs)


def test_a_wrong_passive_set_fails_the_reorder_row(ex25, monkeypatch):
    # the bundles read config.passive_set and build as before; only the
    # row's own route sees the empty passive sets
    monkeypatch.setattr(verify, "passive_set", lambda c, y, order=None: frozenset())
    for token in ("basis", "explus"):
        rep = run_theorem(token, ex25, seed=3)
        failed = [r["check"] for r in rep["checks"] if not r["passed"]]
        assert failed == ["primal space is invariant under column reordering"], token
        row = rep["checks"][-1]
        assert row["lhs_hilbert"] == [1] and row["rhs_hilbert"] != [1]


def test_a_wrong_rank_count_fails_only_the_valuation_row(ex25, monkeypatch):
    # the generator degrees come from the independence table and the count
    # from ranks; a count off by one for a single basis is seen by that row
    real = verify._valuation_by_ranks
    first = central(ex25).q_basis[0][0]
    monkeypatch.setattr(
        verify, "_valuation_by_ranks", lambda c, cols: real(c, cols) + (cols == first)
    )
    rep = run_theorem("basis", ex25, seed=3)
    failed = [r["check"] for r in rep["checks"] if not r["passed"]]
    assert failed == ["generator degree equals the basis valuation"]


def test_the_rank_count_is_the_valuation(ex25):
    # every subset of the columns, against the table's passive sets, with
    # rank_of entered on each count
    before = verify.rank_of.cache_info()
    for mask in range(1 << ex25.ncols):
        cols = frozenset(j for j in range(ex25.ncols) if mask >> j & 1)
        assert verify._valuation_by_ranks(ex25, cols) == len(passive_set(ex25, cols))
    after = verify.rank_of.cache_info()
    assert after.hits + after.misses > before.hits + before.misses


@pytest.mark.parametrize("token,built", [("basis", 0), ("explus", 1)])
def test_reorder_builds_no_permuted_configuration(token, built, monkeypatch):
    # a fresh configuration, so its X u B0 is not yet in its table
    c = make_config([[1, 0, 0, 1, 1], [0, 1, 0, 1, 0], [0, 0, 1, 1, 1]], b0_rows=[[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    # every Config, validated or derived by `_from_ints`, starts its tables
    real = Config._start_tables
    calls = []

    def counting(self, ints):
        calls.append(self.columns)
        real(self, ints)

    monkeypatch.setattr(Config, "_start_tables", counting)
    assert run_theorem(token, c, seed=7)["passed"]
    assert len(calls) == built

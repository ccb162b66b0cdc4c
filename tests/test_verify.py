"""The theorem-token layer: report envelopes, preconditions, the search."""

from __future__ import annotations

import pytest

from zonoforge.errors import InputError
from zonoforge.verify import THEOREMS, run_theorem, search_internal_extension


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


def test_search_below_threshold_is_empty():
    # no independent triple exists in the plane, and with N = n every
    # column is a coloop: such a window would examine nothing, so it is
    # refused rather than reported as passed
    for max_n, max_cols in ((2, 4), (3, 3), (-1, 4), (3, -1)):
        with pytest.raises(InputError, match="empty search window"):
            search_internal_extension(max_n, max_cols)

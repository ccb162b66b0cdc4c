"""The command line as a process: one row per (argv, document, exit code,
report facts), each run as `python -m zonoforge` in a fresh interpreter.

A row's document, when it has one, is written to a file and passed as
`--input`.  A row that reads the report also passes `--output` and checks
that the report passed and that `read(report)` equals `want`.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from test_cli import ROOT, _src_env

CONFIG_5X8 = {
    "matrix": [[0, 0, 1, 0, 0, 1, 1, 0], [0, 1, 1, 1, 1, 1, 0, 1], [1, 1, 1, 0, 0, 1, 0, 1], [1, 0, 0, 0, 1, 1, 0, 1], [0, 0, 0, 0, 1, 0, 1, 1]],
    "b0": [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]],
}
EXTERNAL_5X8 = [1, 5, 15, 35, 61, 55, 28, 8, 1]
SEMI_EXTERNAL_5X8 = [1, 5, 15, 28, 16, 6, 1]  # iprime [[0, 1]]
SEARCH_KEYS = ("configs_examined", "configs_skipped_rank", "configs_skipped_coloop", "triples_checked")
R37_KEYS = ("mode", "equal", "lhs_hilbert", "rhs_hilbert")
MATROID_KEYS = ("bases", "independents", "internal_bases", "i_internal_bases")
REORDER_ROW = "primal space is invariant under column reordering"


def _search_facts(report):
    result = report["result"]
    return {k: result[k] for k in SEARCH_KEYS}, result["violations"]


def _r37_facts(report):
    # a list, so a second check row would fail the comparison
    return [{k: row[k] for k in R37_KEYS} for row in report["result"]["checks"]]


def _reorder_facts(report):
    rows = {row["check"]: row for row in report["result"]["checks"]}
    row = rows[REORDER_ROW]
    return row["lhs_hilbert"], row["rhs_hilbert"]


def _kernel_facts(report):
    # each row that compares a space with a power- or cover-ideal kernel
    rows = [row for row in report["result"]["checks"] if row["check"].endswith("-ideal kernel")]
    return [(row["lhs_hilbert"], row["rhs_hilbert"]) for row in rows]


def _matroid_facts(report):
    result = report["result"]
    return {k: len(result[k]) for k in MATROID_KEYS}, result["valuation_histogram"]


# (id, argv, document: None, a path under the repo or a JSON object,
#  exit code, read: None or report -> facts, want)
ROWS = [
    ("help", ["--help"], None, 0, None, None),
    ("version", ["--version"], None, 0, None, None),
    ("dmax-negative", ["verify", "--theorem", "pi", "--dmax", "-1"], "inputs/triangle.json", 2, None, None),
    # the search reads no document, so it takes no --input
    ("search-r37-input", ["search-r37"], "inputs/triangle.json", 2, None, None),
    (
        "doubled-column",
        ["verify", "--theorem", "pi"],
        {"matrix": [["1", "1", "0"], ["0", "0", "1"]], "lambda": ["1", "1", None]},
        2,
        None,
        None,
    ),
    (
        "search-r37-3-6",
        ["search-r37", "--max-n", "3", "--max-cols", "6"],
        None,
        0,
        _search_facts,
        (
            {"configs_examined": 447, "configs_skipped_rank": 442, "configs_skipped_coloop": 791, "triples_checked": 4578},
            [],
        ),
    ),
    (
        "r37-4x7-counterexample",
        ["verify", "--theorem", "r37"],
        {"matrix": [[0, 0, 0, 0, 0, 1, 1], [0, 0, 0, 1, 1, 0, 1], [0, 0, 1, 0, 1, 0, 0], [1, 1, 0, 0, 0, 0, 0]], "i": [2, 3, 5]},
        0,
        _r37_facts,
        [{"mode": "explore", "equal": False, "lhs_hilbert": [1, 2, 1], "rhs_hilbert": [1, 2, 1]}],
    ),
    (
        "external-5x8",
        ["space", "--kind", "external"],
        CONFIG_5X8,
        0,
        lambda report: report["result"]["hilbert"],
        {"valuation": EXTERNAL_5X8, "quotient": EXTERNAL_5X8, "space": EXTERNAL_5X8},
    ),
    (
        "plus-5x8",
        ["verify", "--theorem", "plus"],
        CONFIG_5X8,
        0,
        _kernel_facts,
        [(EXTERNAL_5X8, EXTERNAL_5X8)],
    ),
    (
        "t26-5x8",
        ["verify", "--theorem", "t26"],
        {**CONFIG_5X8, "iprime": [[0, 1]]},
        0,
        _kernel_facts,
        [(SEMI_EXTERNAL_5X8, SEMI_EXTERNAL_5X8)] * 2,
    ),
    (
        "basis-5x8-reorder",
        ["verify", "--theorem", "basis"],
        CONFIG_5X8,
        0,
        _reorder_facts,
        ([1, 5, 15, 26], [1, 5, 15, 26]),
    ),
    (
        "matroid-5x8",
        ["matroid"],
        {**CONFIG_5X8, "i": [7]},
        0,
        _matroid_facts,
        (
            {"bases": 47, "independents": 209, "internal_bases": 13, "i_internal_bases": 19},
            {"bases": [1, 5, 15, 26], "independents": EXTERNAL_5X8},
        ),
    ),
]


@pytest.mark.parametrize("argv,document,code,read,want", [row[1:] for row in ROWS], ids=[row[0] for row in ROWS])
def test_process(argv, document, code, read, want, tmp_path):
    argv = list(argv)
    if isinstance(document, str):
        argv += ["--input", str(ROOT / document)]
    elif document is not None:
        doc = tmp_path / "document.json"
        doc.write_text(json.dumps(document), encoding="utf-8")
        argv += ["--input", str(doc)]
    out = tmp_path / "report.json"
    if read is not None:
        argv += ["--output", str(out)]
    proc = subprocess.run(
        [sys.executable, "-m", "zonoforge", *argv],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=_src_env(),
    )
    assert proc.returncode == code, proc.stderr
    if read is not None:
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["passed"] is True, report["passed"]
        assert read(report) == want

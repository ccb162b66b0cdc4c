"""Command-line surface: parsing, reports, goldens, exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from zonoforge import __version__, config, graded, linalg, zonotopal
from zonoforge.cli import USAGE, _dumps, _parse_argv, main, parse_document
from zonoforge.errors import InputError
from zonoforge.poly import HPoly
from zonoforge.verify import THEOREMS

ROOT = Path(__file__).resolve().parent.parent
INPUTS = ROOT / "inputs"
GOLDEN = Path(__file__).resolve().parent / "golden"
KINDS = ("central", "external", "semi_external", "semi_internal")


def write_doc(tmp_path, payload):
    p = tmp_path / "doc.json"
    p.write_text(json.dumps(payload), encoding="utf-8")
    return str(p)


# -- document parsing ----------------------------------------------------------


def test_parse_document_rejects_unknown_fields():
    with pytest.raises(InputError, match="unknown document fields"):
        parse_document({"matrix": [[1, 0], [0, 1]], "bogus": 1})


def test_parse_document_requires_matrix():
    with pytest.raises(InputError, match="matrix"):
        parse_document({})


def test_parse_document_names_the_bad_entry():
    with pytest.raises(InputError, match=r"matrix\[0\]\[1\]"):
        parse_document({"matrix": [["1", "1/0"], ["0", "1"]]})


def test_parse_document_rejects_floats_and_bools():
    with pytest.raises(InputError):
        parse_document({"matrix": [[1.5, 0], [0, 1]]})
    with pytest.raises(InputError):
        parse_document({"matrix": [[True, 0], [0, 1]]})


def test_parse_document_rejects_ragged_matrix():
    with pytest.raises(InputError):
        parse_document({"matrix": [[1, 0], [0]]})


def test_parse_document_checks_index_ranges():
    with pytest.raises(InputError, match="out of range"):
        parse_document({"matrix": [[1, 0], [0, 1]], "i": [5]})
    with pytest.raises(InputError, match="iprime"):
        parse_document({"matrix": [[1, 0], [0, 1]], "iprime": [[0], [7]]})


def test_parse_document_seed_must_be_int():
    with pytest.raises(InputError, match="seed"):
        parse_document({"matrix": [[1, 0], [0, 1]], "seed": "7"})
    with pytest.raises(InputError, match="seed"):
        parse_document({"matrix": [[1, 0], [0, 1]], "seed": True})


def test_parse_document_lambda_holes_allowed():
    c, meta = parse_document(
        {"matrix": [[1, 0], [0, 1]], "lambda": ["3", None], "seed": 2}
    )
    assert c.lam[0] == 3 and c.lam[1] is None
    assert meta["seed"] == 2


def test_parse_document_iprime_closed_must_be_bool():
    with pytest.raises(InputError, match="iprime_closed"):
        parse_document({"matrix": [[1, 0], [0, 1]], "iprime_closed": 1})


# -- argv grammar ----------------------------------------------------------------

# one line of each synopsis shape and the attributes main reads from it
SHAPES = [
    (["matroid", "--input", "D"], {"input": "D", "output": None, "seed": None}),
    (
        ["matroid", "--input", "D", "--seed", "5", "--output", "F"],
        {"input": "D", "output": "F", "seed": 5},
    ),
    (
        ["space", "--input", "D", "--kind", "central"],
        {"input": "D", "output": None, "seed": None, "kind": "central", "dmax": None},
    ),
    (
        ["space", "--kind", "semi_internal", "--dmax", "0", "--seed", "-4", "--input", "D", "--output", "F"],
        {"input": "D", "output": "F", "seed": -4, "kind": "semi_internal", "dmax": 0},
    ),
    (
        ["verify", "--input", "D", "--theorem", "t28"],
        {"input": "D", "output": None, "seed": None, "theorem": "t28", "dmax": None},
    ),
    (
        ["verify", "--theorem", "pi", "--dmax", "3", "--seed", "2", "--input", "D", "--output", "F"],
        {"input": "D", "output": "F", "seed": 2, "theorem": "pi", "dmax": 3},
    ),
    (["search-r37"], {"output": None, "max_n": 3, "max_cols": 4}),
    (
        ["search-r37", "--max-n", "3", "--max-cols", "6", "--output", "F"],
        {"output": "F", "max_n": 3, "max_cols": 6},
    ),
]


@pytest.mark.parametrize("argv,expected", SHAPES, ids=[" ".join(a) for a, _ in SHAPES])
def test_every_synopsis_shape_parses(argv, expected):
    assert vars(_parse_argv(argv)) == {"command": argv[0], **expected}


@pytest.mark.parametrize("argv,_", SHAPES, ids=[" ".join(a) for a, _ in SHAPES])
def test_equals_form_and_last_repeat_win(argv, _):
    pairs = [argv[i : i + 2] for i in range(1, len(argv), 2)]
    joined = [argv[0]] + [f"{flag}={value}" for flag, value in pairs]
    assert vars(_parse_argv(joined)) == vars(_parse_argv(argv))
    # every flag given once before, with another valid value, keeps the later value
    earlier = [x for flag, _v in pairs for x in (flag, "external" if flag == "--kind" else "0")]
    shadowed = [argv[0]] + earlier + argv[1:]
    assert vars(_parse_argv(shadowed)) == vars(_parse_argv(argv))


TRIANGLE = str(INPUTS / "triangle.json")
USAGE_ERRORS = [
    ([], "missing command"),
    (["bogus", "--input", TRIANGLE], "'bogus'"),
    (["matroid", "--input", TRIANGLE, "--bogus", "1"], "'--bogus'"),
    (["matroid", "--input", TRIANGLE, "stray"], "'stray'"),
    (["matroid", "--inp", TRIANGLE], "'--inp'"),  # flags match in full, never by prefix
    (["matroid", "--input"], "argument --input: expected a value"),
    (["verify", "--input", "--theorem", "pi"], "argument --input: expected a value"),
    (["verify", "--input", TRIANGLE], "verify: missing required --theorem"),
    (["space", "--kind", "central"], "space: missing required --input"),
    (["matroid", "--input", TRIANGLE, "--seed", "1.5"], "argument --seed: invalid value '1.5'"),
    (["search-r37", "--max-cols=six"], "argument --max-cols: invalid value 'six'"),
    (["space", "--input", TRIANGLE, "--kind", "cubic"], "argument --kind: invalid value 'cubic'"),
    (["search-r37", "--seed", "7", "--input", TRIANGLE], "search-r37: unrecognized argument '--seed'"),
    (["search-r37", "--input", TRIANGLE], "search-r37: unrecognized argument '--input'"),
    # a negative depth would check no degree and still pass
    (
        ["verify", "--theorem", "exzono", "--dmax", "-3", "--input", TRIANGLE],
        "argument --dmax: invalid value '-3'",
    ),
    (
        ["space", "--kind", "central", "--dmax=-1", "--input", TRIANGLE],
        "argument --dmax: invalid value '-1'",
    ),
]


@pytest.mark.parametrize("argv,needle", USAGE_ERRORS, ids=[n for _, n in USAGE_ERRORS])
def test_usage_errors_exit_2(capsys, argv, needle):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{USAGE}\nzonoforge: error: ")
    assert needle in captured.err.splitlines()[-1]


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["-h"], ["verify", "--help"], ["space", "--input", TRIANGLE, "-h"], ["bogus", "--help"]],
)
def test_help_anywhere_prints_usage(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr() == (USAGE + "\n", "")


def test_version(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr() == (f"zonoforge {__version__}\n", "")


def test_readme_commands_block_is_usage():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Commands\n\n```text\n", 1)[1].split("```", 1)[0]
    assert block == USAGE + "\n"


def test_usage_lists_every_theorem_and_kind():
    # USAGE is a literal, so it cannot follow verify.BATTERIES by itself
    assert f"--theorem NAME  {'|'.join(THEOREMS)}\n" in USAGE
    assert "--kind KIND     central|external|semi_external|semi_internal\n" in USAGE
    for kind in ("central", "external", "semi_external", "semi_internal"):
        assert vars(_parse_argv(["space", "--input", "D", "--kind", kind]))["kind"] == kind


def test_dmax_zero_renders_degree_zero(capsys):
    assert main(["space", "--input", TRIANGLE, "--kind", "central", "--dmax", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["d_space"] == {"dmax": 0, "basis": ["1"]}


# -- golden reports ------------------------------------------------------------

GOLDEN_RUNS = [
    ("matroid_example25_first.json", ["matroid", "--input", str(INPUTS / "example25_first.json")]),
    (
        "space_semi_external_example25_first.json",
        ["space", "--input", str(INPUTS / "example25_first.json"), "--kind", "semi_external"],
    ),
    (
        "space_central_triangle.json",
        ["space", "--input", str(INPUTS / "triangle.json"), "--kind", "central"],
    ),
    (
        "verify_t28_example25_first.json",
        ["verify", "--input", str(INPUTS / "example25_first.json"), "--theorem", "t28"],
    ),
    (
        "verify_t28_example25_second.json",
        ["verify", "--input", str(INPUTS / "example25_second.json"), "--theorem", "t28"],
    ),
    (
        "verify_t33_repeated.json",
        ["verify", "--input", str(INPUTS / "repeated.json"), "--theorem", "t33"],
    ),
    (
        "verify_pi_identity2.json",
        ["verify", "--input", str(INPUTS / "identity2.json"), "--theorem", "pi"],
    ),
    ("search_r37_n3c4.json", ["search-r37", "--max-n", "3", "--max-cols", "4"]),
    (
        "space_external_rational_b0.json",
        ["space", "--input", str(INPUTS / "rational_b0.json"), "--kind", "external"],
    ),
    (
        "space_semi_external_rational_b0.json",
        ["space", "--input", str(INPUTS / "rational_b0.json"), "--kind", "semi_external"],
    ),
    (
        "verify_basis_example25_first.json",
        ["verify", "--input", str(INPUTS / "example25_first.json"), "--theorem", "basis"],
    ),
    (
        "verify_explus_rational_b0.json",
        ["verify", "--input", str(INPUTS / "rational_b0.json"), "--theorem", "explus"],
    ),
    # rational vertices: the least map and the restriction certificate on
    # points with denominators
    (
        "verify_pi_rational_b0.json",
        ["verify", "--input", str(INPUTS / "rational_b0.json"), "--theorem", "pi"],
    ),
    (
        "verify_exzono_rational_b0.json",
        ["verify", "--input", str(INPUTS / "rational_b0.json"), "--theorem", "exzono"],
    ),
    # a rendered cover-ideal kernel with rational coefficients, its
    # generators taken from the rational X u B0
    (
        "space_external_dmax6_rational_b0.json",
        ["space", "--input", str(INPUTS / "rational_b0.json"), "--kind", "external", "--dmax", "6"],
    ),
    (
        "space_semi_internal_rational_b0.json",
        ["space", "--input", str(INPUTS / "rational_b0.json"), "--kind", "semi_internal"],
    ),
]


@pytest.mark.parametrize("golden_name,argv", GOLDEN_RUNS, ids=[g for g, _ in GOLDEN_RUNS])
def test_golden_reports(tmp_path, capsys, golden_name, argv):
    out = tmp_path / "report.json"
    code = main(argv + ["--output", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "FAIL" not in captured.out
    assert out.read_bytes() == (GOLDEN / golden_name).read_bytes()


# -- the report writer ---------------------------------------------------------

# quotes, backslashes, control characters, non-ASCII and lone surrogates
_CHARS = st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u2028')
_TEXT = st.text(st.one_of(_CHARS, st.characters(exclude_categories=())), max_size=6)
_INTS = st.one_of(
    st.integers(-3, 3), st.integers(), st.integers(2**64, 2**200), st.integers(-(2**200), -(2**64))
)
_LEAVES = st.one_of(
    st.none(), st.booleans(), _INTS, _TEXT, st.lists(_INTS, max_size=5), st.lists(_TEXT, max_size=5)
)
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=4),
    ),
    max_leaves=24,
)
_NOT_IN_A_REPORT = (1.5, frozenset({1}), {1: "a"})


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_VALUES)
def test_writer_equals_json_dumps(value):
    assert _dumps(value) == json.dumps(value, sort_keys=True, indent=2)
    for bad in _NOT_IN_A_REPORT:
        for shape in (bad, [value, bad], {"k": value, "l": [bad]}):
            with pytest.raises(TypeError):
                _dumps(shape)


def test_writer_rewrites_every_golden():
    goldens = sorted(GOLDEN.glob("*.json"))
    assert goldens
    for path in goldens:
        text = _dumps(json.loads(path.read_text(encoding="utf-8"))) + "\n"
        assert text.encode("utf-8") == path.read_bytes(), path.name


def test_every_elimination_runs_on_int_rows(tmp_path, monkeypatch):
    """No Fraction reaches either elimination kernel: every row that
    `verify` hands to `linalg._eliminate` or `graded.Ideal` hands to
    `linalg.sparse_echelon`, for every theorem on every document, and every
    pivot row they extend, holds ints only."""
    real = linalg._eliminate
    real_sparse = graded.sparse_echelon
    seen, seen_sparse = [], []

    def guarded(rows, ncols, reduced, pivots=()):
        rows = [list(r) for r in rows]
        for row in rows + [r for _, r in pivots]:
            bad = [x for x in row if type(x) is not int]
            assert not bad, f"non-int entries {bad[:3]} in an elimination row"
        seen.append(len(rows))
        return real(rows, ncols, reduced, pivots)

    def guarded_sparse(rows, ncols, start=None):
        rows = [dict(r) for r in rows]
        for row in rows + list((start or {}).values()):
            bad = [x for x in row.values() if type(x) is not int]
            assert not bad, f"non-int entries {bad[:3]} in a sparse elimination row"
        seen_sparse.append(len(rows))
        return real_sparse(rows, ncols, start)

    # cached results would hide the eliminations that built them
    for mod in (config, zonotopal):
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()
    monkeypatch.setattr(linalg, "_eliminate", guarded)
    monkeypatch.setattr(graded, "sparse_echelon", guarded_sparse)
    out = tmp_path / "report.json"
    for doc in sorted(INPUTS.glob("*.json")):
        for theorem in THEOREMS:
            argv = ["verify", "--input", str(doc), "--theorem", theorem, "--output", str(out)]
            assert main(argv) == 0
    assert sum(seen) > 0 and sum(seen_sparse) > 0
    with pytest.raises(AssertionError, match="non-int"):
        linalg.echelon([[linalg.frac("1/2"), 1]], 2)
    with pytest.raises(AssertionError, match="non-int"):
        graded.sparse_echelon([{0: linalg.frac("1/2")}], 1)


def test_no_hpoly_below_the_cli(tmp_path, monkeypatch):
    """A polynomial is a (degree, integer row, denominator) tuple all the
    way into the report: every theorem battery, every bundle kind with its
    rendered cover-ideal kernel and the matroid report, on every document,
    make no HPoly; `cli._render` writes the text from the tuple."""
    made = []
    real = HPoly.__init__

    def counting(self, nvars, coeffs):
        made.append(nvars)
        real(self, nvars, coeffs)

    # cached bundles would hide the work that built them
    for mod in (config, zonotopal):
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()
    monkeypatch.setattr(HPoly, "__init__", counting)
    out = str(tmp_path / "report.json")
    runs = 0
    for doc in sorted(INPUTS.glob("*.json")):
        argvs = [["verify", "--theorem", theorem] for theorem in THEOREMS]
        argvs += [["space", "--kind", kind, "--dmax", "3"] for kind in KINDS]
        argvs.append(["matroid"])
        for argv in argvs:
            assert main(argv + ["--input", str(doc), "--output", out]) == 0
            runs += 1
    assert runs == len(list(INPUTS.glob("*.json"))) * (len(THEOREMS) + len(KINDS) + 1)
    assert made == []


def test_reports_parse_and_carry_the_envelope():
    for golden_name, _ in GOLDEN_RUNS:
        doc = json.loads((GOLDEN / golden_name).read_text(encoding="utf-8"))
        assert set(doc) == {"command", "input", "result", "passed", "version"}
        assert doc["passed"] is True


# -- stdout / output modes -------------------------------------------------------


def test_json_goes_to_stdout_without_output_flag(capsys):
    code = main(["matroid", "--input", str(INPUTS / "triangle.json")])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "matroid"
    assert len(doc["result"]["bases"]) == 3


def test_human_tables_accompany_output_flag(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(
        [
            "verify",
            "--input",
            str(INPUTS / "example25_first.json"),
            "--theorem",
            "t28",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "[pass]" in text
    assert "holds: False" in text


def test_double_run_bytes_identical(tmp_path, capsys):
    doc = write_doc(tmp_path, {"matrix": [["1", "0", "1"], ["0", "1", "1"]], "seed": 3})
    runs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(["verify", "--input", doc, "--theorem", "pi", "--output", str(out)]) == 0
        runs.append(out.read_bytes())
    capsys.readouterr()
    assert runs[0] == runs[1]


def test_seed_flag_overrides_document(tmp_path, capsys):
    doc = write_doc(tmp_path, {"matrix": [["1", "0", "1"], ["0", "1", "1"]], "seed": 3})
    outputs = []
    for extra in ([], ["--seed", "4"]):
        out = tmp_path / f"s{len(extra)}.json"
        assert (
            main(["verify", "--input", doc, "--theorem", "pi", "--output", str(out)] + extra)
            == 0
        )
        outputs.append(json.loads(out.read_text(encoding="utf-8")))
    capsys.readouterr()
    assert outputs[0]["input"]["seed"] == 3
    assert outputs[1]["input"]["seed"] == 4
    # different seeds sample different offsets
    row = lambda rep: rep["result"]["checks"][0]["offsets"]
    assert row(outputs[0]) != row(outputs[1])


def test_dmax_renders_cover_kernel(tmp_path, capsys):
    out = tmp_path / "o.json"
    code = main(
        [
            "space",
            "--input",
            str(INPUTS / "triangle.json"),
            "--kind",
            "central",
            "--dmax",
            "2",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    capsys.readouterr()
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["result"]["d_space"] is not None


# -- exit codes ------------------------------------------------------------------


def test_exit_2_on_malformed_documents(tmp_path, capsys):
    bad = [
        {"matrix": [["1", "1/0"], ["0", "1"]]},
        {"matrix": [[1, 0], [0, 1]], "bogus": 3},
        {"matrix": [[0, 0], [0, 1]]},
    ]
    for payload in bad:
        code = main(["matroid", "--input", write_doc(tmp_path, payload)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("input error:")


@pytest.mark.parametrize(
    "doc,field",
    [
        ({"matrix": [[]]}, "matrix"),
        ({"matrix": [[], []]}, "matrix"),
        ({"matrix": [[1, 0], [0, 1]], "b0": [[], []]}, "b0"),
    ],
)
def test_exit_2_on_a_matrix_without_columns(tmp_path, capsys, doc, field):
    # not "configuration has rank 0, expected full rank 0"
    assert main(["matroid", "--input", write_doc(tmp_path, doc)]) == 2
    assert capsys.readouterr() == ("", f"input error: field {field}: the matrix has no columns\n")


def test_exit_2_on_unreadable_or_invalid_files(tmp_path, capsys):
    code = main(["matroid", "--input", str(tmp_path / "missing.json")])
    assert code == 2
    bad = tmp_path / "notjson.json"
    bad.write_text("not json", encoding="utf-8")
    code = main(["matroid", "--input", str(bad)])
    assert code == 2
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc,argv,message",
    [
        (
            {"matrix": [[1, 0, 1, 1], [0, 1, 1, 2]], "i": [0, 0]},
            ["verify", "--theorem", "r37"],
            "field i[1]: repeated column index 0",
        ),
        (
            {"matrix": [[1, 0, 1, 1], [0, 1, 1, 2]], "iprime": [[1], [2, 3, 2]]},
            ["space", "--kind", "semi_external"],
            "field iprime[1][2]: repeated column index 2",
        ),
    ],
    ids=["i", "iprime"],
)
def test_exit_2_on_a_repeated_column_index(tmp_path, capsys, doc, argv, message):
    # not I = {0} run under an echo that says [0, 0]
    assert main([*argv, "--input", write_doc(tmp_path, doc)]) == 2
    assert capsys.readouterr() == ("", f"input error: {message}\n")


@pytest.mark.parametrize(
    "doc",
    [
        {"matrix": [["1", "0"], ["0", "1"]], "lambda": ["1"]},
        {"matrix": [["1", "0"], ["0", "1"]], "b0": [[1, 0], [0, 1]], "lambda_b0": [1, 2, 3]},
    ],
)
def test_exit_2_on_wrong_offset_count(tmp_path, capsys, doc):
    assert main(["matroid", "--input", write_doc(tmp_path, doc)]) == 2
    assert "offsets, expected one per" in capsys.readouterr().err


def test_exit_2_when_kind_lacks_its_field(tmp_path, capsys):
    doc = write_doc(tmp_path, {"matrix": [["1", "0"], ["0", "1"]]})
    assert main(["space", "--input", doc, "--kind", "semi_external"]) == 2
    assert main(["verify", "--input", doc, "--theorem", "t33"]) == 2
    err = capsys.readouterr().err
    assert "input error:" in err


def test_exit_1_on_certificate_failure(tmp_path, capsys, monkeypatch):
    # a quotient Hilbert function one degree too long: the central bundle's
    # cross-check of its three Hilbert functions fails
    doc = write_doc(tmp_path, {"matrix": [["1", "0", "1"], ["0", "1", "1"]]})
    real = zonotopal.hilbert_quotient
    monkeypatch.setattr(zonotopal, "hilbert_quotient", lambda gens, cap: real(gens, cap) + (1,))
    code = main(["space", "--input", doc, "--kind", "central"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("certificate failure: ConsistencyError: central: Hilbert functions disagree")


def test_basis_span_row_reports_the_constructor_check(tmp_path, capsys, monkeypatch):
    """The basis battery's "generators span the primal space" row cannot fail
    by itself: zonotopal.central has already compared the span of the same
    passive-set products with the short-set space.  One basis's passive set
    losing a column trips that check: exit 1, and no report is written."""
    real = zonotopal.passive_set
    hit = []

    def short_one(c, y, order=None):
        out = real(c, y, order)
        if out and not hit:
            hit.append(y)
            return out - {max(out)}
        return out

    monkeypatch.setattr(zonotopal, "passive_set", short_one)
    out = tmp_path / "basis.json"
    code = main(
        ["verify", "--input", str(INPUTS / "example25_first.json"), "--theorem", "basis",
         "--output", str(out)]
    )
    captured = capsys.readouterr()
    assert hit and code == 1
    assert captured.err.startswith(
        "certificate failure: ConsistencyError: central: passive-set products fail to span"
        " the short-set space"
    )
    assert not out.exists() and "PASS" not in captured.out


def test_exit_2_on_fixed_non_simple_offsets(tmp_path, capsys):
    doc = write_doc(
        tmp_path,
        {"matrix": [["1", "0", "1"], ["0", "1", "1"]], "lambda": ["1", "1", "2"]},
    )
    code = main(["verify", "--input", doc, "--theorem", "pi"])
    capsys.readouterr()
    assert code == 2


def test_exit_2_on_a_fixed_circuit_beside_a_hole(tmp_path, capsys):
    # equal fixed offsets on a doubled column can never become simple, so
    # the hole beside them is never sampled
    doc = write_doc(
        tmp_path,
        {"matrix": [["1", "1", "0"], ["0", "0", "1"]], "lambda": ["1", "1", None]},
    )
    code = main(["verify", "--input", doc, "--theorem", "pi"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("input error: arrangement is not simple: hyperplanes [0, 1]")


def test_search_default_window_examines_configurations(tmp_path, capsys):
    out = tmp_path / "search.json"
    assert main(["search-r37", "--output", str(out)]) == 0
    capsys.readouterr()
    result = json.loads(out.read_text(encoding="utf-8"))["result"]
    assert result["bounds"]["max_n"] == 3
    assert result["configs_examined"] > 0


def test_search_refuses_large_bounds(capsys):
    code = main(["search-r37", "--max-n", "4"])
    err = capsys.readouterr().err
    assert code == 2
    assert "bounds" in err


@pytest.mark.parametrize("bounds", [["--max-n", "2"], ["--max-n", "3", "--max-cols", "3"]])
def test_search_refuses_an_empty_window(capsys, bounds):
    code = main(["search-r37", *bounds])
    captured = capsys.readouterr()
    assert code == 2
    assert "empty search window" in captured.err
    assert captured.out == ""


# -- random documents through main -------------------------------------------------

_ENTRIES = st.sampled_from([0, 1, -1, 2, -2, 3, "1/2", "-1/3"])


@st.composite
def _runs(draw):
    """One argv and the document it reads: n <= 3 rows, n <= N <= 6 columns,
    and each optional field present or not, sometimes malformed."""
    n = draw(st.integers(1, 3))
    ncols = draw(st.integers(n, 6))
    rows = lambda r, w: st.lists(st.lists(_ENTRIES, min_size=w, max_size=w), min_size=r, max_size=r)
    holes = lambda k: st.lists(st.one_of(st.none(), _ENTRIES), min_size=k, max_size=k)
    off = st.sampled_from([0, 0, 0, -1, 1])  # a wrong length now and then
    index_lists = st.lists(st.integers(0, ncols - 1), max_size=3, unique=True)
    optional = {
        "b0": rows(n, n),  # sometimes singular: not a basis
        "lambda": off.flatmap(lambda k: holes(ncols + k)),
        "lambda_b0": holes(n),
        "iprime": st.lists(index_lists, min_size=1, max_size=3),
        "iprime_closed": st.booleans(),
        "i": index_lists,
        "seed": st.integers(-5, 50),
    }
    doc = {"matrix": draw(rows(n, ncols))}
    doc.update(draw(st.fixed_dictionaries({}, optional=optional)))
    command = draw(st.sampled_from(["verify", "space", "matroid", "search-r37"]))
    argv = [command]
    if command == "search-r37":
        argv += draw(st.sampled_from([[], ["--max-cols", "4"], ["--max-n", "2"], ["--max-n", "4"]]))
    else:
        argv += ["--input", "DOC"]
        if command == "space":
            argv += ["--kind", draw(st.sampled_from(KINDS))]
        elif command == "verify":
            argv += ["--theorem", draw(st.sampled_from(THEOREMS))]
        if command != "matroid" and draw(st.booleans()):
            argv += ["--dmax", str(draw(st.integers(0, 3)))]
    return doc, argv


@settings(
    derandomize=True,
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(_runs())
def test_random_documents_exit_cleanly(tmp_path, run):
    """No exception escapes main, and every report written on exit 0 is the
    json text of what it holds, newline-terminated."""
    doc, argv = run
    path, out = tmp_path / "doc.json", tmp_path / "report.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out.unlink(missing_ok=True)
    argv = [str(path) if a == "DOC" else a for a in argv]
    code = main(argv + ["--output", str(out)])
    assert code in (0, 1, 2)
    if code == 0:
        text = out.read_text(encoding="utf-8")
        assert text.endswith("\n")
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


# -- console entry points --------------------------------------------------------


def _src_env():
    """The parent environment with this tree's src/ prepended to PYTHONPATH,
    so a child interpreter imports this checkout whether or not it is installed."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


# What a generated console-script wrapper does: load the entry point, call it
# with no arguments, exit with its return value. argv[1] is the target.
_WRAPPER = (
    "import sys; from importlib.metadata import EntryPoint; "
    "target = sys.argv.pop(1); "
    "sys.exit(EntryPoint(name='zonoforge', value=target, group='console_scripts').load()())"
)


def test_console_script_runs():
    # runs the entry point this tree declares, never a zonoforge found on PATH
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["zonoforge"]
    proc = subprocess.run(
        [sys.executable, "-c", _WRAPPER, target]
        + ["matroid", "--input", str(INPUTS / "identity2.json")],
        capture_output=True,
        text=True,
        env=_src_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["passed"] is True


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "zonoforge", "matroid", "--input", str(INPUTS / "identity2.json")],
        capture_output=True,
        text=True,
        env=_src_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["command"] == "matroid"


def test_import_leaves_argparse_unloaded():
    probe = "import sys, zonoforge.cli; print('argparse' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_src_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"

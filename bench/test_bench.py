"""Tests of the benchmark itself (not of zonoforge).

    python3 -m pytest -q bench

Run from the repository root.  The traced test forks one real operation.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path
from time import perf_counter

import pytest

import run
import speed
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_metric_names_match_the_pattern_and_are_printed_with_units(capsys):
    bench = _benchmark()
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    layer = run.layer_metrics(run.merge_traces([]), 2.0, 1.0)
    assert end_to_end == run.END_TO_END
    assert per_layer == {name: unit for name, (_, unit) in layer.items()}
    for name in [*end_to_end, *per_layer]:
        assert NAME.fullmatch(name), name

    run._print_result(True, 1, 0, layer)
    lines = capsys.readouterr().out.splitlines()
    printed = dict(line.split(" = ", 1) for line in lines[:-1])
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    for name, (_, unit) in layer.items():
        assert printed[name].endswith(f" {unit}")
        assert last["metrics"][name]["unit"] == unit


def test_a_tampered_golden_report_counts_as_failed():
    wl = workloads.build("inputs-battery", ROOT, run.DEFAULT_SEED)
    op = next(o for o in wl.ops if o.label == "verify t33 repeated")
    golden_dir = ROOT / "tests" / "golden"
    good = (golden_dir / "verify_t33_repeated.json").read_bytes()
    digests = run.load_digests()
    assert run.check_report(wl, op, 0, good, digests, golden_dir) is None
    assert "golden" in run.check_report(wl, op, 0, good + b" ", digests, golden_dir)


def test_a_tampered_report_without_golden_counts_as_failed(tmp_path):
    import zonoforge.cli  # noqa: F401

    wl = workloads.build("algebra-ladder", ROOT, run.DEFAULT_SEED)
    op = next(o for o in wl.ops if o.label == "verify th1 k4")
    doc = tmp_path / "k4.json"
    doc.write_bytes(wl.docs["k4"])
    out = tmp_path / "report.json"
    res = run.run_op(list(op.args) + ["--input", str(doc), "--output", str(out)])
    report = out.read_bytes()
    digests, golden_dir = run.load_digests(), ROOT / "tests" / "golden"
    assert wl.op_key(op) in digests
    assert run.check_report(wl, op, res["rc"], report, digests, golden_dir) is None

    tampered = report.replace(b'"command": "verify"', b'"command": "verify "')
    assert "digest" in run.check_report(wl, op, 0, tampered, digests, golden_dir)
    failed = report.replace(b'"passed": true', b'"passed": false')
    assert "passed" in run.check_report(wl, op, 0, failed, digests, golden_dir)
    assert "exit code" in run.check_report(wl, op, 1, report, digests, golden_dir)


def test_the_generator_returns_the_same_documents_for_the_same_seed():
    a = workloads.build("algebra-ladder", ROOT, 7)
    b = workloads.build("algebra-ladder", ROOT, 7)
    c = workloads.build("algebra-ladder", ROOT, 8)
    assert a.docs == b.docs
    assert a.docs != c.docs
    assert a.docs["k4"] == c.docs["k4"]
    for data in a.docs.values():
        doc = json.loads(data)
        cols = [list(col) for col in zip(*doc["matrix"])]
        n = len(doc["matrix"])
        (i,) = doc["i"]
        assert all(any(col) for col in cols)
        assert workloads._rank(cols) == n
        assert workloads._rank(cols[:i] + cols[i + 1:]) == n


def test_summarize_attributes_time_to_the_innermost_span():
    fns = [("tracer", "tracer.probe"), ("cli", "cli.main"), ("config", "config.facets"),
           ("linalg", "linalg.rref"), ("linalg", "linalg.rank")]
    spans = [
        (1, -1, 0.0, 10.0, True),   # cli.main
        (2, 0, 1.0, 5.0, True),     # config.facets
        (4, 1, 2.0, 4.0, True),     # linalg.rank under config
        (3, 2, 2.5, 3.5, True),     # linalg.rref inside rank
        (4, 0, 6.0, 9.0, True),     # linalg.rank straight from cli
    ]
    s = tracer.summarize(spans, fns)
    assert s["self"]["cli"] == 3.0
    assert s["self"]["config"] == 2.0
    assert s["self"]["linalg"] == 5.0
    assert s["linalg_under"] == {"config": 2.0, "cli": 3.0}
    assert s["inclusive"]["linalg.rank"] == 5.0
    assert s["calls"]["linalg.rank"] == 2
    assert sum(s["self"].values()) == s["root_s"] == 10.0


def test_layer_self_times_plus_the_remainder_equal_the_traced_wall_time(tmp_path):
    import zonoforge.cli  # noqa: F401

    argv = ["verify", "--theorem", "t33", "--input", str(ROOT / "inputs" / "repeated.json"),
            "--output", str(tmp_path / "report.json")]
    res = run.run_op(argv, trace=True)
    assert res["rc"] == 0
    wall = res["seconds"] + 0.25   # a pass also pays for the fork and the checks
    m = run.layer_metrics(run.merge_traces([res]), wall, 1.0)
    attributed = sum(m[f"{layer}.self_s"][0] for layer in tracer.LAYERS)
    assert attributed == pytest.approx(res["trace"]["root_s"], rel=1e-9)
    assert attributed + m["trace.unattributed_s"][0] == pytest.approx(wall, rel=1e-12)
    assert m["verify.t33.s"][0] > 0
    assert (tmp_path / "report.json").read_bytes() == (
        ROOT / "tests" / "golden" / "verify_t33_repeated.json"
    ).read_bytes()


def test_the_sampler_probes_during_the_timed_code_and_leaves_its_probes_out():
    sampler = speed.Sampler()
    sampler.start()
    start = perf_counter()
    while perf_counter() - start < 10 * speed.PERIOD_S:
        pass
    seconds = perf_counter() - start
    sampler.stop()
    assert len(sampler.probes) >= 2 + 5          # before, during, after
    assert sampler.inside == pytest.approx(sum(sampler.probes[1:-1]))
    assert seconds >= sampler.inside > 0         # the loop's time includes them
    assert speed.scale([speed.REFERENCE_PROBE_S / 2] * 3) == pytest.approx(2.0)

"""Benchmark of the zonoforge CLI: end-to-end timings, or per-layer numbers
from a traced run.

    python3 bench/run.py --workload inputs-battery --seed 1 --seconds 35 --trace 0

Run it from the repository root; it imports the package from `src/`.  Each
operation is one `zonoforge` command line, run cold: the benchmark forks
one child per operation from a parent that has already imported the
package, clears every lru cache in the child, and times `cli.main(argv)`
there.  Operations run one at a time (a closed loop with one client).

Times are reported at a reference host speed (see bench/speed.py): the
host's own speed, sampled by a probe before, during and after each timed
operation, is divided out.

Every report is checked: exit code 0, `passed: true`, byte equality with
`tests/golden` where a golden exists, and the SHA-256 recorded in
`bench/digests.json` where the operation's input matches a recorded one.
A failed check counts the operation as failed and the command exits 1.

With `--trace 0` the last line carries the end-to-end metrics; with
`--trace 1` it carries the per-layer metrics of a traced pass, after
checking that the traced reports equal the untraced ones byte for byte.
See bench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import speed
import tracer
import workloads

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 1
SETUP_REPEATS = 9
TAIL_CANDIDATES = (99, 97.5, 95, 90, 75, 50)

END_TO_END = {
    "setup_s": "s",
    "wall_ref_s": "s",
    "op_p50_ref_s": "s",
    "op_tail_ref_s": "s",
    "peak_rss_mb": "MB",
}


# -- statistics ----------------------------------------------------------------


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: a value that was actually measured."""
    ordered = sorted(values)
    return ordered[max(math.ceil(p / 100 * len(ordered)), 1) - 1]


def tail_percentile(samples: int) -> int:
    """The highest candidate percentile with at least ten samples beyond it."""
    for p in TAIL_CANDIDATES:
        if samples * (100 - p) / 100 >= 10:
            return p
    raise ValueError(f"{samples} samples leave fewer than ten beyond the median")


# -- one operation in a forked child ------------------------------------------------


def _clear_caches() -> None:
    for name, mod in list(sys.modules.items()):
        if name == "zonoforge" or name.startswith("zonoforge."):
            for obj in list(vars(mod).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def _child(argv: list, trace: bool, probe: bool) -> dict:
    _clear_caches()
    tr = sampler = None
    if trace:
        tr = tracer.Tracer()
        tr.install()
    elif probe:
        sampler = speed.Sampler()
    main = sys.modules["zonoforge.cli"].main
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        if sampler is not None:
            sampler.start()
        start = perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # reported as a failed operation
            rc = None
            traceback.print_exc()
        seconds = perf_counter() - start
        if sampler is not None:
            sampler.stop()
            seconds -= sampler.inside
    payload = {"rc": rc, "seconds": seconds, "stderr": err.getvalue()[-2000:]}
    if sampler is not None:
        payload["scale"] = speed.scale(sampler.probes)
        payload["ref_seconds"] = seconds * payload["scale"]
    if tr is not None:
        payload["trace"] = tr.summary()
    return payload


def run_op(argv: list, trace: bool = False, probe: bool = False) -> dict:
    """Run one CLI command line in a forked child; return its exit code, the
    time `cli.main` took, its stderr tail, its peak RSS and, when traced,
    its span summary.  With `probe`, the host's speed is sampled while
    `cli.main` runs, its time excludes the probes, and `ref_seconds` is that
    time at the reference speed."""
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(r)
            data = json.dumps(_child(argv, trace, probe)).encode()
            with os.fdopen(w, "wb") as fh:
                fh.write(data)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(w)
    with os.fdopen(r, "rb") as fh:
        data = fh.read()
    _, status, usage = os.wait4(pid, 0)
    if data:
        result = json.loads(data)
    else:
        result = {
            "rc": None,
            "seconds": 0.0,
            "ref_seconds": 0.0,
            "scale": 1.0,
            "stderr": f"child ended with wait status {status}",
        }
    result["rss_mb"] = usage.ru_maxrss / 1024
    return result


# -- checks ------------------------------------------------------------------------


def check_report(wl, op, rc, report: bytes, digests: dict, golden_dir: Path) -> str | None:
    """None if the operation succeeded, else the reason it failed."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        doc = json.loads(report)
    except ValueError:
        return "report is not JSON"
    if not isinstance(doc, dict) or doc.get("passed") is not True:
        return "report does not say passed: true"
    golden = workloads.GOLDEN.get(op.label)
    if golden is not None and report != (golden_dir / golden).read_bytes():
        return f"report differs from tests/golden/{golden}"
    expected = digests.get(wl.op_key(op))
    if expected is not None and hashlib.sha256(report).hexdigest() != expected:
        return "report digest differs from bench/digests.json"
    return None


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))["digests"]


# -- passes ------------------------------------------------------------------------


class Runner:
    def __init__(self, root: Path, wl, outdir: Path, digests: dict):
        self.root, self.wl, self.outdir, self.digests = root, wl, outdir, digests
        for name, data in wl.docs.items():
            (outdir / f"{name}.json").write_bytes(data)
        self.report = outdir / "report.json"

    def run_pass(self, trace: bool = False, probe: bool = False) -> dict:
        """Every operation once.  `wall` sums the parent-side time of each
        fork-run-wait, so the checks between operations are not counted."""
        wall, ops = 0.0, []
        for op in self.wl.ops:
            argv = list(op.args)
            if op.doc is not None:
                argv += ["--input", str(self.outdir / f"{op.doc}.json")]
            argv += ["--output", str(self.report)]
            self.report.unlink(missing_ok=True)
            start = perf_counter()
            res = run_op(argv, trace, probe)
            res["wall"] = perf_counter() - start
            wall += res["wall"]
            report = self.report.read_bytes() if self.report.exists() else b""
            res["digest"] = hashlib.sha256(report).hexdigest()
            res["failure"] = check_report(
                self.wl, op, res["rc"], report, self.digests, self.root / "tests" / "golden"
            )
            res["label"] = op.label
            ops.append(res)
        return {"wall": wall, "ops": ops}


def failures(passes) -> list:
    return [(op["label"], op["failure"], op["stderr"]) for p in passes for op in p["ops"] if op["failure"]]


def _print_failures(bad) -> None:
    for label, why, err in bad:
        print(f"FAILED {label}: {why} {err.strip()[-300:]}")


def end_to_end(wl, passes, setup_s: float) -> tuple[dict, list]:
    """The end-to-end metrics of a timed run, with the matching host-time
    figures as notes.

    Times are at the reference speed (`ref_seconds`).  `wall_ref_s` adds up
    each operation's median over the passes: one typical pass.  The tail
    percentile is fixed per workload by the samples its minimum pass count
    guarantees, so a faster program that fits more passes still reports the
    same percentile."""
    times = [op["ref_seconds"] for p in passes for op in p["ops"]]
    host = [op["seconds"] for p in passes for op in p["ops"]]
    tail = tail_percentile(len(wl.ops) * wl.min_passes)

    def typical_pass(key):
        return sum(statistics.median(ops) for ops in zip(*([op[key] for op in p["ops"]] for p in passes)))

    metrics = {
        "setup_s": setup_s,
        "wall_ref_s": typical_pass("ref_seconds"),
        "op_p50_ref_s": percentile(times, 50),
        "op_tail_ref_s": percentile(times, tail),
        "peak_rss_mb": max(op["rss_mb"] for p in passes for op in p["ops"]),
    }
    attempted = len(times)
    failed = len(failures(passes))
    scales = [op["scale"] for p in passes for op in p["ops"]]
    notes = [
        f"passes: {len(passes)} of {len(wl.ops)} ops; wall_ref_s sums each op's median over the passes",
        f"op_p50_ref_s and op_tail_ref_s: nearest-rank p50 and p{tail:g} of {attempted} op times",
        f"reference speed: one probe takes {speed.REFERENCE_PROBE_S * 1000:g} ms; here it took"
        f" {speed.REFERENCE_PROBE_S * 1000 / max(scales):.3f} to {speed.REFERENCE_PROBE_S * 1000 / min(scales):.3f} ms"
        f" (median over ops {speed.REFERENCE_PROBE_S * 1000 / statistics.median(scales):.3f} ms)",
        f"host time, not scaled: wall_s = {typical_pass('seconds'):.6g} s (each op's median, summed),"
        f" op_p50_s = {percentile(host, 50):.6g} s, op_tail_s = {percentile(host, tail):.6g} s",
        f"fail_frac = {failed / attempted:g} ({failed} of {attempted} ops failed)",
    ]
    return metrics, notes


def measure_setup(root: Path, workload: str, seed: int) -> float:
    """Median, at the reference speed, of the time a fresh interpreter takes
    to start, import zonoforge, and build and parse the workload's documents;
    one untimed warm-up first.  The parent probes before and after each
    interpreter, which probes itself while it sets up."""
    argv = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    times = []
    for k in range(SETUP_REPEATS + 1):
        before = speed.probe()
        start = perf_counter()
        out = subprocess.run(argv, cwd=root, check=True, stdout=subprocess.PIPE).stdout
        seconds = perf_counter() - start
        after = speed.probe()
        inner = json.loads(out.splitlines()[-1])
        if k:
            times.append((seconds - sum(inner)) * speed.scale([before, *inner, after]))
    return statistics.median(times)


def setup_probe(root: Path, workload: str, seed: int) -> None:
    """Set up as a benchmark run does, and print the probes taken meanwhile."""
    sampler = speed.Sampler()
    sampler.start()
    from zonoforge.cli import parse_document

    wl = workloads.build(workload, root, seed)
    for data in wl.docs.values():
        parse_document(json.loads(data))
    sampler.stop()
    print(json.dumps(sampler.probes))


# -- traced run --------------------------------------------------------------------


def merge_traces(ops) -> dict:
    """Sum the per-operation span summaries of one pass (maxima and cache
    sizes take the largest operation)."""
    total = {key: {} for key in ("self", "linalg_under", "inclusive", "calls", "counters", "seconds", "distinct")}
    total["maxima"], total["cache"] = {}, {}
    for op in ops:
        t = op["trace"]
        for key in total:
            for name, value in t[key].items():
                if key == "maxima" or (key == "cache" and name == "entries"):
                    total[key][name] = max(total[key].get(name, 0), value)
                else:
                    total[key][name] = total[key].get(name, 0) + value
    return total


def layer_metrics(t: dict, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics as name -> (value, unit)."""
    s, incl, calls, cnt = t["self"], t["inclusive"], t["calls"], t["counters"]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for layer in tracer.LAYERS:
        m[f"{layer}.self_s"] = (s.get(layer, 0.0), "s")
    for caller in ("graded", "geometry", "config", "zonotopal", "poly", "verify"):
        m[f"linalg.under_{caller}.self_s"] = (t["linalg_under"].get(caller, 0.0), "s")
    m["linalg.rref.calls"] = (calls.get("linalg.rref", 0), "count")
    m["linalg.rref.cells"] = (cnt.get("linalg.rref.cells", 0), "count")
    m["linalg.rref.max_bits"] = (t["maxima"].get("linalg.rref.max_bits", 0), "bits")
    m["linalg.rank.calls"] = (calls.get("linalg.rank", 0), "count")
    m["linalg.nullspace.calls"] = (calls.get("linalg.nullspace", 0), "count")
    m["poly.mul.calls"] = (calls.get("poly.mul", 0), "count")
    m["poly.diff_apply.calls"] = (calls.get("poly.diff_apply", 0), "count")
    m["poly.pair.calls"] = (calls.get("poly.pair", 0), "count")
    ic_calls = calls.get("graded.ideal_component", 0)
    ic_unique = t["distinct"].get("graded.ideal_component", 0)
    m["graded.ideal_component.calls"] = (ic_calls, "count")
    m["graded.ideal_component.unique"] = (ic_unique, "count")
    m["graded.ideal_component.useful_ratio"] = (ratio(ic_unique, ic_calls), "ratio")
    for fn in ("hilbert_quotient", "kernel", "intersect", "direct_sum_certificate"):
        m[f"graded.{fn}.s"] = (incl.get(f"graded.{fn}", 0.0), "s")
    hits, misses = t["cache"].get("rank_of.hits", 0), t["cache"].get("rank_of.misses", 0)
    m["config.rank_of.calls"] = (calls.get("config.rank_of", 0), "count")
    m["config.rank_of.hit_ratio"] = (ratio(hits, hits + misses), "ratio")
    m["config.cache_entries"] = (t["cache"].get("entries", 0), "count")
    m["config.facets.calls"] = (calls.get("config.facets", 0), "count")
    m["config.internal_bases.s"] = (incl.get("config.internal_bases", 0.0), "s")
    m["config.i_internal_bases.s"] = (incl.get("config.i_internal_bases", 0.0), "s")
    m["config.configs_built"] = (calls.get("config.Config", 0), "count")
    candidates = cnt.get("geometry.zonotope_lattice.candidates", 0)
    m["geometry.least_space.calls"] = (calls.get("geometry.least_space", 0), "count")
    m["geometry.least_space.s"] = (incl.get("geometry.least_space", 0.0), "s")
    m["geometry.least_space.taylor_cols"] = (cnt.get("geometry.least_space.taylor_cols", 0), "count")
    m["geometry.zonotope_lattice.s"] = (incl.get("geometry.zonotope_lattice", 0.0), "s")
    m["geometry.zonotope_lattice.candidates"] = (candidates, "count")
    m["geometry.zonotope_lattice.useful_ratio"] = (
        ratio(cnt.get("geometry.zonotope_lattice.points", 0), candidates),
        "ratio",
    )
    m["geometry.make_arrangement.s"] = (incl.get("geometry.make_arrangement", 0.0), "s")
    for fn in ("central", "semi_external", "semi_internal", "d_space"):
        m[f"zonotopal.{fn}.s"] = (incl.get(f"zonotopal.{fn}", 0.0), "s")
    m["zonotopal.central_space.calls"] = (calls.get("zonotopal.central_space", 0), "count")
    m["zonotopal.internal_extension_check.calls"] = (
        calls.get("zonotopal.internal_extension_check", 0),
        "count",
    )
    for token in workloads.THEOREMS:
        m[f"verify.{token}.s"] = (t["seconds"].get(f"verify.{token}.s", 0.0), "s")
    m["verify.search.triples_per_s"] = (
        ratio(cnt.get("verify.search.triples", 0), t["seconds"].get("verify.search.s", 0.0)),
        "1/s",
    )
    m["cli.parse_document.s"] = (incl.get("cli.parse_document", 0.0), "s")
    attributed = sum(s.get(layer, 0.0) for layer in tracer.LAYERS)
    m["trace.wall_s"] = (traced_wall, "s")
    m["trace.untraced_wall_s"] = (untraced_wall, "s")
    m["trace.unattributed_s"] = (traced_wall - attributed, "s")
    m["trace_overhead"] = (ratio(traced_wall, untraced_wall), "x")
    return m


# Layer groups whose share of the traced wall time says what each workload
# is for: the layer's own self time plus the linalg time it calls.
SHARE_GROUPS = {
    "geometry": ("geometry.self_s", "linalg.under_geometry.self_s"),
    "graded": ("graded.self_s", "linalg.under_graded.self_s"),
    "config": ("config.self_s", "linalg.under_config.self_s"),
    "zonotopal": ("zonotopal.self_s", "linalg.under_zonotopal.self_s"),
    "poly": ("poly.self_s", "linalg.under_poly.self_s"),
    "verify": ("verify.self_s", "linalg.under_verify.self_s"),
    "cli": ("cli.self_s", "cli.cmd.self_s"),
}


def share_lines(m: dict) -> list:
    wall = m["trace.wall_s"][0]
    shares = sorted(
        ((sum(m[k][0] for k in keys), group, keys) for group, keys in SHARE_GROUPS.items()),
        reverse=True,
    )
    lines = [f"shares of the traced wall time {wall:.3f} s (base: trace.wall_s):"]
    for value, group, keys in shares:
        lines.append(f"  {group:<10} {value:8.3f} s  {value / wall:6.1%}  ({' + '.join(keys)})")
    lines.append(f"largest share: {shares[0][1]}")
    return lines


# -- main --------------------------------------------------------------------------


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _print_result(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )


@contextmanager
def scratch_dir(root: Path):
    """A private directory under .bench_out for documents and reports,
    removed afterwards."""
    outdir = root / ".bench_out" / str(os.getpid())
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        yield outdir
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        try:
            outdir.parent.rmdir()
        except OSError:
            pass


def traced_run(runner: Runner, seconds: float) -> int:
    """Alternate untraced and traced passes; report the traced pass with the
    median wall time.  Every traced report must equal its untraced twin."""
    pairs = []
    start = perf_counter()
    while not pairs or perf_counter() - start < seconds:
        plain, traced = runner.run_pass(), runner.run_pass(trace=True)
        for a, b in zip(plain["ops"], traced["ops"]):
            if a["digest"] != b["digest"] and not b["failure"]:
                b["failure"] = "traced report differs from the untraced one"
        pairs.append((plain, traced))
    bad = failures(p for pair in pairs for p in pair)
    _print_failures(bad)
    attempted = sum(len(p["ops"]) for pair in pairs for p in pair)
    if bad:
        _print_result(False, attempted, len(bad), {})
        return 1
    middle = (len(pairs) - 1) // 2
    traced = sorted((pair[1] for pair in pairs), key=lambda p: p["wall"])[middle]
    untraced_wall = sorted(pair[0]["wall"] for pair in pairs)[middle]
    metrics = layer_metrics(merge_traces(traced["ops"]), traced["wall"], untraced_wall)
    print(
        f"pairs of passes: {len(pairs)}; reported: the traced pass with the (lower) median wall time,"
        " and trace_overhead against the (lower) median untraced pass"
    )
    for line in share_lines(metrics):
        print(line)
    _print_result(True, attempted, 0, metrics)
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = Path.cwd()
    missing = [p for p in ("src/zonoforge/__init__.py", "inputs", "tests/golden") if not (root / p).exists()]
    if missing:
        print(f"run from the repository root: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    if args.setup_probe:
        setup_probe(root, args.workload, args.seed)
        return 0

    import zonoforge.cli  # noqa: F401  (imported once here, inherited by every forked op)

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    return max(run_workload(root, name, args.seed, args.seconds, args.trace) for name in names)


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool) -> int:
    wl = workloads.build(name, root, seed)
    print(f"workload {wl.name}, seed {seed}: {len(wl.ops)} ops per pass")
    for note in wl.notes:
        print(f"  {note}")
    with scratch_dir(root) as outdir:
        runner = Runner(root, wl, outdir, load_digests())
        if trace:
            return traced_run(runner, seconds)
        setup_s = measure_setup(root, name, seed)
        passes = []
        start = perf_counter()
        while len(passes) < wl.min_passes or perf_counter() - start < seconds:
            passes.append(runner.run_pass(probe=True))
    metrics, notes = end_to_end(wl, passes, setup_s)
    bad = failures(passes)
    for line in notes:
        print(line)
    _print_failures(bad)
    attempted = sum(len(p["ops"]) for p in passes)
    _print_result(not bad, attempted, len(bad), {k: (v, END_TO_END[k]) for k, v in metrics.items()})
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

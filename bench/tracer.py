"""Spans around the program's public functions, recorded from outside.

`Tracer.install` replaces every public function of each zonoforge module
(plus `HPoly.__mul__` and `Config.__post_init__`) with a wrapper that
records one span per call, in every module namespace that holds the
original object (`from .linalg import rank` binds a second name).
lru-cached functions keep their cache; `cache_info()` is read from the
original.  Spans stay in memory; `summary()` folds them into per-layer
numbers when the operation ends.

A layer is a module.  `cli` is `cli.main` alone; the other public `cli`
functions (`cmd_*`, `parse_document`) form `cli.cmd`.  A layer's self
time is the time whose innermost open span belongs to it, so the self
times of all layers add up to the time spent inside the outermost spans.
Probes that read arguments and results run inside spans of the `tracer`
layer, so their cost is not charged to the program.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import Counter
from math import comb, prod
from time import perf_counter

MODULES = ("linalg", "poly", "graded", "config", "geometry", "zonotopal", "verify", "cli")
LAYERS = ("cli", "cli.cmd", "verify", "zonotopal", "geometry", "graded", "config", "poly", "linalg", "tracer")
# Hot leaf helpers: hundreds of thousands of calls per pass, so a span on
# each would cost more than the work it measures.
UNSPANNED = frozenset({"frac", "vector", "monomials", "multi_factorial"})
# lru caches whose size is reported as config.cache_entries.
CACHE_MODULES = ("config", "zonotopal")


def _bits(m) -> int:
    """Largest numerator or denominator bit length in a matrix of Fractions."""
    return max((abs(x.numerator) | x.denominator for row in m for x in row), default=0).bit_length()


def _probe_rref(t, args, kwargs, result, seconds):
    m = args[0]
    if m:
        t.counters["linalg.rref.cells"] += len(m) * len(m[0])
    t.maxima["linalg.rref.max_bits"] = max(t.maxima["linalg.rref.max_bits"], _bits(result[0]))


def _probe_ideal_component(t, args, kwargs, result, seconds):
    t.distinct.add(args)


def _probe_least_space(t, args, kwargs, result, seconds):
    points = args[0]
    extra = args[1] if len(args) > 1 else kwargs.get("extra", 0)
    if points:
        nvars = len(points[0])
        t.counters["geometry.least_space.taylor_cols"] += comb(nvars + len(points) - 1 + extra, nvars)


def _probe_zonotope_lattice(t, args, kwargs, result, seconds):
    unimodular, points = result
    if unimodular:
        c = args[0]
        t.counters["geometry.zonotope_lattice.candidates"] += prod(
            int(sum(max(v[i], 0) for v in c.columns)) - int(sum(min(v[i], 0) for v in c.columns)) + 1
            for i in range(c.n)
        )
        t.counters["geometry.zonotope_lattice.points"] += len(points)


def _probe_run_theorem(t, args, kwargs, result, seconds):
    t.seconds[f"verify.{args[0]}.s"] += seconds


def _probe_search(t, args, kwargs, result, seconds):
    t.counters["verify.search.triples"] += result["triples_checked"]
    t.seconds["verify.search.s"] += seconds


PROBES = {
    "linalg.rref": _probe_rref,
    "graded.ideal_component": _probe_ideal_component,
    "geometry.least_space": _probe_least_space,
    "geometry.zonotope_lattice": _probe_zonotope_lattice,
    "verify.run_theorem": _probe_run_theorem,
    "verify.search_internal_extension": _probe_search,
}


class Tracer:
    def __init__(self):
        self.fns = [("tracer", "tracer.probe")]   # (layer, name) per span kind
        self.spans = []      # (fn index, parent span index, start, end, outermost of its fn)
        self.current = -1    # index of the innermost open span
        self.active = [0]    # open spans per fn index
        self.counters = Counter()
        self.maxima = Counter()
        self.seconds = Counter()
        self.distinct = set()
        self.caches = {}     # name -> lru-cached original

    def wrap(self, layer: str, name: str, fn, probe=None):
        idx = len(self.fns)
        self.fns.append((layer, name))
        self.active.append(0)
        spans, active, clock, tracer = self.spans, self.active, perf_counter, self

        def wrapper(*args, **kwargs):
            parent = tracer.current
            k = len(spans)
            spans.append(None)
            tracer.current = k
            outer = not active[idx]
            active[idx] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                active[idx] -= 1
                tracer.current = parent
                spans[k] = (idx, parent, start, end, outer)
            if probe is not None:
                p0 = clock()
                probe(tracer, args, kwargs, result, end - start)
                spans.append((0, parent, p0, clock(), True))
            return result

        return wrapper

    def install(self, package: str = "zonoforge") -> None:
        originals = {}   # id(original) -> wrapper
        for short in MODULES:
            mod = importlib.import_module(f"{package}.{short}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or attr in UNSPANNED:
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                cached = hasattr(obj, "cache_info")
                if not (inspect.isfunction(obj) or cached):
                    continue
                name = f"{short}.{attr}"
                layer = "cli.cmd" if short == "cli" and attr != "main" else short
                originals[id(obj)] = (obj, self.wrap(layer, name, obj, PROBES.get(name)))
                if cached and short in CACHE_MODULES:
                    self.caches[name] = obj
        for modname, mod in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            ns = vars(mod)
            for attr, obj in list(ns.items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    ns[attr] = hit[1]
        poly = sys.modules[f"{package}.poly"]
        config = sys.modules[f"{package}.config"]
        poly.HPoly.__mul__ = self.wrap("poly", "poly.mul", poly.HPoly.__mul__)
        config.Config.__post_init__ = self.wrap(
            "config", "config.Config", config.Config.__post_init__
        )

    def summary(self) -> dict:
        """Fold the recorded spans into per-layer and per-function totals."""
        return summarize(self.spans, self.fns) | {
            "counters": dict(self.counters),
            "maxima": dict(self.maxima),
            "seconds": dict(self.seconds),
            "distinct": {"graded.ideal_component": len(self.distinct)},
            "cache": self._cache_state(),
        }

    def _cache_state(self) -> dict:
        info = {name: fn.cache_info() for name, fn in self.caches.items()}
        rank_of = info["config.rank_of"]
        return {
            "entries": sum(i.currsize for i in info.values()),
            "rank_of.hits": rank_of.hits,
            "rank_of.misses": rank_of.misses,
        }


def summarize(spans, fns) -> dict:
    """Self time per layer, linalg self time per calling layer, inclusive
    time of each function's outermost spans, calls per function, and the
    time covered by root spans.  Parents precede their children in `spans`."""
    n = len(spans)
    covered = [0.0] * n
    for fn, parent, start, end, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    layer_self = dict.fromkeys(LAYERS, 0.0)
    under = {}
    inclusive, calls = Counter(), Counter()
    caller = [""] * n    # nearest non-linalg layer above each span
    root = 0.0
    for k, (fn, parent, start, end, outer) in enumerate(spans):
        layer, name = fns[fn]
        dur = end - start
        own = dur - covered[k]
        layer_self[layer] += own
        calls[name] += 1
        if outer:
            inclusive[name] += dur
        if parent < 0:
            root += dur
            caller[k] = "root"
        else:
            parent_layer = fns[spans[parent][0]][0]
            caller[k] = caller[parent] if parent_layer == "linalg" else parent_layer
        if layer == "linalg":
            under[caller[k]] = under.get(caller[k], 0.0) + own
    return {
        "self": layer_self,
        "linalg_under": under,
        "inclusive": dict(inclusive),
        "calls": dict(calls),
        "root_s": root,
    }

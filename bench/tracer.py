"""Per-layer tracing from outside the program.

``install`` rebinds each listed public function in every ``operad_forge``
module namespace that holds it (``cells`` imports ``canonical_form``, ``wb``
imports the ``bv`` functions, ``cli`` imports nearly everything), and wraps
``compose``/``act`` on the ``Operad`` subclasses and ``__call__`` on the two
map-element classes.  Each call opens a span; when it closes, its duration
and the part of it covered by child spans are folded into per-name totals,
so a span's self time is its duration minus its children's.  The totals stay
in memory and are written out when the run ends.  Folding on close keeps
memory flat: the ``cells`` requests close millions of spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# Layer -> public functions measured in that layer's module.
FUNCTIONS = {
    "trees": ("canonical_form", "planar_trees"),
    "bv": ("bv_normalize", "bv_compose", "bv_act", "mu", "iota", "bv_decompose"),
    "wb": ("wb_normalize", "wb_left", "wb_right", "wb_act", "mu_tilde", "wb_decompose"),
    "mapping": ("subdivide", "validate_loop", "validate_bimodule_map"),
    "cells": ("enumerate_upsilon", "classify", "class_key", "contract_main_edge",
              "build_graph", "reedy_of", "latching_index"),
    "serialize": ("dumps", "graph_to_json", "reedy_to_json"),
    "cli": ("main",),
}
# Span name -> (module, class, method); operad methods are summed over the
# subclasses that define them.
METHODS = {
    "operads.compose": ("operads", None, "compose"),
    "operads.act": ("operads", None, "act"),
    "mapping.bimod_eval": ("mapping", "BimodMapElement", "__call__"),
    "mapping.loop_eval": ("mapping", "LoopElement", "__call__"),
}
# Span that holds the hooks' own work; it is not a layer and not reported.
HOOK_SPAN = "trace.hooks"
SPANS = tuple(f"{m}.{f}" for m, fs in FUNCTIONS.items() for f in fs) + tuple(METHODS)
RATIOS = (
    ("cells.census_size", "count"),
    ("cells.edge_yield", "ratio"),
    ("bv.bv_normalize.repeat_share", "ratio"),
    ("wb.wb_normalize.repeat_share", "ratio"),
    ("bv.bv_normalize.calls_per_op", "calls/op"),
    ("serialize.dumps.bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"),
)


class Tracer:
    """Span totals by name: calls, inclusive seconds and self seconds, plus
    counters fed by hooks.  ``on`` pauses recording (for the benchmark's own
    output checks) without unwrapping."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.on = True
        self.ops = 0
        self._stack: list[list] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._seen: dict[str, set] = defaultdict(set)

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, covered = self._stack.pop()
        dur = self.clock() - start
        self.calls[name] += 1
        self.total[name] += dur
        self.self_s[name] += dur - covered
        if self._stack:
            self._stack[-1][2] += dur

    def note_input(self, name: str, key) -> None:
        """Count a call whose input equals an earlier input of ``name``."""
        seen = self._seen[name]
        if key in seen:
            self.counters[f"{name}.repeats"] += 1
        else:
            seen.add(key)

    def wrap(self, name: str, fn, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            if before is not None:
                self._hook(before, args)
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if after is not None:
                self._hook(after, result)
            return result

        return traced

    def _hook(self, hook, arg) -> None:
        """Run a hook in a span of its own, so that the benchmark's
        bookkeeping is not counted in the caller's self time."""
        self.enter(HOOK_SPAN)
        try:
            hook(self, arg)
        finally:
            self.exit()

    def to_json(self) -> dict:
        return {
            "ops": self.ops,
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
        }

    def merge(self, data: dict) -> None:
        """Add the totals another process wrote with ``to_json``."""
        self.ops += data["ops"]
        for field in ("calls", "total", "self_s", "counters"):
            mine = getattr(self, field)
            for k, v in data[field].items():
                mine[k] += v

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh)


# ---------------------------------------------------------------------------
# Hooks: counts measured where the work happens
# ---------------------------------------------------------------------------


def _before_bv_normalize(tracer: Tracer, args) -> None:
    p = args[0]
    tracer.note_input("bv.bv_normalize", (p.operad_name, p.tree, p.labels, p.params))


def _before_wb_normalize(tracer: Tracer, args) -> None:
    p = args[0]
    tracer.note_input("wb.wb_normalize", (p.operad_name, p.tree, p.heights, p.labels))


def _count(counter: str, size):
    def after(tracer: Tracer, result) -> None:
        tracer.counters[counter] += size(result)

    return after


HOOKS = {
    "bv.bv_normalize": (_before_bv_normalize, None),
    "wb.wb_normalize": (_before_wb_normalize, None),
    "cells.enumerate_upsilon": (None, _count("cells.census_size", len)),
    "cells.build_graph": (None, _count("cells.edges", lambda g: len(g.edges))),
    "serialize.dumps": (None, _count("serialize.dumps.bytes", len)),
}


def install(tracer: Tracer) -> None:
    """Wrap every measured function and method of an imported
    ``operad_forge``; call once per process."""
    import operad_forge  # noqa: F401  (loads every layer but serialize/cli)
    import operad_forge.cli  # noqa: F401
    import operad_forge.serialize  # noqa: F401

    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "operad_forge" or n.startswith("operad_forge."))]
    for layer, names in FUNCTIONS.items():
        home = sys.modules[f"operad_forge.{layer}"]
        for fname in names:
            original = getattr(home, fname)
            name = f"{layer}.{fname}"
            wrapped = tracer.wrap(name, original, *HOOKS.get(name, (None, None)))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
    operads = sys.modules["operad_forge.operads"]
    for name, (layer, cls_name, meth) in METHODS.items():
        home = sys.modules[f"operad_forge.{layer}"]
        if cls_name is not None:
            classes = [getattr(home, cls_name)]
        else:
            classes = [c for c in vars(operads).values()
                       if isinstance(c, type) and issubclass(c, operads.Operad)
                       and c is not operads.Operad and meth in vars(c)]
        for cls in classes:
            setattr(cls, meth, tracer.wrap(name, vars(cls)[meth]))


def layer_metrics(tracer: Tracer, overhead_ratio: float) -> dict[str, dict]:
    """Every per-layer metric, zero where the layer did not run."""
    out: dict[str, dict] = {}
    for name in SPANS:
        out[f"{name}.calls"] = {"value": tracer.calls.get(name, 0), "unit": "count"}
        out[f"{name}.s"] = {"value": tracer.total.get(name, 0.0), "unit": "s"}
        out[f"{name}.self_s"] = {"value": tracer.self_s.get(name, 0.0), "unit": "s"}
    c = tracer.counters
    calls = tracer.calls

    def share(num: float, den: float) -> float:
        return num / den if den else 0.0

    values = {
        "cells.census_size": c.get("cells.census_size", 0),
        "cells.edge_yield": share(c.get("cells.edges", 0), calls.get("cells.contract_main_edge", 0)),
        "bv.bv_normalize.repeat_share": share(c.get("bv.bv_normalize.repeats", 0),
                                              calls.get("bv.bv_normalize", 0)),
        "wb.wb_normalize.repeat_share": share(c.get("wb.wb_normalize.repeats", 0),
                                              calls.get("wb.wb_normalize", 0)),
        "bv.bv_normalize.calls_per_op": share(calls.get("bv.bv_normalize", 0), tracer.ops),
        "serialize.dumps.bytes": c.get("serialize.dumps.bytes", 0),
        "trace.overhead_ratio": overhead_ratio,
    }
    for name, unit in RATIOS:
        out[name] = {"value": values[name], "unit": unit}
    return out


def top_self(tracer: Tracer) -> str:
    """The measured span with the most self time."""
    names = [n for n in tracer.self_s if n != HOOK_SPAN]
    return max(names, key=tracer.self_s.get) if names else ""

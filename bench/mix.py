"""Measure the input mix of the acceptance suite and of the benchmark's
catalogs, side by side.  The weights in ``gen.py`` are taken from the
suite's column.

    python3 bench/mix.py [--scale 1] [--seed 0] [--entries 4000]

The suite (``operad_forge.selftest``) is the repo's own record of what
"selftest-sized" inputs are.  This script wraps, in the selftest module's
namespace only, the functions the suite calls directly, and runs every
criterion at ``--scale`` (1 and seed 0 are the acceptance test's
settings).  It describes each raw point the suite normalizes (operad,
whether canonicalization met tied siblings and, for points of at most four
vertices, vertices, leaves, edge lengths, heights and unit labels), how
often it composes, and how often it calls each operation of the ``laws``
workload.  It then describes the first ``--entries`` entries of the
``normalize`` and ``laws`` catalogs in the same way.  It only reads; the
figures it prints are copied into ``gen.py`` by hand, so the catalogs never
change with the program.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path
from random import Random

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import gen  # noqa: E402

LAW_OPS = ("bv_compose", "bv_act", "bv_decompose", "mu", "wb_left", "wb_right", "wb_act",
           "mu_tilde", "wb_decompose", "xi", "alpha", "validate_loop", "validate_bimodule_map")
# laws requests named after the suite's function they stand for
LAW_ALIASES = {"bv_roundtrip": "bv_decompose", "wb_prime_components": "wb_decompose"}
SMALL = 4  # vertices of a "selftest-sized" point; larger ones are the tail


class Census:
    """What a stream of raw points and operations looked like."""

    def __init__(self):
        self.n = Counter()
        self.operads = Counter()
        self.vertices = {"bv": Counter(), "wb": Counter(), "wb-label": Counter()}
        self.leaves = {"bv": Counter(), "wb": Counter()}
        self.edges = Counter()
        self.ops = Counter()
        self.law_operads = Counter()
        self.units, self.arity_one = Counter(), Counter()
        self._tie = False

    def tie_detector(self, original):
        def perms(encs, m):
            if len({repr(e) for e in encs}) < m:
                self._tie = True
            return original(encs, m)

        return perms

    def normalized(self, kind: str, raw, normalize):
        self._tie = False
        out = normalize(raw)
        self.n[kind] += 1
        self.n[f"{kind}.tie"] += self._tie
        self.operads[(kind, raw.operad_name)] += 1
        shape = raw.tree.shape
        small = shape.n_vertices <= SMALL
        self.n[f"{kind}.small"] += small
        if not small:
            return out
        self.vertices[kind][shape.n_vertices] += 1
        self.leaves[kind][shape.n_leaves] += 1
        if kind == "bv":
            arity_one = [lab for v, lab in enumerate(raw.labels) if shape.arity_of(v) == 1]
            self.units[raw.operad_name] += sum(raw.operad.is_unit(lab) for lab in arity_one)
            self.arity_one[raw.operad_name] += len(arity_one)
            for t in raw.params:
                self.edges["bv"] += 1
                self.edges["bv.zero"] += t == 0
                self.edges["bv.one"] += t == 1
        else:
            parents = shape.vertex_parents
            for v, t in enumerate(raw.heights):
                self.vertices["wb-label"][raw.labels[v].n_vertices] += 1
                self.edges["wb"] += 1
                self.edges["wb.one"] += t == 1
                if parents[v][0] >= 0:
                    self.edges["wb.child"] += 1
                    self.edges["wb.child.same"] += t == raw.heights[parents[v][0]]
        return out

    def op(self, name: str, operad_name: str = "") -> None:
        self.ops[name] += 1
        if operad_name:
            self.law_operads[operad_name] += 1

    def report(self) -> dict:
        def share(c: Counter) -> dict:
            total = sum(c.values())
            return {k: round(v / total, 3) for k, v in sorted(c.items())} if total else {}

        n, e = self.n, self.edges
        return {
            "normalizations": {"bv": n["bv"], "wb": n["wb"], "compose": n["compose"]},
            "operads": {f"{k}:{o}": round(v / max(1, n[k]), 3)
                        for (k, o), v in sorted(self.operads.items())},
            "small_share": {k: round(n[f"{k}.small"] / max(1, n[k]), 3) for k in ("bv", "wb")},
            "tie_share": {k: round(n[f"{k}.tie"] / max(1, n[k]), 3) for k in ("bv", "wb")},
            "vertices": {k: share(c) for k, c in self.vertices.items()},
            "leaves": {k: share(c) for k, c in self.leaves.items()},
            "bv_edge_zero": round(e["bv.zero"] / max(1, e["bv"]), 3),
            "bv_edge_one": round(e["bv.one"] / max(1, e["bv"]), 3),
            "unit_share": {o: round(self.units[o] / n, 3)
                           for o, n in sorted(self.arity_one.items()) if n},
            "wb_height_one": round(e["wb.one"] / max(1, e["wb"]), 3),
            "wb_height_same": round(e["wb.child.same"] / max(1, e["wb.child"]), 3),
            "law_ops": share(Counter({k: self.ops[k] for k in LAW_OPS})),
            "law_operads": share(self.law_operads),
        }


def _install_detectors(census: Census) -> None:
    import operad_forge.bv as bv
    import operad_forge.wb as wb

    for mod in (bv, wb):
        mod._tie_break_perms = census.tie_detector(mod._tie_break_perms)


def suite(scale: float, seed: int) -> Census:
    from operad_forge import selftest as st

    census = Census()
    _install_detectors(census)
    real = {name: getattr(st, name) for name in ("bv_normalize", "wb_normalize", *LAW_OPS)
            if hasattr(st, name)}

    def normalizer(kind: str):
        fn = real[f"{kind}_normalize"]

        def call(raw, rng=None):
            if raw.canonical:
                return fn(raw, rng)
            return census.normalized(kind, raw, lambda p: fn(p, rng))

        return call

    def counted(name: str):
        fn = real[name]

        def call(*args, **kwargs):
            point = next((a for a in args if hasattr(a, "operad_name")), None)
            census.op(name, point.operad_name if point is not None else "")
            census.n["compose"] += name == "bv_compose"
            return fn(*args, **kwargs)

        return call

    st.bv_normalize, st.wb_normalize = normalizer("bv"), normalizer("wb")
    for name in real:
        if name in LAW_OPS:
            setattr(st, name, counted(name))
    for i, crit in enumerate(st.CRITERIA):
        crit(Random(seed * 1_000_003 + i), scale)
    return census


def catalogs(entries: int) -> Census:
    from operad_forge import bv, serialize as ser, wb
    from operad_forge.operads import operad_by_name

    census = Census()
    _install_detectors(census)
    for i in range(entries):
        e = gen.normalize_entry(i)
        if e.get("refuse"):
            continue
        op = operad_by_name(e["argv"][1])
        data = json.loads(e["stdin"])
        cmd = e["argv"][2]
        if cmd == "compose-bv":
            census.n["compose"] += 1
        elif cmd == "normalize-bv":
            census.normalized("bv", ser.bv_from_json(data, op), bv.bv_normalize)
        else:
            census.normalized("wb", ser.wb_from_json(data, op), wb.wb_normalize)
    pool = gen.pool_specs()
    arities = {g: [gen.arity_of(p) for p in items] for g, items in pool.items()}
    for i in range(entries):
        e = gen.laws_entry(i, arities)
        op = LAW_ALIASES.get(e["op"], e["op"])
        if op in LAW_OPS:
            census.op(op, e.get("operad", ""))
    return census


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--entries", type=int, default=4000)
    args = ap.parse_args(argv)
    got = {"selftest": suite(args.scale, args.seed).report(),
           "catalogs": catalogs(args.entries).report()}
    for key in got["selftest"]:
        print(f"{key}:")
        for col, rep in got.items():
            print(f"  {col:9s} {json.dumps(rep[key], sort_keys=True)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

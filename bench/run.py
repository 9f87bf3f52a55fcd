"""Benchmark of operad-forge: one workload, one seed, one run.

    python3 bench/run.py --workload {cells,normalize,laws} --seed N \\
        --seconds S --trace {0,1}

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a separate traced run with
``--trace 1``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import tracer as tr
import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 21
REFERENCES_PER_SETUP = 5  # host-speed samples before each set-up probe
REFUSE_AGAIN = ["refuse", "refuse"]


def _time_setup(workload: str, seed: int) -> float:
    """Median seconds, scaled by host speed, from starting a fresh
    interpreter until it has set the workload up, over several starts."""
    speed = hostspeed.HostSpeed()
    samples = []
    for _ in range(SETUP_REPEATS):
        speed.sample(REFERENCES_PER_SETUP)
        t0 = time.perf_counter()
        p = subprocess.Popen([sys.executable, str(BENCH / "probe.py"), workload, str(seed)],
                             cwd=ROOT, env=wl.child_env(), stdin=subprocess.DEVNULL,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        line = p.stdout.readline()
        samples.append((time.perf_counter() - t0, t0))
        _, err = p.communicate()
        if p.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed: {err.decode()[-500:]}")
    speed.sample(REFERENCES_PER_SETUP)
    return wl.median([dt * speed.scale(t0 + dt / 2) for dt, t0 in samples])


UNITS = {
    "setup_s": "s", "job_s": "s", "refuse_s": "s", "ops_per_s": "1/s",
    "latency_p50_ms": "ms", "latency_p99_ms": "ms", "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def _metrics(values: dict) -> dict:
    return {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}


def run_cells(seed: int, seconds: float, trace: bool) -> tuple:
    order = wl.cells_order(seed)
    tally = wl.Tally()
    if trace:
        untraced = wl.run_cells_pass(order, None, tally)
        t = tr.Tracer()
        with wl.trace_dir() as d:
            traced = wl.run_cells_pass(order, d, tally)
            for name in order:
                t.merge(json.loads(Path(d, f"{name}.json").read_text()))
        return tally, tr.layer_metrics(t, traced / untraced), f"top_self={tr.top_self(t)}"
    setup_s = _time_setup("cells", seed)
    speed = hostspeed.HostSpeed()
    began = time.perf_counter()
    while True:
        wl.run_cells_pass(order, None, tally, speed=speed)
        # The refusal is short and noisy, so it is sampled twice more; the
        # extra samples feed refuse_s and the output check only.
        extra = wl.Tally()
        wl.run_cells_pass(REFUSE_AGAIN, None, extra, speed=speed)
        tally.refusals += extra.refusals
        tally.wrong += extra.wrong
        elapsed = time.perf_counter() - began
        if elapsed >= seconds:
            break
    values = tally.metrics(elapsed, speed)
    values["setup_s"] = setup_s
    values["peak_rss_mb"] = wl.peak_child_rss_mb()
    return tally, _metrics(values), f"host_factor={speed.factor():.3f}"


def run_in_process(name: str, seed: int, seconds: float, trace: bool) -> tuple:
    if not trace:
        setup_s = _time_setup(name, seed)
    w, start, first = wl.setup(name, seed)
    if trace:
        # The same entries twice: untraced, then traced.
        tally = wl.measure(w, start, first, seconds / 2, 0)
        n, plain = tally.attempted, tally.busy
        t = tr.Tracer()
        tr.install(t)
        wl.measure(w, start, first, math.inf, 0, limit=n, tracer=t, tally=tally)
        overhead = (tally.busy - plain) / plain
        return tally, tr.layer_metrics(t, overhead), f"top_self={tr.top_self(t)}"
    speed = hostspeed.HostSpeed()
    began = time.perf_counter()
    # At least ten samples beyond p99 need 1000 requests.
    tally = wl.measure(w, start, first, seconds, 1000, speed=speed)
    values = tally.metrics(time.perf_counter() - began, speed)
    values["setup_s"] = setup_s
    values["peak_rss_mb"] = wl.self_rss_mb()
    return tally, _metrics(values), f"host_factor={speed.factor():.3f}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("cells", "normalize", "laws"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "operad_forge" / "__init__.py").is_file():
        print(f"bench: no operad_forge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "cells":
        tally, metrics, note = run_cells(args.seed, args.seconds, bool(args.trace))
    else:
        tally, metrics, note = run_in_process(args.workload, args.seed, args.seconds,
                                             bool(args.trace))
    for why in tally.wrong[:10]:
        print(f"wrong output: {why}", file=sys.stderr)
    n = tally.attempted
    print(f"# {args.workload} seed={args.seed} requests={n} "
          f"beyond_p99={wl.beyond(n, 0.99)} wrong={len(tally.wrong)} {note}")
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": n,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

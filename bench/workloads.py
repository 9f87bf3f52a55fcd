"""The three workloads: how a request is executed, how its output is
rendered and checked, and the closed measuring loop (one caller, one request
at a time).

``normalize`` and ``laws`` run in the benchmark's own interpreter: the
first calls the CLI's command handlers, the second the engine's public
functions; ``cells`` starts one ``operad-forge`` process
per request (see ``launch.py``).  Every output is compared, outside the timed
region, with the digest recorded for its catalog entry (``record.py``).
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from random import Random

import gen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DATA = BENCH / "data"
CHUNK = 100  # requests generated, then checked, together; also one job_s block
REFERENCES_PER_CHUNK = 2  # host-speed samples before each chunk
REFERENCES_PER_PROCESS = 10  # host-speed samples before and after each process


def digest(status: str, text: str) -> bytes:
    return hashlib.sha256(f"{status}\n{text}".encode()).digest()[:4]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least a share
    ``q`` of the values at or below it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q``
    percentile."""
    return n - max(1, math.ceil(q * n))


def median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


@dataclass
class Tally:
    """What a measuring loop saw.  A request fails on an exception, an
    unexpected exit code, a wrong output, or a broken law or verdict; in
    the latency percentiles it counts as slower than every success.  Times
    are kept as measured, with the midpoint of each, and scaled by host
    speed only in ``metrics``."""

    times: list[float] = field(default_factory=list)
    mids: list[float] = field(default_factory=list)
    fails: list[bool] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)
    refusals: list[tuple[float, float]] = field(default_factory=list)  # (seconds, mid)
    blocks: list[tuple[int, int]] = field(default_factory=list)  # request index ranges
    wrong: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.times)

    @property
    def failed(self) -> int:
        return sum(self.fails)

    @property
    def busy(self) -> float:
        return sum(self.times)

    def add(self, seconds: float, failed: bool, refused: bool, start: float,
            kind: str = "") -> None:
        mid = start + seconds / 2
        self.times.append(seconds)
        self.mids.append(mid)
        self.fails.append(failed)
        self.kinds.append(kind)
        if refused and not failed:
            self.refusals.append((seconds, mid))

    def metrics(self, window_s: float, speed) -> dict[str, float]:
        """The end-to-end figures this tally gives, every time scaled by
        ``speed.scale`` at its midpoint.  A percentile that lands on a
        failed request reads as the whole measuring window.  Requests added
        with a ``kind`` (the few fixed ``cells`` requests) enter the
        percentiles as one latency per kind, its median over the run."""
        scaled = [t * speed.scale(m) for t, m in zip(self.times, self.mids)]
        latencies = [math.inf if f else t for t, f in zip(scaled, self.fails)]
        if any(self.kinds):
            by_kind: dict[str, list[float]] = {}
            for k, v in zip(self.kinds, latencies):
                by_kind.setdefault(k, []).append(v)
            latencies = [median(v) for v in by_kind.values()]

        def ms(v: float) -> float:
            return 1000 * (window_s if math.isinf(v) else v)

        refusals = [t * speed.scale(m) for t, m in self.refusals]
        ok = self.attempted - self.failed
        return {
            "job_s": median([sum(scaled[a:b]) for a, b in self.blocks]),
            "refuse_s": median(refusals) if refusals else window_s,
            "ops_per_s": ok / sum(scaled),
            "latency_p50_ms": ms(median(latencies)),
            "latency_p99_ms": ms(percentile(latencies, 0.99)),
            "ok_ratio": ok / self.attempted,
        }


class DigestTable:
    """One 4-byte digest per catalog entry, recorded at a known-good
    commit."""

    def __init__(self, name: str):
        path = DATA / f"{name}.digests"
        self.blob = path.read_bytes() if path.exists() else b""

    def expected(self, i: int) -> bytes:
        return self.blob[4 * i: 4 * i + 4]


# ---------------------------------------------------------------------------
# normalize: fresh raw points through the CLI's decode/normalize/encode path
# ---------------------------------------------------------------------------


class Normalize:
    name = "normalize"

    def __init__(self):
        import operad_forge.cli as cli

        self.cli = cli
        self.parser = cli._build_parser()

    def entry(self, i: int) -> dict:
        """Catalog entry ``i`` with its argv parsed ahead of time, so the
        timed request starts where ``cli.main`` hands over to the command."""
        e = gen.normalize_entry(i)
        e["args"] = self.parser.parse_args(e["argv"])
        return e

    def execute(self, e: dict):
        """Run the CLI's own handler on the request's stdin, returning its
        stdout as ``("ok", text)`` or, as ``cli.main`` prints it, its exit-1
        witness as ``("refused", text)``."""
        cli, args = self.cli, e["args"]
        saved = sys.stdin, sys.stdout
        sys.stdin, sys.stdout = io.StringIO(e["stdin"]), io.StringIO()
        try:
            code = args.fn(args)
            if code != 0:
                raise RuntimeError(f"exit {code}")
            return "ok", sys.stdout.getvalue()
        except cli.CliValidationError as exc:
            return "refused", cli.dumps(exc.witness) + "\n"
        finally:
            sys.stdin, sys.stdout = saved

    def render(self, e: dict, status: str, out) -> tuple[str, bool]:
        return out, True


# ---------------------------------------------------------------------------
# laws: a fixed pool of canonical points acted on over and over
# ---------------------------------------------------------------------------


class Laws:
    name = "laws"

    def __init__(self):
        import operad_forge  # noqa: F401
        import operad_forge.serialize  # noqa: F401

        m = sys.modules
        self.bv, self.wb = m["operad_forge.bv"], m["operad_forge.wb"]
        self.ser, self.ops = m["operad_forge.serialize"], m["operad_forge.operads"]
        self.map = m["operad_forge.mapping"]
        self.pool: dict[str, list] = {}
        self.arities: dict[str, list[int]] = {}
        for group, items in gen.pool_specs().items():
            kind, operad = group.split(":", 1)
            op = self.ops.operad_by_name(operad)
            if kind in ("bv", "corolla"):
                pts = [self.bv.bv_normalize(self.ser.bv_from_json(p, op)) for p in items]
            else:
                pts = [self.wb.wb_normalize(self.ser.wb_from_json(p, op)) for p in items]
            self.pool[group] = pts
            self.arities[group] = [gen.arity_of(p) for p in items]
        mp, ops = self.map, self.ops
        eta = ops.identity_eta(ops.AssocOperad())
        rev = mp.assoc_reversal_eta()
        third = (Fraction(1, 3), Fraction(2, 3))
        self.window = mp.window_loop(eta, rev, third, name="w")
        fw = mp.xi(self.window)
        fv = mp.xi(mp.window_loop(eta, rev, (Fraction(1, 4), Fraction(1, 2)), name="v"))
        self.stock = [mp.eta_mu_tilde(eta), fw, fv]
        self.loops = {
            "window": self.window,
            "constant": mp.constant_loop(eta),
            "mutant-unit": mp.mutant_unit_loop(ops.identity_eta(ops.EndOperad(2))),
            "mutant-multiplicative": mp.mutant_multiplicative_loop(eta, rev, third),
        }
        self.bimods = {
            "eta-mu-tilde": self.stock[0],
            "xi-window": fw,
            "mutant-bimod": mp.mutant_bimod(eta, rev),
        }

    def entry(self, i: int) -> dict:
        return gen.laws_entry(i, self.arities)

    def execute(self, e: dict):
        op = e["op"]
        bv, wb, mp = self.bv, self.wb, self.map
        if op in ("validate_loop", "validate_bimodule_map"):
            samples = [self.pool[e["group"]][j] for j in e["window"]]
            rng = Random(e["rng"])
            if op == "validate_loop":
                # Only the mid time lies inside the twist window, so the
                # multiplicativity mutant is always evaluated there.
                times = (Fraction(1, 2),) if e["kernel"] == "mutant-multiplicative" else None
                kw = {"times": times} if times else {}
                return "ok", mp.validate_loop(self.loops[e["kernel"]], samples, rng, **kw)
            return "ok", mp.validate_bimodule_map(self.bimods[e["kernel"]], samples, rng)
        group = "bv:" if op.startswith("bv_") or op == "mu" else "wb:"
        pool = self.pool[group + e["operad"]]
        if op == "bv_compose":
            return "ok", bv.bv_compose(pool[e["x"]], e["slot"], pool[e["y"]])
        if op == "bv_act":
            return "ok", bv.bv_act(pool[e["x"]], tuple(e["sigma"]))
        if op == "bv_roundtrip":
            d = bv.bv_decompose(pool[e["x"]])
            return "ok", (d, bv.bv_reassemble(d))
        if op == "mu":
            return "ok", bv.mu(pool[e["x"]])
        if op == "wb_left":
            a = pool[0].operad.decode(e["a"])
            return "ok", wb.wb_left(a, [pool[j] for j in e["xs"]])
        if op == "wb_right":
            x = pool[e["x"]]
            return "ok", wb.wb_right(x, e["slot"], x.operad.decode(e["a"]))
        if op == "wb_act":
            return "ok", wb.wb_act(pool[e["x"]], tuple(e["sigma"]))
        if op == "mu_tilde":
            return "ok", wb.mu_tilde(pool[e["x"]])
        if op == "wb_prime_components":
            return "ok", wb.wb_prime_components(pool[e["x"]])
        y = pool[e["y"]]
        if op == "xi":
            return "ok", self.stock[1 + e["kernel"]](y)
        if op == "alpha":
            cubes = self.ops.CubeConfig(
                tuple((Fraction(a), Fraction(b)) for a, b in e["cubes"]))
            return "ok", mp.alpha(cubes, [self.stock[k] for k in e["maps"]])(y)
        try:
            return "ok", mp.xi_k(self.window, e["k"])(y)
        except mp.TruncationError as exc:
            return "refused", str(exc)

    def render(self, e: dict, status: str, out) -> tuple[str, bool]:
        """Canonical text of a result, and whether its law or verdict
        holds."""
        ser, op = self.ser, e["op"]
        if status == "refused":
            return ser.dumps({"error": out}), True
        if op in ("validate_loop", "validate_bimodule_map"):
            ok = out.ok
            if e["kernel"] in gen.MUTANTS:
                ok = not out.ok and bool(out.violations[0].witness)
            return ser.dumps(out.to_json()), ok
        if op == "bv_roundtrip":
            d, back = out
            x = self.pool["bv:" + e["operad"]][e["x"]]
            return ser.dumps([ser.bv_to_json(c) for c in d.all_components()]), back == x
        if op == "wb_prime_components":
            return ser.dumps([ser.wb_to_json(c) for c in out]), True
        if isinstance(out, self.bv.BVPoint):
            return ser.dumps(ser.bv_to_json(out)), True
        if isinstance(out, self.wb.WBPoint):
            return ser.dumps(ser.wb_to_json(out)), True
        return ser.dumps(self.ops.operad_by_name(e["operad"]).encode(out)), True


IN_PROCESS = {"normalize": Normalize, "laws": Laws}


def setup(name: str, seed: int):
    """Everything an in-process workload does before its first timed
    request: imports, the first chunk of inputs and, for ``laws``, the
    pool."""
    w = IN_PROCESS[name]()
    start = gen.start_offset(name, seed)
    first = [w.entry((start + j) % gen.CATALOG_SIZE[name]) for j in range(CHUNK)]
    return w, start, first


def measure(w, start: int, first: list, seconds: float, min_requests: int,
            limit: int | None = None, tracer=None, record: list | None = None,
            tally: Tally | None = None, speed=None) -> Tally:
    """Run catalog entries from ``start`` on, one at a time, until
    ``seconds`` have passed and at least ``min_requests`` ran, ``limit``
    entries ran, or the catalog is used up.  Inputs are generated and
    outputs checked between timed requests, and with ``speed`` the host
    reference is sampled there too.  With ``record`` the digests are
    collected instead of checked.  Adds to ``tally`` if one is given."""
    size = gen.CATALOG_SIZE[w.name]
    limit = size if limit is None else min(limit, size)
    table = None if record is not None else DigestTable(w.name)
    tally = Tally() if tally is None else tally
    clock = time.perf_counter
    began = clock()
    done = 0
    entries = first or None
    while done < limit:
        if entries is None:
            entries = [w.entry((start + j) % size) for j in range(done, min(done + CHUNK, limit))]
        entries = entries[: limit - done]
        if speed is not None:
            speed.sample(REFERENCES_PER_CHUNK)
        results = []
        for e in entries:
            if tracer is not None:
                tracer.ops += 1
            t0 = clock()
            try:
                status, out = w.execute(e)
            except Exception as exc:  # any crash is a failed request
                status, out = "failed", f"{type(exc).__name__}: {exc}"
            results.append((e, status, out, t0, clock() - t0))
        if tracer is not None:
            tracer.on = False
        first_index = tally.attempted
        for j, (e, status, out, t0, dt) in enumerate(results):
            i = (start + done + j) % size
            text, law_ok = (out, False) if status == "failed" else w.render(e, status, out)
            if record is not None:
                if not law_ok:
                    raise RuntimeError(f"{w.name} entry {i}: {status} {text[:200]}")
                record.append(digest(status, text))
            elif not law_ok or digest(status, text) != table.expected(i):
                tally.wrong.append(f"{w.name} entry {i}: {status} {text[:120]}")
                law_ok = False
            tally.add(dt, not law_ok, status == "refused", t0)
        if tracer is not None:
            tracer.on = True
        if len(results) == CHUNK:
            tally.blocks.append((first_index, tally.attempted))
        done += len(results)
        entries = None
        if clock() - began >= seconds and done >= min_requests:
            break
    if speed is not None:
        speed.sample(REFERENCES_PER_CHUNK)
    return tally


# ---------------------------------------------------------------------------
# cells: one operad-forge process per enumerating request
# ---------------------------------------------------------------------------

CELLS_REQUESTS = {
    "graph": ["graph", "--k", "5", "--l", "3"],
    "cells": ["cells", "--k", "6", "--l", "3", "--nontrivial"],
    "reedy": ["reedy", "--k", "4", "--l", "4"],
    "refuse": ["--budget", "50000", "cells", "--k", "5", "--l", "5"],
}
# Regression data points: classes / edges / components, class count, and
# the refusal witness.
CELLS_PINS = {
    "graph": (90, 59, 31),
    "reedy": (516, 644, 78),
    "cells": 122,
    "refuse": '{"error":"census size 86704 exceeds budget 50000","k":5,"l":5}',
}


def cells_order(seed: int) -> list[str]:
    order = list(CELLS_REQUESTS)
    Random(f"cells:{seed}").shuffle(order)
    return order


def child_env() -> dict:
    """The caller's environment without settings that change a request: a
    budget from the environment, another copy of the package, or a ban on
    bytecode caches (an installed package is compiled once, not on every
    start)."""
    return {k: v for k, v in os.environ.items()
            if k not in ("OPERAD_FORGE_BUDGET", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}


def _components(n: int, edges) -> int:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(b)
    return len({find(i) for i in range(n)})


def check_cells(name: str, code: int, out: str) -> str | None:
    """Why a cells response is wrong, or None."""
    want_code = 1 if name == "refuse" else 0
    if code != want_code:
        return f"{name}: exit {code}, expected {want_code}"
    if name == "refuse":
        return None if out.strip() == CELLS_PINS[name] else f"refuse: witness {out[:120]}"
    try:
        data = json.loads(out)
    except json.JSONDecodeError:
        return f"{name}: stdout is not JSON: {out[:120]}"
    if name == "cells":
        got = len(data["classes"])
        return None if got == CELLS_PINS[name] else f"cells: {got} classes"
    if name == "graph":
        n, edges = len(data["classes"]), data["edges"]
    else:
        n = sum(1 for o in data["objects"] if o["object"][0] == "vertex")
        edges = [o["object"][1:] for o in data["objects"] if o["object"][0] == "pair"]
    got = (n, len(edges), _components(n, edges))
    return None if got == CELLS_PINS[name] else f"{name}: counts {got}"


def cells_digests() -> dict:
    path = DATA / "cells.json"
    return json.loads(path.read_text()) if path.exists() else {}


def run_cells_pass(order: list[str], trace_dir: str | None, tally: Tally,
                   outputs: dict | None = None, speed=None) -> float:
    """One pass over the request list, sampling the host reference with
    ``speed`` before, during (see ``launch.py``) and after each request;
    returns its wall seconds and adds the pass to ``tally.blocks``."""
    digests = cells_digests()
    launcher = str(BENCH / "launch.py")
    speed_file = str(BENCH / f".speed-{os.getpid()}.json")
    first_index = tally.attempted
    began = time.perf_counter()
    for name in order:
        if speed is not None:
            speed.sample(REFERENCES_PER_PROCESS)
        cmd = [sys.executable, launcher]
        if trace_dir is not None:
            cmd += ["--trace", os.path.join(trace_dir, f"{name}.json")]
        if speed is not None:
            cmd += ["--speed", speed_file]
        cmd += ["--", *CELLS_REQUESTS[name]]
        t0 = time.perf_counter()
        p = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                           capture_output=True, text=True)
        dt = time.perf_counter() - t0
        if speed is not None and os.path.exists(speed_file):
            # The request sampled the host itself; its samples' time is not
            # the request's.
            dt -= speed.load(speed_file)
        why = check_cells(name, p.returncode, p.stdout)
        sha = hashlib.sha256(p.stdout.encode()).hexdigest()
        if outputs is not None:
            outputs[name] = sha
        elif why is None and digests.get(name) != sha:
            why = f"{name}: output digest {sha[:12]} differs from the recorded one"
        if why:
            tally.wrong.append(f"{why} {p.stderr[-300:]}".strip())
        tally.add(dt, why is not None, name == "refuse", t0, kind=name)
    if speed is not None:
        speed.sample(REFERENCES_PER_PROCESS)
    tally.blocks.append((first_index, tally.attempted))
    return time.perf_counter() - began


def peak_child_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def trace_dir():
    return tempfile.TemporaryDirectory(prefix=".trace-", dir=BENCH)

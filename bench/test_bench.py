"""Tests of the benchmark's own logic.

    python3 -m pytest -q bench/test_bench.py
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import gen  # noqa: E402
import hostspeed  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402


def test_nearest_rank_percentile():
    values = [float(v) for v in range(1, 101)]
    assert wl.percentile(values, 0.5) == 50
    assert wl.percentile(values, 0.99) == 99
    assert wl.percentile(values, 1.0) == 100
    assert wl.percentile([7.0], 0.99) == 7


def test_ten_samples_beyond_p99_need_a_thousand_requests():
    assert wl.beyond(1000, 0.99) == 10
    assert wl.beyond(999, 0.99) < 10


class SteadyHost:
    def scale(self, t):
        return 1.0


def test_failed_request_counts_as_slower_than_any_success():
    t = wl.Tally()
    for i in range(1000):
        t.add(0.001 * (i + 1), False, False, start=i)
    t.add(0.0, True, False, start=1000)
    t.blocks.append((0, 1001))
    m = t.metrics(5.0, SteadyHost())
    assert m["latency_p99_ms"] == 991.0  # the failure sits beyond p99
    assert m["ok_ratio"] == 1000 / 1001
    many = wl.Tally()
    for i in range(100):
        many.add(0.001, i >= 90, False, start=i)
    many.blocks.append((0, 100))
    assert many.metrics(5.0, SteadyHost())["latency_p99_ms"] == 5000.0


def test_fixed_requests_enter_the_percentiles_once_each():
    t = wl.Tally()
    for i, (kind, seconds) in enumerate([("a", 1.0), ("b", 3.0), ("a", 2.0), ("b", 5.0)]):
        t.add(seconds, False, False, start=10.0 * i, kind=kind)
    t.blocks.append((0, 4))
    m = t.metrics(60.0, SteadyHost())
    assert m["latency_p50_ms"] == 2750.0  # mean of the medians 1.5 and 4
    assert m["latency_p99_ms"] == 4000.0


def test_times_are_scaled_by_the_nearest_reference_samples():
    speed = hostspeed.HostSpeed()
    # The host runs at nominal speed until t=100, then twice as slow.
    speed.at = [float(i) for i in range(200)]
    speed.took = [hostspeed.REFERENCE_S * (1 if i < 100 else 2) for i in range(200)]
    assert speed.scale(10.0) == 1.0
    assert speed.scale(190.0) == 0.5
    t = wl.Tally()
    t.add(2.0, False, True, start=9.0)  # mid 10: nominal host
    t.add(4.0, False, False, start=188.0)  # mid 190: slow host
    t.blocks.append((0, 2))
    m = t.metrics(60.0, speed)
    assert m["refuse_s"] == 2.0 and m["job_s"] == 4.0
    assert m["ops_per_s"] == 2 / 4.0


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_is_duration_minus_child_spans():
    # outer [0, 10] holds a [1, 5] (which holds b [2, 3]) and b [6, 8].
    t = tracer.Tracer(clock=FakeClock([0, 1, 2, 3, 5, 6, 8, 10]))
    t.enter("outer")
    t.enter("a")
    t.enter("b")
    t.exit()
    t.exit()
    t.enter("b")
    t.exit()
    t.exit()
    assert t.total == {"outer": 10, "a": 4, "b": 3}
    assert t.self_s == {"outer": 4, "a": 3, "b": 3}
    assert t.calls == {"outer": 1, "a": 1, "b": 2}


def test_wrapped_functions_nest_and_pause():
    t = tracer.Tracer(clock=FakeClock([0, 1, 3, 4]))
    inner = t.wrap("inner", lambda x: x + 1)
    outer = t.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert t.self_s == {"outer": 2, "inner": 2}
    t.on = False
    assert outer(1) == 4
    assert t.calls == {"outer": 1, "inner": 1}


def test_hook_time_is_kept_out_of_every_layer():
    # outer [0, 6] holds inner's hook [1, 2] and inner [3, 5].
    t = tracer.Tracer(clock=FakeClock([0, 1, 2, 3, 5, 6]))
    seen = []
    inner = t.wrap("inner", lambda x: x + 1, before=lambda tr, args: seen.append(args))
    outer = t.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4 and seen == [(1,)]
    assert t.self_s == {"outer": 3, "inner": 2, tracer.HOOK_SPAN: 1}
    assert tracer.top_self(t) == "outer"


def test_merge_adds_totals_of_another_process():
    a, b = tracer.Tracer(clock=FakeClock([0, 2])), tracer.Tracer(clock=FakeClock([0, 3]))
    for t in (a, b):
        t.ops = 1
        t.enter("cli.main")
        t.exit()
    a.merge(b.to_json())
    assert (a.ops, a.calls["cli.main"], a.total["cli.main"]) == (2, 2, 5)


def test_catalog_entries_do_not_depend_on_the_seed():
    assert gen.normalize_entry(17) == gen.normalize_entry(17)
    assert gen.start_offset("normalize", 1) != gen.start_offset("normalize", 2)


class ChangedOutput(wl.Normalize):
    """The normalize workload with one output byte changed."""

    def execute(self, e):
        status, text = super().execute(e)
        return status, text.replace('"operad"', '"operad" ', 1)


def test_digest_check_catches_a_changed_output():
    good = wl.measure(wl.Normalize(), 0, [], 0, 0, limit=20)
    assert good.attempted == 20 and not good.wrong
    bad = wl.measure(ChangedOutput(), 0, [], 0, 0, limit=20)
    assert len(bad.wrong) == 20 and bad.failed == 20


def test_cells_check_pins_the_counts():
    assert wl.check_cells("refuse", 1, wl.CELLS_PINS["refuse"] + "\n") is None
    assert wl.check_cells("refuse", 0, "") is not None
    assert wl.check_cells("cells", 0, '{"classes": [1, 2]}') == "cells: 2 classes"


def test_samples_of_another_process_merge_in_time_order(tmp_path):
    mine, child = hostspeed.HostSpeed(), hostspeed.HostSpeed()
    mine.at, mine.took = [1.0, 9.0], [0.005, 0.005]
    child.at, child.took = [4.0, 6.0], [0.004, 0.006]
    child.dump(str(tmp_path / "s.json"))
    assert mine.load(str(tmp_path / "s.json")) == 0.01
    assert mine.at == [1.0, 4.0, 6.0, 9.0] and mine.took == [0.005, 0.004, 0.006, 0.005]
    assert not (tmp_path / "s.json").exists()

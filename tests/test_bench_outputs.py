"""The benchmark's recorded outputs still hold: a slice of each in-process
workload's catalog and one pass over the ``cells`` requests, checked
against ``bench/data`` exactly as ``bench/run.py`` checks them, and every
name the benchmark's tracer rebinds still exists.  The ``bench`` modules
are imported, never changed."""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
try:
    import tracer
    import workloads as wl
finally:
    sys.path.remove(str(BENCH))


@pytest.mark.parametrize("name", ["normalize", "laws"])
def test_in_process_outputs_match_the_digests(name):
    w = wl.IN_PROCESS[name]()
    tally = wl.Tally()
    for start in (0, 25000, 50000, 75000):
        wl.measure(w, start, [], 0, 250, limit=250, tally=tally)
    assert tally.attempted == 1000
    assert tally.wrong == []
    assert tally.failed == 0


def test_cells_outputs_match_the_digests():
    tally = wl.Tally()
    wl.run_cells_pass(list(wl.CELLS_REQUESTS), None, tally)
    assert tally.attempted == len(wl.CELLS_REQUESTS)
    assert tally.wrong == []
    assert tally.failed == 0


def test_traced_names_resolve():
    importlib.import_module("operad_forge.cli")  # loads every layer
    for layer, names in tracer.FUNCTIONS.items():
        module = sys.modules[f"operad_forge.{layer}"]
        for name in names:
            assert callable(getattr(module, name)), f"{layer}.{name}"
    operads = sys.modules["operad_forge.operads"]
    for span, (layer, cls_name, method) in tracer.METHODS.items():
        if cls_name is None:
            owners = [c for c in vars(operads).values()
                      if isinstance(c, type) and issubclass(c, operads.Operad)
                      and c is not operads.Operad and method in vars(c)]
        else:
            cls = getattr(sys.modules[f"operad_forge.{layer}"], cls_name)
            owners = [cls] if method in vars(cls) else []
        assert owners, span

"""The benchmark's recorded outputs still hold: a slice of each in-process
workload's catalog and one pass over the ``cells`` requests, checked
against ``bench/data`` exactly as ``bench/run.py`` checks them, the
``laws`` slice stays within pinned counts of normalizations, working-form
conversions, validations and canonicalization's actions and keys, the
``normalize`` slice within pinned counts of ``dumps`` calls and identity
actions, and every name the benchmark's tracer rebinds still exists.  The
``bench`` modules are imported, never changed."""

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


def _replay(w):
    """Entries 0-249 at catalog starts 0, 25,000, 50,000 and 75,000, and
    what the measuring loop saw of them."""
    tally = wl.Tally()
    for start in (0, 25000, 50000, 75000):
        wl.measure(w, start, [], 0, 250, limit=250, tally=tally)
    assert tally.attempted == 1000
    assert tally.wrong == []
    assert tally.failed == 0
    return tally


@pytest.mark.parametrize("name", ["normalize", "laws"])
def test_in_process_outputs_match_the_digests(name):
    _replay(wl.IN_PROCESS[name]())


def _layer(cls) -> str:
    """The resolution, ``"bv"`` or ``"wb"``, of a point class."""
    return cls.__module__.rsplit(".", 1)[-1]


def _count_calls(monkeypatch, original, per_resolution=False) -> dict:
    """Rebind ``original`` wherever a module of the package binds it to a
    wrapper that counts its calls in the returned dict: under ``"calls"``,
    or per resolution (``_layer``) when its first argument is the point
    class the engine of ``trees`` is run for."""
    counter = dict.fromkeys(("bv", "wb") if per_resolution else ("calls",), 0)

    def counted(*args, **kwargs):
        counter[_layer(args[0]) if per_resolution else "calls"] += 1
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is not None and name.split(".")[0] == "operad_forge":
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return counter


# Normalizations in ``bv`` over that ``laws`` slice, counted where every one
# of them enters, ``trees.normal`` run for ``BVPoint`` (``bv_normalize`` and
# the grafts and cuts that normalize the working form they built; it was
# ``bv._normal`` until both resolutions shared one engine): 4,310 while
# every identity action and every ``iota`` re-normalized, 1,485 since
# normal forms are trusted, 853 since ``mu_tilde`` folds its labels' images
# in the operad instead of composing (and normalizing) the labels in the
# resolution, 367 since acting on a normal form only presents the new word.
# Work counts do not depend on the host, so losing a shortcut fails here
# anywhere.  Tighten the bound when a change lowers the work.
LAWS_BV_NORMALIZE_CALLS = 367


def test_laws_slice_stays_within_its_normalization_bound(monkeypatch):
    w = wl.IN_PROCESS["laws"]()
    normal = _count_calls(monkeypatch, sys.modules["operad_forge.trees"].normal, True)
    _replay(w)
    assert 0 < normal["bv"] <= LAWS_BV_NORMALIZE_CALLS


# Conversions between the immutable points and the mutable ``Node`` working
# form over the same slice: 3,371 ``to_nodes`` and 2,813 ``from_nodes``
# calls while a graft or a cut packed its working form into a point for
# the normalizer to unpack again, 2,404 and 1,846 since it normalizes the
# working form in hand, 1,911 and 1,353 since acting on a one-vertex normal
# form only acts on its label.  Both resolutions reach them through the
# engine's ``trees.nodes_of`` and ``trees.point_of``, and ``canonical_form``
# through its own calls.  Tighten the bounds when a change lowers the work.
LAWS_WORKING_FORM_CALLS = {"to_nodes": 1911, "from_nodes": 1353}


def test_laws_slice_stays_within_its_working_form_bound(monkeypatch):
    w = wl.IN_PROCESS["laws"]()
    trees = sys.modules["operad_forge.trees"]
    counts = {
        name: _count_calls(monkeypatch, getattr(trees, name))
        for name in LAWS_WORKING_FORM_CALLS
    }
    _replay(w)
    for name, bound in LAWS_WORKING_FORM_CALLS.items():
        assert 0 < counts[name]["calls"] <= bound, name


# Acts on normal forms over the same slice that present the new word with
# no rewriting, per layer: a presentation (``trees.present``, counted by the
# point class it is run for) with no rewriting (the class's ``_rewrite``)
# before it.  In ``bv`` they are the 486 of the 853
# normalizations above that became presentations; the bound keeps the work
# moved out of ``bv_normalize`` from growing.  486 in ``bv`` and 152 in
# ``wb``, then 73 and 72 since a one-vertex normal form is not presented
# again: only its label is acted on.
LAWS_PRESENT_ONLY_ACTS = {"bv": 73, "wb": 72}


def test_laws_slice_stays_within_its_present_only_bound(monkeypatch):
    w = wl.IN_PROCESS["laws"]()
    presents = _count_calls(monkeypatch, sys.modules["operad_forge.trees"].present, True)
    rewrites = dict.fromkeys(LAWS_PRESENT_ONLY_ACTS, 0)
    for layer, name in (("bv", "BVPoint"), ("wb", "WBPoint")):
        cls = getattr(sys.modules[f"operad_forge.{layer}"], name)

        def counted(*args, original=cls._rewrite, layer=layer):
            rewrites[layer] += 1
            return original(*args)

        monkeypatch.setattr(cls, "_rewrite", staticmethod(counted))
    _replay(w)
    for layer, bound in LAWS_PRESENT_ONLY_ACTS.items():
        assert 0 < presents[layer] - rewrites[layer] <= bound, layer


# ``_validate_raw`` calls (``bv`` and ``wb`` together) over the same slice:
# 2,363 while the normalizers and the cell classifiers re-checked every
# point, 40 since only ``raw_bv`` and ``raw_wb`` validate (the ``raw_wb``
# of ``wb_gamma0``).  Tighten the bound when a change lowers the work.
LAWS_VALIDATE_RAW_CALLS = 40


def test_laws_slice_stays_within_its_validation_bound(monkeypatch):
    w = wl.IN_PROCESS["laws"]()
    calls = 0
    for layer in ("bv", "wb"):
        module = sys.modules[f"operad_forge.{layer}"]

        def counted(p, original=module._validate_raw):
            nonlocal calls
            calls += 1
            return original(p)

        monkeypatch.setattr(module, "_validate_raw", counted)
    _replay(w)
    assert 0 < calls <= LAWS_VALIDATE_RAW_CALLS


# Symmetric actions and label keys that ``trees.canonicalize`` makes over
# the same slice, per layer (``bv`` acts on and keys operad labels, ``wb``
# its ``bv`` labels): 1,616 actions and 757 keys in ``bv`` and 2,317 and
# 1,481 in ``wb`` while every vertex acted on its label and every vertex
# below the root was keyed; 623 and 322 in ``bv`` and 384 and 386 in ``wb``
# since a vertex whose kids are already in order keeps its label with no
# action and only leafless subtrees are keyed; 617 and 377 actions since a
# tied block already in slot order is not acted on by the identity; 204 and
# 297 since a one-vertex normal form is acted on outside ``canonicalize``.
# Each ``canonicalize`` is counted for the innermost ``trees.present`` in
# progress, by the point class it is run for (a ``wb`` presentation acts on
# its labels by ``bv_act``, which presents them in ``bv``).  Tighten the
# bounds when a change lowers the work.
LAWS_CANONICALIZE_WORK = {"bv": {"act": 204, "key": 322}, "wb": {"act": 297, "key": 386}}


def test_laws_slice_stays_within_its_canonicalize_bound(monkeypatch):
    w = wl.IN_PROCESS["laws"]()
    trees = sys.modules["operad_forge.trees"]
    counts = {layer: {"act": 0, "key": 0} for layer in LAWS_CANONICALIZE_WORK}
    presenting = []  # the counts of the presentations in progress, innermost last

    def counted_present(cls, *args, original=trees.present):
        presenting.append(counts[_layer(cls)])
        try:
            return original(cls, *args)
        finally:
            presenting.pop()

    def counted(root, act, key, original=trees.canonicalize):
        count = presenting[-1]

        def counted_act(label, sigma):
            count["act"] += 1
            return act(label, sigma)

        def counted_key(label):
            count["key"] += 1
            return key(label)

        return original(root, counted_act, counted_key)

    monkeypatch.setattr(trees, "present", counted_present)
    monkeypatch.setattr(trees, "canonicalize", counted)
    _replay(w)
    for layer, bounds in LAWS_CANONICALIZE_WORK.items():
        for work, bound in bounds.items():
            assert 0 < counts[layer][work] <= bound, (layer, work)


# Work on the ``normalize`` slice that a request does not keep: calls of
# ``serialize.dumps``, and symmetric actions by the identity permutation.
# 1,000 and 3,081 while every answer was built as a dict tree for
# ``dumps`` and every label a point request decoded was acted on by the
# identity; 52 and 217 since points are written by ``serialize.bv_text``
# and ``wb_text`` and stored by ``Operad.canonical``; no identity action
# is left since ``free``'s ``canonical`` only sorts (185 were its identity
# action) and ``BVPoint.image`` skips a leaf word in order (32).  The 52
# ``dumps`` calls write the 52 refusal witnesses.  Tighten the bounds when
# a change lowers the work.
NORMALIZE_IDLE_WORK = {"dumps": 52, "identity act": 0}


def test_normalize_slice_stays_within_its_idle_work_bound(monkeypatch):
    w = wl.IN_PROCESS["normalize"]()
    dumps = _count_calls(monkeypatch, sys.modules["operad_forge.serialize"].dumps)
    operads = sys.modules["operad_forge.operads"]
    identity = {"calls": 0}
    for cls in list(vars(operads).values()):
        if isinstance(cls, type) and issubclass(cls, operads.Operad) and "act" in vars(cls):

            def counted(self, x, sigma, original=vars(cls)["act"]):
                identity["calls"] += tuple(sigma) == tuple(range(1, len(sigma) + 1))
                return original(self, x, sigma)

            monkeypatch.setattr(cls, "act", counted)
    tally = _replay(w)
    assert 0 < dumps["calls"] <= min(NORMALIZE_IDLE_WORK["dumps"], len(tally.refusals))
    assert identity["calls"] <= NORMALIZE_IDLE_WORK["identity act"]
    # the control: the hook counts an identity action of each stock operad
    before = identity["calls"]
    for name in ("assoc", "com", "end:2", "free:a=2:3"):
        op = operads.operad_by_name(name)
        op.act(op.unit(), (1,))
    assert identity["calls"] == before + 4


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

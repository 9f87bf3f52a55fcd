"""The default rewriting of both resolutions is one bottom-up pass, and
the random order of ``trees.rewrite_fixpoint`` is its oracle.  Hand-built
points where the rules meet each other in an order-sensitive way are
checked against several random orders on every stock operad, the work of
the pass on long chains is pinned by call counts, not timings, points
5,000 vertices deep normalize at the default recursion limit, points
1,200 deep compare, decompose, write and read back there, and points 3,000
deep are written there as text."""

import json
import re
import sys
from fractions import Fraction as F
from random import Random

import pytest

from operad_forge import bv, wb
from operad_forge.bv import (
    bv_compose,
    bv_decompose,
    bv_normalize,
    bv_prime_components,
    bv_reassemble,
    bv_unit,
    iota,
    mu,
    raw_bv,
)
from operad_forge.operads import operad_by_name
from operad_forge.trees import PlanarTree
from operad_forge.serialize import (
    bv_from_json,
    bv_text,
    bv_to_json,
    dot_bv,
    shape_from_json,
    shape_to_json,
    wb_from_json,
    wb_text,
)
from operad_forge.wb import raw_wb, wb_normalize, wb_prime_components

OPERADS = [operad_by_name(n) for n in ("assoc", "com", "end:2", "free:a=2,b=3:4")]
SEEDS = (1, 7, 19, 42, 1001)


def V(label, t, *kids):
    """A vertex: its label, its edge length (``bv``) or height (``wb``),
    and its kids, each a vertex or ``None`` for a leaf."""
    return (label, t, kids)


def _flatten(spec):
    """``(shape, labels, ts)`` of a vertex spec, labels and ts in preorder."""
    labels, ts = [], []

    def build(s):
        label, t, kids = s
        labels.append(label)
        ts.append(t)
        return PlanarTree(tuple(None if k is None else build(k) for k in kids))

    return build(spec), tuple(labels), tuple(ts)


def _raw_bv(op, spec):
    shape, labels, ts = _flatten(spec)
    return raw_bv(op, shape, labels, ts[1:])


def _raw_wb(op, spec):
    shape, labels, ts = _flatten(spec)
    return raw_wb(op, shape, labels, ts)


def _bv_cases(op):
    u, a2, a3 = op.unit(), op.elements(2)[-1], op.elements(3)[-1]
    cases = {
        "unit on a zero edge": V(a2, None, V(u, F(0), V(a2, F(1, 2), None, None)), None),
        "unit over a zero edge": V(a2, None, V(u, F(1, 3), V(a2, F(0), None, None)), None),
        "unit root over a vertex": V(u, None, V(a2, F(1, 3), None, V(a2, F(0), None, None))),
        "chain of units": V(
            a2, None, V(u, F(1, 4), V(u, F(0), V(u, F(3, 4), V(a2, F(1, 2), None, None)))),
            None,
        ),
        "chain of zero edges": V(a2, None, V(a2, F(0), V(a2, F(0), None, None), None), None),
        "zero edges under a unit root": V(
            u, None, V(a2, F(0), V(a2, F(0), None, None), None)
        ),
    }
    if op.elements(0):
        a0 = op.elements(0)[0]
        cases.update({
            "arity-0 kid at the root": V(a2, None, V(a0, F(0)), None),
            "arity-0 kid leaves a root over a vertex": V(
                a2, None, V(a0, F(0)), V(a2, F(1, 2), None, None)
            ),
            "arity-0 kid in the middle": V(
                a3, None, None,
                V(a2, F(1, 2), V(a0, F(0)), V(a2, F(1, 3), None, None)), None,
            ),
        })
    return cases


def _wb_cases(op):
    u, p2 = bv_unit(op), iota(op, op.elements(2)[-1])
    big = bv_compose(p2, 1, p2)  # not a corolla: collapsed at heights 0 and 1
    raw_unit = raw_bv(op, PlanarTree((PlanarTree((None,)),)), (op.unit(),) * 2, (F(1, 2),))
    h, k = F(1, 2), F(1, 4)
    cases = {
        "unit between two equal heights": V(p2, h, V(u, h, V(p2, h, None, None)), None),
        "merge into a unit root": V(u, k, V(p2, k, None, None)),
        "merge into a unit label": V(p2, k, V(u, h, V(p2, h, None, None)), None),
        "merge then collapse at height 0": V(
            big, F(0), V(p2, F(0), None, None), None, None
        ),
        "merge then collapse at height 1": V(
            p2, h, V(big, F(1), V(p2, F(1), None, None), None, None), None
        ),
        "degenerate unit root over a leaf": V(u, h, None),
        "raw unit labels over a leaf": V(raw_unit, k, V(u, h, None)),
        "raw unit label between equal heights": V(
            p2, h, V(raw_unit, h, V(big, h, None, None, None)), None
        ),
    }
    if op.elements(0):
        p0 = iota(op, op.elements(0)[0])
        cases.update({
            "collapse to arity 1 at height 0": V(p2, F(0), V(p0, F(0)), None),
            "collapse to arity 1 at height 1": V(
                p2, k, V(p2, F(1), V(p0, F(1)), None), V(p2, h, None, None)
            ),
        })
    return cases


@pytest.mark.parametrize("op", OPERADS, ids=lambda o: o.name)
def test_order_sensitive_bv_patterns_match_random_orders(op):
    for name, spec in _bv_cases(op).items():
        raw = _raw_bv(op, spec)
        x = bv_normalize(raw)
        assert bv_normalize(x) == x, name
        for s in SEEDS:
            assert repr(bv_normalize(raw, Random(s))) == repr(x), (name, s)


@pytest.mark.parametrize("op", OPERADS, ids=lambda o: o.name)
def test_order_sensitive_wb_patterns_match_random_orders(op):
    for name, spec in _wb_cases(op).items():
        raw = _raw_wb(op, spec)
        y = wb_normalize(raw)
        assert wb_normalize(y) == y, name
        for s in SEEDS:
            assert repr(wb_normalize(raw, Random(s))) == repr(y), (name, s)


def test_the_patterns_reach_the_cases_they_name():
    op = operad_by_name("assoc")
    unit_root = _raw_bv(op, _bv_cases(op)["arity-0 kid leaves a root over a vertex"])
    assert bv_normalize(unit_root) == iota(op, op.elements(2)[-1])
    middle = bv_normalize(_raw_bv(op, _bv_cases(op)["arity-0 kid in the middle"]))
    assert middle.n_vertices == 2 and middle.params == (F(1, 2),)
    degenerate = wb_normalize(_raw_wb(op, _wb_cases(op)["collapse to arity 1 at height 0"]))
    assert degenerate.n_main_vertices == 1 and degenerate.heights == (F(0),)
    assert degenerate.labels == (bv_unit(op),)


def _counter(monkeypatch, module, name) -> dict:
    """Rebind ``module.name`` to a wrapper that counts its calls."""
    calls = {"n": 0}
    original = getattr(module, name)

    def counted(*args):
        calls["n"] += 1
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("name", ["com", "assoc"])
def test_a_zero_length_comb_contracts_in_one_pass(name, monkeypatch):
    # Each vertex of the comb is contracted once, bottom up, with no walk
    # of the whole tree: the random order (``rewrite_fixpoint``) lists the
    # redexes n times.
    op, n = operad_by_name(name), 800
    shape = PlanarTree((None, None))
    for _ in range(n - 1):
        shape = PlanarTree((None, shape))
    raw = raw_bv(op, shape, (op.elements(2)[0],) * n, (F(0),) * (n - 1))
    want = mu(raw)
    redexes = _counter(monkeypatch, bv, "rewrite_fixpoint")
    composes = _counter(monkeypatch, type(op), "compose")
    x = bv_normalize(raw)
    assert x.is_corolla and x.labels == (want,) and x.arity == n + 1
    assert redexes["n"] == 0
    assert composes["n"] == n - 1


def test_a_chain_of_equal_heights_merges_once_per_edge(monkeypatch):
    op, n = operad_by_name("assoc"), 30
    p2 = iota(op, (2, 1))
    spec = V(p2, F(1, 2), None, None)
    for _ in range(n - 1):
        spec = V(p2, F(1, 2), spec, None)
    raw = _raw_wb(op, spec)
    redexes = [_counter(monkeypatch, m, "rewrite_fixpoint") for m in (bv, wb)]
    composes = _counter(monkeypatch, wb, "bv_compose")
    y = wb_normalize(raw)
    assert y.n_main_vertices == 1 and y.labels[0].n_vertices == n
    assert [c["n"] for c in redexes] == [0, 0]
    assert composes["n"] == n - 1


# No walk from a working form to a normal form recurses, so the depth of a
# point is bounded by memory, not by the interpreter's recursion limit.
DEEP = 5000


@pytest.fixture
def default_recursion_limit():
    """Run the test at the interpreter's default recursion limit (1,000),
    whatever the runner set it to."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(limit)


def _comb(n: int) -> PlanarTree:
    """The binary comb with ``n`` vertices: each vertex has a leaf, then the
    next vertex, and the last has two leaves."""
    shape = PlanarTree((None, None))
    for _ in range(n - 1):
        shape = PlanarTree((None, shape))
    return shape


def _deep_com_point(n: int):
    op = operad_by_name("com")
    return raw_bv(op, _comb(n), (2,) * n, (F(1, 2),) * (n - 1))


def test_a_deep_comb_normalizes_in_bv(default_recursion_limit):
    raw = _deep_com_point(DEEP)
    x = bv_normalize(raw)
    assert x.canonical and x.n_vertices == DEEP and x.arity == DEEP + 1
    assert x.params == (F(1, 2),) * (DEEP - 1) and x.labels == (2,) * DEEP
    assert repr(x.tree.shape) == repr(raw.tree.shape)
    # the random-order oracle finds no redex and presents the same point
    assert repr(bv_normalize(raw, Random(3))) == repr(x)
    assert repr(bv_normalize(x)) == repr(x)


def test_a_deep_comb_normalizes_as_a_main_chain_in_wb(default_recursion_limit):
    op = operad_by_name("com")
    heights = tuple(F(v, DEEP) for v in range(DEEP))  # rising, from 0
    raw = raw_wb(op, _comb(DEEP), (iota(op, 2),) * DEEP, heights)
    y = wb_normalize(raw)
    assert y.canonical and y.n_main_vertices == DEEP and y.heights == heights
    assert y.arity == DEEP + 1 and repr(wb_normalize(y)) == repr(y)


def test_a_corolla_composes_onto_a_deep_comb(default_recursion_limit):
    op = operad_by_name("com")
    x = bv_normalize(_deep_com_point(DEEP))
    deepest = x.tree.labels[-1]  # the last leaf, on the last vertex
    z = bv_compose(x, deepest, iota(op, 3))
    assert z.n_vertices == DEEP + 1 and z.arity == DEEP + 3
    assert sorted(z.params) == [F(1, 2)] * (DEEP - 1) + [F(1)]


def test_a_deep_zero_length_comb_contracts_to_a_corolla(
    default_recursion_limit, monkeypatch
):
    op = operad_by_name("assoc")
    raw = raw_bv(op, _comb(DEEP), ((1, 2),) * DEEP, (F(0),) * (DEEP - 1))
    composes = _counter(monkeypatch, type(op), "compose")
    x = bv_normalize(raw)
    assert composes["n"] == DEEP - 1
    assert x.is_corolla and x.labels == (tuple(range(1, DEEP + 2)),)


def test_a_deep_label_is_keyed_below_the_main_root(default_recursion_limit):
    # a non-root main vertex's label is ordered by ``BVPoint.order_key``,
    # which reads the label tree's ``repr``
    op = operad_by_name("com")
    label = _deep_com_point(3000)
    main = PlanarTree((PlanarTree((None,) * label.arity), None))
    raw = raw_wb(op, main, (iota(op, 2), label), (F(1, 3), F(2, 3)))
    y = wb_normalize(raw)
    assert y.n_main_vertices == 2 and y.heights == (F(1, 3), F(2, 3))
    deep = next(a for a in y.labels if a.n_vertices > 1)
    assert deep.n_vertices == 3000 and deep.arity == 3001
    assert json.loads(deep.order_key)[0] == repr(label.tree.shape)


# Past the recursion limit but well short of ``DEEP``: the walks off the
# normalize path (equality, the cuts of both decompositions, the writers)
# keep their own stacks too.
CUT = 1200


def test_two_equal_deep_combs_compare_equal(default_recursion_limit):
    x, y = bv_normalize(_deep_com_point(CUT)), bv_normalize(_deep_com_point(CUT))
    assert x.tree.shape is not y.tree.shape
    assert x == y and x.tree.shape == _comb(CUT)
    longer = PlanarTree((None, PlanarTree((None, None, None))))
    for _ in range(CUT - 2):
        longer = PlanarTree((None, longer))
    assert longer != x.tree.shape and _comb(CUT + 1) != x.tree.shape


def test_a_deep_comb_decomposes_in_bv(default_recursion_limit):
    # no edge has length 1, so the point is its one prime component
    x = bv_normalize(_deep_com_point(CUT))
    assert bv_prime_components(x) == [x]


def test_a_deep_comb_decomposes_in_wb(default_recursion_limit):
    # every height inside (0, 1), so the whole main chain is one band
    op = operad_by_name("com")
    heights = tuple(F(v + 1, CUT + 1) for v in range(CUT))  # strictly rising
    y = wb_normalize(raw_wb(op, _comb(CUT), (iota(op, 2),) * CUT, heights))
    comps = wb_prime_components(y)
    assert len(comps) == 1 and comps[0].n_main_vertices == CUT
    assert comps[0].heights == heights and comps[0] == y


def test_a_deep_comb_writes_as_json(default_recursion_limit):
    x = bv_normalize(_deep_com_point(CUT))
    doc = bv_to_json(x)
    assert doc["tree"]["sigma"] == list(x.tree.labels)
    node, leaves, vertices = doc["tree"], [], 0
    while node is not None:  # down the comb: a leaf, then the next vertex
        kids = node["node"]["children"]
        leaves += [c["leaf"] for c in kids if "leaf" in c]
        node = next((c for c in kids if "node" in c), None)
        vertices += 1
    assert vertices == CUT and leaves == list(range(1, CUT + 2))


TEXT_DEEP = 3000


def test_a_deep_point_writes_as_text(default_recursion_limit):
    # the text writers keep their own stacks, so points 3,000 deep are
    # written at the default limit; ``json.loads`` recurses, so reading
    # them back needs a raised one
    op = operad_by_name("com")
    x = bv_normalize(_deep_com_point(TEXT_DEEP))
    heights = tuple(F(v, TEXT_DEEP) for v in range(TEXT_DEEP))
    y = wb_normalize(raw_wb(op, _comb(TEXT_DEEP), (iota(op, 2),) * TEXT_DEEP, heights))
    x_text, y_text = bv_text(x), wb_text(y)
    sys.setrecursionlimit(4 * 3 * TEXT_DEEP)
    assert bv_from_json(json.loads(x_text)) == x
    assert wb_from_json(json.loads(y_text)) == y


def test_a_deep_comb_writes_as_dot(default_recursion_limit):
    x = bv_normalize(_deep_com_point(CUT))
    lines = dot_bv(x).splitlines()
    assert lines[:3] == ["digraph bv {", "  rankdir=BT;", '  v0 [shape=circle, label="2"];']
    assert len(lines) == 3 + (CUT - 1) * 2 + (CUT + 1) * 2 + 1
    assert lines[-2:] == ['  v1 -> v0 [label="1/2"];', "}"]
    assert sum(line.endswith(' [label="1/2"];') for line in lines) == CUT - 1


def test_a_deep_comb_reads_back_from_json(default_recursion_limit):
    shape = _comb(CUT)
    doc = shape_to_json(shape)
    assert shape_from_json(doc) == shape
    # a malformed node at the bottom fails as it does near the top
    node = doc
    while "node" in node["node"]["children"][1]:
        node = node["node"]["children"][1]
    node["node"]["children"][1] = {"lea": 1}
    malformed = re.escape("expected a node object, got {'lea': 1}")
    with pytest.raises(ValueError, match=malformed):
        shape_from_json(doc)


# Reassembling a comb grafts one component per vertex, each graft
# normalizing the point built so far, so the walks over a decomposition
# tree are checked below a lowered limit, on a shorter comb.
LOW = 400


@pytest.fixture
def lowered_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(LOW)
    yield
    sys.setrecursionlimit(limit)


def test_a_deep_comb_of_unit_lengths_decomposes_and_reassembles(lowered_recursion_limit):
    # every edge has length 1, so each vertex is a prime component of its
    # own, and the cut tree is the comb itself
    n = LOW * 3 // 2
    op = operad_by_name("com")
    x = bv_normalize(raw_bv(op, _comb(n), (2,) * n, (F(1),) * (n - 1)))
    d = bv_decompose(x)
    comps = d.all_components()
    assert len(comps) == n and all(c == iota(op, 2) for c in comps)
    assert d.shape == _comb(n) and d.word == x.tree.labels
    assert bv_reassemble(d) == x

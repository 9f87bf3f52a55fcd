"""Serialization layer: JSON round-trips over several operads, the point
text writers against ``dumps`` of the dict documents, graph and category
exports with known counts, and DOT rendering."""

import io
import json
import sys
from fractions import Fraction as F
from random import Random

from operad_forge.bv import (
    BVPoint,
    bv_is_prime,
    bv_normalize,
    bv_prime_components,
    iota,
    raw_bv,
)
from operad_forge.cells import (
    ContractionGraph,
    build_graph,
    enumerate_upsilon,
    latching_index,
    reedy_of,
)
from operad_forge.operads import AssocOperad, EndOperad, operad_by_name
from operad_forge.cli import main
from operad_forge.sampling import (
    random_bv,
    random_cubes,
    random_element,
    random_fraction,
    random_wb,
)
from operad_forge.serialize import (
    bv_from_json,
    bv_text,
    bv_to_json,
    cubes_from_json,
    cubes_to_json,
    dot_bv,
    dot_graph,
    dot_tree,
    dot_wb,
    dumps,
    graph_to_json,
    reedy_text,
    reedy_to_json,
    upsilon_from_json,
    upsilon_to_json,
    wb_from_json,
    wb_text,
    wb_to_json,
)
from operad_forge.trees import PlanarTree, Tree
from operad_forge.wb import raw_wb, wb_is_prime, wb_normalize, wb_prime_components


def _roundtrip(d):
    return json.loads(dumps(d))


def test_point_roundtrips_over_operads():
    rng = Random(1)
    ops = [
        AssocOperad(),
        EndOperad(2),
        operad_by_name("free:m=2:5"),
        operad_by_name("com"),
    ]
    for op in ops:
        # the free operad has no arity-0 generators, so stay positive there
        ma = 1 if op.name.startswith("free") else 0
        for _ in range(40):
            p = random_bv(rng, op, min_arity=ma)
            q = bv_from_json(_roundtrip(bv_to_json(p)))
            assert q == p and q.operad_name == p.operad_name
            w = random_wb(rng, op, min_arity=ma)
            assert wb_from_json(_roundtrip(wb_to_json(w))) == w
            # DOT output renders without error and names every vertex
            assert dot_bv(p).count("label=") >= p.n_vertices
            assert dot_wb(w).startswith("digraph")
            assert dot_tree(p.tree).startswith("digraph")


WRITER_OPERADS = ("assoc", "com", "end:2", "free:a=2,b=3:4")


def _chain_bv(rng, op):
    """A raw point of 11 to 16 vertices on a chain: each vertex but the
    last has one to three inputs, the next vertex at a random one of them,
    so the edges numbered 10 and up exist."""
    shape = PlanarTree((None, None))
    for _ in range(rng.randint(10, 15)):
        kids = [None] * rng.randint(1, 3)
        kids[rng.randrange(len(kids))] = shape
        shape = PlanarTree(tuple(kids))
    labels = tuple(random_element(rng, op, sub.arity) for sub in shape.subtrees)
    params = tuple(random_fraction(rng) for _ in range(shape.n_vertices - 1))
    return raw_bv(op, shape, labels, params)


def _sample_points(rng, op):
    """Random raw points of both resolutions over ``op`` and chains of 11
    or more vertices, each followed by its normal form where it has one (a
    truncated free operad refuses some)."""
    ma = 1 if op.name.startswith("free") else 0
    for _ in range(40):
        for p in (random_bv(rng, op, min_arity=ma), _chain_bv(rng, op),
                  random_wb(rng, op, min_arity=ma)):
            yield p
            try:
                yield (bv_normalize if isinstance(p, BVPoint) else wb_normalize)(p)
            except ValueError:
                pass


def test_point_text_is_the_dumped_document():
    # the writers give the bytes of ``dumps`` of the dict documents, with
    # the ``edgeParams`` keys of points of 11 or more vertices in string
    # order ("10" before "2")
    rng, large = Random(31), 0
    for name in WRITER_OPERADS:
        op = operad_by_name(name)
        for p in _sample_points(rng, op):
            if isinstance(p, BVPoint):
                assert bv_text(p) == dumps(bv_to_json(p)), p
                large += p.n_vertices >= 11
            else:
                assert wb_text(p) == dumps(wb_to_json(p)), p
    assert large >= 100


def test_prime_output_is_the_dumped_document(capsys, monkeypatch):
    rng, checked = Random(32), 0
    for name in WRITER_OPERADS:
        op = operad_by_name(name)
        for _ in range(12):
            ma = 1 if name.startswith("free") else 0
            for kind, p, to_json, components, is_prime in (
                ("bv", random_bv(rng, op, 6, min_arity=ma), bv_to_json,
                 bv_prime_components, bv_is_prime),
                ("wb", random_wb(rng, op, 4, min_arity=ma), wb_to_json,
                 wb_prime_components, wb_is_prime),
            ):
                monkeypatch.setattr(sys, "stdin", io.StringIO(dumps(to_json(p))))
                code = main(["--operad", name, "prime", "--kind", kind])
                out = capsys.readouterr().out
                if code == 1:  # a truncated free operad refuses the point
                    continue
                x = (bv_normalize if kind == "bv" else wb_normalize)(p)
                doc = {"components": [to_json(c) for c in components(x)],
                       "prime": is_prime(x)}
                assert (code, out) == (0, dumps(doc) + "\n")
                checked += 1
    assert checked >= 80


def test_cube_roundtrip():
    rng = Random(2)
    for _ in range(40):
        c = random_cubes(rng, rng.randint(1, 3))
        assert cubes_from_json(_roundtrip(cubes_to_json(c))) == c


def test_index_roundtrip():
    for idx in enumerate_upsilon(4, 3, False)[::17]:
        assert upsilon_from_json(_roundtrip(upsilon_to_json(idx))) == idx


def test_graph_and_category_exports():
    g = build_graph(4, 3)
    gj = _roundtrip(graph_to_json(g))
    assert len(gj["classes"]) == 63
    assert len(gj["edges"]) == 41
    rj = _roundtrip(reedy_to_json(reedy_of(g)))
    # each contraction edge contributes its two face morphisms
    assert len(rj["morphisms"]) == 2 * 41
    s = dot_graph(g)
    assert s.count("->") == 41
    assert s.count("doublecircle") == len(g.initials)


def _reedy_document(g):
    """The ``reedy`` document built as a dict: ``reedy_to_json`` and each
    object's ``latching_index``."""
    r = reedy_of(g)
    out = reedy_to_json(r)
    out["latching"] = [
        {"object": list(o), "index": [[face, list(src)] for face, src in latching_index(r, o)]}
        for o in r.objects
    ]
    return out


def test_reedy_text_is_the_dumped_document():
    star = ContractionGraph(0, 0, (None,) * 4, ((0, 1), (0, 2), (3, 0)), ((0, 1, 2, 3),), (0,))
    empty = ContractionGraph(0, 0, (), (), (), ())
    for g in (build_graph(3, 2), build_graph(4, 3), build_graph(4, 4), star, empty):
        assert reedy_text(g) == dumps(_reedy_document(g))


# Exact DOT text of fixed points, recorded before the emitters shared one
# walker: a planar tree, a raw and a normalized resolution point (word not
# the identity, edge lengths 1/3 and 2/3), and a raw and a normalized
# bimodule point with two main vertices.
_DOT_PINNED = (
    (
        'digraph t {\n'
        '  rankdir=BT;\n'
        '  v0 [shape=circle, label=""];\n'
        '  v1 [shape=circle, label=""];\n'
        '  l1 [shape=plaintext, label="3"];\n'
        '  l1 -> v1;\n'
        '  l2 [shape=plaintext, label="1"];\n'
        '  l2 -> v1;\n'
        '  v1 -> v0;\n'
        '  l3 [shape=plaintext, label="4"];\n'
        '  l3 -> v0;\n'
        '  v2 [shape=circle, label=""];\n'
        '  l4 [shape=plaintext, label="2"];\n'
        '  l4 -> v2;\n'
        '  v2 -> v0;\n'
        '}\n'
    ),
    (
        'digraph bv {\n'
        '  rankdir=BT;\n'
        '  v0 [shape=circle, label="[2, 3, 1]"];\n'
        '  v1 [shape=circle, label="[2, 1]"];\n'
        '  l1 [shape=plaintext, label="3"];\n'
        '  l1 -> v1;\n'
        '  l2 [shape=plaintext, label="1"];\n'
        '  l2 -> v1;\n'
        '  v1 -> v0 [label="1/3"];\n'
        '  l3 [shape=plaintext, label="4"];\n'
        '  l3 -> v0;\n'
        '  v2 [shape=circle, label="[1]"];\n'
        '  l4 [shape=plaintext, label="2"];\n'
        '  l4 -> v2;\n'
        '  v2 -> v0 [label="2/3"];\n'
        '}\n'
    ),
    (
        'digraph bv {\n'
        '  rankdir=BT;\n'
        '  v0 [shape=circle, label="[2, 1, 3]"];\n'
        '  l1 [shape=plaintext, label="2"];\n'
        '  l1 -> v0;\n'
        '  l2 [shape=plaintext, label="4"];\n'
        '  l2 -> v0;\n'
        '  v1 [shape=circle, label="[1, 2]"];\n'
        '  l3 [shape=plaintext, label="1"];\n'
        '  l3 -> v1;\n'
        '  l4 [shape=plaintext, label="3"];\n'
        '  l4 -> v1;\n'
        '  v1 -> v0 [label="1/3"];\n'
        '}\n'
    ),
    (
        'digraph wb {\n'
        '  rankdir=BT;\n'
        '  m0 [shape=box, label="t=1/4\n'
        '(.(..)) [[1, 2], [2, 1]]"];\n'
        '  m1 [shape=box, label="t=1/2\n'
        '(..) [[1, 2]]"];\n'
        '  l1 [shape=plaintext, label="2"];\n'
        '  l1 -> m1;\n'
        '  l2 [shape=plaintext, label="4"];\n'
        '  l2 -> m1;\n'
        '  m1 -> m0;\n'
        '  l3 [shape=plaintext, label="1"];\n'
        '  l3 -> m0;\n'
        '  l4 [shape=plaintext, label="3"];\n'
        '  l4 -> m0;\n'
        '}\n'
    ),
    (
        'digraph w {\n'
        '  rankdir=BT;\n'
        '  m0 [shape=box, label="t=1/4\n'
        '(.(..)) [[1, 2], [1, 2]]"];\n'
        '  l1 [shape=plaintext, label="1"];\n'
        '  l1 -> m0;\n'
        '  l2 [shape=plaintext, label="3"];\n'
        '  l2 -> m0;\n'
        '  m1 [shape=box, label="t=1/2\n'
        '(..) [[1, 2]]"];\n'
        '  l3 [shape=plaintext, label="2"];\n'
        '  l3 -> m1;\n'
        '  l4 [shape=plaintext, label="4"];\n'
        '  l4 -> m1;\n'
        '  m1 -> m0;\n'
        '}\n'
    ),
)


def test_dot_output_is_pinned():
    A = AssocOperad()
    L = None
    shape = PlanarTree((PlanarTree((L, L)), L, PlanarTree((L,))))
    x = raw_bv(A, shape, ((2, 3, 1), (2, 1), (1,)), (F(1, 3), F(2, 3)), (3, 1, 4, 2))
    aux = bv_normalize(
        raw_bv(A, PlanarTree((PlanarTree((L, L)), L)), ((2, 1), (2, 1)), (F(1, 2),))
    )
    y = raw_wb(
        A, PlanarTree((PlanarTree((L, L)), L, L)), (aux, iota(A, (1, 2))),
        (F(1, 4), F(1, 2)), (2, 4, 1, 3),
    )
    got = (
        dot_tree(Tree(shape, (3, 1, 4, 2)), "t"),
        dot_bv(x),
        dot_bv(bv_normalize(x)),
        dot_wb(y),
        dot_wb(wb_normalize(y), name="w"),
    )
    assert got == _DOT_PINNED

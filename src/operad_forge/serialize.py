"""JSON and DOT serialization for trees, resolution points, interval
configurations, cell indices, contraction graphs, and Reedy data.

Conventions: rationals are strings ``"p/q"`` in lowest terms (plain integer
strings when the denominator is 1); JSON is emitted with sorted keys so the
byte output is stable; every ``*_from_json`` inverts the matching
``*_to_json``, and every ``*_text`` writes the bytes of ``dumps`` of its
``*_to_json`` straight from the value, with its own stack.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any, Optional

from .bv import BVPoint, raw_bv
from .cells import ContractionGraph, ReedyData, TreeClass, UpsilonIndex
from .operads import CubeConfig, Operad, identity_perm, operad_by_name
from .trees import PlanarTree, Tree
from .wb import WBPoint, raw_wb


# ---------------------------------------------------------------------------
# Rationals
# ---------------------------------------------------------------------------


def frac_str(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_frac(s: str) -> Fraction:
    """The inverse of ``frac_str``: an integer or ``p/q`` with ``q`` not 0.
    Other spellings that ``Fraction`` would take (decimals, exponents,
    spaces) are refused, so no string can stall or crash the parse."""
    if not isinstance(s, str):
        raise ValueError(f"rational must be a string, got {s!r}")
    m = _RATIONAL.fullmatch(s)
    if m is None:
        raise ValueError(f"rational must be an integer or p/q, got {s[:40]!r}")
    num, den = m.groups()
    if den is not None and int(den) == 0:
        raise ValueError(f"rational has denominator 0: {s[:40]!r}")
    return Fraction(int(num), int(den or 1))


# ---------------------------------------------------------------------------
# Trees
# ---------------------------------------------------------------------------


def shape_to_json(t: PlanarTree) -> dict:
    """``{"node": {"children": [...]}}`` per vertex and ``{"leaf": i}`` per
    leaf, numbered from 1 in planar order; written with its own stack."""
    leaf = 0
    out: dict = {"node": {"children": []}}
    stack = [(iter(t.children), out["node"]["children"])]
    while stack:
        children, kids = stack[-1]
        for c in children:
            if c is None:
                leaf += 1
                kids.append({"leaf": leaf})
            else:
                kids.append({"node": {"children": []}})
                stack.append((iter(c.children), kids[-1]["node"]["children"]))
                break
        else:
            stack.pop()
    return out


def shape_from_json(data: dict) -> PlanarTree:
    """The tree that ``shape_to_json`` writes, read with its own stack.  Each
    node is checked as it is entered, in the order a recursive reader would
    meet it, so a malformed node at any depth fails the same way."""

    def enter(d: dict):
        if "node" not in d:
            raise ValueError(f"expected a node object, got {d!r}")
        return iter(d["node"]["children"])

    stack = [(enter(data), [])]
    while True:
        children, kids = stack[-1]
        for c in children:
            if "leaf" in c:
                kids.append(None)
            else:
                stack.append((enter(c), []))
                break
        else:
            stack.pop()
            shape = PlanarTree(tuple(kids))
            if not stack:
                return shape
            stack[-1][1].append(shape)


def tree_to_json(t: Tree) -> dict:
    out = shape_to_json(t.shape)
    out["sigma"] = list(t.labels)
    return out


def _tree_parts(data: dict) -> tuple[PlanarTree, tuple[int, ...]]:
    """The shape and the leaf word of a tree document, the identity for no
    ``sigma``.  The word is checked to hold integers only: the ``Tree``
    built from it checks, once, that it is a permutation."""
    shape, sigma = shape_from_json(data), data.get("sigma")
    if sigma is None:
        return shape, identity_perm(shape.n_leaves)
    if not isinstance(sigma, list) or any(type(v) is not int for v in sigma):
        raise ValueError(f"sigma must be a list of integers, got {sigma!r:.40}")
    return shape, tuple(sigma)


def tree_from_json(data: dict) -> Tree:
    return Tree(*_tree_parts(data))


# ---------------------------------------------------------------------------
# Resolution points
# ---------------------------------------------------------------------------


def bv_to_json(p: BVPoint) -> dict:
    return {
        "operad": p.operad_name,
        "tree": tree_to_json(p.tree),
        "labels": [p.operad.encode(x) for x in p.labels],
        "edgeParams": {
            str(v): frac_str(p.params[v - 1])
            for v in range(1, p.n_vertices)
        },
    }


def bv_from_json(data: dict, operad: Optional[Operad] = None) -> BVPoint:
    if operad is None:
        operad = operad_by_name(data["operad"])
    shape, word = _tree_parts(data["tree"])
    labels = tuple(operad.decode(x) for x in data["labels"])
    params = tuple(
        parse_frac(data["edgeParams"][str(v)]) for v in range(1, shape.n_vertices)
    )
    return raw_bv(operad, shape, labels, params, word)


def wb_to_json(p: WBPoint) -> dict:
    return {
        "operad": p.operad_name,
        "tree": tree_to_json(p.tree),
        "vertices": [
            {"t": frac_str(p.heights[v]), "bv": bv_to_json(p.labels[v])}
            for v in range(p.n_main_vertices)
        ],
    }


def wb_from_json(data: dict, operad: Optional[Operad] = None) -> WBPoint:
    if operad is None:
        operad = operad_by_name(data["operad"])
    shape, word = _tree_parts(data["tree"])
    heights = tuple(parse_frac(v["t"]) for v in data["vertices"])
    labels = tuple(bv_from_json(v["bv"], operad) for v in data["vertices"])
    return raw_wb(operad, shape, labels, heights, word)


def _tree_text(t: Tree) -> str:
    """``dumps(tree_to_json(t))``, written with its own stack: ``sep`` is
    the comma due before the next item, none after an opening bracket."""
    out, leaf, sep = ['{"node":{"children":['], 0, ""
    stack = [iter(t.shape.children)]
    while stack:
        for c in stack[-1]:
            if c is None:
                leaf += 1
                out.append(f'{sep}{{"leaf":{leaf}}}')
                sep = ","
            else:
                out.append(f'{sep}{{"node":{{"children":[')
                sep = ""
                stack.append(iter(c.children))
                break
        else:
            stack.pop()
            out.append("]}}" if stack else "]}")
            sep = ","
    out.append(f',"sigma":[{",".join(map(str, t.labels))}]}}')
    return "".join(out)


def bv_text(p: BVPoint) -> str:
    """``dumps(bv_to_json(p))``, written straight from the point, so a point
    of any depth can be written: the keys in sorted order, the edge lengths
    in the string order of their keys (``"10"`` before ``"2"``), and the
    labels in one encoding of their list."""
    params = p.params
    edges = ",".join(f'"{v}":"{frac_str(params[v - 1])}"'
                     for v in sorted(range(1, p.n_vertices), key=str))
    labels = _encode([p.operad.encode(x) for x in p.labels])
    return (f'{{"edgeParams":{{{edges}}},"labels":{labels},'
            f'"operad":{encode_basestring_ascii(p.operad_name)},'
            f'"tree":{_tree_text(p.tree)}}}')


def wb_text(p: WBPoint) -> str:
    """``dumps(wb_to_json(p))``, written straight from the point as
    ``bv_text`` writes its labels."""
    vertices = ",".join(f'{{"bv":{bv_text(x)},"t":"{frac_str(t)}"}}'
                        for x, t in zip(p.labels, p.heights))
    return (f'{{"operad":{encode_basestring_ascii(p.operad_name)},'
            f'"tree":{_tree_text(p.tree)},"vertices":[{vertices}]}}')


# ---------------------------------------------------------------------------
# Interval configurations
# ---------------------------------------------------------------------------


def cubes_to_json(c: CubeConfig) -> dict:
    return {"cubes": [[frac_str(a), frac_str(b)] for a, b in c.intervals]}


def cubes_from_json(data: dict) -> CubeConfig:
    return CubeConfig(
        tuple((parse_frac(a), parse_frac(b)) for a, b in data["cubes"])
    )


# ---------------------------------------------------------------------------
# Cell indices, graphs, Reedy data
# ---------------------------------------------------------------------------


def upsilon_to_json(idx: UpsilonIndex) -> dict:
    return {
        "main": shape_to_json(idx.main),
        "aux": [shape_to_json(a) for a in idx.aux],
    }


def upsilon_from_json(data: dict) -> UpsilonIndex:
    return UpsilonIndex(
        shape_from_json(data["main"]),
        tuple(shape_from_json(a) for a in data["aux"]),
    )


def class_to_json(c: TreeClass) -> dict:
    return {
        "representative": upsilon_to_json(c.representative),
        "size": c.size,
        "level": c.level,
    }


def graph_to_json(g: ContractionGraph) -> dict:
    return {
        "k": g.k,
        "l": g.l,
        "classes": [class_to_json(c) for c in g.classes],
        "edges": [[a, b] for a, b in g.edges],
        "components": [list(c) for c in g.components],
        "initials": list(g.initials),
    }


def reedy_to_json(r: ReedyData) -> dict:
    return {
        "objects": [
            {"object": list(o), "degree": r.degree(o)} for o in r.objects
        ],
        "morphisms": [
            {"name": face, "source": list(pair), "target": list(getattr(r, face)(pair))}
            for pair in r.pair_objects
            for face in ("d0", "d1")
        ],
    }


def reedy_text(g: ContractionGraph) -> str:
    """The ``reedy`` command's document for ``reedy_of(g)``: its
    ``reedy_to_json`` with, under ``latching``, each object's
    ``latching_index`` as ``{"index": [[face, edge object], ...],
    "object": object}``, in object order.  The text is written straight
    from the edge list, with no object tuple or dict built, in the bytes of
    ``dumps`` of that document: keys sorted, no spaces.  A vertex object
    ``["vertex",i]`` has degree 1 and a latching index of the faces into
    it in pair order, ``d0`` before ``d1``; a pair object
    ``["pair",a,b]`` has degree 0, no latching index, and faces ``d0`` to
    ``["vertex",a]`` and ``d1`` to ``["vertex",b]``."""
    n = len(g.classes)
    pairs = [f'["pair",{a},{b}]' for a, b in g.edges]
    faces: list[list[str]] = [[] for _ in range(n)]
    morphisms = []
    for (a, b), pair in zip(g.edges, pairs):
        faces[a].append(f'["d0",{pair}]')
        faces[b].append(f'["d1",{pair}]')
        morphisms.append(f'{{"name":"d0","source":{pair},"target":["vertex",{a}]}}')
        morphisms.append(f'{{"name":"d1","source":{pair},"target":["vertex",{b}]}}')
    latching = [f'{{"index":[{",".join(into)}],"object":["vertex",{i}]}}'
                for i, into in enumerate(faces)]
    latching += [f'{{"index":[],"object":{pair}}}' for pair in pairs]
    objects = [f'{{"degree":1,"object":["vertex",{i}]}}' for i in range(n)]
    objects += [f'{{"degree":0,"object":{pair}}}' for pair in pairs]
    return (f'{{"latching":[{",".join(latching)}],"morphisms":[{",".join(morphisms)}],'
            f'"objects":[{",".join(objects)}]}}')


# ---------------------------------------------------------------------------
# Canonical text
# ---------------------------------------------------------------------------


_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def dumps(obj: Any) -> str:
    """Byte-stable JSON text: sorted keys, no trailing whitespace."""
    return _encode(obj)


# ---------------------------------------------------------------------------
# DOT emitters
# ---------------------------------------------------------------------------


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def _dot_walk(name: str, t: Tree, prefix: str, vertex, edge) -> str:
    """The DOT text of a tree drawn bottom-up: ``vertex(v)`` gives the
    attributes of preorder vertex ``v``, ``edge(v)`` the attribute suffix of
    the inner edge below non-root vertex ``v``; leaves are numbered stubs
    showing the leaf word.  A vertex's line comes before its subtree's and
    its edge to its parent after, written with its own stack."""
    lines = [f"digraph {name} {{", "  rankdir=BT;", f"  {prefix}0 [{vertex(0)}];"]
    leaf = v = 0
    stack = [(0, iter(t.shape.children))]
    while stack:
        me, children = stack[-1]
        for c in children:
            if c is None:
                leaf += 1
                lines.append(f'  l{leaf} [shape=plaintext, label="{t.labels[leaf - 1]}"];')
                lines.append(f"  l{leaf} -> {prefix}{me};")
            else:
                v += 1
                lines.append(f"  {prefix}{v} [{vertex(v)}];")
                stack.append((v, iter(c.children)))
                break
        else:
            stack.pop()
            if stack:
                lines.append(f"  {prefix}{me} -> {prefix}{stack[-1][0]}{edge(me)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def dot_tree(t: Tree, name: str = "tree") -> str:
    """Vertices as circles, leaves as numbered stubs."""
    return _dot_walk(name, t, "v", lambda v: 'shape=circle, label=""', lambda v: "")


def dot_bv(p: BVPoint, name: str = "bv") -> str:
    """Vertex circles labeled by operad elements; inner edges annotated with
    their length parameter."""

    def vertex(v: int) -> str:
        lab = _dot_escape(str(p.operad.encode(p.labels[v])))
        return f'shape=circle, label="{lab}"'

    return _dot_walk(
        name, p.tree, "v", vertex, lambda v: f' [label="{frac_str(p.params[v - 1])}"]'
    )


def dot_wb(p: WBPoint, name: str = "wb") -> str:
    """Main vertices as boxes labeled with their height and inlined
    resolution label; leaves as numbered stubs."""

    def vertex(v: int) -> str:
        bv = p.labels[v]
        lab = _dot_escape(
            f"t={frac_str(p.heights[v])}\n{bv.tree.shape!r} "
            f"{[bv.operad.encode(x) for x in bv.labels]}"
        )
        return f'shape=box, label="{lab}"'

    return _dot_walk(name, p.tree, "m", vertex, lambda v: "")


def dot_graph(g: ContractionGraph, name: str = "contractions") -> str:
    """Classes as nodes (initial elements doubled), contractions as arrows."""
    lines = [f"digraph {name} {{"]
    initial = set(g.initials)
    for i, c in enumerate(g.classes):
        rep = c.representative
        lab = _dot_escape(f"{rep.main!r} | {' '.join(repr(a) for a in rep.aux)}")
        shape = "doublecircle" if i in initial else "ellipse"
        lines.append(f'  c{i} [shape={shape}, label="{lab}"];')
    for a, b in g.edges:
        lines.append(f"  c{a} -> c{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"

"""Points of the cofibrant operad resolution built from trees with
operad-labeled vertices and rational lengths on inner edges.

A point is a class ``[tree ; edge lengths ; vertex labels]`` under three
relations: unit-labeled bivalent vertices are deleted (adjacent inner-edge
lengths merge to their maximum), vertex labels absorb the symmetric action by
reordering subtrees, and length-0 inner edges are contracted using the
operad's composition.  ``bv_normalize`` orients these relations into a
terminating, confluent rewriting system, rewrites in one bottom-up pass
(each child settled, then resolved against its parent), and finishes with a
canonical choice of planar presentation, so structural equality of normal
forms decides equality of classes.  A normal form with one vertex is its
label over the identity word, so the symmetric action on it acts on that
label alone (``bv_act``, through ``trees.act_on_word``).  Given an ``rng``,
``bv_normalize`` rewrites by the same rules in a random order instead, one
redex at a time; the tests check the pass against that order.

A point is the composite of its prime components along its length-1 edges:
its decomposition is a planar tree decorated by them (``trees.Decomposition``,
cut by ``trees.decompose`` as the bimodule resolution's is), which
``trees.fold`` reassembles by ``bv_compose`` as it evaluates ``mu`` by the
operad's.
"""

from __future__ import annotations

import json
from fractions import Fraction
from random import Random
from typing import Any, Optional

from .operads import Operad, Perm, identity_perm
from .trees import (
    Decomposition,
    Node,
    PlanarTree,
    Tree,
    _trusted_tree,
    act_on_word,
    corolla,
    cut,
    decompose,
    fold,
    graft_points,
    lazy,
    nodes_of,
    normal,
    rewrite_fixpoint,
    settle,
)
from .values import Value


class BVPoint(Value):
    """A point of the resolution.

    ``labels[v]`` is the operad element at preorder vertex ``v`` of
    ``tree.shape``; ``params[v-1]`` is the length of the inner edge above
    non-root vertex ``v``.

    The constructor checks nothing: caller data enters through ``raw_bv``,
    which validates it once, and the engine builds only valid points.

    ``canonical=True`` means the point is a normal form, and the engine
    trusts it: ``bv_normalize`` and ``bv_act`` by the identity return it as
    it is.  Only the canonical presentation ``trees.present``, where every
    normalization and every action ends, and the direct builders of normal
    forms (``bv_unit``, ``iota``) set it.  Equality reads neither
    ``operad`` nor ``canonical``.

    The class gives the engine of ``trees`` its hooks: the edge lengths as
    decorations (``None`` at the root), labels acted on and ordered in the
    operad, and relations (i) and (iii) as ``_rewrite``.
    """

    __slots__ = (
        "operad", "operad_name", "tree", "labels", "params", "canonical", "__dict__"
    )
    _compared = ("operad_name", "tree", "labels", "params")

    def __init__(
        self, operad: Operad, operad_name: str = "", tree: Tree = None,
        labels: tuple = (), params: tuple[Fraction, ...] = (), canonical: bool = False,
    ):
        self.operad = operad
        self.operad_name = operad_name
        self.tree = tree
        self.labels = labels
        self.params = params
        self.canonical = canonical

    @property
    def arity(self) -> int:
        return self.tree.n

    @property
    def n_vertices(self) -> int:
        return self.tree.shape.n_vertices

    @property
    def geometric_inputs(self) -> int:
        """Leaves plus univalent vertices of the underlying tree."""
        return self.tree.shape.geometric_inputs

    @property
    def is_corolla(self) -> bool:
        return self.n_vertices == 1

    @property
    def is_unit(self) -> bool:
        """Whether the point is one vertex labeled by the operad unit."""
        return self.n_vertices == 1 and self.operad.is_unit(self.labels[0])

    @lazy
    def order_key(self) -> str:
        """The string that orders labels in the canonical presentation of a
        bimodule point, computed once per point."""
        return json.dumps(
            [
                repr(self.tree.shape),
                [self.operad.encode(a) for a in self.labels],
                list(self.tree.labels),
                [str(t) for t in self.params],
            ]
        )

    @lazy
    def image(self) -> Any:
        """``mu`` of the point, computed once per point: every edge
        contracted by the operad composition, then the leaf word acted on,
        unless it is in order (the identity fixes the composite, ``Operad``).
        Points are immutable and operad elements are ints or tuples, so the
        value is safe to share."""
        operad, word = self.operad, self.tree.labels
        value = fold(self.tree.shape, self.labels, operad.compose)
        return value if word == identity_perm(len(word)) else operad.act(value, word)

    def __repr__(self) -> str:
        return (
            f"BVPoint({self.operad_name}, {self.tree.shape!r}, "
            f"labels={self.labels}, word={self.tree.labels}, "
            f"params={tuple(str(p) for p in self.params)})"
        )

    @property
    def _decorations(self) -> tuple:
        return (None,) + self.params

    @classmethod
    def _build(cls, operad, tree, labels, decorations, canonical) -> BVPoint:
        return cls(operad, operad.name, tree, labels, decorations[1:], canonical)

    @staticmethod
    def _label_order(operad: Operad) -> tuple:
        return operad.act, operad.key

    @staticmethod
    def _rewrite(operad: Operad, root: Node, rng: Optional[Random] = None) -> Node:
        """Relations (i) and (iii), rewritten to the normal form by
        ``settle``, or by the same rules in a random order that ``rng``
        draws (the oracle; the system is confluent, so both end at the same
        form)."""
        rules = (None, operad.is_unit, _delete_unit_vertex, _zero_length,
                 operad.compose, None, None)
        if rng is None:
            return settle(operad, root, rules)
        return rewrite_fixpoint(operad, root, rules, rng)


def raw_bv(
    operad: Operad,
    shape: PlanarTree,
    labels: tuple,
    params: tuple[Fraction, ...],
    word: Optional[tuple[int, ...]] = None,
) -> BVPoint:
    """Package un-normalized data: validated, once, but not rewritten.
    Caller data enters here, so each label is stored as its operad's
    canonical representative (``Operad.canonical``), as in ``iota``: the
    canonical presentation relies on every label being fixed by the
    identity (``Operad``)."""
    tree = Tree(shape, word if word is not None else tuple(range(1, shape.n_leaves + 1)))
    point = BVPoint(operad, operad.name, tree, tuple(labels), tuple(params), False)
    _validate_raw(point)
    point.labels = tuple(map(operad.canonical, point.labels))
    return point


def _validate_raw(p: BVPoint) -> None:
    """Counts first, then each vertex's label arity in preorder, in one
    walk of the children with its own stack, then the edge lengths."""
    shape, labels, arity = p.tree.shape, p.labels, p.operad.arity
    if len(labels) != shape.n_vertices:
        raise ValueError("one label per vertex required")
    if len(p.params) != shape.n_vertices - 1:
        raise ValueError("one parameter per inner edge required")
    v, stack = 0, [shape.children]
    while stack:
        children = stack.pop()
        n = arity(labels[v])
        if n != len(children):
            raise ValueError(
                f"label arity {n} != vertex arity {len(children)} at vertex {v}"
            )
        v += 1
        stack += (c.children for c in reversed(children) if c is not None)
    for t in p.params:
        if not isinstance(t, (int, Fraction)):
            raise ValueError(f"edge parameter {t!r} is not an int or a Fraction")
        if not 0 <= t <= 1:
            raise ValueError(f"edge parameter {t} outside [0,1]")


# ---------------------------------------------------------------------------
# Rewriting: the rules of ``BVPoint._rewrite``, on the working form of ``trees``
# ---------------------------------------------------------------------------


def _delete_unit_vertex(node: Node):
    """Relation (i): the kid that takes the place of a deleted unit
    bivalent vertex.  Deleting it between two inner edges merges their
    lengths to the MAXIMUM; next to a leaf the vertex is simply deleted, and
    at the root its child's edge becomes the root edge.  (Kept in one place
    so the merge convention can be swapped out.)"""
    child = node.kids[0]
    if isinstance(child, Node):
        child.t = None if node.t is None else max(node.t, child.t)
    return child


def _zero_length(parent: Node, child: Node) -> bool:
    """Relation (iii): a length-0 edge is contracted."""
    return child.t == 0


def bv_normalize(raw: BVPoint, rng: Optional[Random] = None) -> BVPoint:
    """Canonical form of raw point data: rewrite (``_rewrite``: one
    bottom-up pass, or a random order when ``rng`` is given), then present;
    a normal form is returned as it is.  The input is trusted: it comes
    from ``raw_bv`` or from the engine."""
    return raw if raw.canonical else normal(BVPoint, raw.operad, nodes_of(raw), rng)


# ---------------------------------------------------------------------------
# Structure maps
# ---------------------------------------------------------------------------


def iota(operad: Operad, a) -> BVPoint:
    """The corolla labeled by a single operad element, built directly as
    the canonical point that normalization gives: ``a`` is stored as its
    canonical representative (``Operad.canonical``), as ``raw_bv`` does."""
    n = operad.arity(a)
    return BVPoint(
        operad, operad.name, _trusted_tree(corolla(n), identity_perm(n)),
        (operad.canonical(a),), (), True,
    )


_UNIT_TREE = Tree(corolla(1), (1,))


def bv_unit(operad: Operad) -> BVPoint:
    """``iota`` of the operad unit, built directly as the canonical point
    that normalization gives."""
    return BVPoint(operad, operad.name, _UNIT_TREE, (operad.unit(),), (), True)


def mu(x: BVPoint) -> Any:
    """Collapse all edge lengths to 0: the counit onto the operad (cached on
    the point, ``BVPoint.image``)."""
    return x.image


def bv_act(x: BVPoint, sigma: Perm) -> BVPoint:
    """The symmetric action: relabel the leaves, then re-canonicalize; a
    normal form with one vertex only has its label acted on
    (``trees.act_on_word``).  ``sigma`` must be a permutation of
    ``1..arity``."""
    return act_on_word(x, sigma)


def bv_compose(x: BVPoint, i: int, y: BVPoint) -> BVPoint:
    """Operadic composition: graft at the leaf carrying input ``i`` and give
    the new inner edge length 1, then normalize."""
    root, scion, _ = graft_points(x, i, y)
    scion.t = Fraction(1)
    return normal(BVPoint, x.operad, root)


# ---------------------------------------------------------------------------
# Prime decomposition
# ---------------------------------------------------------------------------


def bv_is_prime(x: BVPoint) -> bool:
    """All edge lengths strictly below 1."""
    return all(t < 1 for t in x.params)


def bv_decompose(x: BVPoint) -> Decomposition:
    """Cut every length-1 edge of the canonical planar representative, whose
    leaf word is acted by on reassembly.  ``trees.decompose`` cuts the
    pieces in preorder, and each is normalized."""
    x = bv_normalize(x)

    def piece(top: Node) -> tuple:
        comp, dangling = cut(top, lambda c: c.t < 1)
        comp.t = None
        return normal(BVPoint, x.operad, comp), dangling

    return decompose(x, piece)


def bv_reassemble(d: Decomposition) -> BVPoint:
    """Graft the components back along the cut tree, each new edge at length
    1 (the fold of ``d.shape`` by ``bv_compose``, which fills a vertex's
    highest input first), then act by the leaf word."""
    return bv_act(fold(d.shape, d.components, bv_compose), d.word)


def bv_prime_components(x: BVPoint) -> list[BVPoint]:
    return bv_decompose(x).all_components()


# ---------------------------------------------------------------------------
# Filtration and cells
# ---------------------------------------------------------------------------


def in_stage(pairs, k: int, l: Optional[int] = None) -> bool:
    """Whether prime components with these ``(geometric inputs, size)``
    pairs lie in the k-th filtration stage (and its l-th substage when ``l``
    is given, which bounds the size of the components with ``k`` inputs)."""
    return all(
        g <= k if l is None else g <= k - 1 or (g == k and size <= l)
        for g, size in pairs
    )


def bv_filtration(x: BVPoint, k: int, l: Optional[int] = None) -> bool:
    """Membership in the k-th filtration stage (and its l-th substage when
    ``l`` is given, counting vertices), tested on prime components."""
    return in_stage(
        ((c.geometric_inputs, c.n_vertices) for c in bv_decompose(x).components), k, l
    )


def has_unit_bivalent(x: BVPoint) -> bool:
    """Whether some vertex of ``x`` has one input and the unit label."""
    return any(
        sub.arity == 1 and x.operad.is_unit(label)
        for sub, label in zip(x.tree.shape.subtrees, x.labels)
    )


def x_cell_membership(x: BVPoint, k: int, l: int) -> str:
    """Classify raw cell-representative data: ``interior``, ``boundary``, or
    ``outside`` of the (k,l) cell family (quotient by the symmetric relation
    only, so the input is deliberately NOT normalized).  The input is
    trusted: build it with ``raw_bv``."""
    shape = x.tree.shape
    if shape.geometric_inputs != k or shape.n_vertices != l:
        return "outside"
    if has_unit_bivalent(x) or any(t == 0 or t == 1 for t in x.params):
        return "boundary"
    return "interior"

"""Rooted planar trees with ordered inputs, leaf labelings, grafting,
enumeration, and canonical forms of non-planar isomorphism classes.

A planar tree is a purely structural value: every vertex carries an ordered
tuple of child slots, and each slot holds either another vertex (a
``PlanarTree``) or ``None``, which denotes a leaf half-edge.  Vertices are
identified positionally by their preorder index (root = 0), so structural
equality of trees is value equality.  A tree carries its leaf, vertex and
univalent-vertex counts and its hash, read off its children when it is
built, so a tree built from existing subtrees costs only its root; its
preorder data is computed on first read (``lazy``).

A ``Tree`` adds a leaf labeling: a permutation of ``{1..n}`` listing, in
planar left-to-right order, the abstract input carried by each leaf.

Symmetry reads one structure, a bottom-up encoding (Aho, Hopcroft &
Ullman) in which a vertex encodes as its kind and the sorted encodings of
its children: two trees are isomorphic (non-planarly, leaf labels
respected) exactly when their encodings agree, and their isomorphisms are
then, vertex by vertex, every bijection inside each block of sibling slots
with equal encodings, an iterated product of symmetric groups (Polya 1937).
``canonicalize`` sorts by it, and ``cells`` keys its classes by it on the
glued tree of a cell index; neither lists the isomorphisms themselves.

Evaluation folds the planar tree: ``fold`` composes per-vertex values
along its edges, which is how ``bv`` computes ``mu``, ``wb`` ``mu_tilde``
and ``mapping`` ``xi``.  A prime decomposition of either resolution is such
a tree too (``Decomposition``): ``decompose`` cuts a point into pieces in
one walk, and the fold of the pieces by a graft reassembles it.

``Node`` is the one mutable working form, and it is only for rewriting.
One engine at the end of this module normalizes, acts on, grafts and cuts
the points of both resolutions on it (``normal``, ``act_on_word``,
``graft_points``, ``decompose``), reading what differs off the point class
(``bv.BVPoint``, ``wb.WBPoint``).  Each rewrites in one bottom-up pass,
``settle``, under its one table of rules; ``rewrite_fixpoint``, the oracle
the pass is tested against, rewrites by the same table in a random order.
No walk between a working form and a point recurses: each keeps its own
stack, so a tree may be as deep as memory allows.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby, permutations, product
from typing import Optional

from .operads import AssocOperad, identity_perm, perm_compose, perm_inverse
from .values import Value


# ---------------------------------------------------------------------------
# Planar trees
# ---------------------------------------------------------------------------


class lazy:
    """A value computed on first read and kept in the instance's
    ``__dict__``, where every later read finds it before this (non-data)
    descriptor.  It is ``functools.cached_property`` without the lock that
    Python 3.11 takes on every first read; the values are pure functions of
    immutable instances, so two threads can at worst compute one twice."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


class PlanarTree:
    """A rooted planar tree; ``None`` children are leaf half-edges.

    A value: no attribute is assigned after construction.  The constructor
    reads ``n_leaves``, ``n_vertices``, ``n_univalent`` and the hash off the
    children, in O(arity) with no recursion, so building a tree from its
    subtrees costs only its root.  Equality is equality of the children,
    compared pair by pair on a stack, each pair after identity, the hash and
    the cheap counts, so it needs no recursion.  The preorder data
    (``subtrees``, ``vertex_parents``, ``child_vertex``) is computed on first
    read and kept."""

    __slots__ = ("children", "n_leaves", "n_vertices", "n_univalent", "_hash", "__dict__")

    def __init__(self, children: tuple[Optional["PlanarTree"], ...] = ()):
        leaves = vertices = univalent = 0
        for c in children:
            if c is None:
                leaves += 1
            else:
                leaves += c.n_leaves
                vertices += c.n_vertices
                univalent += c.n_univalent
        self.children = children
        self.n_leaves = leaves
        self.n_vertices = vertices + 1
        self.n_univalent = univalent if children else 1
        self._hash = hash(children)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not PlanarTree:
            return NotImplemented
        stack = [(self, other)]  # pairs of equal place, not yet compared
        while stack:
            a, b = stack.pop()
            if (a._hash != b._hash or a.n_vertices != b.n_vertices
                    or a.n_leaves != b.n_leaves or len(a.children) != len(b.children)):
                return False
            for c, d in zip(a.children, b.children):
                if c is not d:
                    if c is None or d is None:
                        return False
                    stack.append((c, d))
        return True

    @property
    def arity(self) -> int:
        """Number of input slots of the root vertex."""
        return len(self.children)

    @property
    def geometric_inputs(self) -> int:
        """Leaves plus univalent vertices."""
        return self.n_leaves + self.n_univalent

    @lazy
    def subtrees(self) -> tuple["PlanarTree", ...]:
        """All vertices in preorder, each as the subtree it roots."""
        out: list[PlanarTree] = []
        stack = [self]
        while stack:
            sub = stack.pop()
            out.append(sub)
            stack.extend(c for c in reversed(sub.children) if c is not None)
        return tuple(out)

    @lazy
    def vertex_parents(self) -> tuple[tuple[int, int], ...]:
        """Per preorder vertex index, ``(parent_index, slot)``; root is (-1, -1).

        Slots are 1-based positions in the parent's ordered child tuple.
        """
        out: list[tuple[int, int]] = []
        stack = [(self, -1, -1)]
        while stack:
            sub, parent, slot = stack.pop()
            me = len(out)
            out.append((parent, slot))
            kids = sub.children
            stack.extend(
                (kids[s - 1], me, s) for s in range(len(kids), 0, -1)
                if kids[s - 1] is not None
            )
        return tuple(out)

    @lazy
    def child_vertex(self) -> dict[tuple[int, int], int]:
        """Map ``(vertex_index, slot)`` -> preorder index of the child vertex."""
        return {
            (p, s): v for v, (p, s) in enumerate(self.vertex_parents) if p >= 0
        }

    def arity_of(self, v: int) -> int:
        return self.subtrees[v].arity

    def __repr__(self) -> str:  # compact, e.g. (..) for a 2-corolla
        out, stack = [], [self]
        while stack:
            c = stack.pop()
            if isinstance(c, PlanarTree):
                out.append("(")
                stack += (")", *reversed(c.children))
            else:
                out.append("." if c is None else c)
        return "".join(out)


def corolla(n: int) -> PlanarTree:
    """The tree with one vertex and ``n`` leaves (``n`` = 0 gives the
    univalent-vertex tree)."""
    if n < 0:
        raise ValueError("corolla arity must be >= 0")
    return PlanarTree((None,) * n)


def graft(base: PlanarTree, i: int, scion: PlanarTree) -> PlanarTree:
    """Replace the ``i``-th leaf of ``base`` (planar order, 1-based) by
    ``scion``; the scion's root edge becomes a new inner edge."""
    if not 1 <= i <= base.n_leaves:
        raise IndexError(f"leaf index {i} out of range 1..{base.n_leaves}")
    kids = list(base.children)
    for s, c in enumerate(kids):
        n = 1 if c is None else c.n_leaves
        if i <= n:  # leaf i is this slot's, or in the child vertex here
            kids[s] = scion if c is None else graft(c, i, scion)
            return PlanarTree(tuple(kids))
        i -= n


def fold(shape: PlanarTree, values, compose):
    """The value of ``shape`` with ``values[v]`` at preorder vertex ``v`` and
    every inner edge contracted by ``compose(parent_value, slot, value)``.
    In reverse preorder each vertex is composed into its parent: its own
    subtree is folded before it, and a parent's slots are filled last first,
    so the slot numbers still to come stay valid."""
    values = list(values)
    parents = shape.vertex_parents
    for v in range(len(values) - 1, 0, -1):
        parent, slot = parents[v]
        values[parent] = compose(values[parent], slot, values[v])
    return values[0]


class Decomposition(Value):
    """A prime decomposition of a point of either resolution: the piece
    ``components[v]`` at preorder vertex ``v`` of the cut tree ``shape``,
    whose slot ``p`` is grafted at input ``p`` of that piece, and the leaf
    ``word`` acted by on reassembly.  The constructor checks nothing, like
    the point constructors."""

    __slots__ = ("shape", "components", "word")

    def __init__(self, shape: PlanarTree, components: tuple, word: tuple[int, ...]):
        self.shape = shape
        self.components = components
        self.word = word

    def all_components(self) -> list:
        """The components in preorder."""
        return list(self.components)


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _forests_lv(p: int, n: int) -> tuple[tuple[Optional[PlanarTree], ...], ...]:
    """Ordered child tuples with total leaf count p and total vertices n,
    compared slot by slot: a leaf before a vertex, vertices by (vertex
    count, leaf count, position).  So the tuples with ``j`` leading leaves
    come in decreasing ``j``, each run with its first vertex in that order.
    Every call below has fewer vertices, so the recursion is as deep as
    ``n``, whatever ``p``."""
    if p < 0 or n < 0:
        return ()
    if n == 0:
        return ((None,) * p,)
    out: list[tuple[Optional[PlanarTree], ...]] = []
    for j in range(p, -1, -1):
        lead = (None,) * j
        for n1 in range(1, n + 1):
            for p1 in range(0, p - j + 1):
                for t in _trees_lv(p1, n1):
                    for rest in _forests_lv(p - j - p1, n - n1):
                        out.append(lead + (t,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def _trees_lv(p: int, n: int) -> tuple[PlanarTree, ...]:
    if n <= 0 or p < 0:
        return ()
    out: list[PlanarTree] = []
    if p == 0 and n == 1:
        out.append(PlanarTree(()))
    for ch in _forests_lv(p, n - 1):
        if ch:
            out.append(PlanarTree(ch))
    return tuple(out)


def planar_trees(n_leaves: int, n_vertices: int) -> list[PlanarTree]:
    """All planar trees with the given leaf and vertex counts."""
    if n_vertices <= 0 or n_leaves < 0:
        return []
    return list(_trees_lv(n_leaves, n_vertices))


def enumerate_trees(k: int, l: int) -> list[PlanarTree]:
    """All planar trees with ``k`` geometric inputs (leaves + univalent
    vertices) and ``l`` vertices, in a fixed deterministic order."""
    if l <= 0 or k <= 0:
        return []
    return [
        t for m in range(k + 1) for t in planar_trees(m, l)
        if t.geometric_inputs == k
    ]


# ---------------------------------------------------------------------------
# Labeled trees
# ---------------------------------------------------------------------------


class Tree(Value):
    """A planar tree plus a leaf labeling: ``labels[p-1]`` is the abstract
    input carried by the leaf at planar position ``p``."""

    __slots__ = ("shape", "labels")

    def __init__(self, shape: PlanarTree, labels: tuple[int, ...]):
        n = shape.n_leaves
        if sorted(labels) != list(range(1, n + 1)):
            raise ValueError(f"labels {labels} are not a permutation of 1..{n}")
        self.shape = shape
        self.labels = labels

    @property
    def n(self) -> int:
        return self.shape.n_leaves


def _trusted_tree(shape: PlanarTree, word: tuple[int, ...]) -> Tree:
    """A ``Tree`` whose word the engine built itself, so it is not checked
    again: the word of a cut, a graft or a normal form."""
    tree = object.__new__(Tree)
    tree.shape = shape
    tree.labels = word
    return tree


# ---------------------------------------------------------------------------
# Canonical forms
# ---------------------------------------------------------------------------


def canonical_form(a: Tree) -> Tree:
    """The canonical representative of the non-planar isomorphism class of a
    labeled tree: the lexicographically minimal planar presentation obtained
    by sorting children bottom-up (labels travel with their leaves).  It is
    ``canonicalize`` with the trivial action, which orders children by
    their encodings: a leaf ``("L", label)``, a vertex ``("N", "",
    sorted child encodings, key)``, its key ``""`` when no leaf is below it
    and ``None`` otherwise."""
    nv = a.shape.n_vertices
    root = to_nodes(a.shape, (None,) * nv, (None,) * nv, a.labels)
    canonicalize(root, lambda label, sigma: label, lambda label: "")
    shape, _, _, word = from_nodes(root)
    return _trusted_tree(shape, word)


# ---------------------------------------------------------------------------
# Mutable working form
# ---------------------------------------------------------------------------
#
# Both resolutions (``bv``, ``wb``) rewrite decorated trees in place on the
# ``Node`` form through the engine below, which reads four hooks off the
# point class: ``_decorations``, the ``Node.t`` of each preorder vertex;
# ``_build(operad, tree, labels, decorations, canonical)``, the point they
# make; ``_label_order(operad)``, the ``(act, key)`` of ``canonicalize``;
# and ``_rewrite(operad, root, rng=None)``, the rules.  Nothing that only
# evaluates a tree needs this form: it folds the ``PlanarTree``.


class Node:
    """A vertex of the mutable working form: a label, the decoration ``t``
    of the vertex (an edge length in ``bv``, ``None`` at the root; a height
    in ``wb``), and the ordered ``kids``, each another ``Node`` or a leaf's
    input label (an int)."""

    __slots__ = ("label", "t", "kids")

    def __init__(self, label, t, kids):
        self.label = label
        self.t = t
        self.kids = kids


def to_nodes(shape: PlanarTree, labels, ts, word) -> Node:
    """The working form of ``shape`` with ``labels[v]`` and ``ts[v]`` at
    preorder vertex ``v`` and ``word`` read along the leaves."""
    root = Node(labels[0], ts[0], [])
    v, leaves = 0, iter(word)
    stack = [(iter(shape.children), root.kids)]
    while stack:
        children, kids = stack[-1]
        for c in children:
            if c is None:
                kids.append(next(leaves))
            else:
                v += 1
                kids.append(Node(labels[v], ts[v], []))
                stack.append((iter(c.children), kids[-1].kids))
                break
        else:
            stack.pop()
    return root


def from_nodes(root: Node) -> tuple[PlanarTree, tuple, tuple, tuple[int, ...]]:
    """Inverse of ``to_nodes``: ``(shape, labels, ts, word)``."""
    labels, ts, word = [root.label], [root.t], []
    stack = [(iter(root.kids), [])]
    while True:
        kids, shape_kids = stack[-1]
        for c in kids:
            if isinstance(c, Node):
                labels.append(c.label)
                ts.append(c.t)
                stack.append((iter(c.kids), []))
                break
            word.append(c)
            shape_kids.append(None)
        else:
            stack.pop()
            shape = PlanarTree(tuple(shape_kids))
            if not stack:
                return shape, tuple(labels), tuple(ts), tuple(word)
            stack[-1][1].append(shape)


def nodes_of(x, word: Optional[tuple[int, ...]] = None) -> Node:
    """The working form of the point ``x`` of either resolution, with
    ``word`` (by default its own) read along the leaves."""
    return to_nodes(
        x.tree.shape, x.labels, x._decorations, x.tree.labels if word is None else word
    )


def point_of(cls, operad, root: Node, canonical: bool):
    """Inverse of ``nodes_of``: the point of class ``cls`` over ``operad``
    that the working form ``root`` makes up."""
    shape, labels, decorations, word = from_nodes(root)
    tree = _trusted_tree(shape, word)
    return cls._build(operad, tree, labels, decorations, canonical)


def preorder(root: Node) -> list[tuple[Node, Optional[Node], int]]:
    """Every vertex as ``(node, parent, slot)`` in preorder; ``slot`` is the
    1-based position of ``node`` in ``parent.kids`` (the root gives
    ``(root, None, 0)``)."""
    out, stack = [], [(root, None, 0)]
    while stack:
        n, parent, slot = stack.pop()
        out.append((n, parent, slot))
        kids = n.kids
        stack += ((kids[s - 1], n, s) for s in range(len(kids), 0, -1)
                  if isinstance(kids[s - 1], Node))
    return out


def leaf_slots(root: Node) -> list[tuple[Node, int]]:
    """The leaves in planar order, each as ``(node, slot)`` with
    ``node.kids[slot - 1]`` the leaf."""
    out, stack = [], [(root, enumerate(root.kids, 1))]
    while stack:
        n, slots = stack[-1]
        for s, c in slots:
            if isinstance(c, Node):
                stack.append((c, enumerate(c.kids, 1)))
                break
            out.append((n, s))
        else:
            stack.pop()
    return out


def graft_input(root: Node, word, i: int, scion: Node, scion_word) -> Node:
    """Put ``scion`` at the leaf of ``root`` that carries input ``i`` of its
    leaf ``word``, and write along the leaves ``scion_word`` substituted
    into ``word`` at ``i`` (composition in the symmetric-groups operad).
    Returns the vertex that ``scion`` is grafted onto."""
    if not 1 <= i <= len(word):
        raise IndexError(f"input {i} out of range 1..{len(word)}")
    slots = leaf_slots(root)
    k = word.index(i)
    node, slot = slots[k]
    node.kids[slot - 1] = scion
    slots[k : k + 1] = leaf_slots(scion)  # the leaves after the graft
    for (n, s), w in zip(slots, AssocOperad().compose(word, i, scion_word)):
        n.kids[s - 1] = w
    return node


def graft_points(x, i: int, y) -> tuple[Node, Node, Node]:
    """The working forms of the points ``x`` and ``y``, over one operad, with
    ``y`` grafted at input ``i`` of ``x``: ``(root, scion, parent)``, the
    vertex ``parent`` as ``graft_input`` returns it."""
    if x.operad_name != y.operad_name:
        raise ValueError("operad mismatch")
    root, scion = nodes_of(x), nodes_of(y)
    return root, scion, graft_input(root, x.tree.labels, i, scion, y.tree.labels)


def contract(parent: Node, slot: int, compose) -> None:
    """Contract the edge to the child vertex at ``parent``'s ``slot``: the
    labels are composed there and the child's kids replace the slot."""
    child = parent.kids[slot - 1]
    parent.label = compose(parent.label, slot, child.label)
    parent.kids[slot - 1 : slot] = child.kids


def deletable(is_unit, n: Node, root: bool) -> bool:
    """Whether relation (i) deletes ``n``: a unit label, unless the root over a leaf."""
    return is_unit(n.label) and (not root or isinstance(n.kids[0], Node))


def settle(ctx, root: Node, rules):
    """The working form at ``root`` rewritten in place to its normal form
    under a resolution's ``rules``; returns what takes the place of
    ``root``.  The rules are seven slots, which ``rewrite_fixpoint`` reads
    too: ``prepare(ctx, n)`` readies a label before a rule reads it;
    relation (i) is ``is_unit(label)`` (``deletable``) and
    ``delete(n)``, the kid put in the vertex's place; (iii) is
    ``merges(parent, kid)`` and ``compose(label, slot, label)``, which
    contracts the edge; (iv) is ``collapses(n)`` and ``collapse(ctx, n)``,
    which rewrites the label in place.  A ``None`` ``prepare`` or
    ``collapses`` is skipped.  Unit vertices on top are deleted first, so
    nothing is merged into a unit; then each kid, left to right, is settled
    and contracted if it merges, before the next is visited; last the
    vertex collapses, and is deleted if it became the unit.  Spliced kids
    are already irreducible, so no vertex is visited twice, and the order
    fixes which composition a truncated operad refuses first."""
    prepare, is_unit, delete, merges, compose, collapses, collapse = rules
    stack, n, s = [], root, 0
    while True:
        while True:
            if prepare is not None:
                prepare(ctx, n)
            if not deletable(is_unit, n, not stack):
                break
            n = delete(n)
            if not isinstance(n, Node):
                break
        while True:
            if isinstance(n, Node):
                kids = n.kids
                while s < len(kids) and not isinstance(kids[s], Node):
                    s += 1
                if s < len(kids):  # settle this kid first
                    stack.append((n, s))
                    n, s = kids[s], 0
                    break
                if collapses is not None and collapses(n):
                    collapse(ctx, n)
                if deletable(is_unit, n, not stack):
                    n = delete(n)
            if not stack:
                return n
            parent, s = stack.pop()
            parent.kids[s] = n
            merged = isinstance(n, Node) and merges(parent, n)
            if merged:
                contract(parent, s + 1, compose)
            s += len(n.kids) if merged else 1
            n = parent


def cut(node: Node, keep) -> tuple[Node, list]:
    """Copy the maximal subtree at ``node`` whose vertex children pass
    ``keep``.  Every other kid (a leaf, or a vertex failing ``keep``) becomes
    a leaf of the copy; the copy's leaves are numbered 1..n in planar order
    and the kids they replace are returned in that order."""
    dangling: list = []
    root = Node(node.label, node.t, [])
    stack = [(iter(node.kids), root.kids)]
    while stack:
        kids, copy = stack[-1]
        for c in kids:
            if isinstance(c, Node) and keep(c):
                copy.append(Node(c.label, c.t, []))
                stack.append((iter(c.kids), copy[-1].kids))
                break
            dangling.append(c)
            copy.append(len(dangling))
        else:
            stack.pop()
    return root, dangling


def decompose(x, piece) -> Decomposition:
    """The prime decomposition of the normal form ``x``, cut in preorder
    from its working form.  ``piece(top)`` cuts the piece topped by ``top``
    into its component and the kids dangling at its leaves, in planar
    order: a dangling vertex tops the piece in that slot, a leaf leaves it
    empty.  The tree is built as ``from_nodes`` builds a shape."""
    components = []

    def cut_piece(top: Node) -> tuple:
        component, dangling = piece(top)
        components.append(component)
        return iter(dangling), []

    stack = [cut_piece(nodes_of(x))]
    while True:
        dangling, slots = stack[-1]
        for c in dangling:
            if isinstance(c, Node):
                stack.append(cut_piece(c))
                break
            slots.append(None)
        else:
            stack.pop()
            shape = PlanarTree(tuple(slots))
            if not stack:
                return Decomposition(shape, tuple(components), x.tree.labels)
            stack[-1][1].append(shape)


def present(cls, operad, root: Node):
    """The normal form of a rewritten working form (relation (ii)): its
    minimal planar presentation, the compensating action pushed into the
    labels, as a point of class ``cls``."""
    canonicalize(root, *cls._label_order(operad))
    return point_of(cls, operad, root, True)


def normal(cls, operad, root: Node, rng=None):
    """The normal form of the working form ``root``, rewritten in place by
    ``cls._rewrite`` (one bottom-up pass, or a random order when ``rng`` is
    given): a graft or a cut normalizes the working form in hand."""
    return present(cls, operad, cls._rewrite(operad, root, rng))


def act_on_word(x, sigma):
    """The symmetric action on a point of either resolution (``bv_act``,
    ``wb_act``): relabel the leaves by ``sigma``, then normalize.  On a
    normal form only the presentation can change: relabeling leaves makes
    no redex and the labels are already canonical, so the rewriting is
    skipped, and the identity fixes it.

    A normal form with one vertex skips the working form: the result is the
    same point with ``sigma`` acting on its one label (relation (ii) for
    one vertex).  Its leaf word is the identity, because ``canonicalize``
    sorts its distinct leaves.  So the leaves relabeled by ``sigma`` sort
    back in the order ``first = sigma^-1``, and the label is acted on by
    ``perm_inverse(first) = sigma``; the shape, the word and the edge
    lengths or height stay as they are."""
    ident = identity_perm(x.arity)
    if tuple(sorted(sigma)) != ident:
        raise ValueError(f"sigma {tuple(sigma)} is not a permutation of 1..{x.arity}")
    cls, operad = type(x), x.operad
    if x.canonical:
        if sigma == ident:
            return x
        if len(x.labels) == 1:
            label = cls._label_order(operad)[0](x.labels[0], sigma)
            return cls._build(operad, x.tree, (label,), x._decorations, True)
    root = nodes_of(x, perm_compose(x.tree.labels, sigma))
    if not x.canonical:
        root = cls._rewrite(operad, root)
    return present(cls, operad, root)


def rewrite_fixpoint(ctx, root: Node, rules, rng) -> Node:
    """The oracle that ``settle`` is checked against: each label prepared,
    then the same ``rules`` applied one redex at a time until none is left,
    each the one ``rng`` picks of all the tree's redexes (in preorder, and
    at a vertex unit, merge, collapse).  Each step walks the whole tree, so
    this is not a fast path."""
    prepare, is_unit, delete, merges, compose, collapses, collapse = rules
    if prepare is not None:
        for n, _, _ in preorder(root):
            prepare(ctx, n)
    while True:
        found = []
        for n, parent, slot in preorder(root):
            if deletable(is_unit, n, parent is None):
                found.append(("unit", n, parent, slot))
            if parent is not None and merges(parent, n):
                found.append(("merge", n, parent, slot))
            if collapses is not None and collapses(n):
                found.append(("collapse", n, parent, slot))
        if not found:
            return root
        kind, n, parent, slot = rng.choice(found)
        if kind == "merge":
            contract(parent, slot, compose)
        elif kind == "collapse":
            collapse(ctx, n)
        elif parent is None:
            root = delete(n)
        else:
            parent.kids[slot - 1] = delete(n)


def canonicalize(root: Node, act, key) -> tuple:
    """Reorder kids bottom-up to the lexicographically minimal presentation,
    pushing the compensating symmetric action into the labels:
    ``act(label, sigma)`` acts and ``key(label)`` orders labels.  Returns the
    encodings of the root's children in sorted order, each
    ``("N", t_key, child_encodings, label_key)`` or ``("L", input)``.

    The child encodings order the kids first; the label only breaks ties.
    Leaf numbering makes them almost always distinct, and then the sorted
    order is the one candidate.  Only work that can change the presentation
    is done, and two arguments make the shortcuts exact:

    - A vertex whose child encodings already increase strictly keeps its
      kids and its label, with no action.  The identity fixes every label
      the pass sees: an operad label is its operad's canonical
      representative (the ``Operad`` contract; ``raw_bv`` stores caller
      data as ``Operad.canonical`` of it), and a bimodule label is a
      normal form, which ``bv_act`` returns unchanged under the identity.
    - Only a leafless subtree's label is keyed; a subtree that holds a leaf
      has ``label_key`` ``None``.  Leaf inputs are distinct, so such a
      subtree differs from each of its siblings in its child encodings
      before the key is read: only leafless siblings can tie on all but
      the key.  No parent sorts the root, so the root is keyed only to
      break its own ties (``_tie_break``)."""
    # frames are [node, kids left, kid encodings, whether a leaf is below]
    stack = [[root, iter(root.kids), [], False]]
    while True:
        frame = stack[-1]
        n, kids, encs, _ = frame
        for c in kids:
            if isinstance(c, Node):
                stack.append([c, iter(c.kids), [], False])
                break
            encs.append(("L", c))
            frame[3] = True
        else:
            stack.pop()
            keyed = bool(stack) and not frame[3]
            for a, b in zip(encs, encs[1:]):
                if not a < b:
                    child_encs, label_key = _reorder(n, encs, act, key, keyed, not stack)
                    break
            else:  # already in order: the identity fixes the label
                child_encs = tuple(encs)
                label_key = key(n.label) if keyed else None
            if not stack:
                return child_encs
            t_key = "" if n.t is None else str(n.t)
            parent = stack[-1]
            parent[2].append(("N", t_key, child_encs, label_key))
            parent[3] |= frame[3]


def _reorder(n: Node, encs: list, act, key, keyed: bool, root: bool) -> tuple:
    """``(child_encs, label_key)`` of ``n`` once its kids, whose ``encs`` are
    out of order or tied, are sorted and its label acted on; the
    ``label_key`` is ``None`` unless ``keyed``.  Sorting ``(encoding,
    slot)`` pairs keeps tied kids in slot order, the first candidate; where
    that is the slot order itself, the identity fixes the label (as in
    ``canonicalize``) and it is not acted on."""
    pairs = sorted(zip(encs, range(1, len(encs) + 1)))
    first = tuple(s for _, s in pairs)
    child_encs = tuple(e for e, _ in pairs)
    ident = first == identity_perm(len(first))
    label = n.label if ident else act(n.label, perm_inverse(first))
    if all(a != b for a, b in zip(child_encs, child_encs[1:])):
        pi, n.label, label_key = first, label, key(label) if keyed else None
    else:
        pi, n.label, label_key = _tie_break(n, encs, first, label, act, key, root)
    n.kids = [n.kids[p - 1] for p in pi]
    return child_encs, label_key if keyed else None


def _tie_break(n: Node, encs: list, first: tuple, label, act, key, root: bool) -> tuple:
    """``(order, label, label_key)`` of the least presentation of ``n``, its
    kids' ``encs`` sorted to ``first`` with ``label``.  Candidates vary only
    inside blocks of equal encodings.  A block keeps its sorted order, as
    every order ties, when ``label`` is fixed by each adjacent transposition
    there (each transposed label is a candidate's, kept in ``seen``)."""
    seen = {first: label}
    choices: list = []
    single, start = True, 0
    for _, blk in groupby(first, key=lambda s: encs[s - 1]):
        blk = tuple(blk)
        for j in range(start, start + len(blk) - 1):
            swap = list(range(1, len(first) + 1))
            swap[j], swap[j + 1] = swap[j + 1], swap[j]
            swapped = act(label, tuple(swap))
            seen[first[:j] + (first[j + 1], first[j]) + first[j + 2 :]] = swapped
            if swapped != label:
                choices.append(permutations(blk))
                single = False
                break
        else:
            choices.append((blk,))
        start += len(blk)
    best = None
    for choice in product(*choices):
        pi = tuple(s for blk in choice for s in blk)
        label2 = seen[pi] if pi in seen else act(n.label, perm_inverse(pi))
        label_key = None if root and single else key(label2)
        if best is None or label_key < best[0]:
            best = (label_key, pi, label2)
    return best[1], best[2], best[0]

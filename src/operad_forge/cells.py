"""Cell-indexing combinatorics for the bimodule resolution.

A cell index pairs a main planar tree with one auxiliary planar tree per
main vertex (the auxiliary tree's leaves are the vertex's input slots).
This module counts and enumerates those indices by geometric-input count
and total auxiliary vertex count, groups them into classes under families of
non-planar isomorphisms (decided by a canonical class key, with no
isomorphism listed), builds the directed graphs whose edges contract a
single inner edge of the main tree (splicing the two auxiliary trees), and
derives from each graph a Reedy-category index structure.  It also provides
the height polytopes attached to an index (membership predicates over
main-vertex heights and auxiliary-edge parameters) and the explicit
two-stage straightening homotopy on them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from itertools import chain, groupby, product
from math import comb, factorial
from operator import itemgetter, mul
from typing import Iterator, Optional, Union

from .operads import Perm, all_perms, compositions
from .trees import PlanarTree, graft, lazy, planar_trees
from .values import Value

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# Cell indices
# ---------------------------------------------------------------------------


class UpsilonIndex(Value):
    """A main planar tree together with one auxiliary planar tree per main
    vertex (in preorder); auxiliary tree ``aux[v]`` has one leaf per input
    slot of main vertex ``v``."""

    __slots__ = ("main", "aux")

    def __init__(self, main: PlanarTree, aux: tuple[PlanarTree, ...]):
        if len(aux) != main.n_vertices:
            raise ValueError(
                f"expected {main.n_vertices} auxiliary trees, got {len(aux)}"
            )
        for v, a in enumerate(aux):
            if a.n_leaves != main.arity_of(v):
                raise ValueError(
                    f"auxiliary tree at vertex {v} has {a.n_leaves} leaves, "
                    f"vertex arity is {main.arity_of(v)}"
                )
        self.main = main
        self.aux = aux

    @property
    def geometric_inputs(self) -> int:
        """Main-tree leaves plus univalent auxiliary vertices."""
        return self.main.n_leaves + sum(a.n_univalent for a in self.aux)

    @property
    def aux_vertex_count(self) -> int:
        return sum(a.n_vertices for a in self.aux)

    @property
    def level(self) -> int:
        """Excess of auxiliary vertices over main vertices; zero exactly
        when every auxiliary tree is a corolla."""
        return self.aux_vertex_count - self.main.n_vertices


def enumerate_upsilon(
    k: int, l: int, require_nontrivial_main: bool = False
) -> list[UpsilonIndex]:
    """All cell indices with ``k`` geometric inputs and ``l`` auxiliary
    vertices in total, in a fixed deterministic order; the flag drops
    indices whose main tree is a corolla."""
    if k < 1 or l < 1:
        raise ValueError("both grading parameters must be >= 1")
    out: list[UpsilonIndex] = []
    min_p = 2 if require_nontrivial_main else 1
    for p in range(min_p, l + 1):  # main vertices; each needs >= 1 aux vertex
        # main leaves: each of the l auxiliary vertices adds at most one input
        for m in range(max(0, k - l), k + 1):
            for main in planar_trees(m, p):
                arities = [main.arity_of(v) for v in range(p)]
                for counts in compositions(l, p):
                    options = [
                        planar_trees(arities[v], counts[v]) for v in range(p)
                    ]
                    if any(not opt for opt in options):
                        continue
                    for combo in product(*options):
                        # geometric_inputs, checked before the index is built
                        if m + sum(a.n_univalent for a in combo) == k:
                            out.append(UpsilonIndex(main, combo))
    return out


def _series(k: int, l: int, colours: int, unordered: bool) -> int:
    """The coefficient of ``x^k y^l`` in ``T = y (x + F(x + colours T) - 1)``,
    ``F`` the sequence construction ``1 / (1 - A)`` or, when ``unordered``,
    the multiset one ``exp(sum_j A(x^j, y^j) / j)`` (Flajolet & Sedgewick,
    *Analytic Combinatorics*, 2009, I.2).  ``F`` is solved one ``y``-degree
    at a time, as ``T`` at degree ``c`` reads ``F`` below ``c`` only: the
    sequence from ``F = 1 + A F``, the multiset from its ``x``-derivative,
    ``x F' = D F`` with ``D = sum_j (x A')(x^j, y^j)``, all in integers.
    Every term of ``A`` has ``x``-degree at least 1."""
    f: list[list[int]] = []  # f[c][g]: the coefficient of x^g y^c in F
    a: list[list[int]] = []  # the same for A = x + colours T
    d = [[0] * (k + 1) for _ in range(l)]  # the same for D
    w = d if unordered else a  # the weights of the recurrence

    def tree(c: int) -> list[int]:  # the y-degree c >= 1 slice of T
        t = [0] + f[c - 1][1:]
        t[1] += c == 1
        return t

    for c in range(l):
        if c:
            a.append([colours * n for n in tree(c)])
        else:
            a.append([int(g == 1) for g in range(k + 1)])
        if unordered:  # (x A')(x^j, y^j) holds n a[c][n] at x^(n j) y^(c j)
            for j in range(1, (l - 1) // c + 1 if c else k + 1):
                for n in range(1, k // j + 1):
                    d[c * j][n * j] += n * a[c][n]
        if not c:  # A = x at y-degree 0, so F = 1 / (1 - x) for both
            f.append([1] * (k + 1))
            continue
        f.append([0] * (k + 1))
        for g in range(1, k + 1):
            s = sum(
                sum(map(mul, w[c1][1 : g + 1], f[c - c1][g - 1 :: -1]))
                for c1 in range(c + 1)
            )
            f[c][g] = s // g if unordered else s
    return tree(l)[k]


def _count(k: int, l: int, require_nontrivial_main: bool, unordered: bool) -> int:
    if k < 1 or l < 1:
        raise ValueError("both grading parameters must be >= 1")
    total = _series(k, l, 2, unordered)
    if require_nontrivial_main:  # less the corollas: no child main vertex
        total -= _series(k, l, 1, unordered)
    return total


def census_size(k: int, l: int, require_nontrivial_main: bool = False) -> int:
    """``len(enumerate_upsilon(k, l, require_nontrivial_main))``, counted
    with no index built.

    Glued along its main edges, a cell index is one planar tree of
    auxiliary vertices, each child of three kinds: a main leaf, an
    auxiliary child, or the auxiliary root of a child main vertex.  With
    ``x`` marking geometric inputs (main leaves and childless auxiliary
    vertices) and ``y`` auxiliary vertices, the census is the coefficient
    of ``x^k y^l`` in ``T = y (x + SEQ>=1(x + 2 T))``.  The corolla main
    trees have no child of the third kind: ``T = y (x + SEQ>=1(x + T))``
    counts them, the plain planar trees of ``enumerate_trees``.
    """
    return _count(k, l, require_nontrivial_main, unordered=False)


def class_count(k: int, l: int, require_nontrivial_main: bool = False) -> int:
    """``len(classify(enumerate_upsilon(k, l, require_nontrivial_main)))``,
    counted with no index built.

    A class key is the tree of ``census_size`` with unordered children: an
    auxiliary vertex encodes the multiset of its children, each a main
    leaf, an auxiliary child or the key of a child main vertex.  So the
    count is the coefficient of ``x^k y^l`` in
    ``C = y (x + MSET>=1(x + 2 C))``, less ``C = y (x + MSET>=1(x + C))``
    for the corolla main trees.

    With the flag it is at least ``2**l - 2``: a key at ``k = 1`` is a path
    of ``l`` auxiliary vertices, each edge auxiliary or main and the last
    vertex childless or holding the main leaf; the ``2**l - 2`` with a main
    edge map one-to-one to ``(k, l)`` by ``k - 1`` main leaves at the root.
    """
    return _count(k, l, require_nontrivial_main, unordered=True)


def census_lower_bound(k: int, l: int, require_nontrivial_main: bool = False) -> int:
    """A closed-form lower bound on ``census_size(k, l, ...)`` at ``l >= 2``,
    exact at ``l = 2``, computed with no series (and 0 at ``l = 1``).

    Both bounds count a sub-family of the trees of ``census_size``, whose
    inner edges are each auxiliary or main (two colours); with the flag the
    one all-auxiliary colouring of a tree is left out.

    At ``l = 2`` the root holds main leaves and one child ``v``, whose edge
    has two colours.  Either ``v`` is childless, with ``k - 1`` leaves at
    the root and ``k`` places for ``v``: ``2k`` trees.  Or ``v`` holds
    ``i >= 1`` main leaves and the root ``k - i``, with ``k - i + 1`` places
    for ``v``: ``k(k + 1)`` trees over ``i = 1 .. k``.  These are all the
    trees with two vertices, so the census is exactly ``k(k + 3)``, and
    ``k(k + 3)/2`` with the flag (the main colour only).

    At ``l >= 3`` the root holds ``j`` main leaves and one child ``v`` at
    one of ``j + 1`` places; ``v`` holds ``i`` main leaves and a chain of
    ``l - 2`` vertices at one of ``i + 1`` places; the top of the chain is
    childless or holds one main leaf, so ``j + i + 1 = k``.  The sum of
    ``(j + 1)(i + 1)`` over ``j + i = k - 1`` is ``C(k + 2, 3)``, and each
    of the ``l - 1`` edges has two colours, so the family has
    ``2**l C(k + 2, 3)`` trees, ``(2**l - 2) C(k + 2, 3)`` with the flag.
    ``tests/test_cells.py::test_census_lower_bound`` checks both against
    ``census_size`` on every ``k <= 40``, ``2 <= l <= 8``.
    """
    if l < 2:
        return 0
    if l == 2:
        size = k * (k + 3)
        return size // 2 if require_nontrivial_main else size
    colourings = 2**l - 2 if require_nontrivial_main else 2**l
    return colourings * comb(k + 2, 3)


def class_lower_bound(k: int, l: int) -> int:
    """A closed-form lower bound on ``class_count(k, l, True)``, the classes
    of the contraction graph, exact at ``l <= 2`` (0 at ``l = 1``, where
    there is no main edge).

    At ``l >= 2`` it counts a family of paths.  Take auxiliary vertices
    ``u1 .. ul``, each the child of the one before; the edge ``u1 -> u2`` is
    a main edge, and each of the other ``l - 2`` edges is auxiliary or main.
    Each ``ui`` holds ``ai`` main leaves.  Only ``ul`` can be childless (when
    ``al = 0``), a geometric input, so ``k = a1 + ... + al + [al = 0]``.
    With ``al >= 1`` there are ``C(k + l - 2, l - 1)`` such words ``a``, and
    with ``al = 0`` there are ``C(k + l - 3, l - 2)``.  Each key is a path,
    so distinct choices give distinct classes: ``2**(l - 2)`` times the sum
    in all, which is ``k + 1`` at ``l = 2``, and every class there (the root
    and, across the main edge, one vertex that is childless or holds
    ``i >= 1`` of the main leaves).  The bound is also at least the
    ``2**l - 2`` of ``class_count``.  ``tests/test_cells.py::
    test_class_lower_bound`` checks it against ``class_count``.
    """
    if l < 2:
        return 0
    paths = comb(k + l - 2, l - 1) + comb(k + l - 3, l - 2)
    return max(2 ** (l - 2) * paths, 2**l - 2)


# ---------------------------------------------------------------------------
# Classes under families of non-planar isomorphisms
# ---------------------------------------------------------------------------
#
# Two indices are in the same class when there is an isomorphism f of the
# main trees together with, for every main vertex v, an isomorphism g_v of
# the auxiliary trees at v and f(v) whose induced leaf permutation equals
# the slot permutation that f induces at v.  So two main vertices match
# exactly when their auxiliary trees are isomorphic as unordered trees whose
# leaf s carries slot s's entry (a main leaf, or the class of the child
# vertex at s).  Glued along its main edges, an index is one tree of
# auxiliary vertices (``census_size``), and the class key is its bottom-up
# encoding (Aho, Hopcroft & Ullman): an auxiliary vertex encodes as
# ``(1, sorted child encodings)``, each child as ``_encoding`` gives it.
# ``_glued`` reads that tree off a planar index.


def _encoding(kind: int, key: Optional[tuple]) -> tuple:
    """A child's encoding in its auxiliary parent's key, from its kind and
    its own ``key``: ``(0, (0,))`` for a main leaf (kind 0, no key),
    ``(0, (1, K))`` for a child main vertex (kind 1) whose auxiliary root
    has key ``K``, and its own key for an auxiliary child (kind 2)."""
    return (0, (0,)) if kind == 0 else (0, (1, key)) if kind == 1 else key


def _encodings(kids: tuple) -> list[tuple]:
    """The encodings of an auxiliary vertex's ``(kind, vertex)`` kids in
    their order; the vertex's key is ``(1, sorted encodings)``."""
    return [_encoding(kind, u.key if kind else None) for kind, u in kids]


class _Glued(Value):
    """An auxiliary vertex of a cell index glued along its main edges, read
    off a planar index: ``key`` and ``kids`` as in ``_KeyVertex``, the
    children in the index's planar order."""

    __slots__ = ("key", "kids")

    def __init__(self, key: tuple, kids: tuple):
        self.key = key
        self.kids = kids


def _glued(idx: UpsilonIndex, v: int = 0) -> _Glued:
    """Main vertex ``v`` of ``idx`` as the auxiliary root of its glued
    subtree: each auxiliary vertex's kids are its slots in order, a main
    leaf ``(0, None)``, the glued root of the child main vertex there
    ``(1, vertex)`` or an auxiliary child ``(2, vertex)``.  At ``v = 0``
    the key is the class key."""
    entries: list[tuple] = []
    w = v + 1  # the preorder index of the next child vertex
    for c in idx.main.subtrees[v].children:
        if c is None:
            entries.append((0, None))
        else:
            entries.append((1, _glued(idx, w)))
            w += c.n_vertices
    return _glued_aux(idx.aux[v], iter(entries))


def _glued_aux(sub: PlanarTree, slots: Iterator[tuple]) -> _Glued:
    """The auxiliary subtree ``sub`` glued, its leaves taking ``slots`` in
    planar order.  Not a closure in ``_glued``: a recursive closure is a
    reference cycle, which only the collector frees, one per index."""
    kids = tuple(next(slots) if c is None else (2, _glued_aux(c, slots)) for c in sub.children)
    return _Glued((1, tuple(sorted(_encodings(kids)))), kids)


def class_key(idx: UpsilonIndex):
    """A canonical hashable key equal for two indices exactly when they are
    related by a family of non-planar isomorphisms."""
    return _glued(idx).key


def _presentations(enc: tuple) -> int:
    """The planar presentations of a key vertex's encoding: at every
    auxiliary vertex reachable through the key (the keys of child main
    vertices included), the multinomial ``n! / prod(m_i!)`` of the
    multiplicities of its equal child encodings."""
    kids = enc[1]
    count = factorial(len(kids))
    for _, same in groupby(kids):  # sorted, so equal encodings are adjacent
        count //= factorial(len(list(same)))
    for kid in kids:
        if kid[0] == 1:  # an auxiliary vertex
            count *= _presentations(kid)
        elif kid[1][0] == 1:  # a child main vertex, (0, (1, K))
            count *= _presentations(kid[1][1])
    return count


def _excess(enc: tuple) -> int:
    """The auxiliary vertices less the child main vertices reachable from an
    encoding's vertex through the key, the vertex included: a key's level
    (auxiliary vertices less main vertices) is one less, as its root main
    vertex is not a child."""
    excess = 1
    for kid in enc[1]:
        if kid[0] == 1:  # an auxiliary vertex
            excess += _excess(kid)
        elif kid[1][0] == 1:  # a child main vertex, (0, (1, K))
            excess += _excess(kid[1][1]) - 1
    return excess


class TreeClass(Value):
    """An isomorphism class of cell indices: its representative and the
    canonical key.  The representative is the least member in
    ``enumerate_upsilon`` order, which is the census's first-seen member.
    ``size``, the number of planar members, and ``level`` are read off the
    key.  Equality reads the representative only.

    A class holds one of two sides: ``classify`` gives the representative,
    ``generate_classes`` the key vertex it generated (see ``_KeyVertex``).
    Each side is derived from the other when it is read, so the contraction
    graph, which walks the vertex, decodes no generated class, and only a
    class whose representative is written is decoded.  A decoded class
    lets its key vertex go, so that the key vertices need not outlive the
    writing of the classes."""

    __slots__ = ("key", "_representative", "_vertex")
    _repr = ("representative",)

    def __init__(self, representative: Optional[UpsilonIndex], key: tuple,
                 vertex: Optional[_KeyVertex] = None):
        self._representative = representative
        self.key = key
        self._vertex = vertex

    @property
    def representative(self) -> UpsilonIndex:
        if self._representative is None:
            main, aux = _decode(self._vertex)
            self._representative = _trusted_index(main, tuple(aux))
            self._vertex = None
        return self._representative

    @property
    def vertex(self):
        """The auxiliary root of the representative glued along its main
        edges, children in the representative's planar order: the
        generated ``_KeyVertex``, or a ``_Glued`` read off the
        representative."""
        if self._vertex is None:
            self._vertex = _glued(self._representative)
        return self._vertex

    @property
    def size(self) -> int:
        return _presentations(self.key)

    @property
    def level(self) -> int:
        return _excess(self.key) - 1


def classify(indices: list[UpsilonIndex]) -> list[TreeClass]:
    """Partition a census of indices into isomorphism classes, in first-seen
    order, each represented by its first-seen member.  On a whole census
    that member is the class's least in ``enumerate_upsilon`` order, so the
    result equals ``generate_classes``, which builds no census."""
    reps: dict[tuple, UpsilonIndex] = {}
    for idx in indices:
        reps.setdefault(class_key(idx), idx)
    return [TreeClass(rep, key) for key, rep in reps.items()]


# ---------------------------------------------------------------------------
# Classes generated from their keys
# ---------------------------------------------------------------------------
#
# A class key is a tree of auxiliary vertices whose children are main
# leaves, auxiliary children and the keys of child main vertices: the
# grammar ``C = y (x + MSET>=1(x + 2 C))`` that ``class_count`` counts.
# ``generate_classes`` builds the keys of each grade bottom-up as multisets
# over the keys of lower grades, so each class comes out once (an orderly
# generation: McKay, "Isomorph-free exhaustive generation", J. Algorithms
# 26, 1998).  ``_decode`` reads a key vertex as its class's least member in
# census order, the representative, when that is first read.
#
# That order is lexicographic in (main vertex count, main leaf count, main
# tree, composition, auxiliary trees).  A planar tree's position in
# ``planar_trees`` compares child sequences, a leaf before a vertex and
# vertices by (vertex count, leaf count, children).  So every auxiliary
# subtree contributes four runs to a member's order, each at a fixed place:
#   E, the tokens of its leaves' entries in the main tree (a main leaf
#      ``(0,)``, a child main vertex ``(1, vertices, leaves, E)``);
#   B, the auxiliary vertex counts of the child main vertices below it, in
#      main preorder (their part of the composition);
#   O, its token in its own auxiliary tree (``(1, vertices, leaves,
#      children's tokens)``);
#   X, the auxiliary trees of the child main vertices below it, in main
#      preorder, each as its root's children's tokens.
# A member is least when every subtree takes its least (E, B, O, X) over
# the orders of its children, each child taking its own least first (an
# exchange argument: a child's runs keep their length and place).  At one
# vertex, ``_least_order`` finds that order.


class _KeyVertex(Value):
    """An auxiliary vertex of a class key with the subtree below it, its
    children in least order: ``kids`` holds ``(kind, vertex)`` pairs, kind
    0 a main leaf, 1 a child main vertex (as its auxiliary root), 2 an
    auxiliary child.  ``aux`` counts the auxiliary vertices of the subtree
    in its own tree, ``mains`` and ``main_leaves`` the main vertices and
    main leaves below it; ``e``, ``b``, ``o`` and ``x`` are its runs.  A
    vertex is equal only to itself."""

    __slots__ = ("key", "kids", "leaves", "aux", "mains", "main_leaves", "e", "b", "o", "x")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, key, kids, leaves, aux, mains, main_leaves, e, b, o, x):
        self.key = key
        self.kids = kids
        self.leaves = leaves
        self.aux = aux
        self.mains = mains
        self.main_leaves = main_leaves
        self.e = e
        self.b = b
        self.o = o
        self.x = x


_LEAF_TOKEN = (0,)


def _child(kind: int, v: _KeyVertex) -> tuple:
    """A child main vertex (kind 1) or auxiliary child (kind 2) as
    ``(E, B, O, X, kind, vertex)``: its runs in the parent's order."""
    if kind == 1:
        return (
            ((1, 1 + v.mains, v.main_leaves, v.e),), (v.aux,) + v.b,
            _LEAF_TOKEN, (v.o,) + v.x, 1, v,
        )
    return (v.e, v.b, (1, v.aux, v.leaves, v.o), v.x, 2, v)


def _concat(a: tuple, b: tuple) -> int:
    """Compare ``a + b`` with ``b + a``: the order of the least
    concatenation, a total preorder on runs that are not empty."""
    ab, ba = a + b, b + a
    return (ab > ba) - (ab < ba)


def _before(a: tuple, b: tuple) -> int:
    """Order two children that carry leaves: E, then B, by concatenation,
    then O, then X by concatenation."""
    return (
        _concat(a[0], b[0]) or _concat(a[1], b[1])
        or (a[2] > b[2]) - (a[2] < b[2]) or _concat(a[3], b[3])
    )


def _least_order(children: list[tuple]) -> list[tuple]:
    """The children of one vertex in the order whose concatenated (E, B, O,
    X) is least.  Leafless children have empty E, B and X, so they change O
    only: they merge into the sorted rest by O, whose tokens, having leaves,
    never equal theirs.  A main leaf, least in E and in O, leads, so it is
    left to the caller."""
    leafy = sorted((c for c in children if c[0]), key=cmp_to_key(_before))
    leafless = sorted((c for c in children if not c[0]), key=itemgetter(2))
    out: list[tuple] = []
    i = 0
    for c in leafy:
        while i < len(leafless) and leafless[i][2] < c[2]:
            out.append(leafless[i])
            i += 1
        out.append(c)
    return out + leafless[i:]


def _key_vertex(n_leaves: int, children: list[tuple]) -> _KeyVertex:
    """The vertex with ``n_leaves`` main leaves and ``children``, as
    ``_child`` gives them, in least order."""
    order = _least_order(children)
    kids = ((0, None),) * n_leaves + tuple((c[4], c[5]) for c in order)
    subs = [c[5] for c in order if c[4] == 2]
    mains = [c[5] for c in order if c[4] == 1]
    return _KeyVertex(
        (1, tuple(sorted(_encodings(kids)))),
        kids,
        n_leaves + len(mains) + sum(v.leaves for v in subs),
        1 + sum(v.aux for v in subs),
        sum(1 + v.mains for v in mains) + sum(v.mains for v in subs),
        n_leaves + sum(v.main_leaves for v in mains + subs),
        (_LEAF_TOKEN,) * n_leaves + tuple(chain.from_iterable(c[0] for c in order)),
        tuple(chain.from_iterable(c[1] for c in order)),
        (_LEAF_TOKEN,) * n_leaves + tuple(c[2] for c in order),
        tuple(chain.from_iterable(c[3] for c in order)),
    )


def _key_vertices(g: int, c: int, lower: list) -> list[_KeyVertex]:
    """The key vertices of grade ``(g, c)``: ``g`` geometric inputs and
    ``c`` auxiliary vertices.  ``lower`` lists ``(c', g', children)`` for
    every lower grade with ``c' < c``, in increasing ``(c', g')``; each
    multiset of those children is taken once, in non-decreasing list
    order, and main leaves make up the rest of ``g``."""
    out = [_key_vertex(0, [])] if (g, c) == (1, 1) else []
    _extend_key_vertices(lower, out, 0, 0, g, c - 1, [])
    return out


def _extend_key_vertices(lower: list, out: list, start: int, first: int,
                         g: int, c: int, chosen: list) -> None:
    """Append to ``out`` each key vertex with the children ``chosen`` and
    more from ``lower`` at or after ``lower[start][2][first]``, with ``g``
    inputs and ``c`` auxiliary vertices left to place."""
    if c == 0:
        if chosen or g:
            out.append(_key_vertex(g, chosen))
        return
    for i in range(start, len(lower)):
        ci, gi, kids = lower[i]
        if ci > c:
            break
        if gi > g or (gi == g and ci < c):  # a child needs an input
            continue
        for j in range(first if i == start else 0, len(kids)):
            _extend_key_vertices(lower, out, i, j, g - gi, c - ci, chosen + [kids[j]])


def _decode(v: _KeyVertex) -> tuple[PlanarTree, list[PlanarTree]]:
    """The main subtree of a main vertex's auxiliary root ``v`` and its
    auxiliary trees in main preorder, in the least order of ``v``."""
    slots: list[Optional[PlanarTree]] = []
    aux: list[PlanarTree] = []
    root = _decode_aux(v, slots, aux)
    return PlanarTree(tuple(slots)), [root] + aux


def _decode_aux(u: _KeyVertex, slots: list, aux: list) -> PlanarTree:
    """The auxiliary tree at ``u``; the main slots it meets, and the
    auxiliary trees above them, are appended to ``slots`` and ``aux``."""
    kids: list[Optional[PlanarTree]] = []
    for kind, w in u.kids:
        kids.append(_decode_aux(w, slots, aux) if kind == 2 else None)
        if kind == 0:
            slots.append(None)
        elif kind == 1:
            sub, sub_aux = _decode(w)
            slots.append(sub)
            aux.extend(sub_aux)
    return PlanarTree(tuple(kids))


def _trusted_index(main: PlanarTree, aux: tuple[PlanarTree, ...]) -> UpsilonIndex:
    """An ``UpsilonIndex`` that the engine built itself, so it is not
    checked again: a decoded key or a contraction."""
    idx = object.__new__(UpsilonIndex)
    idx.main = main
    idx.aux = aux
    return idx


def generate_classes(
    k: int, l: int, require_nontrivial_main: bool = False
) -> list[TreeClass]:
    """``classify(enumerate_upsilon(k, l, require_nontrivial_main))``,
    generated from the class keys with no index of the census built: the
    same classes, keys and representatives (each class's least member in
    ``enumerate_upsilon`` order), in the same order.  The work follows the
    class count of the grade and of the lower grades it is built from.
    Each class holds its key vertex, and decodes its representative from
    it only when that is first read."""
    if k < 1 or l < 1:
        raise ValueError("both grading parameters must be >= 1")
    lower: list[tuple[int, int, list[tuple]]] = []
    for c in range(1, l):
        for g in range(1, k + 1):
            verts = _key_vertices(g, c, lower)
            if verts:
                lower.append(
                    (c, g, [_child(kind, v) for v in verts for kind in (1, 2)])
                )
    top = [
        v for v in _key_vertices(k, l, lower)
        if v.mains or not require_nontrivial_main
    ]
    top.sort(key=lambda v: (
        v.mains, v.main_leaves, v.e, (v.aux,) + v.b, (v.o,) + v.x
    ))
    return [TreeClass(None, v.key, v) for v in top]


def stab(
    cls: TreeClass, main_vertex: int, aux_vertex: int
) -> list[Perm]:
    """Coset representatives of the input permutations of an auxiliary
    vertex under the automorphism families fixing it (the families, as
    defined above ``class_key``, from the representative to itself), in
    lexicographic order, so the identity comes first and represents the
    class of induced automorphisms.

    In the glued tree of the main vertex (``_glued``), the induced
    permutations are every permutation inside each block of slots of the
    auxiliary vertex whose kids have equal encodings.  So the least member
    of each coset is the one that increases on every block."""
    rep = cls.representative
    if not 0 <= main_vertex < rep.main.n_vertices:
        raise ValueError(f"no main vertex {main_vertex}")
    if not 0 <= aux_vertex < rep.aux[main_vertex].n_vertices:
        raise ValueError(
            f"no auxiliary vertex {aux_vertex} at main vertex {main_vertex}"
        )
    stack = [_glued(rep, main_vertex)]  # its auxiliary vertices in preorder
    for _ in range(aux_vertex):
        u = stack.pop()
        stack += (w for kind, w in reversed(u.kids) if kind == 2)
    encs = _encodings(stack.pop().kids)
    blocks: dict[tuple, list[int]] = {}
    for s, enc in enumerate(encs):
        blocks.setdefault(enc, []).append(s)
    pairs = [(s, t) for blk in blocks.values() for s, t in zip(blk, blk[1:])]
    return [
        sigma for sigma in all_perms(len(encs))
        if all(sigma[s] < sigma[t] for s, t in pairs)
    ]


# ---------------------------------------------------------------------------
# Contraction graphs
# ---------------------------------------------------------------------------


def contract_main_edge(
    idx: UpsilonIndex, parent: int, slot: int
) -> UpsilonIndex:
    """Contract the main-tree inner edge from ``parent``'s ``slot`` to its
    child vertex; the child's auxiliary tree is grafted into the parent's at
    the leaf matching the slot, and the child's slots replace the slot."""
    main = idx.main
    child = main.child_vertex.get((parent, slot))
    if child is None:
        raise ValueError(f"no inner edge at vertex {parent}, slot {slot}")
    # The child's slots take its place in the parent, so the preorder of the
    # contracted tree is the old one without the child: the auxiliary trees
    # splice, and only the path from the root to the parent is rebuilt.
    kids = main.subtrees[parent].children
    sub = PlanarTree(kids[: slot - 1] + main.subtrees[child].children + kids[slot:])
    v = parent
    while v:
        up, s = main.vertex_parents[v]
        kids = main.subtrees[up].children
        sub = PlanarTree(kids[: s - 1] + (sub,) + kids[s:])
        v = up
    aux = idx.aux
    merged = graft(aux[parent], slot, aux[child])
    return _trusted_index(
        sub, aux[:parent] + (merged,) + aux[parent + 1 : child] + aux[child + 1 :]
    )


def _replaced(key: tuple, old: tuple, new: tuple) -> tuple:
    """``key`` with the child encoding ``old`` replaced by ``new``, sorted."""
    kids = list(key[1])
    kids.remove(old)
    kids.append(new)
    kids.sort()
    return (1, tuple(kids))


def _contractions(v) -> Iterator[tuple]:
    """For each main edge below the key vertex ``v``, in the order that
    ``_decode`` meets its child vertex, the key of ``v``'s subtree with that
    edge contracted.  From a class's vertex these are the class keys of
    ``contract_main_edge`` on its representative, in ``main.child_vertex``
    order, with no index decoded or contracted.

    The keys are right.  Glued along its main edges, a cell index is one
    tree of auxiliary vertices (``census_size``), and a key vertex encodes
    its children sorted, each as ``_encoding`` gives it.
    ``contract_main_edge`` grafts the child's auxiliary tree at the
    parent's leaf that carried it and keeps every other slot and auxiliary
    tree, so in the glued tree it only recolours that edge from main to
    auxiliary: the vertex ``u`` above it has the auxiliary child ``K`` where
    it had the entry ``(0, (1, K))``.  An encoding is a function of the
    multiset of the encodings below it, so the encodings off the path from
    ``u`` to the root are unchanged, and each vertex on the path takes its
    changed child's new encoding in place of the old, sorted again
    (``_replaced``).  The result is the key of the contracted index, which
    ``class_key`` computes from it.

    The order is right.  This walk reads each vertex's children in ``kids``
    order, meets a child main vertex where ``_decode`` appends its slot,
    and walks into it at once, as ``_decode`` does before its next child.
    So it meets the child main vertices in the order ``_decode`` numbers
    them, the representative's main preorder, and ``child_vertex`` lists
    the edges by the preorder index of their child.  A vertex read off a
    planar index (``_glued``) keeps that index's planar order, so the same
    holds for any member."""
    for kind, w in v.kids:
        if kind:
            old = _encoding(kind, w.key)
            if kind == 1:  # this main edge, recoloured auxiliary
                yield _replaced(v.key, old, _encoding(2, w.key))
            for sub in _contractions(w):
                yield _replaced(v.key, old, _encoding(kind, sub))


class ContractionGraph(Value):
    """Classes of cell indices with non-corolla main trees, with a directed
    edge whenever contracting one inner main edge of a member lands in the
    target class."""

    __slots__ = ("k", "l", "classes", "edges", "components", "initials")

    def __init__(
        self, k: int, l: int, classes: tuple[TreeClass, ...],
        edges: tuple[tuple[int, int], ...], components: tuple[tuple[int, ...], ...],
        initials: tuple[int, ...],
    ):
        self.k = k
        self.l = l
        self.classes = classes
        self.edges = edges
        self.components = components
        self.initials = initials


def _finish_graph(
    k: int, l: int, classes: list[TreeClass], edges: list[tuple[int, int]]
) -> ContractionGraph:
    parent = list(range(len(classes)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(b)
    comp_map: dict[int, list[int]] = {}
    for i in range(len(classes)):
        comp_map.setdefault(find(i), []).append(i)
    components = tuple(tuple(v) for v in comp_map.values())
    initials = tuple(
        i for i, c in enumerate(classes) if c.level == 0
    )
    return ContractionGraph(
        k, l, tuple(classes), tuple(edges), components, initials
    )


def graph_classes(k: int, l: int) -> list[TreeClass]:
    """The vertices of ``build_graph(k, l)``: the classes with ``k``
    geometric inputs, ``l`` auxiliary vertices, and a non-corolla main
    tree, generated with no census.  Each is represented by its least
    member in ``enumerate_upsilon`` order, and they come in the order of
    those members."""
    return generate_classes(k, l, require_nontrivial_main=True)


def build_graph(
    k: int, l: int, classes: Optional[list[TreeClass]] = None
) -> ContractionGraph:
    """The contraction graph over ``graph_classes(k, l)``; a caller that
    already holds those classes passes them in.

    A family of isomorphisms carries inner edges to inner edges and their
    contractions to isomorphic indices, so every member of a class reaches
    the same target classes: the representative's edges are all of them.
    They are computed on the keys (``_contractions``), in the
    representative's ``main.child_vertex`` order, each target as first met,
    with no index decoded or contracted.  A class with one main edge
    contracts to a corolla main tree, outside the graph."""
    if classes is None:
        classes = graph_classes(k, l)
    key_to_idx = {c.key: i for i, c in enumerate(classes)}
    edges: list[tuple[int, int]] = []
    for ci, cls in enumerate(classes):
        targets = list(_contractions(cls.vertex))
        if len(targets) > 1:
            edges.extend((ci, tj) for tj in dict.fromkeys(key_to_idx[t] for t in targets))
    return _finish_graph(k, l, classes, edges)


def subgraph_i(g: ContractionGraph, i: int) -> ContractionGraph:
    """The two-level graph on classes of level 0 and level ``i``, with an
    edge when a chain of ``i`` contractions connects them; level 0 gives the
    edgeless graph on the level-0 classes."""
    if not 0 <= i <= g.l - 2:
        raise ValueError(f"level {i} out of range 0..{g.l - 2}")
    keep = [
        j for j, c in enumerate(g.classes) if c.level in (0, i)
    ]
    remap = {j: p for p, j in enumerate(keep)}
    adj: dict[int, list[int]] = {}
    for a, b in g.edges:
        adj.setdefault(a, []).append(b)
    edges: list[tuple[int, int]] = []
    if i > 0:
        for j in keep:
            if g.classes[j].level != 0:
                continue
            frontier = {j}
            for _ in range(i):  # every contraction raises the level by 1
                frontier = {b for a in frontier for b in adj.get(a, [])}
            for b in sorted(frontier):
                if g.classes[b].level == i:
                    edges.append((remap[j], remap[b]))
    return _finish_graph(g.k, g.l, [g.classes[j] for j in keep], edges)


# ---------------------------------------------------------------------------
# Reedy index data
# ---------------------------------------------------------------------------

ReedyObject = Union[tuple[str, int], tuple[str, int, int]]


class ReedyData(Value):
    """The Reedy-category index structure of a directed graph: one degree-1
    object per graph vertex, one degree-0 object per edge, and two
    degree-lowering morphisms per edge object (to its endpoints)."""

    __slots__ = ("vertex_objects", "pair_objects", "__dict__")

    def __init__(
        self, vertex_objects: tuple[ReedyObject, ...], pair_objects: tuple[ReedyObject, ...]
    ):
        self.vertex_objects = vertex_objects
        self.pair_objects = pair_objects

    @property
    def objects(self) -> tuple[ReedyObject, ...]:
        return self.vertex_objects + self.pair_objects

    @lazy
    def _degrees(self) -> dict[ReedyObject, int]:
        return {
            **dict.fromkeys(self.pair_objects, 0),
            **dict.fromkeys(self.vertex_objects, 1),
        }

    @lazy
    def _latching(self) -> dict[ReedyObject, list[tuple[str, ReedyObject]]]:
        """Per vertex object, the faces into it in pair order, ``d0`` before
        ``d1``."""
        out: dict[ReedyObject, list[tuple[str, ReedyObject]]] = {}
        for pair in self.pair_objects:
            out.setdefault(self.d0(pair), []).append(("d0", pair))
            out.setdefault(self.d1(pair), []).append(("d1", pair))
        return out

    def _degree(self, obj) -> Optional[int]:
        try:
            return self._degrees.get(obj)
        except TypeError:  # unhashable, so not an object
            return None

    def degree(self, obj: ReedyObject) -> int:
        d = self._degree(obj)
        if d is None:
            raise ValueError(f"unknown object {obj!r}")
        return d

    def d0(self, obj: ReedyObject) -> ReedyObject:
        """The face sending an edge object to its source vertex."""
        if self._degree(obj) != 0:
            raise ValueError(f"{obj!r} is not an edge object")
        return ("vertex", obj[1])

    def d1(self, obj: ReedyObject) -> ReedyObject:
        """The face sending an edge object to its target vertex."""
        if self._degree(obj) != 0:
            raise ValueError(f"{obj!r} is not an edge object")
        return ("vertex", obj[2])


def reedy_of(g: ContractionGraph) -> ReedyData:
    return ReedyData(
        tuple(("vertex", i) for i in range(len(g.classes))),
        tuple(("pair", a, b) for a, b in g.edges),
    )


def latching_index(
    r: ReedyData, obj: ReedyObject
) -> list[tuple[str, ReedyObject]]:
    """The index set of the latching object: all non-identity morphisms into
    ``obj`` from strictly lower degree, as ``(face name, edge object)``
    pairs; empty for degree-0 objects."""
    if r.degree(obj) == 0:
        return []
    return list(r._latching.get(obj, ()))


# ---------------------------------------------------------------------------
# Height polytopes and the straightening homotopy
# ---------------------------------------------------------------------------

Heights = tuple[Fraction, ...]
AuxParams = tuple[tuple[Fraction, ...], ...]

def _check_point(
    idx: UpsilonIndex, heights: Heights, aux_params: AuxParams
) -> None:
    if len(heights) != idx.main.n_vertices:
        raise ValueError(
            f"expected {idx.main.n_vertices} heights, got {len(heights)}"
        )
    if len(aux_params) != len(idx.aux):
        raise ValueError(
            f"expected {len(idx.aux)} auxiliary parameter tuples, "
            f"got {len(aux_params)}"
        )
    for v, a in enumerate(idx.aux):
        if len(aux_params[v]) != a.n_vertices - 1:
            raise ValueError(
                f"auxiliary tree at vertex {v} has {a.n_vertices - 1} inner "
                f"edges, got {len(aux_params[v])} parameters"
            )
    for t in heights:
        if not ZERO <= t <= ONE:
            raise ValueError(f"height {t} outside [0, 1]")
    for ps in aux_params:
        for s in ps:
            if not ZERO <= s <= ONE:
                raise ValueError(f"edge parameter {s} outside [0, 1]")


def h_membership(
    idx: UpsilonIndex,
    heights: Heights,
    aux_params: AuxParams,
    variant: str = "H",
) -> bool:
    """Membership in the height polytope of an index.

    ``H``: every inner edge of the main tree has its leafward endpoint at
    least as high as its rootward endpoint.  ``H-``: additionally some
    auxiliary edge parameter is 0 or some main height lies in {0, 1}.
    ``H(T;T')``: additionally (to ``H``) some auxiliary edge parameter is 1.
    """
    if variant not in ("H", "H-", "H(T;T')"):
        raise ValueError(f"unknown variant {variant!r}")
    _check_point(idx, heights, aux_params)
    for child, (par, _slot) in enumerate(idx.main.vertex_parents):
        if par >= 0 and heights[child] < heights[par]:
            return False
    if variant == "H-":
        return (
            any(s == ZERO for ps in aux_params for s in ps)
            or any(t in (ZERO, ONE) for t in heights)
        )
    if variant == "H(T;T')":
        return any(s == ONE for ps in aux_params for s in ps)
    return True


def max_vertices(main: PlanarTree) -> frozenset[int]:
    """The main vertices with no vertex children (no inner edge has them as
    its rootward endpoint)."""
    return frozenset(
        v for v, sub in enumerate(main.subtrees)
        if all(c is None for c in sub.children)
    )


def homotopy_H(
    idx: UpsilonIndex,
    heights: Heights,
    aux_params: AuxParams,
    u: Fraction,
) -> tuple[Heights, AuxParams]:
    """The two-stage straightening homotopy on the height polytope.

    The first half pushes the heights of the childless main vertices to 1,
    the root to 0, and everything else to 1/2, keeping auxiliary parameters
    fixed; the second half pushes every auxiliary edge parameter to 1.  At
    ``u = 0`` it is the identity; it preserves membership in ``H`` (and in
    ``H-``) for every ``u``.
    """
    u = Fraction(u)
    if not ZERO <= u <= ONE:
        raise ValueError(f"homotopy parameter {u} outside [0, 1]")
    if idx.main.n_vertices == 1:
        raise ValueError("the homotopy needs a non-corolla main tree")
    if not h_membership(idx, heights, aux_params, "H"):
        raise ValueError("input point is outside the height polytope")
    mx = max_vertices(idx.main)

    def stage1(w: Fraction) -> Heights:
        out = []
        for v, t in enumerate(heights):
            if v in mx:
                out.append((ONE - t) * w + t)
            elif v == 0:
                out.append((ONE - w) * t)
            else:
                out.append((HALF - t) * w + t)
        return tuple(out)

    if u <= HALF:
        return stage1(2 * u), aux_params
    w = 2 * u - ONE
    new_aux = tuple(
        tuple(s + (ONE - s) * w for s in ps) for ps in aux_params
    )
    return stage1(ONE), new_aux

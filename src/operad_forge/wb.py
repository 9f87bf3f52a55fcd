"""Points of the bimodule resolution: a main tree whose vertices carry
monotone rational heights in [0,1] and labels from the operad resolution of
``bv``.

Relations oriented into a rewriting system by ``wb_normalize``:
(i) a main vertex labeled by the unit point is deleted; (ii) the symmetric
action is pushed into child reorderings (canonical presentation), and on a
normal form with one main vertex into its label alone, by ``bv_act`` at the
same height; (iii) adjacent main vertices with equal heights are merged by
composing their labels; (iv) a label at height 0 or 1 is collapsed to the
corolla on its operad image.  The relations are confluent, and the default
order rewrites in one bottom-up pass, settling each child and then resolving
it against its parent; ``rng`` picks a random order of single redexes under
the same rules instead, which the tests check the pass against.

A point is the composite of its maximal pieces of one height band, {0},
]0,1[ or {1}; the pieces inside ]0,1[ are its prime components.  Its
decomposition is a planar tree decorated by the pieces, as in ``bv``
(``trees.Decomposition``, cut by ``trees.decompose``), which ``trees.fold``
reassembles by the graft of ``bv_compose`` with no new edge length.
``subdivide`` cuts a point along the gap and cube bands of an interval
configuration instead, for ``mapping.alpha``.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter
from random import Random
from typing import Any, Optional

from .bv import (
    BVPoint,
    bv_act,
    bv_compose,
    bv_normalize,
    bv_unit,
    has_unit_bivalent,
    in_stage,
    iota,
    mu,
)
from .operads import CubeConfig, Operad, Perm, gaps, identity_perm
from .trees import (
    Decomposition,
    Node,
    PlanarTree,
    Tree,
    act_on_word,
    corolla,
    cut,
    decompose,
    fold,
    graft_input,
    graft_points,
    nodes_of,
    normal,
    point_of,
    rewrite_fixpoint,
    settle,
)
from .values import Value

ZERO = Fraction(0)
ONE = Fraction(1)


class WBPoint(Value):
    """A point of the bimodule resolution.  ``heights[v]`` and ``labels[v]``
    decorate preorder main-tree vertex ``v``; ``tree.labels`` is the leaf
    word of the main tree.

    The constructor checks nothing: caller data enters through ``raw_wb``,
    which validates it once, and the engine builds only valid points.

    ``canonical=True`` means the point is a normal form, and the engine
    trusts it: ``wb_normalize`` and ``wb_act`` by the identity return it as
    it is.  Only the canonical presentation ``trees.present``, where every
    normalization and every action ends, and the direct builder
    ``wb_trivial`` set it.  Equality reads neither ``operad`` nor
    ``canonical``.

    The class gives the engine of ``trees`` its hooks: the heights as
    decorations, labels acted on by ``bv_act`` and ordered by their
    ``order_key``, and relations (i), (iii) and (iv) as ``_rewrite``.
    """

    __slots__ = ("operad", "operad_name", "tree", "heights", "labels", "canonical")
    _compared = ("operad_name", "tree", "heights", "labels")

    def __init__(
        self, operad: Operad, operad_name: str = "", tree: Tree = None,
        heights: tuple[Fraction, ...] = (), labels: tuple[BVPoint, ...] = (),
        canonical: bool = False,
    ):
        self.operad = operad
        self.operad_name = operad_name
        self.tree = tree
        self.heights = heights
        self.labels = labels
        self.canonical = canonical

    @property
    def arity(self) -> int:
        return self.tree.n

    @property
    def n_main_vertices(self) -> int:
        return self.tree.shape.n_vertices

    @property
    def geometric_inputs(self) -> int:
        """Main-tree leaves plus univalent vertices of the auxiliary trees."""
        return self.tree.shape.n_leaves + sum(
            x.tree.shape.n_univalent for x in self.labels
        )

    @property
    def aux_vertex_count(self) -> int:
        return sum(x.n_vertices for x in self.labels)

    def __repr__(self) -> str:
        return (
            f"WBPoint({self.operad_name}, {self.tree.shape!r}, "
            f"heights={tuple(str(t) for t in self.heights)}, "
            f"labels={self.labels}, word={self.tree.labels})"
        )

    @property
    def _decorations(self) -> tuple:
        return self.heights

    @classmethod
    def _build(cls, operad, tree, labels, heights, canonical) -> WBPoint:
        return cls(operad, operad.name, tree, heights, labels, canonical)

    @staticmethod
    def _label_order(operad: Operad) -> tuple:
        return bv_act, attrgetter("order_key")

    @staticmethod
    def _rewrite(operad: Operad, root: Node, rng: Optional[Random] = None) -> Node:
        """Relations (i), (iii) and (iv), rewritten to the normal form by
        ``settle``, or by the same rules in a random order that ``rng``
        draws (the oracle; the system is confluent, so both end at the same
        form)."""
        rules = (_normalize_label, attrgetter("is_unit"), _unit_kid, _equal_heights,
                 bv_compose, _collapses, _collapse)
        if rng is None:
            root = settle(operad, root, rules)
        else:
            root = rewrite_fixpoint(operad, root, rules, rng)
        # The fully degenerate point: a single unit-labeled vertex.  Fix its
        # height at 0 as the canonical representative.
        if root.label.is_unit and not isinstance(root.kids[0], Node):
            root.t = ZERO
        return root


def raw_wb(
    operad: Operad,
    shape: PlanarTree,
    labels: tuple[BVPoint, ...],
    heights: tuple[Fraction, ...],
    word: Optional[tuple[int, ...]] = None,
) -> WBPoint:
    tree = Tree(shape, word if word is not None else tuple(range(1, shape.n_leaves + 1)))
    p = WBPoint(operad, operad.name, tree, tuple(heights), tuple(labels), False)
    _validate_raw(p)
    return p


def _validate_raw(p: WBPoint) -> None:
    """Counts first, then each main vertex's label and height in preorder,
    in one walk of the children with its own stack that notes each
    vertex's parent, then the monotonicity of the heights: a point with
    faults of both kinds is refused for its first per-vertex fault."""
    shape, labels, heights = p.tree.shape, p.labels, p.heights
    if len(labels) != shape.n_vertices or len(heights) != shape.n_vertices:
        raise ValueError("one label and one height per main vertex required")
    parents: list[int] = []
    stack = [(shape.children, -1)]
    while stack:
        children, parent = stack.pop()
        v = len(parents)
        parents.append(parent)
        label = labels[v]
        if label.operad_name != p.operad_name:
            raise ValueError("operad mismatch")
        if label.arity != len(children):
            raise ValueError(
                f"label arity {label.arity} != vertex arity {len(children)}"
                f" at main vertex {v}"
            )
        if not isinstance(heights[v], (int, Fraction)):
            raise ValueError(f"height {heights[v]!r} is not an int or a Fraction")
        if not 0 <= heights[v] <= 1:
            raise ValueError(f"height {heights[v]} outside [0,1]")
        stack += ((c.children, v) for c in reversed(children) if c is not None)
    for v, parent in enumerate(parents):
        if parent >= 0 and heights[v] < heights[parent]:
            raise ValueError(
                f"height monotonicity violated: vertex {v} at {heights[v]} "
                f"below parent {parent} at {heights[parent]}"
            )


# ---------------------------------------------------------------------------
# Rewriting
# ---------------------------------------------------------------------------


# The rules of ``WBPoint._rewrite``: a label is normalized before the rules
# read it; (i) deletes a vertex with its height; (iii) merges equal heights;
# (iv) keeps only a label's operad image at heights 0 and 1.
def _normalize_label(operad: Operad, n: Node) -> None:
    n.label = bv_normalize(n.label)


def _unit_kid(n: Node):
    return n.kids[0]


def _equal_heights(parent: Node, child: Node) -> bool:
    return child.t == parent.t


def _collapses(n: Node) -> bool:
    # ``raw_wb`` keeps heights exact and in [0,1]: an integer one is 0 or 1
    return n.t.denominator == 1 and n.label.n_vertices > 1


def _collapse(operad: Operad, n: Node) -> None:
    n.label = iota(operad, mu(n.label))


def wb_normalize(raw: WBPoint, rng: Optional[Random] = None) -> WBPoint:
    """Canonical form: rewrite (``_rewrite``: one bottom-up pass, or a
    random order when ``rng`` is given), then present; a normal form is
    returned as it is.  The input is trusted: it comes from ``raw_wb`` or
    from the engine."""
    return raw if raw.canonical else normal(WBPoint, raw.operad, nodes_of(raw), rng)


# ---------------------------------------------------------------------------
# Bimodule structure
# ---------------------------------------------------------------------------


def wb_gamma0(operad: Operad, a0) -> WBPoint:
    """The arity-0 structure map: a corolla at height 0."""
    if operad.arity(a0) != 0:
        raise ValueError("wb_gamma0 needs an arity-0 element")
    return wb_normalize(raw_wb(operad, corolla(0), (iota(operad, a0),), (ZERO,)))


def wb_right(x: WBPoint, i: int, a) -> WBPoint:
    """Right action: graft the corolla (iota(a); 1) above input ``i``."""
    operad = x.operad
    m = operad.arity(a)
    root = nodes_of(x)
    scion = Node(iota(operad, a), ONE, [0] * m)
    graft_input(root, x.tree.labels, i, scion, identity_perm(m))
    return normal(WBPoint, operad, root)


def wb_left(a, xs: list[WBPoint]) -> WBPoint:
    """Left action: graft the points onto the corolla (iota(a); 0)."""
    if not xs:
        raise ValueError("left action needs at least one argument in this form")
    operad = xs[0].operad
    m = operad.arity(a)
    if len(xs) != m:
        raise ValueError(f"need {m} arguments, got {len(xs)}")
    if any(x.operad_name != operad.name for x in xs):
        raise ValueError("operad mismatch")
    kids, offset = [], 0
    for x in xs:  # each word shifted past the inputs of the points before it
        kids.append(nodes_of(x, tuple(w + offset for w in x.tree.labels)))
        offset += x.arity
    return normal(WBPoint, operad, Node(iota(operad, a), ZERO, kids))


def wb_act(x: WBPoint, sigma: Perm) -> WBPoint:
    """Symmetric action on the main-tree leaf word, then re-canonicalize; a
    normal form with one main vertex only has its label acted on
    (``trees.act_on_word``).  ``sigma`` must be a permutation of
    ``1..arity``."""
    return act_on_word(x, sigma)


def mu_tilde(x: WBPoint) -> Any:
    """Send all heights to 0: the operad composite of the labels' images
    along the main tree, acted on by the leaf word.

    By definition this is the image of the labels composed in the
    resolution, ``mu(fold(labels, bv_compose))``.  Folding the images is
    exact because ``mu`` is a map of operads: it takes each ``bv_compose``
    of the fold (the same slot, in the same order) to ``operad.compose``,
    and it is unchanged by the normalization that ``bv_compose`` runs.
    ``tests/test_bv.py::test_mu_is_an_operad_map`` checks both facts, and
    ``tests/test_wb.py::test_mu_tilde_matches_the_resolution_fold`` checks
    this function against the definition."""
    operad, tree = x.operad, x.tree
    images = [mu(a) for a in x.labels]
    return operad.act(fold(tree.shape, images, operad.compose), tree.labels)


# ---------------------------------------------------------------------------
# Height cuts: band subdivision and prime decomposition
# ---------------------------------------------------------------------------

def wb_trivial(operad: Operad) -> WBPoint:
    """The degenerate unit point, built directly as the canonical point
    that normalization gives: the unit corolla at height 0, whose main tree
    is that of its label.  It is the trivial sub-point contributed by an
    edge crossing a band."""
    unit = bv_unit(operad)
    return WBPoint(operad, operad.name, unit.tree, (ZERO,), (unit,), True)


def is_trivial_subpoint(p: WBPoint) -> bool:
    return p.n_main_vertices == 1 and p.labels[0].is_unit


def subdivide(
    y: WBPoint, c: CubeConfig
) -> tuple[list[list[WBPoint]], list[list[WBPoint]]]:
    """Split the main tree of ``y`` into the sub-points lying in the n+1
    closed gap bands and the n open cube bands of the sorted configuration
    ``c``, for ``mapping.alpha``.  Each band list is ordered by the planar
    structure; edges crossing a band contribute trivial sub-points.  A
    height exactly on a cube endpoint belongs to the adjacent closed gap
    band.

    Returns ``(gap_lists, cube_lists)`` of raw planar sub-points (identity
    leaf words); together they partition the main vertices of ``y``.
    """
    y = wb_normalize(y)
    gap_bands = gaps(c)  # refuses an unsorted c
    bands = [gap_bands[0]]  # from the bottom up: gap 0, cube 1, gap 1, ...
    for cube, gap in zip(c.intervals, gap_bands[1:]):
        bands += (cube, gap)
    operad = y.operad
    trivial = wb_trivial(operad)

    frontier: list[Any] = [nodes_of(y)]
    band_lists: list[list[WBPoint]] = []
    for b, (lo, hi) in enumerate(bands):
        if b % 2 == 0:  # a closed gap band
            inband = lambda n: lo <= n.t <= hi  # noqa: E731
        else:
            inband = lambda n: lo < n.t < hi  # noqa: E731
        subpoints: list[WBPoint] = []
        new_frontier: list[Any] = []
        for item in frontier:
            if isinstance(item, Node) and inband(item):
                # The maximal in-band subtree; out-of-band kids become its
                # leaves and, in planar order, the items entering the next
                # band.  Cut from a canonical point, it is a valid point.
                comp, dangling = cut(item, inband)
                subpoints.append(point_of(WBPoint, operad, comp, False))
                new_frontier.extend(dangling)
            else:
                # A leaf half-edge or an edge to a vertex above the band.
                subpoints.append(trivial)
                new_frontier.append(item)
        band_lists.append(subpoints)
        frontier = new_frontier
    if any(isinstance(item, Node) for item in frontier):
        raise AssertionError("subdivision did not exhaust the main vertices")
    return band_lists[0::2], band_lists[1::2]


def wb_is_prime(x: WBPoint) -> bool:
    """All main heights strictly inside ]0,1[."""
    return all(0 < t < 1 for t in x.heights)


def _band(n: Node) -> int:
    """The band of ``n``'s height: 0 for {0}, 1 for ]0,1[, 2 for {1}."""
    return (n.t > 0) + (n.t == 1)


def wb_decompose(x: WBPoint) -> Decomposition:
    """Cut the normal form into maximal pieces of one height band, {0},
    ]0,1[ or {1} (``trees.decompose``), kept as cut, not normalized.  In
    normal form heights are monotone and adjacent equal heights are merged,
    so a piece at 0 (the root) or at 1 (a cap with only leaves above it) is
    one main vertex, and the pieces inside ]0,1[ are the prime components."""
    x = wb_normalize(x)

    def piece(top: Node) -> tuple:
        band = _band(top)
        comp, dangling = cut(top, lambda n: _band(n) == band)
        return point_of(WBPoint, x.operad, comp, False), dangling

    return decompose(x, piece)


def _graft(x: WBPoint, i: int, y: WBPoint) -> WBPoint:
    """The graft of ``bv_compose`` with no new edge length: ``y`` at input
    ``i`` of ``x``, keeping its heights, not normalized.  It refuses ``y``
    over another operad, or with its root below the vertex it is grafted
    onto."""
    root, scion, parent = graft_points(x, i, y)
    if scion.t < parent.t:
        raise ValueError(
            f"height monotonicity violated: a piece at {scion.t} grafted "
            f"onto a vertex at {parent.t}"
        )
    return point_of(WBPoint, x.operad, root, False)


def wb_reassemble(d: Decomposition) -> WBPoint:
    """Graft the pieces back along the cut tree (the fold of ``d.shape`` by
    ``_graft``), then act by the leaf word, which normalizes."""
    return wb_act(fold(d.shape, d.components, _graft), d.word)


def wb_prime_components(x: WBPoint) -> list[WBPoint]:
    return [wb_normalize(c) for c in wb_decompose(x).components if wb_is_prime(c)]


# ---------------------------------------------------------------------------
# Filtration and cells
# ---------------------------------------------------------------------------


def wb_filtration(x: WBPoint, k: int, l: Optional[int] = None) -> bool:
    """Membership in the k-th filtration stage (substage ``l`` counts the
    total auxiliary-tree vertices), tested on prime components.  They are
    read off the cut unnormalized: normalizing a component only re-presents
    it, which changes neither count."""
    comps = [c for c in wb_decompose(x).components if wb_is_prime(c)]
    return in_stage(((c.geometric_inputs, c.aux_vertex_count) for c in comps), k, l)


def y_cell_membership(x: WBPoint, k: int, l: int) -> frozenset[str]:
    """Classify raw cell-representative data.  Flags (not mutually
    exclusive): ``interior``, ``dY``, ``Y1``, ``Y2``, ``Y1capY2``,
    ``dYprime``, ``outside``.

    The input is deliberately not normalized: the cells quotient only by the
    symmetric relation and the equal-height contraction, so boundary strata
    survive on representatives.  The input is trusted: build it with
    ``raw_wb``.
    """
    flags: set[str] = set()
    if x.geometric_inputs != k or x.aux_vertex_count != l:
        return frozenset({"outside"})

    if (
        any(t in (ZERO, ONE) for t in x.heights)
        or any(t == 0 for lab in x.labels for t in lab.params)
        or any(has_unit_bivalent(lab) for lab in x.labels)
    ):
        flags.add("dY")
    else:
        flags.add("interior")

    main_is_corolla = x.n_main_vertices == 1
    if not main_is_corolla:
        flags.add("Y1")
        eps = x.heights[0]
        if eps in (ZERO, ONE) and all(t == eps for t in x.heights):
            flags.add("Y1capY2")
    else:
        if x.heights[0] in (ZERO, ONE):
            flags.add("Y2")
            if any(t == 1 for t in x.labels[0].params):
                flags.add("Y1capY2")
    if "Y1" in flags or "Y2" in flags:
        flags.add("dYprime")
    return frozenset(flags)

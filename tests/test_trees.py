"""Tree layer: enumeration against generate-and-filter oracles, grafting
arithmetic, canonical forms against pairwise isomorphism search and against
the decoded reference encoding of ``iso_search``, and the tie-break of
``canonicalize`` against its brute force.  ``trees`` lists no isomorphisms:
the search here is the encoding-free backtracking of ``iso_search``, itself
checked against a recursive product formula for the automorphism count."""

import json
import sys
from fractions import Fraction as F
from itertools import groupby, permutations, product
from operator import attrgetter
from random import Random
from typing import Iterator, Optional

import pytest

from operad_forge.bv import bv_act, bv_normalize, iota, raw_bv
from operad_forge.cells import census_size
from operad_forge.operads import ComOperad, operad_by_name, perm_inverse
from operad_forge.sampling import random_bv, random_bv_of_arity, random_element
from operad_forge.trees import (
    Node,
    PlanarTree,
    Tree,
    canonical_form,
    canonicalize,
    corolla,
    cut,
    enumerate_trees,
    fold,
    from_nodes,
    graft,
    leaf_slots,
    planar_trees,
    preorder,
    to_nodes,
)

from iso_search import (
    Iso,
    automorphisms,
    isomorphisms,
    labeled_encoding,
    nonplanar_iso,
    slot_encodings,
)


def _oracle_trees(max_vertices: int) -> list[PlanarTree]:
    """Independent enumeration: grow trees one vertex at a time by replacing
    a leaf (or the root slot) with a fresh vertex of any arity 0..4,
    deduplicated by planar shape."""
    seen = {repr(corolla(a)): corolla(a) for a in range(5)}
    frontier = list(seen.values())
    for _ in range(max_vertices - 1):
        nxt = []
        for t in frontier:
            for i in range(1, t.n_leaves + 1):
                for a in range(5):
                    g = graft(t, i, corolla(a))
                    if repr(g) not in seen:
                        seen[repr(g)] = g
                        nxt.append(g)
        frontier = nxt
    return list(seen.values())


def test_planar_trees_against_growth_oracle():
    oracle = _oracle_trees(3)
    for nl in range(0, 5):
        for nv in range(1, 4):
            got = planar_trees(nl, nv)
            want = [
                t for t in oracle
                if t.n_leaves == nl and t.n_vertices == nv
                and all(s.arity <= 4 for s in t.subtrees)
            ]
            got_f = [t for t in got if all(s.arity <= 4 for s in t.subtrees)]
            assert sorted(map(repr, got_f)) == sorted(map(repr, want))
            assert len(set(map(repr, got))) == len(got)


def _slot_order(t: PlanarTree) -> tuple:
    """The order of ``planar_trees``: slot by slot, a leaf before a vertex,
    vertices by (vertex count, leaf count, children)."""
    return tuple(
        (0,) if c is None else (1, c.n_vertices, c.n_leaves, _slot_order(c))
        for c in t.children
    )


def test_planar_trees_are_in_slot_order_at_any_depth():
    for nl in range(0, 7):
        for nv in range(1, 5):
            got = planar_trees(nl, nv)
            keys = list(map(_slot_order, got))
            assert keys == sorted(keys) and len(set(keys)) == len(keys)
    # the caches fill by vertex count, so a wide grade recurses no deeper
    # than its vertices, whatever its leaves
    assert planar_trees(1500, 1) == [corolla(1500)]
    assert len(planar_trees(60, 2)) == 61 * 62 // 2


def test_enumerate_trees_is_generate_and_filter():
    for k in range(1, 5):
        for l in range(1, 5):
            want = sorted(
                repr(t)
                for nl in range(0, k + 1)
                for t in planar_trees(nl, l)
                if t.geometric_inputs == k
            )
            assert sorted(map(repr, enumerate_trees(k, l))) == want


def test_enumerate_trees_counts_match_the_corolla_census():
    # A planar tree is the auxiliary tree of a cell index with a corolla
    # main tree.  census_size counts those with no tree built, so it checks
    # enumerate_trees independently.
    for k in range(1, 7):
        for l in range(1, 6):
            want = census_size(k, l) - census_size(k, l, True)
            assert len(enumerate_trees(k, l)) == want


def test_enumerate_trees_degenerate_arities():
    # one geometric input, one vertex: the 0-corolla (univalent vertex)
    # and the 1-corolla both qualify.
    assert sorted(map(repr, enumerate_trees(1, 1))) == sorted(
        map(repr, [corolla(0), corolla(1)])
    )


def test_graft_leaf_arithmetic():
    rng = Random(3)
    pool = planar_trees(2, 2) + planar_trees(3, 2)
    for _ in range(60):
        base = rng.choice(pool)
        scion = rng.choice(pool)
        i = rng.randint(1, base.n_leaves)
        g = graft(base, i, scion)
        assert g.n_leaves == base.n_leaves + scion.n_leaves - 1
        assert g.n_vertices == base.n_vertices + scion.n_vertices


def test_graft_replaces_the_ith_leaf():
    # a leaf is "." in the compact repr, so grafting replaces the i-th dot
    scion = PlanarTree((corolla(1), None))
    for nl in range(0, 5):
        for t in planar_trees(nl, 3):
            parts = repr(t).split(".")
            for i in range(1, nl + 1):
                want = ".".join(parts[:i]) + repr(scion) + ".".join(parts[i:])
                assert repr(graft(t, i, scion)) == want
            for i in (0, nl + 1):
                with pytest.raises(IndexError, match=rf"^leaf index {i} out of range 1\.\.{nl}$"):
                    graft(t, i, scion)


def test_graft_parallel_slots_commute():
    base = PlanarTree((None, None, None))
    a, b = corolla(2), PlanarTree((None,))
    # grafting at slot 3 first leaves slot 1 untouched and vice versa
    assert graft(graft(base, 1, a), 1 + a.n_leaves + 1, b) == graft(
        graft(base, 3, b), 1, a
    )


def _oracle_aut_order(t: PlanarTree) -> int:
    """Product formula: at each vertex, identical child subtrees (leaves
    count as one kind) permute freely; multiply the per-block factorials and
    recurse into the children."""
    from math import factorial

    def _enc(c):
        if c is None:
            return (0,)
        return (1, tuple(sorted(_enc(k) for k in c.children)))

    def go(c: PlanarTree) -> int:
        counts: dict = {}
        total = 1
        for k in c.children:
            kk = _enc(k)
            counts[kk] = counts.get(kk, 0) + 1
            if k is not None:
                total *= go(k)
        for v in counts.values():
            total *= factorial(v)
        return total

    return go(t)


def test_automorphisms_against_product_formula():
    for nv in range(1, 4):
        for nl in range(0, 4):
            for t in planar_trees(nl, nv):
                assert len(automorphisms(t)) == _oracle_aut_order(t)


def test_caterpillar_automorphism_group_order():
    # 3-leaf caterpillar: root(leaf, C2); only the two lower leaves swap.
    cat = PlanarTree((None, corolla(2)))
    assert len(automorphisms(cat)) == 2


def identity_iso(t: PlanarTree) -> Iso:
    return Iso(
        tuple(range(t.n_vertices)),
        tuple(tuple(range(1, s.arity + 1)) for s in t.subtrees),
    )


def compose_iso(f: Iso, g: Iso) -> Iso:
    """The composite applying ``f`` first, then ``g``."""
    vm = tuple(g.vertex_map[m] for m in f.vertex_map)
    ip = tuple(
        tuple(g.input_perms[f.vertex_map[v]][s - 1] for s in f.input_perms[v])
        for v in range(len(f.vertex_map))
    )
    return Iso(vm, ip)


def inverse_iso(f: Iso) -> Iso:
    n = len(f.vertex_map)
    vm_inv = [0] * n
    for v, m in enumerate(f.vertex_map):
        vm_inv[m] = v
    ip_inv: list[tuple[int, ...]] = [()] * n
    for v, perm in enumerate(f.input_perms):
        inv = [0] * len(perm)
        for s, img in enumerate(perm, start=1):
            inv[img - 1] = s
        ip_inv[f.vertex_map[v]] = tuple(inv)
    return Iso(tuple(vm_inv), tuple(ip_inv))


def test_iso_group_structure():
    t = PlanarTree((corolla(2), corolla(2)))
    auts = automorphisms(t)
    assert identity_iso(t) in auts
    for f in auts:
        assert compose_iso(f, inverse_iso(f)) == identity_iso(t)
    reprs = {(f.vertex_map, f.input_perms) for f in auts}
    assert len(reprs) == len(auts)


def test_canonical_form_decides_nonplanar_iso():
    pool = [
        Tree(s, tuple(range(1, s.n_leaves + 1)))
        for s in planar_trees(3, 2) + planar_trees(2, 3)
    ]
    for a in pool:
        for b in pool:
            same = canonical_form(a) == canonical_form(b)
            assert same == (nonplanar_iso(a, b) is not None)


def test_canonical_form_fixed_point():
    for s in planar_trees(3, 3):
        t = Tree(s, tuple(range(1, 4)))
        c = canonical_form(t)
        assert canonical_form(c) == c


def planar_presentations(
    t: PlanarTree,
) -> Iterator[tuple[PlanarTree, tuple[int, ...]]]:
    """Yield every planar presentation of ``t`` reachable by reordering the
    children of its vertices, together with the induced leaf permutation.

    The permutation ``perm`` satisfies: the leaf at planar position ``p`` of
    the presented tree is the leaf at original position ``perm[p-1]``.
    """

    def go(
        sub: PlanarTree, positions: tuple[int, ...]
    ) -> Iterator[tuple[PlanarTree, tuple[int, ...]]]:
        # positions: original 1-based planar positions of sub's leaves.
        # Split positions among children.
        slices: list[tuple[Optional[PlanarTree], tuple[int, ...]]] = []
        i = 0
        for c in sub.children:
            w = 1 if c is None else c.n_leaves
            slices.append((c, positions[i : i + w]))
            i += w
        # Presentations of each child.
        child_opts: list[list[tuple[Optional[PlanarTree], tuple[int, ...]]]] = []
        for c, pos in slices:
            if c is None:
                child_opts.append([(None, pos)])
            else:
                child_opts.append([(p, q) for p, q in go(c, pos)])

        def pick(idx: int, acc: list) -> Iterator[list]:
            if idx == len(child_opts):
                yield list(acc)
                return
            for opt in child_opts[idx]:
                acc.append(opt)
                yield from pick(idx + 1, acc)
                acc.pop()

        m = len(sub.children)
        for chosen in pick(0, []):
            for order in permutations(range(m)):
                kids = tuple(chosen[j][0] for j in order)
                pos = tuple(x for j in order for x in chosen[j][1])
                yield PlanarTree(kids), pos

    if t.n_leaves == 0:
        # no leaves: presentations still vary structurally
        for shape, pos in go(t, ()):
            yield shape, pos
    else:
        yield from go(t, tuple(range(1, t.n_leaves + 1)))


def test_planar_presentations_cover_orbit():
    shape = PlanarTree((corolla(1), None))
    pres = list(planar_presentations(shape))
    assert len({repr(p) for p, _ in pres}) == len(pres)
    base = Tree(shape, (1, 2))
    for p, perm in pres:
        # perm records the original planar position of each presented leaf
        assert sorted(perm) == list(range(1, shape.n_leaves + 1))
        assert nonplanar_iso(base, Tree(p, perm)) is not None


def _decode(enc) -> tuple[Optional[PlanarTree], list[int]]:
    """The tree and leaf word that a labeled encoding spells, children in
    encoding order."""
    if enc[0] == 0:
        return None, [enc[1]]
    children: list[Optional[PlanarTree]] = []
    labels: list[int] = []
    for ce in enc[1]:
        c, ls = _decode(ce)
        children.append(c)
        labels.extend(ls)
    return PlanarTree(tuple(children)), labels


def test_canonical_form_is_the_decoded_labeled_encoding():
    rng = Random(1507)
    cases = 0
    for nv in range(1, 5):
        for nl in range(0, 6):
            for t in planar_trees(nl, nv):
                for _ in range(3):
                    word = tuple(rng.sample(range(1, nl + 1), nl))
                    shape, labels = _decode(labeled_encoding(t, iter(word)))
                    c = canonical_form(Tree(t, word))
                    assert (c.shape, c.labels) == (shape, tuple(labels))
                    cases += 1
    assert cases == 13578


def test_slot_encodings_are_what_labeled_encoding_sorts():
    for nv in range(1, 4):
        for nl in range(0, 5):
            for t in planar_trees(nl, nv):
                word = tuple(range(nl, 0, -1))
                slots = slot_encodings(t, iter(word))
                assert len(slots) == t.arity
                assert labeled_encoding(t, iter(word)) == (1, tuple(sorted(slots)))


def test_isomorphisms_respect_leaf_labels():
    s = corolla(2)
    a = Tree(s, (1, 2))
    assert len(isomorphisms(s, s)) == 2
    assert len(isomorphisms(s, s, labels_a=(1, 2), labels_b=(1, 2))) == 1
    assert len(isomorphisms(s, s, labels_a=(1, 2), labels_b=(2, 1))) == 1
    assert a == a  # sanity


def test_vertex_accessors_consistent():
    t = PlanarTree((corolla(2), None, PlanarTree((None,))))
    assert t.n_vertices == 3
    assert t.arity_of(0) == 3
    parents = t.vertex_parents
    assert parents[0][0] == -1
    for (p, s), v in t.child_vertex.items():
        assert parents[v] == (p, s)
    assert t.geometric_inputs == t.n_leaves + t.n_univalent


def _small_trees(max_size: int) -> list[PlanarTree]:
    """Every planar tree with leaves plus vertices at most ``max_size``."""
    return [
        t for size in range(1, max_size + 1) for nv in range(1, size + 1)
        for t in planar_trees(size - nv, nv)
    ]


def _recount(t: PlanarTree) -> tuple:
    """Leaves, vertices, univalent vertices, the subtrees in preorder and
    the text of ``t``, recounted recursively from the children alone."""
    leaves, vertices, univalent = 0, 1, 0 if t.children else 1
    subs, text = [t], ""
    for c in t.children:
        if c is None:
            leaves += 1
            text += "."
            continue
        c_leaves, c_vertices, c_univalent, c_subs, c_text = _recount(c)
        leaves += c_leaves
        vertices += c_vertices
        univalent += c_univalent
        subs += c_subs
        text += c_text
    return leaves, vertices, univalent, subs, f"({text})"


def test_constructor_counts_match_a_recursive_recount():
    trees = _small_trees(8)
    assert len(trees) == 10879
    for t in trees:
        leaves, vertices, univalent, subs, text = _recount(t)
        assert (t.n_leaves, t.n_vertices, t.n_univalent) == (leaves, vertices, univalent)
        assert len(t.subtrees) == len(subs)
        assert all(a is b for a, b in zip(t.subtrees, subs))
        assert repr(t) == text
    assert repr(PlanarTree()) == "()"
    assert repr(PlanarTree((corolla(2), None, PlanarTree((None,))))) == "((..).(.))"
    assert repr(PlanarTree((PlanarTree((corolla(0),)), corolla(3)))) == "((())(...))"


def test_repr_of_a_deep_chain_needs_no_recursion():
    # ``repr`` orders the labels of a bimodule point (``BVPoint.order_key``)
    limit = sys.getrecursionlimit()
    chain = PlanarTree((None,))
    for _ in range(4999):
        chain = PlanarTree((chain,))
    try:
        sys.setrecursionlimit(1000)
        text = repr(chain)
    finally:
        sys.setrecursionlimit(limit)
    assert text == "(" * 5000 + "." + ")" * 5000


def _rebuilt(t: PlanarTree) -> PlanarTree:
    return PlanarTree(tuple(None if c is None else _rebuilt(c) for c in t.children))


def test_trees_are_equal_exactly_when_their_children_are():
    trees = _small_trees(6)
    copies = [_rebuilt(t) for t in trees]
    for t, u in zip(trees, copies):
        assert t is not u and t == u and not t != u and hash(t) == hash(u)
    # Distinct planar trees, many with equal counts, are never equal; repr
    # spells out the children, so it is the oracle for their equality.
    for t in trees:
        for u in copies:
            same = repr(t) == repr(u)
            assert (t == u) is same and (t != u) is not same
    assert len(set(trees) | set(copies)) == len(trees)
    assert PlanarTree() != () and PlanarTree() != corolla(1)


def test_working_form_kernel():
    for n in range(5):
        for v in range(1, 5):
            for t in planar_trees(n, v):
                labels = tuple(f"x{i}" for i in range(v))
                ts = (None,) + tuple(range(1, v))
                word = tuple(range(n, 0, -1))
                root = to_nodes(t, labels, ts, word)
                assert from_nodes(root) == (t, labels, ts, word)
                slots = leaf_slots(root)
                assert len(slots) == t.n_leaves
                assert tuple(node.kids[s - 1] for node, s in slots) == word
                walk = preorder(root)
                index = {id(node): i for i, (node, _, _) in enumerate(walk)}
                parents = tuple(
                    (-1, -1) if p is None else (index[id(p)], s)
                    for _, p, s in walk
                )
                assert parents == t.vertex_parents
                assert tuple(node.label for node, _, _ in walk) == labels
                copy, dangling = cut(root, lambda c: True)
                assert copy is not root
                assert from_nodes(copy) == (t, labels, ts, tuple(range(1, n + 1)))
                assert tuple(dangling) == word


def _brute_canonicalize(n: Node, act, key):
    """The tie-break by brute force, the oracle for ``canonicalize``: every
    order of every block of equal child encodings is a candidate."""
    encs = [
        _brute_canonicalize(c, act, key) if isinstance(c, Node) else ("L", c)
        for c in n.kids
    ]
    order = sorted(range(1, len(encs) + 1), key=lambda s: encs[s - 1])
    blocks = [list(b) for _, b in groupby(order, key=lambda s: encs[s - 1])]
    best = None
    for choice in product(*(permutations(b) for b in blocks)):
        pi = tuple(s for blk in choice for s in blk)
        label = act(n.label, perm_inverse(pi))
        cand = (tuple(encs[p - 1] for p in pi), key(label))
        if best is None or cand < best[0]:
            best = (cand, pi, label)
    (child_encs, label_key), pi, n.label = best
    n.kids = [n.kids[p - 1] for p in pi]
    return ("N", "" if n.t is None else str(n.t), child_encs, label_key)


def _leafy_keys_erased(encs: tuple) -> tuple:
    """Brute-force encodings as ``canonicalize`` writes them: the label key
    of a subtree that holds a leaf is ``None``."""
    out = []
    for e in encs:
        if e[0] == "N":
            kids = _leafy_keys_erased(e[2])
            leafy = any(k[0] == "L" or k[3] is None for k in kids)
            e = ("N", e[1], kids, None if leafy else e[3])
        out.append(e)
    return tuple(out)


@pytest.mark.parametrize("name", ["com", "assoc", "end:2", "free:a=2,b=3:4"])
def test_canonicalize_matches_the_brute_force_on_random_points(name):
    # random points hold leaves at every depth and many vertices already in
    # order: ``canonicalize`` leaves those as they are and keys only
    # leafless subtrees, and still presents each point as the brute force
    # does, which acts on and keys every label
    op = operad_by_name(name)
    rng, min_arity = Random(79), 2 if name.startswith("free") else 0
    erased = 0
    for _ in range(300):
        x = random_bv(rng, op, max_vertices=6, min_arity=min_arity)
        data = (x.tree.shape, x.labels, (None,) + x.params, x.tree.labels)
        fast, slow = to_nodes(*data), to_nodes(*data)
        encs = canonicalize(fast, op.act, op.key)
        brute = _brute_canonicalize(slow, op.act, op.key)[2]
        assert encs == _leafy_keys_erased(brute)
        assert from_nodes(fast) == from_nodes(slow)
        erased += encs != brute
    assert erased >= 30


def _symmetric_end_label(rng: Random, op, n: int):
    """An ``end`` element of arity ``n`` that depends only on how many of
    its inputs are 1: fixed by every permutation."""
    values = [rng.randrange(op.size) for _ in range(n + 1)]
    return (n, tuple(values[bin(i).count("1")] for i in range(op.size**n)))


def _wide_point(rng: Random, width: int, root_label, leafless, unary):
    """``(shape, labels, ts, word)``: a root of ``width`` slots over leaves
    and leafless subtrees drawn from two shapes, the labels ``leafless``
    (arity 0) and ``unary`` (arity 1) and two lengths, so that equal
    children are common."""
    kids, labels, ts = [], [root_label(rng, width)], [None]
    for _ in range(width):
        if rng.random() < 0.25:
            kids.append(None)
            continue
        t = rng.choice((F(1, 2), F(1)))
        if rng.random() < 0.5:
            kids.append(PlanarTree(()))
            labels.append(rng.choice(leafless))
            ts.append(t)
        else:
            kids.append(PlanarTree((PlanarTree(()),)))
            labels += [rng.choice(unary), leafless[0]]
            ts += [t, F(1, 2)]
    shape = PlanarTree(tuple(kids))
    word = tuple(rng.sample(range(1, shape.n_leaves + 1), shape.n_leaves))
    return shape, tuple(labels), tuple(ts), word


def _tie_break_cases(name):
    """``(act, key, root_label, leafless, unary)``: the operad's own action,
    and for ``com`` also its resolution points under ``bv_act``, whose
    labels are fixed by some transpositions and not by others."""
    op = operad_by_name(name)

    def root_label(rng, n):
        if name == "end:2" and rng.random() < 0.5:
            return _symmetric_end_label(rng, op, n)
        return random_element(rng, op, n)

    def key(a):
        return json.dumps(op.encode(a), sort_keys=True)

    cases = [(op.act, key, root_label, op.elements(0), op.elements(1)[:2])]
    if name == "com":
        two = raw_bv(op, PlanarTree((PlanarTree(()),) * 2), (2, 0, 0), (F(1, 2),) * 2)
        cases.append((
            bv_act,
            attrgetter("order_key"),
            lambda rng, n: bv_normalize(random_bv_of_arity(rng, op, n, 3)),
            (iota(op, 0), bv_normalize(two)),
            (iota(op, 1),),
        ))
    return cases


def _tied_blocks(encs: tuple) -> int:
    """The number of blocks of two or more equal sorted child encodings."""
    return sum(len(list(block)) > 1 for _, block in groupby(encs))


def _matches_the_brute_force(shape, labels, ts, word, act, key) -> tuple:
    """``canonicalize``'s root child encodings, checked against the brute
    force on the same working form: the encodings and the presentation."""
    fast = to_nodes(shape, labels, ts, word)
    slow = to_nodes(shape, labels, ts, word)
    encs = canonicalize(fast, act, key)
    assert encs == _brute_canonicalize(slow, act, key)[2]
    assert from_nodes(fast) == from_nodes(slow)
    return encs


@pytest.mark.parametrize("name", ["com", "assoc", "end:2"])
def test_tie_break_matches_the_brute_force(name):
    # every non-root vertex of these points has distinct children (the
    # one-candidate path); roots with and without ties are both common
    rng = Random(71)
    tied = untied = 0
    for act, key, root_label, leafless, unary in _tie_break_cases(name):
        for _ in range(80):
            width = rng.randint(2, 6)
            point = _wide_point(rng, width, root_label, leafless, unary)
            encs = _matches_the_brute_force(*point, act, key)
            tied += _tied_blocks(encs) > 0
            untied += _tied_blocks(encs) == 0
    assert tied >= 20 and untied >= 20


# Root children by pattern: a leaf, leafless vertices ``A`` and ``B`` (equal
# labels, different lengths), and ``P``, a vertex over two ``A``s, so tied
# itself (every ``P`` of a point has the same label).  Each pattern is listed with its number of tied root blocks.
TIE_PATTERNS = [
    ("..A", 0), ("AB.", 0), ("P.A", 0),
    ("AA.", 1), (".BBB", 1), ("PPA", 1),
    ("AABB", 2), ("PP.AA", 2), ("AABBPP", 3),
]


def _patterned_point(rng: Random, pattern: str, root_label, leafless):
    """``(shape, labels, ts, word)`` of a root over the children that
    ``pattern`` spells, with a random leaf word."""
    a_leaf = PlanarTree(())
    kids, labels, ts = [], [root_label(rng, len(pattern))], [None]
    p_label = root_label(rng, 2)
    for c in pattern:
        if c == ".":
            kids.append(None)
        elif c == "P":
            kids.append(PlanarTree((a_leaf, a_leaf)))
            labels += [p_label, leafless[0], leafless[0]]
            ts += [F(1, 2), F(1, 2), F(1, 2)]
        else:
            kids.append(a_leaf)
            labels.append(leafless[0])
            ts.append(F(1, 2) if c == "A" else F(1))
    shape = PlanarTree(tuple(kids))
    word = tuple(rng.sample(range(1, shape.n_leaves + 1), shape.n_leaves))
    return shape, tuple(labels), tuple(ts), word


@pytest.mark.parametrize("name", ["com", "assoc", "end:2"])
@pytest.mark.parametrize("pattern, blocks", TIE_PATTERNS, ids=[p for p, _ in TIE_PATTERNS])
def test_tie_break_matches_the_brute_force_on_every_tie_pattern(name, pattern, blocks):
    # no ties, one tied block and several, at the root and, under ``P``,
    # below it: the one-candidate path and the search agree with the brute
    # force, and each pattern has the ties it names
    rng = Random(73)
    for act, key, root_label, leafless, _ in _tie_break_cases(name):
        for _ in range(6):
            point = _patterned_point(rng, pattern, root_label, leafless)
            encs = _matches_the_brute_force(*point, act, key)
            assert _tied_blocks(encs) == blocks


def test_symmetric_label_fixes_a_tied_block():
    """A ``com`` root over 8 equal leafless children acts once per adjacent
    transposition, not 8! times; its first candidate is the slot order,
    which the identity fixes, and the children, with no kids to reorder,
    do not act."""
    op = ComOperad()
    calls = []

    def act(a, sigma):
        calls.append(sigma)
        return op.act(a, sigma)

    root = to_nodes(
        PlanarTree((PlanarTree(()),) * 8), (8,) + (0,) * 8, (None,) + (F(1, 2),) * 8, ()
    )
    canonicalize(root, act, str)
    assert len(calls) == 7


def test_label_key_of_a_root_with_one_candidate_is_not_computed():
    """No parent sorts the root's encoding, and a child that holds a leaf
    ties with no sibling, so a root whose children are all distinct keys
    only its leafless vertex children's labels; a tied block that its label
    tells apart is still decided by keys."""
    op = ComOperad()
    keyed = []

    def key(a):
        keyed.append(a)
        return str(a)

    # a com root over leaves 2, 1 and a vertex (label 2) over leaves 3, 4
    shape = PlanarTree((None, None, corolla(2)))
    root = to_nodes(shape, (3, 2), (None, F(1, 2)), (2, 1, 3, 4))
    encs = canonicalize(root, op.act, key)
    assert keyed == []
    assert encs == (("L", 1), ("L", 2), ("N", "1/2", (("L", 3), ("L", 4)), None))
    assert from_nodes(root) == (shape, (3, 2), (None, F(1, 2)), (1, 2, 3, 4))

    # two equal leafless children under an ``assoc`` label that tells their
    # slots apart: the children and both candidates are keyed
    keyed.clear()
    assoc = operad_by_name("assoc")
    root = to_nodes(
        PlanarTree((PlanarTree(()), PlanarTree(()))), ((2, 1), (), ()),
        (None, F(1), F(1)), (),
    )
    canonicalize(root, assoc.act, key)
    assert keyed == [(), (), (2, 1), (1, 2)]
    assert root.label == (1, 2)


def test_vertex_parents_and_fold_work_at_any_depth():
    # a unary chain 5,000 deep, built with the constructor: neither walk
    # recurses, so neither meets the interpreter's recursion limit
    chain = PlanarTree((None,))
    for _ in range(4999):
        chain = PlanarTree((chain,))
    assert chain.n_vertices == 5000
    assert chain.vertex_parents == ((-1, -1),) + tuple((v, 1) for v in range(4999))
    # each vertex is composed into its parent after its own subtree
    values = [(v,) for v in range(5000)]
    assert fold(chain, values, lambda x, slot, y: x + y) == tuple(range(5000))

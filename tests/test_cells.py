"""Cell-complex layer: index enumeration against a generate-and-filter
oracle, classification against pairwise isomorphism search, the class
generator against classification of the census and its least members
against every order of wide vertices, contraction graphs against
brute-force closure, stabilizers against the automorphism families and
against a coset scan of the sibling blocks, class sizes against the census,
the Reedy-style category, membership polytopes, and the deformation.  The
isomorphisms and automorphism families come from the backtracking search of
``iso_search``, which reads no encoding, so the class and stabilizer oracles
are independent of the class key."""

from fractions import Fraction as F
from functools import lru_cache
from itertools import permutations, product
from random import Random

import pytest

from operad_forge import cells
from operad_forge.cells import (
    ContractionGraph,
    TreeClass,
    UpsilonIndex,
    _child,
    _decode,
    _key_vertex,
    _vertex_key,
    build_graph,
    census_size,
    class_count,
    class_key,
    classify,
    contract_main_edge,
    enumerate_upsilon,
    generate_classes,
    graph_classes,
    h_membership,
    homotopy_H,
    latching_index,
    max_vertices,
    reedy_of,
    stab,
    subgraph_i,
)
from operad_forge.operads import all_perms, perm_compose
from operad_forge.trees import (
    PlanarTree,
    Tree,
    canonical_form,
    corolla,
    planar_trees,
    slot_encodings,
)

from iso_search import automorphism_families, isomorphisms


@pytest.fixture(scope="module")
def g43():
    return build_graph(4, 3)


def _oracle_census(k, l, nontrivial):
    """Independent enumeration: every main tree with the right totals,
    crossed with every tuple of auxiliary trees, then filtered."""
    out = []
    for p in range(1, l + 1):
        for m in range(0, k + 1):
            for main in planar_trees(m, p):
                if nontrivial and p == 1:
                    continue
                per_opts = []
                for v in range(p):
                    a = main.arity_of(v)
                    cand = []
                    # every other main vertex needs an auxiliary vertex too
                    for nv in range(1, l - (p - 1) + 1):
                        cand.extend(planar_trees(a, nv))
                    per_opts.append(cand)
                for combo in product(*per_opts):
                    idx = UpsilonIndex(main, tuple(combo))
                    if (
                        idx.geometric_inputs == k
                        and idx.aux_vertex_count == l
                    ):
                        out.append(idx)
    return out


@pytest.mark.parametrize(
    "k,l", [(2, 1), (3, 2), (4, 3), (2, 3), (5, 3), (3, 4)]
)
@pytest.mark.parametrize("nontrivial", [False, True])
def test_enumerate_upsilon_against_oracle(k, l, nontrivial):
    got = enumerate_upsilon(k, l, nontrivial)
    want = _oracle_census(k, l, nontrivial)
    assert sorted(map(repr, got)) == sorted(map(repr, want))
    assert len(set(map(repr, got))) == len(got)


@lru_cache(maxsize=None)
def _classified(k, l, nontrivial):
    """The census size and ``classify`` of the census, built once a grade."""
    census = enumerate_upsilon(k, l, nontrivial)
    return len(census), classify(census)


@pytest.mark.parametrize(
    "k,l",
    # every grading this file enumerates, and four larger ones
    [(2, 1), (2, 3), (3, 2), (3, 3), (3, 4), (4, 3), (4, 4), (5, 3), (6, 4)]
    + [(5, 4), (5, 5), (6, 3), (7, 2)],
)
@pytest.mark.parametrize("nontrivial", [False, True])
def test_census_size_counts_the_enumeration(k, l, nontrivial):
    size, classes = _classified(k, l, nontrivial)
    assert census_size(k, l, nontrivial) == size
    # the class keys' multinomials against the generating functions
    assert sum(c.size for c in classes) == census_size(k, l, nontrivial)
    assert class_count(k, l, nontrivial) == len(classes)


@pytest.mark.parametrize(
    "k,l", [(k, l) for k in range(1, 7) for l in range(1, 5)] + [(5, 5)]
)
@pytest.mark.parametrize("nontrivial", [False, True])
def test_generate_classes_is_classify_of_the_census(k, l, nontrivial):
    _, want = _classified(k, l, nontrivial)
    got = generate_classes(k, l, nontrivial)
    assert [repr(c.representative) for c in got] == [
        repr(c.representative) for c in want
    ]
    assert [c.key for c in got] == [c.key for c in want]
    assert [class_key(c.representative) for c in got] == [c.key for c in got]


@pytest.mark.parametrize("k,l", [(6, 5), (300, 2)])
def test_generate_classes_counts_past_the_census(k, l, monkeypatch):
    built = 0
    key_vertex = cells._key_vertex

    def counted(*args):
        nonlocal built
        built += 1
        return key_vertex(*args)

    monkeypatch.setattr(cells, "_key_vertex", counted)
    classes = generate_classes(k, l, True)
    assert len(classes) == class_count(k, l, True)
    assert sum(c.size for c in classes) == census_size(k, l, True)
    # the work: one key vertex per class of the grade and of each lower
    # grade it is built from, with or without a child main vertex
    assert built == class_count(k, l) + sum(
        class_count(g, c) for c in range(1, l) for g in range(1, k + 1)
    )


def _in_census_order(idx: UpsilonIndex) -> tuple:
    """Where ``enumerate_upsilon`` puts ``idx``: by main vertex count, main
    leaf count, main tree, composition, then auxiliary trees, each tree in
    ``planar_trees`` order (``test_trees`` checks that order)."""

    def tree(t):
        return tuple(
            (0,) if c is None else (1, c.n_vertices, c.n_leaves, tree(c))
            for c in t.children
        )

    return (
        idx.main.n_vertices, idx.main.n_leaves, tree(idx.main),
        tuple(a.n_vertices for a in idx.aux), tuple(map(tree, idx.aux)),
    )


# A class key as nested children, in no particular order: ``L`` a main
# leaf, ``("A", kids)`` an auxiliary vertex, ``("M", ("A", kids))`` a child
# main vertex with its auxiliary root.
L = ("L",)


def A(*kids):
    return ("A", kids)


def M(*kids):
    return ("M", A(*kids))


@lru_cache(maxsize=None)
def _orders(node) -> frozenset:
    """Every planar presentation of ``node``: each distinct order of the
    children of each auxiliary vertex."""
    if node[0] == "L":
        return frozenset([node])
    if node[0] == "M":
        return frozenset(("M", a) for a in _orders(node[1]))
    return frozenset(
        ("A", kids)
        for perm in set(permutations(node[1]))
        for kids in product(*map(_orders, perm))
    )


def _index_of(root) -> UpsilonIndex:
    """The cell index of a presentation of a main vertex's auxiliary root."""
    aux = []

    def main_vertex(a):
        at = len(aux)
        aux.append(None)
        slots = []

        def shape(node):
            kids = []
            for c in node[1]:
                if c[0] == "A":
                    kids.append(shape(c))
                else:
                    kids.append(None)
                    slots.append(None if c[0] == "L" else main_vertex(c[1]))
            return PlanarTree(tuple(kids))

        aux[at] = shape(a)
        return PlanarTree(tuple(slots))

    return UpsilonIndex(main_vertex(root), tuple(aux))


def _key_vertex_of(node):
    """The generator's key vertex of an auxiliary vertex."""
    leaves = sum(c[0] == "L" for c in node[1])
    return _key_vertex(leaves, [
        _child(1, _key_vertex_of(c[1])) if c[0] == "M"
        else _child(2, _key_vertex_of(c))
        for c in node[1] if c[0] != "L"
    ])


# Children the roots below draw from: main leaves, leafless auxiliary
# children, auxiliary children whose leaves are all main leaves, and
# children carrying main vertices, directly or below an auxiliary child.
POOL = [
    L, A(), A(A()), A(L), A(L, L), A(L, A()),
    M(L), M(A(L)), M(L, L), M(), M(A()), M(L, M(L)),
    A(M(L), L), A(M(L)), A(L, M(A(L))), A(M(), A()), A(M(L), M(L, L)),
]
# Hand-picked roots: leafless children between runs that carry leaves,
# runs whose least concatenation is not their sorted order, and child main
# vertices told apart only by their auxiliary counts or trees.
WIDE_ROOTS = [
    A(L, L, A(), A(L, L), M(A(L)), A(M(L), L)),
    A(A(), M(L), A(M(L)), M(L), A(A()), L),
    A(M(L), A(M(L), L), A(L, M(L)), A(), L),
    A(M(L, L), M(L), A(M(L), M(L, L)), A(A()), A()),
    A(M(A(L)), M(L), A(), M(A(L)), A(L)),
    A(M(), A(), A(M(), A()), M(A()), A(A()), L),
    A(M(L, M(L)), M(L), A(M(L)), A(), L, A(A())),
    A(M(A(L, L)), M(A(L), L), A(), L, M(L, L)),
]


def _wide_roots():
    rng = Random(16)
    roots = list(WIDE_ROOTS)
    while len(roots) < 30:
        root = A(*rng.choices(POOL, k=rng.randint(5, 7)))
        if len(_orders(root)) <= 500:
            roots.append(root)
    return roots


def test_least_member_of_wide_vertices_against_every_order():
    for root in _wide_roots():
        members = {_index_of(p) for p in _orders(root)}
        least = min(members, key=_in_census_order)
        vertex = _key_vertex_of(root)
        main, aux = _decode(vertex)
        assert UpsilonIndex(main, tuple(aux)) == least, root
        assert vertex.key == class_key(least)
        assert TreeClass(least, vertex.key).size == len(members)


def test_census_size_pinned_values():
    assert census_size(5, 5) == 86704
    assert census_size(5, 5, True) == 81285
    # both checked once by enumeration, which takes seconds
    assert census_size(6, 5) == 251568
    assert census_size(6, 5, True) == 235845
    # past the reach of enumeration, and the cubic-in-k case of the old
    # counter (one census member at l = 1)
    assert census_size(30, 30) == 16092270593006083173713827586677596068249600
    assert census_size(400, 1) == 1
    for k, l in [(0, 3), (3, 0), (-1, 2)]:
        with pytest.raises(ValueError, match="grading parameters"):
            census_size(k, l)


def test_class_count_pinned_values():
    # the vertices of the contraction graphs, each checked once by
    # classifying the census
    pins = {(4, 3): 63, (5, 4): 887, (6, 4): 1389, (5, 5): 6925,
            (6, 5): 12590, (7, 5): 20972}
    assert {kl: class_count(*kl, True) for kl in pins} == pins
    for k, l in [(0, 3), (3, 0), (-1, 2)]:
        with pytest.raises(ValueError, match="grading parameters"):
            class_count(k, l)


def test_counts_are_at_least_two_to_the_l_minus_two():
    # the CLI's refusal of a large l before counting rests on this bound;
    # at k = 1 the classes with a main edge are exactly the 2**l - 2 paths
    for l in range(1, 17):
        assert class_count(1, l, True) == 2**l - 2
        for k in range(1, 9):
            least = class_count(k, l, True)
            assert least >= 2**l - 2
            assert class_count(k, l) >= least
            assert census_size(k, l, True) >= least
            assert census_size(k, l) >= least


def test_nontrivial_census_is_a_subset():
    assert set(map(repr, enumerate_upsilon(4, 3, True))) <= set(
        map(repr, enumerate_upsilon(4, 3, False))
    )


def _oracle_same_class(a: UpsilonIndex, b: UpsilonIndex) -> bool:
    """Definition-driven search: a main-tree isomorphism together with a
    label-compatible isomorphism of each auxiliary tree."""
    if a.main.n_vertices != b.main.n_vertices:
        return False
    for f in isomorphisms(a.main, b.main):
        good = True
        for v in range(a.main.n_vertices):
            w = f.vertex_map[v]
            pi = f.input_perms[v]
            ident = tuple(range(1, len(pi) + 1))
            if not isomorphisms(a.aux[v], b.aux[w], labels_a=pi, labels_b=ident):
                good = False
                break
        if good:
            return True
    return False


def test_classify_matches_pairwise_iso_oracle():
    census = enumerate_upsilon(4, 3, False)
    classes = classify(census)
    assert sum(c.size for c in classes) == len(census)
    # pairwise oracle on a deterministic subsample plus every class rep
    rng = Random(3)
    sample = rng.sample(census, 60) + [c.representative for c in classes]
    for i in range(len(sample)):
        for j in range(i, len(sample)):
            same_key = class_key(sample[i]) == class_key(sample[j])
            assert same_key == _oracle_same_class(sample[i], sample[j])


def test_displayed_trio_classification():
    # two-vertex path main tree, the child of arity 3; the first two
    # elements differ only by the planar slot carrying the unary vertex
    # in the root auxiliary, the third moves it to the child auxiliary.
    main_a = PlanarTree((None, PlanarTree((None, None, None))))
    main_b = PlanarTree((PlanarTree((None, None, None)), None))
    aux21 = PlanarTree((PlanarTree((None,)), None))
    aux22 = PlanarTree((None, PlanarTree((None,))))
    aux31 = PlanarTree((PlanarTree((None,)), None, None))
    e1 = UpsilonIndex(main_a, (aux21, corolla(3)))
    e2 = UpsilonIndex(main_b, (aux22, corolla(3)))
    e3 = UpsilonIndex(main_a, (corolla(2), aux31))
    assert all(
        e.geometric_inputs == 4 and e.aux_vertex_count == 3
        for e in (e1, e2, e3)
    )
    assert class_key(e1) == class_key(e2)
    assert class_key(e1) != class_key(e3)


def _bruteforce_vertex_key(idx: UpsilonIndex, v: int):
    sub = idx.main.subtrees[v]
    m = sub.arity
    entries = []
    w = v + 1
    for c in sub.children:
        if c is None:
            entries.append((0,))
        else:
            entries.append((1, _bruteforce_vertex_key(idx, w)))
            w += c.n_vertices
    best = None
    for pi in all_perms(m):
        # auxiliary leaf s carries label pi(s), so leaf order tracks the
        # slot reordering
        aux = canonical_form(Tree(idx.aux[v], pi))
        reordered = [None] * m
        for s in range(1, m + 1):
            reordered[pi[s - 1] - 1] = entries[s - 1]
        cand = ((repr(aux.shape), aux.labels), tuple(reordered))
        if best is None or cand < best:
            best = cand
    return best


def _bruteforce_key(idx: UpsilonIndex):
    """Independent class key: at each main vertex, the minimum over all m!
    slot permutations of (canonical labeled auxiliary tree, reordered child
    keys)."""
    return _bruteforce_vertex_key(idx, 0)


def _partition(indices, key):
    """Indices grouped by ``key``, groups in first-seen order."""
    groups: dict = {}
    for idx in indices:
        groups.setdefault(key(idx), []).append(idx)
    return [tuple(g) for g in groups.values()]


@pytest.mark.parametrize(
    "k,l,nontrivial",
    [
        (k, l, nontrivial)
        for k, l in [(3, 3), (4, 3), (4, 4), (5, 3)]
        for nontrivial in (False, True)
    ]
    # two-vertex main trees whose root or child vertex has arity 7
    + [(7, 2, True)],
)
def test_classify_matches_slot_permutation_search(k, l, nontrivial):
    census = enumerate_upsilon(k, l, nontrivial)
    classes = classify(census)
    want = _partition(census, _bruteforce_key)
    assert _partition(census, class_key) == want
    assert [c.representative for c in classes] == [g[0] for g in want]
    assert [c.size for c in classes] == [len(g) for g in want]


def _oracle_graph(classes, census):
    """Brute-force closure: contract every main edge of every member of
    every class, in class and member order, the members taken from the
    census; the edge list, each edge as first found."""
    key2i = {c.key: i for i, c in enumerate(classes)}
    members = _partition(census, class_key)
    assert [c.representative for c in classes] == [g[0] for g in members]
    edges, seen = [], set()
    for ci, c in enumerate(classes):
        for m in members[ci]:
            for (p, s) in m.main.child_vertex:
                t = contract_main_edge(m, p, s)
                if t.main.n_vertices == 1:
                    continue
                tj = key2i[class_key(t)]
                if (ci, tj) not in seen:
                    seen.add((ci, tj))
                    edges.append((ci, tj))
    return edges


def test_build_graph_small_cases(g43):
    g32 = build_graph(3, 2)
    assert len(g32.edges) == 0 and len(g32.classes) > 0

    census = enumerate_upsilon(4, 3, True)
    ocls = classify(census)
    oedges = _oracle_graph(ocls, census)
    assert len(g43.classes) == len(ocls)
    assert set(g43.edges) == set(oedges)
    assert (len(g43.classes), len(g43.edges)) == (63, 41)
    for a, b in g43.edges:
        assert (
            g43.classes[b].representative.main.n_vertices
            == g43.classes[a].representative.main.n_vertices - 1
        )
    for comp in g43.components:
        inits = [i for i in comp if g43.classes[i].level == 0]
        assert len(inits) == 1
        rep = g43.classes[inits[0]].representative
        assert all(a.n_vertices == 1 for a in rep.aux)


@pytest.mark.parametrize("k,l", [(4, 3), (5, 4), (6, 4)])
def test_build_graph_matches_all_members_pass(k, l):
    census = enumerate_upsilon(k, l, True)
    classes = classify(census)
    g = build_graph(k, l, classes)
    assert list(g.edges) == _oracle_graph(classes, census)


def test_build_graph_regression_counts():
    g = build_graph(5, 4)
    assert len(g.classes) == 887
    assert len(g.edges) == 1111
    assert len(g.components) == 133


def test_build_graph_regression_counts_6_4():
    g = build_graph(6, 4)
    assert len(g.classes) == 1389
    assert len(g.edges) == 1746
    assert len(g.components) == 207


def test_build_graph_regression_counts_7_5():
    # past the census, 593,565 indices: the pins were checked once against
    # the graph built by classifying it
    g = build_graph(7, 5)
    assert len(g.classes) == class_count(7, 5, True) == 20972
    assert sum(c.size for c in g.classes) == census_size(7, 5, True)
    assert len(g.edges) == 38263
    assert len(g.components) == 1471


def test_subgraph_levels(g43):
    s0 = subgraph_i(g43, 0)
    assert len(s0.edges) == 0 and all(c.level == 0 for c in s0.classes)
    s1 = subgraph_i(g43, 1)
    assert {
        (s1.classes[a].key, s1.classes[b].key) for a, b in s1.edges
    } == {
        (g43.classes[a].key, g43.classes[b].key)
        for a, b in g43.edges
        if g43.classes[a].level == 0 and g43.classes[b].level == 1
    }
    with pytest.raises(ValueError):
        subgraph_i(g43, 2)


def test_stabilizers_and_automorphism_families():
    main_a = PlanarTree((None, PlanarTree((None, None, None))))
    aux21 = PlanarTree((PlanarTree((None,)), None))
    e1 = UpsilonIndex(main_a, (aux21, corolla(3)))
    # the arity-3 corolla auxiliary permutes freely, the root aux is rigid
    assert len(automorphism_families(e1)) == 6
    # no family moves the root vertex's slots: representatives cover S_2
    assert stab(classify([e1])[0], 0, 0) == [(1, 2), (2, 1)]

    main_sym = PlanarTree((PlanarTree((None,)), PlanarTree((None,))))
    sym = UpsilonIndex(main_sym, (corolla(2), corolla(1), corolla(1)))
    assert len(automorphism_families(sym)) == 2
    # the swap of the two identical branches folds the slot transposition
    assert stab(classify([sym])[0], 0, 0) == [(1, 2)]


def _coset_reps(m: int, induced) -> list:
    """The coset scan: the identity first, then, in lexicographic order,
    each permutation that no earlier representative's coset covers."""
    reps, covered = [], set()
    ident = tuple(range(1, m + 1))
    for sigma in [ident] + sorted(all_perms(m)):
        if sigma in covered:
            continue
        reps.append(sigma)
        for tau in induced:
            covered.add(perm_compose(tau, sigma))
    return reps


def _oracle_stab(cls, main_vertex: int, aux_vertex: int) -> list:
    """``stab`` from its definition: the input permutations at the
    auxiliary vertex induced by every automorphism family fixing it, then
    the coset scan."""
    rep = cls.representative
    m = rep.aux[main_vertex].arity_of(aux_vertex)
    induced = set()
    for f, gs in automorphism_families(rep):
        if f.vertex_map[main_vertex] != main_vertex:
            continue
        g = gs[main_vertex]
        if g.vertex_map[aux_vertex] != aux_vertex:
            continue
        induced.add(g.input_perms[aux_vertex])
    return _coset_reps(m, induced)


def _block_scan_stab(cls, main_vertex: int, aux_vertex: int) -> list:
    """``stab`` as a scan: the induced permutations are all those that keep
    every slot of the auxiliary vertex in its block of equal encodings, and
    the coset scan picks a representative per coset."""
    rep = cls.representative
    main = rep.main
    a = rep.aux[main_vertex]
    m = a.arity_of(aux_vertex)
    entries = [
        (0,) if c is None
        else (1, _vertex_key(rep, main.child_vertex[(main_vertex, s)]))
        for s, c in enumerate(main.subtrees[main_vertex].children, start=1)
    ]
    skip = 0  # the auxiliary leaves before aux_vertex, in planar order
    v = aux_vertex
    while v:
        v, slot = a.vertex_parents[v]
        skip += PlanarTree(a.subtrees[v].children[: slot - 1]).n_leaves
    encs = slot_encodings(a.subtrees[aux_vertex], iter(entries[skip:]))
    induced = [
        tau for tau in all_perms(m)
        if all(encs[t - 1] == enc for t, enc in zip(tau, encs))
    ]
    return _coset_reps(m, induced)


def test_stab_matches_the_block_coset_scan():
    triples = 0
    for k, l in [(4, 3), (5, 3), (5, 4), (6, 3), (4, 4)]:
        for nontrivial in (False, True):
            for cls in classify(enumerate_upsilon(k, l, nontrivial)):
                rep = cls.representative
                for v in range(rep.main.n_vertices):
                    for u in range(rep.aux[v].n_vertices):
                        assert stab(cls, v, u) == _block_scan_stab(cls, v, u)
                        triples += 1
    assert triples == 14003


def test_stab_matches_the_automorphism_families():
    triples = 0
    for k, l in [(4, 3), (5, 3)]:
        for cls in graph_classes(k, l):
            rep = cls.representative
            for v in range(rep.main.n_vertices):
                for u in range(rep.aux[v].n_vertices):
                    assert stab(cls, v, u) == _oracle_stab(cls, v, u)
                    triples += 1
    assert triples == 459


def test_reedy_category_structure(g43):
    r = reedy_of(g43)
    assert len(r.pair_objects) == len(g43.edges)
    assert all(r.degree(o) == 1 for o in r.vertex_objects)
    assert all(r.degree(o) == 0 for o in r.pair_objects)
    for pair in r.pair_objects[:5]:
        assert r.d0(pair) == ("vertex", pair[1])
        assert r.d1(pair) == ("vertex", pair[2])
        assert latching_index(r, pair) == []
    v0 = r.vertex_objects[0]
    expect = [("d0", p) for p in r.pair_objects if p[1] == 0] + [
        ("d1", p) for p in r.pair_objects if p[2] == 0
    ]
    assert sorted(latching_index(r, v0)) == sorted(expect)

    g32 = build_graph(3, 2)
    r32 = reedy_of(g32)
    assert len(r32.pair_objects) == 0
    assert all(latching_index(r32, o) == [] for o in r32.objects)

    # synthetic star: hub class 0 mapping onto three copies
    star = ContractionGraph(
        0,
        0,
        tuple(g32.classes[:1]) * 4,
        ((0, 1), (0, 2), (0, 3)),
        ((0, 1, 2, 3),),
        (0,),
    )
    rs = reedy_of(star)
    assert len(latching_index(rs, ("vertex", 0))) == 3
    assert all(
        len(latching_index(rs, ("vertex", j))) == 1 for j in (1, 2, 3)
    )


def test_latching_index_is_the_ordered_pair_scan():
    r = reedy_of(build_graph(4, 4))
    for obj in r.objects:
        want = []
        if obj in r.vertex_objects:
            for pair in r.pair_objects:
                if ("vertex", pair[1]) == obj:
                    want.append(("d0", pair))
                if ("vertex", pair[2]) == obj:
                    want.append(("d1", pair))
        assert latching_index(r, obj) == want
    n = len(r.vertex_objects)
    for unknown in (("vertex", n), ("pair", 0, 0), ["vertex", 0], "vertex"):
        with pytest.raises(ValueError):
            r.degree(unknown)
        with pytest.raises(ValueError):
            latching_index(r, unknown)
    for not_edge in (("vertex", 0), ("pair", 0, 0), ["pair", 0, 1]):
        with pytest.raises(ValueError):
            r.d0(not_edge)
        with pytest.raises(ValueError):
            r.d1(not_edge)


PATH2 = UpsilonIndex(
    PlanarTree((PlanarTree((None,)),)), (corolla(1), corolla(1))
)
IDX_AUX = UpsilonIndex(
    PlanarTree((PlanarTree((None,)),)),
    (corolla(1), PlanarTree((PlanarTree((None,)),))),
)


def test_membership_polytope_variants():
    assert h_membership(PATH2, (F(1, 3), F(1, 2)), ((), ()))
    assert not h_membership(PATH2, (F(1, 2), F(1, 3)), ((), ()))
    # equal heights sit on the closed polytope but need a witness for the
    # open variant
    assert h_membership(PATH2, (F(1, 2), F(1, 2)), ((), ()), "H")
    assert not h_membership(PATH2, (F(1, 2), F(1, 2)), ((), ()), "H-")
    assert h_membership(PATH2, (F(0), F(1, 2)), ((), ()), "H-")
    assert h_membership(IDX_AUX, (F(1, 4), F(1, 2)), ((), (F(0),)), "H-")
    assert h_membership(IDX_AUX, (F(1, 4), F(1, 2)), ((), (F(1),)), "H(T;T')")
    assert not h_membership(
        IDX_AUX, (F(1, 4), F(1, 2)), ((), (F(1, 2),)), "H(T;T')"
    )
    with pytest.raises(ValueError):
        h_membership(PATH2, (F(1, 2),), ((), ()))


def test_homotopy_endpoints_and_hand_values():
    hts = (F(1, 4), F(1, 2))
    aps = ((), (F(1, 3),))
    assert homotopy_H(IDX_AUX, hts, aps, F(0)) == (hts, aps)
    assert homotopy_H(IDX_AUX, hts, aps, F(1)) == (
        (F(0), F(1)),
        ((), (F(1),)),
    )
    # at the half-way point the first stage (heights) is complete and the
    # auxiliary parameters untouched
    h_half, a_half = homotopy_H(IDX_AUX, hts, aps, F(1, 2))
    assert h_half == (F(0), F(1)) and a_half == aps
    # piecewise-linear hand values
    h_q, a_q = homotopy_H(IDX_AUX, hts, aps, F(1, 4))
    assert h_q == (
        (1 - F(1, 2)) * F(1, 4),
        (1 - F(1, 2)) * F(1, 2) + F(1, 2),
    )
    assert a_q == aps
    h_t, a_t = homotopy_H(IDX_AUX, hts, aps, F(3, 4))
    assert h_t == (F(0), F(1))
    assert a_t == ((), (F(1, 3) + F(2, 3) * F(1, 2),))


def test_homotopy_preserves_membership():
    rng = Random(7)
    shapes = [
        c.representative for c in classify(enumerate_upsilon(4, 3, True))
    ]
    for idx in shapes:
        assert 0 not in max_vertices(idx.main)
        for _ in range(40):
            hts = [F(0)] * idx.main.n_vertices
            for v, (p, _s) in enumerate(idx.main.vertex_parents):
                lo = hts[p] if p >= 0 else F(0)
                hts[v] = lo + (F(1) - lo) * F(rng.randint(0, 8), 8)
            aps = tuple(
                tuple(
                    F(rng.randint(0, 8), 8) for _ in range(a.n_vertices - 1)
                )
                for a in idx.aux
            )
            hts = tuple(hts)
            u = F(rng.randint(0, 16), 16)
            out_h, out_a = homotopy_H(idx, hts, aps, u)
            assert h_membership(idx, out_h, out_a, "H")
            if h_membership(idx, hts, aps, "H-"):
                assert h_membership(idx, out_h, out_a, "H-")


def test_homotopy_rejects_bad_inputs():
    with pytest.raises(ValueError):
        homotopy_H(PATH2, (F(1, 2), F(1, 4)), ((), ()), F(1, 2))
    with pytest.raises(ValueError):
        homotopy_H(
            UpsilonIndex(corolla(1), (corolla(1),)), (F(1, 2),), ((),), F(1, 2)
        )


def test_contract_main_edge_hand_example():
    L = None
    # Main tree (((..).)(.)) in preorder: root 0 with slots (vertex 1, leaf,
    # vertex 3); vertex 1 with slots (vertex 2, leaf); vertex 2 with two
    # leaves; vertex 3 with one leaf.  No auxiliary tree has a symmetry.
    main = PlanarTree((PlanarTree((PlanarTree((L, L)), L)), L, PlanarTree((L,))))
    aux = (
        PlanarTree((L, PlanarTree((L, L)))),  # (.(..)) at vertex 0
        PlanarTree((L, PlanarTree((L,)))),  # (.(.)) at vertex 1
        PlanarTree((PlanarTree((L,)), L)),  # ((.).) at vertex 2
        corolla(1),  # (.) at vertex 3
    )
    idx = UpsilonIndex(main, aux)
    # Contract the edge at slot 1 of vertex 1 (its last slot is 2): vertex 2
    # leaves the preorder, its two slots take slot 1 of vertex 1, and its
    # auxiliary tree is grafted at leaf 1 of (.(.)), giving (((.).)(.)).
    want = UpsilonIndex(
        PlanarTree((PlanarTree((L, L, L)), L, PlanarTree((L,)))),
        (
            aux[0],
            PlanarTree((PlanarTree((PlanarTree((L,)), L)), PlanarTree((L,)))),
            aux[3],
        ),
    )
    got = contract_main_edge(idx, 1, 1)
    assert got == want
    assert repr(got.main) == "((...).(.))"
    assert repr(got.aux[1]) == "(((.).)(.))"
    with pytest.raises(ValueError):
        contract_main_edge(idx, 1, 2)  # slot 2 of vertex 1 is a leaf


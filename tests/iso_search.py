"""The test oracles for non-planar isomorphisms.

The engine decides isomorphism through encodings alone: ``canonicalize``
sorts a tree's children by theirs, and ``cells`` keys a cell index by the
encoding of its glued tree (``cells._glued``).  The tests that check them
(isomorphism classes, canonical forms, stabilizers) read two oracles here.
One is a backtracking search over injective slot assignments, vertex by
vertex, that reads no encoding and lists the isomorphisms from the
definition.  The other is the reference class key, built as the class key
was first written: each auxiliary tree encoded on its own
(``labeled_encoding``), its leaves labeled by their slots' entries, a
child main vertex's entry holding that vertex's key."""

from itertools import product
from typing import Iterator, NamedTuple, Optional

from operad_forge.operads import identity_perm
from operad_forge.trees import PlanarTree, Tree


def labeled_encoding(sub: PlanarTree, labels: Iterator) -> tuple:
    """The bottom-up canonical encoding (Aho, Hopcroft & Ullman) of ``sub``
    with its leaves, in planar order, labeled by ``labels``: a leaf encodes
    as ``(0, label)`` and a vertex as ``(1, sorted child encodings)``.  Two
    labeled trees are isomorphic exactly when their encodings are equal."""
    return (1, tuple(sorted(slot_encodings(sub, labels))))


def slot_encodings(sub: PlanarTree, labels: Iterator) -> list:
    """The encodings that ``labeled_encoding(sub, labels)`` sorts, in slot
    order: one per slot of the root, the leaf's or the child vertex's."""
    return [
        (0, next(labels)) if c is None else labeled_encoding(c, labels)
        for c in sub.children
    ]


def slot_entries(idx, v: int) -> list[tuple]:
    """The reference entry of each input slot of main vertex ``v`` of a
    cell index, in slot order: ``(0,)`` for a main leaf, ``(1, key)`` for a
    child vertex."""
    entries = []
    w = v + 1  # the preorder index of the next child vertex
    for c in idx.main.subtrees[v].children:
        if c is None:
            entries.append((0,))
        else:
            entries.append((1, reference_key(idx, w)))
            w += c.n_vertices
    return entries


def reference_key(idx, v: int = 0) -> tuple:
    """The reference class key of main vertex ``v``'s subtree: the labeled
    encoding of its auxiliary tree, leaves labeled by ``slot_entries``.  At
    ``v = 0`` it equals ``cells.class_key``."""
    return labeled_encoding(idx.aux[v], iter(slot_entries(idx, v)))


class Iso(NamedTuple):
    """A non-planar isomorphism between two planar trees: ``vertex_map[v]``
    is the image (preorder index in the target) of source vertex ``v``, and
    ``input_perms[v][s-1]`` is the target slot to which slot ``s`` of source
    vertex ``v`` is sent."""

    vertex_map: tuple[int, ...]
    input_perms: tuple[tuple[int, ...], ...]


def _match(
    a: PlanarTree,
    a_leaf0: int,
    b: PlanarTree,
    b_leaf0: int,
    labels_a: Optional[tuple[int, ...]],
    labels_b: Optional[tuple[int, ...]],
) -> Iterator[tuple]:
    """Yield local isomorphism records ``(slot_perm, child_records)``.

    ``slot_perm[s-1]`` is the b-slot matched to a-slot ``s``; child_records
    holds, for each a-slot that is a vertex, the recursive record.  Leaf
    offsets track absolute planar positions for label comparison.
    """
    if a.arity != b.arity:
        return
    m = a.arity
    # Precompute per-slot leaf offsets for both trees.
    a_off: list[int] = []
    pos = a_leaf0
    for c in a.children:
        a_off.append(pos)
        pos += 1 if c is None else c.n_leaves
    b_off = []
    pos = b_leaf0
    for c in b.children:
        b_off.append(pos)
        pos += 1 if c is None else c.n_leaves

    def slot_ok(sa: int, sb: int) -> Iterator[tuple]:
        ca, cb = a.children[sa], b.children[sb]
        if ca is None and cb is None:
            if labels_a is not None and (
                labels_a[a_off[sa]] != labels_b[b_off[sb]]
            ):
                return
            yield ()
        elif ca is not None and cb is not None:
            yield from _match(
                ca, a_off[sa], cb, b_off[sb], labels_a, labels_b
            )

    # Backtracking over injective slot assignments; identity-first order.
    def assign(sa: int, used: tuple[bool, ...], acc: list) -> Iterator[tuple]:
        if sa == m:
            perm = tuple(p + 1 for p, _ in acc)
            records = tuple(r for _, r in acc if r != ())
            yield (perm, records)
            return
        order = [s for s in range(m) if not used[s]]
        for sb in order:
            for rec in slot_ok(sa, sb):
                new_used = used[:sb] + (True,) + used[sb + 1 :]
                acc.append((sb, rec))
                yield from assign(sa + 1, new_used, acc)
                acc.pop()

    yield from assign(0, (False,) * m, [])


def _records_to_iso(a: PlanarTree, b: PlanarTree, record: tuple) -> Iso:
    """Flatten a nested local-isomorphism record into an ``Iso``."""
    n = a.n_vertices
    vertex_map = [0] * n
    input_perms: list[tuple[int, ...]] = [()] * n

    def walk(
        sub_a: PlanarTree, idx_a: int, sub_b: PlanarTree, idx_b: int, rec: tuple
    ) -> None:
        perm, child_records = rec
        vertex_map[idx_a] = idx_b
        input_perms[idx_a] = perm
        # Preorder indices of b's vertex children, by slot.
        b_child_idx: dict[int, int] = {}
        nxt = idx_b + 1
        for slot, c in enumerate(sub_b.children, start=1):
            if c is not None:
                b_child_idx[slot] = nxt
                nxt += c.n_vertices
        nxt_a = idx_a + 1
        rec_i = 0
        for slot, c in enumerate(sub_a.children, start=1):
            if c is not None:
                tgt_slot = perm[slot - 1]
                tgt_child = sub_b.children[tgt_slot - 1]
                assert tgt_child is not None
                walk(c, nxt_a, tgt_child, b_child_idx[tgt_slot], child_records[rec_i])
                rec_i += 1
                nxt_a += c.n_vertices

    walk(a, 0, b, 0, record)
    return Iso(tuple(vertex_map), tuple(input_perms))


def _search(a, b, labels_a, labels_b) -> Iterator[Iso]:
    for rec in _match(a, 0, b, 0, labels_a, labels_b):
        yield _records_to_iso(a, b, rec)


def isomorphisms(a, b, labels_a=None, labels_b=None) -> list[Iso]:
    """Every isomorphism ``a -> b`` that sends each leaf to a leaf with the
    same label (when labels are given); the in-order matching comes first,
    so ``isomorphisms(t, t)`` starts with the identity."""
    return list(_search(a, b, labels_a, labels_b))


def automorphisms(t: PlanarTree) -> list[Iso]:
    """The automorphism group of ``t``, leaf labels ignored."""
    return isomorphisms(t, t)


def nonplanar_iso(a: Tree, b: Tree) -> Optional[Iso]:
    """A label-respecting isomorphism between labeled trees, or ``None``."""
    return next(_search(a.shape, b.shape, a.labels, b.labels), None)


def automorphism_families(idx) -> list[tuple[Iso, tuple[Iso, ...]]]:
    """All self-families ``(f, (g_v)_v)`` of a cell index: a main-tree
    automorphism ``f`` plus, per main vertex ``v``, an auxiliary isomorphism
    ``g_v`` onto the auxiliary tree at ``f(v)`` whose leaf permutation equals
    the slot permutation of ``f`` at ``v``."""
    out = []
    for f in automorphisms(idx.main):
        options = [
            isomorphisms(idx.aux[v], idx.aux[w], pi, identity_perm(len(pi)))
            for v, (w, pi) in enumerate(zip(f.vertex_map, f.input_perms))
        ]
        out.extend((f, combo) for combo in product(*options))
    return out

"""Bimodule-resolution layer: rewriting relations, bimodule structure, the
counit, prime decomposition, filtration, and cell-membership flags."""

from fractions import Fraction as F
from random import Random

import pytest

from operad_forge import wb
from operad_forge.bv import (
    BVPoint,
    bv_compose,
    bv_normalize,
    bv_unit,
    has_unit_bivalent,
    iota,
    mu,
    raw_bv,
)
from operad_forge.operads import (
    AssocOperad,
    ComOperad,
    EndOperad,
    identity_perm,
    operad_by_name,
    perm_compose,
    unit_cube,
)
from operad_forge.sampling import random_perm, random_wb
from operad_forge.trees import (
    Node,
    PlanarTree,
    Tree,
    corolla,
    cut,
    fold,
    from_nodes,
    to_nodes,
)
from operad_forge.wb import (
    ONE,
    ZERO,
    WBPoint,
    is_trivial_subpoint,
    mu_tilde,
    raw_wb,
    subdivide,
    wb_act,
    wb_decompose,
    wb_filtration,
    wb_gamma0,
    wb_is_prime,
    wb_left,
    wb_normalize,
    wb_prime_components,
    wb_reassemble,
    wb_right,
    wb_trivial,
    y_cell_membership,
)

A = AssocOperad()


def _corolla_point(word, t):
    return wb_normalize(raw_wb(A, corolla(len(word)), (iota(A, word),), (t,)))


def test_unit_main_vertex_deleted():
    # a unit-labeled unary main vertex disappears regardless of height
    shape = PlanarTree((PlanarTree((None, None)),))
    raw = raw_wb(
        A, shape, (bv_unit(A), iota(A, (2, 1))), (F(1, 4), F(1, 2))
    )
    assert wb_normalize(raw) == _corolla_point((2, 1), F(1, 2))


def test_degenerate_unit_point_is_canonical():
    one = raw_wb(A, corolla(1), (bv_unit(A),), (F(2, 3),))
    other = raw_wb(A, corolla(1), (bv_unit(A),), (F(1, 5),))
    assert wb_normalize(one) == wb_normalize(other)


def test_equal_heights_merge_main_vertices():
    # parent and child at the same height merge into one vertex whose label
    # grafts the child's resolution label at length 1
    shape = PlanarTree((PlanarTree((None, None)), None))
    t = F(3, 7)
    raw = raw_wb(A, shape, (iota(A, (1, 2)), iota(A, (2, 1))), (t, t))
    got = wb_normalize(raw)
    assert got.n_main_vertices == 1
    assert got.heights == (t,)
    label = got.labels[0]
    assert label.n_vertices == 2 and label.params == (F(1),)


def test_mu_tilde_on_generators():
    for n in range(1, 5):
        for w in A.elements(n):
            for t in (F(0), F(1, 3), F(1)):
                assert mu_tilde(_corolla_point(w, t)) == w
    assert mu_tilde(wb_gamma0(ComOperad(), 0)) == 0


def test_right_action_structure():
    rng = Random(6)
    for _ in range(80):
        x = wb_normalize(random_wb(rng, A))
        if x.arity == 0:
            continue
        a = random_perm(rng, rng.randint(1, 3))
        i = rng.randint(1, x.arity)
        r = wb_right(x, i, a)
        assert r.arity == x.arity + len(a) - 1
        assert mu_tilde(r) == A.compose(mu_tilde(x), i, a)
        assert wb_right(x, i, A.unit()) == x


def test_left_action_structure():
    rng = Random(16)
    pool = [
        wb_normalize(random_wb(rng, A, max_main_vertices=2)) for _ in range(30)
    ]
    for _ in range(50):
        m = rng.randint(1, 3)
        a = random_perm(rng, m)
        xs = [rng.choice(pool) for _ in range(m)]
        lx = wb_left(a, xs)
        assert lx.arity == sum(x.arity for x in xs)
        want = a
        for i in range(m, 0, -1):
            want = A.compose(want, i, mu_tilde(xs[i - 1]))
        assert mu_tilde(lx) == want
    x = pool[0]
    assert wb_left(A.unit(), [x]) == x


def test_symmetric_action_laws():
    rng = Random(26)
    for _ in range(60):
        x = wb_normalize(random_wb(rng, A))
        n = x.arity
        s, t = random_perm(rng, n), random_perm(rng, n)
        st = tuple(t[s[j] - 1] for j in range(n))
        assert wb_act(wb_act(x, s), t) == wb_act(x, st)
        assert wb_act(x, identity_perm(n)) == x
        assert mu_tilde(wb_act(x, s)) == A.act(mu_tilde(x), s)


def test_normalize_idempotent_and_confluent():
    rng = Random(31)
    for op in (A, EndOperad(2)):
        for _ in range(60):
            p = random_wb(rng, op)
            forms = {
                repr(wb_normalize(p, Random(s) if s else None))
                for s in (0, 5, 17)
            }
            assert len(forms) == 1
            q = wb_normalize(p)
            assert wb_normalize(q) == q


def test_prime_decomposition_roundtrip():
    rng = Random(41)
    found = 0
    while found < 60:
        x = wb_normalize(random_wb(rng, A))
        for c in wb_prime_components(x):
            assert wb_is_prime(c)
        if not wb_is_prime(x):
            found += 1
            assert wb_reassemble(wb_decompose(x)) == x


def _frame_decompose(x):
    """Prime decomposition by a frame walker, the oracle for the band cut:
    ``(frame, components)``.

    ``frame`` is a nested entry: ``("leaf",)``, ``("comp", idx)``, or
    ``("frame", label, height, kids)`` for a removed vertex (height 0 or 1).
    ``components[idx]`` is ``(raw_point, attachments)`` where the raw point is
    the interior component in its original planar presentation (identity
    word) and attachments list ``(leaf_position, cap_entry)`` pairs for the
    removed height-1 vertices that sat above it.
    """
    components = []

    def encode(n):
        if not isinstance(n, Node):
            return ("leaf",)
        if n.t in (ZERO, ONE):
            return ("frame", n.label, n.t, tuple(encode(c) for c in n.kids))
        # The maximal interior subtree at n; the height-1 caps above it
        # become leaves, recorded as attachments by leaf position.
        comp, dangling = cut(n, lambda c: c.t not in (ZERO, ONE))
        attachments = tuple(
            (pos, ("frame", c.label, c.t, tuple(("leaf",) for _ in c.kids)))
            for pos, c in enumerate(dangling, start=1)
            if isinstance(c, Node)
        )
        components.append((raw_wb(x.operad, *from_nodes(comp)), attachments))
        return ("comp", len(components) - 1)

    frame = encode(to_nodes(x.tree.shape, x.labels, x.heights, x.tree.labels))
    return frame, components


OPERADS = [A, ComOperad(), EndOperad(2), operad_by_name("free:a=2,b=3:4")]


def _normal_points(op, n, seed):
    """``n`` random normalized points with up to 5 main vertices; draws the
    truncated free operad refuses (an arity past its bound) are skipped."""
    rng = Random(seed)
    min_arity = 0 if op.elements(0) else 1
    out = []
    while len(out) < n:
        try:
            p = random_wb(rng, op, max_main_vertices=5, min_arity=min_arity)
            out.append(wb_normalize(p))
        except ValueError:
            continue
    return out


@pytest.mark.parametrize("op", OPERADS, ids=lambda o: o.name)
def test_band_cut_matches_the_frame_walker(op):
    points = _normal_points(op, 300, 61)
    assert max(y.n_main_vertices for y in points) == 5
    for y in points:
        _, components = _frame_decompose(y)
        want = [wb_normalize(raw) for raw, _ in components]
        assert [repr(c) for c in wb_prime_components(y)] == [repr(c) for c in want]
        assert wb_reassemble(wb_decompose(y)) == y


@pytest.mark.parametrize("op", OPERADS, ids=lambda o: o.name)
def test_the_pieces_are_the_prime_components_between_single_vertices(op):
    # every piece of ``wb_decompose`` that is not prime is one main vertex
    # at height 0 or 1, and the prime ones come in the order in which the
    # unit cube's band cut lists them; each piece, and the stack that the
    # fold of the pieces builds before the word acts, is a valid point
    for y in _normal_points(op, 300, 67):
        d = wb_decompose(y)
        for c in d.components:
            raw_wb(op, c.tree.shape, c.labels, c.heights, c.tree.labels)
            if not wb_is_prime(c):
                assert c.n_main_vertices == 1 and c.heights[0] in (ZERO, ONE)
        band = subdivide(y, unit_cube())[1][0]
        primes = [c for c in d.components if wb_is_prime(c)]
        assert primes == [c for c in band if not is_trivial_subpoint(c)]
        stack = fold(d.shape, d.components, wb._graft)
        raw_wb(op, stack.tree.shape, stack.labels, stack.heights, stack.tree.labels)
        assert wb_act(stack, d.word) == y


@pytest.mark.parametrize("op", OPERADS, ids=lambda o: o.name)
def test_unit_points_are_the_normalized_units(op):
    unit = bv_normalize(raw_bv(op, corolla(1), (op.unit(),), ()))
    assert bv_unit(op) == unit and repr(bv_unit(op)) == repr(unit)
    assert bv_unit(op).canonical
    t = wb_trivial(op)
    want = wb_normalize(raw_wb(op, corolla(1), (unit,), (F(0),)))
    assert t == want and repr(t) == repr(want)
    assert t.canonical
    assert wb_normalize(t) == t


def _act_by_normalizing(x, sigma):
    """The definition of the action: relabel the main leaf word, then
    normalize the relabeled raw point."""
    tree = Tree(x.tree.shape, perm_compose(x.tree.labels, sigma))
    return wb_normalize(WBPoint(x.operad, x.operad_name, tree, x.heights, x.labels, False))


@pytest.mark.parametrize("op", OPERADS, ids=lambda o: o.name)
def test_act_on_a_normal_form_only_re_presents(op, monkeypatch):
    # Relabeling the main leaves of a normal form makes no redex and its
    # labels are canonical, so neither layer rewrites anything; the action
    # equals the definition.
    rng = Random(97)
    cases = []
    for y in _normal_points(op, 200, 89):
        sigma = random_perm(rng, y.arity)
        cases.append((y, sigma, _act_by_normalizing(y, sigma)))
    assert sum(y.n_main_vertices > 1 for y, _, _ in cases) >= 40
    assert sum(sigma != identity_perm(y.arity) for y, sigma, _ in cases) >= 60
    assert sum(sigma != identity_perm(y.arity) for y, sigma, _ in cases) >= 40

    def no_rewriting(*args):
        raise AssertionError("a normal form was rewritten")

    monkeypatch.setattr(BVPoint, "_rewrite", staticmethod(no_rewriting))
    monkeypatch.setattr(WBPoint, "_rewrite", staticmethod(no_rewriting))
    for y, sigma, want in cases:
        got = wb_act(y, sigma)
        assert got.canonical
        assert got == want and repr(got) == repr(want)
        assert [a.order_key for a in got.labels] == [a.order_key for a in want.labels]


def test_act_on_a_raw_point_normalizes_it():
    rng = Random(98)
    for _ in range(60):
        raw = random_wb(rng, A)
        sigma = random_perm(rng, raw.arity)
        assert wb_act(raw, sigma) == _act_by_normalizing(raw, sigma)


@pytest.mark.parametrize("sigma", [(2, 1, 3), (2,), (2, 2), (1, 3), (0, 1)])
def test_act_refuses_a_sigma_that_is_not_a_permutation(sigma):
    x = _corolla_point((2, 1), F(1, 2))
    raw = raw_wb(A, corolla(2), (iota(A, (2, 1)),), (F(1, 2),))
    for point in (x, raw):
        with pytest.raises(ValueError, match="not a permutation of 1..2"):
            wb_act(point, sigma)


def _mu_tilde_by_resolution(y):
    """The definition of ``mu_tilde``: compose the labels along the main
    tree in the resolution, then take the image of the composite."""
    return y.operad.act(mu(fold(y.tree.shape, y.labels, bv_compose)), y.tree.labels)


@pytest.mark.parametrize("op", OPERADS, ids=lambda o: o.name)
def test_mu_tilde_matches_the_resolution_fold(op):
    # a free operad has no arity-0 elements and a bounded arity: its points
    # have no leafless vertex, and no more inputs than the bound
    has_nullary = bool(op.elements(0))
    bound = getattr(op, "max_supported_arity", None)
    rng = Random(73)
    seen = {"unit label": 0, "height 0": 0, "height 1": 0, "arity-0 label": 0}
    checked = 0
    while checked < 150:
        raw = random_wb(rng, op, min_arity=0 if has_nullary else 1)
        if bound is not None and raw.arity > bound:
            continue
        seen["unit label"] += any(has_unit_bivalent(lab) for lab in raw.labels)
        seen["height 0"] += ZERO in raw.heights
        seen["height 1"] += ONE in raw.heights
        seen["arity-0 label"] += any(
            sub.arity == 0 for lab in raw.labels for sub in lab.tree.shape.subtrees
        )
        for y in (raw, wb_normalize(raw)):
            assert mu_tilde(y) == _mu_tilde_by_resolution(y)
        checked += 1
    assert seen["unit label"] and seen["height 0"] and seen["height 1"]
    assert bool(seen["arity-0 label"]) == has_nullary


def test_boundary_heights_make_points_composite():
    x = _corolla_point((2, 1), F(0))
    y = _corolla_point((2, 1), F(1))
    z = _corolla_point((2, 1), F(1, 2))
    assert not wb_is_prime(x) and not wb_is_prime(y)
    assert wb_is_prime(z)


def test_filtration_monotone():
    rng = Random(51)
    for _ in range(60):
        x = wb_normalize(random_wb(rng, A))
        comps = wb_prime_components(x)
        k = max((c.geometric_inputs for c in comps), default=0)
        l = max(
            (c.aux_vertex_count for c in comps if c.geometric_inputs == k),
            default=0,
        )
        assert wb_filtration(x, max(k, 1))
        assert wb_filtration(x, max(k, 1) + 1)
        assert wb_filtration(x, max(k, 1), l)
        assert wb_filtration(x, max(k, 1), l + 1)
        if k > 1:
            assert not wb_filtration(x, k - 1)


def test_y_cell_membership_flags():
    # raw two-vertex main data with three geometric inputs, two aux vertices
    shape = PlanarTree((PlanarTree((None, None)), None))

    def point(t_root, t_child):
        return raw_wb(
            A, shape, (iota(A, (1, 2)), iota(A, (2, 1))), (t_root, t_child)
        )

    interior = y_cell_membership(point(F(1, 3), F(1, 2)), 3, 2)
    assert "interior" in interior and "outside" not in interior
    at_boundary = y_cell_membership(point(F(0), F(1, 2)), 3, 2)
    assert "dY" in at_boundary
    wrong_k = y_cell_membership(point(F(1, 3), F(1, 2)), 4, 2)
    assert wrong_k == frozenset({"outside"})
    # non-corolla main tree lies in the first closed stratum
    assert "Y1" in y_cell_membership(point(F(1, 3), F(1, 2)), 3, 2)
    # an extreme-height corolla lies in the second
    cor = raw_wb(A, corolla(3), (iota(A, (1, 3, 2)),), (F(1),))
    flags = y_cell_membership(cor, 3, 1)
    assert "Y2" in flags and "dYprime" in flags


@pytest.mark.parametrize("h, collapses", [
    (0, True), (1, True), (ZERO, True), (ONE, True), (F(2, 2), True),
    (F(1, 2), False), (F(1, 8), False), (F(7, 8), False),
])
def test_a_label_collapses_exactly_at_heights_0_and_1(h, collapses):
    # relation (iv), read off the height's denominator: in the rule, in the
    # one settle pass, in the random-order oracle and through ``raw_wb``
    label = bv_normalize(raw_bv(A, PlanarTree((corolla(2), None)), ((1, 2), (2, 1)),
                                (F(1, 2),)))
    assert label.n_vertices == 2
    want = iota(A, mu(label)) if collapses else label
    assert wb._collapses(Node(label, h, [1, 2, 3])) is collapses
    for rng in (None, Random(5)):
        root = WBPoint._rewrite(A, Node(label, h, [1, 2, 3]), rng)
        assert root.label == want and root.t == h
    y = wb_normalize(raw_wb(A, corolla(3), (label,), (h,)))
    assert y.labels == (want,)


@pytest.mark.parametrize("h", [0.5, 1.0, "1/2", None])
def test_a_height_must_be_an_exact_rational(h):
    with pytest.raises(ValueError, match=f"^height {h!r} is not an int or a Fraction$"):
        raw_wb(A, corolla(2), (iota(A, (1, 2)),), (h,))


def test_validation_errors():
    with pytest.raises(ValueError):
        raw_wb(A, corolla(2), (iota(A, (1, 2, 3)),), (F(1, 2),))
    with pytest.raises(ValueError):
        raw_wb(A, corolla(2), (iota(A, (1, 2)),), (F(3, 2),))
    with pytest.raises(IndexError):
        wb_right(_corolla_point((1, 2), F(1, 2)), 5, (1,))


def test_a_bimodule_point_refuses_labels_over_another_operad():
    end2 = EndOperad(2)
    x = raw_wb(A, corolla(1), (iota(A, (1,)),), (F(1, 2),))
    y = raw_wb(end2, corolla(1), (iota(end2, (1, (1, 0))),), (F(1, 2),))
    with pytest.raises(ValueError, match="operad mismatch"):
        wb_left((1, 2), [x, y])
    with pytest.raises(ValueError, match="operad mismatch"):
        raw_wb(A, corolla(1), (iota(end2, (1, (1, 0))),), (F(1, 2),))
    assert wb_left((1, 2), [x, x]).operad_name == "assoc"

"""Operad-resolution layer: relation-by-relation checks of the rewriting
system, confluence, the counit, prime decomposition, and filtration."""

from fractions import Fraction as F
from random import Random

import pytest

from operad_forge.bv import (
    BVPoint,
    bv_act,
    bv_compose,
    bv_decompose,
    bv_filtration,
    bv_is_prime,
    bv_normalize,
    bv_prime_components,
    bv_reassemble,
    bv_unit,
    iota,
    mu,
    raw_bv,
    x_cell_membership,
)
from operad_forge.operads import (
    AssocOperad,
    EndOperad,
    FreeTruncOperad,
    identity_perm,
    operad_by_name,
    perm_compose,
)
from operad_forge.sampling import random_bv, random_perm
from operad_forge.trees import PlanarTree, Tree, corolla

A = AssocOperad()


def test_unit_corolla_is_normal():
    u = bv_unit(A)
    assert u.is_corolla and u.labels == (A.unit(),)
    assert bv_normalize(u) == u


def test_relation_unit_vertex_deleted():
    # a unit bivalent vertex over the root of a corolla disappears
    shape = PlanarTree((PlanarTree((None, None)),))
    raw = raw_bv(A, shape, (A.unit(), (2, 1)), (F(1, 3),))
    assert bv_normalize(raw) == iota(A, (2, 1))


@pytest.mark.parametrize("t", [0.5, "1/2"])
def test_an_edge_length_must_be_an_exact_rational(t):
    # as ``raw_wb`` refuses a height: a float would be kept and written as
    # ``0.5``, and a string would escape the range check as a ``TypeError``
    shape = PlanarTree((PlanarTree((None, None)), None))
    with pytest.raises(
        ValueError, match=f"^edge parameter {t!r} is not an int or a Fraction$"
    ):
        raw_bv(A, shape, ((1, 2), (2, 1)), (t,))
    for exact in (1, F(1)), (0, F(0)), (F(1, 2), F(1, 2)):
        got, want = (bv_normalize(raw_bv(A, shape, ((1, 2), (2, 1)), (e,))) for e in exact)
        assert got == want and repr(got) == repr(want)


def test_relation_unit_vertex_merges_lengths_to_max():
    # x -[s]- unit -[t]- y collapses to x -[max(s,t)]- y
    shape = PlanarTree((PlanarTree((PlanarTree((None, None)),)), None))
    for s, t in ((F(1, 4), F(3, 4)), (F(3, 4), F(1, 4))):
        raw = raw_bv(A, shape, ((1, 2), A.unit(), (2, 1)), (s, t))
        direct = raw_bv(
            A,
            PlanarTree((PlanarTree((None, None)), None)),
            ((1, 2), (2, 1)),
            (max(s, t),),
        )
        assert bv_normalize(raw) == bv_normalize(direct)


def test_relation_zero_edge_contracts_via_composition():
    shape = PlanarTree((PlanarTree((None, None)), None))
    raw = raw_bv(A, shape, ((1, 2), (2, 1)), (F(0),))
    assert bv_normalize(raw) == iota(A, A.compose((1, 2), 1, (2, 1)))


def test_relation_symmetric_action_absorbed():
    # two planar presentations of the same class normalize identically
    left = raw_bv(
        A,
        PlanarTree((PlanarTree((None, None)), None)),
        ((1, 2), (2, 1)),
        (F(1, 2),),
        (1, 2, 3),
    )
    right = raw_bv(
        A,
        PlanarTree((None, PlanarTree((None, None)))),
        (A.act((1, 2), (2, 1)), (2, 1)),
        (F(1, 2),),
        (3, 1, 2),
    )
    assert bv_normalize(left) == bv_normalize(right)


def test_normalize_idempotent_and_confluent():
    rng = Random(21)
    for op in (A, EndOperad(2)):
        for _ in range(80):
            p = random_bv(rng, op)
            forms = {
                repr(bv_normalize(p, Random(s) if s else None))
                for s in (0, 5, 17)
            }
            assert len(forms) == 1
            q = bv_normalize(p)
            assert bv_normalize(q) == q


def test_mu_iota_section_exhaustive():
    for n in range(1, 5):
        for w in A.elements(n):
            assert mu(iota(A, w)) == w


def _random_raw(rng, op, **kwargs):
    """A random raw point of ``op``.  A free operad has no arity-0 elements
    and a bounded arity, so its points have no leafless vertex and at most
    that many inputs (then every composite in them is within the bound)."""
    if not isinstance(op, FreeTruncOperad):
        return random_bv(rng, op, **kwargs)
    while True:
        x = random_bv(rng, op, min_arity=1, **kwargs)
        if x.arity <= op.max_supported_arity:
            return x


def test_mu_is_an_operad_map():
    # the facts that let mu_tilde fold the labels' images: mu is equivariant,
    # multiplicative, and unchanged by normalization
    for name in ("assoc", "com", "end:2", "free:a=2,b=3:4"):
        op = operad_by_name(name)
        bound = getattr(op, "max_supported_arity", None)
        rng = Random(8)
        for _ in range(120):
            raw = _random_raw(rng, op)
            x = bv_normalize(raw)
            image = mu(x)  # cached on x before x is acted on
            assert mu(raw) == image
            y = bv_normalize(_random_raw(rng, op, max_vertices=2))
            sigma = random_perm(rng, x.arity)
            assert mu(bv_act(x, sigma)) == op.act(image, sigma)
            assert mu(bv_act(raw, sigma)) == op.act(image, sigma)
            if x.arity >= 1 and (bound is None or x.arity + y.arity - 1 <= bound):
                i = rng.randint(1, x.arity)
                assert mu(bv_compose(x, i, y)) == op.compose(image, i, mu(y))


def test_mu_is_computed_once_per_point(monkeypatch):
    calls = 0
    original = AssocOperad.compose

    def counted(self, *args):
        nonlocal calls
        calls += 1
        return original(self, *args)

    monkeypatch.setattr(AssocOperad, "compose", counted)
    shape = PlanarTree((PlanarTree((None, None)), PlanarTree((None, None))))
    raw = raw_bv(A, shape, ((2, 1), (1, 2), (2, 1)), (F(1, 3), F(1, 2)), (3, 1, 4, 2))
    x = bv_normalize(raw)
    for point in (raw, x):
        before = calls
        first = mu(point)
        assert calls == before + 2  # one per inner edge
        assert mu(point) == first and calls == before + 2


def test_compose_unit_laws():
    rng = Random(4)
    u = bv_unit(A)
    for _ in range(60):
        x = bv_normalize(random_bv(rng, A))
        assert bv_compose(u, 1, x) == x
        for i in range(1, x.arity + 1):
            assert bv_compose(x, i, u) == x


def test_prime_components_and_roundtrip():
    rng = Random(30)
    found = 0
    while found < 60:
        x = bv_normalize(random_bv(rng, A))
        comps = bv_prime_components(x)
        for c in comps:
            assert bv_is_prime(c)
        if not bv_is_prime(x):
            found += 1
            assert bv_reassemble(bv_decompose(x)) == x


def test_composition_creates_boundary_edge():
    x = iota(A, (2, 1))
    y = iota(A, (1, 2))
    comp = bv_compose(x, 1, y)
    assert not bv_is_prime(comp)
    comps = bv_prime_components(comp)
    # two corolla factors; the canonical presentation may redistribute the
    # leaf permutation between them, so compare through the counit
    assert len(comps) == 2 and all(c.is_corolla for c in comps)
    assert bv_reassemble(bv_decompose(comp)) == comp
    # components carry normalized words; the outer word reconnects them
    mus = [mu(c) for c in comps]
    assert any(
        A.act(A.compose(a, i, b), comp.tree.labels) == mu(comp)
        for a in mus for b in mus for i in range(1, len(a) + 1)
    )


def test_filtration_monotone_and_tight():
    rng = Random(14)
    for _ in range(80):
        x = bv_normalize(random_bv(rng, A))
        k = max((c.geometric_inputs for c in bv_prime_components(x)), default=0)
        assert bv_filtration(x, k)
        assert bv_filtration(x, k + 1)
        if k > 0:
            assert not bv_filtration(x, k - 1)


def test_x_cell_membership_on_raw_data():
    shape = PlanarTree((PlanarTree((None, None)), None))
    interior = raw_bv(A, shape, ((1, 2), (2, 1)), (F(1, 2),))
    boundary = raw_bv(A, shape, ((1, 2), (2, 1)), (F(1),))
    assert x_cell_membership(interior, 3, 2) == "interior"
    assert x_cell_membership(boundary, 3, 2) == "boundary"
    assert x_cell_membership(interior, 4, 2) == "outside"


def test_validation_errors():
    with pytest.raises(ValueError):
        raw_bv(A, corolla(2), ((1, 2, 3),), ())  # arity mismatch
    with pytest.raises(ValueError):
        raw_bv(
            A,
            PlanarTree((PlanarTree((None,)),)),
            ((1,), (1,)),
            (F(2),),
        )  # parameter outside [0,1]
    with pytest.raises(IndexError):
        bv_compose(iota(A, (1, 2)), 3, bv_unit(A))


def test_act_is_a_right_action():
    rng = Random(77)
    for _ in range(60):
        x = bv_normalize(random_bv(rng, A))
        n = x.arity
        s = random_perm(rng, n)
        t = random_perm(rng, n)
        st = tuple(t[s[j] - 1] for j in range(n))
        assert bv_act(bv_act(x, s), t) == bv_act(x, st)
        assert bv_act(x, identity_perm(n)) == x


def _act_by_normalizing(x, sigma):
    """The definition of the action: relabel the leaf word, then normalize
    the relabeled raw point."""
    tree = Tree(x.tree.shape, perm_compose(x.tree.labels, sigma))
    return bv_normalize(BVPoint(x.operad, x.operad_name, tree, x.labels, x.params, False))


@pytest.mark.parametrize("name", ["assoc", "com", "end:2", "free:a=2,b=3:4"])
def test_act_on_a_normal_form_only_re_presents(name, monkeypatch):
    # Relabeling the leaves of a normal form makes no redex, so the action
    # presents the new word without rewriting, and equals the definition.
    op = operad_by_name(name)
    rng = Random(91)
    cases = []
    for _ in range(150):
        raw = _random_raw(rng, op, max_vertices=6)
        x = bv_normalize(raw)
        sigma = random_perm(rng, x.arity)
        assert bv_act(raw, sigma) == _act_by_normalizing(raw, sigma)
        cases.append((x, sigma, _act_by_normalizing(x, sigma)))
    assert sum(x.n_vertices > 1 for x, _, _ in cases) >= 20
    assert sum(sigma != identity_perm(x.arity) for x, sigma, _ in cases) >= 40

    def no_rewriting(*args):
        raise AssertionError("a normal form was rewritten")

    monkeypatch.setattr(BVPoint, "_rewrite", staticmethod(no_rewriting))
    for x, sigma, want in cases:
        got = bv_act(x, sigma)
        assert got.canonical
        assert got == want and repr(got) == repr(want)
        assert got.order_key == want.order_key


@pytest.mark.parametrize(
    "sigma", [(2, 1, 3, 4), (2, 1), (2, 2, 1), (0, 1, 2), (1, 2, 4), ()]
)
def test_act_refuses_a_sigma_that_is_not_a_permutation(sigma):
    x = iota(A, (2, 1, 3))
    raw = raw_bv(A, corolla(3), ((2, 1, 3),), ())
    for point in (x, raw):
        with pytest.raises(ValueError, match="not a permutation of 1..3"):
            bv_act(point, sigma)

"""The engine trusts a point flagged canonical: it is a normal form.  Here
every normal form is checked again through the raw constructors, and every
shortcut that trusts one is checked against the slow path it skips.  Only
the raw constructors validate, so every point and every working form the
engine hands to a normalizer is checked here too."""

import sys
from fractions import Fraction as F
from random import Random

import pytest

from operad_forge import selftest
from operad_forge.bv import BVPoint, bv_act, bv_normalize, iota, raw_bv
from operad_forge.operads import (
    AssocOperad,
    ComOperad,
    EndOperad,
    identity_perm,
    operad_by_name,
)
from operad_forge.sampling import (
    random_bv,
    random_bv_of_arity,
    random_element,
    random_fraction,
    random_perm,
    random_wb,
)
from operad_forge.trees import (
    Decomposition,
    PlanarTree,
    corolla,
    from_nodes,
    graft,
    normal,
)
from operad_forge.wb import (
    WBPoint,
    raw_wb,
    wb_act,
    wb_decompose,
    wb_normalize,
    wb_reassemble,
    wb_trivial,
)

FREE = operad_by_name("free:a=2,b=3:4")
OPERADS = [AssocOperad(), ComOperad(), EndOperad(2), FREE]


def _normal_forms(op, seed, n=150):
    """``n`` normalized random points of each resolution; draws the
    truncated free operad refuses (an arity past its bound) are skipped."""
    rng = Random(seed)
    min_arity = 0 if op.elements(0) else 1
    bvs, wbs = [], []
    while len(bvs) < n:
        try:
            bvs.append(bv_normalize(random_bv(rng, op, min_arity=min_arity)))
        except ValueError:
            continue
    while len(wbs) < n:
        try:
            p = random_wb(rng, op, max_main_vertices=4, min_arity=min_arity)
            wbs.append(wb_normalize(p))
        except ValueError:
            continue
    return bvs, wbs


@pytest.mark.parametrize("op", OPERADS, ids=lambda o: o.name)
def test_normal_forms_revalidate_through_the_raw_constructors(op):
    """Arities, parameter ranges, height monotonicity and the leaf word
    being a permutation all hold on what the normalizers build."""
    bvs, wbs = _normal_forms(op, 81)
    for y in wbs:
        assert y.canonical
        raw_wb(op, y.tree.shape, y.labels, y.heights, y.tree.labels)
        bvs.extend(y.labels)
    for x in bvs:
        assert x.canonical
        raw_bv(op, x.tree.shape, x.labels, x.params, x.tree.labels)


def _untrusted(x):
    """``x`` flagged not canonical, so that acting on it takes the
    working-form path: rewrite, then present."""
    if isinstance(x, BVPoint):
        return BVPoint(x.operad, x.operad_name, x.tree, x.labels, x.params, False)
    return WBPoint(x.operad, x.operad_name, x.tree, x.heights, x.labels, False)


@pytest.mark.parametrize("op", OPERADS, ids=lambda o: o.name)
def test_identity_action_returns_the_normal_form(op):
    bvs, wbs = _normal_forms(op, 82)
    for x in bvs:
        ident = identity_perm(x.arity)
        assert bv_act(x, ident) is x
        raw = _untrusted(x)
        for slow in (bv_normalize(raw), bv_act(raw, ident)):
            assert slow == x and repr(slow) == repr(x)
    for y in wbs:
        ident = identity_perm(y.arity)
        assert wb_act(y, ident) is y
        raw = _untrusted(y)
        for slow in (wb_normalize(raw), wb_act(raw, ident)):
            assert slow == y and repr(slow) == repr(y)


def _one_vertex_normal_forms(op, rng, per_arity=40):
    """Random one-vertex normal forms of each resolution at arities 0-4: an
    operad label or a normalized ``bv`` label with a random leaf word, and a
    ``wb`` label at a random height and at one inside ]0,1[ (0 and 1
    collapse it).  Arities the operad has no element of are skipped."""
    min_arity = 0 if op.elements(0) else 1
    bvs, wbs = [], []
    for n in range(5):
        for _ in range(per_arity):
            word = random_perm(rng, n)
            try:
                a = random_element(rng, op, n)
                label = bv_normalize(random_bv_of_arity(rng, op, n, 3, min_arity))
            except ValueError:
                continue
            bvs += [iota(op, a), bv_normalize(raw_bv(op, corolla(n), (a,), (), word))]
            for h in (random_fraction(rng), random_fraction(rng, endpoints=False)):
                wbs.append(wb_normalize(raw_wb(op, corolla(n), (label,), (h,), word)))
    assert all(len(x.labels) == 1 and x.canonical for x in bvs + wbs)
    return bvs, wbs


@pytest.mark.parametrize("op", OPERADS, ids=lambda o: o.name)
def test_one_vertex_action_matches_the_working_form(op, monkeypatch):
    """A one-vertex normal form is acted on through its label alone; the
    same point flagged not canonical is acted on through the working form,
    its ``bv`` labels too, and both agree in ``==`` and ``repr``, by the
    identity, by a random permutation, and in refusing a non-permutation
    with the same text."""
    bvs, wbs = _one_vertex_normal_forms(op, Random(83))
    assert sum(x.arity == 4 for x in bvs) >= 40 and sum(y.arity == 4 for y in wbs) >= 40
    assert sum(y.labels[0].n_vertices > 1 for y in wbs) >= 80
    rng = Random(84)
    cases = [(act, x, sigma)
             for act, points in ((bv_act, bvs), (wb_act, wbs)) for x in points
             for sigma in (identity_perm(x.arity), random_perm(rng, x.arity),
                           (1,) * (x.arity + 1), tuple(range(2, x.arity + 2)))]
    fast = []
    for act, x, sigma in cases:
        try:
            fast.append(act(x, sigma))
        except ValueError as e:
            fast.append(str(e))
    wb_module = sys.modules["operad_forge.wb"]
    monkeypatch.setattr(wb_module, "bv_act", lambda x, sigma: bv_act(_untrusted(x), sigma))
    for (act, x, sigma), got in zip(cases, fast):
        try:
            want = act(_untrusted(x), sigma)
        except ValueError as e:
            assert got == str(e) and "is not a permutation" in got
            continue
        assert got.canonical and got == want and repr(got) == repr(want)
        if sigma == identity_perm(x.arity):
            assert got is x


@pytest.mark.parametrize("op", OPERADS, ids=lambda o: o.name)
def test_iota_is_the_normalized_corolla(op):
    for n in range(4):
        for a in op.elements(n) or []:
            want = bv_normalize(raw_bv(op, corolla(n), (a,), ()))
            got = iota(op, a)
            assert got == want and repr(got) == repr(want)
            assert got.canonical


def test_iota_canonicalizes_a_free_element():
    a = ("a", ("l", 3), ("a", ("l", 2), ("l", 1)))
    assert FREE.decode(FREE.encode(a)) != a  # not in canonical order
    want = bv_normalize(raw_bv(FREE, corolla(3), (a,), ()))
    got = iota(FREE, a)
    assert got == want and repr(got) == repr(want)
    assert got.labels == (FREE.decode(FREE.encode(a)),)


def test_raw_bv_stores_a_free_label_in_canonical_form():
    # caller data enters through ``raw_bv``, which stores each label as
    # ``Operad.canonical`` of it (for ``free``, its identity action), so
    # every label the presentation sees is canonical
    a = ("a", ("l", 3), ("a", ("l", 2), ("l", 1)))
    x = raw_bv(FREE, corolla(3), (a,), ())
    assert x.labels == (FREE.decode(FREE.encode(a)),) != (a,)
    assert not x.canonical and bv_normalize(x).labels == x.labels


def test_wb_reassemble_checks_a_given_word():
    _, wbs = _normal_forms(AssocOperad(), 83)
    y = next(y for y in wbs if y.arity >= 2 and y.n_main_vertices >= 2)
    d = wb_decompose(y)
    assert wb_reassemble(d) == y
    for word in (
        (1,) * y.arity,
        tuple(range(1, y.arity)),
        tuple(range(1, y.arity + 2)),
        tuple(range(2, y.arity + 2)),
    ):
        with pytest.raises(ValueError):
            wb_reassemble(Decomposition(d.shape, d.components, word))


def test_wb_reassemble_checks_the_word_of_the_trivial_point():
    op = AssocOperad()
    t = wb_trivial(op)
    assert wb_decompose(t) == Decomposition(corolla(1), (t,), (1,))
    assert wb_reassemble(Decomposition(corolla(1), (t,), (1,))) == t
    with pytest.raises(ValueError):
        wb_reassemble(Decomposition(corolla(1), (t,), (1, 2)))


def _stack(op, low, high, top_op=None):
    """An arity-2 corolla at height ``low`` with an arity-2 corolla at
    height ``high`` (over ``top_op``, by default ``op``) grafted on its
    first input, reassembled from these two pieces."""
    top_op = top_op or op
    bottom = raw_wb(op, corolla(2), (iota(op, op.elements(2)[0]),), (low,))
    top = raw_wb(top_op, corolla(2), (iota(top_op, top_op.elements(2)[0]),), (high,))
    shape = PlanarTree((corolla(2), None))
    return wb_reassemble(Decomposition(shape, (bottom, top), (1, 2, 3)))


def test_wb_reassemble_refuses_pieces_out_of_height_order():
    op = AssocOperad()
    want = wb_normalize(raw_wb(
        op, graft(corolla(2), 1, corolla(2)), (iota(op, (1, 2)),) * 2,
        (F(0), F(1, 2)),
    ))
    assert _stack(op, F(0), F(1, 2)) == want
    with pytest.raises(ValueError, match="monotonicity"):
        _stack(op, F(1), F(1, 2))
    with pytest.raises(ValueError, match="operad mismatch"):
        _stack(op, F(0), F(1, 2), ComOperad())


def _revalidating(monkeypatch):
    """Wrap ``bv_normalize`` and ``wb_normalize``, and the working-form
    normalizer ``trees.normal`` that the grafts and cuts call, wherever a
    module of the package binds them, so that each input (and, for a
    bimodule point, each of its labels) is rebuilt through the raw
    constructors first; a working form is read back with ``from_nodes`` and
    checked as a point of the class ``normal`` is run for."""
    seen = {"bv": 0, "wb": 0, "bv root": 0, "wb root": 0}

    def bv_check(x):
        raw_bv(x.operad, x.tree.shape, x.labels, x.params, x.tree.labels)

    def wb_check(op, shape, labels, heights, word):
        raw_wb(op, shape, labels, heights, word)
        for x in labels:
            bv_check(x)

    def bv_checked(x, *args, **kwargs):
        seen["bv"] += 1
        bv_check(x)
        return bv_normalize(x, *args, **kwargs)

    def wb_checked(y, *args, **kwargs):
        seen["wb"] += 1
        wb_check(y.operad, y.tree.shape, y.labels, y.heights, y.tree.labels)
        return wb_normalize(y, *args, **kwargs)

    def root_checked(cls, op, root, *args, **kwargs):
        shape, labels, ts, word = from_nodes(root)
        if cls is BVPoint:
            seen["bv root"] += 1
            assert ts[0] is None
            raw_bv(op, shape, labels, ts[1:], word)
        else:
            assert cls is WBPoint
            seen["wb root"] += 1
            wb_check(op, shape, labels, ts, word)
        return normal(cls, op, root, *args, **kwargs)

    wrappers = (
        (bv_normalize, bv_checked), (wb_normalize, wb_checked), (normal, root_checked),
    )
    for name, module in list(sys.modules.items()):
        if module is not None and name.split(".")[0] == "operad_forge":
            for attr, value in list(vars(module).items()):
                for original, wrapper in wrappers:
                    if value is original:
                        monkeypatch.setattr(module, attr, wrapper)
    return seen


@pytest.mark.parametrize("criterion", [
    selftest.criterion_laws,
    selftest.criterion_roundtrip,
    selftest.criterion_alpha_laws,
    selftest.criterion_deloop,
], ids=lambda c: c.__name__)
def test_engine_built_points_revalidate(monkeypatch, criterion):
    """The points and working forms that ``bv_compose``, ``bv_act``, the
    cuts of ``bv_decompose``, ``wb_left``, ``wb_right``, ``wb_act`` and the
    band cuts build pass the raw constructors'
    checks; under ``criterion_laws`` the grafts hand their working forms to
    both normalizers."""
    seen = _revalidating(monkeypatch)
    result = criterion(Random(13), scale=0.05)
    assert result.ok, result.line
    assert seen["bv"] > 0 and seen["wb"] > 0
    if criterion is selftest.criterion_laws:
        assert seen["bv root"] > 0 and seen["wb root"] > 0

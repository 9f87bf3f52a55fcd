"""Mapping layer: loops of resolution maps, the delooping, the interval
algebra action, subdivision, truncation, and the validators (including the
deliberately broken kernels).  Worked closed-form evaluations are asserted
against hand-assembled right-hand sides."""

from collections import Counter
from fractions import Fraction as F
from random import Random

import pytest

from operad_forge import mapping
from operad_forge.bv import bv_compose, bv_normalize, iota, mu, raw_bv
from operad_forge.mapping import (
    BimodMapElement,
    TruncationError,
    alpha,
    assoc_reversal_eta,
    constant_loop,
    end_conjugation_eta,
    eta_mu_tilde,
    loop_alpha,
    multi_compose,
    mutant_bimod,
    mutant_multiplicative_loop,
    mutant_unit_loop,
    rescale,
    validate_bimodule_map,
    validate_loop,
    window_loop,
    xi,
    xi_k,
)
from operad_forge.operads import (
    AssocOperad,
    CubeConfig,
    EndOperad,
    act_cubes,
    compose_cubes,
    identity_eta,
    operad_by_name,
    unit_cube,
    validate_eta,
)
from operad_forge.sampling import (
    random_bv,
    random_cubes,
    random_element,
    random_fraction,
    random_perm,
    random_wb,
)
from operad_forge.selftest import xi_by_splitting
from operad_forge.trees import Node, PlanarTree, corolla, planar_trees, to_nodes
from operad_forge.wb import (
    is_trivial_subpoint,
    mu_tilde,
    raw_wb,
    subdivide,
    wb_filtration,
    wb_normalize,
    wb_trivial,
)

A = AssocOperad()
E = EndOperad(2)
ETA_A = identity_eta(A)
ETA_E = identity_eta(E)


@pytest.fixture(scope="module")
def samples():
    rng = Random(7)
    return {
        "bv": [bv_normalize(random_bv(rng, A)) for _ in range(40)],
        "wb": [wb_normalize(random_wb(rng, A)) for _ in range(40)],
        "bvE": [bv_normalize(random_bv(rng, E, max_arity=2)) for _ in range(25)],
        "wbE": [
            wb_normalize(random_wb(rng, E, max_main_arity=2)) for _ in range(25)
        ],
    }


def test_endomorphism_kernels_are_operad_maps():
    assert validate_eta(assoc_reversal_eta(), max_arity=3).ok
    assert validate_eta(end_conjugation_eta(2), max_arity=2).ok


def test_constant_loop_and_basepoint_map(samples):
    assert validate_loop(constant_loop(ETA_A), samples["bv"]).ok
    assert validate_bimodule_map(eta_mu_tilde(ETA_A), samples["wb"]).ok


class _Shown(F):
    """A ``Fraction`` subclass with its own text, which a loop reads as the
    plain ``Fraction`` it equals."""

    def __str__(self):
        return "shown"


def test_loop_times_are_read_as_plain_fractions():
    seen = []
    g = mapping.LoopElement(ETA_A, lambda x, t: seen.append(t) or mu(x), "probe")
    x = iota(A, (2, 1))
    for t, want in ((0, F(0)), (1, F(1)), (F(2, 2), F(1)), (_Shown(1, 3), F(1, 3)),
                    (0.5, F(1, 2)), ("1/4", F(1, 4))):
        assert g(x, t) == (2, 1)
        assert seen[-1] == want and type(seen[-1]) is F
    for t, text in ((-1, "-1"), (2, "2"), (F(-1, 3), "-1/3"), (F(4, 3), "4/3"),
                    (_Shown(4, 3), "4/3"), (_Shown(-1, 3), "-1/3")):
        with pytest.raises(ValueError, match=f"^time {text} outside \\[0,1\\]$"):
            g(x, t)
    assert len(seen) == 6


def test_window_loops_satisfy_loop_laws(samples):
    gw = window_loop(ETA_A, assoc_reversal_eta())
    assert validate_loop(gw, samples["bv"]).ok
    gE = window_loop(ETA_E, end_conjugation_eta(2), (F(1, 4), F(3, 4)))
    assert validate_loop(gE, samples["bvE"]).ok


def test_mutants_are_flagged_with_witnesses(samples):
    r = validate_loop(mutant_unit_loop(ETA_E), samples["bvE"])
    assert not r.ok and any(v.law == "unit" for v in r.violations)
    assert r.violations[0].witness
    corollas = [iota(A, (2, 1)), iota(A, (1, 3, 2))] * 20
    r = validate_loop(
        mutant_multiplicative_loop(ETA_A, assoc_reversal_eta()), corollas
    )
    assert not r.ok and any(v.law == "multiplicativity" for v in r.violations)
    interior = [
        wb_normalize(raw_wb(A, corolla(2), (iota(A, (2, 1)),), (F(1, 2),)))
    ] * 6
    r = validate_bimodule_map(
        mutant_bimod(ETA_A, assoc_reversal_eta()), samples["wb"] + interior
    )
    assert not r.ok and r.violations[0].witness


@pytest.mark.parametrize("truncation", [None, 2])
def test_bimodule_validator_reuses_the_sample_images(samples, truncation, monkeypatch):
    # The left-action pairs, checked last, reuse the images of the samples
    # from the first loop, so the kernel sees no sample once the first
    # ``wb_left`` is built.  A sample outside the truncation never reaches
    # the kernel: it is refused again in each pair, which is not counted.
    points = samples["wb"]
    left = {"on": False}
    late = []

    def kernel(y):
        if left["on"] and any(y is x for x in points):
            late.append(y)
        return ETA_A(mu_tilde(y))

    def marked(*args, original=mapping.wb_left):
        left["on"] = True
        return original(*args)

    monkeypatch.setattr(mapping, "wb_left", marked)
    report = validate_bimodule_map(BimodMapElement(ETA_A, kernel, "f", truncation), points)
    assert report.ok and left["on"] and late == []
    if truncation is not None:
        outside = [not wb_filtration(y, truncation) for y in points]
        assert any(a or b for a, b in zip(outside, outside[1:]))
        genuine = validate_bimodule_map(eta_mu_tilde(ETA_A), points)
        assert report.checked < genuine.checked


def test_subdivide_partitions_and_reassembles():
    rng = Random(19)
    for _ in range(100):
        y = wb_normalize(random_wb(rng, A))
        c = random_cubes(rng, rng.randint(1, 3))
        gap_bands, cube_bands = subdivide(y, c)
        total = sum(
            p.n_main_vertices
            for band in gap_bands + cube_bands
            for p in band
            if not is_trivial_subpoint(p)
        )
        expect = 0 if is_trivial_subpoint(y) else y.n_main_vertices
        assert total == expect
        # the non-trivial sub-points carry exactly the (height, label) pairs
        # of ``y``, and each band fills the inputs of the band below
        pairs = Counter(
            (t, a)
            for band in gap_bands + cube_bands
            for p in band
            if not is_trivial_subpoint(p)
            for t, a in zip(p.heights, p.labels)
        )
        assert pairs == (Counter() if is_trivial_subpoint(y)
                         else Counter(zip(y.heights, y.labels)))
        bands = [gap_bands[0]]
        for cube, gap in zip(cube_bands, gap_bands[1:]):
            bands += (cube, gap)
        assert len(bands[0]) == 1
        for below, above in zip(bands, bands[1:]):
            assert len(above) == sum(p.arity for p in below)
        assert sum(p.arity for p in bands[-1]) == y.arity


def test_alpha_unit_law(samples):
    fw = xi(window_loop(ETA_A, assoc_reversal_eta()))
    f0 = eta_mu_tilde(ETA_A)
    for y in samples["wb"]:
        for f in (f0, fw):
            assert alpha(unit_cube(), [f])(y) == f(y)


def test_xi_of_constant_loop_is_basepoint_map(samples):
    g0 = constant_loop(ETA_A)
    f0 = eta_mu_tilde(ETA_A)
    for y in samples["wb"]:
        assert xi(g0)(y) == f0(y) == ETA_A(mu_tilde(y))


def test_xi_split_choice_independence():
    rng = Random(23)
    gw = window_loop(ETA_A, assoc_reversal_eta())
    choosers = [lambda es: es[0], lambda es: es[-1], lambda es: es[len(es) // 2]]
    for _ in range(40):
        y = wb_normalize(random_wb(rng, A, max_main_vertices=4))
        value = xi(gw)(y)
        assert all(xi_by_splitting(gw, y, ch) == value for ch in choosers)


def test_xi_produces_valid_bimodule_maps(samples):
    gw = window_loop(ETA_A, assoc_reversal_eta())
    assert validate_bimodule_map(xi(gw), samples["wb"]).ok
    gE = window_loop(ETA_E, end_conjugation_eta(2), (F(1, 4), F(3, 4)))
    assert validate_bimodule_map(xi(gE), samples["wbE"]).ok


def test_xi_commutes_with_the_interval_algebra(samples):
    rng = Random(29)
    for n in (1, 2, 3):
        c = random_cubes(rng, n)
        gs = [
            window_loop(
                ETA_A, assoc_reversal_eta(), (F(j + 1, n + 2), F(j + 2, n + 2))
            )
            for j in range(n)
        ]
        ga = loop_alpha(c, gs)
        assert validate_loop(ga, samples["bv"][:20]).ok
        fa = alpha(c, [xi(g) for g in gs])
        fxi = xi(ga)
        for y in samples["wb"][:20]:
            assert fxi(y) == fa(y)


def test_alpha_equivariance_and_substitution(samples):
    rng = Random(37)
    fw = xi(window_loop(ETA_A, assoc_reversal_eta()))
    f0 = eta_mu_tilde(ETA_A)
    for _ in range(15):
        c = random_cubes(rng, 2)
        fs = [fw, f0]
        sigma = random_perm(rng, 2)
        y = samples["wb"][rng.randrange(len(samples["wb"]))]
        lhs = alpha(act_cubes(c, sigma), [fs[sigma[j] - 1] for j in range(2)])
        assert lhs(y) == alpha(c, fs)(y)
        inner = random_cubes(rng, 2)
        big = compose_cubes(c, 1, inner)
        assert alpha(big, [fw, f0, f0])(y) == alpha(
            c, [alpha(inner, [fw, f0]), f0]
        )(y)


def test_truncated_delooping_rejects_high_stages():
    rng = Random(43)
    gw = window_loop(ETA_A, assoc_reversal_eta())
    gk = xi_k(gw, 3)
    full = xi(gw)
    hit = 0
    for _ in range(60):
        y = wb_normalize(random_wb(rng, A, max_main_arity=4))
        try:
            assert gk(y) == full(y)
        except TruncationError:
            hit += 1
    assert hit > 0


# ---------------------------------------------------------------------------
# Worked closed-form evaluations
# ---------------------------------------------------------------------------


def test_delooping_two_level_closed_form():
    """Main tree with the root and its first child at one height and the
    second child higher: the delooping evaluates to
    g(root o_1 child1; t_r) o_3 g(child2; t_2), assembled by hand."""
    rng = Random(11)
    g = window_loop(ETA_A, assoc_reversal_eta())
    for _ in range(30):
        xr = tuple(rng.sample((1, 2), 2))
        x1 = tuple(rng.sample((1, 2), 2))
        x2 = tuple(rng.sample((1, 2, 3), 3))
        tr, t2 = F(2, 5), F(4, 5)
        shape = PlanarTree(
            (PlanarTree((None, None)), PlanarTree((None, None, None)))
        )
        y = raw_wb(A, shape, (iota(A, xr), iota(A, x1), iota(A, x2)), (tr, tr, t2))
        got = xi(g)(wb_normalize(y))
        merged = bv_compose(iota(A, xr), 1, iota(A, x1))
        want = A.compose(g(merged, tr), 3, g(iota(A, x2), t2))
        assert got == want


def test_interval_action_closed_form_with_trivial_factor():
    """Six-vertex main tree against a two-cube configuration whose second
    band is crossed by an edge: the hand-assembled band product contains a
    trivial sub-point factor evaluating to the operad unit."""
    rng = Random(11)
    c1, c2 = (F(1, 8), F(3, 8)), (F(1, 2), F(7, 8))
    cfg = CubeConfig((c1, c2))
    t1, t2, t3, t4, t5, t6 = F(1, 4), F(7, 16), F(5, 8), F(3, 4), F(9, 16), F(15, 16)
    x4t = PlanarTree((None, None, None, None))
    x3t = PlanarTree((None, x4t))
    x6t = PlanarTree((None, None))
    x2t = PlanarTree((x3t, x6t))
    x5t = PlanarTree((None, None))
    shape = PlanarTree((x2t, x5t))
    labs = {
        name: tuple(rng.sample(range(1, ar + 1), ar))
        for name, ar in (
            ("x1", 2), ("x2", 2), ("x3", 2), ("x4", 4), ("x5", 2), ("x6", 2)
        )
    }
    # preorder: x1, x2, x3, x4, x6, x5
    labels = tuple(iota(A, labs[n]) for n in ("x1", "x2", "x3", "x4", "x6", "x5"))
    heights = (t1, t2, t3, t4, t6, t5)
    y = wb_normalize(raw_wb(A, shape, labels, heights))

    f0 = eta_mu_tilde(ETA_A)
    f1 = xi(window_loop(ETA_A, assoc_reversal_eta(), (F(1, 3), F(2, 3))))
    f2 = xi(window_loop(ETA_A, assoc_reversal_eta(), (F(1, 4), F(1, 2)), name="w2"))
    unit = A.unit()

    def hand_value(fa, fb):
        val = unit
        s1 = fa(rescale(raw_wb(A, corolla(2), (iota(A, labs["x1"]),), (t1,)), c1))
        val = multi_compose(A, val, [s1])
        val = multi_compose(A, val, [labs["x2"], unit])
        z = rescale(
            raw_wb(A, x3t, (iota(A, labs["x3"]), iota(A, labs["x4"])), (t3, t4)),
            c2,
        )
        s5 = fb(rescale(raw_wb(A, corolla(2), (iota(A, labs["x5"]),), (t5,)), c2))
        val = multi_compose(A, val, [fb(z), fb(wb_trivial(A)), s5])
        val = multi_compose(A, val, [unit] * 5 + [labs["x6"]] + [unit, unit])
        return val

    for fa, fb in ((f0, f0), (f1, f2)):
        assert alpha(cfg, [fa, fb])(y) == hand_value(fa, fb)
        assert fb(wb_trivial(A)) == unit


def _node_fold(n, compose):
    """The recursive fold on the working form that ``trees.fold`` replaced:
    the label of the subtree at ``n`` with every edge contracted, the last
    slot first."""
    v = n.label
    for slot in range(len(n.kids), 0, -1):
        c = n.kids[slot - 1]
        if isinstance(c, Node):
            v = compose(v, slot, _node_fold(c, compose))
    return v


def _recorded(op, run):
    """``run()`` and the ``op.compose`` calls it makes, in order."""
    calls = []
    compose = op.compose

    def recording(x, i, y):
        calls.append((x, i, y))
        return compose(x, i, y)

    op.compose = recording
    try:
        return run(), calls
    finally:
        del op.compose


@pytest.mark.parametrize("name", ["assoc", "end:2", "free:a=2,b=3:4"])
def test_mu_mu_tilde_and_xi_compose_as_the_node_fold(name):
    # every planar tree with at most 4 vertices and 5 leaves that the
    # operad can label (the free operad has no arity-0 elements and a
    # bounded arity), with random labels, edge lengths, heights and word
    op = operad_by_name(name)
    bound = op.max_supported_arity
    rng = Random(29)
    g = constant_loop(identity_eta(op))
    shapes = [t for p in range(6) for v in range(1, 5) for t in planar_trees(p, v)
              if bound is None or p <= bound
              and all(0 < s.arity <= bound for s in t.subtrees)]
    assert len(shapes) == {"assoc": 4526, "end:2": 4526, "free:a=2,b=3:4": 337}[name]
    for shape in shapes:
        word = random_perm(rng, shape.n_leaves)
        labels = [random_element(rng, op, s.arity) for s in shape.subtrees]
        params = [random_fraction(rng) for _ in labels[1:]]
        x = raw_bv(op, shape, labels, params, word)
        want = _recorded(op, lambda: op.act(_node_fold(
            to_nodes(shape, labels, [None] + params, word), op.compose), word))
        assert _recorded(op, lambda: mu(x)) == want

        points = [iota(op, a) for a in labels]
        images = [mu(a) for a in points]
        heights = [F(1, 2)] * len(points)
        y = raw_wb(op, shape, points, heights, word)
        want = _recorded(op, lambda: op.act(_node_fold(
            to_nodes(shape, images, heights, word), op.compose), word))
        assert _recorded(op, lambda: mu_tilde(y)) == want
        assert _recorded(op, lambda: xi(g).kernel(y)) == want

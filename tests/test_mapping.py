"""Mapping layer: loops of resolution maps, the delooping, the interval
algebra action, subdivision, truncation, and the validators (including the
deliberately broken kernels).  Worked closed-form evaluations are asserted
against hand-assembled right-hand sides."""

from fractions import Fraction as F
from random import Random

import pytest

from operad_forge.bv import bv_compose, bv_normalize, iota, mu, raw_bv
from operad_forge.mapping import (
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
    unit_cube,
    validate_eta,
)
from operad_forge.sampling import random_bv, random_cubes, random_perm, random_wb
from operad_forge.selftest import xi_by_splitting
from operad_forge.trees import PlanarTree, corolla
from operad_forge.wb import (
    is_trivial_subpoint,
    mu_tilde,
    raw_wb,
    reassemble_bands,
    subdivide,
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
        assert reassemble_bands(A, gap_bands, cube_bands, word=y.tree.labels) == y


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

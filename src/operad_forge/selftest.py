"""The acceptance suite as a library: nine numbered criteria, each a pure
function of a seeded generator, returning a pass/fail result with a detail
string.  The test suite runs them at full scale and asserts; the CLI
``selftest`` command runs them (optionally scaled down by ``--scale``) and
reports one line per criterion.

Every expected value here comes from an independent oracle (a second
implementation, a generate-and-filter enumeration, or a hand-assembled
closed form) — never from the function under test.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product
from random import Random
from typing import Any, Callable, Optional

from .bv import (
    BVPoint,
    bv_act,
    bv_prime_components,
    bv_compose,
    bv_decompose,
    bv_filtration,
    bv_is_prime,
    bv_normalize,
    bv_reassemble,
    bv_unit,
    iota,
    mu,
    raw_bv,
)
from .cells import (
    UpsilonIndex,
    build_graph,
    census_size,
    enumerate_upsilon,
    h_membership,
    homotopy_H,
    max_vertices,
)
from .mapping import (
    alpha,
    assoc_reversal_eta,
    constant_loop,
    eta_mu_tilde,
    loop_alpha,
    multi_compose,
    mutant_bimod,
    mutant_multiplicative_loop,
    mutant_unit_loop,
    rescale,
    reversal_table,
    table_eta,
    validate_bimodule_map,
    validate_loop,
    window_loop,
    xi,
)
from .operads import (
    AssocOperad,
    ComOperad,
    CubeConfig,
    EndOperad,
    OperadMapEta,
    act_cubes,
    block_perm,
    compose_cubes,
    identity_eta,
    identity_perm,
    perm_inverse,
    unit_cube,
)
from .sampling import (
    random_bv,
    random_cubes,
    random_fraction,
    random_perm,
    random_wb,
)
from .trees import (
    Node,
    PlanarTree,
    corolla,
    enumerate_trees,
    leaf_slots,
    nodes_of,
    planar_trees,
    preorder,
)
from .values import Value
from .wb import (
    WBPoint,
    mu_tilde,
    raw_wb,
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

F = Fraction
_A = AssocOperad()
_COM = ComOperad()


class CriterionResult(Value):
    """One criterion's verdict (mutable, so unhashable)."""

    __slots__ = ("number", "name", "ok", "checked", "detail")
    __hash__ = None

    def __init__(
        self, number: int, name: str, ok: bool, checked: int, detail: str = ""
    ):
        self.number = number
        self.name = name
        self.ok = ok
        self.checked = checked
        self.detail = detail

    @property
    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        tail = f" — {self.detail}" if self.detail else ""
        return f"[{status}] criterion {self.number}: {self.name} ({self.checked} checks){tail}"


@cache
def _reversal() -> OperadMapEta:
    """Word reversal on ``_A`` as a table kernel, built once: the table
    holds every word up to arity 8 and draws no randomness."""
    return table_eta(_A, reversal_table(8), "rev")


def _scaled(base: int, scale: float) -> int:
    return max(1, round(base * scale))


def _random_heights(rng: Random, shape: PlanarTree, endpoints: bool = True) -> tuple:
    """Monotone random heights on the main vertices, drawn in preorder."""
    heights = [F(0)] * shape.n_vertices
    for v, (p, _s) in enumerate(shape.vertex_parents):
        lo = heights[p] if p >= 0 else F(0)
        heights[v] = random_fraction(rng, lo=lo, endpoints=endpoints)
    return tuple(heights)


# ---------------------------------------------------------------------------
# Criterion 1: rewriting confluence
# ---------------------------------------------------------------------------


def criterion_confluence(rng: Random, scale: float = 1.0) -> CriterionResult:
    checked = 0
    bad: list[str] = []
    per_op = _scaled(500, scale)
    for op in (AssocOperad(), EndOperad(2)):
        for _ in range(per_op):
            p = random_bv(rng, op)
            forms = {
                repr(bv_normalize(p, Random(s) if s else None))
                for s in (0, 11, 23, 47)
            }
            checked += 1
            if len(forms) != 1:
                bad.append(f"bv {p!r} -> {len(forms)} normal forms")
        for _ in range(per_op):
            q = random_wb(rng, op)
            forms = {
                repr(wb_normalize(q, Random(s) if s else None))
                for s in (0, 11, 23, 47)
            }
            checked += 1
            if len(forms) != 1:
                bad.append(f"wb {q!r} -> {len(forms)} normal forms")
    return CriterionResult(
        1, "rewriting confluence", not bad, checked, "; ".join(bad[:2])
    )


# ---------------------------------------------------------------------------
# Criterion 2: algebraic-law suites
# ---------------------------------------------------------------------------


def _iter_monotone_heights(shape: PlanarTree, grid):
    """All monotone height assignments from the grid."""
    parents = shape.vertex_parents

    def go(v: int, acc: tuple):
        if v == shape.n_vertices:
            yield acc
            return
        lo = acc[parents[v][0]] if parents[v][0] >= 0 else None
        for t in grid:
            if lo is None or t >= lo:
                yield from go(v + 1, acc + (t,))

    yield from go(0, ())


def _small_shapes(min_vertices: int, max_vertices: int) -> list[PlanarTree]:
    """The shapes with at most 3 leaves and no vertex of arity above 2, by
    vertex count, then leaf count."""
    return [
        shape
        for nv in range(min_vertices, max_vertices + 1)
        for nl in range(0, 4)
        for shape in planar_trees(nl, nv)
        if all(s.arity <= 2 for s in shape.subtrees)
    ]


def _com_bv_pool(max_vertices: int, grid) -> list[BVPoint]:
    out = []
    for shape in _small_shapes(1, max_vertices):
        labels = tuple(s.arity for s in shape.subtrees)
        for params in product(grid, repeat=shape.n_vertices - 1):
            out.append(bv_normalize(raw_bv(_COM, shape, labels, params)))
    return out


def _com_wb_pool(max_vertices: int, grid) -> list[WBPoint]:
    out = []
    for shape in _small_shapes(1, max_vertices):
        labels = tuple(iota(_COM, s.arity) for s in shape.subtrees)
        for heights in _iter_monotone_heights(shape, grid):
            out.append(wb_normalize(raw_wb(_COM, shape, labels, heights)))
    return out


def _check_bv_operad_laws(op, x, y, z, sigma, tau, bad):
    """Unit, equivariance, and (when y, z given) associativity of the
    resolution's operadic structure, compared slotwise."""
    n = x.arity
    u = bv_unit(op)
    for i in range(1, n + 1):
        if bv_compose(x, i, u) != x:
            bad.append(f"bv right-unit {x!r} slot {i}")
    if bv_compose(u, 1, x) != x:
        bad.append(f"bv left-unit {x!r}")
    if bv_act(bv_act(x, sigma), tau) != bv_act(
        x, tuple(tau[sigma[j] - 1] for j in range(n))
    ):
        bad.append(f"bv act-assoc {x!r} {sigma} {tau}")
    if y is not None and n >= 1:
        m = y.arity
        i = 1 + (sum(sigma) % n)
        inv = perm_inverse(sigma)
        lhs = bv_compose(bv_act(x, sigma), i, y)
        rhs = bv_act(
            bv_compose(x, inv[i - 1], y),
            block_perm(sigma, i, m),
        )
        if lhs != rhs:
            bad.append(f"bv equivariance {x!r} {y!r} slot {i}")
        if z is not None:
            p = z.arity
            if n >= 2:  # parallel: two distinct slots of x
                i2, j2 = 1, n
                lhs = bv_compose(bv_compose(x, i2, y), j2 + m - 1, z)
                rhs = bv_compose(bv_compose(x, j2, z), i2, y)
                if lhs != rhs:
                    bad.append(f"bv parallel-assoc {x!r} {y!r} {z!r}")
            if m >= 1:  # nested: z into a slot of y
                j3 = m
                lhs = bv_compose(bv_compose(x, i, y), i + j3 - 1, z)
                rhs = bv_compose(x, i, bv_compose(y, j3, z))
                if lhs != rhs:
                    bad.append(f"bv nested-assoc {x!r} {y!r} {z!r}")


def _check_wb_bimodule_laws(op, x, a, b, sigma, pool_by_arity, bad):
    """The bimodule axioms for the right and left actions on a point."""
    n = x.arity
    u = op.unit()
    for i in range(1, n + 1):
        if wb_right(x, i, u) != x:
            bad.append(f"wb right-unit {x!r} slot {i}")
    if wb_left(u, [x]) != x:
        bad.append(f"wb left-unit {x!r}")
    ma, mb = op.arity(a), op.arity(b)
    if n >= 1:
        i = 1 + (ma + mb) % n
        # right equivariance
        inv = perm_inverse(sigma)
        lhs = wb_right(wb_act(x, sigma), i, a)
        rhs = wb_act(
            wb_right(x, inv[i - 1], a),
            block_perm(sigma, i, ma),
        )
        if lhs != rhs:
            bad.append(f"wb right-equivariance {x!r} {a!r} slot {i}")
        # right-right nested
        if ma >= 1:
            j = ma
            lhs = wb_right(wb_right(x, i, a), i + j - 1, b)
            rhs = wb_right(x, i, op.compose(a, j, b))
            if lhs != rhs:
                bad.append(f"wb nested right {x!r} {a!r} {b!r}")
    if n >= 2:
        # right-right parallel at slots 1 < n
        lhs = wb_right(wb_right(x, 1, a), n + ma - 1, b)
        rhs = wb_right(wb_right(x, n, b), 1, a)
        if lhs != rhs:
            bad.append(f"wb parallel right {x!r} {a!r} {b!r}")
    # left laws need argument tuples matching a's arity
    xs = _pick_args(pool_by_arity, ma)
    if xs is not None:
        lx = wb_left(a, xs)
        # left-right compatibility: push b into one global input
        arities = [q.arity for q in xs]
        total = sum(arities)
        if total >= 1:
            s = 1 + (ma + mb) % total
            # locate the component owning global slot s
            j, local = 0, s
            while local > arities[j]:
                local -= arities[j]
                j += 1
            xs2 = list(xs)
            xs2[j] = wb_right(xs[j], local, b)
            if wb_right(lx, s, b) != wb_left(a, xs2):
                bad.append(f"wb left-right {a!r} slot {s}")
        # left-left: compose b into a first
        if ma >= 1 and _pick_args(pool_by_arity, mb) is not None:
            i = 1 + mb % ma
            ys = _pick_args(pool_by_arity, mb)
            args = list(xs[: i - 1]) + [wb_left(b, ys)] + list(xs[i:])
            lhs = wb_left(op.compose(a, i, b), xs[: i - 1] + ys + xs[i:])
            rhs = wb_left(a, args)
            if lhs != rhs:
                bad.append(f"wb left-left {a!r} {b!r} slot {i}")
        # left equivariance
        if ma >= 1:
            sig = tuple(range(ma, 0, -1))
            xs_p = [xs[sig[j] - 1] for j in range(ma)]
            block = multi_compose(_A, sig, [identity_perm(q.arity) for q in xs])
            lhs = wb_left(op.act(a, sig), list(xs))
            rhs = wb_act(wb_left(a, xs_p), block)
            if lhs != rhs:
                bad.append(f"wb left-equivariance {a!r}")


def _pick_args(pool_by_arity, m: int):
    out = []
    for j in range(m):
        bucket = pool_by_arity.get(j % 3)
        if not bucket:
            bucket = pool_by_arity.get(1)
        if not bucket:
            return None
        out.append(bucket[j % len(bucket)])
    return tuple(out)


def criterion_laws(rng: Random, scale: float = 1.0) -> CriterionResult:
    bad: list[str] = []
    checked = 0
    grid = (F(0), F(1, 2), F(1))

    # Exhaustive over the one-operation operad on the finite grid.
    bv_pool = _com_bv_pool(3, grid)
    bv_small = [p for p in bv_pool if p.n_vertices <= 2 and p.arity <= 2]
    for x in bv_pool:
        n = x.arity
        sigma = tuple(range(n, 0, -1))
        tau = sigma
        y = bv_small[checked % len(bv_small)] if bv_small else None
        z = bv_small[(checked * 7 + 3) % len(bv_small)] if bv_small else None
        _check_bv_operad_laws(_COM, x, y, z, sigma, tau, bad)
        checked += 1
    wb_pool = _com_wb_pool(3, grid)
    pool_by_arity: dict[int, list[WBPoint]] = {}
    for q in wb_pool:
        pool_by_arity.setdefault(q.arity, []).append(q)
    for x in wb_pool:
        a = 1 + checked % 2  # one-operation operad element = its arity
        b = 1 + (checked // 2) % 2
        sigma = tuple(range(x.arity, 0, -1))
        _check_wb_bimodule_laws(_COM, x, a, b, sigma, pool_by_arity, bad)
        checked += 1

    # Random samples over the symmetric-groups operad.
    n_rand = _scaled(500, scale)
    assoc_wb_by_arity: dict[int, list[WBPoint]] = {}
    for _ in range(40):
        q = wb_normalize(random_wb(rng, _A))
        assoc_wb_by_arity.setdefault(q.arity, []).append(q)
    for _ in range(n_rand):
        x = bv_normalize(random_bv(rng, _A))
        y = bv_normalize(random_bv(rng, _A, max_vertices=2))
        z = bv_normalize(random_bv(rng, _A, max_vertices=2))
        sigma = random_perm(rng, x.arity)
        tau = random_perm(rng, x.arity)
        _check_bv_operad_laws(_A, x, y, z, sigma, tau, bad)
        w = wb_normalize(random_wb(rng, _A))
        a = random_perm(rng, rng.randint(1, 3))
        b = random_perm(rng, rng.randint(1, 3))
        _check_wb_bimodule_laws(
            _A, w, a, b, random_perm(rng, w.arity), assoc_wb_by_arity, bad
        )
        checked += 2

    # Section property of the resolution counit, exhaustively to arity 4.
    for n in range(1, 5):
        for w in _A.elements(n):
            checked += 1
            if mu(iota(_A, w)) != w:
                bad.append(f"mu(iota({w})) != {w}")

    # The counits are structure maps on all samples.
    for _ in range(n_rand):
        x = bv_normalize(random_bv(rng, _A))
        y = bv_normalize(random_bv(rng, _A, max_vertices=2))
        i = rng.randint(1, max(1, x.arity))
        sigma = random_perm(rng, x.arity)
        checked += 1
        if x.arity >= 1 and mu(bv_compose(x, i, y)) != _A.compose(
            mu(x), i, mu(y)
        ):
            bad.append(f"mu not multiplicative at {x!r},{i},{y!r}")
        if mu(bv_act(x, sigma)) != _A.act(mu(x), sigma):
            bad.append(f"mu not equivariant at {x!r},{sigma}")
        q = wb_normalize(random_wb(rng, _A))
        a = random_perm(rng, rng.randint(1, 3))
        j = rng.randint(1, max(1, q.arity))
        tau = random_perm(rng, q.arity)
        checked += 1
        if q.arity >= 1 and mu_tilde(wb_right(q, j, a)) != _A.compose(
            mu_tilde(q), j, a
        ):
            bad.append(f"mu-tilde vs right action at {q!r},{j},{a}")
        if mu_tilde(wb_act(q, tau)) != _A.act(mu_tilde(q), tau):
            bad.append(f"mu-tilde vs symmetric action at {q!r},{tau}")
        m = len(a)
        xs = _pick_args(assoc_wb_by_arity, m)
        if xs is not None:
            if mu_tilde(wb_left(a, list(xs))) != multi_compose(
                _A, a, [mu_tilde(p) for p in xs]
            ):
                bad.append(f"mu-tilde vs left action at {a}")
    if mu(bv_unit(_A)) != _A.unit():
        bad.append("mu(unit) != unit")
    if mu_tilde(wb_gamma0(_COM, 0)) != 0:
        bad.append("mu-tilde on the arity-0 generator point")

    return CriterionResult(
        2, "algebraic-law suites", not bad, checked, "; ".join(bad[:2])
    )


# ---------------------------------------------------------------------------
# Criterion 3: prime/composite round-trip
# ---------------------------------------------------------------------------


def criterion_roundtrip(rng: Random, scale: float = 1.0) -> CriterionResult:
    bad: list[str] = []
    target = _scaled(300, scale)
    got_bv = got_wb = 0
    attempts = 0
    while (got_bv < target or got_wb < target) and attempts < 200 * target:
        attempts += 1
        if got_bv < target:
            x = bv_normalize(random_bv(rng, _A))
            if not bv_is_prime(x):
                got_bv += 1
                if bv_reassemble(bv_decompose(x)) != x:
                    bad.append(f"bv round-trip {x!r}")
        if got_wb < target:
            y = wb_normalize(random_wb(rng, _A))
            if not wb_is_prime(y):
                got_wb += 1
                if wb_reassemble(wb_decompose(y)) != y:
                    bad.append(f"wb round-trip {y!r}")
    if got_bv < target or got_wb < target:
        bad.append(f"only found {got_bv} bv / {got_wb} wb composites")
    return CriterionResult(
        3,
        "prime/composite round-trip",
        not bad,
        got_bv + got_wb,
        "; ".join(bad[:2]),
    )


# ---------------------------------------------------------------------------
# Criterion 4: filtration coherence + census
# ---------------------------------------------------------------------------


def _bv_stage(x: BVPoint) -> int:
    """Smallest filtration stage containing the point (by component data)."""
    return max((c.geometric_inputs for c in bv_prime_components(x)), default=0)


def _wb_stage(q: WBPoint) -> tuple[int, int]:
    """Smallest (k, l): k = max component geometric inputs, l = max auxiliary
    vertex count among the components realizing k."""
    comps = wb_prime_components(q)
    k = max((c.geometric_inputs for c in comps), default=0)
    l = max(
        (c.aux_vertex_count for c in comps if c.geometric_inputs == k),
        default=0,
    )
    return k, l


def _census_tree_oracle(k: int, l: int) -> int:
    """``len(enumerate_trees(k, l))`` counted, with no tree built: the
    indices whose main tree is a corolla, one per auxiliary tree."""
    return census_size(k, l) - census_size(k, l, True)


def _census_upsilon_oracle(k: int, l: int) -> int:
    out = 0
    for p in range(1, l + 1):
        for m in range(0, k + 1):
            for main in planar_trees(m, p):
                arities = [main.arity_of(v) for v in range(p)]

                def go(v: int, budget: int, acc: tuple) -> int:
                    if v == p:
                        idx = UpsilonIndex(main, acc)
                        return int(
                            idx.geometric_inputs == k
                            and idx.aux_vertex_count == l
                        )
                    total = 0
                    # leave at least one vertex for every later slot
                    for nv in range(1, budget - (p - v - 1) + 1):
                        for t in planar_trees(arities[v], nv):
                            total += go(v + 1, budget - nv, acc + (t,))
                    return total

                out += go(0, l, ())
    return out


def criterion_filtration(rng: Random, scale: float = 1.0) -> CriterionResult:
    bad: list[str] = []
    checked = 0
    n_rand = _scaled(300, scale)
    for _ in range(n_rand):
        x = bv_normalize(random_bv(rng, _A))
        kx = _bv_stage(x)
        checked += 1
        # monotone in k: true at the stage, at everything above, false below
        for k in range(kx, kx + 3):
            if not bv_filtration(x, k):
                bad.append(f"bv filtration not monotone at {x!r} k={k}")
        if kx > 0 and bv_filtration(x, kx - 1):
            bad.append(f"bv filtration stage not minimal at {x!r}")
        # closure under composition and the symmetric action
        y = bv_normalize(random_bv(rng, _A, max_vertices=2))
        if x.arity >= 1:
            comp = bv_compose(x, rng.randint(1, x.arity), y)
            if _bv_stage(comp) > max(kx, _bv_stage(y)):
                bad.append(f"bv stage grows under composition {x!r} {y!r}")
        if _bv_stage(bv_act(x, random_perm(rng, x.arity))) != kx:
            bad.append(f"bv stage not preserved by the action {x!r}")

        q = wb_normalize(random_wb(rng, _A))
        checked += 1
        kq, lq = _wb_stage(q)
        for k in range(kq, kq + 3):
            if not wb_filtration(q, k):
                bad.append(f"wb filtration not monotone in k at {q!r}")
        for l in range(lq, lq + 3):
            if not wb_filtration(q, max(kq, 1), l):
                bad.append(f"wb filtration not monotone in l at {q!r}")
        if lq > 0 and wb_filtration(q, max(kq, 1), lq - 1):
            bad.append(f"wb substage not minimal at {q!r}")
        a = random_perm(rng, rng.randint(1, 2))
        if q.arity >= 1:
            r = wb_right(q, rng.randint(1, q.arity), a)
            if _wb_stage(r)[0] > max(kq, len(a)):
                bad.append(f"wb stage grows under the right action {q!r}")
        if _wb_stage(wb_act(q, random_perm(rng, q.arity)))[0] != kq:
            bad.append(f"wb stage not preserved by the action {q!r}")

    # census against generate-and-filter oracles
    for k in range(1, 7):
        for l in range(1, 8 - k):
            checked += 1
            if len(enumerate_trees(k, l)) != _census_tree_oracle(k, l):
                bad.append(f"tree census mismatch at ({k},{l})")
            census = len(enumerate_upsilon(k, l))
            if census != _census_upsilon_oracle(k, l):
                bad.append(f"cell census mismatch at ({k},{l})")
            if census_size(k, l) != census:
                bad.append(f"cell census count mismatch at ({k},{l})")
    return CriterionResult(
        4, "filtration coherence", not bad, checked, "; ".join(bad[:2])
    )


# ---------------------------------------------------------------------------
# Criterion 5: interval-algebra action laws
# ---------------------------------------------------------------------------


def criterion_alpha_laws(rng: Random, scale: float = 1.0) -> CriterionResult:
    bad: list[str] = []
    checked = 0
    eta = identity_eta(_A)
    f0 = eta_mu_tilde(eta)
    fw = xi(window_loop(eta, _reversal(), name="w"))
    fv = xi(window_loop(eta, _reversal(), (F(1, 4), F(1, 2)), name="v"))
    stock = [f0, fw, fv]
    n_rand = _scaled(200, scale)
    for _ in range(n_rand):
        y = wb_normalize(random_wb(rng, _A))
        n = rng.randint(1, 3)
        c = random_cubes(rng, n)
        fs = [stock[rng.randrange(3)] for _ in range(n)]
        checked += 1
        # unit law
        f = stock[rng.randrange(3)]
        if alpha(unit_cube(), [f])(y) != f(y):
            bad.append(f"alpha unit law at {y!r}")
        # equivariance
        sigma = random_perm(rng, n)
        lhs = alpha(act_cubes(c, sigma), [fs[sigma[j] - 1] for j in range(n)])
        rhs = alpha(c, fs)
        if lhs(y) != rhs(y):
            bad.append(f"alpha equivariance at {c!r} {sigma}")
        # compatibility with substitution of configurations
        m = rng.randint(1, 2)
        d = random_cubes(rng, m)
        gs = [stock[rng.randrange(3)] for _ in range(m)]
        i = rng.randint(1, n)
        big = compose_cubes(c, i, d)
        inner = alpha(d, gs)
        lhs = alpha(big, fs[: i - 1] + gs + fs[i:])
        rhs = alpha(c, fs[: i - 1] + [inner] + fs[i:])
        if lhs(y) != rhs(y):
            bad.append(f"alpha substitution at {c!r} slot {i} {d!r}")
    return CriterionResult(
        5, "interval-action laws", not bad, checked, "; ".join(bad[:2])
    )


# ---------------------------------------------------------------------------
# Criterion 6: delooping well-definedness and naturality
# ---------------------------------------------------------------------------


def xi_by_splitting(g, y: WBPoint, choose) -> Any:
    """``xi(g)(y)`` by its definition, for a canonical ``y``: split the planar
    presentation along the main edge that ``choose`` picks from its
    ``(parent, slot)`` edges in preorder, down to single vertices, each sent
    to ``g(label, height)``; compose the halves; act by the leaf word."""
    target = g.eta.target

    def value(n: Node) -> Any:
        if all(not isinstance(c, Node) for c in n.kids):
            return g(n.label, n.t)
        edges = [(parent, slot) for _, parent, slot in preorder(n)[1:]]
        parent, slot = choose(edges)
        sub = parent.kids[slot - 1]
        parent.kids[slot - 1] = 0
        try:
            # Planar leaf position of the cut edge within the lower half.
            i = leaf_slots(n).index((parent, slot)) + 1
            lower = value(n)
        finally:
            parent.kids[slot - 1] = sub
        return target.compose(lower, i, value(sub))

    return target.act(value(nodes_of(y)), y.tree.labels)


def _all_split_values(g, y: WBPoint, max_edges: int) -> set:
    """The delooping's definition along every split sequence."""
    depth = max(0, y.n_main_vertices - 1)
    return {xi_by_splitting(g, y, lambda es, it=iter(seq): es[next(it) % len(es)])
            for seq in product(range(max_edges), repeat=depth)}


def criterion_deloop(rng: Random, scale: float = 1.0) -> CriterionResult:
    bad: list[str] = []
    checked = 0
    eta = identity_eta(_A)
    rev = _reversal()
    gw = window_loop(eta, rev, name="w")

    # The fold equals the definition: exhaustive over shapes with <= 4 main
    # vertices, random decorations, every split sequence.
    for shape in _small_shapes(2, 4):
        labels = tuple(
            iota(_A, random_perm(rng, s.arity)) for s in shape.subtrees
        )
        heights = _random_heights(rng, shape, endpoints=False)
        y = wb_normalize(raw_wb(_A, shape, labels, heights))
        vals = _all_split_values(gw, y, max_edges=shape.n_vertices)
        checked += 1
        if vals != {xi(gw)(y)}:
            bad.append(f"xi differs from its split values on {y!r}: {vals}")

    # Constant loop deloops to the basepoint map.
    g0 = constant_loop(eta)
    f0 = eta_mu_tilde(eta)
    for _ in range(_scaled(300, scale)):
        y = wb_normalize(random_wb(rng, _A))
        checked += 1
        if xi(g0)(y) != f0(y):
            bad.append(f"constant-loop delooping at {y!r}")

    # Naturality with the interval-algebra structure, pointwise.
    for _ in range(_scaled(200, scale)):
        n = rng.randint(1, 3)
        c = random_cubes(rng, n)
        gs = [
            window_loop(
                eta, rev, (F(j + 1, n + 2), F(j + 2, n + 2)), name=f"w{j}"
            )
            for j in range(n)
        ]
        y = wb_normalize(random_wb(rng, _A))
        checked += 1
        if xi(loop_alpha(c, gs))(y) != alpha(c, [xi(g) for g in gs])(y):
            bad.append(f"naturality at {c!r} on {y!r}")
    return CriterionResult(
        6, "delooping well-definedness", not bad, checked, "; ".join(bad[:2])
    )


# ---------------------------------------------------------------------------
# Criterion 7: worked examples
# ---------------------------------------------------------------------------


def criterion_worked_examples(rng: Random, scale: float = 1.0) -> CriterionResult:
    bad: list[str] = []
    checked = 0
    eta = identity_eta(_A)
    g = window_loop(eta, _reversal(), name="w")

    # Delooping closed form: main tree = root (arity 2) with an arity-2
    # child at the same height and an arity-3 child at a later height.  The
    # value factors as (value of the merged equal-height pair) composed at
    # the third input with the value of the remaining vertex.
    for _ in range(_scaled(50, scale)):
        xr = random_perm(rng, 2)
        x1 = random_perm(rng, 2)
        x2 = random_perm(rng, 3)
        tr, t2 = F(2, 5), F(4, 5)
        shape = PlanarTree(
            (PlanarTree((None, None)), PlanarTree((None, None, None)))
        )
        y = wb_normalize(raw_wb(
            _A, shape, (iota(_A, xr), iota(_A, x1), iota(_A, x2)), (tr, tr, t2)
        ))
        got = xi(g)(y)
        want = _A.compose(
            g(bv_compose(iota(_A, xr), 1, iota(_A, x1)), tr),
            3,
            g(iota(_A, x2), t2),
        )
        checked += 1
        if got != want:
            bad.append(f"delooping example: {got} != {want}")

    # Interval-action assembly with a trivial factor: a 6-vertex main tree
    # whose heights interleave two cubes so that one inner edge crosses the
    # second cube, contributing a degenerate unit sub-point there.
    c1, c2 = (F(1, 8), F(3, 8)), (F(1, 2), F(7, 8))
    cfg = CubeConfig((c1, c2))
    t1, t2, t3, t4, t5, t6 = F(1, 4), F(7, 16), F(5, 8), F(3, 4), F(9, 16), F(15, 16)
    x4t = PlanarTree((None, None, None, None))
    x3t = PlanarTree((None, x4t))
    x6t = PlanarTree((None, None))
    x2t = PlanarTree((x3t, x6t))
    x5t = PlanarTree((None, None))
    shape = PlanarTree((x2t, x5t))
    f0 = eta_mu_tilde(eta)
    f1 = xi(window_loop(eta, _reversal(), name="wa"))
    f2 = xi(window_loop(eta, _reversal(), (F(1, 4), F(1, 2)), name="wb"))
    unit = _A.unit()
    for _ in range(_scaled(10, scale)):
        labs = {
            name: random_perm(rng, ar)
            for name, ar in (
                ("x1", 2), ("x2", 2), ("x3", 2), ("x4", 4), ("x5", 2), ("x6", 2)
            )
        }
        labels = tuple(
            iota(_A, labs[n]) for n in ("x1", "x2", "x3", "x4", "x6", "x5")
        )
        y = wb_normalize(raw_wb(_A, shape, labels, (t1, t2, t3, t4, t6, t5)))

        def hand_value(fa, fb):
            val = unit
            s1 = fa(rescale(
                raw_wb(_A, corolla(2), (iota(_A, labs["x1"]),), (t1,)), c1
            ))
            val = multi_compose(_A, val, [s1])
            val = multi_compose(_A, val, [labs["x2"], unit])
            z = rescale(raw_wb(
                _A, x3t, (iota(_A, labs["x3"]), iota(_A, labs["x4"])), (t3, t4)
            ), c2)
            s5 = fb(rescale(
                raw_wb(_A, corolla(2), (iota(_A, labs["x5"]),), (t5,)), c2
            ))
            val = multi_compose(_A, val, [fb(z), fb(wb_trivial(_A)), s5])
            val = multi_compose(_A, val, [unit] * 5 + [labs["x6"]] + [unit, unit])
            return val

        for fa, fb in ((f0, f0), (f1, f2)):
            checked += 1
            if alpha(cfg, [fa, fb])(y) != hand_value(fa, fb):
                bad.append(f"assembly example with {fa.name},{fb.name}")
            if fb(wb_trivial(_A)) != unit:
                bad.append("trivial factor is not the unit")
    return CriterionResult(
        7, "worked examples", not bad, checked, "; ".join(bad[:2])
    )


# ---------------------------------------------------------------------------
# Criterion 8: cell and graph combinatorics
# ---------------------------------------------------------------------------


def _dual_cell_flags(x: WBPoint, k: int, l: int) -> frozenset[str]:
    """Independent re-derivation of the boundary-stratum flags from the
    stated definitions, reading the raw data directly."""
    flags: set[str] = set()
    gi = x.tree.shape.n_leaves + sum(
        sum(1 for s in lab.tree.shape.subtrees if s.arity == 0)
        for lab in x.labels
    )
    av = sum(lab.tree.shape.n_vertices for lab in x.labels)
    if gi != k or av != l:
        return frozenset({"outside"})
    degenerate = False
    for t in x.heights:
        if t == 0 or t == 1:
            degenerate = True
    for lab in x.labels:
        if 0 in lab.params:
            degenerate = True
        for v in range(lab.tree.shape.n_vertices):
            if (
                lab.tree.shape.subtrees[v].arity == 1
                and x.operad.is_unit(lab.labels[v])
            ):
                degenerate = True
    flags.add("dY" if degenerate else "interior")
    if x.tree.shape.n_vertices > 1:
        flags.add("Y1")
        h0 = x.heights[0]
        if h0 in (F(0), F(1)) and len(set(x.heights)) == 1:
            flags.add("Y1capY2")
    elif x.heights[0] in (F(0), F(1)):
        flags.add("Y2")
        if any(p == 1 for p in x.labels[0].params):
            flags.add("Y1capY2")
    if "Y1" in flags or "Y2" in flags:
        flags.add("dYprime")
    return frozenset(flags)


def _random_cell_point(rng: Random, idx: UpsilonIndex) -> WBPoint:
    labels = []
    for a in idx.aux:
        labs = tuple(random_perm(rng, s.arity) for s in a.subtrees)
        params = tuple(
            random_fraction(rng) for _ in range(a.n_vertices - 1)
        )
        labels.append(raw_bv(_A, a, labs, params))
    return raw_wb(_A, idx.main, tuple(labels), _random_heights(rng, idx.main))


def criterion_cells(rng: Random, scale: float = 1.0) -> CriterionResult:
    bad: list[str] = []
    checked = 0

    # Boundary-stratum classification against the dual implementation.
    for (k, l) in ((3, 2), (4, 3)):
        census = enumerate_upsilon(k, l, False)
        for _ in range(_scaled(1000, scale)):
            idx = census[rng.randrange(len(census))]
            x = _random_cell_point(rng, idx)
            kk, ll = (k, l) if rng.random() < 0.8 else (k + 1, l)
            checked += 1
            if y_cell_membership(x, kk, ll) != _dual_cell_flags(x, kk, ll):
                bad.append(f"stratum flags differ at {x!r} ({kk},{ll})")

    # Graph structure: unique all-corolla initial element per component.
    for (k, l) in ((3, 2), (4, 3), (5, 4)):
        g = build_graph(k, l)
        for comp in g.components:
            checked += 1
            inits = [i for i in comp if g.classes[i].level == 0]
            if len(inits) != 1:
                bad.append(f"({k},{l}) component with {len(inits)} initials")
                continue
            rep = g.classes[inits[0]].representative
            if any(a.n_vertices != 1 for a in rep.aux):
                bad.append(f"({k},{l}) initial element not all-corolla")
        if k == 3 and l == 2 and g.edges:
            bad.append("the (3,2) graph should have no edges")
        if (k, l) == (4, 3):
            shapes = [c.representative for c in g.classes]

    # Homotopy endpoints and image membership.
    per_shape = _scaled(500, scale)
    for idx in shapes:
        mx = max_vertices(idx.main)
        for _ in range(per_shape):
            heights = _random_heights(rng, idx.main)
            aux = tuple(
                tuple(random_fraction(rng) for _ in range(a.n_vertices - 1))
                for a in idx.aux
            )
            checked += 1
            if homotopy_H(idx, heights, aux, F(0)) != (heights, aux):
                bad.append(f"homotopy not the identity at 0 on {idx!r}")
            h1, a1 = homotopy_H(idx, heights, aux, F(1))
            want = tuple(
                F(1) if v in mx else (F(0) if v == 0 else F(1, 2))
                for v in range(idx.main.n_vertices)
            )
            if h1 != want or any(s != 1 for ps in a1 for s in ps):
                bad.append(f"homotopy endpoint wrong on {idx!r}")
            u = F(rng.randint(0, 16), 16)
            hu, au = homotopy_H(idx, heights, aux, u)
            if not h_membership(idx, hu, au, "H"):
                bad.append(f"homotopy leaves the polytope on {idx!r} u={u}")
            if h_membership(idx, heights, aux, "H-") and not h_membership(
                idx, hu, au, "H-"
            ):
                bad.append(f"homotopy leaves the boundary stratum on {idx!r}")
    return CriterionResult(
        8, "cell/graph combinatorics", not bad, checked, "; ".join(bad[:2])
    )


# ---------------------------------------------------------------------------
# Criterion 9: mutant detection
# ---------------------------------------------------------------------------


def criterion_mutants(rng: Random, scale: float = 1.0) -> CriterionResult:
    bad: list[str] = []
    eta = identity_eta(_A)
    rev = _reversal()
    n = _scaled(40, scale)
    bv_samples = [bv_normalize(random_bv(rng, _A)) for _ in range(n)]
    bv_single = [
        bv_normalize(random_bv(rng, _A, max_vertices=1)) for _ in range(n)
    ]
    wb_samples = [wb_normalize(random_wb(rng, _A)) for _ in range(n)]
    checked = 3 * n

    # The unit mutant needs a target with a non-unit arity-1 element.
    end2 = EndOperad(2)
    end_eta = identity_eta(end2)
    end_samples = [bv_normalize(random_bv(rng, end2)) for _ in range(n)]
    r = validate_loop(mutant_unit_loop(end_eta), end_samples)
    if r.ok or not any(v.law == "unit" for v in r.violations):
        bad.append("unit-law mutant not flagged")
    elif not r.violations[0].witness:
        bad.append("unit-law mutant flagged without a witness")

    # Enough repeated non-unit corollas that some composition pair is
    # evaluated at an interior time from the validator's grid.
    corollas = [iota(_A, (2, 1)), iota(_A, (1, 3, 2))] * 20
    r = validate_loop(mutant_multiplicative_loop(eta, rev), bv_single + corollas)
    if r.ok or not any(v.law == "multiplicativity" for v in r.violations):
        bad.append("multiplicativity mutant not flagged")

    # Guarantee interior-height points so the broken branch is exercised.
    interior = [
        wb_normalize(raw_wb(_A, corolla(2), (iota(_A, (2, 1)),), (F(1, 2),))),
        wb_normalize(raw_wb(_A, corolla(3), (iota(_A, (3, 1, 2)),), (F(1, 3),))),
    ] * 4
    r = validate_bimodule_map(mutant_bimod(eta, rev), wb_samples + interior)
    if r.ok:
        bad.append("bimodule mutant not flagged")
    elif not all(v.witness for v in r.violations[:1]):
        bad.append("bimodule mutant flagged without a witness")

    # Sanity: the honest kernels pass the same validators.
    r = validate_loop(window_loop(eta, assoc_reversal_eta(), name="w"), bv_samples)
    if not r.ok:
        bad.append(f"honest loop rejected: {r.violations[0].law}")
    r = validate_bimodule_map(eta_mu_tilde(eta), wb_samples)
    if not r.ok:
        bad.append(f"honest bimodule map rejected: {r.violations[0].law}")
    return CriterionResult(
        9, "mutant detection", not bad, checked, "; ".join(bad[:2])
    )


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

CRITERIA: list[Callable[[Random, float], CriterionResult]] = [
    criterion_confluence,
    criterion_laws,
    criterion_roundtrip,
    criterion_filtration,
    criterion_alpha_laws,
    criterion_deloop,
    criterion_worked_examples,
    criterion_cells,
    criterion_mutants,
]


def run_acceptance(
    seed: int = 0,
    scale: float = 1.0,
    report: Optional[Callable[[CriterionResult], None]] = None,
) -> list[CriterionResult]:
    """Run all nine criteria with a deterministic seed; ``scale`` shrinks
    the randomized sample counts proportionally (exhaustive parts are not
    reduced)."""
    results = []
    for i, crit in enumerate(CRITERIA):
        res = crit(Random(seed * 1_000_003 + i), scale)
        results.append(res)
        if report is not None:
            report(res)
    return results

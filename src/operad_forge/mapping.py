"""Computable loop elements and bimodule-map elements between the two
resolutions, the interval-configuration action ``alpha`` on bimodule maps,
the concatenation action ``loop_alpha`` on loops, and the delooping map
``xi`` translating loops into bimodule maps.  ``alpha`` cuts a point into
bands with ``wb.subdivide`` and rescales the cube bands with ``rescale``.

A loop element is a kernel ``(BVPoint, t) -> target element`` satisfying,
on checked inputs: symmetry, the unit law, multiplicativity over operadic
composition, and basepoint values at t = 0, 1.  A bimodule-map element is a
kernel ``WBPoint -> target element`` respecting the left/right bimodule
actions and the symmetric action.  Both are validated by sampling
(`validate_loop` / `validate_bimodule_map`); the kernels themselves are
opaque computable functions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from random import Random
from typing import Any, Callable, Optional, Sequence

from .bv import (
    BVPoint,
    bv_act,
    bv_compose,
    bv_filtration,
    bv_normalize,
    bv_unit,
    mu,
)
from .operads import (
    AssocOperad,
    CubeConfig,
    EndOperad,
    Interval,
    Operad,
    OperadMapEta,
    ValidationReport,
    sort_to_increasing,
)
from .trees import fold, to_nodes
from .wb import (
    ONE,
    ZERO,
    WBPoint,
    _is_unit_bv,
    is_trivial_subpoint,
    mu_tilde,
    subdivide,
    wb_act,
    wb_filtration,
    wb_gamma0,
    wb_left,
    wb_normalize,
    wb_right,
)

Window = tuple[Fraction, Fraction]


class TruncationError(ValueError):
    """Raised when a truncated element is evaluated outside its bound."""


# ---------------------------------------------------------------------------
# Element types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LoopElement:
    """A loop in the operad mapping space, given by a kernel evaluated on
    canonical resolution points and a rational time coordinate."""

    eta: OperadMapEta
    kernel: Callable[[BVPoint, Fraction], Any] = field(compare=False)
    name: str = "loop"
    truncation: Optional[int] = None

    def __call__(self, x: BVPoint, t) -> Any:
        t = Fraction(t)
        if not 0 <= t <= 1:
            raise ValueError(f"time {t} outside [0,1]")
        if not x.canonical:
            x = bv_normalize(x)
        if self.truncation is not None and not bv_filtration(x, self.truncation):
            raise TruncationError(
                f"point outside filtration stage {self.truncation}"
            )
        return self.kernel(x, t)


@dataclass(frozen=True)
class BimodMapElement:
    """A bimodule map out of the bimodule resolution, given by a kernel
    evaluated on canonical points."""

    eta: OperadMapEta
    kernel: Callable[[WBPoint], Any] = field(compare=False)
    name: str = "bimod-map"
    truncation: Optional[int] = None

    def __call__(self, y: WBPoint) -> Any:
        if not y.canonical:
            y = wb_normalize(y)
        if self.truncation is not None and not wb_filtration(y, self.truncation):
            raise TruncationError(
                f"point outside filtration stage {self.truncation}"
            )
        return self.kernel(y)


def _same_eta(a: OperadMapEta, b: OperadMapEta) -> bool:
    return a is b or (
        a.name == b.name
        and a.source.name == b.source.name
        and a.target.name == b.target.name
    )


# ---------------------------------------------------------------------------
# Stock kernels
# ---------------------------------------------------------------------------


def constant_loop(eta: OperadMapEta) -> LoopElement:
    """The constant loop at the basepoint: every time slice collapses a
    point to its operad image."""
    return LoopElement(eta, lambda x, t: eta(mu(x)), name="constant")


def eta_mu_tilde(eta: OperadMapEta) -> BimodMapElement:
    """The basepoint bimodule map: collapse all heights and compose."""
    return BimodMapElement(eta, lambda y: eta(mu_tilde(y)), name="eta-mu-tilde")


def window_loop(
    eta: OperadMapEta,
    endo: OperadMapEta,
    window: Window = (Fraction(1, 3), Fraction(2, 3)),
    name: str = "window",
) -> LoopElement:
    """A nonconstant loop: inside the open time window the basepoint value
    is post-composed with a target-operad endomorphism.  All loop laws hold
    exactly because ``endo`` is a unit-preserving equivariant operad map."""
    lo, hi = Fraction(window[0]), Fraction(window[1])
    if not 0 <= lo < hi <= 1:
        raise ValueError(f"window [{lo},{hi}] not valid inside [0,1]")
    if not _same_eta_target(endo, eta):
        raise ValueError("endomorphism must act on the target operad")

    def kernel(x: BVPoint, t: Fraction):
        v = eta(mu(x))
        return endo(v) if lo < t < hi else v

    return LoopElement(eta, kernel, name=name)


def _same_eta_target(endo: OperadMapEta, eta: OperadMapEta) -> bool:
    return endo.source.name == eta.target.name and endo.target.name == eta.target.name


def assoc_reversal_eta() -> OperadMapEta:
    """The opposite-multiplication automorphism of the associative operad:
    each word is reversed."""
    A = AssocOperad()
    return OperadMapEta(
        A, A, lambda w: tuple(reversed(w)), name="assoc-reversal"
    )


def end_conjugation_eta(size: int) -> OperadMapEta:
    """Conjugation of the endomorphism operad of a finite set by its
    order-reversing bijection."""
    E = EndOperad(size)
    s = tuple(size - 1 - i for i in range(size))

    def conj(x):
        n, table = x
        new = [0] * len(table)
        for args in product(range(size), repeat=n):
            new[E._index(args)] = s[table[E._index(tuple(s[a] for a in args))]]
        return (n, tuple(new))

    return OperadMapEta(E, E, conj, name=f"end-conj:{size}")


def table_eta(
    operad: Operad,
    table: dict,
    name: str = "table",
) -> OperadMapEta:
    """A self-map of an operad given by a finite lookup on canonically
    serialized elements, with identity as the declared default.  The caller
    is responsible for the table describing an actual operad map on the
    arities it will be evaluated at (use ``validate_eta``)."""

    def fn(x):
        key = json.dumps(operad.encode(x), sort_keys=True)
        hit = table.get(key)
        return operad.decode(hit) if hit is not None else x

    return OperadMapEta(operad, operad, fn, name=name)


def reversal_table(max_arity: int) -> dict:
    """A lookup table implementing word reversal on the symmetric-groups
    operad for all arities up to the bound."""
    A = AssocOperad()
    out = {}
    for n in range(1, max_arity + 1):
        for w in A.elements(n):
            out[json.dumps(A.encode(w), sort_keys=True)] = A.encode(
                tuple(reversed(w))
            )
    return out


def mutant_unit_loop(eta: OperadMapEta) -> LoopElement:
    """Deliberately broken loop: the unit point is sent to a non-unit
    arity-1 target element at interior times.  Used to exercise the
    validators; requires a target with more than one arity-1 element."""
    pool = eta.target.elements(1)
    bad = next(
        (e for e in (pool or []) if not eta.target.is_unit(e)), None
    )
    if bad is None:
        raise ValueError("target operad has no non-unit arity-1 element")
    op = eta.source

    def kernel(x: BVPoint, t: Fraction):
        if 0 < t < 1 and _is_unit_bv(op, x):
            return bad
        return eta(mu(x))

    return LoopElement(eta, kernel, name="mutant-unit")


def mutant_multiplicative_loop(
    eta: OperadMapEta,
    endo: OperadMapEta,
    window: Window = (Fraction(1, 3), Fraction(2, 3)),
) -> LoopElement:
    """Deliberately broken loop: the endomorphism twist is applied only to
    single-vertex points, so it fails to distribute over composition."""
    lo, hi = Fraction(window[0]), Fraction(window[1])
    op = eta.source

    def kernel(x: BVPoint, t: Fraction):
        v = eta(mu(x))
        if lo < t < hi and x.n_vertices == 1 and not op.is_unit(x.labels[0]):
            return endo(v)
        return v

    return LoopElement(eta, kernel, name="mutant-multiplicative")


def mutant_bimod(eta: OperadMapEta, endo: OperadMapEta) -> BimodMapElement:
    """Deliberately broken bimodule map: points with an interior main height
    get an extra endomorphism twist, breaking the right-action law."""

    def kernel(y: WBPoint):
        v = eta(mu_tilde(y))
        if any(0 < t < 1 for t in y.heights):
            return endo(v)
        return v

    return BimodMapElement(eta, kernel, name="mutant-bimod")


# ---------------------------------------------------------------------------
# Rescaling a cube band
# ---------------------------------------------------------------------------


def rescale(z: WBPoint, cube: Interval) -> WBPoint:
    """Map all heights of ``z`` through the inverse of the affine embedding
    of ``cube`` into [0,1].  All heights must lie strictly inside."""
    lo, hi = Fraction(cube[0]), Fraction(cube[1])
    if not lo < hi:
        raise ValueError("degenerate cube")
    if not all(lo < t < hi for t in z.heights):
        raise ValueError("height on or outside the cube")
    heights = tuple((t - lo) / (hi - lo) for t in z.heights)
    return WBPoint(
        z.operad, z.operad_name, z.tree, heights, z.labels, False
    )


# ---------------------------------------------------------------------------
# The interval-configuration action
# ---------------------------------------------------------------------------


def multi_compose(operad: Operad, z, args: Sequence[Any]):
    """Simultaneous composition z(a_1,...,a_q) via descending single slots."""
    if operad.arity(z) != len(args):
        raise AssertionError(
            f"arity bookkeeping failure: arity {operad.arity(z)} element "
            f"applied to {len(args)} arguments"
        )
    for slot in range(len(args), 0, -1):
        z = operad.compose(z, slot, args[slot - 1])
    return z


def alpha(c: CubeConfig, fs: Sequence[BimodMapElement]) -> BimodMapElement:
    """Act on bimodule maps by an interval configuration: subdivide the
    evaluated point into bands, send gap sub-points to the basepoint values,
    cube sub-points to the rescaled argument maps, and stack the resulting
    target elements band by band."""
    if len(fs) != c.n:
        raise ValueError(f"need {c.n} maps, got {len(fs)}")
    if c.n == 0:
        raise ValueError("empty configurations are not supported")
    eta = fs[0].eta
    for f in fs[1:]:
        if not _same_eta(f.eta, eta):
            raise ValueError("all maps must share the same basepoint data")
    cs, sigma = sort_to_increasing(c)
    fs2 = [fs[sigma[j] - 1] for j in range(c.n)]
    target = eta.target

    def kernel(y: WBPoint):
        # The bands are cut from the planar presentation: ``cut`` renumbers
        # the leaves, so the word only moves the value back at the end.
        gap_lists, cube_lists = subdivide(y, cs)
        val = eta(mu_tilde(gap_lists[0][0]))
        for j in range(cs.n):
            cube = cs.intervals[j]
            cube_vals = [
                fs2[j](z if is_trivial_subpoint(z) else rescale(z, cube))
                for z in cube_lists[j]
            ]
            val = multi_compose(target, val, cube_vals)
            gap_vals = [eta(mu_tilde(w)) for w in gap_lists[j + 1]]
            val = multi_compose(target, val, gap_vals)
        return target.act(val, y.tree.labels)

    return BimodMapElement(eta, kernel, name=f"alpha[{c.n}]")


def loop_alpha(c: CubeConfig, gs: Sequence[LoopElement]) -> LoopElement:
    """Act on loops by an interval configuration: run the j-th loop at the
    rescaled time inside cube j, sit at the basepoint elsewhere."""
    if len(gs) != c.n:
        raise ValueError(f"need {c.n} loops, got {len(gs)}")
    if c.n == 0:
        raise ValueError("empty configurations are not supported")
    eta = gs[0].eta
    for g in gs[1:]:
        if not _same_eta(g.eta, eta):
            raise ValueError("all loops must share the same basepoint data")
    intervals = c.intervals

    def kernel(x: BVPoint, t: Fraction):
        for j, (lo, hi) in enumerate(intervals):
            if lo < t < hi:
                return gs[j](x, (t - lo) / (hi - lo))
        return eta(mu(x))

    return LoopElement(eta, kernel, name=f"loop-alpha[{c.n}]")


# ---------------------------------------------------------------------------
# The delooping map
# ---------------------------------------------------------------------------


def xi(g: LoopElement) -> BimodMapElement:
    """Deloop: turn a loop into a bimodule map.  The loop's values on the
    main vertices' labels at their heights are composed along the planar
    main tree, as ``mu_tilde`` composes labels, and moved back by the leaf
    word: the value of every split sequence (``selftest.xi_by_splitting``)."""
    target = g.eta.target

    def kernel(y: WBPoint):
        values = [g(label, t) for label, t in zip(y.labels, y.heights)]
        root = to_nodes(y.tree.shape, values, y.heights, y.tree.labels)
        return target.act(fold(root, target.compose), y.tree.labels)

    return BimodMapElement(g.eta, kernel, name=f"xi({g.name})")


def xi_k(g: LoopElement, k: int) -> BimodMapElement:
    """Truncated delooping: evaluation restricted to the k-th filtration
    stage on both sides."""
    gk = LoopElement(g.eta, g.kernel, name=g.name, truncation=k)
    base = xi(gk)
    return BimodMapElement(
        g.eta, base.kernel, name=f"xi_{k}({g.name})", truncation=k
    )


# ---------------------------------------------------------------------------
# Validators
# ---------------------------------------------------------------------------

_DEFAULT_TIMES = (
    Fraction(0),
    Fraction(1, 7),
    Fraction(1, 3),
    Fraction(1, 2),
    Fraction(2, 3),
    Fraction(6, 7),
    Fraction(1),
)


def validate_loop(
    g: LoopElement,
    samples: Sequence[BVPoint],
    rng: Optional[Random] = None,
    times: Sequence[Fraction] = _DEFAULT_TIMES,
) -> ValidationReport:
    """Check the loop laws (unit, boundary values, symmetry,
    multiplicativity) on the given sample points and a rational time grid."""
    rng = rng or Random(0)
    report = ValidationReport(subject=g.name)
    eta = g.eta
    op, target = eta.source, eta.target

    unit_pt = bv_unit(op)
    for t in times:
        report.checked += 1
        try:
            v = g(unit_pt, t)
        except TruncationError:
            continue
        if v != target.unit():
            report.add("unit", point=unit_pt, t=t, got=v)

    for x in samples:
        if not x.canonical:
            x = bv_normalize(x)
        try:
            base = eta(mu(x))
            for t in (ZERO, ONE):
                report.checked += 1
                if g(x, t) != base:
                    report.add("boundary", point=x, t=t, got=g(x, t))
            if x.arity >= 2:
                sigma = tuple(rng.sample(range(1, x.arity + 1), x.arity))
                t = rng.choice(times)
                report.checked += 1
                if g(bv_act(x, sigma), t) != target.act(g(x, t), sigma):
                    report.add("symmetry", point=x, sigma=sigma, t=t)
        except TruncationError:
            continue

    for x, y in zip(samples, samples[1:]):
        if x.arity < 1:
            continue
        i = rng.randint(1, x.arity)
        t = rng.choice(times)
        report.checked += 1
        try:
            lhs = g(bv_compose(x, i, y), t)
            rhs = target.compose(g(x, t), i, g(y, t))
        except (TruncationError, ValueError):
            continue
        if lhs != rhs:
            report.add("multiplicativity", x=x, i=i, y=y, t=t, got=lhs, want=rhs)
    return report


def validate_bimodule_map(
    f: BimodMapElement,
    samples: Sequence[WBPoint],
    rng: Optional[Random] = None,
) -> ValidationReport:
    """Check the bimodule-map laws (arity-0 structure map, symmetry, right
    and left actions) on the given sample points."""
    rng = rng or Random(0)
    report = ValidationReport(subject=f.name)
    eta = f.eta
    op, target = eta.source, eta.target

    for a0 in (op.elements(0) or [])[:4]:
        report.checked += 1
        try:
            if f(wb_gamma0(op, a0)) != eta(a0):
                report.add("gamma0", element=a0, got=f(wb_gamma0(op, a0)))
        except TruncationError:
            continue

    for x in samples:
        if not x.canonical:
            x = wb_normalize(x)
        try:
            fx = f(x)
        except TruncationError:
            continue
        if x.arity >= 2:
            sigma = tuple(rng.sample(range(1, x.arity + 1), x.arity))
            report.checked += 1
            if f(wb_act(x, sigma)) != target.act(fx, sigma):
                report.add("symmetry", point=x, sigma=sigma)
        if x.arity >= 1:
            i = rng.randint(1, x.arity)
            m = rng.choice((0, 1, 2))
            pool = op.elements(m)
            if pool:
                a = rng.choice(pool)
                report.checked += 1
                try:
                    if f(wb_right(x, i, a)) != target.compose(fx, i, eta(a)):
                        report.add("right-action", point=x, i=i, element=a)
                except (TruncationError, ValueError):
                    report.checked -= 1

    for x, y in zip(samples, samples[1:]):
        pool = op.elements(2)
        if not pool:
            continue
        a = rng.choice(pool)
        report.checked += 1
        try:
            lhs = f(wb_left(a, [x, y]))
            rhs = multi_compose(target, eta(a), [f(x), f(y)])
        except (TruncationError, ValueError):
            report.checked -= 1
            continue
        if lhs != rhs:
            report.add("left-action", element=a, x=x, y=y, got=lhs, want=rhs)
    return report

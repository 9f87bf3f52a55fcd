"""Seeded random generators for points, labels and interval configurations.

Everything is driven by a caller-supplied ``random.Random`` so that test
runs are reproducible; all coordinates are exact rationals drawn from small
denominator grids.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random
from .bv import BVPoint, raw_bv
from .operads import (
    AssocOperad,
    ComOperad,
    CubeConfig,
    EndOperad,
    Operad,
)
from .trees import PlanarTree, planar_trees
from .wb import WBPoint, raw_wb


def random_fraction(rng: Random, lo=Fraction(0), endpoints: bool = True) -> Fraction:
    """A point of the grid of eighths on ``[lo, 1]``, endpoints optional."""
    lo = Fraction(lo)
    k = rng.randint(0, 8) if endpoints else rng.randint(1, 7)
    return lo + (1 - lo) * Fraction(k, 8)


def random_perm(rng: Random, n: int) -> tuple[int, ...]:
    return tuple(rng.sample(range(1, n + 1), n))


def random_element(rng: Random, operad: Operad, n: int):
    """A uniform-ish random arity-n element, without materializing the full
    per-arity domain for the large builtin operads."""
    if isinstance(operad, AssocOperad):
        return random_perm(rng, n)
    if isinstance(operad, ComOperad):
        return n
    if isinstance(operad, EndOperad):
        size = operad.size
        return (n, tuple(rng.randrange(size) for _ in range(size**n)))
    pool = operad.elements(n)
    if not pool:
        raise ValueError(f"operad {operad.name} has no arity-{n} elements")
    return rng.choice(pool)


def random_shape(
    rng: Random, max_vertices: int = 4, max_arity: int = 3, min_arity: int = 0,
) -> PlanarTree:
    """A random planar tree grown top-down with a global vertex budget."""
    budget = {"v": rng.randint(1, max_vertices) - 1}

    def grow() -> PlanarTree:
        ar = rng.randint(min_arity, max_arity)
        kids = []
        for _ in range(ar):
            if budget["v"] > 0 and rng.random() < 0.45:
                budget["v"] -= 1
                kids.append(grow())
            else:
                kids.append(None)
        return PlanarTree(tuple(kids))

    return grow()


def random_bv(
    rng: Random,
    operad: Operad,
    max_vertices: int = 4,
    max_arity: int = 3,
    min_arity: int = 0,
) -> BVPoint:
    """A random raw point of the operad resolution."""
    shape = random_shape(rng, max_vertices, max_arity, min_arity=min_arity)
    labels = tuple(random_element(rng, operad, sub.arity) for sub in shape.subtrees)
    params = tuple(random_fraction(rng) for _ in range(shape.n_vertices - 1))
    word = random_perm(rng, shape.n_leaves) if rng.random() < 0.5 else None
    return raw_bv(operad, shape, labels, params, word)


def random_bv_of_arity(
    rng: Random,
    operad: Operad,
    arity: int,
    max_vertices: int = 3,
    min_arity: int = 0,
) -> BVPoint:
    """A random raw resolution point with a prescribed number of inputs,
    drawn from the enumerated shapes of that leaf count."""
    shapes: list[PlanarTree] = []
    for nv in range(1, max_vertices + 1):
        for t in planar_trees(arity, nv):
            if min_arity and any(
                s.arity < min_arity for s in t.subtrees
            ):
                continue
            shapes.append(t)
    shape = rng.choice(shapes)
    labels = tuple(
        random_element(rng, operad, sub.arity) for sub in shape.subtrees
    )
    params = tuple(random_fraction(rng) for _ in range(shape.n_vertices - 1))
    return raw_bv(operad, shape, labels, params)


def random_wb(
    rng: Random,
    operad: Operad,
    max_main_vertices: int = 3,
    max_main_arity: int = 3,
    min_arity: int = 0,
) -> WBPoint:
    """A random raw point of the bimodule resolution: a random main shape,
    monotone random heights, and a random resolution point on each vertex."""
    shape = random_shape(rng, max_main_vertices, max_main_arity, min_arity=min_arity)
    heights: list[Fraction] = [Fraction(0)] * shape.n_vertices
    labels: list[BVPoint] = []
    parents = shape.vertex_parents
    for v, sub in enumerate(shape.subtrees):
        lo = heights[parents[v][0]] if parents[v][0] >= 0 else Fraction(0)
        heights[v] = random_fraction(rng, lo=lo)
        labels.append(
            random_bv_of_arity(rng, operad, sub.arity, 2, min_arity=min_arity)
        )
    word = random_perm(rng, shape.n_leaves) if rng.random() < 0.5 else None
    return raw_wb(operad, shape, tuple(labels), tuple(heights), word)


def random_cubes(rng: Random, n: int) -> CubeConfig:
    """A random sorted configuration of n disjoint subintervals with ends on
    the grid of 24ths."""
    while True:
        cuts = sorted(rng.sample(range(25), 2 * n))
        intervals = tuple(
            (Fraction(cuts[2 * j], 24), Fraction(cuts[2 * j + 1], 24))
            for j in range(n)
        )
        if all(a < b for a, b in intervals):
            return CubeConfig(intervals)

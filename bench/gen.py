"""Seeded input generator for the benchmark workloads.

It is independent of ``operad_forge.sampling`` so that the workloads stay
fixed while the program changes.  Every point is emitted as a JSON payload in
the CLI's stdin grammar, so a request that misbehaves can be replayed with
``operad-forge --operad <name> <command>``.

Inputs are organised as catalogs: entry ``i`` of a catalog depends only on
the workload name and ``i`` (never on the run's seed), which is what lets the
benchmark compare every output with a digest recorded once per entry.  The
run's seed picks where in the catalog a run starts.
"""

from __future__ import annotations

import json
from fractions import Fraction
from random import Random

ASSOC, COM, END2, FREE = "assoc", "com", "end:2", "free:a=2,b=3:4"
FREE_GENERATORS = (("a", 2), ("b", 3))
FREE_MAX_ARITY = 4
# An arity-n element of end:2 is a 2^n-entry table, and zero-length edges
# merge vertices, so the leaves plus nullary vertices of an end:2 point (the
# largest arity a merge can reach) stay at or below this.
END2_MAX_ENDS = 10
GRID = 8

CATALOG_SIZE = {"normalize": 100000, "laws": 100000}


def _text(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def catalog_rng(workload: str, i: int) -> Random:
    return Random(f"{workload}:{i}")


def start_offset(workload: str, seed: int) -> int:
    return Random(f"{workload}:start:{seed}").randrange(CATALOG_SIZE[workload])


# ---------------------------------------------------------------------------
# Shapes
# ---------------------------------------------------------------------------


class _V:
    """A generated vertex: child vertices and leaves in planar order (a leaf
    is ``None``), plus a tag shared by vertices that must get identical
    decorations."""

    __slots__ = ("kids", "tag")

    def __init__(self, tag=None):
        self.kids: list = []
        self.tag = tag


def _skeleton(rng: Random, n_vertices: int, max_children: int, tips: int = 0) -> list[_V]:
    """A random rooted tree on ``n_vertices`` vertices in attachment order.
    With ``tips`` > 0 new vertices hang below one of that many chain ends, so
    the tree stays thin (few childless vertices)."""
    vs = [_V()]
    ends = [0]
    for _ in range(1, n_vertices):
        if tips:
            j = rng.randrange(len(ends))
            parent = ends[j]
            if len(ends) < tips and rng.random() < 0.2:
                ends.append(len(vs))
            else:
                ends[j] = len(vs)
        else:
            room = [u for u, v in enumerate(vs) if len(v.kids) < max_children]
            parent = rng.choice(room)
        v = _V()
        vs[parent].kids.append(v)
        vs.append(v)
    return vs


def _add_leaves(rng: Random, vs: list[_V], n_leaves: int, max_arity: int, nullary_ok: bool) -> None:
    """Give the skeleton exactly ``n_leaves`` leaves; without nullary
    vertices every childless vertex takes one first."""
    if not nullary_ok:
        for v in vs:
            if not v.kids:
                v.kids.append(None)
                n_leaves -= 1
    for _ in range(max(0, n_leaves)):
        room = [v for v in vs if len(v.kids) < max_arity] or vs
        rng.choice(room).kids.append(None)
    for v in vs:
        rng.shuffle(v.kids)


def _add_tied_siblings(rng: Random, vs: list[_V]) -> None:
    """Append two or three identical leafless children to one vertex, which
    exercises the tie-break search over equal sibling encodings."""
    host = rng.choice(vs)
    depth = rng.randint(1, 2)
    for _ in range(rng.randint(2, 3)):
        top = _V(("tie", 0))
        cur = top
        for d in range(1, depth):
            nxt = _V(("tie", d))
            cur.kids.append(nxt)
            cur = nxt
        host.kids.append(top)


def _preorder(root: _V) -> list[_V]:
    out, stack = [], [root]
    while stack:
        v = stack.pop()
        out.append(v)
        stack.extend(reversed([c for c in v.kids if c is not None]))
    return out


def _tree_json(rng: Random, root: _V, word: bool) -> dict:
    counter = [0]

    def go(v: _V) -> dict:
        kids = []
        for c in v.kids:
            if c is None:
                counter[0] += 1
                kids.append({"leaf": counter[0]})
            else:
                kids.append(go(c))
        return {"node": {"children": kids}}

    out = go(root)
    n = counter[0]
    sigma = list(range(1, n + 1))
    if word:
        rng.shuffle(sigma)
    out["sigma"] = sigma
    return out


# ---------------------------------------------------------------------------
# Operad elements
# ---------------------------------------------------------------------------


def _free_element(rng: Random, n: int):
    def grow(k: int):
        if k == 1:
            return "l"
        g, a = rng.choice([(g, a) for g, a in FREE_GENERATORS if a <= k])
        cuts = sorted(rng.sample(range(1, k), a - 1))
        parts = [b - c for b, c in zip(cuts + [k], [0] + cuts)]
        return [g] + [grow(p) for p in parts]

    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    it = iter(labels)

    def fill(t):
        return ["l", next(it)] if t == "l" else [t[0]] + [fill(c) for c in t[1:]]

    return fill(grow(n))


def element(rng: Random, operad: str, n: int, unit_p: float = 0.5):
    """An encoded arity-``n`` element; arity-1 vertices get the unit with
    probability ``unit_p`` so that unit deletion runs."""
    unit = n == 1 and rng.random() < unit_p
    if operad == ASSOC:
        w = list(range(1, n + 1))
        rng.shuffle(w)
        return w
    if operad == COM:
        return n
    if operad == END2:
        if unit:
            return [1, [0, 1]]
        return [n, [rng.randrange(2) for _ in range(2**n)]]
    if n == 1:
        return ["unit"]
    return _free_element(rng, n)


def _param(rng: Random, zero_p: float, one_p: float) -> Fraction:
    r = rng.random()
    if r < zero_p:
        return Fraction(0)
    if r < zero_p + one_p:
        return Fraction(1)
    return Fraction(rng.randint(1, GRID - 1), GRID)


# ---------------------------------------------------------------------------
# Points
# ---------------------------------------------------------------------------


def _bv_json(rng: Random, operad: str, root: _V, zero_p: float, one_p: float,
             unit_p: float, word: bool) -> dict:
    tree = _tree_json(rng, root, word)
    labels, params, fixed = [], {}, {}
    for v_idx, v in enumerate(_preorder(root)):
        if v.tag is not None and v.tag in fixed:
            lab, t = fixed[v.tag]
        else:
            lab = element(rng, operad, len(v.kids), unit_p)
            t = _param(rng, zero_p, one_p)
            if v.tag is not None:
                fixed[v.tag] = (lab, t)
        labels.append(lab)
        if v_idx > 0:
            params[str(v_idx)] = _text(t)
    return {"operad": operad, "tree": tree, "labels": labels, "edgeParams": params}


def _shape(rng: Random, operad: str, n_vertices: int, n_leaves: int, max_arity: int,
           ties: bool) -> _V:
    nullary_ok = operad != FREE
    if not nullary_ok:
        max_arity = min(max_arity, FREE_MAX_ARITY)
    vs = _skeleton(rng, n_vertices, max_arity)
    if not nullary_ok and sum(1 for v in vs if not v.kids) > n_leaves:
        vs = [_V()]
    _add_leaves(rng, vs, n_leaves, max_arity, nullary_ok)
    if ties and nullary_ok:
        _add_tied_siblings(rng, vs)
    return vs[0]


def bv_point(rng: Random, operad: str, n_vertices: int, n_leaves: int, *,
             max_arity: int = 3, ties: bool = False, zero_p: float = 0.12,
             one_p: float = 0.08, unit_p: float = 0.5, word: bool = True) -> dict:
    root = _shape(rng, operad, n_vertices, n_leaves, max_arity, ties)
    return _bv_json(rng, operad, root, zero_p, one_p, unit_p, word)


def bv_chain_point(rng: Random, operad: str, n_vertices: int, tips: int, n_leaves: int) -> dict:
    """A large thin point (few chain ends) whose leaves plus nullary
    vertices stay within the end:2 bound."""
    vs = _skeleton(rng, n_vertices, 3, tips=tips)
    _add_leaves(rng, vs, n_leaves, 3, True)
    return _bv_json(rng, operad, vs[0], 0.12, 0.08, 0.5, True)


def wb_point(rng: Random, operad: str, n_main: int, n_leaves: int, *, max_arity: int = 3,
             ties: bool = False, interior: bool = False, unit_p: float = 0.3,
             word: bool = True) -> dict:
    """A raw bimodule point: monotone heights drawn from the grid between
    the parent's height and 1, both included (so equal heights merge), and
    one resolution label per main vertex with the vertex's arity and the
    suite's label sizes."""
    root = _shape(rng, operad, n_main, n_leaves, max_arity, ties)
    tree = _tree_json(rng, root, word)
    order = _preorder(root)
    parent = {id(c): v for v in order for c in v.kids if c is not None}
    heights: dict[int, Fraction] = {}
    fixed: dict = {}
    vertices = []
    for v in order:
        if v.tag is not None and v.tag in fixed:
            t, label = fixed[v.tag]
            heights[id(v)] = t
            vertices.append({"t": _text(t), "bv": label})
            continue
        lo = heights[id(parent[id(v)])] if id(v) in parent else Fraction(0)
        if interior:
            lo = max(lo, Fraction(1, GRID))
            t = Fraction(rng.randint(int(lo * GRID), GRID - 1), GRID)
        else:
            t = Fraction(rng.randint(int(lo * GRID), GRID), GRID)
        heights[id(v)] = t
        m = len(v.kids)
        nv = _pick(rng, _VERTICES["wb-label"])
        label = bv_point(rng, operad, nv, m, max_arity=max(m, 2),
                         unit_p=0.0 if interior else unit_p, word=True)
        if v.tag is not None:
            fixed[v.tag] = (t, label)
        vertices.append({"t": _text(t), "bv": label})
    return {"operad": operad, "tree": tree, "vertices": vertices}


def arity_of(point: dict) -> int:
    return len(point["tree"]["sigma"])


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------

# Measured.  ``python3 bench/mix.py`` (scale 1, seed 0: the acceptance
# test's settings) describes every raw point the acceptance suite normalizes
# and every laws operation it calls.  These are its "selftest" figures,
# frozen here so that the catalogs never change with the program.
SUITE_KINDS = {"normalize-bv": 14397, "compose-bv": 8062, "normalize-wb": 7613}
SUITE_OPERADS = {
    "bv": {ASSOC: 0.837, COM: 0.021, END2: 0.142},
    "wb": {ASSOC: 0.684, COM: 0.053, END2: 0.263},
}
SUITE_VERTICES = {
    "bv": {1: 0.63, 2: 0.207, 3: 0.11, 4: 0.053},
    "wb": {1: 0.609, 2: 0.221, 3: 0.155, 4: 0.015},
    "wb-label": {1: 0.372, 2: 0.628},
}
SUITE_LEAVES = {
    "bv": {0: 0.262, 1: 0.218, 2: 0.207, 3: 0.185, 4: 0.061, 5: 0.039, 6: 0.018,
           7: 0.007, 8: 0.003, 9: 0.001},
    "wb": {0: 0.246, 1: 0.218, 2: 0.228, 3: 0.194, 4: 0.063, 5: 0.036, 6: 0.012,
           7: 0.004},
}
SUITE_EDGE_ZERO = 0.129  # bv edge lengths 0 (contracted) and 1
SUITE_EDGE_ONE = 0.129
SUITE_LAW_OPS = {
    "alpha": 0.033, "bv_act": 0.105, "bv_compose": 0.188, "bv_roundtrip": 0.007,
    "mu": 0.049, "mu_tilde": 0.075, "validate_bimodule_map": 0.0, "validate_loop": 0.0,
    "wb_act": 0.074, "wb_prime_components": 0.007, "wb_left": 0.172, "wb_right": 0.209,
    "xi": 0.081,
}
SUITE_LAW_OPERADS = {ASSOC: 0.668, COM: 0.332}

# The suite draws arity-1 end:2 labels uniformly (a quarter are the unit),
# so normalize points get no extra unit weight: unit_p is 0.

# Chosen, because the suite has no counterpart or too few samples for a run.
FREE_SHARE = 0.10  # the suite never samples a free operad
TAIL_SHARE = 0.02  # 16-64-vertex points; above 1%, so latency_p99_ms lies in the tail
REFUSE_SHARE = 0.04  # invalid points: about 40 refuse_s samples per 1000 requests
TIE_SHARE = 0.05  # the suite meets tied siblings in 0.1% of its points
LAW_FLOOR = 0.03  # every laws operation, the validators too, runs in 3% of requests
TRUNCATED_SHARE = 0.04  # out-of-stage xi_k points: the laws refusals


def _shares(weights: dict) -> tuple:
    total = sum(weights.values())
    return tuple((k, w / total) for k, w in weights.items())


def _floored(weights: dict, floor: float, budget: float) -> dict:
    """Shares summing to ``budget``, none below ``floor``, the rest in
    proportion to ``weights``."""
    fixed: dict = {}
    while True:
        free = {k: w for k, w in weights.items() if k not in fixed}
        room = budget - floor * len(fixed)
        total = sum(free.values())
        low = [k for k, w in free.items() if w / total * room < floor]
        if not low:
            return {**fixed, **{k: w / total * room for k, w in free.items()}}
        fixed.update((k, floor) for k in low)


def _pick(rng: Random, weighted: tuple):
    r = rng.random()
    for name, w in weighted:
        if r < w:
            return name
        r -= w
    return weighted[-1][0]


_KINDS = _shares(SUITE_KINDS)
_SIDES = _shares({"bv": SUITE_KINDS["normalize-bv"], "wb": SUITE_KINDS["normalize-wb"]})
_OPERADS = {side: _shares(mix) for side, mix in SUITE_OPERADS.items()}
# Large end:2 bimodule points are left out: merging their vertices builds
# tables far beyond the end:2 bound.
_TAIL_OPERADS = {"bv": _OPERADS["bv"],
                 "wb": _shares({o: w for o, w in SUITE_OPERADS["wb"].items() if o != END2})}
_VERTICES = {k: _shares(h) for k, h in SUITE_VERTICES.items()}
_LEAVES = {k: _shares(h) for k, h in SUITE_LEAVES.items()}


# ---------------------------------------------------------------------------
# The normalize catalog
# ---------------------------------------------------------------------------


def _operad(rng: Random, side: str) -> str:
    return FREE if rng.random() < FREE_SHARE else _pick(rng, _OPERADS[side])


def _leaves(rng: Random, side: str, lo: int, hi: int) -> int:
    """A leaf count from the suite's histogram, redrawn until it lies in
    ``[lo, hi]``."""
    for _ in range(100):
        n = _pick(rng, _LEAVES[side])
        if lo <= n <= hi:
            return n
    return rng.randint(lo, hi)


def _small_bv(rng: Random, operad: str, min_leaves: int = 0, max_leaves: int = 9) -> dict:
    """A selftest-sized raw point: vertices and leaves from the suite's
    histograms, at most 2v+1 leaves on v vertices as in the suite's trees of
    arity at most 3."""
    nv = _pick(rng, _VERTICES["bv"])
    ties = rng.random() < TIE_SHARE
    hi = min(max_leaves, 2 * nv + 1)
    if operad == FREE:
        min_leaves, hi = max(1, min_leaves), min(hi, FREE_MAX_ARITY)
    elif operad == END2:
        # Each vertex and tied sibling may be nullary.
        hi = min(hi, END2_MAX_ENDS - nv - (3 if ties else 0))
    n = _leaves(rng, "bv", min_leaves, hi)
    return bv_point(rng, operad, nv, n, ties=ties, zero_p=SUITE_EDGE_ZERO,
                    one_p=SUITE_EDGE_ONE, unit_p=0.0)


def _small_wb(rng: Random, operad: str) -> dict:
    nv = _pick(rng, _VERTICES["wb"])
    hi, max_arity = 2 * nv + 1, 3
    if operad == FREE:
        return wb_point(rng, operad, nv, _leaves(rng, "wb", 1, min(hi, FREE_MAX_ARITY)),
                        unit_p=0.0)
    if operad == END2:
        return wb_point(rng, operad, nv, _leaves(rng, "wb", 0, min(hi, 3)), max_arity=2,
                        unit_p=0.0)
    return wb_point(rng, operad, nv, _leaves(rng, "wb", 0, hi),
                    ties=rng.random() < TIE_SHARE, unit_p=0.0)


def _tail_point(rng: Random, side: str) -> tuple[str, dict]:
    operad = _pick(rng, _TAIL_OPERADS[side])
    ties = rng.random() < TIE_SHARE
    if side == "wb":
        n = rng.randint(8, 16)
        return operad, wb_point(rng, operad, n, rng.randint(n // 2, n + 2), ties=ties)
    n = rng.randint(16, 64)
    if operad == END2:
        tips = rng.randint(1, 3)
        return operad, bv_chain_point(rng, operad, min(n, 32), tips,
                                      rng.randint(0, END2_MAX_ENDS - tips))
    return operad, bv_point(rng, operad, n, rng.randint(n // 2, n), ties=ties)


def _corrupt(rng: Random, kind: str, payload: dict) -> dict:
    """Break one validation rule of a raw point: an edge length or height
    outside [0,1], or a child vertex placed below its parent."""
    if kind == "normalize-bv":
        edges = sorted(payload["edgeParams"], key=int)
        if edges:
            payload["edgeParams"][rng.choice(edges)] = rng.choice(["3/2", "-1/4", "9/8"])
        else:
            payload["labels"][0] = element(rng, payload["operad"], len(payload["tree"]["sigma"]) + 1, 0.0)
        return payload
    vs = payload["vertices"]
    if len(vs) > 1 and rng.random() < 0.5:
        vs[0]["t"] = "1"
        for v in vs[1:]:
            v["t"] = "1/2"
    else:
        rng.choice(vs)["t"] = rng.choice(["5/4", "-1/8"])
    return payload


def normalize_entry(i: int) -> dict:
    """Catalog entry ``i`` of the normalize workload: ``{"argv", "stdin"}``
    as the CLI would take them."""
    rng = catalog_rng("normalize", i)
    r = rng.random()
    if r < REFUSE_SHARE + TAIL_SHARE:
        side = _pick(rng, _SIDES)
        kind = f"normalize-{side}"
        if r < TAIL_SHARE:
            operad, payload = _tail_point(rng, side)
            return {"argv": ["--operad", operad, kind], "stdin": dumps(payload)}
        operad = _operad(rng, side)
        payload = _small_bv(rng, operad) if side == "bv" else _small_wb(rng, operad)
        return {"argv": ["--operad", operad, kind],
                "stdin": dumps(_corrupt(rng, kind, payload)), "refuse": True}
    kind = _pick(rng, _KINDS)
    side = kind[-2:]
    operad = _operad(rng, side)
    if kind == "compose-bv":
        x = _small_bv(rng, operad, min_leaves=1)
        room = FREE_MAX_ARITY - arity_of(x) + 1 if operad == FREE else 9
        y = _small_bv(rng, operad, max_leaves=room)
        slot = rng.randint(1, arity_of(x))
        return {"argv": ["--operad", operad, kind, "--slot", str(slot)],
                "stdin": dumps({"x": x, "y": y})}
    payload = _small_bv(rng, operad) if side == "bv" else _small_wb(rng, operad)
    return {"argv": ["--operad", operad, kind], "stdin": dumps(payload)}


# ---------------------------------------------------------------------------
# The laws pool and catalog
# ---------------------------------------------------------------------------

# 40 samples of each kind, as the suite's mutant criterion draws them.
POOL_SIZES = {
    "bv:assoc": 40, "bv:com": 16, "bv:end:2": 12, "corolla:assoc": 12,
    "wb:assoc": 40, "wb:com": 16, "wb-interior:assoc": 12,
}


def pool_specs() -> dict[str, list[dict]]:
    """Raw payloads of the fixed laws pool, by group; the workload
    normalizes them once during set-up."""
    rng = Random("laws:pool")
    out: dict[str, list[dict]] = {}
    for group, n in POOL_SIZES.items():
        kind, operad = group.split(":", 1)
        items = []
        for _ in range(n):
            if kind == "bv":
                leaves = rng.randint(1, 2 if operad == END2 else 4)
                items.append(bv_point(rng, operad, rng.randint(1, 4), leaves,
                                      max_arity=2 if operad == END2 else 3))
            elif kind == "corolla":
                items.append(bv_point(rng, operad, 1, rng.randint(2, 3), word=False))
            elif kind == "wb":
                items.append(wb_point(rng, operad, rng.randint(1, 4), rng.randint(1, 4)))
            else:
                # Arity >= 2 keeps a non-unit vertex (assoc's arity-1
                # element is the unit), so every height stays interior.
                items.append(wb_point(rng, operad, rng.randint(1, 3), rng.randint(2, 4),
                                      interior=True))
        out[group] = items
    return out


_LAWS_MIX = tuple(_floored(SUITE_LAW_OPS, LAW_FLOOR, 1 - TRUNCATED_SHARE).items()) + (
    ("xi_truncated", TRUNCATED_SHARE),)
_LAW_OPERADS = _shares(SUITE_LAW_OPERADS)
LOOP_KERNELS = ("window", "constant", "mutant-unit", "mutant-multiplicative")
BIMOD_KERNELS = ("eta-mu-tilde", "xi-window", "mutant-bimod")
MUTANTS = {"mutant-unit", "mutant-multiplicative", "mutant-bimod"}


def random_cubes(rng: Random, n: int, den: int = 24) -> list[tuple[Fraction, Fraction]]:
    cuts = sorted(rng.sample(range(den + 1), 2 * n))
    cubes = [(Fraction(cuts[2 * j], den), Fraction(cuts[2 * j + 1], den)) for j in range(n)]
    rng.shuffle(cubes)
    return cubes


def laws_entry(i: int, arities: dict[str, list[int]]) -> dict:
    """Catalog entry ``i`` of the laws workload: an operation on pool
    points, named by group and index.  ``arities`` gives the arity of every
    pool point (normalization keeps the arity)."""
    rng = catalog_rng("laws", i)
    op = _pick(rng, _LAWS_MIX)
    operad = _pick(rng, _LAW_OPERADS)

    def point(kind: str, min_arity: int = 0) -> int:
        group = f"{kind}:{operad}"
        choices = [j for j, a in enumerate(arities[group]) if a >= min_arity]
        return rng.choice(choices)

    def perm(n: int) -> list[int]:
        p = list(range(1, n + 1))
        rng.shuffle(p)
        return p

    if op == "bv_compose":
        x = point("bv", 1)
        return {"op": op, "operad": operad, "x": x, "y": point("bv"),
                "slot": rng.randint(1, arities[f"bv:{operad}"][x])}
    if op in ("bv_act", "bv_roundtrip", "mu"):
        x = point("bv")
        return {"op": op, "operad": operad, "x": x, "sigma": perm(arities[f"bv:{operad}"][x])}
    if op == "wb_left":
        m = rng.randint(1, 3)
        return {"op": op, "operad": operad, "a": element(rng, operad, m),
                "xs": [point("wb") for _ in range(m)]}
    if op == "wb_right":
        x = point("wb", 1)
        m = rng.randint(0, 2)
        return {"op": op, "operad": operad, "x": x, "a": element(rng, operad, m),
                "slot": rng.randint(1, arities[f"wb:{operad}"][x])}
    if op in ("wb_act", "mu_tilde", "wb_prime_components"):
        x = point("wb")
        return {"op": op, "operad": operad, "x": x, "sigma": perm(arities[f"wb:{operad}"][x])}
    operad = ASSOC
    if op == "xi":
        return {"op": op, "operad": operad, "y": point("wb"), "kernel": rng.randrange(2)}
    if op == "alpha":
        n = rng.randint(1, 3)
        cubes = [[_text(a), _text(b)] for a, b in random_cubes(rng, n)]
        return {"op": op, "operad": operad, "y": point("wb"), "cubes": cubes,
                "maps": [rng.randrange(3) for _ in range(n)]}
    if op == "xi_truncated":
        return {"op": op, "operad": operad, "y": point("wb"), "k": rng.randint(1, 2)}
    size = rng.randint(3, 5)
    if op == "validate_loop":
        kernel = rng.choice(LOOP_KERNELS)
        group = {"mutant-unit": "bv:end:2", "mutant-multiplicative": "corolla:assoc"}.get(
            kernel, "bv:assoc")
    else:
        kernel = rng.choice(BIMOD_KERNELS)
        group = "wb-interior:assoc" if kernel == "mutant-bimod" else "wb:assoc"
    start = rng.randrange(len(arities[group]))
    window = [(start + j) % len(arities[group]) for j in range(size)]
    return {"op": op, "kernel": kernel, "group": group, "window": window,
            "rng": rng.randrange(1 << 30)}

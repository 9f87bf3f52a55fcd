"""Operad layer: the stock operads against the generic law validator and
hand-rolled composition oracles, plus interval-configuration algebra."""

from fractions import Fraction as F
from itertools import product
from random import Random

import pytest

from operad_forge.operads import (
    AssocOperad,
    ComOperad,
    CubeConfig,
    EndOperad,
    FreeTruncOperad,
    act_cubes,
    compose_cubes,
    compositions,
    gaps,
    identity_eta,
    identity_perm,
    operad_by_name,
    perm_compose,
    perm_inverse,
    sort_to_increasing,
    unit_cube,
    validate_eta,
    validate_operad,
)


@pytest.mark.parametrize(
    "op",
    [
        AssocOperad(),
        ComOperad(),
        EndOperad(2),
        operad_by_name("free:m=2:4"),
    ],
    ids=lambda o: o.name,
)
def test_stock_operads_satisfy_laws(op):
    report = validate_operad(op, max_arity=3)
    assert report.ok, report.to_json()


@pytest.mark.parametrize(
    "name, data",
    [
        ("assoc", [1, 1]),
        ("assoc", [1.7, 2]),
        ("assoc", [True, 2]),
        ("assoc", [2, 3]),
        ("assoc", "12"),
        ("com", 2.5),
        ("com", -3),
        ("com", True),
        ("com", "3"),
        ("end:2", [2, [0, 1]]),
        ("end:2", [1, [5, 0]]),
        ("end:2", [1, [0, True]]),
        ("end:2", [True, [0, 1]]),
        ("end:2", [1.0, [0, 1]]),
        ("end:2", [1, [0, 1], 7]),
        ("end:2", [10**18, [0, 1]]),
        ("free:m=2:3", ["zz", ["l", 1], ["l", 2]]),
        ("free:m=2:3", ["m", ["l", 1], ["l", 1]]),
        ("free:m=2:3", ["l", 1]),
        ("free:m=2:3", ["m", ["l", 1]]),
        ("free:m=2:3", ["m", ["l", 1], ["l", 3]]),
        ("free:m=2:3", ["m", ["l", 1], ["l", True]]),
        ("free:m=2:3", [["m"], ["l", 1], ["l", 2]]),
        ("free:m=2:3", []),
    ],
)
def test_decoders_refuse_non_elements(name, data):
    # an arity of 10**18 is refused from the table's length, with no
    # 2**(10**18) computed
    with pytest.raises(ValueError):
        operad_by_name(name).decode(data)


@pytest.mark.parametrize("name", ["assoc", "com", "end:2", "free:m=2:4"])
def test_decoders_accept_every_encoded_element(name):
    op = operad_by_name(name)
    for n in range(4):
        for x in op.elements(n) or []:
            assert op.decode(op.encode(x)) == x
    # end:1 has one table entry at every arity
    assert EndOperad(1).decode([10**18, [0]]) == (10**18, (0,))


class _LeftActionAssoc(AssocOperad):
    """``assoc`` acting on the left, ``x.sigma = AssocOperad.act(x, sigma^-1)``:
    the unit, associativity and identity-action laws hold, but
    ``(x.sigma).tau`` is ``x.(tau sigma)``, not ``x.(sigma tau)``."""

    name = "assoc-left"

    def act(self, x, sigma):
        return super().act(x, perm_inverse(sigma))


def test_validate_operad_catches_a_left_action():
    report = validate_operad(_LeftActionAssoc(), max_arity=3)
    assert any(v.law == "act-compose" for v in report.violations)


def _assoc_compose_oracle(s, i, t):
    """Block substitution on permutation words, written independently:
    relabel s's values around position of i, then splice t shifted."""
    n, m = len(s), len(t)
    out = []
    for v in s:
        if v == i:
            out.extend(w + i - 1 for w in t)
        else:
            out.append(v if v < i else v + m - 1)
    return tuple(out)


def test_assoc_compose_against_block_oracle():
    rng = Random(5)
    A = AssocOperad()
    for _ in range(300):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        s = tuple(rng.sample(range(1, n + 1), n))
        t = tuple(rng.sample(range(1, m + 1), m))
        i = rng.randint(1, n)
        assert A.compose(s, i, t) == _assoc_compose_oracle(s, i, t)


def test_end_compose_is_function_substitution():
    E = EndOperad(2)
    rng = Random(9)
    for _ in range(200):
        n, m = rng.randint(1, 2), rng.randint(1, 2)
        f = rng.choice(E.elements(n))
        g = rng.choice(E.elements(m))
        i = rng.randint(1, n)
        h = E.compose(f, i, g)
        assert h[0] == n + m - 1
        # oracle: evaluate both sides on every input tuple
        for args in _tuples(2, n + m - 1):
            inner = g[1][_index(args[i - 1 : i - 1 + m], 2)]
            outer_args = args[: i - 1] + (inner,) + args[i - 1 + m :]
            assert h[1][_index(args, 2)] == f[1][_index(outer_args, 2)]


def _tuples(base, k):
    if k == 0:
        return [()]
    rest = _tuples(base, k - 1)
    return [(v,) + r for v in range(base) for r in rest]


def _index(args, base):
    out = 0
    for a in args:
        out = out * base + a
    return out


def test_end_encoding_matches_evaluation_oracle():
    # sanity for the oracle above: arity-1 elements are the 4 functions 2->2
    E = EndOperad(2)
    assert len(E.elements(1)) == 4
    assert E.unit() in E.elements(1)


def test_perm_helpers():
    rng = Random(2)
    for _ in range(100):
        n = rng.randint(1, 6)
        s = tuple(rng.sample(range(1, n + 1), n))
        t = tuple(rng.sample(range(1, n + 1), n))
        assert perm_compose(s, identity_perm(n)) == s
        assert perm_compose(identity_perm(n), s) == s
        assert perm_compose(s, perm_inverse(s)) == identity_perm(n)
        # associativity of composition
        u = tuple(rng.sample(range(1, n + 1), n))
        assert perm_compose(perm_compose(s, t), u) == perm_compose(
            s, perm_compose(t, u)
        )


def test_compositions_against_product_filter():
    # product yields tuples in lexicographic order, so the filter fixes the
    # order as well as the set.
    for total in range(0, 7):
        for parts in range(0, total + 2):
            want = [
                c for c in product(range(1, total + 1), repeat=parts)
                if sum(c) == total
            ]
            assert list(compositions(total, parts)) == want


def test_operad_by_name_grammar():
    assert operad_by_name("assoc").name == "assoc"
    assert operad_by_name("com").name == "com"
    assert operad_by_name("end:2").name == "end:2"
    free = operad_by_name("free:a=2,b=3:4")
    assert isinstance(free, FreeTruncOperad)
    # ``l`` marks a leaf in the free operad's tree encoding, and a name
    # given twice would keep only its last arity
    for name in ("nonsense", "free:l=2:3", "free:a=2,l=3:4", "free:a=2,a=3:3",
                 "free:b=2,a=2,b=2:4"):
        with pytest.raises(ValueError):
            operad_by_name(name)
    with pytest.raises(ValueError, match="'l'"):
        FreeTruncOperad({"l": 2}, 3)


def test_identity_eta_validates():
    for op in (AssocOperad(), EndOperad(2)):
        assert validate_eta(identity_eta(op), max_arity=2).ok


def test_cube_config_validation():
    with pytest.raises(ValueError):
        CubeConfig(((F(0), F(2)),))  # endpoint outside [0,1]
    with pytest.raises(ValueError):
        CubeConfig(((F(1, 2), F(1, 4)),))  # reversed interval
    with pytest.raises(ValueError):
        CubeConfig(((F(0), F(1, 2)), (F(1, 4), F(3, 4))))  # overlap


def test_cube_operad_laws():
    rng = Random(13)

    def rand_cubes(n):
        cuts = sorted(rng.sample([F(i, 24) for i in range(25)], 2 * n))
        return CubeConfig(tuple((cuts[2 * j], cuts[2 * j + 1]) for j in range(n)))

    for _ in range(60):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        c, d = rand_cubes(n), rand_cubes(m)
        i = rng.randint(1, n)
        # unit laws
        assert compose_cubes(unit_cube(), 1, c) == c
        assert compose_cubes(c, i, unit_cube()) == c
        # substitution shrinks into the i-th cube
        big = compose_cubes(c, i, d)
        a, b = c.intervals[i - 1]
        for j in range(m):
            lo, hi = big.intervals[i - 1 + j]
            assert a <= lo <= hi <= b
        # equivariance: acting then composing = composing then acting
        sigma = tuple(rng.sample(range(1, n + 1), n))
        assert act_cubes(c, sigma).intervals == tuple(
            c.intervals[sigma[j] - 1] for j in range(n)
        )


def test_gaps_partition_the_interval():
    c = CubeConfig(((F(1, 8), F(1, 4)), (F(1, 2), F(3, 4))))
    gs = gaps(c)
    # gaps + cubes alternate and cover [0,1]
    points = [F(0)]
    for (glo, ghi), (clo, chi) in zip(gs, list(c.intervals) + [(F(1), F(1))]):
        assert glo == points[-1]
        assert ghi == clo
        points.append(chi)
    assert points[-1] == F(1)


def test_sort_to_increasing():
    c = CubeConfig(((F(1, 2), F(3, 4)), (F(0), F(1, 4))))
    inc, perm = sort_to_increasing(c)
    assert inc.intervals[0][0] <= inc.intervals[1][0]
    assert tuple(c.intervals[perm[j] - 1] for j in range(2)) == inc.intervals

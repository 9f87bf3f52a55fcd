"""Computable symmetric sequences and operads with decidable equality,
interval configurations for the little 1-cubes structure, operad maps, and
law validation.

Permutations ``sigma`` in the symmetric group on n letters are stored as the
tuple ``(sigma(1), ..., sigma(n))``.  The symmetric action follows the right
action convention ``(x . sigma) . tau = x . (sigma tau)`` with
``(sigma tau)(i) = tau(sigma(i))``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator, Optional


# ---------------------------------------------------------------------------
# Permutation and integer-composition helpers
# ---------------------------------------------------------------------------

Perm = tuple[int, ...]


def identity_perm(n: int) -> Perm:
    return tuple(range(1, n + 1))


def perm_compose(s: Perm, t: Perm) -> Perm:
    """The product ``st`` with ``(st)(i) = t(s(i))`` (apply ``s`` first)."""
    return tuple(t[si - 1] for si in s)


def perm_inverse(s: Perm) -> Perm:
    out = [0] * len(s)
    for i, si in enumerate(s, start=1):
        out[si - 1] = i
    return tuple(out)


def all_perms(n: int) -> Iterable[Perm]:
    return itertools.permutations(range(1, n + 1))


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All ways to write ``total`` as an ordered sum of ``parts`` positive
    integers, in lexicographic order."""
    if parts < 1:
        if parts == 0 and total == 0:
            yield ()
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# Operad interface
# ---------------------------------------------------------------------------


class Operad:
    """Uniform interface: decidable element equality per arity, a unit in
    arity 1, partial compositions, and the symmetric action."""

    name: str = "operad"
    #: largest arity the operad supports, or None when unbounded
    max_supported_arity: Optional[int] = None

    def unit(self) -> Any:
        raise NotImplementedError

    def arity(self, x: Any) -> int:
        raise NotImplementedError

    def compose(self, x: Any, i: int, y: Any) -> Any:
        raise NotImplementedError

    def act(self, x: Any, sigma: Perm) -> Any:
        raise NotImplementedError

    def elements(self, n: int) -> Optional[list]:
        """Finite per-arity enumerator, or ``None`` when unavailable."""
        return None

    def encode(self, x: Any):
        """JSON-able canonical encoding of an element."""
        raise NotImplementedError

    def decode(self, data: Any) -> Any:
        """The element that ``data`` encodes; ``ValueError`` when it encodes
        none.  This is where an element enters, so it is checked here."""
        raise NotImplementedError

    def is_unit(self, x: Any) -> bool:
        return self.arity(x) == 1 and x == self.unit()

    def _check_slot(self, x: Any, i: int) -> None:
        n = self.arity(x)
        if not 1 <= i <= n:
            raise IndexError(f"slot {i} out of range 1..{n}")


class ComOperad(Operad):
    """One operation per arity; elements are represented by their arity."""

    name = "com"

    def unit(self):
        return 1

    def arity(self, x):
        return x

    def compose(self, x, i, y):
        self._check_slot(x, i)
        return x + y - 1

    def act(self, x, sigma):
        return x

    def elements(self, n):
        return [n]

    def encode(self, x):
        return x

    def decode(self, data):
        if type(data) is not int or data < 0:
            raise ValueError(f"com element must be an integer >= 0, got {data!r:.60}")
        return data


class AssocOperad(Operad):
    """The symmetric-groups operad: the arity-n elements are the
    permutations of {1..n} stored as words; composition is block
    substitution with renumbering."""

    name = "assoc"

    def unit(self):
        return (1,)

    def arity(self, x):
        return len(x)

    def compose(self, x, i, y):
        self._check_slot(x, i)
        m = len(y)
        out: list[int] = []
        for letter in x:
            if letter == i:
                out.extend(v + (i - 1) for v in y)
            elif letter > i:
                out.append(letter + m - 1)
            else:
                out.append(letter)
        return tuple(out)

    def act(self, x, sigma):
        return tuple(sigma[w - 1] for w in x)

    def elements(self, n):
        return [tuple(p) for p in itertools.permutations(range(1, n + 1))]

    def encode(self, x):
        return list(x)

    def decode(self, data):
        if not (
            isinstance(data, (list, tuple))
            and all(type(v) is int for v in data)
            and sorted(data) == list(range(1, len(data) + 1))
        ):
            raise ValueError(
                f"assoc element must be a permutation of 1..n, got {data!r:.60}"
            )
        return tuple(data)


class EndOperad(Operad):
    """The endomorphism operad of the finite set {0..size-1}; an arity-n
    element is ``(n, table)`` with ``table`` listing outputs over the
    lexicographically ordered input tuples."""

    def __init__(self, size: int):
        if size < 1:
            raise ValueError("size must be >= 1")
        self.size = size
        self.name = f"end:{size}"

    def _inputs(self, n: int):
        return itertools.product(range(self.size), repeat=n)

    def _index(self, args: tuple[int, ...]) -> int:
        idx = 0
        for a in args:
            idx = idx * self.size + a
        return idx

    def unit(self):
        return (1, tuple(range(self.size)))

    def arity(self, x):
        return x[0]

    def compose(self, x, i, y):
        self._check_slot(x, i)
        n, tx = x
        m, ty = y
        out = []
        for args in self._inputs(n + m - 1):
            inner = ty[self._index(args[i - 1 : i - 1 + m])]
            outer = args[: i - 1] + (inner,) + args[i - 1 + m :]
            out.append(tx[self._index(outer)])
        return (n + m - 1, tuple(out))

    def act(self, x, sigma):
        n, tx = x
        out = []
        for args in self._inputs(n):
            out.append(tx[self._index(tuple(args[s - 1] for s in sigma))])
        return (n, tuple(out))

    def elements(self, n):
        return [
            (n, t)
            for t in itertools.product(range(self.size), repeat=self.size**n)
        ]

    def encode(self, x):
        return [x[0], list(x[1])]

    def decode(self, data):
        size = self.size
        if not (isinstance(data, (list, tuple)) and len(data) == 2):
            raise ValueError(f"{self.name} element must be [n, table], got {data!r:.60}")
        n, table = data
        # at size >= 2, size**n > n: an arity above the table's length is
        # refused before size**n is computed
        if not (
            type(n) is int
            and n >= 0
            and isinstance(table, (list, tuple))
            and (size == 1 or n <= len(table))
            and len(table) == size**n
            and all(type(v) is int and 0 <= v < size for v in table)
        ):
            raise ValueError(
                f"{self.name} element must be [n, table] with {size}**n table "
                f"entries in 0..{size - 1}, got {data!r:.60}"
            )
        return (n, tuple(table))


class FreeTruncOperad(Operad):
    """The free operad on finitely many generators of arity >= 2, restricted
    to arities <= ``max_arity`` so per-arity domains stay finite.

    Elements are the arity-1 unit or generator-labeled trees with leaves
    labeled 1..n, canonicalized by sorting children bottom-up (each generator
    spans a free symmetric orbit, so any per-vertex child reordering is an
    admissible presentation change).  Tree encoding: ``("l", k)`` for a leaf
    carrying input k, ``(gen, child, ...)`` for a generator vertex.
    """

    UNIT = ("unit",)

    def __init__(self, generators: dict[str, int], max_arity: int):
        for g, a in generators.items():
            if g == "l":  # the encoding's leaf marker
                raise ValueError("a generator may not be named 'l'")
            if a < 2:
                raise ValueError(f"generator {g!r} must have arity >= 2")
        self.generators = dict(sorted(generators.items()))
        self.max_supported_arity = max_arity
        gens = ",".join(f"{g}={a}" for g, a in self.generators.items())
        self.name = f"free:{gens}:{max_arity}"

    # -- tree helpers ------------------------------------------------------

    def _leaves(self, x) -> list[int]:
        if x[0] == "l":
            return [x[1]]
        out: list[int] = []
        for c in x[1:]:
            out.extend(self._leaves(c))
        return out

    def _canon(self, x):
        if x[0] == "l":
            return x
        return (x[0],) + tuple(sorted(self._canon(c) for c in x[1:]))

    def _relabel(self, x, mapping: dict[int, int]):
        if x[0] == "l":
            return ("l", mapping[x[1]])
        return (x[0],) + tuple(self._relabel(c, mapping) for c in x[1:])

    # -- operad interface --------------------------------------------------

    def unit(self):
        return self.UNIT

    def arity(self, x):
        if x == self.UNIT:
            return 1
        return len(self._leaves(x))

    def compose(self, x, i, y):
        self._check_slot(x, i)
        if x == self.UNIT:
            return y
        n, m, bound = self.arity(x), self.arity(y), self.max_supported_arity
        if n + m - 1 > bound:
            raise ValueError(f"composition arity {n + m - 1} exceeds bound {bound}")
        # Renumber x's leaves above i and y's leaves into the slot.
        def subst(t):
            if t[0] == "l":
                k = t[1]
                if k < i:
                    return t
                if k > i:
                    return ("l", k + m - 1)
                if y == self.UNIT:
                    return ("l", i)
                return self._relabel(y, {j: j + i - 1 for j in range(1, m + 1)})
            return (t[0],) + tuple(subst(c) for c in t[1:])

        return self._canon(subst(x))

    def act(self, x, sigma):
        if x == self.UNIT:
            return x
        return self._canon(self._relabel(x, {j: sigma[j - 1] for j in range(1, len(sigma) + 1)}))

    def elements(self, n):
        if n > self.max_supported_arity or n < 2:
            return [self.UNIT] if n == 1 else []
        out = set()
        for enc in self._all_shapes(n):
            for labels in itertools.permutations(range(1, n + 1)):
                it = iter(labels)
                out.add(self._canon(self._fill(enc, it)))
        return sorted(out)

    def _fill(self, enc, it):
        if enc == "l":
            return ("l", next(it))
        return (enc[0],) + tuple(self._fill(c, it) for c in enc[1:])

    def _all_shapes(self, n: int):
        """Unlabeled generator-trees with n leaves ('l' marks a leaf)."""
        if n == 1:
            yield "l"
            return
        for g, a in self.generators.items():
            if a > n:
                continue
            for split in compositions(n, a):
                for kids in itertools.product(
                    *[list(self._all_shapes(p)) for p in split]
                ):
                    yield (g,) + tuple(kids)

    def encode(self, x):
        def enc(t):
            if t[0] == "l":
                return ["l", t[1]]
            return [t[0]] + [enc(c) for c in t[1:]]

        return enc(x) if x != self.UNIT else ["unit"]

    def decode(self, data):
        """A generator tree with leaves labeled 1..n, each once, and each
        generator with as many children as its arity; or ``["unit"]``."""
        if isinstance(data, (list, tuple)) and list(data) == ["unit"]:
            return self.UNIT
        leaves: list[int] = []

        def dec(d):
            if not isinstance(d, (list, tuple)) or not d:
                raise ValueError(f"free tree node must be a non-empty list, got {d!r:.60}")
            if d[0] == "l":
                if len(d) != 2 or type(d[1]) is not int:
                    raise ValueError(f"free leaf must be ['l', k], got {d!r:.60}")
                leaves.append(d[1])
                return ("l", d[1])
            if not isinstance(d[0], str) or self.generators.get(d[0]) != len(d) - 1:
                raise ValueError(
                    f"not a generator of {self.name} with its arity: {d!r:.60}"
                )
            return (d[0],) + tuple(dec(c) for c in d[1:])

        x = dec(data)
        if x[0] == "l" or sorted(leaves) != list(range(1, len(leaves) + 1)):
            raise ValueError(
                f"free element must label its leaves 1..n, each once, below "
                f"a generator, got {data!r:.60}"
            )
        return self._canon(x)


def operad_by_name(name: str) -> Operad:
    """Resolve the CLI operad grammar: ``assoc`` | ``com`` | ``end:<size>``
    | ``free:g1=a1,g2=a2:<maxarity>``."""
    if name == "assoc":
        return AssocOperad()
    if name == "com":
        return ComOperad()
    if name.startswith("end:"):
        return EndOperad(int(name.split(":", 1)[1]))
    if name.startswith("free:"):
        _, gens, bound = name.split(":")
        generators = {}
        for part in gens.split(","):
            g, a = part.split("=")
            if g in generators:
                raise ValueError(f"generator {g!r} named twice in {name!r}")
            generators[g] = int(a)
        return FreeTruncOperad(generators, int(bound))
    raise ValueError(f"unknown operad {name!r}")


# ---------------------------------------------------------------------------
# Operad maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OperadMapEta:
    """An operad map given by a per-element function; validated by
    ``validate_eta`` on enumerable instances."""

    source: Operad
    target: Operad
    fn: Callable[[Any], Any]
    name: str = "eta"

    def __call__(self, x):
        return self.fn(x)


def identity_eta(operad: Operad) -> OperadMapEta:
    return OperadMapEta(operad, operad, lambda x: x, name="id")


# ---------------------------------------------------------------------------
# Validation reports
# ---------------------------------------------------------------------------


@dataclass
class Violation:
    law: str
    witness: dict


@dataclass
class ValidationReport:
    subject: str
    checked: int = 0
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, law: str, **witness) -> None:
        self.violations.append(Violation(law, witness))

    def to_json(self) -> dict:
        return {
            "subject": self.subject,
            "ok": self.ok,
            "checked": self.checked,
            "violations": [
                {"law": v.law, "witness": {k: repr(w) for k, w in v.witness.items()}}
                for v in self.violations
            ],
        }


def block_perm(sigma: Perm, i: int, m: int) -> Perm:
    """The permutation ``sigma composed at slot i with the identity on m
    letters``, computed inside the symmetric-groups operad."""
    return AssocOperad().compose(sigma, i, identity_perm(m))


def inner_perm(n: int, i: int, tau: Perm) -> Perm:
    """The permutation ``identity on n letters composed at slot i with tau``."""
    return AssocOperad().compose(identity_perm(n), i, tau)


def validate_operad(O: Operad, max_arity: int = 3) -> ValidationReport:
    """Exhaustively check unit, associativity, and equivariance laws on the
    enumerable arities up to ``max_arity`` (at most 64 elements each)."""
    report = ValidationReport(subject=O.name)
    pool = {n: (O.elements(n) or [])[:64] for n in range(0, max_arity + 1)}

    unit = O.unit()
    # Unit laws.
    for n, els in pool.items():
        for x in els:
            report.checked += 1
            for i in range(1, n + 1):
                if O.compose(x, i, unit) != x:
                    report.add("right-unit", x=x, i=i)
            if O.compose(unit, 1, x) != x:
                report.add("left-unit", x=x)
    # Identity action.
    for n, els in pool.items():
        for x in els:
            if O.act(x, identity_perm(n)) != x:
                report.add("act-identity", x=x)

    def triples():
        for n, xs in pool.items():
            for m, ys in pool.items():
                for p, zs in pool.items():
                    if n == 0:
                        continue
                    for x in xs:
                        for y in ys:
                            for z in zs:
                                yield n, m, p, x, y, z

    bound = O.max_supported_arity
    for n, m, p, x, y, z in triples():
        if n + m + p > max_arity + 2:
            continue
        if bound is not None and max(
            n + m - 1, n + p - 1, n + m + p - 2
        ) > bound:
            continue
        report.checked += 1
        # Nested associativity: (x o_i y) o_{i-1+j} z = x o_i (y o_j z).
        for i in range(1, n + 1):
            for j in range(1, m + 1):
                lhs = O.compose(O.compose(x, i, y), i - 1 + j, z)
                rhs = O.compose(x, i, O.compose(y, j, z))
                if lhs != rhs:
                    report.add("assoc-nested", x=x, y=y, z=z, i=i, j=j)
        # Parallel associativity: slots i < j of x.
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                lhs = O.compose(O.compose(x, i, y), j + m - 1, z)
                rhs = O.compose(O.compose(x, j, z), i, y)
                if lhs != rhs:
                    report.add("assoc-parallel", x=x, y=y, z=z, i=i, j=j)

    # Action composition and equivariance.
    for n, xs in pool.items():
        if n > 4:
            continue
        for x in xs[:16]:
            for sigma in all_perms(n):
                for tau in all_perms(n):
                    if O.act(O.act(x, sigma), tau) != O.act(
                        x, perm_compose(sigma, tau)
                    ):
                        report.add("act-compose", x=x, sigma=sigma, tau=tau)
    for n, xs in pool.items():
        for m, ys in pool.items():
            if n == 0 or n + m > max_arity + 1:
                continue
            if bound is not None and n + m - 1 > bound:
                continue
            for x in xs[:8]:
                for y in ys[:8]:
                    for sigma in all_perms(n):
                        inv = perm_inverse(sigma)
                        for i in range(1, n + 1):
                            # (x.sigma) o_i y = (x o_{sigma^{-1}(i)} y) . (sigma o_i 1_m)
                            lhs = O.compose(O.act(x, sigma), i, y)
                            rhs = O.act(
                                O.compose(x, inv[i - 1], y),
                                block_perm(sigma, i, m),
                            )
                            if lhs != rhs:
                                report.add(
                                    "equivariance-outer",
                                    x=x, y=y, sigma=sigma, i=i,
                                )
                    for tau in all_perms(m):
                        for i in range(1, n + 1):
                            lhs = O.compose(x, i, O.act(y, tau))
                            rhs = O.act(
                                O.compose(x, i, y), inner_perm(n, i, tau)
                            )
                            if lhs != rhs:
                                report.add(
                                    "equivariance-inner",
                                    x=x, y=y, tau=tau, i=i,
                                )
    return report


def validate_eta(eta: OperadMapEta, max_arity: int = 3) -> ValidationReport:
    """Check unit/composition/action preservation of an operad map on the
    enumerable part of its source (at most 32 elements per arity)."""
    report = ValidationReport(subject=eta.name)
    O, P = eta.source, eta.target
    if eta(O.unit()) != P.unit():
        report.add("unit-preservation", unit=O.unit())
    pool = {n: (O.elements(n) or [])[:32] for n in range(0, max_arity + 1)}
    for n, xs in pool.items():
        for x in xs:
            report.checked += 1
            for sigma in all_perms(n):
                if eta(O.act(x, sigma)) != P.act(eta(x), sigma):
                    report.add("action-preservation", x=x, sigma=sigma)
            for m, ys in pool.items():
                if n == 0 or n + m > max_arity + 1:
                    continue
                for y in ys:
                    for i in range(1, n + 1):
                        if eta(O.compose(x, i, y)) != P.compose(
                            eta(x), i, eta(y)
                        ):
                            report.add("composition-preservation", x=x, y=y, i=i)
    return report


# ---------------------------------------------------------------------------
# Little 1-cubes configurations
# ---------------------------------------------------------------------------

Interval = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class CubeConfig:
    """An ordered family of n affine subintervals of [0,1] with pairwise
    disjoint interiors — a point of the little 1-cubes space in arity n."""

    intervals: tuple[Interval, ...]

    def __post_init__(self) -> None:
        for a, b in self.intervals:
            if not (0 <= a < b <= 1):
                raise ValueError(f"interval [{a},{b}] not valid inside [0,1]")
        by_start = sorted(self.intervals)
        for (a1, b1), (a2, b2) in zip(by_start, by_start[1:]):
            if b1 > a2:
                raise ValueError(
                    f"intervals [{a1},{b1}] and [{a2},{b2}] overlap"
                )

    @property
    def n(self) -> int:
        return len(self.intervals)

    @property
    def is_sorted(self) -> bool:
        return all(
            b1 <= a2
            for (_, b1), (a2, _) in zip(self.intervals, self.intervals[1:])
        )


def unit_cube() -> CubeConfig:
    return CubeConfig(((Fraction(0), Fraction(1)),))


def act_cubes(c: CubeConfig, sigma: Perm) -> CubeConfig:
    """Symmetric action: component j of the result is component sigma(j)."""
    return CubeConfig(tuple(c.intervals[s - 1] for s in sigma))


def compose_cubes(c: CubeConfig, i: int, d: CubeConfig) -> CubeConfig:
    """Replace cube i of ``c`` by the images of ``d`` under its affine map."""
    if not 1 <= i <= c.n:
        raise IndexError(f"cube index {i} out of range 1..{c.n}")
    a, b = c.intervals[i - 1]
    w = b - a
    images = tuple((a + w * x, a + w * y) for x, y in d.intervals)
    return CubeConfig(c.intervals[: i - 1] + images + c.intervals[i:])


def gaps(c: CubeConfig) -> list[Interval]:
    """The n+1 closed complementary gap intervals of a sorted configuration."""
    if not c.is_sorted:
        raise ValueError("configuration must be sorted increasing")
    out: list[Interval] = []
    prev = Fraction(0)
    for a, b in c.intervals:
        out.append((prev, a))
        prev = b
    out.append((prev, Fraction(1)))
    return out


def sort_to_increasing(c: CubeConfig) -> tuple[CubeConfig, Perm]:
    """Sorted copy plus the permutation sigma with ``sorted = c . sigma``."""
    order = sorted(range(c.n), key=lambda j: c.intervals[j])
    sigma = tuple(j + 1 for j in order)
    return act_cubes(c, sigma), sigma

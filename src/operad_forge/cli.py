"""Command-line surface: JSON on stdin/stdout, DOT on demand, and the
acceptance self-test.

Each request has one spelling: the top level takes ``--operad`` and
``--budget``, and every other option is on the commands that read it.

Exit codes: 0 success, 1 validation failure (a JSON witness object is
printed on standard output), 2 command-grammar or input-parse errors,
including input nested too deeply to process and a ``--k`` or ``--l``
below 1 for ``cells``, ``graph`` or ``reedy``.

Every command takes one request path.  ``_operad`` resolves ``--operad``
first (an ``end:N`` with ``N`` over the budget is refused there), then the
command resolves its kernel, then reads stdin.  ``_refused`` is the one
place that turns bad input into an exit-1 witness or an exit-2 message.
The point commands read either resolution through ``_resolution`` and
write their documents with its text writer (``serialize.bv_text`` or
``serialize.wb_text``), which keeps its own stack.  The grade commands
(``cells``, ``graph`` and ``reedy``) pass ``_within_budget`` before
anything is built.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from types import SimpleNamespace
from typing import Any, Callable, Optional

from .bv import bv_compose, bv_is_prime, bv_normalize, bv_filtration, bv_prime_components, mu
from .cells import (
    build_graph,
    census_lower_bound,
    census_size,
    class_count,
    class_lower_bound,
    generate_classes,
    graph_classes,
    h_membership,
    homotopy_H,
    subgraph_i,
)
from .mapping import (
    BimodMapElement,
    LoopElement,
    alpha,
    constant_loop,
    eta_mu_tilde,
    table_eta,
    window_loop,
    xi,
)
from .operads import EndOperad, Operad, identity_eta, operad_by_name
from .serialize import (
    bv_from_json,
    bv_text,
    class_to_json,
    cubes_from_json,
    dot_bv,
    dot_graph,
    dot_tree,
    dot_wb,
    dumps,
    frac_str,
    graph_to_json,
    parse_frac,
    reedy_text,
    tree_from_json,
    upsilon_from_json,
    wb_from_json,
    wb_text,
)
from .wb import (
    mu_tilde,
    wb_filtration,
    wb_is_prime,
    wb_left,
    wb_normalize,
    wb_prime_components,
    wb_right,
)


class CliInputError(Exception):
    """Malformed stdin payload or kernel file: exit status 2."""


class CliValidationError(Exception):
    """Well-formed input that violates a precondition: exit status 1 with a
    JSON witness."""

    def __init__(self, message: str, **witness: Any):
        super().__init__(message)
        self.witness = {"error": message, **witness}


DEFAULT_BUDGET = 200000
_BAD_INPUT = (ValueError, KeyError, IndexError, TypeError)


def _refused(error: type, prefix: str, fn: Callable[[], Any], **witness: Any) -> Any:
    """``fn()``, with bad input refused: a ``ValueError``, ``KeyError``,
    ``IndexError`` or ``TypeError`` it raises becomes ``error`` with the
    message ``prefix`` and the exception's, either ``CliValidationError``
    (exit 1, a witness with the fields ``witness``) or ``CliInputError``
    (exit 2)."""
    try:
        return fn()
    except _BAD_INPUT as exc:
        raise error(f"{prefix}{exc}", **witness) from exc


def _within_budget(args, k: int, l: int, noun: str, bound: Callable[[], int],
                   count: Callable[[], int]) -> int:
    """The count of grade ``(k, l)``, refused over the budget before
    anything is built, in one order of checks.  First ``k``: an index has
    ``k`` geometric inputs, and at ``l >= 2`` the census and class counts
    are at least ``k``.  Then ``l``: every grade has at least ``2**l - 2``
    classes (``cells.class_count``), which exceeds the budget exactly when
    ``l >= (budget + 2).bit_length()``.  Then ``bound()``, a closed-form
    lower bound on the count, exact at ``l = 2`` and worded "at least"
    otherwise.  Last ``count()``, the exact count."""
    budget = args.budget
    if k < 1 or l < 1:
        raise CliInputError(f"--k and --l must be >= 1, got --k {k} --l {l}")
    if k > budget:
        raise CliValidationError(f"k {k} exceeds budget {budget}", k=k, l=l)
    if l >= (budget + 2).bit_length():
        raise CliValidationError(
            f"l {l} exceeds budget {budget}: grade ({k}, {l}) has at least "
            f"2**{l} - 2 classes", k=k, l=l,
        )
    n, at_least = bound(), "" if l == 2 else "at least "
    if n <= budget:
        n, at_least = count(), ""
    if n > budget:
        raise CliValidationError(f"{noun} {at_least}{n} exceeds budget {budget}", k=k, l=l)
    return n


def _read_json(stream) -> Any:
    """The JSON document on ``stream``.  Anything ``json.loads`` refuses
    exits 2: a ``JSONDecodeError``, and the plain ``ValueError`` of an
    integer literal longer than the interpreter's integer-string limit."""
    text = stream.read()
    try:
        return json.loads(text)
    except ValueError as exc:
        raise CliInputError(f"stdin is not valid JSON: {exc}") from exc


def _operad(args) -> Operad:
    """The operad that ``--operad`` names.  An ``end:N`` with ``N`` over the
    budget is refused before anything is built: its unit alone lists ``N``
    values, and every cut of a bimodule point by height builds the unit."""
    op = _refused(CliInputError, "", lambda: operad_by_name(args.operad))
    if isinstance(op, EndOperad) and op.size > args.budget:
        raise CliValidationError(
            f"operad size {op.size} exceeds budget {args.budget}", operad=op.name,
        )
    return op


def _resolution(kind: str) -> SimpleNamespace:
    """What the point commands use of one resolution: ``bv``, the operad
    resolution, or ``wb``, the bimodule resolution.  It is built when a
    command runs, so each function is the module's binding at that moment,
    which a test or the benchmark's tracer may have rebound."""
    if kind == "bv":
        return SimpleNamespace(
            noun="resolution point", decode=bv_from_json, normalize=bv_normalize,
            text=bv_text, dot=dot_bv, image=mu, components=bv_prime_components,
            is_prime=bv_is_prime, filtration=bv_filtration,
        )
    return SimpleNamespace(
        noun="bimodule point", decode=wb_from_json, normalize=wb_normalize,
        text=wb_text, dot=dot_wb, image=mu_tilde, components=wb_prime_components,
        is_prime=wb_is_prime, filtration=wb_filtration,
    )


def _read_point(r: SimpleNamespace, op: Operad, data: Any) -> Any:
    """The normal form of the point of resolution ``r`` that ``data`` spells."""
    return r.normalize(r.decode(data, op))


def _write(text: str, stream=None) -> None:
    """Write ``text`` in full to ``stream``, standard output by default.  A
    signal that interrupts a blocked pipe write makes the binary layer take
    only part of the bytes, and the text layer drops the rest, so the bytes
    go to the binary layer in a loop until all are taken."""
    out = sys.stdout if stream is None else stream
    buffer = getattr(out, "buffer", None)
    if buffer is None:  # an in-memory text stream
        out.write(text)
        return
    out.flush()
    data = memoryview(text.encode(out.encoding, out.errors))
    while data:
        data = data[buffer.write(data):]
    buffer.flush()


def _emit(payload: Any) -> None:
    _write(dumps(payload) + "\n")


# ---------------------------------------------------------------------------
# Named kernels
# ---------------------------------------------------------------------------


def _load_kernel_spec(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise CliInputError(f"cannot read kernel file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliInputError(f"kernel file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(spec, dict) or not isinstance(spec.get("table"), dict):
        raise CliInputError(f"kernel file {path!r} must hold a 'table' object")
    return spec


def _kernel_table(path: str, raw: dict, operad: Operad) -> dict:
    """A kernel file's table, keyed as ``table_eta`` looks its elements up:
    by ``operad.key(x)`` of each decoded key ``x``, whatever spacing or
    presentation the file gave it.  A key or an image that is not an
    element, an image of another arity than its key, and two keys for one
    element with different images are refused."""
    table: dict = {}
    for text, image in raw.items():
        x, y = _refused(  # a JSONDecodeError is a ValueError
            CliInputError, f"kernel file {path!r}: entry {text[:40]!r}: ",
            lambda: (operad.decode(json.loads(text)), operad.decode(image)),
        )
        if operad.arity(y) != operad.arity(x):
            raise CliInputError(
                f"kernel file {path!r}: entry {text[:40]!r} has an image of arity "
                f"{operad.arity(y)}, not {operad.arity(x)}"
            )
        key, value = operad.key(x), operad.encode(y)
        if table.setdefault(key, value) != value:
            raise CliInputError(f"kernel file {path!r}: two images for {key[:40]}")
    return table


def _loop_kernel(name: str, operad: Operad) -> LoopElement:
    """Resolve a loop-kernel name: ``constant`` or ``table:<file>``."""
    eta = identity_eta(operad)
    if name == "constant":
        return constant_loop(eta)
    if name.startswith("table:"):
        path = name[len("table:"):]
        spec = _load_kernel_spec(path)
        window = spec.get("window", ["1/3", "2/3"])
        endo = table_eta(operad, _kernel_table(path, spec["table"], operad), name="table")
        try:  # window_loop refuses a window outside 0 <= lo < hi <= 1
            lo, hi = (parse_frac(w) for w in window)
            return window_loop(eta, endo, (lo, hi), name=f"table[{lo},{hi}]")
        except (ValueError, TypeError) as exc:
            raise CliInputError(f"bad kernel window {window!r}") from exc
    raise CliInputError(f"unknown kernel {name!r} (expected 'constant' or 'table:<file>')")


def _bimod_kernel(name: str, operad: Operad) -> BimodMapElement:
    """Resolve a bimodule-map kernel name: the delooping of the loop kernel
    (``constant`` short-circuits to the basepoint map)."""
    if name == "constant":
        return eta_mu_tilde(identity_eta(operad))
    return xi(_loop_kernel(name, operad))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_normalize(args) -> int:
    op, r = _operad(args), _resolution(args.kind)
    p = _refused(CliValidationError, f"invalid {r.noun}: ",
                 lambda: _read_point(r, op, _read_json(sys.stdin)))
    if args.format == "dot":
        _write(r.dot(p))
    else:
        _write(r.text(p) + "\n")
    return 0


def _cmd_compose_bv(args) -> int:
    op = _operad(args)
    data = _read_json(sys.stdin)
    x, y = _refused(CliInputError, "payload must be {'x': point, 'y': point}: ",
                    lambda: (bv_from_json(data["x"], op), bv_from_json(data["y"], op)))
    _write(_refused(
        CliValidationError, "",
        lambda: bv_text(bv_compose(bv_normalize(x), args.slot, bv_normalize(y))),
        slot=args.slot,
    ) + "\n")
    return 0


def _cmd_bimod_left(args) -> int:
    op = _operad(args)
    data = _read_json(sys.stdin)
    a, xs = _refused(
        CliInputError, "payload must be {'a': element, 'args': [point,...]}: ",
        lambda: (op.decode(data["a"]),
                 [wb_normalize(wb_from_json(d, op)) for d in data["args"]]),
    )
    _write(_refused(CliValidationError, "", lambda: wb_text(wb_left(a, xs))) + "\n")
    return 0


def _cmd_bimod_right(args) -> int:
    op = _operad(args)
    data = _read_json(sys.stdin)
    x, a = _refused(
        CliInputError, "payload must be {'x': point, 'a': element}: ",
        lambda: (wb_normalize(wb_from_json(data["x"], op)), op.decode(data["a"])),
    )
    _write(_refused(CliValidationError, "", lambda: wb_text(wb_right(x, args.slot, a)),
                    slot=args.slot) + "\n")
    return 0


def _cmd_image(args) -> int:
    op, r = _operad(args), _resolution(args.kind)
    x = _refused(CliValidationError, f"invalid {r.noun}: ",
                 lambda: _read_point(r, op, _read_json(sys.stdin)))
    _emit({"value": op.encode(_refused(CliValidationError, "", lambda: r.image(x)))})
    return 0


def _cmd_prime(args) -> int:
    op, r = _operad(args), _resolution(args.kind)
    data = _read_json(sys.stdin)

    def answer() -> str:
        x = _read_point(r, op, data)
        components = ",".join(r.text(c) for c in r.components(x))
        prime = "true" if r.is_prime(x) else "false"
        return f'{{"components":[{components}],"prime":{prime}}}'

    _write(_refused(CliValidationError, "invalid point: ", answer) + "\n")
    return 0


def _cmd_filtration(args) -> int:
    op, r = _operad(args), _resolution(args.kind)
    data = _read_json(sys.stdin)
    member = _refused(CliValidationError, "invalid point: ",
                      lambda: r.filtration(r.decode(data, op), args.k, args.l))
    _emit({"k": args.k, "l": args.l, "member": member})
    return 0


def _cmd_cells(args) -> int:
    k, l, flag = args.k, args.l, args.nontrivial
    size = _within_budget(args, k, l, "census size", lambda: census_lower_bound(k, l, flag),
                          lambda: census_size(k, l, flag))
    _emit({
        "k": k,
        "l": l,
        "census": size,
        "classes": [class_to_json(c) for c in generate_classes(k, l, flag)],
    })
    return 0


def _cmd_act(args) -> int:
    op = _operad(args)
    data = _read_json(sys.stdin)
    c, y = _refused(
        CliInputError, "payload must be {'cubes': [[a,b],...], 'point': point}: ",
        lambda: (cubes_from_json(data), wb_normalize(wb_from_json(data["point"], op))),
    )
    kernels = args.kernel or ["constant"]
    if len(kernels) == 1 and c.n > 1:
        kernels = kernels * c.n
    if len(kernels) != c.n:
        raise CliInputError(
            f"{c.n} cubes need {c.n} kernels, got {len(kernels)}"
        )
    fs = [_bimod_kernel(k, op) for k in kernels]
    _emit({"value": op.encode(_refused(CliValidationError, "", lambda: alpha(c, fs)(y)))})
    return 0


def _cmd_deloop(args) -> int:
    op = _operad(args)
    f = _bimod_kernel(args.kernel, op)
    value = _refused(CliValidationError, "invalid bimodule point: ",
                     lambda: f(wb_normalize(wb_from_json(_read_json(sys.stdin), op))))
    _emit({"value": op.encode(value)})
    return 0


def _graph(args):
    """The contraction graph of grade ``(k, l)``, refused over the budget on
    its class count before any class is generated."""
    k, l = args.k, args.l
    _within_budget(args, k, l, "class count", lambda: class_lower_bound(k, l),
                   lambda: class_count(k, l, require_nontrivial_main=True))
    return build_graph(k, l, graph_classes(k, l))


def _cmd_graph(args) -> int:
    g = _graph(args)
    if args.level is not None:
        g = _refused(CliValidationError, "", lambda: subgraph_i(g, args.level),
                     level=args.level)
    if args.format == "dot":
        _write(dot_graph(g))
    else:
        _emit(graph_to_json(g))
    return 0


def _cmd_reedy(args) -> int:
    _write(reedy_text(_graph(args)) + "\n")
    return 0


def _cmd_homotopy_h(args) -> int:
    data = _read_json(sys.stdin)
    idx, heights, aux, u = _refused(
        CliInputError,
        "payload must be {'index': cell, 'heights': [...], 'auxParams': [[...],...]}: ",
        lambda: (
            upsilon_from_json(data["index"]),
            tuple(parse_frac(t) for t in data["heights"]),
            tuple(tuple(parse_frac(p) for p in row) for row in data["auxParams"]),
            parse_frac(args.u),
        ),
    )
    new_h, new_aux = _refused(CliValidationError, "",
                              lambda: homotopy_H(idx, heights, aux, u), u=frac_str(u))
    _emit({
        "heights": [frac_str(t) for t in new_h],
        "auxParams": [[frac_str(p) for p in row] for row in new_aux],
        "membership": {
            v: h_membership(idx, new_h, new_aux, v) for v in ("H", "H-")
        },
    })
    return 0


def _cmd_export_dot(args) -> int:
    data = _read_json(sys.stdin)
    _write(_refused(CliValidationError, "invalid tree: ",
                    lambda: dot_tree(tree_from_json(data))))
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_acceptance

    results = run_acceptance(
        seed=args.seed, scale=args.scale,
        report=lambda r: _write(r.line + "\n"),
    )
    return 0 if all(r.ok for r in results) else 1


# ---------------------------------------------------------------------------
# Argument grammar
# ---------------------------------------------------------------------------


def _finite_float(text: str) -> float:
    """A float option's value; ``nan``, ``inf`` and overflows such as
    ``1e309`` are refused as grammar errors."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"invalid finite float value: {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """Writes usage, grammar errors and help in full through ``_write`` (its
    subparsers share its class); as argparse, ignores a missing or failing stream."""

    def _print_message(self, message, file=None):
        try:
            _write(message, file or sys.stderr)
        except (AttributeError, OSError):
            pass


def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="operad-forge",
        description="Exact engine for operadic tree resolutions: "
        "normal forms, bimodule actions, deloopings, and cell complexes.",
    )
    top.add_argument("--operad", default="assoc",
                     help="assoc | com | end:<size> | free:g1=a1,...:<maxarity>")
    top.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                     help="enumeration cap (default: %(default)s)")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, **defaults):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn, **defaults)
        return p

    add("normalize-bv", _cmd_normalize,
        "canonical form of an operad-resolution point (stdin JSON)", kind="bv")
    add("normalize-wb", _cmd_normalize,
        "canonical form of a bimodule-resolution point (stdin JSON)", kind="wb")
    p = add("compose-bv", _cmd_compose_bv, "operadic composition of two points")
    p.add_argument("--slot", type=int, required=True)
    add("bimod-left", _cmd_bimod_left, "left action of an operad element")
    p = add("bimod-right", _cmd_bimod_right, "right action of an operad element")
    p.add_argument("--slot", type=int, required=True)
    add("mu", _cmd_image, "structure map to the base operad", kind="bv")
    add("mu-tilde", _cmd_image, "bimodule structure map to the base operad", kind="wb")
    p = add("prime", _cmd_prime, "primality and prime components")
    p.add_argument("--kind", choices=("bv", "wb"), default="bv")
    p = add("filtration", _cmd_filtration, "filtration-stage membership")
    p.add_argument("--kind", choices=("bv", "wb"), default="bv")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, default=None)
    p = add("cells", _cmd_cells, "cell census and isomorphism classes")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--nontrivial", action="store_true",
                   help="restrict to non-corolla main trees")
    p = add("act", _cmd_act, "interval-algebra action on a point")
    p.add_argument("--kernel", action="append",
                   help="one per cube: constant | table:<file> (repeatable)")
    p = add("deloop", _cmd_deloop, "delooped bimodule map applied to a point")
    p.add_argument("--kernel", default="constant",
                   help="constant | table:<file>")
    p = add("graph", _cmd_graph, "contraction graph of cell classes")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--level", type=int, default=None,
                   help="two-level subgraph at this contraction depth")
    p = add("reedy", _cmd_reedy, "Reedy index data of the contraction graph")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p = add("homotopy-h", _cmd_homotopy_h, "straightening homotopy at time u")
    p.add_argument("--u", required=True, help="rational time in [0,1], e.g. 1/3")
    add("export-dot", _cmd_export_dot, "DOT rendering of a tree (stdin JSON)")
    p = add("selftest", _cmd_selftest, "run the full acceptance suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=_finite_float, default=1.0,
                   help="shrink randomized sample counts (default: 1.0, full)")
    for name in ("normalize-bv", "normalize-wb", "graph"):  # the commands that write DOT
        sub.choices[name].add_argument("--format", choices=("json", "dot"), default="json")
    return top


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on grammar errors and 0 on --help; keep both.
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except CliInputError as exc:
        _write(f"operad-forge: {exc}\n", sys.stderr)
        return 2
    except CliValidationError as exc:
        _emit(exc.witness)
        return 1
    except RecursionError:
        _write("operad-forge: input nested too deeply\n", sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

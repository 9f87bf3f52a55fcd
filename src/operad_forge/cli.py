"""Command-line surface: JSON on stdin/stdout, DOT on demand, and the
acceptance self-test.

Exit codes: 0 success, 1 validation failure (a JSON witness object is
printed on standard output), 2 command-grammar or input-parse errors,
including input nested too deeply to process and grading parameters
below 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Any, Optional

from .bv import bv_compose, bv_is_prime, bv_normalize, bv_filtration, bv_prime_components, mu
from .cells import (
    TreeClass,
    build_graph,
    census_size,
    class_count,
    generate_classes,
    graph_classes,
    h_membership,
    homotopy_H,
    latching_index,
    reedy_of,
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
from .operads import Operad, identity_eta, operad_by_name
from .serialize import (
    bv_from_json,
    bv_to_json,
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
    reedy_to_json,
    tree_from_json,
    upsilon_from_json,
    wb_from_json,
    wb_to_json,
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


def _budget(args) -> int:
    if args.budget is not None:
        return args.budget
    env = os.environ.get("OPERAD_FORGE_BUDGET")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise CliInputError(f"OPERAD_FORGE_BUDGET not an integer: {env!r}") from exc
    return DEFAULT_BUDGET


def _grade_budget(args, k: int, l: int) -> int:
    """The budget for grade ``(k, l)``, checked before anything is counted:
    an index has ``k`` geometric inputs, and the census and class counts are
    at least ``k`` (at ``l >= 2``) and ``2**l - 2`` (``cells.class_count``),
    which exceeds the budget exactly when ``l >= (budget + 2).bit_length()``."""
    budget = _budget(args)
    if k < 1 or l < 1:
        raise CliInputError(f"--k and --l must be >= 1, got --k {k} --l {l}")
    if k > budget:
        raise CliValidationError(f"k {k} exceeds budget {budget}", k=k, l=l)
    if l >= (budget + 2).bit_length():
        raise CliValidationError(
            f"l {l} exceeds budget {budget}: grade ({k}, {l}) has at least "
            f"2**{l} - 2 classes", k=k, l=l,
        )
    return budget


def _read_json(stream) -> Any:
    text = stream.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliInputError(f"stdin is not valid JSON: {exc}") from exc


def _operad(args) -> Operad:
    try:
        return operad_by_name(args.operad)
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc


def _write(text: str) -> None:
    """Write ``text`` to standard output in full.  A signal that interrupts
    a blocked pipe write makes the binary layer take only part of the bytes,
    and the text layer drops the rest, so the bytes go to the binary layer
    in a loop until all are taken."""
    out = sys.stdout
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
    by ``json.dumps(encode(x), sort_keys=True)`` of each decoded key ``x``,
    whatever spacing or presentation the file gave it.  A key or an image
    that is not an element, an image of another arity than its key, and two
    keys for one element with different images are refused."""
    table: dict = {}
    for text, image in raw.items():
        try:
            x = operad.decode(json.loads(text))
            y = operad.decode(image)
        except ValueError as exc:  # a JSONDecodeError is a ValueError
            raise CliInputError(f"kernel file {path!r}: entry {text[:40]!r}: {exc}") from exc
        if operad.arity(y) != operad.arity(x):
            raise CliInputError(
                f"kernel file {path!r}: entry {text[:40]!r} has an image of arity "
                f"{operad.arity(y)}, not {operad.arity(x)}"
            )
        key, value = json.dumps(operad.encode(x), sort_keys=True), operad.encode(y)
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


def _cmd_normalize_bv(args) -> int:
    op = _operad(args)
    try:
        p = bv_normalize(bv_from_json(_read_json(sys.stdin), op))
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise CliValidationError(f"invalid resolution point: {exc}")
    if args.format == "dot":
        _write(dot_bv(p))
    else:
        _emit(bv_to_json(p))
    return 0


def _cmd_normalize_wb(args) -> int:
    op = _operad(args)
    try:
        p = wb_normalize(wb_from_json(_read_json(sys.stdin), op))
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise CliValidationError(f"invalid bimodule point: {exc}")
    if args.format == "dot":
        _write(dot_wb(p))
    else:
        _emit(wb_to_json(p))
    return 0


def _cmd_compose_bv(args) -> int:
    op = _operad(args)
    data = _read_json(sys.stdin)
    try:
        x = bv_from_json(data["x"], op)
        y = bv_from_json(data["y"], op)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise CliInputError(f"payload must be {{'x': point, 'y': point}}: {exc}")
    try:
        _emit(bv_to_json(bv_compose(bv_normalize(x), args.slot, bv_normalize(y))))
    except (ValueError, IndexError) as exc:
        raise CliValidationError(str(exc), slot=args.slot)
    return 0


def _cmd_bimod_left(args) -> int:
    op = _operad(args)
    data = _read_json(sys.stdin)
    try:
        a = op.decode(data["a"])
        xs = [wb_normalize(wb_from_json(d, op)) for d in data["args"]]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise CliInputError(f"payload must be {{'a': element, 'args': [point,...]}}: {exc}")
    try:
        _emit(wb_to_json(wb_left(a, xs)))
    except (ValueError, IndexError) as exc:
        raise CliValidationError(str(exc))
    return 0


def _cmd_bimod_right(args) -> int:
    op = _operad(args)
    data = _read_json(sys.stdin)
    try:
        x = wb_normalize(wb_from_json(data["x"], op))
        a = op.decode(data["a"])
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise CliInputError(f"payload must be {{'x': point, 'a': element}}: {exc}")
    try:
        _emit(wb_to_json(wb_right(x, args.slot, a)))
    except (ValueError, IndexError) as exc:
        raise CliValidationError(str(exc), slot=args.slot)
    return 0


def _cmd_mu(args) -> int:
    op = _operad(args)
    try:
        x = bv_normalize(bv_from_json(_read_json(sys.stdin), op))
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise CliValidationError(f"invalid resolution point: {exc}")
    _emit({"value": op.encode(mu(x))})
    return 0


def _cmd_mu_tilde(args) -> int:
    op = _operad(args)
    try:
        x = wb_normalize(wb_from_json(_read_json(sys.stdin), op))
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise CliValidationError(f"invalid bimodule point: {exc}")
    _emit({"value": op.encode(mu_tilde(x))})
    return 0


def _cmd_prime(args) -> int:
    op = _operad(args)
    data = _read_json(sys.stdin)
    try:
        if args.kind == "bv":
            x = bv_normalize(bv_from_json(data, op))
            comps = [bv_to_json(c) for c in bv_prime_components(x)]
            prime = bv_is_prime(x)
        else:
            x = wb_normalize(wb_from_json(data, op))
            comps = [wb_to_json(c) for c in wb_prime_components(x)]
            prime = wb_is_prime(x)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise CliValidationError(f"invalid point: {exc}")
    _emit({"prime": prime, "components": comps})
    return 0


def _cmd_filtration(args) -> int:
    op = _operad(args)
    data = _read_json(sys.stdin)
    try:
        if args.kind == "bv":
            member = bv_filtration(bv_from_json(data, op), args.k, args.l)
        else:
            member = wb_filtration(wb_from_json(data, op), args.k, args.l)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise CliValidationError(f"invalid point: {exc}")
    _emit({"k": args.k, "l": args.l, "member": member})
    return 0


def _cmd_cells(args) -> int:
    budget = _grade_budget(args, args.k, args.l)
    size = census_size(args.k, args.l, args.nontrivial)
    if size > budget:
        raise CliValidationError(
            f"census size {size} exceeds budget {budget}",
            k=args.k, l=args.l,
        )
    classes = generate_classes(args.k, args.l, args.nontrivial)
    _emit({
        "k": args.k,
        "l": args.l,
        "census": size,
        "classes": [class_to_json(c) for c in classes],
    })
    return 0


def _cmd_act(args) -> int:
    op = _operad(args)
    data = _read_json(sys.stdin)
    try:
        c = cubes_from_json(data)
        y = wb_normalize(wb_from_json(data["point"], op))
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise CliInputError(
            f"payload must be {{'cubes': [[a,b],...], 'point': point}}: {exc}"
        )
    kernels = args.kernel or ["constant"]
    if len(kernels) == 1 and c.n > 1:
        kernels = kernels * c.n
    if len(kernels) != c.n:
        raise CliInputError(
            f"{c.n} cubes need {c.n} kernels, got {len(kernels)}"
        )
    fs = [_bimod_kernel(k, op) for k in kernels]
    try:
        value = alpha(c, fs)(y)
    except (ValueError, IndexError) as exc:
        raise CliValidationError(str(exc))
    _emit({"value": op.encode(value)})
    return 0


def _cmd_deloop(args) -> int:
    op = _operad(args)
    f = _bimod_kernel(args.kernel, op)
    try:
        y = wb_normalize(wb_from_json(_read_json(sys.stdin), op))
        value = f(y)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise CliValidationError(f"invalid bimodule point: {exc}")
    _emit({"value": op.encode(value)})
    return 0


def _graph_classes(args, k: int, l: int) -> list[TreeClass]:
    """The classes of the contraction graph, refused over the budget on
    their count before any is generated."""
    budget = _grade_budget(args, k, l)
    count = class_count(k, l, require_nontrivial_main=True)
    if count > budget:
        raise CliValidationError(
            f"class count {count} exceeds budget {budget}", k=k, l=l,
        )
    return graph_classes(k, l)


def _cmd_graph(args) -> int:
    g = build_graph(args.k, args.l, _graph_classes(args, args.k, args.l))
    if args.level is not None:
        try:
            g = subgraph_i(g, args.level)
        except ValueError as exc:
            raise CliValidationError(str(exc), level=args.level)
    if args.format == "dot":
        _write(dot_graph(g))
    else:
        _emit(graph_to_json(g))
    return 0


def _cmd_reedy(args) -> int:
    r = reedy_of(build_graph(args.k, args.l, _graph_classes(args, args.k, args.l)))
    out = reedy_to_json(r)
    out["latching"] = [
        {
            "object": list(o),
            "index": [[face, list(src)] for face, src in latching_index(r, o)],
        }
        for o in r.objects
    ]
    _emit(out)
    return 0


def _cmd_homotopy_h(args) -> int:
    data = _read_json(sys.stdin)
    try:
        idx = upsilon_from_json(data["index"])
        heights = tuple(parse_frac(t) for t in data["heights"])
        aux = tuple(
            tuple(parse_frac(p) for p in row) for row in data["auxParams"]
        )
        u = parse_frac(args.u)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise CliInputError(
            "payload must be {'index': cell, 'heights': [...], "
            f"'auxParams': [[...],...]}}: {exc}"
        )
    try:
        new_h, new_aux = homotopy_H(idx, heights, aux, u)
    except (ValueError, IndexError) as exc:
        raise CliValidationError(str(exc), u=frac_str(u))
    _emit({
        "heights": [frac_str(t) for t in new_h],
        "auxParams": [[frac_str(p) for p in row] for row in new_aux],
        "membership": {
            v: h_membership(idx, new_h, new_aux, v) for v in ("H", "H-")
        },
    })
    return 0


def _cmd_export_dot(args) -> int:
    op = _operad(args)
    data = _read_json(sys.stdin)
    try:
        if args.kind == "tree":
            _write(dot_tree(tree_from_json(data)))
        elif args.kind == "bv":
            _write(dot_bv(bv_normalize(bv_from_json(data, op))))
        elif args.kind == "wb":
            _write(dot_wb(wb_normalize(wb_from_json(data, op))))
        else:  # graph: rebuild from the (k,l) recorded in the payload
            k, l = data["k"], data["l"]
            if type(k) is not int or type(l) is not int:
                raise ValueError(f"k and l must be integers, got {k!r:.40}, {l!r:.40}")
            _write(dot_graph(build_graph(k, l, _graph_classes(args, k, l))))
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise CliValidationError(f"invalid payload for kind {args.kind!r}: {exc}")
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


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="operad-forge",
        description="Exact engine for operadic tree resolutions: "
        "normal forms, bimodule actions, deloopings, and cell complexes.",
    )
    top.add_argument("--operad", default="assoc",
                     help="assoc | com | end:<size> | free:g1=a1,...:<maxarity>")
    top.add_argument("--seed", type=int, default=0)
    top.add_argument("--budget", type=int, default=None,
                     help="enumeration cap (default from OPERAD_FORGE_BUDGET)")
    top.add_argument("--format", choices=("json", "dot"), default="json")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        return p

    add("normalize-bv", _cmd_normalize_bv,
        "canonical form of an operad-resolution point (stdin JSON)")
    add("normalize-wb", _cmd_normalize_wb,
        "canonical form of a bimodule-resolution point (stdin JSON)")
    p = add("compose-bv", _cmd_compose_bv, "operadic composition of two points")
    p.add_argument("--slot", type=int, required=True)
    add("bimod-left", _cmd_bimod_left, "left action of an operad element")
    p = add("bimod-right", _cmd_bimod_right, "right action of an operad element")
    p.add_argument("--slot", type=int, required=True)
    add("mu", _cmd_mu, "structure map to the base operad")
    add("mu-tilde", _cmd_mu_tilde, "bimodule structure map to the base operad")
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
    p = add("export-dot", _cmd_export_dot, "DOT rendering of a payload")
    p.add_argument("--kind", choices=("tree", "bv", "wb", "graph"),
                   default="tree")
    p = add("selftest", _cmd_selftest, "run the full acceptance suite")
    p.add_argument("--scale", type=_finite_float, default=1.0,
                   help="shrink randomized sample counts (default: 1.0, full)")
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
        print(f"operad-forge: {exc}", file=sys.stderr)
        return 2
    except CliValidationError as exc:
        _emit(exc.witness)
        return 1
    except RecursionError:
        print("operad-forge: input nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

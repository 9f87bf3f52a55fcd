"""The package root binds only its layer modules and ``__version__``, every
module in the package uses every name it imports (``__init__.py`` is
exempt: it imports the layers to load them), every private
module-level function, class and constant is reachable from the rest of
the package, and every public module-level function and class is read by
the package, a demo or the benchmark, or is named, with its reason, in the
short list of public functions that only tests call."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "operad_forge"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= {n.value.id for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items()
            if name not in used and name != "annotations"]


LAYERS = ("bv", "cells", "mapping", "operads", "trees", "wb")


def _root_bindings() -> list[str]:
    """What each statement of ``__init__.py`` binds, apart from the
    docstring: ``from . import x`` gives ``.x``, any other import gives its
    module and name, and any other statement its name or its source."""
    path = PACKAGE / "__init__.py"
    text = path.read_text()
    out = []
    for node in ast.parse(text).body:
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        if isinstance(node, ast.ImportFrom):
            source = "." * node.level + (node.module or "")
            out += [f"{source}{'' if source == '.' else '.'}{a.name}"
                    + (f" as {a.asname}" if a.asname else "") for a in node.names]
        else:
            out.append(_defined_name(node) or ast.get_source_segment(text, node))
    return out


def test_package_root_binds_only_the_layers():
    # nothing reads a re-export from the package root; importing it loads
    # every layer for the benchmark, which finds them in ``sys.modules``
    assert sorted(_root_bindings()) == sorted(
        [f".{m}" for m in LAYERS] + ["__version__"]
    )


def test_no_unused_imports():
    unused = [u for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"
              for u in _unused_imports(p)]
    assert unused == []


def _defined_name(node: ast.stmt):
    """The name a module-level definition binds, or ``None``."""
    if isinstance(node, DEFINITIONS):
        return node.name
    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        target = node.targets[0]
    elif isinstance(node, ast.AnnAssign):
        target = node.target
    else:
        return None
    return target.id if isinstance(target, ast.Name) else None


def _is_private(name) -> bool:
    return name is not None and name.startswith("_") and not name.startswith("__")


def _reads(node: ast.stmt) -> set[str]:
    """The names a statement reads: bare names and attribute names."""
    names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
    return names | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def _dead_private_names() -> list[str]:
    """Private module-level definitions that no public code reaches.  Names
    are matched package-wide (a read ``x._f`` counts as a use of every
    ``_f``), and a private definition counts as a use only once something
    reaches it, so a private helper kept alive only by other dead helpers,
    or by its own recursion, is dead too."""
    uses: dict[str, set[str]] = {}  # private name -> the names its code reads
    where: dict[str, str] = {}
    roots: set[str] = set()  # the names the rest of the package reads
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            read = _reads(node)
            name = _defined_name(node)
            if _is_private(name):
                uses.setdefault(name, set()).update(read)
                where.setdefault(name, f"{path.name}:{node.lineno} {name}")
            else:
                roots |= read
    live: set[str] = set()
    todo = [n for n in roots if n in uses]
    while todo:
        name = todo.pop()
        if name not in live:
            live.add(name)
            todo.extend(n for n in uses[name] if n in uses)
    return sorted(where[n] for n in uses if n not in live)


def test_no_dead_private_code():
    assert _dead_private_names() == []


# Public functions that only tests call, each kept for a reason.  A name
# leaves this list once the package, a demo or the benchmark reads it.
TEST_ONLY_PUBLIC = {
    "x_cell_membership": "the cell predicate of the operad resolution, the "
    "twin of wb.y_cell_membership",
    "stab": "the stabilizer coset representatives of a cell class, part of "
    "the cell complex's data",
    "validate_operad": "the law validator that checks every stock operad",
    "validate_eta": "the operad-map validator that table_eta asks its "
    "callers to run",
    "end_conjugation_eta": "a non-identity operad map on end:n for the "
    "delooping tests",
    "cubes_to_json": "the inverse of cubes_from_json, which the act command "
    "reads",
}


def _public_reads() -> tuple[dict[str, str], set[str]]:
    """The public module-level functions and classes of the package, and
    the names that code in ``src``, ``demos`` or ``bench`` reads, apart from
    a definition's own name and the re-exports of ``__init__.py``.  A string
    that spells a name counts as a read: the benchmark's tracer rebinds the
    functions it lists through ``getattr``."""
    defined: dict[str, str] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, DEFINITIONS) and not node.name.startswith("_"):
                defined.setdefault(node.name, f"{path.name}:{node.lineno} {node.name}")
    read: set[str] = set()
    for top in ("src", "demos", "bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path == PACKAGE / "__init__.py":
                continue
            for node in ast.parse(path.read_text()).body:
                # a definition reading its own name is recursion, not a use
                read |= _reads(node) - {getattr(node, "name", None)}
                read |= {n.value for n in ast.walk(node)
                         if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    return defined, read


def test_no_dead_public_code():
    defined, read = _public_reads()
    dead = sorted(where for name, where in defined.items()
                  if name not in read and name not in TEST_ONLY_PUBLIC)
    assert dead == []


def test_test_only_allowlist_is_current():
    defined, read = _public_reads()
    assert sorted(n for n in TEST_ONLY_PUBLIC if n not in defined or n in read) == []


def test_cli_starts_without_dataclasses_or_inspect():
    # every ``operad-forge`` process pays for what ``import operad_forge.cli``
    # loads; ``dataclasses`` and the ``inspect`` it pulls in were half of it.
    # ``-S`` keeps the environment's site hooks out of the count.
    code = (
        "import sys, operad_forge.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True,
        text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


# The mutable working form of ``trees`` is for rewriting: only the two
# resolutions rewrite, and ``selftest``'s ``xi_by_splitting`` oracle splits
# trees on it.  Evaluation folds the immutable ``PlanarTree`` instead.
WORKING_FORM = {"Node", "to_nodes", "from_nodes", "preorder", "leaf_slots",
                "cut", "decompose", "contract", "graft_input", "deletable", "settle",
                "nodes_of", "point_of", "graft_points", "normal", "present"}
WORKING_FORM_USERS = {"trees", "bv", "wb", "selftest"}


def test_only_the_rewriters_import_the_working_form():
    found = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path in sorted(PACKAGE.glob("*.py")) if path.stem not in WORKING_FORM_USERS
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names if alias.name in WORKING_FORM
    ]
    assert found == []


def test_one_settle_body_for_both_resolutions():
    # ``bv`` and ``wb`` pass their rules to ``trees.settle``; neither keeps
    # a rewriting pass of its own
    settles = sorted(
        f"{path.stem}.{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name.endswith("settle")
    )
    assert settles == ["trees.settle"]


# The working-form plumbing of both resolutions (build the working form,
# rebuild a point, present, normalize, act on one vertex's label) is written
# once, in the engine of ``trees``, which reads what differs off the point
# class; the action takes no per-resolution callables.
ENGINE_PLUMBING = {"_nodes", "_point", "_present", "_normal", "_act_on_label"}


def test_one_resolution_engine():
    found = sorted(
        f"{path.stem}.{node.name}"
        for path in sorted(PACKAGE.glob("*.py")) if path.stem != "trees"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, DEFINITIONS) and node.name in ENGINE_PLUMBING
    )
    assert found == []
    act = next(n for n in ast.parse((PACKAGE / "trees.py").read_text()).body
               if isinstance(n, ast.FunctionDef) and n.name == "act_on_word")
    args = act.args
    assert [a.arg for a in args.posonlyargs + args.args] == ["x", "sigma"]
    assert args.vararg is None and args.kwonlyargs == [] and args.kwarg is None


def test_one_rule_table_per_resolution():
    # each resolution writes its relations once, as the rules tuple that
    # ``trees.settle`` and its random-order oracle ``trees.rewrite_fixpoint``
    # both read; no other module lists or applies redexes of its own
    found = sorted(
        f"{path.stem}.{node.name}"
        for path in sorted(PACKAGE.glob("*.py")) if path.stem != "trees"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name in {"_redexes", "_apply"}
    )
    assert found == []


def test_points_enter_without_an_identity_action():
    # ``raw_bv`` and ``bv.iota`` store a label as ``Operad.canonical`` of
    # it, which acts only where the operad needs it (``free``); neither
    # acts on a label by the identity itself
    tree = ast.parse((PACKAGE / "bv.py").read_text())
    entries = [n for n in tree.body
               if isinstance(n, ast.FunctionDef) and n.name in {"raw_bv", "iota"}]
    assert sorted(f.name for f in entries) == ["iota", "raw_bv"]
    found = [f"bv.{f.name} line {n.lineno}" for f in entries for n in ast.walk(f)
             if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
             and n.func.attr == "act"]
    assert found == []


# A nested function that calls itself holds itself in its closure, a
# reference cycle that only the cyclic collector frees; the engine recurses
# through module-level functions and methods instead.  The recursive
# oracles of ``selftest`` and ``sampling`` keep their closures.
RECURSIVE_CLOSURES_ALLOWED = {"selftest", "sampling"}


def test_no_nested_function_calls_itself():
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem in RECURSIVE_CLOSURES_ALLOWED:
            continue
        for outer in ast.walk(ast.parse(path.read_text())):
            if not isinstance(outer, functions):
                continue
            for inner in ast.walk(outer):
                if inner is not outer and isinstance(inner, functions) and any(
                    isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                    and n.func.id == inner.name for n in ast.walk(inner)
                ):
                    found.add(f"{path.stem}.{outer.name}: {inner.name} line {inner.lineno}")
    assert sorted(found) == []


# Per module, the walks between a working form and a point, the cut and the
# walk that builds the cut tree of either resolution's decomposition, the
# ``repr`` that orders a bimodule point's labels, the validators of raw
# points, and the tree writers and reader: each keeps its own stack, so the
# depth of a tree is not bounded by the interpreter's recursion limit.
ITERATIVE_WALKS = {
    "trees": {"to_nodes", "from_nodes", "leaf_slots", "canonicalize",
              "_tie_break", "settle", "cut", "decompose", "__repr__"},
    "bv": {"_validate_raw"},
    "wb": {"_validate_raw"},
    "serialize": {"shape_to_json", "shape_from_json", "_tree_text", "_dot_walk"},
}


def test_the_working_form_walks_do_not_recurse():
    found, recursive = {}, []
    for module, walks in ITERATIVE_WALKS.items():
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        for top in tree.body:
            members = top.body if isinstance(top, ast.ClassDef) else [top]
            for walk in members:
                if not isinstance(walk, ast.FunctionDef) or walk.name not in walks:
                    continue
                found.setdefault(module, set()).add(walk.name)
                # the walk and any function defined inside it
                for f in ast.walk(walk):
                    if not isinstance(f, ast.FunctionDef):
                        continue
                    own = {f.name, "repr"} if f.name == "__repr__" else {f.name}
                    recursive += [f"{module}.{walk.name}: {f.name} line {n.lineno}"
                                  for n in ast.walk(f) if _called(n) in own]
    assert found == ITERATIVE_WALKS
    assert recursive == []


def test_a_bv_decomposition_is_a_decorated_planar_tree():
    # both resolutions decompose into one value, ``trees.Decomposition``: the
    # components sit on the vertices of a ``PlanarTree`` that ``trees.fold``
    # reassembles; no other decomposition class, nested form, split walk or
    # band stacking of its own is left
    classes, gone = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and node.name.endswith("Decomposition"):
                classes.append((path.stem, node))
            if isinstance(node, DEFINITIONS) and node.name in {
                "_split", "reassemble_bands", "_interleave",
            }:
                gone.append(f"{path.name}:{node.lineno} {node.name}")
    assert [(stem, node.name) for stem, node in classes] == [("trees", "Decomposition")]
    assert gone == []
    slots = next(n.value for n in classes[0][1].body if isinstance(n, ast.Assign)
                 and n.targets[0].id == "__slots__")
    assert ast.literal_eval(slots) == ("shape", "components", "word")


def test_one_reading_of_a_cell_index():
    # a class key is read off the glued tree (``cells._glued``) only; the
    # per-auxiliary-tree encoding it replaced is the tests' reference key
    # (``iso_search.reference_key``)
    gone = {"labeled_encoding", "slot_encodings", "_slot_entries", "_vertex_key"}
    found = sorted(
        f"{path.name}:{node.lineno} {node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, DEFINITIONS) and node.name in gone
    )
    assert found == []


def _called(node: ast.AST) -> str:
    """The last name of what a call calls, ``""`` if it is no call."""
    if not isinstance(node, ast.Call):
        return ""
    return ast.unparse(node.func).rsplit(".", 1)[-1]


def test_normalizers_take_the_working_form_in_hand():
    # a graft or a cut normalizes the working form it built with
    # ``trees.normal``; packing it into a point (``trees.point_of``) only for
    # ``bv_normalize`` or ``wb_normalize`` to unpack it again is a round trip
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if _called(node) in {"bv_normalize", "wb_normalize"}
        and any(_called(arg) == "point_of" for arg in node.args)
    ]
    assert found == []


def test_cli_commands_refuse_only_through_one_helper():
    # every command turns bad input into an exit code through
    # ``cli._refused``, the only handler of the bad-input tuple
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    functions = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    commands = [f.name for f in functions if f.name.startswith("_cmd_")]
    assert len(commands) >= 15
    assert [f.name for f in functions if f.name.startswith("_cmd_")
            and any(isinstance(n, ast.Try) for n in ast.walk(f))] == []
    bad_input = {"_BAD_INPUT", "(ValueError, KeyError, IndexError, TypeError)"}
    catchers = [f.name for f in functions for n in ast.walk(f)
                if isinstance(n, ast.ExceptHandler) and n.type is not None
                and ast.unparse(n.type) in bad_input]
    assert catchers == ["_refused"]

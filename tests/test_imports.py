"""The package root binds only its layer modules and ``__version__``, every
module in the package uses every name it imports (``__init__.py`` is
exempt: it imports the layers to load them), every private
module-level function, class and constant is reachable from the rest of
the package, and every public module-level function and class is read by
the package, a demo or the benchmark, or is named, with its reason, in the
short list of public functions that only tests call."""

import ast
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

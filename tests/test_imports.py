"""Every module in the package uses every name it imports (``__init__.py``
is exempt: its imports are the package's re-exports), and every private
module-level function, class and constant is reachable from the rest of
the package."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "operad_forge"


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


def test_no_unused_imports():
    unused = [u for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"
              for u in _unused_imports(p)]
    assert unused == []


def _defined_name(node: ast.stmt):
    """The name a module-level definition binds, or ``None``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
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
            read = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            read |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
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

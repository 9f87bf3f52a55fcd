"""Every module in the package uses every name it imports (``__init__.py``
is exempt: its imports are the package's re-exports)."""

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

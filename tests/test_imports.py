"""Every name a ``steinalg`` module imports is read somewhere in it.

No linter ships with the toolchain, so this walks each module's syntax
tree: an imported binding that never appears as a name (alone or as the
root of an attribute chain) is dead.  ``__future__`` imports are skipped,
and so are the package ``__init__``'s re-exports listed in ``__all__``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "steinalg"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: set[str] = set()
    exported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - read - exported)


def test_no_module_imports_an_unused_name():
    sample = (
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\nfrom m import a, b as c\n"
        "__all__ = ['a']\nx = np.zeros(1)\n"
    )
    assert unused_imports(sample) == ["c", "os"]
    found = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if (names := unused_imports(path.read_text()))
    }
    assert found == {}

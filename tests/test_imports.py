"""Every top-level import of the package and its tests is used."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[str]:
    """The names that the top-level imports of ``source`` bind and nothing reads.

    ``import a.b`` binds ``a``; ``__future__`` imports bind nothing.  A
    name is read when it occurs as a name anywhere in the module, or as a
    string in its ``__all__``.
    """
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {elt.value for elt in node.value.elts}
    return [name for name in bound if name not in read]


def test_every_top_level_import_is_used():
    unused = {}
    for path in sorted([*ROOT.glob("src/hypercartan/*.py"), *ROOT.glob("tests/*.py")]):
        names = unused_imports(path.read_text(encoding="utf-8"))
        if names:
            unused[str(path.relative_to(ROOT))] = names
    assert unused == {}
    assert unused_imports(
        "from __future__ import annotations\nimport os.path\nimport json as j\n"
        "from x import y, z\n__all__ = ['z']\nos.sep\n"
    ) == ["j", "y"]

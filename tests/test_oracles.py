import ast

from conftest import REPO


def test_oracles_do_not_import_the_package():
    # a reference that reuses package code cannot catch that code's errors
    tree = ast.parse((REPO / "tests" / "oracles.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported, "no imports found: the parse is not looking at oracles.py"
    offending = sorted(
        name for name in imported
        if name.startswith(".") or name.split(".")[0] == "halanay"
    )
    assert not offending, f"tests/oracles.py imports {offending}"

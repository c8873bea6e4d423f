"""Every name a module imports is used in that module.

An ast scan stands in for a linter's unused-import check: each name that a
.py file under src/, tests/ or demos/ binds by an import must appear as a
name somewhere in the file. Package __init__ files, which import to
re-export, and `from __future__` imports, which are directives, are exempt.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list:
    """(line, name) of every imported name the source never uses."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.split(".")[0], node.lineno)
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    assert unused_imports("import os\nimport a.b as c\nimport d.e\nfrom m import n, p\n"
                          "from __future__ import annotations\nn(d)\n") == [
        (1, "os"), (2, "c"), (4, "p")]
    found = {str(path.relative_to(ROOT)): names
             for folder in ("src", "tests", "demos")
             for path in sorted((ROOT / folder).rglob("*.py"))
             if path.name != "__init__.py"
             if (names := unused_imports(path.read_text(encoding="utf-8")))}
    assert found == {}

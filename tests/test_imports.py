"""Every name a module imports is read in that module."""

import ast
from pathlib import Path

ROOT = Path(__file__).parents[1]
# The package's export list imports names for its callers, not for itself.
EXPORTS = ROOT / "src" / "commbench" / "__init__.py"


def unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_every_imported_name_is_read():
    modules = [*ROOT.glob("tests/*.py"), *(ROOT / "src" / "commbench").rglob("*.py")]
    unused = {
        str(path.relative_to(ROOT)): names
        for path in sorted(modules)
        if path != EXPORTS and (names := unused_imports(path))
    }
    assert unused == {}

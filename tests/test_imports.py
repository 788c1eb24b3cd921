"""Every name a module imports is read in that module, and every function,
method and class the package defines is read by the program."""

import ast
from pathlib import Path

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "commbench"
# The package's export list imports names for its callers, not for itself.
EXPORTS = PACKAGE / "__init__.py"


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
    modules = [*ROOT.glob("tests/*.py"), *PACKAGE.rglob("*.py")]
    unused = {
        str(path.relative_to(ROOT)): names
        for path in sorted(modules)
        if path != EXPORTS and (names := unused_imports(path))
    }
    assert unused == {}


def test_every_definition_is_read():
    """A definition no line of `src/` or `bench/` reads, as a name or an
    attribute, is code only tests call. A definition and an import are not
    reads, and dunder methods are called by Python itself."""
    paths = [*PACKAGE.rglob("*.py"), *ROOT.glob("bench/*.py")]
    trees = {path: ast.parse(path.read_text()) for path in paths}
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    unread = {
        f"{path.relative_to(ROOT)}:{node.name}"
        for path, tree in trees.items()
        if PACKAGE in path.parents
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in read
    }
    assert unread == set()

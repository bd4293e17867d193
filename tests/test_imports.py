"""Every name a cornervol module imports is used in that module, and every
private function, class or method it defines is referenced in the package.

A name left imported after its last use hides dead code and keeps a
dependency between modules alive for nothing; a private helper left behind by
its last caller is dead code itself.  ``__init__`` is left out: its imports
are the package's public names.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "cornervol"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def used_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert imported_names(tree) - used_names(tree) == set()


def private_definitions(tree: ast.Module) -> set[str]:
    """Module-level ``_function``s and ``_Class``es, and ``_method``s of classes."""
    names = set()
    for node in tree.body:
        defs = [node]
        if isinstance(node, ast.ClassDef):
            defs += node.body
        names.update(d.name for d in defs
                     if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                     and d.name.startswith("_") and not d.name.startswith("__"))
    return names


def referenced_names(tree: ast.Module) -> set[str]:
    return used_names(tree) | {node.attr for node in ast.walk(tree)
                               if isinstance(node, ast.Attribute)}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_private_definition_is_referenced(path):
    # A private helper whose last caller went is dead code; it may be
    # referenced from any module of the package, but tests do not count.
    referenced = set()
    for other in SRC.glob("*.py"):
        referenced |= referenced_names(ast.parse(other.read_text(encoding="utf-8")))
    assert private_definitions(ast.parse(path.read_text(encoding="utf-8"))) - referenced == set()

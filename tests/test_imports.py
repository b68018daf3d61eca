"""The import structure of the package: every import at module level, and no cycle
between the catalog and the groupoid module."""

import ast
import pathlib

import pytest

import qlab

SOURCES = sorted(pathlib.Path(qlab.__file__).parent.glob("*.py"))


def parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_import_is_at_module_level(path):
    tree = parse(path)
    top = {id(node) for node in tree.body}
    nested = [(node.lineno, ast.unparse(node)) for node in ast.walk(tree)
              if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top]
    assert nested == []


def imported_names(tree: ast.Module):
    """Each module an import names, and each name a from-import takes from one."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            yield base
            yield from (base + ("" if base.endswith(".") else ".") + alias.name
                        for alias in node.names)


def test_the_groupoid_module_imports_nothing_from_the_catalog():
    names = set(imported_names(parse(pathlib.Path(qlab.__file__).parent / "groupoid.py")))
    assert names.isdisjoint({".catalog", "qlab.catalog"})


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    """A name bound by an import is read somewhere in its module; the package's
    __init__ imports names to re-export them, and `annotations` is a future flag."""
    tree = parse(path)
    bound = {(alias.asname or alias.name).split(".")[0]: node.lineno
             for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names if alias.name != "annotations"}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert {name: line for name, line in bound.items() if name not in read} == {}

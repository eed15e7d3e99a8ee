import ast
from pathlib import Path

import steelnav

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "steelnav"


def test_all_names_resolve_once():
    names = steelnav.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(steelnav, n)] == []


def _uses(node, defining=()):
    """(name, enclosing definitions) for every Name and Attribute under node."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        defining = (*defining, node.name)
    if isinstance(node, ast.Name):
        yield node.id, defining
    elif isinstance(node, ast.Attribute):
        yield node.attr, defining
    for child in ast.iter_child_nodes(node):
        yield from _uses(child, defining)


def _used_names():
    """Names used in the package and bench/, outside their own definition
    and outside the package's __init__.py."""
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "bench").glob("*.py"))
    return {name for path in files
            for name, defining in _uses(ast.parse(path.read_text()))
            if name not in defining}


def test_every_exported_name_has_a_caller():
    used = _used_names()
    assert [n for n in steelnav.__all__ if n not in used] == []


def test_every_public_member_has_a_caller():
    # the public methods and properties of every class in the package:
    # code that only tests call does not ship
    members = [(f"{path.stem}.{cls.name}", f.name)
               for path in sorted(PACKAGE.glob("*.py"))
               for cls in ast.walk(ast.parse(path.read_text()))
               if isinstance(cls, ast.ClassDef)
               for f in cls.body
               if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not f.name.startswith("_")]
    assert members
    used = _used_names()
    assert [f"{cls}.{name}" for cls, name in members if name not in used] == []


def test_no_private_imports_across_modules():
    # a module's underscore names are its own: no `from .x import _name`
    # (nor `from steelnav.x import _name`)
    found = [f"{path.name}: {alias.name}" for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ImportFrom)
             and (node.level > 0 or (node.module or "").startswith("steelnav"))
             for alias in node.names if alias.name.startswith("_")]
    assert found == []

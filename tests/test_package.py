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


def test_every_exported_name_has_a_caller():
    # a use inside the name's own definition, or in the package's
    # __init__.py, does not count; bench/ counts as a caller
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += sorted((ROOT / "bench").glob("*.py"))
    used = {name for path in files
            for name, defining in _uses(ast.parse(path.read_text()))
            if name not in defining}
    # the paper's single-point PIBC, kept while the containment rework is open
    kept = {"point_in_boundary"}
    assert [n for n in steelnav.__all__ if n not in used | kept] == []

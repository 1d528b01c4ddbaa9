"""Static checks over the package source: no unused imports, no private
module-level function that nothing references, and no method that nothing in
the package or its tests references."""

import ast
from collections import Counter
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "spacecurves"
MODULES = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
TEST_MODULES = [ast.parse(path.read_text()) for path in sorted(TESTS.glob("*.py"))]


def _names(node):
    """Every identifier a subtree refers to: names, attributes, imported names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def test_no_unused_imports():
    unused = []
    for name, tree in MODULES.items():
        if name == "__init__.py":
            continue
        used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        for sub in ast.walk(tree):
            if isinstance(sub, ast.ImportFrom) and sub.module == "__future__":
                continue
            if isinstance(sub, (ast.Import, ast.ImportFrom)):
                for alias in sub.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}:{sub.lineno} {bound}")
    assert not unused


def test_private_functions_are_referenced():
    # a function's own body does not count as a reference to it
    statements = [stmt for tree in MODULES.values() for stmt in tree.body]
    names = [_names(stmt) for stmt in statements]
    orphans = []
    for i, stmt in enumerate(statements):
        if isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("_"):
            if not any(stmt.name in seen for j, seen in enumerate(names) if j != i):
                orphans.append(stmt.name)
    assert not orphans


def test_methods_are_referenced():
    # a method is reached as an attribute, obj.name or Class.name; a use in
    # its own body does not count
    trees = list(MODULES.values()) + TEST_MODULES
    uses = sum((_attribute_refs(tree) for tree in trees), Counter())
    orphans = []
    for name, tree in MODULES.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for meth in cls.body:
                if not isinstance(meth, ast.FunctionDef):
                    continue
                if meth.name.startswith("__") and meth.name.endswith("__"):
                    continue
                if uses[meth.name] == _attribute_refs(meth)[meth.name]:
                    orphans.append(f"{name}:{cls.name}.{meth.name}")
    assert not orphans


def _attribute_refs(node):
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))

"""Static checks over the package source: no unused imports, no private
module-level function that nothing references, no method that nothing in
the package or its tests references, no function or method that only the
tests reach unless the package exports it or README names it, no
function-local import that could be a top-level one, and no function-local
name that is assigned and never read, and no public groebner function
called per monomial.  Three run-time checks: what a curve caches, and the
shared field ring, form no reference cycle, and no map a curve reaches
caches a dense matrix."""

import ast
import gc
import re
import weakref
from collections import Counter
from pathlib import Path

import numpy as np

from spacecurves.curve import validate_curve
from spacecurves.files import load_corpus
from spacecurves.gradedmod import GradedMap
from spacecurves.liaison import check_elementary_biliaison
from spacecurves.raoclass import (
    biliaison_equivalent,
    e_type_resolution,
    liaison_parity,
    n_type_resolution,
)
from spacecurves.scalars import BaseRing

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


def _package_targets(node):
    """The package modules a relative import statement reads."""
    if not isinstance(node, ast.ImportFrom) or node.level != 1:
        return []
    if node.module:
        return [node.module.split(".")[0] + ".py"]
    return [alias.name + ".py" for alias in node.names]


def test_local_imports_break_a_cycle():
    # a package module is imported inside a function only when it imports
    # the importing module, directly or transitively; otherwise the import
    # belongs at the top of the module
    local, top = {}, {}
    for name, tree in MODULES.items():
        funcs = [f for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
        inner = {id(sub): sub for f in funcs for sub in ast.walk(f)}
        local[name] = list(inner.values())
        top[name] = {t for sub in ast.walk(tree) if id(sub) not in inner for t in _package_targets(sub)}

    def reaches(start, goal):
        seen, todo = set(), [start]
        while todo:
            mod = todo.pop()
            if mod == goal:
                return True
            if mod not in seen:
                seen.add(mod)
                todo.extend(top.get(mod, ()))
        return False

    needless = [
        f"{name}:{sub.lineno} {target}"
        for name, subs in local.items()
        for sub in subs
        for target in _package_targets(sub)
        if not reaches(target, name)
    ]
    assert not needless


def _own_scope(func):
    """The nodes of a function's body outside its nested functions, lambdas
    and classes, which are scopes of their own."""
    todo = list(ast.iter_child_nodes(func))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def test_local_names_are_read():
    # a name a function assigns must be read in the function or in a
    # closure inside it; "_" marks a value dropped on purpose
    unread = []
    for name, tree in MODULES.items():
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stored, declared = {}, set()
            for node in _own_scope(func):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                    stored.setdefault(node.id, node.lineno)
                elif isinstance(node, (ast.Global, ast.Nonlocal)):
                    declared.update(node.names)
            read = {sub.id for sub in ast.walk(func) if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
            unread += [
                f"{name}:{line} {func.name}.{local}"
                for local, line in stored.items()
                if local not in read | declared and local != "_"
            ]
    assert not unread


def test_only_the_algebra_layers_know_piece_coordinates():
    # the stacked (fiber; e) coordinates of graded pieces live in linalg and
    # gradedmod; the layers above them work with maps and modules
    known = []
    for name in ("raoclass.py", "curve.py", "liaison.py", "cli.py"):
        for sub in ast.walk(MODULES[name]):
            if isinstance(sub, ast.Import):
                known += [f"{name} {alias.name}" for alias in sub.names if alias.name.split(".")[0] == "numpy"]
            elif isinstance(sub, ast.ImportFrom):
                names = {alias.name for alias in sub.names}
                if sub.module in ("numpy", "linalg") or "linalg" in names:
                    known.append(f"{name} {sub.module}")
                known += [f"{name} {n}" for n in names & {"element_to_vector", "vector_to_element"}]
    assert not known


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


def _name_refs(node):
    """How often a subtree refers to each identifier, as in _names."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def _readme_code_names():
    """The identifiers in README's code: fenced blocks and inline spans."""
    parts = (TESTS.parent / "README.md").read_text().split("```")
    code = parts[1::2] + [span for text in parts[::2] for span in re.findall(r"`([^`]+)`", text)]
    return {word for span in code for word in re.findall(r"\w+", span)}


def test_functions_reach_the_tool_or_its_interface():
    # a function or method that nothing in the package calls serves only
    # the tests, unless spacecurves/__init__.py exports it by name or README
    # names it in its code; a use in its own body does not count
    init = MODULES["__init__.py"]
    exports = {alias.name for sub in ast.walk(init) if isinstance(sub, ast.ImportFrom) for alias in sub.names}
    documented = _readme_code_names()
    uses = sum((_name_refs(tree) for name, tree in MODULES.items() if name != "__init__.py"), Counter())
    orphans = []
    for name, tree in MODULES.items():
        if name == "__init__.py":
            continue
        funcs = [stmt for stmt in tree.body if isinstance(stmt, ast.FunctionDef)]
        funcs += [m for cls in tree.body if isinstance(cls, ast.ClassDef) for m in cls.body if isinstance(m, ast.FunctionDef)]
        for f in funcs:
            if f.name.startswith("__") and f.name.endswith("__"):
                continue
            if uses[f.name] > _name_refs(f)[f.name] or f.name in exports or f.name in documented:
                continue
            orphans.append(f"{name}:{f.name}")
    assert not orphans


def test_the_normal_form_calls_no_public_groebner_function():
    # a benchmark tracer wraps each public function of a layer, so a public
    # helper called per monomial would be traced once per term; the engine
    # reaches its per-monomial helpers under private names only
    tree = MODULES["groebner.py"]
    public = {stmt.name for stmt in tree.body if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_")}
    public |= {m.name for cls in tree.body if isinstance(cls, ast.ClassDef) for m in cls.body
               if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")}
    for name in ("raw_normal_form", "raw_spoly"):
        fn = next(stmt for stmt in tree.body if isinstance(stmt, ast.FunctionDef) and stmt.name == name)
        called = {sub.func.id if isinstance(sub.func, ast.Name) else sub.func.attr
                  for sub in ast.walk(fn) if isinstance(sub, ast.Call) and isinstance(sub.func, (ast.Name, ast.Attribute))}
        assert not called & public, name


def test_curve_caches_form_no_reference_cycle():
    # a curve caches its modules, resolutions and Rao module; a cached object
    # that referred back to its owner would keep the curve and all it caches
    # alive until a full garbage collection, so none may
    gc.collect()
    gc.disable()
    try:
        names = ("skew-lines", "skew-lines-dual", "twisted-cubic")
        curves = [validate_curve(load_corpus(name).to_ideal()) for name in names]
        for C in curves:
            C.rao_module()
            n_type_resolution(C)
            e_type_resolution(C)
        sk, skd, tc = curves
        assert biliaison_equivalent(sk, tc).kind == "no"
        assert biliaison_equivalent(skd, skd).kind == "yes"
        assert liaison_parity(sk, tc) == "neither"
        assert check_elementary_biliaison(tc, tc, tc.ideal.gens[0], 0).is_yes
        refs = [weakref.ref(x) for C in curves for x in (C, C.ideal)]
        del curves, C, sk, skd, tc
        assert all(ref() is None for ref in refs)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_the_shared_field_ring_forms_no_reference_cycle():
    # BaseRing.field hands out one cached ring per prime; a dual ring that
    # asked for it is still freed by reference counting alone
    gc.collect()
    gc.disable()
    try:
        A = BaseRing(10007, True)
        K = A.field()
        assert K is BaseRing(10007, True).field()
        ref = weakref.ref(A)
        del A
        assert ref() is None
        assert gc.collect() == 0
    finally:
        gc.enable()


def _reachable(roots):
    """Every object reachable from roots through gc referents."""
    seen, todo = {}, list(roots)
    while todo:
        obj = todo.pop()
        if id(obj) not in seen:
            seen[id(obj)] = obj
            todo.extend(gc.get_referents(obj))
    return seen.values()


def test_maps_cache_ranks_not_matrices():
    # a map's cache holds one int per degree; a dense matrix_at cached on a
    # resolution map would hold megabytes for as long as the curve lives
    curves = [validate_curve(load_corpus(name).to_ideal())
              for name in ("skew-lines", "skew-lines-dual", "twisted-cubic", "quartic-from-skew-bilink")]
    roots = [(C, n_type_resolution(C), e_type_resolution(C)) for C in curves]
    maps = [x for x in _reachable(roots) if isinstance(x, GradedMap)]
    assert len(maps) > 20
    assert any(m._cache for m in maps)
    held = [(m, n) for m in maps for n, v in m._cache.items() if isinstance(v, np.ndarray)]
    assert not held
    assert all(type(n) is int and type(v) is int for m in maps for n, v in m._cache.items())

"""Rules about the package source itself."""

import ast
from pathlib import Path

import torifano

SOURCES = sorted(Path(torifano.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    # Runtime invariants raise typed errors: ``python -O`` strips asserts.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and found == []


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_package_modules_use_every_import():
    # __init__ imports in order to re-export.
    found = [
        f"{path.name}:{line} {name}"
        for path in SOURCES
        if path.name != "__init__.py"
        for line, name in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert SOURCES and found == []


def _module_level_imports(tree):
    """Import nodes that run when the module is imported: everything
    outside function bodies (class bodies run at import too)."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _imported_modules(node):
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    return ["." * node.level + (node.module or "")]


def test_only_the_float_solvers_import_numpy_at_module_level():
    # Exact commands never load numpy; the float entry points import it
    # where they run.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.stem not in ("masolver", "quadrature")
        for node in _module_level_imports(ast.parse(path.read_text(encoding="utf-8")))
        if any(name.partition(".")[0] == "numpy" for name in _imported_modules(node))
    ]
    assert SOURCES and found == []


def test_geometry_never_imports_numpy():
    # Vertex enumeration (integers) and triangulation need no numpy, so no
    # command on any document loads it through them; the weighted moment
    # pass builds its arrays in moments.
    tree = ast.parse((Path(torifano.__file__).parent / "geometry.py").read_text(encoding="utf-8"))
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and any(name.partition(".")[0] == "numpy" for name in _imported_modules(node))
    ]
    assert found == []


def test_package_init_imports_no_submodule():
    # ``import torifano`` stays cheap: every public name loads on first use.
    tree = ast.parse(Path(torifano.__file__).read_text(encoding="utf-8"))
    found = [
        f"{node.lineno} {name}"
        for node in _module_level_imports(tree)
        for name in _imported_modules(node)
        if name.startswith(".") or name.partition(".")[0] in ("torifano", "numpy")
    ]
    assert found == []


def test_lazy_exports_resolve_to_their_modules():
    for name in torifano.__all__:
        value = getattr(torifano, name)
        home = getattr(value, "__module__", None) or value.__name__
        assert home.startswith("torifano."), name
    assert set(torifano.__all__) <= set(dir(torifano))
    assert len(torifano.__all__) == 61
    namespace = {}
    exec("from torifano import *", namespace)
    assert sorted(n for n in namespace if n != "__builtins__") == torifano.__all__

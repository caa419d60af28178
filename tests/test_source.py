"""Rules about the package source itself."""

import ast
import json
import os
import re
import subprocess
import sys
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


def test_exact_elimination_in_linalg_runs_in_integers():
    # One fraction-free pass decides ranks, kernels and inverses, the Farkas
    # simplex keeps its tableau in integers, no function builds a Fraction,
    # and no exact routine takes a tolerance.
    tree = ast.parse(Path(torifano.__file__).with_name("linalg.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    builds = {
        name for name, node in functions.items()
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "Fraction"
    }
    assert builds == set()
    assert not any(isinstance(node, ast.ImportFrom) and node.module == "fractions" for node in tree.body)
    for name in ("rank", "kernel_vector", "integer_inverse", "integer_det"):
        assert [arg.arg for arg in functions[name].args.args] == ["rows"], name


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
        if path.stem != "masolver"
        for node in _module_level_imports(ast.parse(path.read_text(encoding="utf-8")))
        if any(name.partition(".")[0] == "numpy" for name in _imported_modules(node))
    ]
    assert SOURCES and found == []


def _package_modules_imported(tree):
    """The ``torifano`` submodules that any import in ``tree`` names."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names if alias.name.startswith("torifano.")]
            found.update(name.split(".")[1] for name in names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "torifano":
                continue
            parts = module.split(".")[1:] if node.level == 0 else [p for p in module.split(".") if p]
            found.update(parts[:1] or [alias.name for alias in node.names])
    return found


def test_masolver_imports_only_record_and_errors():
    # The continuity path runs on float intervals; its barycenter witness is
    # the command line's, from the weighted pass on the document's parts.
    tree = ast.parse(Path(torifano.__file__).with_name("masolver.py").read_text(encoding="utf-8"))
    assert _package_modules_imported(tree) - {"_record", "errors"} == set()


def test_no_package_module_imports_dataclasses():
    # Records derive from torifano._record.Record: importing dataclasses
    # would load inspect and ast into every command.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and any(name.partition(".")[0] == "dataclasses" for name in _imported_modules(node))
    ]
    assert SOURCES and found == []


# A cold ``python -m torifano validate --example p2``, then the heavy
# modules it left loaded.  -S keeps site's .pth hooks out of the count.
_COLD_VALIDATE = """
import contextlib, io, json, runpy, sys
sys.argv, code = ["torifano", "validate", "--example", "p2"], None
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("torifano", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, sorted({"dataclasses", "inspect", "numpy"} & set(sys.modules))]))
"""


def test_a_cold_exact_command_loads_no_dataclasses_inspect_or_numpy():
    package_root = str(Path(torifano.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-S", "-c", _COLD_VALIDATE], capture_output=True, text=True, env=env,
                          timeout=120, check=True)
    assert json.loads(proc.stdout) == [0, []]


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
    assert len(torifano.__all__) == 50
    namespace = {}
    exec("from torifano import *", namespace)
    assert sorted(n for n in namespace if n != "__builtins__") == torifano.__all__


# Runs every command on every built-in and on the document named by argv[1]
# the way ``python -m torifano`` does, then validate on the fan document
# named by argv[2] and on an unknown example: the first document reaches
# ``load_problem`` and, through its vector fields, the weighted routes; the
# second, whose decomposition is invalid, the all-ones support's cone pass
# (``validate_fan`` and ``ampleness_class``), which a valid exact
# decomposition makes redundant; and the unknown name ``registry_names``.
# It prints the source file of every code object executed, since module
# bodies run through ``exec``, which raises the "exec" audit event, and the
# exported functions whose code no command called, as the profile hook saw
# them.
_EVERY_COMMAND = """
import contextlib, io, json, runpy, sys
ran, called = set(), set()
sys.addaudithook(lambda event, args: event == "exec" and ran.add(args[0].co_filename))
import torifano
from torifano.cli import COMMANDS
from torifano.problems import registry_names
sources = [["--example", name] for name in registry_names()] + [["--input", sys.argv[1]]]
runs = [["torifano", command, *source] for source in sources for command in COMMANDS]
runs.append(["torifano", "validate", "--input", sys.argv[2]])
runs.append(["torifano", "validate", "--example", "no-such-example"])
sys.setprofile(lambda frame, event, arg: event == "call" and called.add(frame.f_code))
for sys.argv in runs:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            runpy.run_module("torifano", run_name="__main__", alter_sys=True)
        except SystemExit:
            pass
sys.setprofile(None)
functions = {name: getattr(torifano, name) for name in torifano.__all__}
uncalled = [name for name, f in functions.items() if hasattr(f, "__code__") and f.__code__ not in called]
print(json.dumps([sorted(ran), uncalled]))
"""

def test_every_module_is_loaded_by_some_command(tmp_path):
    # A module no command loads, or an exported function no command calls,
    # is a route only tests run; it belongs in tests/.  Every other export,
    # a class, an enum or a module, is named in README's Library section.
    package_root = str(Path(torifano.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH")) if p))
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"name": "interval-pair", "dimension": 1, "vector_fields": [["2"], ["0"]],
                                "halfspaces": [[[[1], "3/4"], [[-1], "1/4"]], [[[1], "1/4"], [[-1], "3/4"]]]}))
    # 2 c_1(P^1): an Ample row whose columns sum to 2
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({"name": "p1-twice", "dimension": 1, "rays": [[1], [-1]],
                                   "max_cones": [[0], [1]], "decomposition": [[2, 2]]}))
    proc = subprocess.run([sys.executable, "-c", _EVERY_COMMAND, str(doc), str(invalid)], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    ran, uncalled = json.loads(proc.stdout)
    ran = {Path(f).resolve() for f in ran}
    assert SOURCES and [path.name for path in SOURCES if path.resolve() not in ran] == []
    assert uncalled == []
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    start = readme.index("\n## Library\n")
    library = readme[start : readme.index("\n## ", start + 1)]
    undocumented = [
        name for name in torifano.__all__
        if not hasattr(getattr(torifano, name), "__code__") and not re.search(rf"`(torifano\.)?{name}`", library)
    ]
    assert undocumented == []

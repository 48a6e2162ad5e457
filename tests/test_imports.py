"""Import structure of the package: geomprob modules import each other at
module level only, the module import graph has no cycle, SciPy's heavy
subpackages load on first use, and every public name has a caller outside
the unit tests."""

import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import geomprob as gp

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "geomprob"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def _targets(node) -> list[str]:
    """The geomprob modules an import statement names ("__init__" for the package itself)."""
    if isinstance(node, ast.Import):
        parts = [alias.name.split(".") for alias in node.names]
        return [p[1] if len(p) > 1 else "__init__" for p in parts if p[0] == "geomprob"]
    if node.level == 1:
        module = node.module or ""
    elif node.level == 0 and node.module.split(".")[0] == "geomprob":
        module = node.module.partition(".")[2]
    else:
        return []
    if module:
        return [module.split(".")[0]]
    return [alias.name if alias.name in MODULES else "__init__" for alias in node.names]


def _imports(name: str) -> list[tuple[str, int, bool]]:
    """(imported module, line, inside a function) for each package import in a module."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    in_function = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            in_function.update(id(node) for node in ast.walk(fn) if node is not fn)
    return [
        (target, node.lineno, id(node) in in_function)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for target in _targets(node)
    ]


GRAPH = {name: _imports(name) for name in MODULES}


def _cycle() -> list[str]:
    """One import cycle as its "module.py:line -> module" steps, or [] if there is none."""
    state: dict[str, str] = {}

    def visit(name: str, path: list[str]) -> list[str]:
        state[name] = "open"
        for target, line, _ in GRAPH.get(name, []):
            steps = path + [f"{name}.py:{line} -> {target}"]
            if state.get(target) == "open":
                return steps[next(i for i, s in enumerate(steps) if s.startswith(f"{target}.py:")) :]
            if target not in state and (found := visit(target, steps)):
                return found
        state[name] = "done"
        return []

    for name in MODULES:
        if name not in state and (found := visit(name, [])):
            return found
    return []


def test_imports_of_the_package_are_seen():
    # __init__ re-exports every module but the CLI
    assert {target for target, _, _ in GRAPH["__init__"]} == set(MODULES) - {"__init__", "cli"}


def test_no_package_import_inside_a_function():
    found = [
        f"{name}.py:{line} imports {target}"
        for name, edges in GRAPH.items()
        for target, line, inside in edges
        if inside
    ]
    assert found == []


def test_import_graph_has_no_cycle():
    assert _cycle() == []


def test_cli_defines_no_experiment():
    # the CLI parses, calls the library and prints: its public functions are
    # main, build_parser and the run_* handlers
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    found = [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name in ("main", "build_parser") or node.name.startswith(("run_", "_")))
    ]
    assert found == []


def _batch_loops(name: str) -> list[int]:
    """Lines of the loops and comprehensions over range(BATCH_COUNT) in a module."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    return [
        node.iter.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.For, ast.comprehension))
        and isinstance(node.iter, ast.Call)
        and ast.unparse(node.iter) == "range(BATCH_COUNT)"
    ]


def test_the_batch_layout_has_one_owner():
    # one loop draws the batches of every estimator; derivatives and symmetry2d
    # compose public estimators and take none of the batch kernels
    loops = {name: _batch_loops(name) for name in MODULES}
    assert sum(len(lines) for lines in loops.values()) == 1
    assert len(loops["estimators"]) == 1
    for name in ("derivatives", "symmetry2d"):
        tree = ast.parse((PACKAGE / f"{name}.py").read_text())
        private = [
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "estimators"
            for alias in node.names
            if alias.name.startswith("_")
        ]
        assert set(private) <= {"_resolve_stream"}, f"{name} imports {private}"


def test_sampling_leaves_the_choice_of_sampler_to_the_body():
    # a body's exact sampler is its own sampler(): sampling imports no body
    # class but ConvexBody and Cut, and tests a body's type only where
    # sample_body rejects from the base of a Cut
    bodies = ast.parse((PACKAGE / "bodies.py").read_text())
    body_classes = {
        node.name
        for node in bodies.body
        if isinstance(node, ast.ClassDef)
        and (node.name == "ConvexBody" or "ConvexBody" in map(ast.unparse, node.bases))
    }
    assert {"Ball", "HalfBallCone", "Cut", "AffineImage"} < body_classes
    tree = ast.parse((PACKAGE / "sampling.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "bodies"
        for alias in node.names
    }
    assert imported & body_classes == {"ConvexBody", "Cut"}
    checks = [
        (getattr(statement, "name", None), ast.unparse(node))
        for statement in tree.body
        for node in ast.walk(statement)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func) == "isinstance"
        and {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.args[1])} & body_classes
    ]
    assert checks == [("sample_body", "isinstance(body, Cut)")]


def test_import_loads_no_heavy_scipy_subpackage():
    # ConvexHull is imported by the functions that use it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    script = "import json, sys, geomprob; print(json.dumps(sorted(sys.modules)))"
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    loaded = set(json.loads(run.stdout))
    assert "geomprob" in loaded
    assert not loaded & {"scipy.optimize", "scipy.integrate", "scipy.spatial"}


def _names_used(path: Path) -> set[str]:
    """Every identifier a file uses as a name, an attribute or an imported alias."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
    return used


def test_every_public_name_has_a_caller():
    # a public name that only its own unit tests call is dead weight: a caller
    # is another module of the package, the benchmark, a tool or a criterion
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "perfbench").rglob("*.py"), *(ROOT / "tools").rglob("*.py"), ROOT / "tests" / "test_acceptance.py"]
    used = set().union(*map(_names_used, files))
    public = {name for name in gp.__all__ if not inspect.ismodule(getattr(gp, name))}
    assert sorted(public - used) == []


def test_polytope_geometry_loads_no_solver():
    # polytope supports, slice frames and cut families come from vertices, not from an LP
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PACKAGE.parent), str(ROOT / "perfbench")]))
    script = """
import sys
import numpy as np
import geomprob as gp
import workloads
workloads.derivative_check(0)
poly = gp.body_from_json('{"type": "hpoly", "normals": [[1, 0], [0, 1], [-1, -1]], "offsets": [0, 0, -1]}')
gp.cut_family(poly, [1.0, 1.0])
sim = gp.isotropic_simplex(3)
v = np.array([0.6, 0.8, 0.0])
gp.sample_slice(gp.SampleStream(0, 0), sim, v, 0.3, 100)
gp.sample_slice(gp.SampleStream(0, 1), gp.Cut(sim, gp.Halfspace(np.array([0.0, 0.0, 1.0]), -0.5)), v, 0.3, 100)
print("scipy.optimize" in sys.modules)
"""
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"

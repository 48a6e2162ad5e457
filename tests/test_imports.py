"""Import structure of the package: geomprob modules import each other at
module level only, and the module import graph has no cycle."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "geomprob"
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

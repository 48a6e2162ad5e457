"""Which statements of geomprob nothing executes: a line census.

    python3 tools/census.py [--seed 0] [--criteria]

Runs, under ``sys.settrace`` restricted to ``src/geomprob``:

- ``workloads``: one pass of each benchmark workload's checks, built from
  ``perfbench/workloads.py`` at the benchmark's scale and run by
  ``perfbench/run.py``'s ``run_pass``, as the benchmark runs them;
- ``cli``: every CLI subcommand, and each mode of those that have modes,
  once at a small n;
- ``criteria`` (with ``--criteria``): the 13 acceptance tests of
  ``tests/test_acceptance.py``, through pytest in this process. This is
  slow: a few minutes on 2 cores.

It then prints, per function of the package, the statements that no run
executed: "never called" for a function that no run entered, else each
unexecuted statement with its line. A statement counts as executed when a
line event falls on its own lines (a compound statement's own lines are its
header) or when any statement inside it ran. Docstrings and declarations
without code (``global``, bare annotations) are not statements here. A
second list names the statements that only the criteria reach.

The census reads nothing from the workloads' outcomes: a check that raises
is counted, its traceback goes to standard error, and the census goes on.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import os
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "geomprob"
COMPOUND = (ast.If, ast.For, ast.AsyncFor, ast.While, ast.With, ast.AsyncWith, ast.Try, ast.Match)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


class Recorder:
    """Line events of frames whose code lies in the package, per run label."""

    def __init__(self):
        self.lines: dict[str, set[tuple[str, int]]] = {}
        self._current: set[tuple[str, int]] = set()
        self._paths: dict[str, str | None] = {}  # code filename -> its absolute path if in the package

    def _global(self, frame, event, arg):
        name = frame.f_code.co_filename
        if name not in self._paths:
            path = os.path.abspath(name)
            self._paths[name] = path if Path(path).parent == PACKAGE else None
        return self._local if self._paths[name] else None

    def _local(self, frame, event, arg):
        if event == "line":
            self._current.add((self._paths[frame.f_code.co_filename], frame.f_lineno))
        return self._local

    @contextlib.contextmanager
    def recording(self, label: str):
        self._current = self.lines.setdefault(label, set())
        sys.settrace(self._global)
        try:
            yield
        finally:
            sys.settrace(None)


# ---------------------------------------------------------------------------
# the runs


def _quietly(fn, *args):
    """fn(*args) with its standard output discarded; an exception is printed, not raised."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return fn(*args)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None


def run_workloads(seed: int) -> None:
    # importing run sets the benchmark's one BLAS thread before numpy loads
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run

    run.import_geomprob()
    import workloads

    for name, build in workloads.WORKLOADS.items():
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            results = run.run_pass(build(seed))[1]
        raised = sum(r.error is not None for r in results)
        print(f"workload {name}: {len(results)} checks, {raised} raised, "
              f"{time.perf_counter() - t0:.1f} s traced", file=sys.stderr)


def cli_runs(seed: int) -> list[list[str]]:
    """One argv per CLI subcommand and mode, each at a small n."""
    import geomprob as gp

    ball2 = json.dumps({"type": "ball", "center": [0.0, 0.0], "radius": 1.0})
    ball3 = json.dumps({"type": "ball", "center": [0.0, 0.0, 0.0], "radius": 1.0})
    poly = json.dumps(gp.bottom_pinned_polygon(gp.SampleStream(seed, 0)).to_json())
    common = ["--seed", str(seed)]
    return [
        ["exact-table", "--d", "2..3", "--k", "1..2"],
        ["estimate", "--body", ball2, "--n", "6400"] + common,
        ["estimate", "--body", ball2, "--pinned", "0,0", "--n", "6400"] + common,
        ["derivative-check", "--body", ball3, "--v", "1,0,0", "--n", "6400", "--f", "coordsum"] + common,
        ["symmetrize", "--poly", poly, "--op", "steiner", "--angle", "0.7"],
        ["symmetrize", "--poly", poly, "--op", "shake"],
        ["plane-check", "--poly", poly, "--x", "0,0", "--n", "3200"] + common,
        ["counterexample", "--d", "4", "--n", "6400"] + common,
        ["d3-probe", "--n", "6400"] + common,
        ["monotonicity-2d", "--pairs", "2", "--n", "6400"] + common,
        ["k0-scan", "--d", "2..3"],
    ] + [["detcov-counterexample", "--variant", v, "--n", "6400"] + common for v in ("simplex", "ball", "square")]


def run_cli(seed: int) -> None:
    from geomprob import cli

    for argv in cli_runs(seed):
        code = _quietly(cli.main, argv)
        if code != 0:
            print(f"cli {argv[0]} exited {code}", file=sys.stderr)


def run_criteria() -> None:
    import pytest

    # pytest reports on standard error, so that standard output holds only the census
    with contextlib.redirect_stdout(sys.stderr):
        code = pytest.main([str(ROOT / "tests" / "test_acceptance.py"), "-q", "-p", "no:cacheprovider",
                            "--rootdir", str(ROOT)])
    print(f"criteria: pytest exited {int(code)}", file=sys.stderr)


# ---------------------------------------------------------------------------
# the report


def _own_lines(stmt: ast.stmt) -> range:
    """A statement's own lines: all of a simple one, the header (and decorators) of a compound one."""
    first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
    if isinstance(stmt, COMPOUND):
        return range(first, _children(stmt)[0].lineno)
    if isinstance(stmt, FUNCTIONS + (ast.ClassDef,)):
        return range(first, stmt.body[0].lineno)
    return range(first, stmt.end_lineno + 1)


def _children(stmt: ast.stmt) -> list[ast.stmt]:
    """The statements directly inside a compound statement, in source order."""
    if isinstance(stmt, ast.Match):
        return [s for case in stmt.cases for s in case.body]
    if isinstance(stmt, ast.Try):
        lists = [stmt.body] + [h.body for h in stmt.handlers] + [stmt.orelse, stmt.finalbody]
        return [s for body in lists for s in body]
    return list(stmt.body) + list(getattr(stmt, "orelse", []))


def _code(body: list[ast.stmt]) -> list[ast.stmt]:
    """The statements of a body that compile to code: no docstring, global or bare annotation."""
    out = []
    for i, s in enumerate(body):
        if i == 0 and isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant) and isinstance(s.value.value, str):
            continue
        if isinstance(s, (ast.Global, ast.Nonlocal)) or (isinstance(s, ast.AnnAssign) and s.value is None):
            continue
        out.append(s)
    return out


def _ran(stmt: ast.stmt, hit: set[int]) -> bool:
    if any(line in hit for line in _own_lines(stmt)):
        return True
    return isinstance(stmt, COMPOUND) and any(_ran(s, hit) for s in _code(_children(stmt)))


def _unexecuted(body: list[ast.stmt], hit: set[int]) -> list[ast.stmt]:
    """The outermost statements of a function body that did not run; nested functions are their own entries."""
    out = []
    for s in _code(body):
        if not _ran(s, hit):
            out.append(s)
        elif isinstance(s, COMPOUND):
            out += _unexecuted(_children(s), hit)
    return out


def _functions(tree: ast.Module):
    """(qualified name, node) of every function in a module, methods and nested ones included."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, FUNCTIONS):
                yield prefix + child.name, child
                yield from walk(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, prefix + child.name + ".")
            else:
                yield from walk(child, prefix)

    yield from walk(tree, "")


def census(sources: dict[Path, str], lines: dict[str, set[tuple[str, int]]], labels) -> list[str]:
    """Report lines: per function, what none of the runs under ``labels`` executed."""
    out = []
    for path, text in sources.items():
        source = text.splitlines()
        tree = ast.parse(text)
        hit = {line for label in labels for f, line in lines.get(label, ()) if f == str(path)}
        for name, fn in _functions(tree):
            body = _code(fn.body)
            if not body:
                continue
            where = f"{path.name}:{fn.lineno} {name}"
            if not any(_ran(s, hit) for s in body):
                out.append(f"{where}: never called")
                continue
            for s in _unexecuted(fn.body, hit):
                span = f"{s.lineno}" if s.end_lineno == s.lineno else f"{s.lineno}-{s.end_lineno}"
                out.append(f"{where}: line {span}: {source[s.lineno - 1].strip()}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--criteria", action="store_true", help="also run the acceptance tests (slow)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(PACKAGE.parent))
    # read before the runs, so that the line numbers are those of the code that ran
    sources = {path: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}

    recorder = Recorder()
    with recorder.recording("workloads"):
        run_workloads(args.seed)
    with recorder.recording("cli"):
        run_cli(args.seed)
    if args.criteria:
        with recorder.recording("criteria"):
            run_criteria()

    labels = list(recorder.lines)
    never = census(sources, recorder.lines, labels)
    print(f"# statements that no run executed ({', '.join(labels)})")
    print("\n".join(never))
    if args.criteria:
        only = sorted(set(census(sources, recorder.lines, ["workloads", "cli"])) - set(never))
        print("\n# statements that only the criteria executed")
        print("\n".join(only))
    return 0


if __name__ == "__main__":
    sys.exit(main())

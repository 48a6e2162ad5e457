"""geomprob benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads (see ``workloads.py`` and ``layers.json``) replay the calls of
the acceptance criteria at smaller sample budgets. A run builds the workload
from the seed, then repeats passes over all its checks, one after another
in this one process, until ``--seconds`` have passed (at least
``MIN_PASSES``). Every pass uses the same inputs and per-check seeds, so
every pass must give the same output digest.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates plain
and traced passes and prints the per-layer metrics, the tracing overhead
and whether the traced digest equals the plain one; its spans are written
to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Lines before it give
the machine stamp, the digest and every check whose gate failed.

geomprob is imported from the ``src`` directory next to this one; without
it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

# One compute thread, BLAS included, so a run is a single closed-loop client
# whose timings do not depend on how busy the other core is. Must be set
# before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402  (after the thread settings above)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MIN_PASSES = 3
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 120.0
TAIL_BEYOND = 10
REF_REPEATS = 3
# reference_time() on the 2-vCPU Intel Xeon VM the benchmark was built on;
# setup_s is given in seconds at this reference speed
REF_NOMINAL_S = 1.4e-3
READY = "perfbench-setup-ready"


class BenchError(Exception):
    """The benchmark cannot run here (no program to measure, bad arguments)."""


def import_geomprob():
    """Import geomprob from this checkout's ``src`` and nowhere else."""
    if not (SRC / "geomprob" / "__init__.py").is_file():
        raise BenchError(f"no geomprob package under {SRC}")
    sys.path.insert(0, str(SRC))
    import geomprob

    if not Path(geomprob.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"geomprob was imported from {geomprob.__file__}, not from {SRC}")
    return geomprob


# ---------------------------------------------------------------------------
# passes


class CheckResult(NamedTuple):
    name: str
    seconds: float
    outcome: object  # workloads.Outcome, or None when the check raised
    error: str | None
    ref: float | None  # reference-kernel time around the check, when timed


def reference_time() -> float:
    """Median time of a fixed millisecond kernel: a numpy sort and a Python loop.

    The speed of a shared machine can drift by tens of percent within
    seconds, for every process on it alike. Timing this kernel between
    checks and dividing each check's time by it cancels that drift out of
    the ``*_ref`` metrics. The kernel does not call geomprob, so only
    changes to the program move them.
    """
    x = np.random.default_rng(12345).random(20_000)
    times = []
    for _ in range(REF_REPEATS):
        t0 = time.perf_counter()
        for _ in range(5):
            np.sort(x)
        s = 0
        for i in range(20_000):
            s += i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_pass(plan, tracer=None, pass_id: int = 0, timed_ref: bool = False):
    """Run every check once on a fresh copy of the inputs.

    The copy keeps any state a body caches on itself from carrying over
    from one pass to the next, so each pass pays for it again. With
    ``timed_ref`` the reference kernel is timed before the first check and
    after each one, and each check gets the mean of the two around it.
    Returns (seconds in checks, [CheckResult]).
    """
    inputs = copy.deepcopy(plan.inputs)
    results = []
    ref_before = reference_time() if timed_ref else None
    for check in plan.checks:
        if tracer is not None:
            tracer.check = f"{pass_id}:{check.name}"
        t0 = time.perf_counter()
        try:
            outcome, error = check.run(inputs), None
        except Exception as exc:  # a failing check is counted, the run goes on
            outcome, error = None, f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        seconds = time.perf_counter() - t0
        ref = None
        if timed_ref:
            ref_after = reference_time()
            ref, ref_before = 0.5 * (ref_before + ref_after), ref_after
        results.append(CheckResult(check.name, seconds, outcome, error, ref))
    return sum(r.seconds for r in results), results


def digest(results) -> str:
    """sha256 of every check's values (means and stderrs) at full precision."""
    h = hashlib.sha256()
    for r in results:
        h.update(r.name.encode())
        if r.outcome is None:
            h.update(b"error")
        else:
            h.update(",".join(float(v).hex() for v in r.outcome.values).encode())
        h.update(b";")
    return h.hexdigest()


def passed(r: CheckResult) -> bool:
    return r.error is None and bool(r.outcome.ok)


def finite(r: CheckResult) -> bool:
    return r.error is None and all(math.isfinite(v) for v in r.outcome.values)


def tail_percentile(checks: int) -> int:
    """Highest whole percentile with TAIL_BEYOND checks above it in MIN_PASSES passes.

    The percentile depends only on the checks per pass, not on how many
    passes a run fits: with few distinct checks, a percentile that moved
    with the pass count would jump from one check to another.
    """
    n = checks * MIN_PASSES
    for p in range(99, 0, -1):
        if n - math.ceil(p * n / 100) >= TAIL_BEYOND:
            return p
    return 100


def percentile(xs: list[float], p: int) -> float:
    """Nearest-rank percentile."""
    xs = sorted(xs)
    return xs[max(math.ceil(p * len(xs) / 100), 1) - 1]


# ---------------------------------------------------------------------------
# set-up time


def setup_only(workload: str, seed: int) -> None:
    """Child mode: build the workload's inputs, say ready, exit."""
    import workloads

    workloads.WORKLOADS[workload](seed)
    print(READY, flush=True)


def measure_setup(workload: str, seed: int, repeats: int) -> list[tuple[float, float]]:
    """(seconds, reference time) for each of ``repeats`` fresh interpreters.

    Each repeat is a child process that imports geomprob and builds the
    workload's inputs; it is timed from spawn until it reports ready. The
    reference kernel is timed just before and after it.
    """
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(repeats):
        ref_before = reference_time()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            try:
                line = child.stdout.readline()
                elapsed = time.perf_counter() - t0
                child.wait(timeout=SETUP_TIMEOUT_S)
            finally:
                if child.poll() is None:
                    child.kill()
                    child.wait()
        if line.strip() != READY or child.returncode != 0:
            raise BenchError(f"set-up child failed with code {child.returncode}")
        samples.append((elapsed, 0.5 * (ref_before + reference_time())))
    return samples


# ---------------------------------------------------------------------------
# machine stamp


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and line.rstrip().endswith(".so")}
    except OSError:
        return None
    for lib in sorted(libs):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                return int(fn())
    return None


def stamp() -> dict:
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    lines = {
        p.name: sum(1 for _ in p.open())
        for p in sorted((SRC / "geomprob").glob("*.py"))
    }
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": BLAS_THREADS,
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
    }


# ---------------------------------------------------------------------------
# runs


def _emit(obj) -> None:
    print(json.dumps(obj), flush=True)


def _report_failures(results) -> None:
    for r in results:
        if r.error is not None:
            _emit({"check_error": r.name, "error": r.error})
        elif not r.outcome.ok:
            _emit({"gate_failed": r.name, "z": r.outcome.z, "detail": r.outcome.detail})


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: float = 1.0, setup_repeats: int = SETUP_REPEATS, extra_checks=()) -> dict:
    """One benchmark run; returns the final result object."""
    import workloads

    build = workloads.WORKLOADS[workload]
    # the set-up samples are spread over the run, one after each pass
    setup_samples = [] if trace else measure_setup(workload, seed, 1)
    plan = build(seed, scale)
    plan = workloads.Plan(plan.inputs, plan.checks + list(extra_checks))
    _emit({"stamp": stamp()})

    # a new round starts only if a round as long as the last ends by the deadline
    deadline = time.perf_counter() + seconds
    last_round = 0.0
    plain, traced = [], []
    if trace:
        import tracing

        tracer = tracing.Tracer()
        traced_plan = None
        while not traced or time.perf_counter() + last_round <= deadline:
            t_round = time.perf_counter()
            plain.append(run_pass(plan))
            tracer.install()
            try:
                if traced_plan is None:
                    tracer.check = "setup"
                    traced_plan = build(seed, scale)
                    traced_plan = workloads.Plan(traced_plan.inputs, traced_plan.checks + list(extra_checks))
                traced.append(run_pass(traced_plan, tracer, len(traced)))
            finally:
                tracer.uninstall()
            last_round = time.perf_counter() - t_round
    else:
        while len(plain) < MIN_PASSES or time.perf_counter() + last_round <= deadline:
            t_round = time.perf_counter()
            plain.append(run_pass(plan, timed_ref=True))
            if len(setup_samples) < setup_repeats:
                setup_samples += measure_setup(workload, seed, 1)
            last_round = time.perf_counter() - t_round
        setup_samples += measure_setup(workload, seed, setup_repeats - len(setup_samples))

    all_passes = plain + traced
    results = [r for _, rs in all_passes for r in rs]
    digests = [digest(rs) for _, rs in all_passes]
    failed = sum(not passed(r) for r in results)
    correct = all(finite(r) for r in results) and len(set(digests)) == 1
    walls = [w for w, _ in plain]
    wall = statistics.median(walls)
    latencies = [r.seconds for _, rs in plain for r in rs]
    tail_p = tail_percentile(len(plan.checks))
    tail = percentile(latencies, tail_p)
    info = {
        "workload": workload,
        "seed": seed,
        "digest": digests[0],
        "digests_agree": len(set(digests)) == 1,
        "passes": len(plain),
        "traced_passes": len(traced),
        "checks_per_pass": len(plan.checks),
        "pass_walls_s": walls,
        "tail_percentile": tail_p,
        "tail_checks": len(latencies),
        "setup_samples_s": [seconds for seconds, _ in setup_samples],
    }

    if trace:
        traced_wall = statistics.median(w for w, _ in traced)
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in tracing.per_layer_metrics(
                tracer.spans, len(traced), sum(w for w, _ in traced)).items()
        }
        metrics["trace.overhead_s"] = {"value": traced_wall - wall, "unit": "s"}
        metrics["trace.overhead_share"] = {"value": (traced_wall - wall) / wall, "unit": "share"}
        metrics["trace.digest_match"] = {"value": float(len(set(digests)) == 1), "unit": "bool"}
        metrics["trace.spans"] = {"value": float(len(tracer.spans)), "unit": "count"}
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{workload}-seed{seed}.jsonl")
    else:
        # every check in units of the reference kernel timed around it
        wall_ref = statistics.median(sum(r.seconds / r.ref for r in rs) for _, rs in plain)
        latencies_ref = [r.seconds / r.ref for _, rs in plain for r in rs]
        points = sum(c.points for c in plan.checks)
        info["raw"] = {
            "wall_s": wall,
            "points_per_s": points / wall,
            "check_p50_s": statistics.median(latencies),
            "check_tail_s": tail,
            "reference_s": statistics.median(r.ref for _, rs in plain for r in rs),
            "setup_s": statistics.median(seconds for seconds, _ in setup_samples),
        }
        metrics = {
            "wall_ref": {"value": wall_ref, "unit": "ref"},
            "points_per_ref": {"value": points / wall_ref, "unit": "1/ref"},
            "check_p50_ref": {"value": statistics.median(latencies_ref), "unit": "ref"},
            "check_tail_ref": {"value": percentile(latencies_ref, tail_p), "unit": "ref"},
            "setup_s": {
                "value": REF_NOMINAL_S * statistics.median(seconds / ref for seconds, ref in setup_samples),
                "unit": "s",
            },
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            "checks_passed": {"value": 1.0 - failed / len(results), "unit": "share"},
        }
    _emit(info)
    _report_failures(plain[0][1])
    return {"correct": correct, "attempted": len(results), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="geomprob benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        import_geomprob()
        import workloads

        if args.workload not in workloads.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
        if args.setup_only:
            setup_only(args.workload, args.seed)
            return 0
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    _emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())

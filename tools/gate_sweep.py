"""Gate calibration: how often each benchmark check fails over a range of seeds.

    python3 tools/gate_sweep.py --workload derivative-check --seeds 0..29

For every seed of the inclusive range, builds the workload from
``perfbench/workloads.py`` at that seed and runs one pass of its checks
through ``perfbench/run.py``'s ``run_pass``, as the benchmark runs them: on
a fresh copy of the inputs, at one BLAS thread. A check fails when
``run.passed`` says so, so a raised exception counts as a fail and its
traceback goes to standard error.

It prints one line per seed with the checks that failed there, then one
line per check with its fails over the seeds, then the total. Two trees
that compute the same gate outcomes print the same per-seed lines, so the
output of a parent and a head can be compared with ``diff``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seed_range(text: str) -> range:
    """'a..b' (inclusive) or a single seed 'a'."""
    lo, _, hi = text.partition("..")
    seeds = range(int(lo), int(hi or lo) + 1)
    if not seeds:
        raise argparse.ArgumentTypeError(f"seed range {text!r} is empty")
    return seeds


def main(argv=None) -> int:
    # importing run sets the benchmark's one BLAS thread before numpy loads
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run

    run.import_geomprob()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="inclusive range a..b")
    args = parser.parse_args(argv)

    build = workloads.WORKLOADS[args.workload]
    fails: dict[str, int] = {}
    for seed in args.seeds:
        plan = build(seed)
        for check in plan.checks:
            fails.setdefault(check.name, 0)
        failed = [r.name for r in run.run_pass(plan)[1] if not run.passed(r)]
        for name in failed:
            fails[name] += 1
        print(f"seed {seed}: {len(failed)}/{len(plan.checks)} failed" + "".join(f" {name}" for name in failed),
              flush=True)
    seeds = len(args.seeds)
    for name, count in fails.items():
        print(f"{name}: {count}/{seeds}")
    print(f"total: {sum(fails.values())}/{seeds * len(fails)} checks failed over {seeds} seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())

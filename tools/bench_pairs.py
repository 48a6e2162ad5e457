"""Alternating parent/head runs of the benchmark, and their comparison.

    python3 tools/bench_pairs.py --workload planar-corpus --seeds 201 202 203 \
        [--parent HEAD~1] [--head HEAD] [--seconds 30] [--out runs.jsonl] [--workdir DIR]

Both revisions are exported with ``git archive`` into fresh directories, so
each run builds and measures only committed files. For every seed the two
sides run one after the other, ``perfbench/run.py --workload W --seed S
--seconds T`` in each export; the first pair runs the parent first and the
order alternates from there.

Every run's last standard-output line, the benchmark's JSON result, is
appended to ``--out`` (by default ``runs.jsonl`` in the work directory)
with the side, revision, seed and order, and with the info line the
benchmark prints before it, which holds the output digest of the run's
passes. For each seed the script prints whether the parent's and the
head's digests are equal: a change that moves no output bit keeps them
equal on every seed. At the end it prints, for each end-to-end metric that
``BENCHMARK.json`` declares, the parent's and the head's median and
quartiles, the head/parent ratio of the medians, the parent's
interquartile range relative to its median, and in how many pairs the head
was better (ties count for neither side); then in how many pairs the
digests were equal.

Each seed line also gives both sides' failed/attempted checks. A median of
``checks_passed`` hides a single run that fails one more check than its
pair, so the script ends with each side's failed and attempted checks
summed over all runs, and names every seed where the head failed more
checks than the parent.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN_TIMEOUT_S = 1800.0


def export(rev: str, dest: Path) -> str:
    """Write the files of ``rev`` into ``dest`` and return its full hash."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()
    dest.mkdir(parents=True)
    archive = dest.with_suffix(".tar")
    subprocess.run(["git", "archive", "--format=tar", "-o", str(archive), sha], cwd=ROOT, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()
    return sha


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict | None]:
    """One benchmark run in an exported tree: its last output line and its info line (the one with the digest), parsed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    parsed = [json.loads(line) for line in lines]
    info = next((obj for obj in parsed[:-1] if isinstance(obj, dict) and "digest" in obj), None)
    return parsed[-1], info


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[tuple[dict, dict]], declared: list[dict]) -> list[str]:
    """One line per declared end-to-end metric over the (parent, head) result pairs."""
    lines = [f"{'metric':<16} {'parent q1/med/q3':>30} {'head q1/med/q3':>30} {'ratio':>7} {'p.iqr':>7} {'wins':>6}"]
    for spec in declared:
        name = spec["name"]
        got = [(p["metrics"][name]["value"], h["metrics"][name]["value"]) for p, h in pairs
               if name in p["metrics"] and name in h["metrics"]]
        if not got:
            continue
        parent = [p for p, _ in got]
        head = [h for _, h in got]
        lower = spec["better"] == "lower"
        wins = sum((h < p) if lower else (h > p) for p, h in got)
        pq, hq = quartiles(parent), quartiles(head)
        ratio = hq[1] / pq[1] if pq[1] else float("nan")
        iqr = (pq[2] - pq[0]) / pq[1] if pq[1] else float("nan")
        lines.append(
            f"{name:<16} {'/'.join(f'{x:.4g}' for x in pq):>30} {'/'.join(f'{x:.4g}' for x in hq):>30} "
            f"{ratio:>7.3f} {iqr:>7.3f} {wins:>3}/{len(got)}"
        )
    return lines


def _failed(result: dict) -> str:
    return f"{result['failed']}/{result['attempted']}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--parent", default="HEAD~1")
    parser.add_argument("--head", default="HEAD")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", type=Path, help="JSON-lines file that every run's result is appended to "
                        "(default: runs.jsonl in the work directory)")
    parser.add_argument("--workdir", type=Path, help="directory for the two exports (default: a new temporary one)")
    args = parser.parse_args(argv)

    work = args.workdir or Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    trees = {"parent": work / "parent", "head": work / "head"}
    shas = {side: export(getattr(args, side), tree) for side, tree in trees.items()}
    out = args.out or work / "runs.jsonl"
    declared = json.loads((trees["head"] / "BENCHMARK.json").read_text())["end_to_end"]
    print(f"parent {shas['parent'][:12]}  head {shas['head'][:12]}  workload {args.workload}  runs in {out}", flush=True)

    pairs = []
    equal_digests = 0
    worse = []
    for i, seed in enumerate(args.seeds):
        order = ("parent", "head") if i % 2 == 0 else ("head", "parent")
        results, digests = {}, {}
        for position, side in enumerate(order):
            results[side], info = run_once(trees[side], args.workload, seed, args.seconds)
            digests[side] = info and info.get("digest")
            record = {"side": side, "rev": shas[side], "workload": args.workload, "seed": seed,
                      "position": position, "seconds": args.seconds, "info": info, "result": results[side]}
            with out.open("a") as f:
                f.write(json.dumps(record) + "\n")
        pairs.append((results["parent"], results["head"]))
        wall = {side: results[side]["metrics"]["wall_ref"]["value"] for side in order}
        same = digests["parent"] is not None and digests["parent"] == digests["head"]
        equal_digests += same
        print(f"seed {seed} ({order[0]} first): parent {wall['parent']:.1f}  head {wall['head']:.1f}  "
              f"ratio {wall['head'] / wall['parent']:.3f}  digests {'equal' if same else 'DIFFER'} "
              f"{str(digests['parent'])[:12]}/{str(digests['head'])[:12]}  "
              f"correct {results['parent']['correct']}/{results['head']['correct']}  "
              f"failed {_failed(results['parent'])} / {_failed(results['head'])}", flush=True)
        if results["head"]["failed"] > results["parent"]["failed"]:
            worse.append(seed)
    print("\n".join(summarize(pairs, declared)))
    print(f"digests equal {equal_digests}/{len(pairs)}")
    for side, index in (("parent", 0), ("head", 1)):
        failed = sum(pair[index]["failed"] for pair in pairs)
        attempted = sum(pair[index]["attempted"] for pair in pairs)
        print(f"{side} failed {failed}/{attempted} checks")
    print(f"head failed more checks than parent on seeds: {' '.join(map(str, worse)) or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

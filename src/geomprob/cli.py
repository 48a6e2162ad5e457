"""Command-line front end: parse the arguments, call the library, print.

The experiments live in the library modules. Each subcommand prints
JSON-lines reports to stdout (floats at 12 significant digits); the two
table subcommands also write CSV with --out. Exit code 0 means the run
completed with a pass or report-only verdict, 1 means a fail verdict, 2
means a usage or input error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
import time

import numpy as np

from . import exact
from .bodies import Polygon2D, body_from_json
# the benchmark wraps and calls the two experiments as cli.detcov_counterexample
# and cli.monotonicity_2d, so both names stay bound here
from .derivatives import (
    counterexample_derivative_test,
    crofton_derivative_rhs,
    cut_family,
    detcov_counterexample,
    finite_difference,
    sf_coordinate_sum,
    sf_one,
    sf_simplex_volume,
)
from .errors import GeomProbError
from .estimators import expectation_estimate, moment_estimate, pinned_moment_estimate
from .report import ExperimentReport, round_floats
from .sampling import MASK64, SampleStream
from .symmetry2d import blaschke_shake, monotonicity_2d, plane_bound_pipeline, steiner_symmetrize


def _emit(obj) -> None:
    print(json.dumps(round_floats(obj)))


def _emit_table(path: str | None, header: list[str], rows: list[list]) -> None:
    """One JSON object per row (NaN and None as null); with a path, also the rows as CSV."""
    for row in rows:
        rec = dict(zip(header, row))
        _emit({k: None if isinstance(x, float) and math.isnan(x) else x for k, x in rec.items()})
    if path:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow(round_floats(list(row)))


def _resolve_seed(args) -> int:
    """--seed if given, else GEOMPROB_SEED, else 0; masked to 64 bits as SampleStream masks it."""
    seed = args.seed
    env = os.environ.get("GEOMPROB_SEED", "")
    if seed is None and env.strip():
        try:
            seed = int(env)
        except ValueError:
            raise ValueError(f"GEOMPROB_SEED must be an integer, got {env!r}") from None
    return (seed or 0) & MASK64


def _parse_range(text: str) -> list[int]:
    if ".." not in text:
        return [int(text)]
    lo, hi = text.split("..", 1)
    values = list(range(int(lo), int(hi) + 1))
    if not values:
        raise ValueError(f"range {text!r} is empty")
    return values


def _parse_vector(text: str) -> np.ndarray:
    return np.array([float(part) for part in text.split(",")], dtype=float)


def _report_exit(report: ExperimentReport) -> int:
    _emit(report.to_dict())
    return 1 if report.verdict == "fail" else 0


# ---------------------------------------------------------------------------
# subcommand handlers


def run_exact_table(args) -> int:
    ds = _parse_range(args.d)
    ks = _parse_range(args.k)
    header = ["d", "k", "ball_moment", "pinned_moment", "ratio_bound", "chain_bound"]
    rows = []
    for d in ds:
        for k in ks:
            chain = exact.chain_bound(d, k) if d >= 4 else float("nan")
            rows.append(
                [
                    d,
                    k,
                    exact.ball_simplex_moment(d, k).to_float(),
                    exact.ball_pinned_moment(d, k).to_float(),
                    exact.moment_ratio_bound(d, k).to_float(),
                    chain,
                ]
            )
    _emit_table(args.out, header, rows)
    return 0


def run_estimate(args) -> int:
    body = body_from_json(args.body)
    t0 = time.perf_counter()
    if args.pinned is not None:
        est = pinned_moment_estimate(body, _parse_vector(args.pinned), args.k, args.n, args.seed)
    else:
        est = moment_estimate(body, args.k, args.n, args.seed)
    _emit(
        {
            "mean": est.mean,
            "stderr": est.stderr,
            "n": est.n,
            "k": args.k,
            "seed": args.seed,
            "wall_time_s": time.perf_counter() - t0,
        }
    )
    return 0


def _statistic_for(f_name: str, d: int):
    """(SymmetricFunction, estimator handle) pair for a named integrand."""
    if f_name == "one":
        f = sf_one()
    elif f_name == "coordsum":
        f = sf_coordinate_sum()
    elif f_name == "simplexvol":
        f = sf_simplex_volume(d)
    else:
        raise ValueError(f"unknown integrand {f_name!r}")

    def statistic(body, n, seed):
        return expectation_estimate(body, f.eval_batch, f.arity, n, seed)

    return f, statistic


def run_derivative_check(args) -> int:
    body = body_from_json(args.body)
    v = _parse_vector(args.v)
    f, statistic = _statistic_for(args.f, body.dim)
    fam = cut_family(body, v)
    t = args.t if args.t is not None else fam.a
    h = args.h if args.h is not None else 0.02 * (fam.b - fam.a)
    stream = SampleStream(args.seed, 0)
    rhs = crofton_derivative_rhs(fam, t, f, args.n, stream.substream(0))
    fd = finite_difference(fam, t, h, statistic, args.n, stream.substream(1))
    denom = max(abs(rhs.mean), abs(fd.mean))
    rel_err = abs(rhs.mean - fd.mean) / denom if denom > 0 else 0.0
    _emit(
        {
            "rhs": rhs.mean,
            "rhs_stderr": rhs.stderr,
            "fd": fd.mean,
            "fd_stderr": fd.stderr,
            "rel_err": rel_err,
            "t": t,
            "h": h,
            "seed": args.seed,
            "n": args.n,
        }
    )
    return 0


def run_symmetrize(args) -> int:
    body = body_from_json(args.poly)
    if not isinstance(body, Polygon2D):
        raise ValueError("symmetrize expects a polygon body")
    if args.op == "steiner":
        out = steiner_symmetrize(body, args.angle)
    else:
        out = blaschke_shake(body, args.line)
    _emit(out.to_json())
    return 0


def run_plane_check(args) -> int:
    body = body_from_json(args.poly)
    if not isinstance(body, Polygon2D):
        raise ValueError("plane-check expects a polygon body")
    return _report_exit(plane_bound_pipeline(body, _parse_vector(args.x), args.n, args.seed))


def run_counterexample(args) -> int:
    return _report_exit(counterexample_derivative_test(args.d, args.eps, args.n, args.seed))


def run_detcov_counterexample(args) -> int:
    return _report_exit(detcov_counterexample(args.n, args.seed, args.variant, args.alpha))


def run_monotonicity_2d(args) -> int:
    return _report_exit(monotonicity_2d(args.pairs, args.n, args.seed))


def run_k0_scan(args) -> int:
    rows = [[d, exact.find_k0(d, args.k_max)] for d in _parse_range(args.d)]
    _emit_table(args.out, ["d", "k0"], rows)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geomprob",
        description="Exact and Monte Carlo experiments on random simplices in convex bodies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, n_default):
        p.add_argument("--seed", type=int, default=None, help="RNG seed (env GEOMPROB_SEED if unset)")
        p.add_argument("--n", type=int, default=n_default, help="sample count")

    p = sub.add_parser("exact-table", help="closed-form moment table")
    p.add_argument("--d", type=str, default="2..4")
    p.add_argument("--k", type=str, default="1..3")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(handler=run_exact_table)

    p = sub.add_parser("estimate", help="moment or pinned-moment estimate")
    p.add_argument("--body", type=str, required=True, help="body JSON")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--pinned", type=str, default=None, help="pin point x1,...,xd")
    add_common(p, 10**6)
    p.set_defaults(handler=run_estimate)

    p = sub.add_parser("derivative-check", help="cut-derivative formula vs finite differences")
    p.add_argument("--body", type=str, required=True)
    p.add_argument("--v", type=str, required=True, help="cut direction v1,...,vd")
    p.add_argument("--t", type=float, default=None, help="cut offset (default: support minimum)")
    p.add_argument("--h", type=float, default=None, help="FD step (default 0.02 of the range)")
    p.add_argument("--f", type=str, default="simplexvol", choices=["one", "coordsum", "simplexvol"])
    add_common(p, 4 * 10**6)
    p.set_defaults(handler=run_derivative_check)

    p = sub.add_parser("symmetrize", help="Steiner symmetrization or Blaschke shaking")
    p.add_argument("--poly", type=str, required=True, help="polygon JSON")
    p.add_argument("--op", type=str, required=True, choices=["steiner", "shake"])
    p.add_argument("--angle", type=float, default=0.0, help="axis angle for steiner")
    p.add_argument("--line", type=float, default=0.0, help="line height for shake")
    p.set_defaults(handler=run_symmetrize)

    p = sub.add_parser("plane-check", help="pinned-ratio pipeline against 8/(9 pi^2)")
    p.add_argument("--poly", type=str, required=True)
    p.add_argument("--x", type=str, required=True, help="boundary point x,y")
    add_common(p, 10**6)
    p.set_defaults(handler=run_plane_check)

    p = sub.add_parser("counterexample", help="moment monotonicity at the cone apex")
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--eps", type=float, default=0.1)
    add_common(p, 10**7)
    p.set_defaults(handler=run_counterexample)

    p = sub.add_parser("detcov-counterexample", help="det-covariance monotonicity experiment")
    p.add_argument("--variant", type=str, default="simplex", choices=["simplex", "ball", "square"])
    p.add_argument("--alpha", type=float, default=1.2, help="hull-point stretch factor")
    add_common(p, 2 * 10**6)
    p.set_defaults(handler=run_detcov_counterexample)

    p = sub.add_parser("monotonicity-2d", help="nested polygon pairs stay monotone in d=2")
    p.add_argument("--pairs", type=int, default=50)
    add_common(p, 10**6)
    p.set_defaults(handler=run_monotonicity_2d)

    p = sub.add_parser("k0-scan", help="smallest k with moment ratio bound below 1")
    p.add_argument("--d", type=str, default="2..6")
    p.add_argument("--k-max", type=int, default=200)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(handler=run_k0_scan)

    p = sub.add_parser("d3-probe", help="the open d=3 case, report-only")
    p.add_argument("--eps", type=float, default=0.1)
    add_common(p, 10**7)
    p.set_defaults(handler=run_counterexample, d=3)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse takes "-0.5,0.2" for an option, since only a lone number counts as negative
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] in ("--pinned", "--x", "--v") and re.match(r"-\.?\d", argv[i]):
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    try:
        if hasattr(args, "seed"):
            args.seed = _resolve_seed(args)
        return args.handler(args)
    except (GeomProbError, ValueError, KeyError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line experiment drivers.

Each subcommand prints JSON-lines reports to stdout (floats at 12
significant digits); the two table subcommands also write CSV with --out.
Exit code 0 means the run completed with a pass or report-only verdict, 1
means a fail verdict, 2 means a usage or input error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time

import numpy as np

from . import exact
from .bodies import (
    Halfspace,
    Polygon2D,
    body_from_json,
    body_to_json,
    box_body,
    regular_simplex,
    regular_simplex_vertices,
    simplex_with_hull_point,
)
from .derivatives import (
    CutFamily,
    counterexample_derivative_test,
    crofton_derivative_rhs,
    cut_family,
    det_cov_increase,
    detcov_derivative_rhs,
    finite_difference,
    sf_coordinate_sum,
    sf_one,
    sf_simplex_volume,
)
from .errors import GeomProbError
from .estimators import (
    det_cov_estimate,
    expectation_estimate,
    isotropic_transform,
    moment_estimate,
    pinned_moment_estimate,
)
from .report import ExperimentReport, round_floats
from .sampling import SampleStream
from .symmetry2d import (
    blaschke_shake,
    nested_polygon_pair,
    plane_bound_pipeline,
    steiner_symmetrize,
)

Z_ONE_SIDED = 3.0
SIGMA_WINDOW = 4.0
# cut offsets past the new hull vertex: for the derivative formula and for the det increase
RHS_DEPTH = 0.10
FD_DEPTH = 0.15


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
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("GEOMPROB_SEED")
    if env is not None and env.strip():
        return int(env)
    return 0


def _parse_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(text)]


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
    seed = _resolve_seed(args)
    body = body_from_json(args.body)
    t0 = time.perf_counter()
    if args.pinned is not None:
        est = pinned_moment_estimate(body, _parse_vector(args.pinned), args.k, args.n, seed)
    else:
        est = moment_estimate(body, args.k, args.n, seed)
    _emit(
        {
            "mean": est.mean,
            "stderr": est.stderr,
            "n": est.n,
            "k": est.k,
            "seed": seed,
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
    seed = _resolve_seed(args)
    body = body_from_json(args.body)
    v = _parse_vector(args.v)
    f, statistic = _statistic_for(args.f, body.dim)
    fam = cut_family(body, v, seed=seed)
    t = args.t if args.t is not None else fam.a
    h = args.h if args.h is not None else 0.02 * (fam.b - fam.a)
    stream = SampleStream(seed, 0)
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
            "seed": seed,
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
    _emit(body_to_json(out))
    return 0


def run_plane_check(args) -> int:
    seed = _resolve_seed(args)
    body = body_from_json(args.poly)
    if not isinstance(body, Polygon2D):
        raise ValueError("plane-check expects a polygon body")
    report = plane_bound_pipeline(body, _parse_vector(args.x), args.n, seed)
    return _report_exit(report)


def run_counterexample(args) -> int:
    seed = _resolve_seed(args)
    report = counterexample_derivative_test(args.d, args.eps, args.n, seed)
    return _report_exit(report)


def detcov_counterexample(
    n: int = 2 * 10**6, seed: int = 0, variant: str = "simplex", alpha: float = 1.2
) -> ExperimentReport:
    """The determinant-monotonicity experiment in three flavors.

    simplex (d=3): isotropize a regular simplex, confirm its facet centers
    sit at norm sqrt(5/3) < sqrt(3), then make one facet center an extreme
    point of the hull, cut a small cap around it, and verify both the
    analytic derivative of det A and a shared-sample finite difference show
    det A increasing: an explicit nested pair with reversed determinants.

    ball (d=3): the isotropic ball has boundary norm sqrt(5) > sqrt(3), so
    this mechanism cannot fire; reported inconclusive by design.

    square (d=2): every edge family of the isotropic square has a
    non-positive derivative, the monotone case.
    """
    t0 = time.perf_counter()
    stream = SampleStream(seed, 0)
    if variant == "ball":
        radius = math.sqrt(5.0)
        return ExperimentReport(
            name="detcov-counterexample",
            verdict="inconclusive",
            seed=seed,
            n=0,
            params={"variant": "ball", "d": 3},
            metrics={"boundary_norm": radius, "threshold": math.sqrt(3.0)},
            wall_time_s=time.perf_counter() - t0,
        )
    if variant == "square":
        side = math.sqrt(3.0)
        square = box_body([-side, -side], [side, side])
        edge_rhs = []
        all_nonpositive = True
        for j, sign in ((0, 1.0), (0, -1.0), (1, 1.0), (1, -1.0)):
            v = np.zeros(2)
            v[j] = sign
            fam = CutFamily(square, v, -side, side)
            est = detcov_derivative_rhs(fam, -side, n, stream.substream(2 * j + (sign < 0)))
            edge_rhs.append(est.mean)
            if est.mean > Z_ONE_SIDED * est.stderr:
                all_nonpositive = False
        return ExperimentReport(
            name="detcov-counterexample",
            verdict="pass" if all_nonpositive else "fail",
            seed=seed,
            n=n,
            params={"variant": "square", "d": 2},
            metrics={"edge_rhs_max": max(edge_rhs), "edge_rhs_min": min(edge_rhs)},
            wall_time_s=time.perf_counter() - t0,
        )
    if variant != "simplex":
        raise ValueError(f"unknown variant {variant!r}")

    # isotropized regular simplex: facet centers at the extremal inradius
    base = regular_simplex(3, 1.0)
    iso_base = isotropic_transform(base, min(n, 10**6), stream.substream(0))
    centers = -regular_simplex_vertices(3, 1.0) / 3.0
    image_centers = centers @ iso_base.matrix.T + iso_base.shift
    facet_norm = float(np.linalg.norm(image_centers, axis=1).min())
    facet_ok = abs(facet_norm - math.sqrt(5.0 / 3.0)) <= 0.01

    # hull-point body, isotropized, with the support direction at the new vertex
    body, xa = simplex_with_hull_point(alpha)
    iso = isotropic_transform(body, max(min(n, 2 * 10**6), 10**6), stream.substream(1))
    x_iso = iso.matrix @ xa + iso.shift
    new_normals = body.normals[-3:] @ iso.inverse
    new_normals /= np.linalg.norm(new_normals, axis=1, keepdims=True)
    v = new_normals.sum(axis=0)
    v /= np.linalg.norm(v)
    a = float(v @ x_iso)
    proj = (regular_simplex_vertices(3, math.sqrt(15.0)) @ iso.matrix.T + iso.shift) @ v
    fam = CutFamily(iso, v, a, float(proj.max()))

    rhs = detcov_derivative_rhs(fam, a + RHS_DEPTH, n, stream.substream(2))
    rhs_z = rhs.mean / rhs.stderr if rhs.stderr > 0 else 0.0
    inc = det_cov_increase(iso, Halfspace(v, a + FD_DEPTH), n, stream.substream(3))
    inc_z = inc.mean / inc.stderr if inc.stderr > 0 else 0.0
    verdict = "pass" if (facet_ok and rhs_z >= Z_ONE_SIDED and inc_z >= Z_ONE_SIDED) else "fail"
    return ExperimentReport(
        name="detcov-counterexample",
        verdict=verdict,
        seed=seed,
        n=n,
        params={"variant": "simplex", "d": 3, "alpha": alpha, "rhs_depth": RHS_DEPTH, "fd_depth": FD_DEPTH},
        metrics={
            "facet_center_norm": facet_norm,
            "hull_point_norm": float(np.linalg.norm(x_iso)),
            "rhs": rhs.mean,
            "rhs_stderr": rhs.stderr,
            "rhs_z": rhs_z,
            "det_increase": inc.mean,
            "det_increase_stderr": inc.stderr,
            "det_increase_z": inc_z,
        },
        wall_time_s=time.perf_counter() - t0,
    )


def run_detcov_counterexample(args) -> int:
    seed = _resolve_seed(args)
    report = detcov_counterexample(
        n=args.n, seed=seed, variant=args.variant, alpha=args.alpha
    )
    return _report_exit(report)


def monotonicity_2d(pairs: int, n: int, seed: int = 0) -> ExperimentReport:
    """Nested random polygon pairs K in L: both det A and E V stay monotone."""
    t0 = time.perf_counter()
    stream = SampleStream(seed, 0)
    det_violations = 0
    moment_violations = 0
    worst_det_z = -math.inf
    worst_moment_z = -math.inf
    for i in range(pairs):
        inner, outer = nested_polygon_pair(stream.substream(2 * i))
        est_stream = stream.substream(2 * i + 1)
        det_k = det_cov_estimate(inner, n, est_stream.substream(0))
        det_l = det_cov_estimate(outer, n, est_stream.substream(1))
        mom_k = moment_estimate(inner, 1, n, est_stream.substream(2))
        mom_l = moment_estimate(outer, 1, n, est_stream.substream(3))
        det_z = (det_k.mean - det_l.mean) / math.hypot(det_k.stderr, det_l.stderr)
        mom_z = (mom_k.mean - mom_l.mean) / math.hypot(mom_k.stderr, mom_l.stderr)
        worst_det_z = max(worst_det_z, det_z)
        worst_moment_z = max(worst_moment_z, mom_z)
        if det_z > SIGMA_WINDOW:
            det_violations += 1
        if mom_z > SIGMA_WINDOW:
            moment_violations += 1
    verdict = "pass" if det_violations == 0 and moment_violations == 0 else "fail"
    return ExperimentReport(
        name="monotonicity-2d",
        verdict=verdict,
        seed=seed,
        n=n,
        params={"pairs": pairs},
        metrics={
            "det_violations": det_violations,
            "moment_violations": moment_violations,
            "worst_det_z": worst_det_z,
            "worst_moment_z": worst_moment_z,
        },
        wall_time_s=time.perf_counter() - t0,
    )


def run_monotonicity_2d(args) -> int:
    seed = _resolve_seed(args)
    report = monotonicity_2d(args.pairs, args.n, seed)
    return _report_exit(report)


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
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    try:
        return args.handler(args)
    except (GeomProbError, ValueError, KeyError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Spans around the public functions of each geomprob layer, from outside.

The tracer rebinds every wrapped name in every loaded ``geomprob`` module
that holds it, so calls between modules (``estimators`` calling
``sampling.sample_body``, ``bodies`` calling ``exact.kappa``) are caught
as well as calls from the benchmark. Methods are wrapped on their class.
Nothing under ``src/`` changes, and ``uninstall`` restores every binding.

A span is ``[name, label, start, end, parent, check, count, extra]``.
``count`` is the work the call was asked for (values, points, simplices)
and ``extra`` the bytes a volume kernel touches, computed from array sizes.
"""

from __future__ import annotations

import json
import math
import sys
import time

import numpy as np

import geomprob as gp
from geomprob import bodies, cli, derivatives, estimators, exact, sampling, symmetry2d

NAME, LABEL, START, END, PARENT, CHECK, COUNT, EXTRA = range(8)

PATHS = ("ball", "cone", "reflect", "slab", "base_reject", "box_reject")
REJECT_PATHS = ("base_reject", "box_reject")
BODY_TAGS = {
    gp.Ball: "ball",
    gp.HPolytope: "hpoly",
    gp.Polygon2D: "polygon",
    gp.HalfBallCone: "halfballcone",
    gp.Cut: "cut",
    gp.AffineImage: "affine",
}
ESTIMATOR_FNS = (
    "moment_estimate",
    "pinned_moment_estimate",
    "expectation_estimate",
    "det_cov_estimate",
    "covariance_estimate",
    "volume_estimate",
    "isotropic_transform",
)
DERIVATIVE_FNS = (
    "crofton_derivative_rhs",
    "detcov_derivative_rhs",
    "finite_difference",
    "det_cov_increase",
    "cut_family",
)
SYMMETRY_FNS = (
    "steiner_symmetrize",
    "blaschke_shake",
    "nested_polygon_pair",
    "bottom_pinned_polygon",
    "plane_bound_pipeline",
)
CLI_FNS = ("monotonicity_2d", "detcov_counterexample")
MODULES = ("sampling", "bodies", "estimators", "derivatives", "symmetry2d", "cli", "exact")
EXACT_FNS = (
    "kappa",
    "omega",
    "ball_simplex_moment",
    "ball_pinned_moment",
    "busemann_min_ratio",
    "kappa_ratio_bounds",
    "moment_ratio_bound",
    "chain_bound",
    "find_k0",
)
# the library's own test for a hyperplane through a ball's center
CENTER_CUT_TOL = 1e-12


def _direct_path(body) -> str | None:
    if isinstance(body, gp.Ball):
        return "ball"
    if isinstance(body, gp.HalfBallCone):
        return "cone"
    if isinstance(body, gp.AffineImage):
        return _direct_path(body.base)
    if isinstance(body, gp.Cut):
        h = body.halfspace
        base = body.base
        if isinstance(base, gp.Ball) and abs(float(h.normal @ base.center) - h.offset) <= CENTER_CUT_TOL:
            return "reflect"
        params = bodies.parallel_slab_params(body)
        if params is not None and params[2] < params[3]:
            return "slab"
    return None


def sampler_path(body) -> str:
    """The sampler path ``sample_body`` takes for a body, from its structure."""
    path = _direct_path(body)
    if path is not None:
        return path
    if isinstance(body, gp.Cut) and _direct_path(body.base) is not None:
        return "base_reject"
    return "box_reject"


def _rows(pts) -> int:
    shape = np.shape(pts)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _volume_bytes(points) -> int:
    # input array, the (n, d, d) edge stack it builds, and the (n,) output
    n, d = points.shape[0], points.shape[-1]
    return points.nbytes + n * d * d * 8 + n * 8


class Tracer:
    """Records one span per wrapped call while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.check = None
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn, describe=None):
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            label, count, extra = describe(*args, **kwargs) if describe else (None, 0, 0)
            span = [name, label, 0.0, 0.0, stack[-1] if stack else -1, self.check, count, extra]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "geomprob" or mod_name.startswith("geomprob.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def _function(self, name, fn, describe=None):
        self._rebind(fn, self._wrap(name, fn, describe))

    def _method(self, cls, attr, name, describe):
        self._set(cls, attr, self._wrap(name, cls.__dict__[attr], describe))

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")

        def variates(_self, size):
            return None, int(np.prod(size)), 0

        self._method(sampling.SampleStream, "uniform", "sampling.uniform", variates)
        self._method(sampling.SampleStream, "normal", "sampling.normal", variates)
        self._function(
            "sampling.sample_body", sampling.sample_body,
            lambda stream, body, n: (sampler_path(body), int(n), 0),
        )
        self._function(
            "sampling.sample_slice", sampling.sample_slice,
            lambda stream, body, v, t, n: (None, int(n), 0),
        )
        self._function(
            "sampling.slice_measure", sampling.slice_measure,
            lambda stream, body, v, t, n: (None, int(n), 0),
        )
        for cls, tag in BODY_TAGS.items():
            self._method(
                cls, "contains_batch", "bodies.contains_batch",
                lambda _self, pts, tag=tag: (tag, _rows(pts), 0),
            )
        # halfspace tests are the proposals of base rejection
        self._method(
            gp.Halfspace, "contains_batch", "bodies.contains_batch",
            lambda _self, pts: ("halfspace", _rows(pts), 0),
        )
        self._function("bodies.bounding_box", bodies.bounding_box)
        self._function(
            "estimators.batch_simplex_volumes", estimators.batch_simplex_volumes,
            lambda points: (f"d{points.shape[-1]}", points.shape[0], _volume_bytes(points)),
        )
        self._function(
            "estimators.batch_pinned_volumes", estimators.batch_pinned_volumes,
            lambda x, points: (f"d{points.shape[-1]}", points.shape[0], _volume_bytes(points)),
        )
        for fn in ESTIMATOR_FNS:
            self._function(f"estimators.{fn}", getattr(estimators, fn))
        for fn in DERIVATIVE_FNS:
            self._function(f"derivatives.{fn}", getattr(derivatives, fn))
        for fn in SYMMETRY_FNS:
            self._function(f"symmetry2d.{fn}", getattr(symmetry2d, fn))
        for fn in CLI_FNS:
            self._function(f"cli.{fn}", getattr(cli, fn))
        for fn in EXACT_FNS:
            self._function("exact", getattr(exact, fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        keys = ("name", "label", "start", "end", "parent", "check", "count", "extra")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics from the spans


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(spans: list[list], passes: int, pass_wall_s: float) -> dict[str, tuple[float, str]]:
    """Aggregate spans into the per-layer metrics, as {name: (value, unit)}.

    Spans whose check is ``"setup"`` come from the traced set-up, which runs
    once; all other spans come from ``passes`` traced passes of total wall
    time ``pass_wall_s``. Calls and self times are per verdict (the set-up
    plus one pass); rates pool every span; shares are of pass wall time.
    """
    size = len(spans)
    dur = [s[END] - s[START] for s in spans]
    child_time = [0.0] * size
    subtree_variates = [0] * size
    proposals = [0] * size
    for i in range(size - 1, -1, -1):
        s = spans[i]
        if s[NAME] == "sampling.uniform":
            subtree_variates[i] += s[COUNT]
        p = s[PARENT]
        if p >= 0:
            child_time[p] += dur[i]
            subtree_variates[p] += subtree_variates[i]
            if s[NAME] == "bodies.contains_batch":
                proposals[p] += s[COUNT]
    self_time = [dur[i] - child_time[i] for i in range(size)]

    def weight(i) -> float:
        return 1.0 if spans[i][CHECK] == "setup" else 1.0 / max(passes, 1)

    def outermost_contains(i) -> bool:
        p = spans[i][PARENT]
        return p < 0 or spans[p][NAME] != "bodies.contains_batch"

    def under_box_reject(i) -> bool:
        p = spans[i][PARENT]
        while p >= 0:
            if spans[p][NAME] == "sampling.sample_body" and spans[p][LABEL] == "box_reject":
                return True
            p = spans[p][PARENT]
        return False

    acc: dict[tuple, float] = {}

    def add(key, value):
        acc[key] = acc.get(key, 0.0) + value

    for i, s in enumerate(spans):
        name, label, count = s[NAME], s[LABEL], s[COUNT]
        in_pass = s[CHECK] != "setup"
        add((name, "calls"), weight(i))
        add((name, "self"), self_time[i] * weight(i))
        add((name, label, "dur"), dur[i])
        add((name, label, "count"), count)
        add((name, label, "variates"), subtree_variates[i])
        add((name, label, "proposals"), proposals[i])
        add((name, "bytes"), s[EXTRA])
        if in_pass:
            add((name, label, "pass_dur"), dur[i])
            add((name.split(".")[0], "pass_self"), self_time[i])
            if name == "sampling.uniform":
                add(("variates",), count / max(passes, 1))
            if name == "bodies.contains_batch" and outermost_contains(i):
                add(("contains_share",), dur[i])
                if not under_box_reject(i):
                    add(("box_or_contains",), dur[i])
            if name == "sampling.sample_body" and label == "box_reject":
                add(("box_or_contains",), dur[i])

    def get(*key) -> float:
        return acc.get(key, 0.0)

    out: dict[str, tuple[float, str]] = {}
    for kind in ("uniform", "normal"):
        n = f"sampling.{kind}"
        out[f"{n}.ns_per_value"] = (1e9 * _ratio(get(n, None, "dur"), get(n, None, "count")), "ns")
    out["sampling.variates"] = (get("variates"), "count")
    sb = "sampling.sample_body"
    for path in PATHS:
        points = get(sb, path, "count")
        out[f"{sb}.{path}.ns_per_point"] = (1e9 * _ratio(get(sb, path, "dur"), points), "ns")
        out[f"{sb}.{path}.variates_per_point"] = (_ratio(get(sb, path, "variates"), points), "count")
        out[f"{sb}.{path}.share"] = (_ratio(get(sb, path, "pass_dur"), pass_wall_s), "share")
    for path in REJECT_PATHS:
        out[f"{sb}.{path}.accept_ratio"] = (
            _ratio(get(sb, path, "count"), get(sb, path, "proposals")), "ratio")
    ss = "sampling.sample_slice"
    out[f"{ss}.ns_per_point"] = (1e9 * _ratio(get(ss, None, "dur"), get(ss, None, "count")), "ns")
    out[f"{ss}.accept_ratio"] = (_ratio(get(ss, None, "count"), get(ss, None, "proposals")), "ratio")
    out[f"{ss}.self_s"] = (get(ss, "self"), "s")
    out["sampling.slice_measure.self_s"] = (get("sampling.slice_measure", "self"), "s")
    out["sampling.box_reject_or_contains.share"] = (_ratio(get("box_or_contains"), pass_wall_s), "share")

    cb = "bodies.contains_batch"
    for tag in BODY_TAGS.values():
        out[f"{cb}.{tag}.ns_per_point"] = (1e9 * _ratio(get(cb, tag, "dur"), get(cb, tag, "count")), "ns")
    out[f"{cb}.share"] = (_ratio(get("contains_share"), pass_wall_s), "share")
    out["bodies.bounding_box.calls"] = (get("bodies.bounding_box", "calls"), "count")
    out["bodies.bounding_box.self_s"] = (get("bodies.bounding_box", "self"), "s")

    for kernel in ("batch_simplex_volumes", "batch_pinned_volumes"):
        n = f"estimators.{kernel}"
        for d in (2, 3, 4):
            out[f"{n}.d{d}.ns_per_simplex"] = (
                1e9 * _ratio(get(n, f"d{d}", "dur"), get(n, f"d{d}", "count")), "ns")
    out["estimators.batch_volumes.bytes_computed"] = (
        (get("estimators.batch_simplex_volumes", "bytes") + get("estimators.batch_pinned_volumes", "bytes"))
        / max(passes, 1), "bytes")
    for module, fns, stats in (
        ("estimators", ESTIMATOR_FNS, ("calls", "self_s")),
        ("derivatives", DERIVATIVE_FNS, ("calls", "self_s")),
        ("symmetry2d", SYMMETRY_FNS, ("self_s",)),
        ("cli", CLI_FNS, ("self_s",)),
    ):
        for fn in fns:
            n = f"{module}.{fn}"
            if "calls" in stats:
                out[f"{n}.calls"] = (get(n, "calls"), "count")
            out[f"{n}.self_s"] = (get(n, "self"), "s")
    out["exact.self_s"] = (get("exact", "self"), "s")
    for module in MODULES:
        out[f"{module}.self_share"] = (_ratio(get(module, "pass_self"), pass_wall_s), "share")
    for name, (value, _) in out.items():
        if not math.isfinite(value):
            raise ValueError(f"per-layer metric {name} is not finite")
    return out

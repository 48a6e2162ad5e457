"""Result types shared by the estimators, the library drivers and the CLI.

A ``MomentEstimate`` is what each scalar estimator returns, with its standard
error from one of the two formulas kept here: batch means, or hit-or-miss
(binomial) for an acceptance fraction. An ``ExperimentReport`` bundles one
experiment's verdict and metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

VERDICTS = ("pass", "fail", "inconclusive")


@dataclass(frozen=True)
class MomentEstimate:
    """A Monte Carlo mean with its standard error, from n samples."""

    mean: float
    stderr: float
    n: int

    def z_against(self, reference: float) -> float:
        """Signed distance from a reference value in standard errors."""
        if self.stderr == 0:
            return math.copysign(math.inf, self.mean - reference) if self.mean != reference else 0.0
        return (self.mean - reference) / self.stderr


def mean_stderr(x) -> tuple[float, float]:
    """The mean of the values x (a numpy array) and its standard error, e.g. over batch means."""
    return float(x.mean()), float(x.std(ddof=1) / math.sqrt(len(x)))


def hit_or_miss(p: float, n: int, box_vol: float) -> MomentEstimate:
    """box_vol times the hit fraction p of n uniform proposals, with the binomial stderr."""
    se = math.sqrt(max(p * (1.0 - p), 0.0) / n)
    return MomentEstimate(p * box_vol, se * box_vol, n)


@dataclass
class ExperimentReport:
    """Machine-readable outcome of one experiment.

    The verdict is a pure function of the metrics and the declared
    tolerances, so reruns with identical arguments reproduce it.
    """

    name: str
    verdict: str
    seed: int
    n: int
    params: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    wall_time_s: float = 0.0

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValueError(f"verdict must be one of {VERDICTS}, got {self.verdict!r}")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "params": self.params,
            "metrics": self.metrics,
            "verdict": self.verdict,
            "seed": self.seed,
            "n": self.n,
            "wall_time_s": self.wall_time_s,
        }


def round_floats(obj):
    """Recursively round floats to 12 significant digits."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    return obj

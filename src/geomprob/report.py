"""Experiment report bundle shared by the library drivers and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field

VERDICTS = ("pass", "fail", "inconclusive")


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

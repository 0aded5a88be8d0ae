"""Result containers for simulations and configuration sweeps."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.predictors.specs import PredictorSpec


@dataclass
class SimulationResult:
    """Outcome of one predictor over one trace.

    Keeps the full per-access prediction array so callers can compute
    any derived statistic (per-branch rates, windows, agreement between
    engines); sweeps that only need the rate should read
    ``misprediction_rate`` and drop the object.
    """

    spec: PredictorSpec
    trace_name: str
    predictions: np.ndarray
    taken: np.ndarray
    #: PAs family only: first-level table miss rate.
    first_level_miss_rate: Optional[float] = None
    engine: str = "unknown"

    def __post_init__(self) -> None:
        if len(self.predictions) != len(self.taken):
            raise ConfigurationError(
                "predictions and outcomes must have equal lengths"
            )

    @property
    def accesses(self) -> int:
        return len(self.taken)

    @property
    def mispredictions(self) -> int:
        return int(np.count_nonzero(self.predictions != self.taken))

    @property
    def misprediction_rate(self) -> float:
        if self.accesses == 0:
            raise ConfigurationError("empty simulation has no rate")
        return self.mispredictions / self.accesses

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SimulationResult({self.spec.describe()} on {self.trace_name}: "
            f"{self.misprediction_rate:.2%} over {self.accesses})"
        )


@dataclass(frozen=True)
class TierPoint:
    """One configuration inside a constant-size tier.

    ``col_bits + row_bits = n`` for the tier of 2^n counters; the paper
    renders these as one bar each in Figures 4-6 and 9.
    """

    col_bits: int
    row_bits: int
    misprediction_rate: float
    aliasing_rate: Optional[float] = None
    first_level_miss_rate: Optional[float] = None

    @property
    def size_label(self) -> str:
        return f"2^{self.col_bits}x2^{self.row_bits}"

    def to_json(self, n: int) -> Dict[str, Any]:
        """The point's fields in the tier of 2^``n`` counters, as stored
        in checkpoint journal lines and result-store artifacts."""
        return {
            "n": n,
            "col_bits": self.col_bits,
            "row_bits": self.row_bits,
            "misprediction_rate": self.misprediction_rate,
            "aliasing_rate": self.aliasing_rate,
            "first_level_miss_rate": self.first_level_miss_rate,
        }

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "TierPoint":
        """Inverse of :meth:`to_json` (extra keys are ignored)."""
        return cls(
            col_bits=payload["col_bits"],
            row_bits=payload["row_bits"],
            misprediction_rate=payload["misprediction_rate"],
            aliasing_rate=payload.get("aliasing_rate"),
            first_level_miss_rate=payload.get("first_level_miss_rate"),
        )


@dataclass
class TierSurface:
    """A full scheme surface: every (columns x rows) split per tier.

    This is the data behind one subplot of the paper's Figures 4, 5, 6
    and 9: ``tiers[n]`` holds the points of the 2^n-counter tier,
    ordered from the address-indexed edge (row_bits=0) to the
    single-column edge (col_bits=0).
    """

    scheme: str
    trace_name: str
    tiers: Dict[int, List[TierPoint]] = field(default_factory=dict)

    def add(self, n: int, point: TierPoint) -> None:
        if point.col_bits + point.row_bits != n:
            raise ConfigurationError(
                f"point {point.size_label} does not belong to tier 2^{n}"
            )
        self.tiers.setdefault(n, []).append(point)

    def tier(self, n: int) -> List[TierPoint]:
        try:
            return self.tiers[n]
        except KeyError:
            raise ConfigurationError(
                f"surface has no tier 2^{n}; tiers: {sorted(self.tiers)}"
            ) from None

    def best_in_tier(self, n: int) -> TierPoint:
        """The blackened bar of the paper's figures: the tier's best
        configuration by misprediction rate."""
        return min(self.tier(n), key=lambda p: p.misprediction_rate)

    def point(self, n: int, row_bits: int) -> TierPoint:
        for candidate in self.tier(n):
            if candidate.row_bits == row_bits:
                return candidate
        raise ConfigurationError(
            f"tier 2^{n} has no configuration with 2^{row_bits} rows"
        )

    @property
    def sizes(self) -> List[int]:
        return sorted(self.tiers)


@dataclass
class SweepResult:
    """A bundle of surfaces (one per scheme or benchmark)."""

    surfaces: Dict[str, TierSurface] = field(default_factory=dict)

    def add(self, key: str, surface: TierSurface) -> None:
        self.surfaces[key] = surface

    def __getitem__(self, key: str) -> TierSurface:
        return self.surfaces[key]

    def keys(self) -> List[str]:
        return list(self.surfaces)

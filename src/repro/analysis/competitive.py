"""Empirical competitiveness measurement (sections 5.3 and 6.4).

An online algorithm A is c-competitive when there exist constants
``c ≥ 1`` and ``b ≥ 0`` with ``COST_A(σ) ≤ c·COST_M(σ) + b`` for every
schedule σ, M being the offline optimum.  This module measures the
realized ratio of A against M on concrete schedules and schedule
families, which the benchmarks use to show:

* the tight families approach the paper's claimed factors from below;
* random and greedy-adversarial schedules never exceed them (up to the
  additive constant b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from ..core.base import AllocationAlgorithm
from ..core.offline import OfflineOptimal
from ..costmodels.base import CostModel
from ..engine import run as engine_run
from ..exceptions import InvalidParameterError
from ..types import Schedule

__all__ = [
    "CompetitiveMeasurement",
    "measure_competitive_ratio",
    "ratio_over_family",
    "exceeds_bound",
]


@dataclass(frozen=True)
class CompetitiveMeasurement:
    """Costs of one online/offline pair on one schedule."""

    algorithm_name: str
    schedule_length: int
    online_cost: float
    offline_cost: float

    @property
    def ratio(self) -> float:
        """COST_A / COST_M; infinity when M pays nothing but A does."""
        if self.offline_cost == 0.0:
            return float("inf") if self.online_cost > 0.0 else 1.0
        return self.online_cost / self.offline_cost

    def ratio_with_additive(self, b: float) -> float:
        """(COST_A − b) / COST_M: the ratio net of an additive allowance."""
        if self.offline_cost == 0.0:
            surplus = self.online_cost - b
            return float("inf") if surplus > 0.0 else 1.0
        return max(self.online_cost - b, 0.0) / self.offline_cost


def measure_competitive_ratio(
    algorithm: AllocationAlgorithm,
    schedule: Schedule,
    cost_model: CostModel,
    offline: Optional[OfflineOptimal] = None,
) -> CompetitiveMeasurement:
    """Run A and M on the same schedule and report both costs."""
    online = engine_run(algorithm, schedule, cost_model, stream=True)
    if offline is None:
        offline = OfflineOptimal(cost_model)
    optimal_cost = offline.optimal_cost(schedule)
    if optimal_cost - online.total_cost > 1e-9:
        raise InvalidParameterError(
            "offline optimum exceeded the online cost; the offline DP and "
            "the online algorithm are priced under different models"
        )
    return CompetitiveMeasurement(
        algorithm_name=online.algorithm_name,
        schedule_length=len(schedule),
        online_cost=online.total_cost,
        offline_cost=optimal_cost,
    )


def ratio_over_family(
    algorithm: AllocationAlgorithm,
    schedules: Iterable[Schedule],
    cost_model: CostModel,
) -> List[CompetitiveMeasurement]:
    """Measure the ratio on every schedule of a family.

    The online side is one streamed :func:`repro.engine.run` per
    schedule, which auto dispatch sends to the batched kernels as a
    batch of one whenever they cover the algorithm.  The offline DP
    stays per-schedule; it is inherently sequential in the schedule.
    """
    offline = OfflineOptimal(cost_model)
    measurements = []
    for schedule in schedules:
        online = engine_run(algorithm, schedule, cost_model, stream=True)
        optimal_cost = offline.optimal_cost(schedule)
        if optimal_cost - online.total_cost > 1e-9:
            raise InvalidParameterError(
                "offline optimum exceeded the online cost; the offline DP "
                "and the online algorithm are priced under different models"
            )
        measurements.append(
            CompetitiveMeasurement(
                algorithm_name=online.algorithm_name,
                schedule_length=len(schedule),
                online_cost=online.total_cost,
                offline_cost=optimal_cost,
            )
        )
    return measurements


def exceeds_bound(
    measurements: Sequence[CompetitiveMeasurement],
    factor: float,
    additive: float = 0.0,
    tolerance: float = 1e-9,
) -> List[CompetitiveMeasurement]:
    """Measurements violating ``COST_A ≤ factor·COST_M + additive``.

    An empty return means the claimed competitiveness bound held on the
    whole family.
    """
    violations = []
    for measurement in measurements:
        allowed = factor * measurement.offline_cost + additive + tolerance
        if measurement.online_cost > allowed:
            violations.append(measurement)
    return violations

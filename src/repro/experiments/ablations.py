"""Ablation studies for the design choices called out in DESIGN.md.

These go beyond the paper: they quantify how much each design decision
matters.

* **SW1 delete-request optimization** (end of section 4): SW1 vs the
  unoptimized SWk-with-k=1, which propagates the data item only for the
  MC to discard it.  The expected-cost gap is exactly
  θ(1-θ)·(1) in the message model (a write costs ω instead of 1+ω).
* **Offline charging** (competitiveness denominator): charging the
  offline optimum for releases (one control message) shrinks every
  measured ratio; the paper's factors assume free releases.
"""

from __future__ import annotations

from ..analysis import message as ma
from ..analysis.competitive import measure_competitive_ratio
from ..analysis.numerics import monte_carlo_expected_cost
from ..core.offline import OfflineOptimal
from ..core.registry import make_algorithm
from ..costmodels.base import CostEventKind
from ..costmodels.message import MessageCostModel
from ..workload.adversary import sw1_tight_schedule, swk_tight_schedule
from .harness import Check, Experiment, ExperimentResult, approx_check

__all__ = ["Ablations"]


class _ChargedReleaseModel(MessageCostModel):
    """Message model whose offline optimum pays ω per release."""

    @property
    def release_cost(self) -> float:
        return self.omega


class Ablations(Experiment):
    experiment_id = "t-ablations"
    title = "Design-choice ablations (DESIGN.md section 5)"
    paper_claim = (
        "SW1's delete-request saves a data message per deallocating "
        "write; offline release charging is what makes the paper's "
        "competitive factors tight."
    )

    def _execute(self, quick: bool) -> ExperimentResult:
        result = self._new_result()
        omega = 0.3
        model = MessageCostModel(omega)
        length = 5_000 if quick else 50_000

        # SW1 vs unoptimized k=1 window.
        for theta in (0.3, 0.5, 0.7):
            optimized = monte_carlo_expected_cost(
                make_algorithm("sw1"), model, theta, length=length, seed=3
            )
            unoptimized = monte_carlo_expected_cost(
                make_algorithm("sw1-unoptimized"), model, theta, length=length, seed=3
            )
            # The unoptimized variant pays 1+ω instead of ω on each
            # deallocating write: expected extra = theta*(1-theta)*1.
            expected_gap = theta * (1.0 - theta)
            result.rows.append(
                {
                    "ablation": "sw1 delete-request",
                    "theta": theta,
                    "optimized": optimized,
                    "unoptimized": unoptimized,
                    "gap": unoptimized - optimized,
                    "gap(analytic)": expected_gap,
                }
            )
            result.checks.append(
                approx_check(
                    f"delete-request saves theta(1-theta) at theta={theta}",
                    unoptimized - optimized,
                    expected_gap,
                    0.05 if quick else 0.02,
                )
            )

        # Offline release charging: measured ratios shrink when the
        # offline algorithm pays for releases.
        free_offline = OfflineOptimal(model)
        charged_offline = OfflineOptimal(_ChargedReleaseModel(omega))
        cycles = 50 if quick else 300
        for name, schedule, claimed in (
            ("sw1", sw1_tight_schedule(cycles), ma.competitive_factor_sw1(omega)),
            (
                "sw9",
                swk_tight_schedule(9, cycles),
                ma.competitive_factor_swk(9, omega),
            ),
        ):
            free_ratio = measure_competitive_ratio(
                make_algorithm(name), schedule, model, free_offline
            ).ratio
            charged_ratio = measure_competitive_ratio(
                make_algorithm(name), schedule, model, charged_offline
            ).ratio
            result.rows.append(
                {
                    "ablation": "offline release charging",
                    "algorithm": name,
                    "ratio(free release)": free_ratio,
                    "ratio(charged release)": charged_ratio,
                    "paper factor": claimed,
                }
            )
            result.checks.append(
                Check(
                    f"{name}: paper factor realized only with free releases",
                    abs(free_ratio - claimed) < 0.05
                    and charged_ratio < free_ratio,
                    f"free {free_ratio:.4f} vs charged {charged_ratio:.4f}",
                )
            )

        return result

"""Estimator-based dynamic allocation methods (section 7 direction).

Section 7 of the paper opens the door to "other dynamic allocation
methods"; the natural competitors to a sliding window are classical
frequency estimators.  Two are implemented here so the benchmarks can
quantify what the paper's window buys:

* :class:`EwmaAllocator` — exponentially weighted moving average of
  the write fraction.  Allocate while the estimate says reads dominate.
  Smooth and memory-light (one float instead of k bits), but **not
  competitive**: after a long read run the estimate saturates and an
  adversary can charge it arbitrarily against the offline optimum
  before it re-adapts (the ablation experiment shows its measured
  ratio growing with the run length while SWk's stays at k+1).
* :class:`HysteresisSlidingWindow` — SWk with a deadband: allocate
  only when reads exceed writes by more than ``margin`` in the window,
  deallocate only when writes exceed reads by more than ``margin``,
  hold otherwise.  ``margin = 0`` recovers SWk exactly.  A wider
  margin suppresses allocation flapping at θ ≈ 1/2 at the price of
  slower adaptation.

Both run under the same cost-event vocabulary as the paper's methods,
so every analysis tool in the library (replay, Monte Carlo, the exact
Markov analyzer, the competitive-ratio harness) applies unchanged.

Distribution note: both methods keep their statistics at whichever
side is "in charge", exactly like SWk — the estimator state is small
enough to piggyback on the same allocate/deallocate messages, so the
cost accounting carries over verbatim.
"""

from __future__ import annotations

from ..costmodels.base import CostEventKind
from ..exceptions import InvalidParameterError
from ..types import (
    AllocationScheme,
    Operation,
    ensure_integer,
    ensure_odd_window,
)
from .base import AllocationAlgorithm
from .session import popcount, window_operations

__all__ = ["EwmaAllocator", "HysteresisSlidingWindow"]


class EwmaAllocator(AllocationAlgorithm):
    """Allocate by an exponentially weighted write-fraction estimate.

    After each request the estimate is updated as

    .. math:: \\hat\\theta \\leftarrow (1-\\alpha)\\,\\hat\\theta
              + \\alpha\\,[\\text{request is a write}]

    and the MC holds a replica while :math:`\\hat\\theta < 1/2`.

    Parameters
    ----------
    alpha:
        Smoothing factor in (0, 1]; larger adapts faster.  α = 1
        degenerates to "follow the last request" (SW1's trajectory).
    initial_estimate:
        Starting write-fraction estimate; defaults to 1.0 (consistent
        with the one-copy start the other algorithms use).
    quantization:
        The estimate is rounded to this many decimal places after each
        update.  This keeps the reachable state space finite so the
        exact Markov analyzer applies; 6 places changes costs by < 1e-5.
    """

    name = "ewma"

    def __init__(
        self,
        alpha: float,
        initial_estimate: float = 1.0,
        quantization: int = 6,
    ):
        alpha = float(alpha)
        if not 0.0 < alpha <= 1.0:
            raise InvalidParameterError(f"alpha must be in (0, 1], got {alpha!r}")
        if not 0.0 <= initial_estimate <= 1.0:
            raise InvalidParameterError(
                f"initial_estimate must be in [0, 1], got {initial_estimate!r}"
            )
        if quantization < 1:
            raise InvalidParameterError(
                f"quantization must be >= 1, got {quantization!r}"
            )
        self._alpha = alpha
        self._initial_estimate = float(initial_estimate)
        self._quantization = int(quantization)
        self._estimate = self._initial_estimate
        scheme = (
            AllocationScheme.TWO_COPIES
            if self._initial_estimate < 0.5
            else AllocationScheme.ONE_COPY
        )
        super().__init__(initial_scheme=scheme)
        self.name = f"ewma_{int(round(alpha * 100))}"

    @property
    def alpha(self) -> float:
        return self._alpha

    @property
    def estimate(self) -> float:
        """Current write-fraction estimate."""
        return self._estimate

    def _update(self, operation: Operation) -> None:
        observation = 1.0 if operation is Operation.WRITE else 0.0
        raw = (1.0 - self._alpha) * self._estimate + self._alpha * observation
        self._estimate = round(raw, self._quantization)

    def _wants_copy(self) -> bool:
        return self._estimate < 0.5

    def _serve_read(self) -> CostEventKind:
        had_copy = self.mobile_has_copy
        self._update(Operation.READ)
        if had_copy:
            return CostEventKind.LOCAL_READ
        if self._wants_copy():
            self._allocate()  # piggybacked on the remote read's reply
        return CostEventKind.REMOTE_READ

    def _serve_write(self) -> CostEventKind:
        had_copy = self.mobile_has_copy
        self._update(Operation.WRITE)
        if not had_copy:
            return CostEventKind.WRITE_NO_COPY
        if self._wants_copy():
            return CostEventKind.WRITE_PROPAGATED
        self._deallocate()
        return CostEventKind.WRITE_PROPAGATED_DEALLOCATE

    def _reset_extra_state(self) -> None:
        self._estimate = self._initial_estimate

    def _configured_copy(self) -> "EwmaAllocator":
        return EwmaAllocator(
            self._alpha, self._initial_estimate, self._quantization
        )

    def _extra_state_signature(self) -> tuple:
        return (self._estimate,)

    def describe(self) -> str:
        return f"EWMA allocator (alpha={self._alpha})"


class HysteresisSlidingWindow(AllocationAlgorithm):
    """SWk with a deadband of ``margin`` requests around the majority.

    Allocation changes only when the window's read-write imbalance
    exceeds the margin in the new direction; inside the deadband the
    current scheme is kept.  ``margin = 0`` is exactly SWk.
    """

    name = "hysteresis"

    def __init__(self, k: int, margin: int = 0):
        self._k = ensure_odd_window(k)
        margin = ensure_integer(margin, "margin")
        if not 0 <= margin < self._k:
            raise InvalidParameterError(
                f"margin must satisfy 0 <= margin < k, got {margin!r}"
            )
        self._margin = margin
        self._mask = (1 << self._k) - 1
        # The last k request bits, newest in bit 0; starts all writes.
        self._window = self._mask
        super().__init__(initial_scheme=AllocationScheme.ONE_COPY)
        self.name = f"hsw{self._k}_{self._margin}"

    @property
    def k(self) -> int:
        return self._k

    @property
    def margin(self) -> int:
        return self._margin

    def _slide(self, write: int) -> int:
        """Shift one request into the window; returns reads - writes."""
        self._window = (self._window << 1 | write) & self._mask
        return self._k - 2 * popcount(self._window)

    def _serve_read(self) -> CostEventKind:
        imbalance = self._slide(0)
        if self.mobile_has_copy:
            return CostEventKind.LOCAL_READ
        if imbalance > self._margin:
            self._allocate()
        return CostEventKind.REMOTE_READ

    def _serve_write(self) -> CostEventKind:
        imbalance = self._slide(1)
        if not self.mobile_has_copy:
            return CostEventKind.WRITE_NO_COPY
        if imbalance >= -self._margin:
            return CostEventKind.WRITE_PROPAGATED
        self._deallocate()
        return CostEventKind.WRITE_PROPAGATED_DEALLOCATE

    def _reset_extra_state(self) -> None:
        self._window = self._mask

    def _configured_copy(self) -> "HysteresisSlidingWindow":
        return HysteresisSlidingWindow(self._k, self._margin)

    def _extra_state_signature(self) -> tuple:
        return window_operations(self._window, self._k)

    def describe(self) -> str:
        return (
            f"hysteresis sliding window (k={self._k}, margin={self._margin})"
        )

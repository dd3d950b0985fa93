"""The online-adaptive allocator: estimate θ, detect regimes, retune.

The paper's static methods each own a parameter (the window size k, the
threshold m) whose best value depends on the — unknown, shifting —
write fraction.  :class:`AdaptiveAllocator` closes that loop online:

* an :class:`OnlineThetaEstimator` keeps a windowed write-fraction
  estimate and a two-window drift test; a detected regime change
  flushes the history so the next retune sees only the new regime;
* the recent write-bit history is periodically fed through the
  sufficient-statistic scans (:func:`repro.core.batched.scan_window_counts`
  and :func:`repro.core.batched.scan_threshold_counts`) — the *oracle*:
  one numpy pass prices every candidate k and m on the observed regime
  and the cheapest configuration wins;
* the decision core is an :class:`~repro.core.session.AllocationSession`
  for the winning configuration, so each individual decision is one
  the paper's methods could have made and the SWk/T1m rules exist only
  in the session module.  The history is the same encoding as the
  session's state — write bits in an ``int``, newest in bit 0, plus an
  observed length — so adopting a new configuration re-seeds its
  session with the pre-request carry (the history's last L bits,
  padded with writes) and the current copy bit, then feeds the
  request.  Cost accounting carries over verbatim and a configuration
  switch never teleports the replica; it only changes the rule used
  for future transitions.

The allocator runs under the standard
:class:`~repro.core.base.AllocationAlgorithm` interface (reference
backend; the batched kernels cannot host state that depends on its
own past decisions), so every analysis tool — replay, engine dispatch,
the regret harness — applies unchanged.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..costmodels.base import CostEventKind, CostModel
from ..exceptions import InvalidParameterError
from ..types import (
    AllocationScheme,
    Operation,
    ensure_integer,
    ensure_odd_window,
)
from .base import AllocationAlgorithm
from .batched import batched_totals, scan_threshold_counts, scan_window_counts
from .session import AlgorithmSpec, AllocationSession, ensure_threshold

__all__ = ["AdaptiveAllocator", "OnlineThetaEstimator"]

#: Default window-size candidates offered to the oracle (odd, as SWk
#: requires); spans the fast-adapting to the noise-immune end.
DEFAULT_KS: Tuple[int, ...] = (1, 3, 5, 9, 15)

#: Default T1m threshold candidates.
DEFAULT_MS: Tuple[int, ...] = (1, 2, 4, 8)


class OnlineThetaEstimator:
    """Windowed θ estimate plus a two-window regime-change test.

    Keeps the last ``2 * window`` write bits in an ``int`` (newest in
    bit 0); the estimate is the mean of the most recent ``window`` and
    a regime change is declared when the recent and the preceding
    window means differ by more than ``threshold`` (both windows must
    be full).  After a detection the stale half is dropped, so
    back-to-back firings need genuinely new evidence — a crude but
    dependable CUSUM stand-in that is exact to test and cheap to run
    per request.

    The two window sums are popcounts of the int's halves.  Per
    request they are kept current from the bits that cross each
    half's boundary: ``bin(x).count("1")`` (the popcount that runs on
    Python 3.9, where ``int.bit_count`` is missing) would cost two
    string conversions a request.
    """

    def __init__(self, window: int = 48, threshold: float = 0.35):
        window = ensure_integer(window, "window")
        if window < 1:
            raise InvalidParameterError(f"window must be >= 1, got {window}")
        if not 0.0 < threshold <= 1.0:
            raise InvalidParameterError(
                f"threshold must be in (0, 1], got {threshold!r}"
            )
        self.window = window
        self.threshold = float(threshold)
        self._full_mask = (1 << 2 * window) - 1
        self.reset()

    @property
    def observations(self) -> int:
        return self._observed

    @property
    def estimate(self) -> float:
        """Mean of the most recent window (0.5 before any evidence)."""
        recent = min(self._observed, self.window)
        if recent == 0:
            return 0.5
        return self._recent_writes / recent

    def observe(self, is_write: bool) -> bool:
        """Ingest one request; True when a regime change is declared."""
        window = self.window
        write = 1 if is_write else 0
        bits = self._bits << 1 | write
        crossing = bits >> window & 1  # leaves the recent half
        self._recent_writes += write - crossing
        self._older_writes += crossing - (bits >> 2 * window & 1)
        self._bits = bits & self._full_mask
        if self._observed < 2 * window:
            self._observed += 1
            if self._observed < 2 * window:
                return False
        recent = self._recent_writes / window
        older = self._older_writes / window
        if abs(recent - older) <= self.threshold:
            return False
        # Drop the stale half so the detector re-arms on fresh data.
        self._bits &= (1 << window) - 1
        self._observed = window
        self._older_writes = 0
        return True

    def reset(self) -> None:
        """Forget all observations and disarm the detector."""
        self._bits = 0
        self._observed = 0
        self._recent_writes = 0
        self._older_writes = 0


class AdaptiveAllocator(AllocationAlgorithm):
    """SW/T with the parameter chosen online per regime.

    Parameters
    ----------
    ks, ms:
        Candidate window sizes (odd) and T1 thresholds the oracle may
        pick from.  An empty ``ms`` restricts the oracle to the SWk
        family.
    oracle_model:
        Cost model the oracle prices candidates under.  Defaults to the
        connection model; the decision vocabulary is model-agnostic, so
        this is a tuning input, not a correctness one.
    retune_interval:
        Requests between periodic oracle runs (regime detections retune
        immediately).
    history:
        Write-bit history cap fed to the oracle — the effective memory
        of a regime.
    detector_window, detector_threshold:
        The :class:`OnlineThetaEstimator` configuration.
    """

    name = "adaptive"

    def __init__(
        self,
        ks: Sequence[int] = DEFAULT_KS,
        ms: Sequence[int] = DEFAULT_MS,
        oracle_model: Optional[CostModel] = None,
        retune_interval: int = 128,
        history: int = 512,
        detector_window: int = 48,
        detector_threshold: float = 0.35,
    ):
        ks = tuple(ensure_odd_window(k) for k in ks)
        ms = tuple(ensure_threshold(m) for m in ms)
        if not ks:
            raise InvalidParameterError("need at least one candidate k")
        retune_interval = ensure_integer(retune_interval, "retune_interval")
        if retune_interval < 1:
            raise InvalidParameterError(
                f"retune_interval must be >= 1, got {retune_interval}"
            )
        history = ensure_integer(history, "history")
        if history < max(ks + ms):
            raise InvalidParameterError(
                f"history ({history}) must cover the largest candidate "
                f"parameter ({max(ks + ms)})"
            )
        if oracle_model is None:
            from ..costmodels.connection import ConnectionCostModel

            oracle_model = ConnectionCostModel()
        self._ks = ks
        self._ms = ms
        self._oracle_model = oracle_model
        self._retune_interval = retune_interval
        self._history_cap = history
        self._history_mask = (1 << history) - 1
        self._detector_window = ensure_integer(
            detector_window, "detector_window"
        )
        self._detector_threshold = float(detector_threshold)
        self._init_state()
        super().__init__(initial_scheme=AllocationScheme.ONE_COPY)
        self.name = "adaptive"

    # -- configuration surface ------------------------------------------

    @property
    def ks(self) -> Tuple[int, ...]:
        return self._ks

    @property
    def ms(self) -> Tuple[int, ...]:
        return self._ms

    @property
    def family(self) -> str:
        """Decision family currently in force (``"swk"`` or ``"t1"``)."""
        return self._session.spec.family

    @property
    def param(self) -> int:
        """The active window size or threshold."""
        return self._session.spec.param

    @property
    def theta_estimate(self) -> float:
        return self._estimator.estimate

    @property
    def retunes(self) -> int:
        """Oracle runs so far (periodic + detector-triggered)."""
        return self._retunes

    @property
    def regime_changes(self) -> int:
        """Detector firings so far."""
        return self._regime_changes

    # -- state ----------------------------------------------------------

    def _init_state(self) -> None:
        self._session = AllocationSession(
            AlgorithmSpec("swk", self._ks[len(self._ks) // 2])
        )
        self._estimator = OnlineThetaEstimator(
            self._detector_window, self._detector_threshold
        )
        # Write bits, newest in bit 0; only the low `_observed` are real.
        self._history = 0
        self._observed = 0
        self._since_retune = 0
        self._retunes = 0
        self._regime_changes = 0

    def _reset_extra_state(self) -> None:
        self._init_state()

    def _configured_copy(self) -> "AdaptiveAllocator":
        return AdaptiveAllocator(
            ks=self._ks,
            ms=self._ms,
            oracle_model=self._oracle_model,
            retune_interval=self._retune_interval,
            history=self._history_cap,
            detector_window=self._detector_window,
            detector_threshold=self._detector_threshold,
        )

    def _extra_state_signature(self) -> tuple:
        spec = self._session.spec
        return (
            (spec.family, spec.param)
            + self._session.extra_signature()
            + (self._history, self._observed, self._since_retune)
        )

    # -- the oracle ------------------------------------------------------

    def _retune(self) -> Optional[AlgorithmSpec]:
        """Price every candidate on the regime history; return a new argmin.

        One ``(1, N)`` write matrix through the two sufficient-statistic
        scans prices all k and all m at once; ties prefer the incumbent
        (no churn, returns ``None``), then the smaller parameter (faster
        adaptation).
        """
        self._since_retune = 0
        self._retunes += 1
        observed = self._observed
        if observed < 2:
            return None
        packed = self._history.to_bytes((observed + 7) // 8, "big")
        writes = np.unpackbits(np.frombuffer(packed, dtype=np.uint8))
        writes = writes[-observed:].astype(bool)[None, :]
        candidates = []
        k_counts = scan_window_counts(writes, self._ks)
        k_totals = batched_totals(k_counts, self._oracle_model)
        for slot, k in enumerate(self._ks):
            candidates.append((float(k_totals[slot, 0]), "swk", k))
        if self._ms:
            m_counts = scan_threshold_counts("t1", writes, self._ms)
            m_totals = batched_totals(m_counts, self._oracle_model)
            for slot, m in enumerate(self._ms):
                candidates.append((float(m_totals[slot, 0]), "t1", m))
        best_cost = min(cost for cost, _family, _param in candidates)
        best = [
            (family, param)
            for cost, family, param in candidates
            if cost <= best_cost
        ]
        if (self.family, self.param) in best:
            return None
        family, param = min(best, key=lambda pair: (pair[0] != "swk", pair[1]))
        return AlgorithmSpec(family, param)

    # -- the decision core ----------------------------------------------

    def _serve(self, operation: Operation, write: int) -> CostEventKind:
        history, observed = self._history, self._observed
        self._history = (history << 1 | write) & self._history_mask
        if observed < self._history_cap:
            self._observed = observed + 1
        self._since_retune += 1
        if self._estimator.observe(write):
            # New regime: forget the old one and retune on what the
            # detector kept (the fresh window).
            self._regime_changes += 1
            self._history &= (1 << self._detector_window) - 1
            self._observed = min(self._observed, self._detector_window)
            adopted = self._retune()
        elif self._since_retune >= self._retune_interval:
            adopted = self._retune()
        else:
            adopted = None
        if adopted is not None:
            # Resume the new rule from the state it would hold had it
            # served the history so far: the last L bits before this
            # request (a short history padded with writes, as a fresh
            # session's), and the replica as it stands.
            length = adopted.carry_length
            real = (1 << min(observed, length)) - 1
            carry = history & real | ((1 << length) - 1) & ~real
            self._session = AllocationSession(
                adopted, seed=(carry, self._mobile_has_copy)
            )
        decision = self._session.feed(operation)
        self._mobile_has_copy = decision.mobile_has_copy
        return decision.kind

    def _serve_read(self) -> CostEventKind:
        return self._serve(Operation.READ, 0)

    def _serve_write(self) -> CostEventKind:
        return self._serve(Operation.WRITE, 1)

    def describe(self) -> str:
        return (
            f"adaptive allocator (ks={list(self._ks)}, ms={list(self._ms)}, "
            f"retune every {self._retune_interval}, "
            f"history {self._history_cap})"
        )

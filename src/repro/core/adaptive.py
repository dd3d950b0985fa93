"""The online-adaptive allocator: estimate θ, detect regimes, retune.

The paper's static methods each own a parameter (the window size k, the
threshold m) whose best value depends on the — unknown, shifting —
write fraction.  :class:`AdaptiveAllocator` closes that loop online:

* an :class:`OnlineThetaEstimator` keeps a windowed write-fraction
  estimate and a two-window drift test; a detected regime change
  flushes the history so the next retune sees only the new regime;
* the recent write-bit history is periodically priced under every
  candidate configuration — the *oracle*: each candidate's cost is
  that of a fresh run of its session on the history, and the cheapest
  configuration wins;
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

The per-request path (:meth:`AllocationAlgorithm.process`) is the
reference implementation.  A fresh run over a whole write mask also
runs in two passes (:meth:`AdaptiveAllocator.run_mask`, the engine's
``batched`` backend), byte-identical to the replay.  The configuration
schedule depends on the write bits alone — detector firings, retune
points and each retune's argmin are functions of the mask — so pass 1
computes it without deciding anything: the detector's window sums are
prefix-sum differences, and every retune window is priced from one
full-length kernel pass per candidate, counted per kind between the
window boundaries, its first L + 1 positions re-run from a fresh
state.  Decisions depend on their
own past only through the copy bit each adopted session is seeded
with, so pass 2 runs every constant-configuration segment through the
batched kernels: the seeded session decides the segment's head one
request at a time until its copy bit is the one the kernels rebuild
from its carry (at most L requests), and the kernels take the rest on
``[carry | remaining bits]``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..costmodels.base import EVENT_KIND_ORDER, CostEventKind, CostModel
from ..exceptions import InvalidParameterError
from ..types import (
    AllocationScheme,
    Operation,
    ensure_integer,
    ensure_odd_window,
)
from .base import AllocationAlgorithm
from .batched import (
    batched_counts,
    batched_run_arrays,
    batched_totals,
    scan_threshold_counts,
    scan_window_counts,
)
from .session import AlgorithmSpec, AllocationSession, ensure_threshold

__all__ = [
    "AdaptiveAllocator",
    "OnlineThetaEstimator",
    "detector_firings",
    "oracle_prices",
]

#: Default window-size candidates offered to the oracle (odd, as SWk
#: requires); spans the fast-adapting to the noise-immune end.
DEFAULT_KS: Tuple[int, ...] = (1, 3, 5, 9, 15)

#: Default T1m threshold candidates.
DEFAULT_MS: Tuple[int, ...] = (1, 2, 4, 8)

_NUM_KINDS = len(EVENT_KIND_ORDER)

#: Each event kind's code (its index in ``EVENT_KIND_ORDER``).
_CODES = {kind: code for code, kind in enumerate(EVENT_KIND_ORDER)}


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

    The two window sums are popcounts of the int's halves.
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
        self._recent_mask = (1 << window) - 1
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
        return (self._bits & self._recent_mask).bit_count() / recent

    def observe(self, is_write: bool) -> bool:
        """Ingest one request; True when a regime change is declared."""
        window = self.window
        bits = self._bits = (
            self._bits << 1 | (1 if is_write else 0)
        ) & self._full_mask
        if self._observed < 2 * window:
            self._observed += 1
            if self._observed < 2 * window:
                return False
        recent = (bits & self._recent_mask).bit_count() / window
        older = (bits >> window).bit_count() / window
        if abs(recent - older) <= self.threshold:
            return False
        # Drop the stale half so the detector re-arms on fresh data.
        self._bits = bits & self._recent_mask
        self._observed = window
        return True

    def reset(self) -> None:
        """Forget all observations and disarm the detector."""
        self._bits = 0
        self._observed = 0


def _preference(spec: AlgorithmSpec) -> tuple:
    """The oracle's tie-break among equally cheap challengers: SWk
    before T1m, then the smaller parameter (faster adaptation)."""
    return (spec.family != "swk", spec.param)


def oracle_prices(
    writes: np.ndarray,
    ks: Sequence[int],
    ms: Sequence[int],
    model: CostModel,
) -> Dict[AlgorithmSpec, float]:
    """The oracle's price of every candidate on one ``(1, N)`` history.

    Each price is the cost, under ``model``, of a fresh session of the
    candidate run over the history.  The two sufficient-statistic
    scans price all k > 1 and all m at once; k = 1 is priced by the
    unoptimized one-request window (``sw1-unoptimized``), the rule
    the allocator then runs, not SW1's delete-request kernel.
    """
    prices = {}
    windows = [k for k in ks if k > 1]
    totals = batched_totals(scan_window_counts(writes, windows), model)
    for k, total in zip(windows, totals[:, 0].tolist()):
        prices[AlgorithmSpec("swk", k)] = total
    if 1 in ks:
        codes, _copy = batched_run_arrays("sw1-unoptimized", writes)
        total = batched_totals(batched_counts(codes), model)[0]
        prices[AlgorithmSpec("swk", 1)] = float(total)
    if ms:
        totals = batched_totals(scan_threshold_counts("t1", writes, ms), model)
        for m, total in zip(ms, totals[:, 0].tolist()):
            prices[AlgorithmSpec("t1", m)] = total
    return prices


# ---------------------------------------------------------------------------
# Pass 1: the configuration schedule, from the write mask alone
# ---------------------------------------------------------------------------


def _bits_int(bits: np.ndarray) -> int:
    """Write bits, oldest first, as an int with the newest in bit 0."""
    if not len(bits):
        return 0
    packed = np.packbits(bits[::-1], bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def detector_firings(
    writes: np.ndarray, window: int, threshold: float
) -> np.ndarray:
    """Where a fresh :class:`OnlineThetaEstimator` fed ``writes`` fires.

    Every check compares two window sums of real requests, so each is
    a prefix-sum difference; a firing disarms the detector for
    ``window`` requests, so the firings are a greedy scan of the
    candidate positions: the next one is the first at or after the
    last firing plus ``window``.  The float arithmetic is the
    estimator's, so a difference of exactly ``threshold`` does not
    fire here either.
    """
    length = len(writes)
    if length < 2 * window:
        return np.empty(0, dtype=np.int64)
    prefix = np.zeros(length + 1, dtype=np.int32)
    np.cumsum(writes, out=prefix[1:])
    middle = prefix[window:length + 1 - window]
    recent = prefix[2 * window:] - middle
    older = middle - prefix[:length + 1 - 2 * window]
    candidates = np.flatnonzero(
        np.abs(recent / window - older / window) > threshold
    ) + (2 * window - 1)
    firings = []
    armed = 0
    for index in candidates.tolist():
        if index >= armed:
            firings.append(index)
            armed = index + window
    return np.array(firings, dtype=np.int64)


def _retune_points(
    length: int, firings: np.ndarray, interval: int
) -> np.ndarray:
    """Requests that run the oracle: periodic ones, restarted by every
    firing (which retunes itself)."""
    points = []
    last = -1
    for firing in firings.tolist() + [length]:
        points.append(np.arange(last + interval, firing, interval))
        if firing < length:
            points.append(np.array([firing]))
        last = firing
    return np.concatenate(points)


def _window_costs(
    writes: np.ndarray,
    starts: np.ndarray,
    stops: np.ndarray,
    candidates: Sequence[AlgorithmSpec],
    model: CostModel,
) -> np.ndarray:
    """``(R, C)``: each candidate's cost on each window, as a fresh run.

    The windows are ``writes[starts[r]:stops[r]]``.  A fresh run's
    code at position ``j`` equals the full-length run's once ``j`` is
    more than L past the window start: SWk's window and T1m's clipped
    run position no longer reach back across it.  So each candidate
    takes one full-length kernel pass, counted per kind between the
    window boundaries (one bincount over the blocks they cut, then a
    prefix sum over the blocks), and the first L + 1 positions of
    every window are re-run from a fresh state.  Prices go through
    :func:`batched_totals`, so the floats are the scan oracle's bit
    for bit.
    """
    length = len(writes)
    rows = len(starts)
    head = max(spec.carry_length for spec in candidates) + 1
    offsets = np.arange(head)
    heads = writes[np.minimum(starts[:, None] + offsets, length - 1)]
    inside = offsets < (stops - starts)[:, None]
    row_bins = (np.arange(rows) * _NUM_KINDS)[:, None]
    split = np.minimum(starts + head, stops)
    bounds = np.unique(np.concatenate([split, stops]))
    lower = np.searchsorted(bounds, split)
    upper = np.searchsorted(bounds, stops)
    blocks = np.searchsorted(bounds, np.arange(length), side="right")
    blocks *= _NUM_KINDS
    counts = np.empty((rows, len(candidates), _NUM_KINDS), dtype=np.int64)
    for slot, spec in enumerate(candidates):
        codes, _copy = batched_run_arrays(spec.name, writes[None, :])
        prefix = np.bincount(
            blocks + codes[0], minlength=(len(bounds) + 1) * _NUM_KINDS
        ).reshape(-1, _NUM_KINDS).cumsum(axis=0)
        head_codes, _copy = batched_run_arrays(spec.name, heads)
        counts[:, slot] = prefix[upper] - prefix[lower] + np.bincount(
            (head_codes + row_bins)[inside], minlength=rows * _NUM_KINDS
        ).reshape(rows, _NUM_KINDS)
    return batched_totals(counts, model)


# ---------------------------------------------------------------------------
# Pass 2: constant-configuration segments through the kernels
# ---------------------------------------------------------------------------


def _rebuilt_copy(spec: AlgorithmSpec, carry: int) -> bool:
    """The copy bit the kernels hold after replaying ``carry`` fresh.

    SWk's replica follows the window majority, T1m's the all-reads
    run; a seeded session keeps a disagreeing copy bit for at most L
    requests.
    """
    if spec.family == "swk":
        return carry.bit_count() <= spec.param >> 1
    return carry == 0


def _run_segment(
    session: AllocationSession,
    writes: np.ndarray,
    start: int,
    stop: int,
    codes: np.ndarray,
    copy_after: np.ndarray,
) -> bool:
    """Decide ``writes[start:stop]`` with ``session``; return the copy bit.

    The session decides the head one request at a time until its copy
    bit is the one the kernels rebuild from its carry; the kernels then
    take the rest on ``[carry | remaining bits]``, discarding the
    carry's L outputs.  Fills ``codes`` and ``copy_after`` in place;
    the session itself is left at the end of its head.
    """
    spec = session.spec
    position = start
    while position < stop and session.mobile_has_copy != _rebuilt_copy(
        spec, session.carry
    ):
        decision = session.feed(
            Operation.WRITE if writes[position] else Operation.READ
        )
        codes[position] = _CODES[decision.kind]
        copy_after[position] = decision.mobile_has_copy
        position += 1
    if position < stop:
        row = np.concatenate([session.carry_bits(), writes[position:stop]])
        run_codes, run_copy = batched_run_arrays(spec.name, row[None, :])
        codes[position:stop] = run_codes[0, spec.carry_length:]
        copy_after[position:stop] = run_copy[0, spec.carry_length:]
    return bool(copy_after[stop - 1])


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

        Ties prefer the incumbent (no churn, returns ``None``), then
        the smaller parameter (faster adaptation).
        """
        self._since_retune = 0
        self._retunes += 1
        observed = self._observed
        if observed < 2:
            return None
        packed = self._history.to_bytes((observed + 7) // 8, "big")
        writes = np.unpackbits(np.frombuffer(packed, dtype=np.uint8))
        prices = oracle_prices(
            writes[-observed:].astype(bool)[None, :],
            self._ks,
            self._ms,
            self._oracle_model,
        )
        best_cost = min(prices.values())
        best = [spec for spec, cost in prices.items() if cost <= best_cost]
        if self._session.spec in best:
            return None
        return min(best, key=_preference)

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

    # -- the two-pass run ------------------------------------------------

    def _candidates(self) -> Tuple[AlgorithmSpec, ...]:
        """The oracle's distinct candidates in tie-break order."""
        specs = {AlgorithmSpec("swk", k) for k in self._ks}
        specs.update(AlgorithmSpec("t1", m) for m in self._ms)
        return tuple(sorted(specs, key=_preference))

    def _epochs(self, firings: np.ndarray) -> np.ndarray:
        """Where the observed history starts after 0, 1, ... firings.

        A firing at request f keeps the detector's fresh window, the
        ``detector_window`` requests ending at f.
        """
        return np.concatenate([[0], firings - self._detector_window + 1])

    def _schedule(
        self, writes: np.ndarray, firings: np.ndarray, points: np.ndarray
    ) -> List[Tuple[int, AlgorithmSpec]]:
        """Pass 1's adoptions: ``(request, configuration)`` pairs.

        Each retune prices the last ``observed`` requests, where the
        observed length restarts ``detector_window`` requests before
        every firing and caps at ``history``.
        """
        candidates = self._candidates()
        current = candidates.index(self._session.spec)
        epochs = self._epochs(firings)[
            np.searchsorted(firings, points, side="right")
        ]
        observed = np.minimum(points - epochs + 1, self._history_cap)
        priced = observed >= 2
        if not priced.any():
            return []
        points, stops = points[priced], points[priced] + 1
        costs = _window_costs(
            writes, stops - observed[priced], stops, candidates,
            self._oracle_model,
        )
        best = costs <= costs.min(axis=1, keepdims=True)
        adoptions = []
        for point, row, pick in zip(
            points.tolist(), best.tolist(), best.argmax(axis=1).tolist()
        ):
            if not row[current]:
                current = pick
                adoptions.append((point, candidates[pick]))
        return adoptions

    def run_mask(self, writes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """A fresh run over a whole write mask, in two passes.

        Returns ``(codes, copy_after)`` like
        :func:`~repro.core.batched.batched_run_arrays` for one row, and
        leaves the instance exactly as replaying the mask request by
        request would — session, history, estimator and counters — so
        a continued run picks up where this one ended.
        """
        writes = np.asarray(writes)
        if writes.ndim != 1 or writes.dtype != np.bool_:
            raise InvalidParameterError(
                f"expected a 1-D bool write mask, got "
                f"{writes.dtype} {writes.shape}"
            )
        self.reset()
        length = len(writes)
        codes = np.empty(length, dtype=np.int64)
        copy_after = np.empty(length, dtype=bool)
        if not length:
            return codes, copy_after
        window = self._detector_window
        firings = detector_firings(writes, window, self._detector_threshold)
        points = _retune_points(length, firings, self._retune_interval)
        adoptions = self._schedule(writes, firings, points)

        # Pass 2: one seeded session per constant-configuration segment.
        session = self._session
        start = 0
        for stop, adopted in adoptions + [(length, None)]:
            seed = session.carry
            copy = _run_segment(
                session, writes, start, stop, codes, copy_after
            )
            if adopted is not None:
                session = self._seeded(writes, firings, stop, adopted, copy)
                start = stop
        spec = session.spec
        tail = writes[max(start, length - spec.carry_length):]
        carry = (seed << len(tail) | _bits_int(tail)) & (
            (1 << spec.carry_length) - 1
        )

        # The end state the replay leaves behind.
        self._session = AllocationSession(spec, seed=(carry, copy))
        self._mobile_has_copy = copy
        epoch = int(self._epochs(firings)[-1])
        self._observed = min(length - epoch, self._history_cap)
        self._history = _bits_int(writes[length - self._observed:])
        self._since_retune = (
            length - 1 - int(points[-1]) if len(points) else length
        )
        self._retunes = len(points)
        self._regime_changes = len(firings)
        estimator = self._estimator
        estimator._observed = min(length - epoch, 2 * window)
        estimator._bits = _bits_int(writes[length - estimator._observed:])
        return codes, copy_after

    def _seeded(
        self,
        writes: np.ndarray,
        firings: np.ndarray,
        request: int,
        spec: AlgorithmSpec,
        copy: bool,
    ) -> AllocationSession:
        """The session :meth:`_serve` adopts at ``request``: the last L
        bits before it (a short history padded with writes), ``copy``."""
        epoch = int(self._epochs(firings)[np.searchsorted(firings, request)])
        real = min(request - epoch, self._history_cap, spec.carry_length)
        pad = (1 << spec.carry_length) - (1 << real)
        carry = pad | _bits_int(writes[request - real:request])
        return AllocationSession(spec, seed=(carry, copy))

    def describe(self) -> str:
        return (
            f"adaptive allocator (ks={list(self._ks)}, ms={list(self._ms)}, "
            f"retune every {self._retune_interval}, "
            f"history {self._history_cap})"
        )

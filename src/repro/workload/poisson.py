"""Poisson request streams (section 3 of the paper).

Reads are Poisson(λr) at the mobile computer; writes are Poisson(λw)
at the stationary computer, independently.  Two standard facts drive
the generators here:

* The merged stream is Poisson(λr + λw), and each arrival is a write
  with probability ``θ = λw/(λw+λr)`` independently of everything else.
  So for *cost* purposes (which ignore time), a schedule of ``n``
  requests is just ``n`` i.i.d. Bernoulli(θ) coin flips —
  :func:`bernoulli_schedule` is the fast path used by Monte-Carlo
  estimation.
* Interarrival times of the merged stream are Exponential(λr + λw) —
  :class:`PoissonWorkload` produces timestamped schedules for the
  discrete-event protocol simulator.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..exceptions import InvalidParameterError
from ..types import (
    Operation,
    Request,
    Schedule,
    ensure_integer,
    ensure_probability,
)
from .seeding import SeedLike, resolve_rng

__all__ = ["theta_from_rates", "bernoulli_schedule", "PoissonWorkload"]


def theta_from_rates(read_rate: float, write_rate: float) -> float:
    """θ = λw / (λw + λr), the probability the next request is a write."""
    if read_rate < 0 or write_rate < 0:
        raise InvalidParameterError(
            f"rates must be non-negative, got λr={read_rate!r}, λw={write_rate!r}"
        )
    total = read_rate + write_rate
    if total == 0:
        raise InvalidParameterError("at least one of λr, λw must be positive")
    return write_rate / total


def bernoulli_mask(
    theta: float,
    length: int,
    rng: SeedLike = None,
):
    """The write mask of :func:`bernoulli_schedule`, as a bare array.

    One shared draw path guarantees the mask is bit-identical to
    ``bernoulli_schedule(...).write_mask()`` with the same seed — which
    lets the batched kernels consume seeded workload recipes without
    ever constructing per-request objects.
    """
    theta = ensure_probability(theta)
    length = ensure_integer(length, "length")
    if length < 0:
        raise InvalidParameterError(f"length must be >= 0, got {length}")
    rng = resolve_rng(rng)
    return rng.random(length) < theta


def bernoulli_schedule(
    theta: float,
    length: int,
    rng: SeedLike = None,
) -> Schedule:
    """``length`` i.i.d. requests, each a write with probability θ.

    This is distributionally identical to observing ``length`` relevant
    requests of the merged Poisson stream, which is all the cost
    analysis needs.  ``rng`` accepts a ready ``Generator``, an int
    seed, a spawned ``SeedSequence`` (the parallel-sweep discipline of
    :mod:`repro.workload.seeding`) or ``None`` for OS entropy.
    """
    draws = bernoulli_mask(theta, length, rng)
    schedule = Schedule(
        Request(Operation.WRITE if is_write else Operation.READ)
        for is_write in draws
    )
    schedule._prefill_write_mask(draws)
    return schedule


class PoissonWorkload:
    """Timestamped merged Poisson stream of reads and writes.

    Parameters
    ----------
    read_rate, write_rate:
        The Poisson parameters λr (reads at the MC) and λw (writes at
        the SC), in requests per time unit.
    seed:
        Optional seed (int, ``SeedSequence`` or ready ``Generator``);
        experiments pass explicit seeds so every table in
        EXPERIMENTS.md is reproducible.
    """

    def __init__(
        self,
        read_rate: float,
        write_rate: float,
        seed: SeedLike = None,
    ):
        self._theta = theta_from_rates(read_rate, write_rate)
        self._read_rate = float(read_rate)
        self._write_rate = float(write_rate)
        self._rng = resolve_rng(seed)

    @property
    def theta(self) -> float:
        return self._theta

    @property
    def read_rate(self) -> float:
        return self._read_rate

    @property
    def write_rate(self) -> float:
        return self._write_rate

    def generate(self, length: int) -> Schedule:
        """A schedule of ``length`` requests with arrival timestamps."""
        if length < 0:
            raise InvalidParameterError(f"length must be >= 0, got {length}")
        total_rate = self._read_rate + self._write_rate
        gaps = self._rng.exponential(scale=1.0 / total_rate, size=length)
        times = np.cumsum(gaps)
        writes = self._rng.random(length) < self._theta
        schedule = Schedule(
            Request(
                Operation.WRITE if is_write else Operation.READ,
                timestamp=float(time),
            )
            for time, is_write in zip(times, writes)
        )
        schedule._prefill_write_mask(writes)
        return schedule

    def generate_until(self, horizon: float) -> Schedule:
        """All requests arriving in ``[0, horizon)``."""
        if horizon < 0:
            raise InvalidParameterError(f"horizon must be >= 0, got {horizon!r}")
        total_rate = self._read_rate + self._write_rate
        requests = []
        time = 0.0
        while True:
            time += float(self._rng.exponential(scale=1.0 / total_rate))
            if time >= horizon:
                break
            is_write = bool(self._rng.random() < self._theta)
            requests.append(
                Request(
                    Operation.WRITE if is_write else Operation.READ,
                    timestamp=time,
                )
            )
        return Schedule(requests)

    def __repr__(self) -> str:
        return (
            f"PoissonWorkload(read_rate={self._read_rate!r}, "
            f"write_rate={self._write_rate!r})"
        )

"""Contended-resource models: multi-core CPUs and token buckets.

:class:`CpuResource` is the piece that makes the benchmark figures come out
with the paper's shapes.  Each simulated silo owns one; every actor-message
execution *consumes* CPU seconds on it.  Because the resource is a
first-come-first-served multi-server queue, a synchronized wave of requests
(the paper's once-per-second sensor burst) drains through the cores over
real queueing delay — which is exactly where the paper's latency percentiles
and the single-server saturation point come from.
"""

from __future__ import annotations

import heapq

from .futures import Future
from .scheduler import Scheduler


class CpuResource:
    """A FCFS multi-core CPU with a relative speed factor.

    ``speed`` scales service times: a silo with ``speed=1.5`` finishes the
    same work 1.5x faster than one with ``speed=1.0`` (mirroring the paper's
    use of EC2 Compute Units to compare m5.large and m5.xlarge).
    """

    def __init__(self, scheduler: Scheduler, cores: int, speed: float = 1.0) -> None:
        if cores < 1:
            raise ValueError("a CPU needs at least one core")
        if speed <= 0:
            raise ValueError("speed must be positive")
        self._scheduler = scheduler
        self.cores = cores
        self.speed = speed
        # Virtual timestamps at which each core next becomes free.
        self._core_free_at: list[float] = [scheduler.now] * cores
        heapq.heapify(self._core_free_at)
        self.busy_seconds = 0.0
        self.jobs_completed = 0
        self._opened_at = scheduler.now

    def consume(self, cpu_seconds: float, profile=None) -> Future[None]:
        """Occupy one core for ``cpu_seconds`` of work (scaled by speed).

        Returns a future resolving when the work completes; the caller
        experiences queueing delay automatically when all cores are busy.
        Zero-cost work completes at the current instant but still round-trips
        through the scheduler for deterministic ordering.
        """
        return self._scheduler.at(self.book(cpu_seconds, profile))

    def book(self, cpu_seconds: float, profile=None) -> float:
        """:meth:`consume`'s booking: returns the instant the work finishes.

        ``profile`` is the CPU-attribution hook for the continuous profiler:
        an iterable of accounting records (objects with ``cpu_service`` and
        ``cpu_wait`` attributes, e.g.
        :class:`~repro.obs.profile.ProfileRecord`).  The resource is the only
        place that knows exactly how the elapsed virtual time splits into
        core-queueing wait versus service, so it attributes both here; with
        the default ``None`` the hook costs nothing.
        """
        if cpu_seconds < 0:
            raise ValueError("cpu_seconds must be >= 0")
        now = self._scheduler.now
        service_time = cpu_seconds / self.speed
        earliest_free = heapq.heappop(self._core_free_at)
        start = max(now, earliest_free)
        finish = start + service_time
        heapq.heappush(self._core_free_at, finish)
        self.busy_seconds += service_time
        self.jobs_completed += 1
        if profile is not None:
            wait = start - now
            for record in profile:
                record.cpu_service += service_time
                record.cpu_wait += wait
        return finish

    def queue_depth_seconds(self) -> float:
        """Backlog: how far in the future the least-loaded core is booked."""
        return max(0.0, min(self._core_free_at) - self._scheduler.now)

    def utilization(self) -> float:
        """Fraction of core-time spent busy since construction (or reset)."""
        elapsed = self._scheduler.now - self._opened_at
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / (elapsed * self.cores))

    def reset_accounting(self) -> None:
        """Restart the utilization window at the current instant."""
        self.busy_seconds = 0.0
        self.jobs_completed = 0
        self._opened_at = self._scheduler.now


class TokenBucket:
    """A refill-per-second token bucket (DynamoDB-style provisioned capacity).

    Capacity accrues continuously at ``rate`` tokens/second up to ``burst``
    tokens.  :meth:`try_consume` either takes the tokens now or reports how
    long the caller must wait — storage layers use that to either throttle
    (reject) or delay requests.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        rate: float,
        burst: float | None = None,
    ) -> None:
        if rate <= 0:
            raise ValueError("rate must be positive")
        self._scheduler = scheduler
        self.rate = rate
        self.burst = burst if burst is not None else rate
        self._tokens = self.burst
        self._updated_at = scheduler.now

    def _refill(self) -> None:
        now = self._scheduler.now
        self._tokens = min(
            self.burst, self._tokens + (now - self._updated_at) * self.rate
        )
        self._updated_at = now

    @property
    def tokens(self) -> float:
        """Tokens available right now."""
        self._refill()
        return self._tokens

    # Deficits below this are forgiven: refill arithmetic cannot resolve
    # them (sleeping `deficit/rate` may not advance float time at all,
    # livelocking a waiter on an infinitesimal shortfall).
    EPSILON_TOKENS = 1e-9

    def try_consume(self, amount: float) -> float:
        """Consume ``amount`` tokens if available.

        Returns 0.0 on success, otherwise the number of seconds until the
        bucket will have accrued enough tokens (the tokens are *not* taken).
        """
        if amount < 0:
            raise ValueError("amount must be >= 0")
        self._refill()
        if self._tokens + self.EPSILON_TOKENS >= amount:
            self._tokens = max(0.0, self._tokens - amount)
            return 0.0
        deficit = amount - self._tokens
        return deficit / self.rate

    async def consume(self, amount: float) -> None:
        """Wait until ``amount`` tokens are available, then take them."""
        while True:
            wait = self.try_consume(amount)
            if wait == 0.0:
                return
            # Clamp below: a wait smaller than float resolution at the
            # current clock would re-fire at the same instant forever.
            await self._scheduler.sleep(max(wait, 1e-9))

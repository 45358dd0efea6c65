"""Host-speed sampling, so host-clock metrics survive a noisy shared host.

The target box switches between speed regimes that last seconds (a fixed
pure-Python loop runs at ~10 or ~13 million iterations/s, with shorter dips
below), so raw wall time of identical work varies by a quarter from one run
to the next.  ``repro.bench.speed`` meets the same problem by pairing each
measurement with a calibration slice; the ledger does the pairing *inside*
the measured region: an interval timer fires every 20 ms of wall time and the
handler runs one short slice of a fixed calibration loop.  The region's wall
time, minus the time spent in slices, is then scaled by (measured speed /
reference speed): host metrics read as "microseconds on a host that runs the
calibration loop at ``REFERENCE_MOPS``".

The loop never changes and touches nothing of ``repro``, so a change to the
program moves the normalised time exactly as it moves the raw time.
"""

from __future__ import annotations

import signal
import time

#: The nominal host: calibration-loop iterations per microsecond.  Chosen
#: close to this box's common regime so normalised and raw values are alike.
REFERENCE_MOPS = 10.0
SAMPLE_INTERVAL_S = 0.02
SLICE_ITERATIONS = 10_000
#: A region shorter than a few timer intervals tops its sample up right after.
MIN_SLICES = 5


def calibration_slice(iterations: int = SLICE_ITERATIONS) -> float:
    """Seconds one pass of the fixed calibration loop takes right now.

    The operations are the ones the simulator's hot paths are made of
    (integer arithmetic, list append/pop, dict stores); the loop is the same
    as ``repro.bench.speed``'s and must stay as it is for results to remain
    comparable across revisions.
    """
    bucket: dict[int, int] = {}
    stack: list[int] = []
    acc = 0
    started = time.perf_counter()
    for i in range(iterations):
        acc = (acc + i) & 0xFFFF
        stack.append(acc)
        bucket[acc & 63] = acc
        if acc & 1:
            stack.pop()
    return time.perf_counter() - started


class SpeedSampler:
    """Context manager timing a region while sampling host speed inside it.

    After the block: ``raw_s`` is the region's wall time without the
    calibration slices, ``mops`` the mean calibration speed seen during it,
    and ``normalised_s`` the region's time on the reference host.
    """

    def __init__(self) -> None:
        self._slice_s = 0.0
        self._slices = 0
        self.raw_s = 0.0
        self.mops = 0.0
        self.normalised_s = 0.0

    def _tick(self, _signum, _frame) -> None:
        self._slice_s += calibration_slice()
        self._slices += 1

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._started = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        elapsed = time.perf_counter() - self._started
        signal.signal(signal.SIGALRM, self._previous)
        self.raw_s = elapsed - self._slice_s
        while self._slices < MIN_SLICES:
            self._tick(None, None)
        self.mops = self._slices * SLICE_ITERATIONS / self._slice_s / 1e6
        self.normalised_s = self.raw_s * self.mops / REFERENCE_MOPS

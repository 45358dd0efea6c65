"""The ledger's own load generator: waves, readers, recorder, value walks.

Load is closed-loop everywhere.  Sensors are clients gated by the paper's
wave barrier ("repeated each second if all sensors have finished their
calls"); readers are fixed-count clients with think time.  Every send is
scheduled on the virtual clock, so generator lateness is zero by
construction and a slow system simply receives its next wave later.
"""

from __future__ import annotations

import random
from typing import Awaitable, Callable, Sequence

WAVE_CADENCE = 1.0


class Recorder:
    """Per-kind ``(sent_at, latency)`` samples in virtual seconds."""

    def __init__(self) -> None:
        self._sent: dict[str, list[float]] = {}
        self._latency: dict[str, list[float]] = {}

    def add(self, kind: str, sent_at: float, latency: float) -> None:
        try:
            self._sent[kind].append(sent_at)
            self._latency[kind].append(latency)
        except KeyError:
            self._sent[kind] = [sent_at]
            self._latency[kind] = [latency]

    def kinds(self) -> list[str]:
        return sorted(self._sent)

    def count(self, kind: str) -> int:
        return len(self._sent.get(kind, ()))

    def latencies(self, kinds: Sequence[str]) -> list[float]:
        """Pooled latencies of ``kinds``, sorted ascending."""
        pooled: list[float] = []
        for kind in kinds:
            pooled.extend(self._latency.get(kind, ()))
        pooled.sort()
        return pooled

    def completions(self, kinds: Sequence[str]) -> list[float]:
        """Pooled completion instants (sent + latency) of ``kinds``."""
        out: list[float] = []
        for kind in kinds:
            out.extend(
                s + l
                for s, l in zip(self._sent.get(kind, ()), self._latency.get(kind, ()))
            )
        return out

    def span(self, kind: str) -> tuple[float, float]:
        """(first send, last completion) of one kind."""
        sent = self._sent[kind]
        return min(sent), max(
            s + l for s, l in zip(sent, self._latency[kind])
        )


def quantized_walk(rng: random.Random, count: int, start: int = 5000) -> list[float]:
    """ADC-style readings: an integer random walk scaled by 1/256.

    Every value is a small multiple of 2**-8, so sums of thousands of them
    are exact in binary64 in any order — the driver's reference refolds can
    demand bit-equal aggregates from the program.
    """
    level = start
    values = []
    for _ in range(count):
        level += rng.randint(-5, 5)
        values.append(level / 256.0)
    return values


async def wave_fleet(
    scheduler,
    clients: Sequence,
    waves: int,
    send: Callable[[object, int], Awaitable],
    jitter: Callable[[int, int], float],
    recorder: Recorder,
    kind: str,
    cadence: float = WAVE_CADENCE,
) -> None:
    """Drive ``waves`` synchronized waves: one ``send(client, wave)`` each.

    A wave starts ``cadence`` virtual seconds after the previous one
    started, or when the previous wave's last ack arrived, whichever is
    later.  Client ``i`` sends ``jitter(wave, i)`` seconds into the wave;
    the recorded latency runs from that send to its ack.
    """
    sleep = scheduler.sleep
    add = recorder.add

    async def one(client, wave: int, offset: float) -> None:
        if offset > 0:
            await sleep(offset)
        sent = scheduler.now
        await send(client, wave)
        add(kind, sent, scheduler.now - sent)

    for wave in range(waves):
        wave_start = scheduler.now
        await scheduler.gather(
            [
                scheduler.spawn(one(client, wave, jitter(wave, index)))
                for index, client in enumerate(clients)
            ]
        )
        next_wave = wave_start + cadence
        if scheduler.now < next_wave:
            await sleep(next_wave - scheduler.now)


async def closed_loop_client(
    scheduler,
    count: int,
    issue: Callable[[int], Awaitable[str]],
    think: Callable[[int], float],
    recorder: Recorder,
    start_after: float = 0.0,
) -> None:
    """One client issuing ``count`` requests, each after the previous reply.

    ``issue(n)`` performs request ``n`` and returns the kind to record it
    under; ``think(n)`` is the pause before request ``n + 1``.
    """
    if start_after > 0:
        await scheduler.sleep(start_after)
    for n in range(count):
        sent = scheduler.now
        kind = await issue(n)
        recorder.add(kind, sent, scheduler.now - sent)
        pause = think(n)
        if pause > 0:
            await scheduler.sleep(pause)


async def sample_every(
    scheduler,
    interval: float,
    probe: Callable[[], float],
    into: list,
    keep_going: Callable[[], bool],
) -> None:
    """Append ``probe()`` to ``into`` every ``interval`` virtual seconds
    while ``keep_going()`` (the load is still running)."""
    while keep_going():
        await scheduler.sleep(interval)
        into.append(probe())

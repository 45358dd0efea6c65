"""Activation placement strategies.

When a message targets a virtual actor with no current activation, the
runtime must choose a silo.  Orleans defaults to random placement ("adequate
for most use cases since it will spread load") and recommends prefer-local
for chatty neighbours; the paper's SHM deployment switched sensor channels
and aggregators to prefer-local (§5).  All three strategies used in the
paper's discussion are implemented, plus a stable-hash strategy that gives
deterministic spreading without randomness.

The elasticity layer (``repro.elastic``) adds one more:

- ``power_of_two`` — the classic "power of two choices": probe two random
  candidate silos and place on the less loaded one.  Near-optimal load
  spread at the cost of two load probes, and (unlike a full argmin scan) it
  does not herd every concurrent placement onto the same momentarily-idle
  silo.
"""

from __future__ import annotations

import random
import zlib
from typing import Callable, Protocol, Sequence

from .key import ActorKey


class PlacementStrategy(Protocol):
    """Chooses a hosting silo for a new activation."""

    def choose(
        self,
        key: ActorKey,
        caller_endpoint: str,
        active_silos: Sequence[str],
    ) -> str:
        """Return the silo id to host ``key``; ``active_silos`` is non-empty."""
        ...  # pragma: no cover - protocol


class RandomPlacement:
    """Uniformly random placement over the active silos."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng

    def choose(
        self, key: ActorKey, caller_endpoint: str, active_silos: Sequence[str]
    ) -> str:
        return active_silos[self._rng.randrange(len(active_silos))]


class PreferLocalPlacement:
    """Place on the caller's silo when the caller is a silo.

    Calls arriving from outside the cluster (client gateways) fall back to
    the wrapped strategy.
    """

    def __init__(self, fallback: PlacementStrategy) -> None:
        self._fallback = fallback

    def choose(
        self, key: ActorKey, caller_endpoint: str, active_silos: Sequence[str]
    ) -> str:
        if caller_endpoint in active_silos:
            return caller_endpoint
        return self._fallback.choose(key, caller_endpoint, active_silos)


class HashPlacement:
    """Stable placement by CRC of the actor key.

    The same key always lands on the same silo for a fixed membership, which
    keeps partitioned workloads (one organization per silo) reproducible.
    """

    def choose(
        self, key: ActorKey, caller_endpoint: str, active_silos: Sequence[str]
    ) -> str:
        digest = zlib.crc32(key.qualified().encode("utf-8"))
        return active_silos[digest % len(active_silos)]


class PowerOfTwoPlacement:
    """Load-aware placement: probe two random silos, pick the less loaded.

    ``load_of`` returns a comparable load sample for a silo id (the runtime
    supplies ``(mailbox backlog, activation count)``).  Ties go to the first
    probe, keeping the choice deterministic for a fixed RNG stream.
    """

    def __init__(
        self, rng: random.Random, load_of: Callable[[str], object]
    ) -> None:
        self._rng = rng
        self._load_of = load_of

    def choose(
        self, key: ActorKey, caller_endpoint: str, active_silos: Sequence[str]
    ) -> str:
        count = len(active_silos)
        if count == 1:
            return active_silos[0]
        first = self._rng.randrange(count)
        second = self._rng.randrange(count - 1)
        if second >= first:
            second += 1  # distinct second probe, uniform over the rest
        a, b = active_silos[first], active_silos[second]
        if self._load_of(a) <= self._load_of(b):  # type: ignore[operator]
            return a
        return b


class PinnedPlacement:
    """Explicit key→silo pinning with a fallback for unpinned keys.

    Benchmarks use this to reproduce the paper's partitioning of
    organizations across servers exactly.
    """

    def __init__(self, fallback: PlacementStrategy) -> None:
        self._fallback = fallback
        self._pins: dict[str, str] = {}
        self._prefix_pins: list[tuple[str, str]] = []

    def pin(self, key: ActorKey, silo_id: str) -> None:
        """Pin one specific actor key to a silo."""
        self._pins[key.qualified()] = silo_id

    def pin_prefix(self, qualified_prefix: str, silo_id: str) -> None:
        """Pin every key whose ``Type/id`` starts with the given prefix."""
        self._prefix_pins.append((qualified_prefix, silo_id))

    def pinned_to(self, key: ActorKey) -> str | None:
        """The silo ``key`` is explicitly pinned to, if any.

        The rebalancer uses this to classify activations as *movable*:
        migrating a pinned actor would be undone at its next activation, so
        pinned keys are never rebalanced.
        """
        qualified = key.qualified()
        pinned = self._pins.get(qualified)
        if pinned is not None:
            return pinned
        for prefix, silo_id in self._prefix_pins:
            if qualified.startswith(prefix):
                return silo_id
        return None

    def choose(
        self, key: ActorKey, caller_endpoint: str, active_silos: Sequence[str]
    ) -> str:
        qualified = key.qualified()
        pinned = self._pins.get(qualified)
        if pinned is not None and pinned in active_silos:
            return pinned
        for prefix, silo_id in self._prefix_pins:
            if qualified.startswith(prefix) and silo_id in active_silos:
                return silo_id
        return self._fallback.choose(key, caller_endpoint, active_silos)


def build_strategies(
    rng: random.Random,
    load_probe: Callable[[str], object] | None = None,
    fallback: str = "random",
) -> dict[str, PlacementStrategy]:
    """The standard strategy registry, keyed by the names actors use.

    ``load_probe`` (silo id → comparable load sample) enables the
    ``power_of_two`` strategy; without it the entry is absent.  ``fallback``
    names the strategy ``prefer_local`` and ``pinned`` delegate to when they
    cannot decide themselves (client callers, unpinned keys) — the elastic
    bench sets it to ``power_of_two`` so overflow placement is load-aware.
    """
    random_strategy = RandomPlacement(rng)
    strategies: dict[str, PlacementStrategy] = {
        "random": random_strategy,
        "hash": HashPlacement(),
    }
    if load_probe is not None:
        strategies["power_of_two"] = PowerOfTwoPlacement(rng, load_probe)
    fallback_strategy = strategies.get(fallback)
    if fallback_strategy is None:
        raise ValueError(f"unknown placement fallback {fallback!r}")
    strategies["prefer_local"] = PreferLocalPlacement(fallback=fallback_strategy)
    strategies["pinned"] = PinnedPlacement(fallback=fallback_strategy)
    return strategies

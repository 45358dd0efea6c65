"""Seeded, named random-number streams.

Every stochastic component (network jitter, workload arrival offsets, data
synthesis) draws from its own named stream derived from one master seed, so
that adding randomness to one component never perturbs another — runs stay
bit-for-bit reproducible and comparable across configurations.
"""

from __future__ import annotations

import hashlib
import random


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a stable 64-bit child seed from ``master_seed`` and ``name``.

    Uses SHA-256 rather than :func:`hash` because the latter is salted per
    interpreter process and would break cross-run determinism.
    """
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngRegistry:
    """Factory of independent :class:`random.Random` streams."""

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = master_seed
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the (memoized) stream for ``name``."""
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        stream = random.Random(derive_seed(self.master_seed, name))
        self._streams[name] = stream
        return stream

"""Actor-state persistence policies.

Orleans lets the developer decide when grain state reaches storage (§5 of
the paper: write on every request, batch a window, or only on deactivation).
The same spectrum is offered here as :class:`WritePolicy`, chosen per actor
class:

- ``WRITE_THROUGH``: persist after every state-mutating method;
- ``INTERVAL``: persist at most every ``write_interval_seconds`` (a timer
  flushes dirty state);
- ``ON_DEACTIVATE``: persist only when the activation is collected or the
  silo shuts down (the configuration the paper benchmarks);
- ``MANUAL``: only when the actor itself calls ``write_state()``.

The hosting :class:`~repro.runtime.activation.Activation` carries the policy
out: it loads, fences and writes the actor's state document.
"""

from __future__ import annotations

import enum


class WritePolicy(enum.Enum):
    """When an actor's state document is flushed to grain storage."""

    WRITE_THROUGH = "write_through"
    INTERVAL = "interval"
    ON_DEACTIVATE = "on_deactivate"
    MANUAL = "manual"

"""Windowed cluster-load observation shared by the elastic control loops.

The metrics registry exports ``silo.cpu_utilization`` as a *cumulative*
ratio (busy since construction / elapsed): exactly what a figure wants, but
too slow-moving for a control loop — after a rebalance the history keeps the
old skew visible for a long time, which would make a naive controller
thrash.  :class:`WindowedCpuLoad` differentiates the kernel's busy ledger
between consecutive observations instead, giving each silo's utilization
*over the last control interval* — the signal the rebalancer thresholds and
the autoscaler uses for idle detection.

Mailbox depth needs no windowing (it is an instantaneous gauge); the control
loops read it straight from the registry snapshot via
:func:`silo_mailbox_depths`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..runtime.runtime import AodbRuntime

#: Added to both sides of utilization ratios so a fully idle silo yields a
#: large-but-finite imbalance instead of a division by zero.
IMBALANCE_EPSILON = 0.05


class WindowedCpuLoad:
    """Per-silo CPU utilization over the interval between observations."""

    def __init__(self, runtime: "AodbRuntime") -> None:
        self._runtime = runtime
        # silo id -> (busy_seconds, observed_at) from the previous pass.
        self._previous: dict[str, tuple[float, float]] = {}

    def observe(self) -> dict[str, float]:
        """Windowed utilization per silo that accepts new activations.

        The first observation of a silo (no previous sample) reports its
        cumulative utilization, which is the best estimate available and
        correct for a silo that just joined (its history *is* the window).
        """
        now = self._runtime.scheduler.now
        loads: dict[str, float] = {}
        seen: set[str] = set()
        for silo in self._runtime.silos():
            if not silo.accepts_activations:
                continue
            seen.add(silo.silo_id)
            busy = silo.cpu.busy_seconds
            previous = self._previous.get(silo.silo_id)
            self._previous[silo.silo_id] = (busy, now)
            if previous is None or now <= previous[1]:
                loads[silo.silo_id] = silo.cpu.utilization()
                continue
            prev_busy, prev_at = previous
            capacity = silo.cpu.cores * (now - prev_at)
            loads[silo.silo_id] = min(1.0, max(0.0, busy - prev_busy) / capacity)
        # Forget silos that left the cluster so a re-added id starts fresh.
        for silo_id in list(self._previous):
            if silo_id not in seen:
                del self._previous[silo_id]
        return loads


def imbalance(loads: dict[str, float]) -> float:
    """Max/min load ratio with an epsilon floor; 1.0 when < 2 silos."""
    if len(loads) < 2:
        return 1.0
    values = loads.values()
    return (max(values) + IMBALANCE_EPSILON) / (min(values) + IMBALANCE_EPSILON)


def silo_mailbox_depths(snapshot: dict[str, Any]) -> dict[str, float]:
    """Per-silo ``silo.mailbox_depth`` gauges out of a registry snapshot.

    Snapshot keys look like ``silo.mailbox_depth{silo=silo-1}``; this is the
    inverse of :func:`repro.obs.metrics.format_metric` for the one label the
    probe carries.
    """
    depths: dict[str, float] = {}
    for key, value in snapshot.items():
        name, brace, rest = key.partition("{")
        if name != "silo.mailbox_depth" or not brace:
            continue
        for pair in rest.rstrip("}").split(","):
            label, _, silo_id = pair.partition("=")
            if label == "silo" and isinstance(value, (int, float)):
                depths[silo_id] = float(value)
    return depths

"""Load-aware rebalancing: migrate hot activations off overloaded silos.

The runtime gives the cluster a *mechanism* for moving live actors
(:meth:`~repro.runtime.runtime.AodbRuntime.migrate`); this module supplies
the *policy*.  A :class:`Rebalancer` runs on a virtual-time timer, observes
the same signals the observability layer already exports — windowed per-silo
CPU utilization, mailbox depth gauges, and (when enabled) the profiler's
hot-activation ranking — and, when the cluster stays imbalanced for several
consecutive cycles, migrates a bounded number of the hottest movable
activations from the hottest silo to the coolest one.

Two guards keep it from thrashing, the classic failure mode of feedback
placement (Orleans' ActivationShedder has the same pair):

- **hysteresis** — imbalance must persist for ``hysteresis_cycles``
  consecutive observations before any migration happens, so a single bursty
  window does nothing; the streak also resets after acting, so the next
  wave needs fresh evidence measured *after* the moves landed;
- **budget** — at most ``migration_budget`` activations move per cycle, so
  a badly skewed cluster converges over several cycles instead of stampeding
  every actor to whichever silo looked idle at one instant.

Pinned activations (``PinnedPlacement`` pins, exact or prefix) are never
moved: a pin is an operator statement about *where* an actor must live, and
the rebalancer must not override it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .load import WindowedCpuLoad, imbalance

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..kernel.scheduler import Scheduler, Task
    from ..runtime.key import ActorKey
    from ..runtime.runtime import AodbRuntime


@dataclass(frozen=True)
class RebalancerConfig:
    """Policy knobs for the rebalancing loop."""

    #: Virtual seconds between observations (and hence the CPU window).
    interval: float = 1.0
    #: Windowed max/min silo-utilization ratio that counts as imbalanced.
    imbalance_threshold: float = 2.0
    #: Consecutive imbalanced cycles required before migrating anything.
    hysteresis_cycles: int = 2
    #: Maximum activations migrated per acting cycle.
    migration_budget: int = 4
    #: Ignore imbalance while the hottest silo is below this utilization —
    #: ratios are noise when the whole cluster is idle.
    min_utilization: float = 0.10

    def validate(self) -> None:
        if self.interval <= 0:
            raise ValueError("rebalancer interval must be positive")
        if self.imbalance_threshold <= 1.0:
            raise ValueError("imbalance threshold must exceed 1.0")
        if self.hysteresis_cycles < 1:
            raise ValueError("hysteresis_cycles must be >= 1")
        if self.migration_budget < 1:
            raise ValueError("migration_budget must be >= 1")


@dataclass(frozen=True)
class RebalanceEvent:
    """One migration the rebalancer performed (for reports and tests)."""

    at: float
    key: "ActorKey"
    source: str
    target: str


class Rebalancer:
    """Timer-driven feedback loop over the runtime's migration mechanism."""

    def __init__(
        self, runtime: "AodbRuntime", config: RebalancerConfig | None = None
    ) -> None:
        self.runtime = runtime
        self.config = config or RebalancerConfig()
        self.config.validate()
        self.cycles = 0
        self.migrations = 0
        self.migration_failures = 0
        self.events: list[RebalanceEvent] = []
        self._window = WindowedCpuLoad(runtime)
        self._streak = 0
        self._task: "Task | None" = None
        self.last_imbalance = 1.0
        runtime.metrics.register_probe(
            "elastic.rebalancer_cycles", lambda: self.cycles
        )
        runtime.metrics.register_probe(
            "elastic.rebalancer_migrations", lambda: self.migrations
        )

    # -- candidate selection ----------------------------------------------------

    def _movable(self, key: "ActorKey") -> bool:
        return self.runtime.pinned_placement.pinned_to(key) is None

    def _candidates(self, silo_id: str, budget: int) -> list["ActorKey"]:
        """The hottest movable activations resident on ``silo_id``.

        With the profiler enabled, "hot" is exact CPU attribution
        (:meth:`~repro.obs.profile.Profiler.hot_activation_keys`); without
        it, mailbox depth then messages handled approximate the same
        ranking from always-on runtime state.
        """
        silo = self.runtime.silo(silo_id)
        resident = {
            activation.key
            for activation in silo.activations()
            if not activation.closing
        }
        picked: list["ActorKey"] = []
        if self.runtime.profiler.enabled:
            # Ask for a deep ranking: the hottest activations cluster on
            # the hot silo, but the list is cluster-wide.
            for key in self.runtime.profiler.hot_activation_keys(
                top=max(64, budget * 8)
            ):
                if key in resident and self._movable(key):
                    picked.append(key)
                    if len(picked) >= budget:
                        return picked
        ranked = sorted(
            (a for a in silo.activations() if not a.closing),
            key=lambda a: (-len(a.mailbox or ()), -a.messages_handled),
        )
        for activation in ranked:
            if activation.key in resident and activation.key not in picked:
                if self._movable(activation.key):
                    picked.append(activation.key)
                    if len(picked) >= budget:
                        break
        return picked

    # -- the control loop -------------------------------------------------------

    async def run_cycle(self) -> int:
        """One observe → decide → (maybe) act pass; returns migrations done."""
        self.cycles += 1
        loads = self._window.observe()
        self.last_imbalance = imbalance(loads)
        if (
            len(loads) < 2
            or max(loads.values()) < self.config.min_utilization
            or self.last_imbalance <= self.config.imbalance_threshold
        ):
            self._streak = 0
            return 0
        self._streak += 1
        if self._streak < self.config.hysteresis_cycles:
            return 0
        # Act, then demand fresh post-move evidence before acting again.
        self._streak = 0
        hottest = max(loads, key=lambda s: loads[s])
        coolest = min(loads, key=lambda s: loads[s])
        if hottest == coolest:
            return 0
        # Never move more than half the activation-count gap (but always at
        # least one): moving the full budget between near-balanced silos
        # overshoots the equilibrium and the next wave flips the same
        # actors straight back — ping-pong, the exact thrash the budget is
        # meant to prevent.
        gap = (
            self.runtime.silo(hottest).activation_count
            - self.runtime.silo(coolest).activation_count
        )
        budget = min(self.config.migration_budget, max(1, (gap + 1) // 2))
        moved = 0
        for key in self._candidates(hottest, budget):
            try:
                ok = await self.runtime.migrate(key, coolest)
            except Exception:
                self.migration_failures += 1
                continue
            if ok:
                moved += 1
                self.migrations += 1
                self.events.append(
                    RebalanceEvent(
                        at=self.runtime.scheduler.now,
                        key=key,
                        source=hottest,
                        target=coolest,
                    )
                )
                recorder = self.runtime.scheduler.recorder
                if recorder is not None:
                    recorder.elastic.record(
                        "rebalance", key.qualified(), f"{hottest}->{coolest}"
                    )
            else:
                self.migration_failures += 1
        return moved

    def attach(self, scheduler: "Scheduler") -> "Task":
        """Run a cycle every ``config.interval`` until :meth:`detach`."""
        if self._task is not None:
            raise RuntimeError("rebalancer already attached")

        async def loop() -> None:
            while True:
                await scheduler.sleep(self.config.interval)
                await self.run_cycle()

        self._task = scheduler.spawn(loop(), name="rebalancer")
        return self._task

    def detach(self) -> None:
        """Stop the loop (idempotent)."""
        if self._task is not None:
            self._task.cancel()
            self._task = None

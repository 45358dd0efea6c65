"""Silos: the simulated servers that host activations.

A silo bundles a CPU resource (its simulated hardware), an activation
catalog, and a network endpoint.  One silo corresponds to one server in the
paper's deployment (one Orleans silo per EC2 instance).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from ..kernel.resources import CpuResource
from ..kernel.scheduler import Scheduler
from .key import ActorKey

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .activation import Activation


class Silo:
    """One simulated server in the cluster."""

    def __init__(
        self,
        scheduler: Scheduler,
        silo_id: str,
        cores: int = 2,
        speed: float = 1.0,
        instance_type: str = "generic",
    ) -> None:
        self.scheduler = scheduler
        self.silo_id = silo_id
        self.instance_type = instance_type
        self.cpu = CpuResource(scheduler, cores=cores, speed=speed)
        self._activations: dict[ActorKey, "Activation"] = {}
        self.stopping = False
        # Graceful-drain decommission state: a draining silo keeps serving
        # its current activations (unlike a crash, nothing is lost) but is
        # excluded from placement, and the drain loop migrates its
        # activations out before shutdown completes.
        self.draining = False
        # Set when the silo fails without the cluster noticing: the process
        # is gone but membership still lists it until its lease lapses and
        # the failure detector evicts it.  Messages routed here fail fast.
        self.crashed = False
        # Self-quarantine: the silo lost its membership lease (partitioned
        # from the system store) and parked its mailboxes.  Unlike a crash
        # the process is alive — it heartbeats, scram-flushes state and
        # rejoins with a fresh announce once the partition heals.
        self.quarantined = False

    @property
    def accepts_activations(self) -> bool:
        """Whether this silo can take new activations (migration targets).

        False while it is crashed, quarantined (it cannot acquire the fences
        durable grains need), draining or stopping.
        """
        return not (self.crashed or self.quarantined or self.draining or self.stopping)

    # -- catalog -----------------------------------------------------------------

    def add_activation(self, activation: "Activation") -> None:
        """Register a new activation in this silo's catalog."""
        if activation.key in self._activations:
            raise ValueError(f"{activation.key} already activated on {self.silo_id}")
        self._activations[activation.key] = activation

    def remove_activation(self, key: ActorKey) -> None:
        """Drop an activation from the catalog (after it closed)."""
        self._activations.pop(key, None)

    def get_activation(self, key: ActorKey) -> "Activation | None":
        """The live activation for ``key``, if any."""
        return self._activations.get(key)

    def activations(self) -> Iterable["Activation"]:
        """Snapshot of current activations."""
        return list(self._activations.values())

    @property
    def activation_count(self) -> int:
        """Number of live activations hosted here."""
        return len(self._activations)

    def mailbox_backlog(self) -> int:
        """Messages queued (not yet dequeued) across all activations.

        A pull-style gauge for the metrics registry: evaluated only when a
        snapshot is taken, so it costs nothing during normal execution.
        """
        return sum(
            len(activation.mailbox or ()) for activation in self._activations.values()
        )

    def idle_candidates(self, idle_timeout: float) -> list["Activation"]:
        """Activations unused for ``idle_timeout`` seconds and not busy."""
        now = self.scheduler.now
        return [
            activation
            for activation in self._activations.values()
            if not activation.closing
            and not activation.busy
            and now - activation.last_used >= idle_timeout
        ]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Silo {self.silo_id} type={self.instance_type} "
            f"activations={self.activation_count}>"
        )

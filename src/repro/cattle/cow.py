"""The Cow actor.

Cows are active entities: their collars continuously update their state, and
farmers and slaughterhouses consume their information services (§4.1 — the
collar is *not* a separate actor; its readings are non-actor objects
encapsulated in the cow, per the paper's aggregation relationship).

Indexed attributes (``owner_id``, ``status``) support the AODB queries
farmers and slaughterhouses need ("cows of farmer X", "cows ready for
slaughter").
"""

from __future__ import annotations

from ..errors import LifecycleError
from ..runtime.actor import Actor, actor_method
from .geo import GeoFence, trajectory_length_meters
from .model import CowStatus, EventKind

TRAJECTORY_CAPACITY = 2048
HISTORY_CAPACITY = 512


class Cow(Actor):
    """One traceable animal and its encapsulated collar data."""

    durable = True
    indexed_attributes = ("owner_id", "status")

    async def register(
        self,
        farmer_id: str,
        breed: str = "angus",
        born_at: float = 0.0,
    ) -> dict:
        """Enter the cow into the platform under its first owner."""
        if self.state.get("owner_id") is not None:
            raise LifecycleError(f"cow {self.actor_id} already registered")
        self.set_indexed("owner_id", farmer_id)
        self.set_indexed("status", CowStatus.ALIVE.value)
        self.state["breed"] = breed
        self.state["born_at"] = born_at
        self.state["trajectory"] = []
        self.state["fence"] = None
        self.state["history"] = []
        self._record_event(EventKind.BIRTH, born_at, farmer_id, {"breed": breed})
        self.mark_dirty()
        return {"cow_id": self.actor_id, "owner_id": farmer_id}

    def _record_event(
        self, kind: EventKind, timestamp: float, actor: str, details: dict
    ) -> None:
        history = self.state.setdefault("history", [])
        history.append(
            {
                "kind": kind.value,
                "timestamp": timestamp,
                "actor": actor,
                "subject": self.actor_id,
                "details": details,
            }
        )
        if len(history) > HISTORY_CAPACITY:
            del history[: len(history) - HISTORY_CAPACITY]
        self.mark_dirty()

    def _require_alive(self) -> None:
        if self.state.get("status") != CowStatus.ALIVE.value:
            raise LifecycleError(
                f"cow {self.actor_id} is {self.state.get('status')}, not alive"
            )

    # -- collar ingestion (the IoT hot path) -----------------------------------------

    async def record_reading(self, reading: dict) -> dict:
        """Ingest one collar reading; returns geo-fence evaluation.

        The trajectory is a bounded window of readings; a breach of the
        assigned pasture fence is reported one-way to the owning farmer.
        """
        self._require_alive()
        trajectory = self.state.setdefault("trajectory", [])
        trajectory.append(reading)
        if len(trajectory) > TRAJECTORY_CAPACITY:
            del trajectory[: len(trajectory) - TRAJECTORY_CAPACITY]
        self.mark_dirty()
        inside = None
        fence_payload = self.state.get("fence")
        if fence_payload is not None:
            fence = GeoFence.from_dict(fence_payload)
            inside = fence.contains(reading["latitude"], reading["longitude"])
            if not inside:
                owner = self.state.get("owner_id")
                if owner:
                    self.context.actor("Farmer", owner).tell(
                        "record_breach",
                        {
                            "cow_id": self.actor_id,
                            "timestamp": reading["timestamp"],
                            "latitude": reading["latitude"],
                            "longitude": reading["longitude"],
                            "fence": fence_payload["name"],
                        },
                    )
        return {"stored": len(trajectory), "inside_fence": inside}

    async def set_fence(self, fence: dict | None) -> bool:
        """Assign (or clear) the pasture geo-fence for this cow."""
        if fence is not None:
            GeoFence.from_dict(fence)  # validate
        self.state["fence"] = fence
        self.mark_dirty()
        return True

    # -- ownership and lifecycle -------------------------------------------------------

    async def set_owner(self, farmer_id: str, timestamp: float = 0.0) -> str:
        """Change ownership (call inside a transaction for consistency)."""
        self._require_alive()
        previous = self.state.get("owner_id")
        self.set_indexed("owner_id", farmer_id)
        self._record_event(
            EventKind.TRANSFER, timestamp, farmer_id, {"from": previous}
        )
        return farmer_id

    async def slaughter(self, slaughterhouse_id: str, timestamp: float) -> dict:
        """Terminal transition; a cow can be slaughtered exactly once."""
        self._require_alive()
        self.set_indexed("status", CowStatus.SLAUGHTERED.value)
        self.state["slaughtered_by"] = slaughterhouse_id
        self.state["slaughtered_at"] = timestamp
        self._record_event(
            EventKind.SLAUGHTER, timestamp, slaughterhouse_id, {}
        )
        return {
            "cow_id": self.actor_id,
            "owner_id": self.state.get("owner_id"),
            "breed": self.state.get("breed"),
            "born_at": self.state.get("born_at"),
            "slaughtered_at": timestamp,
        }

    # -- information services ---------------------------------------------------------

    @actor_method(read_only=True)
    async def current_location(self) -> dict | None:
        """Latest collar position, or None before any reading."""
        trajectory = self.state.get("trajectory", ())
        return dict(trajectory[-1]) if trajectory else None

    @actor_method(read_only=True)
    async def trajectory(
        self, start: float = 0.0, end: float = float("inf")
    ) -> list[dict]:
        """Collar readings with start <= timestamp < end."""
        return [
            dict(r)
            for r in self.state.get("trajectory", ())
            if start <= r["timestamp"] < end
        ]

    @actor_method(read_only=True)
    async def travelled_meters(self) -> float:
        """Length of the recorded trajectory (behavior tracking)."""
        points = [
            (r["latitude"], r["longitude"]) for r in self.state.get("trajectory", ())
        ]
        return trajectory_length_meters(points)

    @actor_method(read_only=True)
    async def history(self) -> list[dict]:
        """The cow's full provenance event log."""
        return [dict(event) for event in self.state.get("history", ())]

    @actor_method(read_only=True)
    async def describe(self) -> dict:
        """Identity, ownership and lifecycle summary."""
        return {
            "cow_id": self.actor_id,
            "owner_id": self.state.get("owner_id"),
            "status": self.state.get("status"),
            "breed": self.state.get("breed"),
            "born_at": self.state.get("born_at"),
            "readings": len(self.state.get("trajectory", ())),
            "slaughtered_by": self.state.get("slaughtered_by"),
        }

"""The Farmer actor — one farm unit (a farmer or a cooperative, §4.1)."""

from __future__ import annotations

from ..errors import UnknownEntityError
from ..runtime.actor import Actor, actor_method

BREACH_CAPACITY = 512


class Farmer(Actor):
    """A farm unit owning and managing cows."""

    durable = True

    async def setup(self, name: str, location_gln: str | None = None) -> dict:
        """Initialize the farm unit (idempotent)."""
        self.state.setdefault("name", name)
        self.state.setdefault("location_gln", location_gln)
        self.state.setdefault("herd", [])
        self.state.setdefault("breaches", [])
        self.state.setdefault("fences", {})
        self.mark_dirty()
        return {"farmer_id": self.actor_id, "name": self.state["name"]}

    # -- herd management -----------------------------------------------------------

    async def add_cow(self, cow_id: str) -> int:
        """Record ownership of a cow; returns herd size."""
        herd = self.state.setdefault("herd", [])
        if cow_id not in herd:
            herd.append(cow_id)
            self.mark_dirty()
        return len(herd)

    async def remove_cow(self, cow_id: str) -> int:
        """Drop a cow (sold or slaughtered); returns herd size."""
        herd = self.state.setdefault("herd", [])
        if cow_id not in herd:
            raise UnknownEntityError(
                f"farmer {self.actor_id} does not own {cow_id}"
            )
        herd.remove(cow_id)
        self.mark_dirty()
        return len(herd)

    @actor_method(read_only=True)
    async def herd(self) -> list[str]:
        """Cow ids this farm unit owns."""
        return list(self.state.get("herd", ()))

    # -- pasture management ------------------------------------------------------------

    async def define_fence(self, fence: dict) -> str:
        """Register a named pasture fence for later assignment."""
        self.state.setdefault("fences", {})[fence["name"]] = fence
        self.mark_dirty()
        return fence["name"]

    async def assign_fence(self, cow_id: str, fence_name: str) -> bool:
        """Rotate a cow onto a pasture (pushes the fence to the cow actor)."""
        fences = self.state.get("fences", {})
        if fence_name not in fences:
            raise UnknownEntityError(f"no fence {fence_name!r} at {self.actor_id}")
        if cow_id not in self.state.get("herd", ()):
            raise UnknownEntityError(f"farmer {self.actor_id} does not own {cow_id}")
        return await self.context.actor("Cow", cow_id).set_fence(fences[fence_name])

    async def record_breach(self, breach: dict) -> None:
        """Receive a geo-fence breach from one of the herd's cows."""
        breaches = self.state.setdefault("breaches", [])
        breaches.append(breach)
        if len(breaches) > BREACH_CAPACITY:
            del breaches[: len(breaches) - BREACH_CAPACITY]
        self.mark_dirty()

    @actor_method(read_only=True)
    async def breaches(self, limit: int = 100) -> list[dict]:
        """Recent geo-fence breaches across the herd."""
        return [dict(b) for b in self.state.get("breaches", ())[-limit:]]

    # -- herd information services ---------------------------------------------------

    @actor_method(read_only=True)
    async def herd_locations(self) -> dict:
        """Latest position of every cow in the herd (fan-out query)."""
        herd = list(self.state.get("herd", ()))
        futures = [
            self.context.actor("Cow", cow_id).ask("current_location")
            for cow_id in herd
        ]
        locations = await self.context.runtime.scheduler.gather(futures)
        return dict(zip(herd, locations))

    @actor_method(read_only=True)
    async def describe(self) -> dict:
        """Farm unit summary."""
        return {
            "farmer_id": self.actor_id,
            "name": self.state.get("name"),
            "location_gln": self.state.get("location_gln"),
            "herd_size": len(self.state.get("herd", ())),
            "fences": sorted(self.state.get("fences", {})),
            "breaches": len(self.state.get("breaches", ())),
        }

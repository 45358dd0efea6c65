"""The Structural Health Monitoring Data Platform (SHMDP) facade.

This is the deployable surface of case study 1: it provisions tenants
exactly as the paper's evaluation does ("For every 100 sensors, a new
organization was constructed with a single user and a single project ...
these 100 sensors represent 210 sensor channels in total"), and exposes the
three request types the benchmark issues: data insertion, organization
live-data queries, and raw time-range queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..aodb.database import AodbDatabase
from ..kernel.futures import Future
from ..storage.archive import ArchiveLog
from .aggregator import Aggregator
from .channel import (
    DEFAULT_BLOCK_SIZE,
    DEFAULT_WINDOW_CAPACITY,
    PhysicalSensorChannel,
    VirtualSensorChannel,
)
from .model import SensorType
from .organization import Organization
from .sensor import Sensor

ACTOR_CLASSES = (
    Organization,
    Sensor,
    PhysicalSensorChannel,
    VirtualSensorChannel,
    Aggregator,
)


@dataclass
class ProvisionReport:
    """What a provisioning run created (matches the paper's §6.1 math)."""

    organizations: int = 0
    users: int = 0
    projects: int = 0
    sensors: int = 0
    physical_channels: int = 0
    virtual_channels: int = 0
    aggregators: int = 0
    sensor_ids: list[str] = field(default_factory=list)
    org_ids: list[str] = field(default_factory=list)

    @property
    def total_channels(self) -> int:
        return self.physical_channels + self.virtual_channels


def org_id_for(index: int) -> str:
    return f"org-{index}"

def sensor_id_for(org_id: str, index: int) -> str:
    return f"{org_id}/s-{index}"

def channel_id_for(sensor_id: str, index: int) -> str:
    return f"{sensor_id}/c-{index}"

def virtual_channel_id_for(sensor_id: str) -> str:
    return f"{sensor_id}/vc"

def aggregator_id_for(channel_id: str, level: str) -> str:
    return f"{channel_id}/{level}"


class ShmPlatform:
    """End-to-end SHM data platform over an actor-oriented database."""

    def __init__(
        self,
        database: AodbDatabase,
        window_capacity: int = DEFAULT_WINDOW_CAPACITY,
        enable_aggregation: bool = True,
        archive: ArchiveLog | None = None,
        dedup_ingest: bool = False,
        block_size: int = DEFAULT_BLOCK_SIZE,
    ) -> None:
        self.db = database
        self.runtime = database.runtime
        self.window_capacity = window_capacity
        # Points per sealed compressed block in channel windows (0 = raw).
        self.block_size = block_size
        self.enable_aggregation = enable_aggregation
        # Idempotent ingestion: sensors keep per-channel timestamp
        # watermarks and channels drop non-monotonic readings, so duplicated
        # deliveries (chaos duplication, at-least-once retries) do not
        # inflate stored counts.
        self.dedup_ingest = dedup_ingest
        self.archive = archive if archive is not None else ArchiveLog()
        # Channels archive evicted window points through this hook.
        self.runtime.archive = self.archive
        for actor_class in ACTOR_CLASSES:
            self.db.register_actor(actor_class)

    # -- provisioning ----------------------------------------------------------

    async def create_organization(
        self, org_id: str, name: str, admin_id: str = "admin", admin_name: str = "Admin"
    ) -> dict:
        """Create a tenant with an admin user and no projects yet."""
        org = self.runtime.ref("Organization", org_id)
        summary = await org.setup(name)
        await org.add_user(admin_id, admin_name, role="admin")
        return summary

    async def add_sensor(
        self,
        org_id: str,
        project_id: str,
        sensor_id: str,
        sensor_type: SensorType = SensorType.EXTENSION,
        physical_channels: int = 2,
        with_virtual_channel: bool = False,
        alert_rules: list[dict] | None = None,
        position: tuple[float, float] | None = None,
    ) -> dict:
        """Provision one sensor: its channel actors, aggregators, registry."""
        channel_ids = [
            channel_id_for(sensor_id, index) for index in range(physical_channels)
        ]
        virtual_id = virtual_channel_id_for(sensor_id) if with_virtual_channel else None
        channel_configs = []
        for channel_id in channel_ids:
            config = {
                "channel_id": channel_id,
                "window_capacity": self.window_capacity,
                "alert_rules": list(alert_rules or ()),
                "subscribers": [virtual_id] if virtual_id else [],
                "dedup": self.dedup_ingest,
                "block_size": self.block_size,
            }
            if self.enable_aggregation:
                config["aggregator_id"] = aggregator_id_for(channel_id, "hour")
            channel_configs.append(config)
        virtual_config = None
        if virtual_id:
            virtual_config = {
                "channel_id": virtual_id,
                "input_channel_ids": channel_ids,
                "equation": {"kind": "sum"},
                "window_capacity": self.window_capacity,
                "block_size": self.block_size,
            }
            if self.enable_aggregation:
                virtual_config["aggregator_id"] = aggregator_id_for(virtual_id, "hour")
        sensor = self.runtime.ref("Sensor", sensor_id)
        summary = await sensor.configure(
            org_id,
            sensor_type.value,
            channel_configs,
            virtual_channel_config=virtual_config,
            position=position,
            dedup_ingest=self.dedup_ingest,
        )
        if self.enable_aggregation:
            all_channel_ids = channel_ids + ([virtual_id] if virtual_id else [])
            for channel_id in all_channel_ids:
                hour_id = aggregator_id_for(channel_id, "hour")
                day_id = aggregator_id_for(channel_id, "day")
                await self.runtime.ref("Aggregator", hour_id).configure(
                    channel_id, level="hour", downstream_id=day_id
                )
                await self.runtime.ref("Aggregator", day_id).configure(
                    channel_id, level="day"
                )
        await self.runtime.ref("Organization", org_id).register_sensor(
            project_id,
            sensor_id,
            sensor_type.value,
            channel_ids,
            virtual_channel_ids=[virtual_id] if virtual_id else [],
        )
        return summary

    async def provision(
        self,
        total_sensors: int,
        sensors_per_org: int = 100,
        virtual_every: int = 10,
        sensor_type: SensorType = SensorType.EXTENSION,
        alert_rules: list[dict] | None = None,
    ) -> ProvisionReport:
        """Build the paper's evaluation structure for ``total_sensors``.

        One organization (with a single user and project) per
        ``sensors_per_org`` sensors; two physical channels per sensor; every
        ``virtual_every``-th sensor additionally gets a virtual summation
        channel.
        """
        if total_sensors < 1:
            raise ValueError("need at least one sensor")
        report = ProvisionReport()
        for sensor_index in range(total_sensors):
            org_index = sensor_index // sensors_per_org
            org_id = org_id_for(org_index)
            if sensor_index % sensors_per_org == 0:
                await self.create_organization(org_id, f"Organization {org_index}")
                project_id = f"{org_id}/project-0"
                await self.runtime.ref("Organization", org_id).add_project(
                    project_id, f"Structure {org_index}"
                )
                report.organizations += 1
                report.users += 1
                report.projects += 1
                report.org_ids.append(org_id)
            local_index = sensor_index % sensors_per_org
            sensor_id = sensor_id_for(org_id, local_index)
            with_virtual = bool(virtual_every) and (local_index % virtual_every) == 0
            await self.add_sensor(
                org_id,
                f"{org_id}/project-0",
                sensor_id,
                sensor_type=sensor_type,
                physical_channels=2,
                with_virtual_channel=with_virtual,
                alert_rules=alert_rules,
            )
            report.sensors += 1
            report.physical_channels += 2
            if with_virtual:
                report.virtual_channels += 1
            if self.enable_aggregation:
                report.aggregators += 2 * (3 if with_virtual else 2)
            report.sensor_ids.append(sensor_id)
        return report

    # -- request entry points (the benchmark's three request types) -------------

    # These three and ``aggregates`` return the ask's reply future itself
    # (await it): a coroutine around it would only add a frame per request.

    def ingest(
        self,
        sensor_id: str,
        batches: dict[str, list[tuple[float, float]]],
        trace=None,
    ) -> Future[int]:
        """Data-insertion request: one sensor's batch for each channel.

        ``trace`` optionally parents the dispatch under an existing span.
        """
        return self.runtime.ref("Sensor", sensor_id, trace=trace).ingest(batches)

    def live_data(
        self, org_id: str, user_id: str | None = None, trace=None
    ) -> Future[dict]:
        """Live-data request: latest value of every channel of a tenant."""
        return self.runtime.ref("Organization", org_id, trace=trace).live_data(
            user_id=user_id
        )

    def raw_range(
        self,
        channel_id: str,
        start: float,
        end: float,
        virtual: bool = False,
        trace=None,
    ) -> Future[list[tuple[float, float]]]:
        """Raw-data request: a time range from one sensor channel actor."""
        type_name = "VirtualSensorChannel" if virtual else "PhysicalSensorChannel"
        return self.runtime.ref(type_name, channel_id, trace=trace).query_range(
            start, end
        )

    # -- additional online services ------------------------------------------------

    def aggregates(
        self, channel_id: str, level: str, start: float, end: float
    ) -> Future[list[tuple[int, dict]]]:
        """Statistical aggregate series for plots (functional requirement 6)."""
        aggregator_id = aggregator_id_for(channel_id, level)
        return self.runtime.ref("Aggregator", aggregator_id).series(start, end)

    async def range_aggregate(
        self, channel_id: str, start: float, end: float, virtual: bool = False
    ) -> dict:
        """Count/min/max/sum/mean over a channel time range.

        Served by the channel's tiered window: sealed blocks fully inside
        the range answer from their summaries without decompression.
        """
        type_name = "VirtualSensorChannel" if virtual else "PhysicalSensorChannel"
        return await self.runtime.ref(type_name, channel_id).aggregate_range(
            start, end
        )

    async def storage_stats(self, sensor_id: str) -> dict:
        """Live-memory accounting across one sensor's channel windows."""
        return await self.runtime.ref("Sensor", sensor_id).storage_stats()

    async def accumulated_change(self, channel_id: str, virtual: bool = False) -> dict:
        """Accumulated movement of one stream (functional requirement 4)."""
        type_name = "VirtualSensorChannel" if virtual else "PhysicalSensorChannel"
        return await self.runtime.ref(type_name, channel_id).accumulated_change()

    async def alerts(self, org_id: str, limit: int = 100) -> list:
        """Recent alerts of one organization."""
        return await self.runtime.ref("Organization", org_id).alerts(limit)

    async def organization_summary(self, org_id: str) -> dict:
        """Structural summary of one tenant."""
        return await self.runtime.ref("Organization", org_id).describe()

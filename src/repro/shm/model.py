"""Value objects of the structural health monitoring (SHM) domain.

These are the paper's *non-actor* classes from the Figure 4 model: data
points, projects, users and alert rules.  They are plain serializable values
encapsulated inside actor state — never actors themselves (the paper's
granularity principle: only active entities needing detailed tracking
become actors).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class SensorType(enum.Enum):
    """Physical quantities the Great Belt Bridge deployment measures."""

    EXTENSION = "extension"
    INCLINATION = "inclination"
    TEMPERATURE = "temperature"
    WIND_SPEED = "wind_speed"
    WIND_DIRECTION = "wind_direction"
    ACCELERATION = "acceleration"


class Role(enum.Enum):
    """User roles from the context diagram (Figure 1)."""

    ENGINEER = "engineer"
    DATA_ANALYST = "data_analyst"
    MAINTENANCE = "maintenance"
    ADMIN = "admin"


@dataclass(frozen=True)
class DataPoint:
    """One sensor reading: timestamp (virtual seconds) and value."""

    timestamp: float
    value: float


@dataclass
class Project:
    """A monitored construction (e.g. one bridge) owned by an organization."""

    project_id: str
    name: str
    structure_kind: str = "bridge"
    sensor_ids: list[str] = field(default_factory=list)
    active: bool = True


@dataclass
class User:
    """A platform user within one organization (tenant)."""

    user_id: str
    name: str
    role: Role = Role.ENGINEER
    subscribed_alerts: bool = True


@dataclass(frozen=True)
class AlertRule:
    """Threshold rule: fires when a reading leaves [low, high].

    ``channel_id=None`` applies the rule to every channel of the matching
    sensor type (the paper: "depending on individual sensors or sensor
    types").  ``cooldown_seconds`` suppresses repeat alerts.
    """

    rule_id: str
    low: float | None = None
    high: float | None = None
    channel_id: str | None = None
    sensor_type: SensorType | None = None
    cooldown_seconds: float = 60.0
    message: str = ""

    def matches(self, channel_id: str, sensor_type: SensorType) -> bool:
        """Whether this rule applies to the given channel."""
        if self.channel_id is not None and self.channel_id != channel_id:
            return False
        if self.sensor_type is not None and self.sensor_type != sensor_type:
            return False
        return True

    def violated_by(self, value: float) -> bool:
        """Whether a reading breaches the thresholds."""
        if self.low is not None and value < self.low:
            return True
        if self.high is not None and value > self.high:
            return True
        return False


@dataclass(frozen=True)
class Alert:
    """An alert raised by a channel and recorded by its organization."""

    rule_id: str
    channel_id: str
    value: float
    timestamp: float
    message: str = ""


@dataclass(frozen=True)
class SensorSpec:
    """Provisioning description of one sensor and its channels."""

    sensor_id: str
    sensor_type: SensorType = SensorType.EXTENSION
    physical_channels: int = 2
    has_virtual_channel: bool = False
    sampling_rate_hz: float = 10.0
    position: tuple[float, float] | None = None

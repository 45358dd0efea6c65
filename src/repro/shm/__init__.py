"""Case study 1: the Structural Health Monitoring Data Platform (SHMDP)."""

from .aggregator import Aggregator
from .channel import PhysicalSensorChannel, VirtualSensorChannel
from .equations import (
    Equation,
    EquationError,
    ExpressionEquation,
    MeanEquation,
    SumEquation,
    WeightedEquation,
    equation_from_description,
)
from .model import (
    Alert,
    AlertRule,
    DataPoint,
    Project,
    Role,
    SensorSpec,
    SensorType,
    User,
)
from .organization import Organization
from .platform import (
    ACTOR_CLASSES,
    ProvisionReport,
    ShmPlatform,
    aggregator_id_for,
    channel_id_for,
    org_id_for,
    sensor_id_for,
    virtual_channel_id_for,
)
from .sensor import Sensor
from .timeseries import (
    AccumulatedChange,
    AggregateStats,
    BucketedAggregates,
)

__all__ = [
    "ACTOR_CLASSES",
    "AccumulatedChange",
    "AggregateStats",
    "Aggregator",
    "Alert",
    "AlertRule",
    "BucketedAggregates",
    "DataPoint",
    "Equation",
    "EquationError",
    "ExpressionEquation",
    "MeanEquation",
    "Organization",
    "PhysicalSensorChannel",
    "Project",
    "ProvisionReport",
    "Role",
    "Sensor",
    "SensorSpec",
    "SensorType",
    "ShmPlatform",
    "SumEquation",
    "User",
    "VirtualSensorChannel",
    "WeightedEquation",
    "aggregator_id_for",
    "channel_id_for",
    "equation_from_description",
    "org_id_for",
    "sensor_id_for",
    "virtual_channel_id_for",
]

"""The virtual-actor runtime — an actor-oriented database core.

This package implements the Orleans-style runtime the paper builds on:
virtual actors activated on demand, turn-based message processing, placement
strategies, durable state with configurable write policies, timers and
reminders, and graceful silo shutdown.
"""

from .activation import Activation
from .actor import Actor, actor_method
from .config import RuntimeConfig
from .directory import GrainDirectory
from .key import ActorKey
from .messages import DeliveryReceipt, Invocation
from .persistence import StateCell, WritePolicy
from .placement import (
    HashPlacement,
    PinnedPlacement,
    PlacementStrategy,
    PowerOfTwoPlacement,
    PreferLocalPlacement,
    RandomPlacement,
)
from .reference import ActorRef
from .resilience import DEFAULT_RETRY_POLICY, NO_RETRY, RetryPolicy
from .runtime import CLIENT_ENDPOINT, AodbRuntime, RuntimeStats
from .silo import Silo

__all__ = [
    "Activation",
    "Actor",
    "ActorKey",
    "ActorRef",
    "AodbRuntime",
    "CLIENT_ENDPOINT",
    "DEFAULT_RETRY_POLICY",
    "DeliveryReceipt",
    "GrainDirectory",
    "HashPlacement",
    "Invocation",
    "NO_RETRY",
    "PinnedPlacement",
    "PlacementStrategy",
    "PowerOfTwoPlacement",
    "PreferLocalPlacement",
    "RandomPlacement",
    "RetryPolicy",
    "RuntimeConfig",
    "RuntimeStats",
    "Silo",
    "StateCell",
    "WritePolicy",
    "actor_method",
]

"""Runtime configuration.

One :class:`RuntimeConfig` instance parameterizes an
:class:`~repro.runtime.runtime.AodbRuntime`: default CPU costs, activation
lifecycle knobs, messaging behaviour and the fault-tolerance windows.  The
benchmark calibration (``repro.bench.calibration``) builds its configs on
top of these defaults.

Every field is a decision some deployment makes differently: an optional
mechanism is switched off by its window being ``None`` (batching, group
commit, failure detection) or zero (the redo journal), never by a separate
boolean.  Fixed protocol choices are not fields: fencing is always on,
the eviction quorum is ``runtime.EVICTION_QUORUM``, and a bounded mailbox is
declared per actor class (``Actor.mailbox_capacity``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .resilience import RetryPolicy


@dataclass
class RuntimeConfig:
    """Tunable parameters of the actor runtime.

    CPU costs are in *core-seconds* of simulated work and are consumed on
    the hosting silo's :class:`~repro.kernel.resources.CpuResource`.
    """

    # Cost charged for executing one actor method when neither the method
    # decorator nor the actor class overrides it.
    default_method_cost: float = 0.0001

    # Per-deployment cost overrides: (actor type name, method name) -> cost.
    # Takes precedence over decorator and class defaults; the benchmark
    # calibration uses this to pin the paper's measured service times
    # without touching application classes.
    method_costs: dict[tuple[str, str], float] = field(default_factory=dict)

    # Cost of constructing a fresh activation (allocation, ctor, state load
    # dispatch) — charged on the hosting silo.
    activation_cost: float = 0.0005

    # Idle-collection: an activation untouched for `idle_timeout` seconds is
    # deactivated by the collector, which scans every `collection_interval`.
    idle_timeout: float = 600.0
    collection_interval: float = 60.0

    # Copy message payloads and replies at actor boundaries (serde.snapshot:
    # fresh containers, shared immutable leaves).  Always on in tests;
    # benches may disable it to shave harness overhead after the isolation
    # property has been separately verified.
    copy_messages: bool = True

    # Strategy name the prefer_local and pinned strategies fall back to for
    # undecidable cases (client callers, unpinned keys).  The elastic bench
    # sets "power_of_two" so overflow placement is load-aware.
    placement_fallback: str = "random"

    # Reminder pump granularity (virtual seconds between due-checks).
    reminder_tick: float = 60.0

    # -- ingestion fast path ------------------------------------------------

    # Per-destination delivery batching (the actor-message Nagle): requests
    # travelling the same (source endpoint, target silo) path within a short
    # window ride one envelope — one latency sample, one dispatch per
    # envelope.  An open envelope departs `batch_max_delay` virtual seconds
    # after its first message joined (or at once when it reaches the
    # batcher's member cap).  None (the default) = no batching, so unbatched
    # semantics stay bit-identical; the bench calibration turns it on.
    batch_max_delay: float | None = None

    # The share of every method's CPU cost that models per-message dispatch
    # overhead (deserialization, scheduling, envelope handling) rather than
    # application work.  Members of a K-message envelope each pay only 1/K
    # of it — the Reactors-style amortization that moves the saturation
    # point.  0.0 disables the split entirely (cohorts charge full cost).
    dispatch_overhead_cost: float = 0.0

    # Group-commit write-behind: state flushes issued within the same
    # `group_commit_max_delay` window collapse into one storage round trip
    # (KeyValueStore.put_many) while every caller still awaits real
    # durability before its ack.  None = direct puts; 0.0 is a valid window
    # (one scheduler round trip).
    group_commit_max_delay: float | None = None

    # -- fault tolerance ----------------------------------------------------

    # Default deadline (virtual seconds) applied to every ask-style call
    # that does not pass its own; None = calls may wait forever.
    default_call_deadline: float | None = None

    # Retry policy applied transparently by ActorRef to ask-style calls
    # when neither the call nor the reference overrides it; None = no
    # automatic retries.
    default_retry_policy: RetryPolicy | None = None

    # Failure detector: scan the membership table every
    # `failure_detection_interval` virtual seconds (None = no detector); a
    # silo whose lease has been lapsed for `suspicion_grace` seconds is
    # declared dead, its directory registrations purged and its actors
    # re-placed on surviving silos ahead of demand.
    failure_detection_interval: float | None = 5.0
    suspicion_grace: float = 5.0

    # -- partition tolerance ------------------------------------------------

    # Write-ahead redo journal for INTERVAL/ON_DEACTIVATE actors: a per-silo
    # pump snapshots dirty durable state every `redo_lag` virtual seconds
    # into repro.storage.wal, bounding crash data loss to one lag window.
    # 0.0 disables the journal (the paper's benchmarked configuration).
    redo_lag: float = 0.0

    # A silo that cannot refresh its membership lease (store partitioned
    # away) self-quarantines once the lease lapses: it parks its mailboxes,
    # fails asks fast with QuarantinedSiloError and scram-flushes dirty
    # state, instead of limping as a zombie serving stale activations.
    quarantine_on_lease_loss: bool = True

    # Master seed for all runtime randomness (placement, jitter).
    seed: int = 0

    def validate(self) -> None:
        """Raise ValueError on nonsensical settings."""
        if self.default_method_cost < 0 or self.activation_cost < 0:
            raise ValueError("CPU costs must be >= 0")
        if self.idle_timeout <= 0 or self.collection_interval <= 0:
            raise ValueError("idle collection intervals must be positive")
        if self.reminder_tick <= 0:
            raise ValueError("reminder tick must be positive")
        if self.batch_max_delay is not None and self.batch_max_delay < 0:
            raise ValueError("batch_max_delay must be >= 0 (or None)")
        if self.dispatch_overhead_cost < 0:
            raise ValueError("dispatch_overhead_cost must be >= 0")
        if self.group_commit_max_delay is not None and self.group_commit_max_delay < 0:
            raise ValueError("group_commit_max_delay must be >= 0 (or None)")
        if self.default_call_deadline is not None and self.default_call_deadline <= 0:
            raise ValueError("default_call_deadline must be positive")
        if self.default_retry_policy is not None:
            self.default_retry_policy.validate()
        interval = self.failure_detection_interval
        if interval is not None and interval <= 0:
            raise ValueError("failure_detection_interval must be positive (or None)")
        if self.suspicion_grace < 0:
            raise ValueError("suspicion_grace must be >= 0")
        if self.redo_lag < 0:
            raise ValueError("redo_lag must be >= 0")

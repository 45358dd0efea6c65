"""Continuous per-actor profiler: who is eating the cluster, and where.

The causal tracer (:mod:`repro.obs.trace`) answers "why was *this* request
slow"; the profiler answers the operator's aggregate question — which
(actor class, method) pairs and which individual activations consume the
cluster's virtual CPU, where turns wait (mailbox, core queue, storage), and
whether any mailbox is backing up.

Attribution is exact rather than sampled: every turn the runtime executes
accumulates into two pre-fetched records — one per ``(actor class, method)``
and one per activation — and the CPU split between core-queueing wait and
service comes from the kernel itself
(:meth:`~repro.kernel.resources.CpuResource.book`'s ``profile`` hook),
the only place that knows it exactly.  Summing the ``cpu_service`` of every
method row therefore reproduces the kernel's own ``busy_seconds`` ledger,
which is what makes the report trustworthy (and testable: coverage ≥ 95%
is an acceptance criterion, with the remainder explained by silos that
left the cluster mid-run).

Like the tracer, the profiler is **disabled by default**.  It has two
producer sites, ``Activation._start`` and the turn's ``_Turn.begin``, each
guarded by one ``profiler.enabled`` read in front of one
:meth:`Profiler.turn_records` call, so the unprofiled turn makes no call
into this module and allocates nothing here.  Per-activation records are
capped (``max_activations``) so profiling a million-actor cluster cannot
balloon memory: overflow activations collapse into one ``(other)`` record
and are counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..runtime.key import ActorKey
    from ..runtime.silo import Silo


class ProfileRecord:
    """One attribution row: virtual-time totals for a method or activation.

    ``cpu_service`` is pure core-service time (kernel-attributed, sums to
    ``CpuResource.busy_seconds``); ``cpu_wait`` is time spent queueing for
    a free core; ``queue_wait`` is mailbox wait; ``storage_wait`` is
    grain-storage latency charged inside turns (state loads and flushes).
    """

    __slots__ = (
        "label", "calls", "errors", "cpu_service", "cpu_wait",
        "queue_wait", "storage_wait",
    )

    def __init__(self, label: str) -> None:
        self.label = label
        self.calls = 0
        self.errors = 0
        self.cpu_service = 0.0
        self.cpu_wait = 0.0
        self.queue_wait = 0.0
        self.storage_wait = 0.0

    @property
    def busy(self) -> float:
        """Everything this row did or waited for (excl. child-call waits)."""
        return self.cpu_service + self.cpu_wait + self.queue_wait + self.storage_wait

    def as_dict(self) -> dict:
        """Serializable view (reports, telemetry, tests)."""
        return {
            "label": self.label,
            "calls": self.calls,
            "errors": self.errors,
            "cpu_service": self.cpu_service,
            "cpu_wait": self.cpu_wait,
            "queue_wait": self.queue_wait,
            "storage_wait": self.storage_wait,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ProfileRecord {self.label} calls={self.calls} "
            f"cpu={self.cpu_service:.6f}>"
        )


class Profiler:
    """Exact, always-on-when-enabled attribution of runtime work.

    Producers (the activation turn loop and ``Activation._start``) fetch
    their record pair once per turn via :meth:`turn_records` and
    accumulate plain floats into it; the kernel CPU hook fills in the
    service/wait split.  Consumers read :meth:`method_rows`,
    :meth:`hot_activations` and :meth:`coverage`.
    """

    def __init__(
        self,
        enabled: bool = False,
        max_activations: int = 4096,
        max_methods: int = 1024,
    ) -> None:
        self.enabled = enabled
        self.max_activations = max_activations
        self.max_methods = max_methods
        self.turns = 0
        self.method_overflow = 0
        self.activation_overflow = 0
        self._methods: dict[tuple[str, str], ProfileRecord] = {}
        self._activations: dict["ActorKey", ProfileRecord] = {}
        # Shared sinks once the caps are hit: attribution stays complete
        # (sums still match the kernel ledger), only the resolution drops.
        self._method_other = ProfileRecord("(other methods)")
        self._activation_other = ProfileRecord("(other activations)")

    # -- producing ------------------------------------------------------------

    def method_record(self, type_name: str, method: str) -> ProfileRecord:
        """The accumulation row for ``(actor class, method)``."""
        key = (type_name, method)
        record = self._methods.get(key)
        if record is None:
            if len(self._methods) >= self.max_methods:
                self.method_overflow += 1
                return self._method_other
            record = ProfileRecord(f"{type_name}.{method}")
            self._methods[key] = record
        return record

    def activation_record(self, key: "ActorKey") -> ProfileRecord:
        """The accumulation row for one activation (capped; see overflow)."""
        record = self._activations.get(key)
        if record is None:
            if len(self._activations) >= self.max_activations:
                self.activation_overflow += 1
                return self._activation_other
            record = ProfileRecord(key.qualified())
            self._activations[key] = record
        return record

    def turn_records(
        self, key: "ActorKey", method: str, queue_wait: float
    ) -> tuple[ProfileRecord, ProfileRecord]:
        """One turn's ``(method, activation)`` rows, with the call and its
        mailbox wait already counted in both."""
        mprof = self.method_record(key.type_name, method)
        aprof = self.activation_record(key)
        mprof.calls += 1
        aprof.calls += 1
        mprof.queue_wait += queue_wait
        aprof.queue_wait += queue_wait
        return mprof, aprof

    # -- consuming ------------------------------------------------------------

    def method_rows(self) -> list[ProfileRecord]:
        """All method rows, hottest (by CPU service) first."""
        rows = list(self._methods.values())
        if self._method_other.calls or self._method_other.cpu_service:
            rows.append(self._method_other)
        rows.sort(key=lambda r: (-r.cpu_service, r.label))
        return rows

    def hot_activations(self, top: int = 10) -> list[ProfileRecord]:
        """The ``top`` activations by CPU service — the hot-actor detector."""
        rows = list(self._activations.values())
        if self._activation_other.calls or self._activation_other.cpu_service:
            rows.append(self._activation_other)
        rows.sort(key=lambda r: (-r.cpu_service, r.label))
        return rows[:top]

    def hot_activation_keys(self, top: int = 10) -> list["ActorKey"]:
        """Keys of the hottest activations (excludes the overflow sink).

        The elastic rebalancer consumes this to decide *which* activations
        to migrate off an overloaded silo — the same ranking
        :meth:`hot_activations` renders for operators, but addressable.
        """
        keys = list(self._activations.items())
        keys.sort(key=lambda item: (-item[1].cpu_service, item[1].label))
        return [key for key, _ in keys[:top]]

    def attributed_cpu(self) -> float:
        """Total CPU service seconds attributed to method rows."""
        total = sum(r.cpu_service for r in self._methods.values())
        return total + self._method_other.cpu_service

    def coverage(self, kernel_busy_seconds: float) -> float:
        """Attributed CPU over the kernel's own busy ledger (1.0 = all).

        ``kernel_busy_seconds`` is the sum of ``silo.cpu.busy_seconds`` over
        the silos still in the cluster; work done on silos that crashed or
        were shut down mid-run stays attributed here but leaves the kernel
        ledger, so coverage can exceed 1.0 after silo churn.
        """
        if kernel_busy_seconds <= 0.0:
            return 1.0 if self.attributed_cpu() == 0.0 else float("inf")
        return self.attributed_cpu() / kernel_busy_seconds

    def clear(self) -> None:
        """Drop every record (e.g. after provisioning/warmup)."""
        self._methods.clear()
        self._activations.clear()
        self._method_other = ProfileRecord("(other methods)")
        self._activation_other = ProfileRecord("(other activations)")
        self.turns = 0
        self.method_overflow = 0
        self.activation_overflow = 0

    def register_metrics(self, registry) -> None:
        """Export profiler state as pull-probes (snapshot-time only)."""
        registry.register_probe("profile.turns", lambda: self.turns)
        registry.register_probe(
            "profile.attributed_cpu_seconds", self.attributed_cpu
        )
        registry.register_probe(
            "profile.method_overflow", lambda: self.method_overflow
        )
        registry.register_probe(
            "profile.activation_overflow", lambda: self.activation_overflow
        )


def mailbox_backlogs(
    silos: Iterable["Silo"], top: int = 5, minimum: int = 1
) -> list[tuple[str, int, str]]:
    """The ``top`` deepest mailboxes: ``(actor, depth, silo)`` triples.

    Pull-style (walks the catalogs only when called), so backlog detection
    costs nothing during normal execution.  Activations with fewer than
    ``minimum`` queued messages are skipped.
    """
    depths = [
        (activation.key.qualified(), len(activation.mailbox), silo.silo_id)
        for silo in silos
        for activation in silo.activations()
        if len(activation.mailbox) >= minimum
    ]
    depths.sort(key=lambda row: (-row[1], row[0]))
    return depths[:top]


@dataclass
class ProfileReport:
    """A complete profiling snapshot, ready to render or assert against."""

    total_cpu_seconds: float
    attributed_cpu_seconds: float
    turns: int
    rows: list[ProfileRecord]
    hot_activations: list[ProfileRecord]
    backlogs: list[tuple[str, int, str]]
    method_overflow: int = 0
    activation_overflow: int = 0

    @property
    def coverage(self) -> float:
        """Fraction of kernel-measured CPU attributed to method rows."""
        if self.total_cpu_seconds <= 0.0:
            return 1.0 if self.attributed_cpu_seconds == 0.0 else float("inf")
        return self.attributed_cpu_seconds / self.total_cpu_seconds


def build_report(
    profiler: Profiler,
    silos: Iterable["Silo"],
    top_activations: int = 10,
    top_backlogs: int = 5,
) -> ProfileReport:
    """Assemble the operator-facing report from profiler + kernel state."""
    silos = list(silos)
    return ProfileReport(
        total_cpu_seconds=sum(silo.cpu.busy_seconds for silo in silos),
        attributed_cpu_seconds=profiler.attributed_cpu(),
        turns=profiler.turns,
        rows=profiler.method_rows(),
        hot_activations=profiler.hot_activations(top_activations),
        backlogs=mailbox_backlogs(silos, top=top_backlogs),
        method_overflow=profiler.method_overflow,
        activation_overflow=profiler.activation_overflow,
    )

"""Causal tracing of actor invocations in virtual time.

Every traced message (ask, tell, retry attempt, timer fire, reminder
delivery) becomes one :class:`Span`.  Spans link to their
parent — the invocation whose handler issued them — so one client request
reconstructs as the complete caller→callee tree, e.g. an organization
live-data request fanning out to every channel actor of the tenant.

Each span carries a breakdown of where its virtual time went:

``queue``
    mailbox wait — from enqueue on the target activation until its turn
    started (for the first message of a fresh activation this includes
    activation start: CPU charge, state load, ``on_activate``);
``cpu``
    time spent acquiring and occupying the hosting silo's CPU (queueing
    for a free core *plus* service — the silo-contention signal);
``network``
    request plus reply transfer time on the simulated network;
``storage``
    grain-storage latency and throttle stalls charged inside the turn
    (state loads/flushes through the activation's state cell);
``other``
    the residual — dominated by awaiting child calls, whose time is
    itemized by the child spans themselves.

The five components sum to the span's end-to-end duration by construction
(``other`` is the remainder), and the measured four are each individually
asserted non-negative in tests, which is what makes the breakdown
trustworthy rather than decorative.

The tracer is **disabled by default** and then allocates nothing:
:meth:`Tracer.begin` and :meth:`Tracer.emit` return at once.  Producers
guard on ``tracer.enabled`` only where that saves work — per-message and
per-turn paths (no call) and f-string span names (no string).
"""

from __future__ import annotations

from typing import Any, Iterable

SPAN_KINDS = (
    "ask", "tell", "timer", "reminder", "retrying-ask", "client",
    "migrate", "wal-journal", "wal-replay", "fenced-write", "quarantine-park",
    "view-fold",
)


class Span:
    """One traced invocation (or logical client operation)."""

    __slots__ = (
        "span_id", "parent_id", "trace_id", "_name", "_method", "kind",
        "caller", "silo_id", "start", "end", "queue", "cpu", "network",
        "storage", "status", "attempt", "error",
    )

    def __init__(
        self,
        span_id: int,
        parent_id: int | None,
        trace_id: int,
        name: "str | tuple",
        kind: str,
        caller: str,
        start: float,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id
        self._name = name
        self._method = None
        self.kind = kind
        self.caller = caller
        self.silo_id = ""
        self.start = start
        self.end: float | None = None
        self.queue = 0.0
        self.cpu = 0.0
        self.network = 0.0
        self.storage = 0.0
        self.status = "open"
        self.attempt = 0
        self.error = ""

    @property
    def name(self) -> str:
        """The span's display name.

        Producers on the hot path hand over the actor key plus a method
        name instead of a formatted string — string building is deferred to
        the first read (reporting time), keeping per-message tracing cost
        down.
        """
        method = self._method
        if method is not None:
            self._name = f"{self._name.qualified()}.{method}"
            self._method = None
        return self._name

    @property
    def duration(self) -> float:
        """End-to-end virtual seconds (0.0 while still open)."""
        return 0.0 if self.end is None else self.end - self.start

    @property
    def other(self) -> float:
        """Residual time: awaiting children / application waits."""
        if self.end is None:
            return 0.0
        return self.duration - self.queue - self.cpu - self.network - self.storage

    def breakdown(self) -> dict[str, float]:
        """The five components; they sum to :attr:`duration`."""
        return {
            "queue": self.queue,
            "cpu": self.cpu,
            "network": self.network,
            "storage": self.storage,
            "other": self.other,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Span #{self.span_id} {self.kind} {self.name} "
            f"status={self.status} dur={self.duration:.6f}>"
        )


class Tracer:
    """Collects spans; disabled tracers are inert attribute checks.

    ``max_spans`` bounds memory: once full, new spans are counted as
    dropped instead of stored (the trace tree of a bounded scenario is the
    use case, not unbounded flight recording).
    """

    def __init__(self, enabled: bool = True, max_spans: int = 200_000) -> None:
        self.enabled = enabled
        self.max_spans = max_spans
        self.dropped = 0
        # With a FlightRecorder attached (repro.obs.recorder), spans route
        # to it instead of accumulating here: completed root traces are
        # scored and either retained or downsampled, so the max_spans
        # cliff never applies.
        self.recorder = None
        self._spans: list[Span] = []
        self._next_id = 0

    # -- producing -------------------------------------------------------------

    def begin(
        self,
        name: "str | Any",
        kind: str,
        caller: str,
        now: float,
        parent: "Span | None" = None,
        start: float | None = None,
        method: str | None = None,
    ) -> Span | None:
        """Open a span; returns None when disabled or over capacity.

        ``name`` is a pre-formatted string — or, with ``method`` given, an
        actor key whose ``Type/id.method`` string form is built lazily on
        first read (see :attr:`Span.name`).
        """
        if not self.enabled:
            return None
        spans = self._spans
        recorder = self.recorder
        if recorder is None and len(spans) >= self.max_spans:
            self.dropped += 1
            return None
        span_id = self._next_id + 1
        self._next_id = span_id
        # Inlined Span construction: this is the per-message hot path, and
        # a plain __init__ call measurably widens the tracing overhead.
        span = Span.__new__(Span)
        span.span_id = span_id
        if parent is not None:
            span.parent_id = parent.span_id
            span.trace_id = parent.trace_id
        else:
            span.parent_id = None
            span.trace_id = span_id
        span._name = name
        span._method = method
        span.kind = kind
        span.caller = caller
        span.silo_id = ""
        span.start = now if start is None else start
        span.end = None
        span.queue = 0.0
        span.cpu = 0.0
        span.network = 0.0
        span.storage = 0.0
        span.status = "open"
        span.attempt = 0
        span.error = ""
        if recorder is None:
            spans.append(span)
        elif parent is not None:
            recorder.on_begin(span)
        return span

    def finish(
        self, span: Span | None, now: float, status: str = "ok", error: str = ""
    ) -> None:
        """Close a span (idempotent — the first finish wins)."""
        if span is None or span.end is not None:
            return
        span.end = now
        span.status = status
        if error:
            span.error = error
        if span.parent_id is None:
            recorder = self.recorder
            if recorder is not None:
                recorder.on_root_finish(span, now)

    def emit(
        self,
        name: "str | Any",
        kind: str,
        caller: str,
        now: float,
        start: float | None = None,
        method: str | None = None,
        status: str = "ok",
        error: str = "",
    ) -> None:
        """A one-shot root span over ``[start or now, now]``: :meth:`begin`
        and :meth:`finish` in one call (a fence bounce, a quarantine park,
        a redo replay that just ran)."""
        if self.enabled:
            span = self.begin(name, kind, caller, now, start=start, method=method)
            self.finish(span, now, status, error)

    # -- consuming -------------------------------------------------------------

    def spans(self, trace_id: int | None = None) -> list[Span]:
        """All recorded spans, optionally restricted to one trace."""
        if trace_id is None:
            return list(self._spans)
        return [s for s in self._spans if s.trace_id == trace_id]

    def roots(self) -> list[Span]:
        """Spans with no parent — one per causal tree."""
        return [s for s in self._spans if s.parent_id is None]

    def find_roots(self, name_substring: str) -> list[Span]:
        """Root spans whose name contains ``name_substring``."""
        return [s for s in self.roots() if name_substring in s.name]

    def clear(self) -> None:
        """Drop all recorded spans (e.g. after a warmup phase)."""
        self._spans.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._spans)


class TraceTree:
    """A reconstructed causal tree for one trace."""

    def __init__(self, root: Span, children: dict[int, list[Span]]) -> None:
        self.root = root
        self._children = children

    @classmethod
    def build(cls, spans: Iterable[Span], root: Span | None = None) -> "TraceTree":
        """Index ``spans`` (one trace's worth) under ``root``.

        When ``root`` is omitted, the unique parentless span is used.
        """
        spans = list(spans)
        children: dict[int, list[Span]] = {}
        for span in spans:
            if span.parent_id is not None:
                children.setdefault(span.parent_id, []).append(span)
        for bucket in children.values():
            bucket.sort(key=lambda s: (s.start, s.span_id))
        if root is None:
            roots = [s for s in spans if s.parent_id is None]
            if len(roots) != 1:
                raise ValueError(
                    f"expected exactly one root span, found {len(roots)}"
                )
            root = roots[0]
        return cls(root, children)

    def children(self, span: Span) -> list[Span]:
        return self._children.get(span.span_id, [])

    def walk(self) -> list[tuple[int, Span]]:
        """Depth-first (depth, span) pairs starting at the root."""
        out: list[tuple[int, Span]] = []

        def visit(span: Span, depth: int) -> None:
            out.append((depth, span))
            for child in self.children(span):
                visit(child, depth + 1)

        visit(self.root, 0)
        return out

    def size(self) -> int:
        """Number of spans in the tree (root included)."""
        return len(self.walk())

    def critical_path(self) -> list[Span]:
        """Root→leaf chain through the latest-finishing child at each level.

        In a fan-out the last child to complete is the one the parent was
        actually waiting for; following it explains the end-to-end latency.
        """
        path = [self.root]
        current = self.root
        while True:
            children = self.children(current)
            if not children:
                return path
            finished = [c for c in children if c.end is not None]
            if not finished:
                return path
            current = max(finished, key=lambda c: (c.end, c.span_id))
            path.append(current)

    def totals(self) -> dict[str, float]:
        """Sum of each breakdown component over the whole tree."""
        totals = {"queue": 0.0, "cpu": 0.0, "network": 0.0, "storage": 0.0,
                  "other": 0.0}
        for _depth, span in self.walk():
            for component, value in span.breakdown().items():
                totals[component] += value
        return totals


def span_summary(span: Span) -> dict[str, Any]:
    """A serializable dict view of one span (for reports and tests)."""
    return {
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "trace_id": span.trace_id,
        "name": span.name,
        "kind": span.kind,
        "caller": span.caller,
        "silo": span.silo_id,
        "start": span.start,
        "end": span.end,
        "duration": span.duration,
        "status": span.status,
        "attempt": span.attempt,
        **span.breakdown(),
    }

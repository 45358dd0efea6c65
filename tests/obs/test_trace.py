"""Unit tests for the causal tracer: spans, trees, invariants."""

import pytest

from repro.obs.trace import TraceTree, Tracer, span_summary
from repro.runtime.key import ActorKey


# -- producing ----------------------------------------------------------------


def test_disabled_tracer_produces_nothing():
    tracer = Tracer(enabled=False)
    assert tracer.begin("x", "ask", "client", 0.0) is None
    assert len(tracer) == 0
    assert tracer.dropped == 0


def test_begin_assigns_ids_and_defaults():
    tracer = Tracer()
    span = tracer.begin("op", "ask", "client", 1.5)
    assert span.span_id == 1
    assert span.parent_id is None
    assert span.trace_id == span.span_id  # roots start their own trace
    assert span.start == 1.5
    assert span.end is None
    assert span.status == "open"
    assert span.duration == 0.0  # open spans have no duration yet


def test_child_inherits_trace_id():
    tracer = Tracer()
    root = tracer.begin("root", "client", "client", 0.0)
    child = tracer.begin("child", "ask", "silo-0", 0.1, parent=root)
    assert child.parent_id == root.span_id
    assert child.trace_id == root.trace_id


def test_explicit_start_overrides_now():
    tracer = Tracer()
    span = tracer.begin("op", "ask", "client", 5.0, start=2.0)
    assert span.start == 2.0


def test_capacity_drops_and_counts():
    tracer = Tracer(max_spans=2)
    assert tracer.begin("a", "ask", "c", 0.0) is not None
    assert tracer.begin("b", "ask", "c", 0.0) is not None
    assert tracer.begin("c", "ask", "c", 0.0) is None
    assert tracer.dropped == 1
    tracer.clear()
    assert len(tracer) == 0
    assert tracer.dropped == 0
    assert tracer.begin("d", "ask", "c", 0.0) is not None


def test_lazy_name_builds_from_key_and_method():
    tracer = Tracer()
    key = ActorKey("Sensor", "org-0/s-1")
    span = tracer.begin(key, "ask", "client", 0.0, method="ingest")
    # Built on first read, cached thereafter.
    assert span.name == "Sensor/org-0/s-1.ingest"
    assert span.name == "Sensor/org-0/s-1.ingest"


def test_plain_string_names_pass_through():
    tracer = Tracer()
    span = tracer.begin("insert-wave", "client", "client", 0.0)
    assert span.name == "insert-wave"


def test_finish_is_idempotent_first_wins():
    tracer = Tracer()
    span = tracer.begin("op", "ask", "c", 0.0)
    tracer.finish(span, 1.0, status="error", error="boom")
    tracer.finish(span, 9.0, status="ok")
    assert span.end == 1.0
    assert span.status == "error"
    assert span.error == "boom"
    tracer.finish(None, 2.0)  # None span is a no-op, not a crash


def test_breakdown_sums_to_duration():
    tracer = Tracer()
    span = tracer.begin("op", "ask", "c", 0.0)
    span.queue += 0.1
    span.cpu += 0.2
    span.network += 0.3
    span.storage += 0.05
    tracer.finish(span, 1.0)
    parts = span.breakdown()
    assert parts["other"] == pytest.approx(1.0 - 0.65)
    assert sum(parts.values()) == pytest.approx(span.duration)


# -- consuming ----------------------------------------------------------------


def make_trace():
    """root -> (a -> (a1, a2), b); two traces in one tracer."""
    tracer = Tracer()
    root = tracer.begin("root", "client", "client", 0.0)
    a = tracer.begin("a", "ask", "client", 0.1, parent=root)
    b = tracer.begin("b", "ask", "client", 0.2, parent=root)
    a1 = tracer.begin("a1", "ask", "silo", 0.3, parent=a)
    a2 = tracer.begin("a2", "tell", "silo", 0.4, parent=a)
    other = tracer.begin("elsewhere", "client", "client", 0.0)
    for span, end in ((a1, 0.5), (a2, 0.9), (a, 0.6), (b, 0.7), (root, 1.0),
                      (other, 0.1)):
        tracer.finish(span, end)
    return tracer, root, a, b, a1, a2, other


def test_spans_filter_by_trace_id():
    tracer, root, *_rest, other = make_trace()
    mine = tracer.spans(root.trace_id)
    assert len(mine) == 5
    assert all(s.trace_id == root.trace_id for s in mine)
    assert len(tracer.spans()) == 6
    assert {s.name for s in tracer.roots()} == {"root", "elsewhere"}
    assert [s.name for s in tracer.find_roots("else")] == ["elsewhere"]


def test_tree_walk_is_depth_first_in_start_order():
    tracer, root, *_ = make_trace()
    tree = TraceTree.build(tracer.spans(root.trace_id), root)
    assert [(d, s.name) for d, s in tree.walk()] == [
        (0, "root"), (1, "a"), (2, "a1"), (2, "a2"), (1, "b"),
    ]
    assert tree.size() == 5


def test_tree_build_requires_unique_root_when_not_given():
    tracer, root, *_rest, other = make_trace()
    tree = TraceTree.build(tracer.spans(root.trace_id))
    assert tree.root is root
    with pytest.raises(ValueError):
        TraceTree.build(tracer.spans())  # two roots: ambiguous


def test_critical_path_follows_latest_finisher():
    tracer, root, a, _b, _a1, a2, _other = make_trace()
    tree = TraceTree.build(tracer.spans(root.trace_id), root)
    # b (end 0.7) outlasts a (0.6) at depth 1; b has no children.
    assert [s.name for s in tree.critical_path()] == ["root", "b"]
    subtree = TraceTree.build(tracer.spans(root.trace_id), a)
    assert [s.name for s in subtree.critical_path()] == ["a", "a2"]


def test_tree_totals_accumulate_components():
    tracer, root, a, *_ = make_trace()
    a.cpu += 0.25
    tree = TraceTree.build(tracer.spans(root.trace_id), root)
    totals = tree.totals()
    assert totals["cpu"] == pytest.approx(0.25)
    durations = sum(s.duration for _d, s in tree.walk())
    assert sum(totals.values()) == pytest.approx(durations)


def test_span_summary_is_serializable_view():
    tracer, root, *_ = make_trace()
    view = span_summary(root)
    assert view["name"] == "root"
    assert view["duration"] == pytest.approx(1.0)
    assert view["queue"] == 0.0
    assert view["status"] == "ok"

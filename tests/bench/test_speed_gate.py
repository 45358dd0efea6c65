"""bench speed gates each series in the unit of work its input fixes.

The kernel-level series (kernel, ask, fig6) are fixed event streams, so
they are gated per event.  The full-stack series (runtime, chaos) are fixed
message streams: a runtime that delivers the same messages in fewer events
is faster, and must not read as lower events/Mop or more bytes per event.
"""

import copy

from repro.bench.speed import gate_speed


def series(events, per_mop_rate, alloc_kb, messages=None):
    """One payload row: ``per_mop_rate`` is 1 / (wall s x calibration Mop/s)."""
    alloc = alloc_kb * 1024
    row = {
        "events": events,
        "events_per_sec": events * per_mop_rate * 6e6,
        "events_per_mop": events * per_mop_rate,
        "pending_events_peak": 100,
        "alloc_peak_kb": alloc_kb,
        "alloc_peak_bytes_per_event": alloc / events,
    }
    if messages is not None:
        row["messages"] = messages
        row["messages_per_mop"] = messages * per_mop_rate
        row["alloc_peak_bytes_per_message"] = alloc / messages
    return row


BASE = {
    "series": {
        "kernel": series(36_000, 2.2e-6, 470.0),
        "runtime": series(41_000, 5.0e-7, 8840.0, messages=4100),
        "chaos": series(30_000, 6.5e-7, 7400.0, messages=2700),
    }
}


def test_full_stack_series_that_sheds_events_passes():
    fresh = copy.deepcopy(BASE)
    # Same messages and the same absolute heap peak in a third fewer events,
    # 8 % sooner: per event this reads -38 % throughput and +50 % heap.
    for name in ("runtime", "chaos"):
        row = BASE["series"][name]
        fresh["series"][name] = series(
            row["events"] * 2 // 3,
            row["events_per_mop"] / row["events"] / 0.92,
            row["alloc_peak_kb"],
            messages=row["messages"],
        )
    assert gate_speed(fresh, BASE) == []


def test_full_stack_series_is_gated_per_message():
    fresh = copy.deepcopy(BASE)
    row = BASE["series"]["runtime"]
    rate = row["events_per_mop"] / row["events"]
    # Same events, but 40 % slower and 30 % more heap for the same messages.
    fresh["series"]["runtime"] = series(
        row["events"], rate * 0.6, row["alloc_peak_kb"] * 1.3, messages=4100
    )
    failures = gate_speed(fresh, BASE)
    assert len(failures) == 2, failures
    assert "messages/Mop" in failures[0]
    assert "B/message" in failures[1]


def test_kernel_series_stays_gated_per_event():
    fresh = copy.deepcopy(BASE)
    row = BASE["series"]["kernel"]
    rate = row["events_per_mop"] / row["events"]
    fresh["series"]["kernel"] = series(row["events"], rate * 0.85, 470.0)
    (failure,) = gate_speed(fresh, BASE)
    assert failure.startswith("speed/kernel:") and "events/Mop" in failure

"""Property-based tests of ``Scheduler.gather`` (hypothesis).

A drawn scenario mixes ``Future``, ``Task`` and coroutine inputs, settled in
shuffled order by a result, a rejection or a cancellation, plus duplicated
inputs, inputs settled before the call and the empty list.  Each scenario
runs twice on fresh schedulers: through ``Scheduler.gather`` and through
``coroutine_gather``, the coroutine gather was before it became a plain
function.  The results, the lowest-index error and "every input settled"
are checked against the scenario itself; the awaiting task must resume
after the same number of events, at the same instant and sequence number,
as with the coroutine (same event at the same ``(when, seq)``).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CancelledError
from repro.kernel import Scheduler, Task
from repro.kernel.futures import _CANCELLED, _RESOLVED, Future

KINDS = ("future", "task", "coroutine", "settled", "duplicate")
OUTCOMES = ("result", "error", "cancel")

scenarios = st.lists(
    st.tuples(
        st.sampled_from(KINDS),
        st.sampled_from(OUTCOMES),
        st.integers(min_value=0, max_value=3),  # settle instant, x 10 ms
        st.integers(min_value=0, max_value=9),  # arming rank among ties
    ),
    max_size=7,
)


async def coroutine_gather(sched, awaitables):
    """``Scheduler.gather`` as the coroutine it used to be: the reference
    for the event the awaiting task resumes in."""
    futures = []
    for item in awaitables:
        if isinstance(item, Task):
            futures.append(item.future)
        elif isinstance(item, Future):
            futures.append(item)
        else:
            futures.append(sched.spawn(item).future)
    if not futures:
        return []
    all_settled = Future("gather")
    remaining = len(futures)

    def on_settled(_):
        nonlocal remaining
        remaining -= 1
        if remaining == 0:
            all_settled.set_result(None)

    for future in futures:
        future.add_done_callback(on_settled)
    await all_settled
    results = []
    first_error = None
    for future in futures:
        state = future._state
        if state is _RESOLVED:
            results.append(future._value)
            continue
        results.append(None)
        if first_error is None:
            if state is _CANCELLED:
                first_error = CancelledError(future.name or "future cancelled")
            else:
                first_error = future._exception
    if first_error is not None:
        raise first_error
    return results


def settle(action):
    control, outcome, value = action
    if outcome == "result":
        control.set_result(value)
    elif outcome == "error":
        control.set_exception(value)
    else:
        control.cancel()


async def body(control):
    return await control


def run(spec, gather):
    """Build and run one scenario; what the awaiting task saw on resuming.

    ``origin[i]`` is the index of the input that input ``i`` duplicates
    (itself when it is no duplicate)."""
    sched = Scheduler()
    errors = [ValueError(f"input {index}") for index in range(len(spec))]
    seen = {"errors": errors}

    async def main():
        items, origin, settles = [], [], []
        for index, (kind, outcome, slot, rank) in enumerate(spec):
            earlier = [i for i, item in enumerate(items) if origin[i] == i]
            earlier = [i for i in earlier if spec[i][0] != "coroutine"]
            if kind == "duplicate" and earlier:
                origin.append(origin[earlier[slot % len(earlier)]])
                items.append(items[origin[-1]])
                continue
            origin.append(index)
            value = index if outcome == "result" else errors[index]
            control = Future(f"control-{index}")
            if kind == "settled":
                settle((control, outcome, value))
                items.append(control)
                continue
            item = control if kind in ("future", "duplicate") else body(control)
            if kind == "task":
                item = sched.spawn(item, name=f"task-{index}")
            items.append(item)
            if kind == "task" and outcome == "cancel":
                action, arg = Task.cancel, item
            else:
                action, arg = settle, (control, outcome, value)
            settles.append((slot, rank, index, action, arg))
        for slot, _rank, _index, action, arg in sorted(
            settles, key=lambda entry: entry[:3]
        ):
            sched.call_at(sched.now + 0.01 * slot, action, arg)
        inputs = [
            item.future if isinstance(item, Task) else item
            for item in items
            if isinstance(item, (Task, Future))
        ]
        try:
            seen["returned"] = await gather(sched, items)
        except BaseException as exc:  # noqa: BLE001 - recording
            seen["raised"] = exc
        seen["all_settled"] = all(future.done() for future in inputs)
        seen["at"] = (sched.now, sched._sequence)
        seen["origin"] = origin

    sched.run_until_complete(main())
    seen["events"] = sched.events_processed
    return seen


def expected(spec, origin):
    """``("returned", values)``, or ``("raised", i)`` for the error of input
    ``i`` (the original of the lowest-index input that failed)."""
    for source in origin:
        if spec[source][1] != "result":
            return "raised", source
    return "returned", list(origin)


def scheduler_gather(sched, items):
    return sched.gather(items)


def check(spec, seen):
    kind, detail = expected(spec, seen["origin"])
    assert seen["all_settled"], "resumed before every input settled"
    if kind == "returned":
        assert seen["returned"] == detail
    elif spec[detail][1] == "error":
        assert seen["raised"] is seen["errors"][detail]
    else:
        assert type(seen["raised"]) is CancelledError


@given(spec=scenarios)
@settings(max_examples=200, deadline=None)
def test_gather_keeps_its_semantics_and_its_resume_event(spec):
    seen = run(spec, scheduler_gather)
    check(spec, seen)
    reference = run(spec, coroutine_gather)
    check(spec, reference)
    assert (seen["events"], seen["at"]) == (reference["events"], reference["at"])
    if "raised" in seen:
        assert str(seen["raised"]) == str(reference["raised"])


#: Scenarios with the event count, instant and sequence number at which the
#: awaiting task resumed, recorded with the coroutine ``Scheduler.gather``.
RECORDED = [
    ([], (1, (0.0, 1))),
    ([("settled", "result", 0, 0), ("settled", "error", 0, 0)], (1, (0.0, 1))),
    (
        [
            ("future", "result", 1, 0),
            ("coroutine", "result", 2, 0),
            ("task", "error", 0, 0),
            ("settled", "result", 0, 0),
            ("duplicate", "result", 0, 0),
        ],
        (9, (0.02, 9)),
    ),
    (
        [
            ("task", "cancel", 1, 3),
            ("coroutine", "cancel", 1, 1),
            ("future", "error", 2, 0),
            ("duplicate", "result", 1, 0),
        ],
        (9, (0.02, 9)),
    ),
]


def test_recorded_resume_events():
    for spec, recorded in RECORDED:
        seen = run(spec, scheduler_gather)
        check(spec, seen)
        assert (seen["events"], seen["at"]) == recorded

"""Property-based tests of kernel invariants (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel import CpuResource, Scheduler, TokenBucket

costs_strategy = st.lists(
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=40,
)


@given(costs=costs_strategy, cores=st.integers(min_value=1, max_value=8))
@settings(max_examples=25, deadline=None)
def test_cpu_work_conservation(costs, cores):
    """Total busy time equals the sum of submitted work; the makespan is
    bounded below by both the critical path and perfect speedup."""
    sched = Scheduler()
    cpu = CpuResource(sched, cores=cores)
    finish_times = []

    async def job(cost):
        await cpu.consume(cost)
        finish_times.append(sched.now)

    async def main():
        await sched.gather([sched.spawn(job(cost)) for cost in costs])

    sched.run_until_complete(main())
    total = sum(costs)
    assert cpu.busy_seconds == sum(costs) * 1.0 / cpu.speed
    makespan = max(finish_times)
    assert makespan >= max(costs) - 1e-9
    assert makespan >= total / cores - 1e-9
    # FCFS with simultaneous arrival can never do worse than serial.
    assert makespan <= total + 1e-9


@given(costs=costs_strategy)
@settings(max_examples=20, deadline=None)
def test_single_core_serializes_in_submission_order(costs):
    sched = Scheduler()
    cpu = CpuResource(sched, cores=1)
    completion_order = []

    async def job(index, cost):
        await cpu.consume(cost)
        completion_order.append(index)

    async def main():
        await sched.gather(
            [sched.spawn(job(i, cost)) for i, cost in enumerate(costs)]
        )

    sched.run_until_complete(main())
    positive = [i for i in completion_order]
    assert positive == sorted(positive)


@given(
    rate=st.floats(min_value=0.5, max_value=100.0),
    burst=st.floats(min_value=1.0, max_value=50.0),
    amounts=st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1, max_size=20),
)
@settings(max_examples=25, deadline=None)
def test_token_bucket_never_overdraws(rate, burst, amounts):
    """Tokens consumed over any horizon never exceed burst + rate * time."""
    sched = Scheduler()
    bucket = TokenBucket(sched, rate=rate, burst=burst)
    consumed = 0.0

    async def main():
        nonlocal consumed
        for amount in amounts:
            if amount <= burst:
                await bucket.consume(amount)
                consumed += amount

    sched.run_until_complete(main())
    assert consumed <= burst + rate * sched.now + 1e-6
    assert bucket.tokens >= -1e-9


@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=25, deadline=None)
def test_sleeps_complete_in_timestamp_order(delays):
    sched = Scheduler()
    completions = []

    async def sleeper(delay):
        await sched.sleep(delay)
        completions.append((sched.now, delay))

    async def main():
        await sched.gather([sched.spawn(sleeper(d)) for d in delays])

    sched.run_until_complete(main())
    times = [t for t, _ in completions]
    assert times == sorted(times)
    for completed_at, delay in completions:
        assert completed_at == delay
    assert sched.now == max(delays)


# Delays across 0, sub-ms, ms, seconds and minutes; sampling from a small
# pool makes exact ties common.
timer_delays = st.sampled_from(
    [0.0, 0.0002, 0.0007, 0.003, 0.004, 0.05, 1.5, 1.5, 42.0, 90.0, 600.0]
)
timer_specs = st.lists(
    st.tuples(
        timer_delays,
        st.sampled_from(["fire", "early", "victim", "killer", "spawner"]),
        timer_delays,  # a spawner's child fires this long after its parent
        st.sampled_from(["fire", "victim"]),  # ... and has this role
    ),
    max_size=60,
)


@given(specs=timer_specs)
@settings(max_examples=30, deadline=None)
def test_timers_fire_in_key_order_under_cancel_churn(specs):
    """Arm / cancel-before-run / cancel-in-callback / arm-in-callback: every
    timer that was not cancelled fires exactly once, in ``(when, arming
    order)``, and no cancelled callback runs.

    A fixed backbone (one early killer, 140 later victims) rides under the
    drawn schedule so the killer's cancels always cross the compaction
    threshold while the dispatch loop is running.
    """
    sched = Scheduler()
    armed = {}  # id -> (when, handle), in arming order
    roles = {}  # id -> (role, child_delay, child_role)
    victims = set()  # ids a killer cancels if it fires while they are armed
    cancelled = set()
    fired = []
    compactions = []  # one entry per compaction: was the loop running?
    running = False
    compact = sched._compact

    def counting_compact():
        compactions.append(running)
        compact()

    sched._compact = counting_compact

    def arm(delay, role, child_delay, child_role):
        ident = len(armed)
        when = sched.now + delay
        armed[ident] = (when, sched.call_at(when, on_fire, ident))
        roles[ident] = (role, child_delay, child_role)
        if role == "victim":
            victims.add(ident)
        return ident

    def on_fire(ident):
        assert sched._tombstones >= 0
        assert ident not in cancelled and ident not in fired
        assert sched.now == armed[ident][0]
        fired.append(ident)
        victims.discard(ident)
        role, child_delay, child_role = roles[ident]
        if role == "killer":
            for victim in sorted(victims):
                assert armed[victim][1].cancel()
                cancelled.add(victim)
            victims.clear()
        elif role == "spawner":
            arm(child_delay, child_role, 0.0, "fire")

    backbone = [(0.0005, "killer", 0.0, "fire")] + [
        (delay, "victim", 0.0, "fire")
        for delay in (0.0007, 0.003, 0.05, 1.5, 90.0, 600.0, 600.0)
        for _ in range(20)
    ]
    for spec in backbone + specs:
        ident = arm(*spec)
        if spec[1] == "early":
            assert armed[ident][1].cancel()
            cancelled.add(ident)
    running = True
    sched.drain()

    assert any(compactions), "no compaction happened inside the run"
    survivors = [ident for ident in armed if ident not in cancelled]
    assert fired == sorted(survivors, key=lambda ident: (armed[ident][0], ident))
    assert not any(handle.cancel() for _, handle in armed.values())
    assert sched.pending_events == 0
    assert sched._tombstones == 0

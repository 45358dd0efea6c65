"""Batched delivery must not change per-message semantics.

The fast path coalesces same-path deliveries into envelopes; these tests
pin the regression surface the ISSUE calls out: per-sender FIFO, deadlines
and retries applying per message (not per envelope), and the cohort cost
amortization arithmetic.
"""

import pytest

from repro.errors import DeadlineExceededError
from repro.kernel import Scheduler
from repro.net import ConstantLatency, Network
from repro.runtime import Actor, AodbRuntime, RuntimeConfig
from repro.runtime.resilience import RetryPolicy

LAN = 0.001
WINDOW = 0.05


def build_runtime(
    sched,
    *,
    overhead: float = 0.0,
    batching: bool = True,
    method_cost: float = 0.0,
):
    config = RuntimeConfig(
        default_method_cost=method_cost,
        activation_cost=0.0,
        batch_max_delay=WINDOW if batching else None,
        dispatch_overhead_cost=overhead,
    )
    runtime = AodbRuntime(
        sched, config=config, network=Network(sched, lan=ConstantLatency(LAN))
    )
    runtime.add_silo("silo-0", cores=2)
    return runtime


class Recorder(Actor):
    async def on_activate(self):
        self.seen = []

    async def note(self, value):
        self.seen.append(value)

    async def log(self):
        return list(self.seen)


class Flaky(Actor):
    async def on_activate(self):
        self.attempts = {}

    async def work(self, tag, fail_first):
        count = self.attempts.get(tag, 0) + 1
        self.attempts[tag] = count
        if fail_first and count == 1:
            raise DeadlineExceededError(f"induced first-attempt failure: {tag}")
        return tag, count


def test_batched_tells_preserve_per_sender_fifo():
    sched = Scheduler()
    runtime = build_runtime(sched)
    runtime.register_actor(Recorder)

    async def main():
        ref = runtime.ref("Recorder", "r")
        # Bursts land in shared envelopes; gaps between bursts force
        # separate envelopes on the same path.
        sequence = list(range(12))
        for start in range(0, 12, 4):
            for value in sequence[start : start + 4]:
                ref.tell("note", value)
            await sched.sleep(WINDOW / 2)
        await sched.sleep(1.0)
        return await ref.log()

    assert sched.run_until_complete(main()) == list(range(12))


def test_deadline_applies_per_message_during_batch_delay():
    """A deadline shorter than the envelope window fails exactly on time."""
    sched = Scheduler()
    runtime = build_runtime(sched)
    runtime.register_actor(Recorder)

    async def main():
        ref = runtime.ref("Recorder", "r")
        doomed = ref.ask("note", "doomed", deadline=WINDOW / 5)
        healthy = ref.ask("note", "healthy")
        with pytest.raises(DeadlineExceededError):
            await doomed
        failed_at = sched.now
        await healthy
        await sched.sleep(1.0)
        return failed_at, await ref.log()

    failed_at, log = sched.run_until_complete(main())
    # The failure fired at the deadline, not at envelope departure.
    assert failed_at == pytest.approx(WINDOW / 5)
    # The expired invocation was skipped on arrival; its envelope-mate ran.
    assert log == ["healthy"]
    assert runtime.stats.deadlines_exceeded == 1


def test_retry_applies_per_message_not_per_envelope():
    sched = Scheduler()
    runtime = build_runtime(sched)
    runtime.register_actor(Flaky)
    policy = RetryPolicy(max_attempts=3, base_delay=0.01, jitter=0.0)

    async def main():
        ref = runtime.ref("Flaky", "f")
        # Same envelope: one member fails its first attempt, one succeeds.
        failing = ref.ask("work", "a", True, retry=policy)
        passing = ref.ask("work", "b", False, retry=policy)
        return await failing, await passing

    (tag_a, attempts_a), (tag_b, attempts_b) = sched.run_until_complete(main())
    # Only the failing member was re-sent; its envelope-mate ran once.
    assert (tag_a, attempts_a) == ("a", 2)
    assert (tag_b, attempts_b) == ("b", 1)


def test_cohort_shares_dispatch_overhead():
    """K envelope-mates each charge (cost - overhead) + overhead / K."""
    cost, overhead, cohort = 0.001, 0.0004, 4

    def run(with_overhead):
        sched = Scheduler()
        runtime = build_runtime(
            sched,
            overhead=overhead if with_overhead else 0.0,
            method_cost=cost,
        )
        runtime.register_actor(Recorder)

        async def main():
            ref = runtime.ref("Recorder", "r")
            tickets = [ref.ask("note", i) for i in range(cohort)]
            for ticket in tickets:
                await ticket
            await sched.sleep(1.0)

        sched.run_until_complete(main())
        return runtime.silo("silo-0").cpu.busy_seconds

    amortized = run(True)
    flat = run(False)
    assert flat == pytest.approx(cohort * cost)
    assert amortized == pytest.approx(
        cohort * ((cost - overhead) + overhead / cohort)
    )
    assert amortized < flat


def test_unbatched_runtime_charges_full_cost_per_message():
    """With batching off the overhead knob must not change charges."""
    cost = 0.001
    sched = Scheduler()
    runtime = build_runtime(
        sched, overhead=0.0004, batching=False, method_cost=cost
    )
    runtime.register_actor(Recorder)

    async def main():
        ref = runtime.ref("Recorder", "r")
        tickets = [ref.ask("note", i) for i in range(4)]
        for ticket in tickets:
            await ticket

    sched.run_until_complete(main())
    # cohort is 1 for every message, so the amortization is a no-op.
    assert runtime.silo("silo-0").cpu.busy_seconds == pytest.approx(4 * cost)

"""Fault-tolerance layer: deadlines, retries, failure detection."""

import random

import pytest

from repro.errors import (
    DeadlineExceededError,
    SiloUnavailableError,
    ThrottledError,
)
from repro.kernel import Scheduler
from repro.net import ConstantLatency, Network, NetworkFaultInjector
from repro.runtime import (
    Actor,
    AodbRuntime,
    NO_RETRY,
    RetryPolicy,
    RuntimeConfig,
    WritePolicy,
)
from repro.storage import SystemStore

FAST = RetryPolicy(max_attempts=5, base_delay=0.05, jitter=0.0)


def build_runtime(sched, silos=1, lease=None, **config_kwargs):
    config = RuntimeConfig(
        default_method_cost=0.0, activation_cost=0.0, **config_kwargs
    )
    store = (
        SystemStore(sched, lease_seconds=lease) if lease is not None else None
    )
    runtime = AodbRuntime(
        sched,
        config=config,
        network=Network(sched, lan=ConstantLatency(0.001)),
        system_store=store,
    )
    for i in range(silos):
        runtime.add_silo(f"silo-{i}", cores=2)
    return runtime


class Slow(Actor):
    executed = 0

    async def work(self, seconds):
        await self.context.runtime.scheduler.sleep(seconds)
        type(self).executed += 1
        return "done"


class Flaky(Actor):
    failures = 0

    async def work(self):
        cls = type(self)
        if cls.failures > 0:
            cls.failures -= 1
            raise ThrottledError("simulated overload", retry_after=0.01)
        return "recovered"


# ---------------------------------------------------------------------------
# RetryPolicy (pure policy logic)
# ---------------------------------------------------------------------------


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0).validate()
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.5).validate()
    with pytest.raises(ValueError):
        RetryPolicy(attempt_timeout=0.0).validate()
    RetryPolicy().validate()


def test_retry_policy_should_retry():
    policy = RetryPolicy(max_attempts=3)
    assert policy.should_retry(SiloUnavailableError("x"), 1)
    assert policy.should_retry(ThrottledError("x"), 2)
    assert not policy.should_retry(SiloUnavailableError("x"), 3)  # exhausted
    assert not policy.should_retry(RuntimeError("x"), 1)  # not transient


def test_retry_policy_backoff_and_retry_after():
    policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=0.3, jitter=0.0)
    rng = random.Random(0)
    assert policy.delay_for(1, rng) == pytest.approx(0.1)
    assert policy.delay_for(2, rng) == pytest.approx(0.2)
    assert policy.delay_for(5, rng) == pytest.approx(0.3)  # capped
    hint = ThrottledError("wait", retry_after=0.9)
    assert policy.delay_for(1, rng, hint) == pytest.approx(0.9)  # floor wins


# ---------------------------------------------------------------------------
# Call deadlines
# ---------------------------------------------------------------------------


def test_deadline_fails_slow_call():
    sched = Scheduler()
    runtime = build_runtime(sched)
    runtime.register_actor(Slow)

    async def main():
        with pytest.raises(DeadlineExceededError):
            await runtime.ref("Slow", "a").work(1.0, deadline=0.1)

    sched.run_until_complete(main())
    assert runtime.stats.deadlines_exceeded == 1
    assert sched.now == pytest.approx(0.1)  # failed at the deadline, not at 1s


def test_deadline_skips_expired_queued_invocation():
    sched = Scheduler()
    runtime = build_runtime(sched)
    runtime.register_actor(Slow)
    Slow.executed = 0

    async def main():
        ref = runtime.ref("Slow", "q")
        first = ref.work(1.0)  # occupies the single-threaded actor
        await sched.sleep(0.01)
        with pytest.raises(DeadlineExceededError):
            await ref.work(1.0, deadline=0.5)  # still queued at t=0.5
        await first

    sched.run_until_complete(main())
    # The expired invocation never executed: only the first call ran.
    assert Slow.executed == 1


def test_config_default_deadline_applies():
    sched = Scheduler()
    runtime = build_runtime(sched, default_call_deadline=0.2)
    runtime.register_actor(Slow)

    async def main():
        with pytest.raises(DeadlineExceededError):
            await runtime.ref("Slow", "d").work(5.0)

    sched.run_until_complete(main())
    assert sched.now == pytest.approx(0.2)


# ---------------------------------------------------------------------------
# Retries
# ---------------------------------------------------------------------------


def test_retry_recovers_from_transient_errors():
    sched = Scheduler()
    runtime = build_runtime(sched)
    runtime.register_actor(Flaky)
    Flaky.failures = 2

    async def main():
        return await runtime.ref("Flaky", "f").work(retry=FAST)

    assert sched.run_until_complete(main()) == "recovered"
    assert runtime.stats.calls_retried == 2


def test_retry_gives_up_after_max_attempts():
    sched = Scheduler()
    runtime = build_runtime(sched)
    runtime.register_actor(Flaky)
    Flaky.failures = 99

    async def main():
        with pytest.raises(ThrottledError):
            await runtime.ref("Flaky", "g").work(
                retry=RetryPolicy(max_attempts=3, base_delay=0.01, jitter=0.0)
            )

    sched.run_until_complete(main())
    assert runtime.stats.calls_retried == 2  # 3 attempts = 2 retries


def test_non_retryable_errors_surface_immediately():
    sched = Scheduler()
    runtime = build_runtime(sched)

    class Broken(Actor):
        calls = 0

        async def work(self):
            type(self).calls += 1
            raise RuntimeError("logic bug")

    runtime.register_actor(Broken)

    async def main():
        with pytest.raises(RuntimeError):
            await runtime.ref("Broken", "b").work(retry=FAST)

    sched.run_until_complete(main())
    assert Broken.calls == 1
    assert runtime.stats.calls_retried == 0


def test_no_retry_policy_is_single_attempt():
    sched = Scheduler()
    runtime = build_runtime(sched)
    runtime.register_actor(Flaky)
    Flaky.failures = 1

    async def main():
        with pytest.raises(ThrottledError):
            await runtime.ref("Flaky", "n").work(retry=NO_RETRY)

    sched.run_until_complete(main())
    assert runtime.stats.calls_retried == 0


def test_with_options_makes_method_stubs_resilient():
    sched = Scheduler()
    runtime = build_runtime(sched)
    runtime.register_actor(Flaky)
    Flaky.failures = 1

    async def main():
        ref = runtime.ref("Flaky", "w").with_options(retry=FAST)
        return await ref.work()  # plain stub call, policy applied underneath

    assert sched.run_until_complete(main()) == "recovered"
    assert runtime.stats.calls_retried == 1


def test_config_default_retry_policy_applies():
    sched = Scheduler()
    runtime = build_runtime(sched, default_retry_policy=FAST)
    runtime.register_actor(Flaky)
    Flaky.failures = 1

    async def main():
        return await runtime.ref("Flaky", "c").work()

    assert sched.run_until_complete(main()) == "recovered"
    assert runtime.stats.calls_retried == 1


def test_attempt_timeout_turns_lost_messages_into_retries():
    sched = Scheduler()
    runtime = build_runtime(sched)
    runtime.register_actor(Slow)
    # Drop every message in the first 50 ms, then heal.
    runtime.network.inject_faults(
        NetworkFaultInjector(random.Random(1), loss_rate=1.0, start=0.0, end=0.05)
    )

    async def main():
        return await runtime.ref("Slow", "lost").work(
            0.0,
            retry=RetryPolicy(
                max_attempts=4, base_delay=0.05, jitter=0.0, attempt_timeout=0.1
            ),
        )

    assert sched.run_until_complete(main()) == "done"
    assert runtime.stats.deadlines_exceeded >= 1  # the lost attempt
    assert runtime.stats.calls_retried >= 1
    assert runtime.network.stats.lost_messages >= 1


# ---------------------------------------------------------------------------
# Failure detection and eviction
# ---------------------------------------------------------------------------


class Durable(Actor):
    durable = True
    write_policy = WritePolicy.WRITE_THROUGH
    placement = "pinned"

    async def put(self, value):
        self.state["v"] = value
        self.mark_dirty()
        return value

    async def get(self):
        return self.state.get("v")


def crash_setup(sched, lease=2.0, **config_kwargs):
    runtime = build_runtime(sched, silos=2, lease=lease, **config_kwargs)
    runtime.register_actor(Durable)
    runtime.pinned_placement.pin_prefix("Durable/", "silo-1")
    return runtime


def test_silent_crash_fails_fast_until_lease_lapses():
    sched = Scheduler()
    runtime = crash_setup(sched)

    async def main():
        ref = runtime.ref("Durable", "a")
        await ref.put(41)
        runtime.crash_silo("silo-1", detected=False)
        # Membership still vouches for the zombie: calls fail fast.
        with pytest.raises(SiloUnavailableError):
            await ref.get()
        assert runtime.system_store.status_of("silo-1") == "active"
        # Once the lease lapses, on-demand repair re-places the actor on
        # the surviving silo and recovers its write-through state.
        await sched.at(2.5)
        assert runtime.system_store.status_of("silo-1") == "suspected"
        return await ref.get()

    assert sched.run_until_complete(main()) == 41
    assert runtime.stats.activations_crashed == 1
    assert runtime.directory.lookup(runtime.ref("Durable", "a").key) == "silo-0"


def test_failure_detector_evicts_and_replaces():
    sched = Scheduler()
    runtime = crash_setup(
        sched,
        lease=2.0,
        failure_detection_interval=0.5,
        suspicion_grace=0.5,
    )
    runtime.start()

    async def main():
        ref = runtime.ref("Durable", "b")
        await ref.put("survives")
        runtime.crash_silo("silo-1", detected=False)
        # lease (2s) + grace (0.5s) + a detection period of slack
        await sched.at(sched.now + 4.0)
        return await ref.get()

    assert sched.run_until_complete(main()) == "survives"
    assert runtime.stats.silos_suspected >= 1
    assert runtime.stats.silos_evicted == 1
    assert runtime.stats.activations_replaced >= 1
    assert runtime.system_store.status_of("silo-1") == "dead"
    assert "silo-1" not in [s.silo_id for s in runtime.silos()]


def test_retried_call_rides_through_a_crash():
    """Satellite: a resilient ask spans crash -> detection -> re-activation."""
    sched = Scheduler()
    runtime = crash_setup(
        sched,
        lease=1.0,
        failure_detection_interval=0.25,
        suspicion_grace=0.25,
    )
    runtime.start()

    async def main():
        ref = runtime.ref("Durable", "c")
        await ref.put(7)
        runtime.crash_silo("silo-1", detected=False)
        # The very next call succeeds despite the outage window: retries
        # absorb the SiloUnavailableError until repair, then the re-placed
        # activation loads the persisted state.
        return await ref.get(
            retry=RetryPolicy(max_attempts=10, base_delay=0.2, jitter=0.0)
        )

    assert sched.run_until_complete(main()) == 7
    assert runtime.stats.calls_retried >= 1
    assert runtime.stats.activations_crashed == 1
    assert runtime.directory.lookup(runtime.ref("Durable", "c").key) == "silo-0"


def test_reminders_refire_after_crash_recovery():
    sched = Scheduler()

    class Pinger(Actor):
        durable = True
        write_policy = WritePolicy.WRITE_THROUGH
        placement = "pinned"
        fired = 0

        async def arm(self):
            self.context.register_reminder("tick", 1.0)

        async def receive_reminder(self, name):
            type(self).fired += 1

    runtime = build_runtime(
        sched,
        silos=2,
        lease=1.0,
        failure_detection_interval=0.25,
        suspicion_grace=0.25,
        reminder_tick=0.5,
    )
    runtime.register_actor(Pinger)
    runtime.pinned_placement.pin_prefix("Pinger/", "silo-1")
    runtime.start()
    Pinger.fired = 0

    async def main():
        await runtime.ref("Pinger", "p").arm()
        await sched.at(2.2)
        fired_before = Pinger.fired
        assert fired_before >= 1
        runtime.crash_silo("silo-1", detected=False)
        await sched.at(7.0)  # eviction + several reminder periods
        return fired_before

    fired_before = sched.run_until_complete(main())
    # Reminders live in the system store, so they survived the crash and
    # keep firing against the re-placed activation on the surviving silo.
    assert Pinger.fired > fired_before
    assert runtime.stats.silos_evicted == 1


def test_detected_crash_keeps_existing_semantics():
    sched = Scheduler()
    runtime = crash_setup(sched)

    async def main():
        ref = runtime.ref("Durable", "d")
        await ref.put(3)
        lost = runtime.crash_silo("silo-1")  # detected: immediate cleanup
        assert lost == 1
        return await ref.get()  # re-places without any retry needed

    assert sched.run_until_complete(main()) == 3
    assert runtime.stats.activations_crashed == 1


# ---------------------------------------------------------------------------
# Activation.abort
# ---------------------------------------------------------------------------


def test_abort_fails_queued_calls_with_the_fault():
    sched = Scheduler()
    runtime = build_runtime(sched)
    runtime.register_actor(Slow)

    async def main():
        ref = runtime.ref("Slow", "abort-me")
        inflight = ref.work(10.0)
        await sched.sleep(0.01)
        queued = ref.work(10.0)
        await sched.sleep(0.01)
        activation = runtime.silo("silo-0").get_activation(ref.key)
        fault = SiloUnavailableError("yanked")
        activation.abort(fault)
        assert activation.closed.is_set()
        assert activation.broken is fault
        # Queued requests and the in-flight one (torn down mid-execution)
        # all fail with the fault itself.
        with pytest.raises(SiloUnavailableError, match="yanked"):
            await queued
        with pytest.raises(SiloUnavailableError, match="yanked"):
            await inflight

    sched.run_until_complete(main())


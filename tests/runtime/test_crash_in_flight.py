"""A crash fails the request its silo is executing, with the crash fault.

``crash_silo`` promises that queued *and in-flight* requests fail with
``SiloUnavailableError``.  The in-flight one is failed by the abort itself,
at the crash instant, and its abandoned turn sends nothing afterwards: no
reply, no flush.  Before, a crash during the CPU charge left the caller
waiting for its own timeout, and a silent crash during an await handed the
caller the kernel's internal CancelledError.
"""

import pytest

from repro.errors import SiloUnavailableError
from repro.kernel import Scheduler
from repro.net import ConstantLatency, Network
from repro.runtime import Actor, AodbRuntime, RuntimeConfig, WritePolicy, actor_method


class Slow(Actor):
    durable = True
    write_policy = WritePolicy.WRITE_THROUGH

    @actor_method(cost=0.5)
    async def crunch(self):
        self.state["crunched"] = True
        return "crunched"

    @actor_method(cost=0.0)
    async def s(self):
        await self.context.runtime.scheduler.sleep(0.5)
        self.state["slept"] = True
        return "slept"


def crash_mid_turn(method, detected):
    sched = Scheduler()
    runtime = AodbRuntime(
        sched,
        config=RuntimeConfig(default_method_cost=0.0, activation_cost=0.0),
        network=Network(sched, lan=ConstantLatency(0.001)),
    )
    runtime.add_silo("silo-0", cores=1)
    runtime.register_actor(Slow)

    async def main():
        call = sched.timeout(runtime.ref("Slow", "x").ask(method), 1.0)
        await sched.sleep(0.1)  # the request is mid-turn now
        runtime.crash_silo("silo-0", detected=detected)
        crashed_at = sched.now
        with pytest.raises(SiloUnavailableError, match="crashed"):
            await call
        failed_after = sched.now - crashed_at
        await sched.sleep(2.0)  # long past the turn's CPU charge and sleep
        return failed_after

    failed_after = sched.run_until_complete(main())
    return failed_after, runtime


@pytest.mark.parametrize("detected", [True, False])
@pytest.mark.parametrize("method", ["crunch", "s"])
def test_crash_fails_the_in_flight_request_with_the_crash_fault(method, detected):
    failed_after, runtime = crash_mid_turn(method, detected)
    # Failed by the crash itself, not by the caller's 1 s timeout.
    assert failed_after == 0.0
    # The abandoned turn sent nothing: no reply, nothing dropped on the way,
    # and no write-through flush of what it did after the crash.
    assert runtime.stats.replies == 0
    assert runtime.stats.dropped_replies == 0
    assert runtime.grain_storage.writes == 0

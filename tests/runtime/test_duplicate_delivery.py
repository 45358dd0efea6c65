"""Duplicate delivery must hand both executions an intact envelope.

Under a :class:`NetworkFaultInjector` with duplication forced, the same
:class:`Invocation` object is enqueued twice.  Every message is a freshly
allocated envelope that nothing scrubs or reuses, so the second execution
sees exactly what the first saw.  This fails if envelope recycling ever
comes back without a guard: the first execution's one-way tail would reset
the envelope the duplicate is still waiting to run.
"""

import random

from repro.net.faults import NetworkFaultInjector
from repro.runtime import Actor


class Sink(Actor):
    async def record(self, payload, tag=""):
        seen = type(self).seen
        seen.append((payload, tag, self.context.activation.active_chain))


class Relay(Actor):
    async def forward(self, payload, tag):
        self.context.actor("Sink", "s1").tell("record", payload, tag=tag)


def test_duplicated_one_way_sees_intact_args_kwargs_and_chain(sched, runtime):
    runtime.register_actor(Sink)
    runtime.register_actor(Relay)
    Sink.seen = []

    async def main():
        # Activate both actors before faults start, so only the relayed
        # one-way below is duplicated.
        await runtime.ref("Relay", "r1").forward({"warm": [0]}, tag="warm")
        await sched.sleep(0.1)
        Sink.seen.clear()
        runtime.network.inject_faults(
            NetworkFaultInjector(
                random.Random(0),
                duplication_rate=1.0,
                protected={"client"},
            )
        )
        await runtime.ref("Relay", "r1").forward({"points": [1, 2, 3]}, tag="t1")
        await sched.sleep(0.1)

    sched.run_until_complete(main())
    expected = ({"points": [1, 2, 3]}, "t1", ("Relay/r1", "Sink/s1"))
    assert Sink.seen == [expected, expected]
    assert runtime.network.stats.duplicated_messages == 1

"""Unit tests for the adaptive delivery batcher (the actor-message Nagle)."""

import pytest

from repro.kernel import RngRegistry, Scheduler
from repro.net import ConstantLatency, Network
from repro.net.batching import (
    PROBE_INTERVAL,
    SOLO_STREAK_LIMIT,
    EnvelopeBatcher,
)

LAN = 0.001
WINDOW = 0.01


@pytest.fixture
def sched():
    return Scheduler()


@pytest.fixture
def net(sched):
    network = Network(
        sched,
        rng=RngRegistry(1),
        loopback=ConstantLatency(0.0),
        lan=ConstantLatency(LAN),
    )
    network.register("client")
    network.register("silo-a")
    network.register("silo-b")
    return network


class Landings:
    """Records what the batcher hands back, stamped with virtual time."""

    def __init__(self, sched):
        self.sched = sched
        self.landed = []  # (member, elapsed, cohort, landed_at)
        self.failed = []  # (member, error)

    def land(self, member, elapsed, cohort):
        self.landed.append((member, elapsed, cohort, self.sched.now))

    def fail(self, member, error):
        self.failed.append((member, error))

    def members(self):
        return [member for member, *_ in self.landed]

    def cohorts(self):
        return [cohort for _, _, cohort, _ in self.landed]


@pytest.fixture
def landings(sched):
    return Landings(sched)


def make_batcher(net, sched, landings, **options):
    return EnvelopeBatcher(net, sched, landings.land, landings.fail, **options)


@pytest.fixture
def batcher(sched, net, landings):
    return make_batcher(net, sched, landings, max_size=4, max_delay=WINDOW)


def test_same_instant_messages_share_one_envelope(sched, net, batcher, landings):
    batcher.join("client", "silo-a", ("first",))
    batcher.join("client", "silo-a", ("second",))
    sched.drain()
    assert landings.members() == ["first", "second"]
    assert landings.cohorts() == [2, 2]
    assert net.stats.envelopes == 1
    assert net.stats.messages == 2
    assert net.stats.batched_messages == 2
    assert net.stats.largest_envelope == 2
    # Both waited the full window then one wire latency.
    for _, elapsed, _, landed_at in landings.landed:
        assert elapsed == pytest.approx(WINDOW + LAN)
        assert landed_at == pytest.approx(WINDOW + LAN)


def test_distinct_paths_never_coalesce(sched, net, batcher, landings):
    batcher.join("client", "silo-a", ("to-a",))
    batcher.join("client", "silo-b", ("to-b",))
    sched.drain()
    assert landings.cohorts() == [1, 1]
    assert net.stats.envelopes == 2


def test_size_bound_flushes_before_window(sched, net, batcher, landings):
    for index in range(4):
        batcher.join("client", "silo-a", (index,))
    sched.drain()
    assert landings.cohorts() == [4, 4, 4, 4]
    # Departed at the size bound (t=0), not at the window (t=WINDOW).
    for _, _, _, landed_at in landings.landed:
        assert landed_at == pytest.approx(LAN)
    assert net.stats.envelopes == 1


def test_max_size_one_degenerates_to_unbatched(sched, net, landings):
    batcher = make_batcher(net, sched, landings, max_size=1, max_delay=WINDOW)
    batcher.join("client", "silo-a", ("only",))
    sched.drain()
    [(_, elapsed, cohort, landed_at)] = landings.landed
    assert cohort == 1
    assert elapsed == landed_at == pytest.approx(LAN)


def test_overflow_starts_a_second_envelope(sched, net, batcher, landings):
    for index in range(5):
        batcher.join("client", "silo-a", (index,))
    sched.drain()
    assert landings.members() == [0, 1, 2, 3, 4]
    assert landings.cohorts() == [4, 4, 4, 4, 1]
    assert net.stats.envelopes == 2


def test_sparse_path_goes_immediate_after_solo_streak(sched, net, batcher, landings):
    """After SOLO_STREAK_LIMIT solo envelopes the path stops paying the window."""
    spacing = 10 * WINDOW  # far apart: every envelope is solo

    async def main():
        for index in range(SOLO_STREAK_LIMIT + 1):
            batcher.join("client", "silo-a", (index,))
            await sched.sleep(spacing)

    sched.run_until_complete(main())
    durations = [elapsed for _, elapsed, _, _ in landings.landed]
    # The first SOLO_STREAK_LIMIT sends pay the full window...
    for duration in durations[:SOLO_STREAK_LIMIT]:
        assert duration == pytest.approx(WINDOW + LAN)
    # ...then the streak trips and delivery is immediate (wire latency only).
    assert durations[-1] == pytest.approx(LAN)
    assert batcher.immediate_flushes == 1


def test_probe_envelope_rediscovers_batching(sched, net, batcher, landings):
    """A sparse path re-enters windowed batching when traffic returns.

    Without probes, immediate (cohort-1) envelopes would perpetuate the solo
    streak forever.  Here the path first goes sparse, then a burst arrives;
    within PROBE_INTERVAL envelopes one probe must hold the window open and
    coalesce the burst.
    """
    spacing = 10 * WINDOW

    async def main():
        for _ in range(SOLO_STREAK_LIMIT + 1):
            batcher.join("client", "silo-a", ("solo",))
            await sched.sleep(spacing)
        # Sustained paired traffic: every envelope carries 2 candidates.
        for _ in range(PROBE_INTERVAL + 1):
            batcher.join("client", "silo-a", ("burst",))
            batcher.join("client", "silo-a", ("burst",))
            await sched.sleep(spacing)

    sched.run_until_complete(main())
    cohorts = landings.cohorts()
    assert max(cohorts) == 2, "no probe ever re-tested the sparse path"
    # Once a probe coalesces, the streak resets and batching stays on.
    assert cohorts[-2:] == [2, 2]


def test_per_path_fifo_survives_latency_inversion(sched, batcher, net, landings):
    """A later envelope must not land before an earlier, slower one."""

    class ShrinkingLatency:
        def __init__(self):
            self.samples = [5 * WINDOW, 0.0]

        def sample(self, rng):
            return self.samples.pop(0) if self.samples else 0.0

    net.set_path_latency("client", "silo-a", ShrinkingLatency())

    async def main():
        batcher.join("client", "silo-a", ("slow",))
        # Join after the first envelope departed so a new one forms.
        await sched.sleep(2 * WINDOW)
        batcher.join("client", "silo-a", ("fast",))

    sched.run_until_complete(main())
    sched.drain()
    assert landings.members() == ["slow", "fast"]


def test_lost_envelope_parks_members_but_chain_stays_live(
    sched, net, batcher, landings
):
    plans = {"drop": True}
    real_plan = net.plan_envelope

    def flaky_plan(source, target, count):
        if plans.pop("drop", False):
            net.stats.lost_messages += count
            return None
        return real_plan(source, target, count)

    net.plan_envelope = flaky_plan

    async def main():
        batcher.join("client", "silo-a", ("lost",))
        await sched.sleep(2 * WINDOW)
        batcher.join("client", "silo-a", ("after-loss",))

    sched.run_until_complete(main())
    sched.drain()
    # The lost message never landed; the path kept delivering afterwards.
    assert landings.members() == ["after-loss"]
    assert landings.failed == []
    assert net.stats.lost_messages == 1


def test_unknown_target_raises_on_every_member(sched, net, batcher, landings):
    batcher.join("client", "nowhere", ("first",))
    batcher.join("client", "nowhere", ("second",))
    sched.drain()
    assert landings.landed == []
    assert [member for member, _ in landings.failed] == ["first", "second"]
    assert all(isinstance(error, KeyError) for _, error in landings.failed)


def test_constructor_validation(sched, net, landings):
    with pytest.raises(ValueError):
        make_batcher(net, sched, landings, max_size=0)
    with pytest.raises(ValueError):
        make_batcher(net, sched, landings, max_delay=-0.1)

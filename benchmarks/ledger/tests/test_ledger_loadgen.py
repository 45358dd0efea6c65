"""The wave barrier, closed-loop clients, the recorder and the value walks."""

import random

from repro.kernel import Scheduler

from perfledger.loadgen import Recorder, closed_loop_client, quantized_walk, wave_fleet


def _run_waves(service, waves=3, clients=4, jitter=0.0):
    scheduler = Scheduler()
    recorder = Recorder()
    sends = []

    async def send(client, wave):
        sends.append((wave, client, scheduler.now))
        await scheduler.sleep(service(client, wave))

    scheduler.run_until_complete(
        wave_fleet(scheduler, range(clients), waves, send,
                   lambda wave, index: jitter * index, recorder, "insert")
    )
    return scheduler, recorder, sends


def test_waves_keep_the_one_second_cadence_when_acks_are_fast():
    scheduler, recorder, sends = _run_waves(lambda c, w: 0.01)
    starts = sorted({round(at, 9) for _w, _c, at in sends})
    assert starts == [0.0, 1.0, 2.0]
    assert recorder.count("insert") == 12
    assert scheduler.now == 3.0


def test_a_slow_ack_holds_the_next_wave_back():
    # Client 2 takes 1.3 s in wave 0: wave 1 starts only when it has acked.
    scheduler, _recorder, sends = _run_waves(
        lambda c, w: 1.3 if (c, w) == (2, 0) else 0.01
    )
    by_wave = {}
    for wave, _client, at in sends:
        by_wave.setdefault(wave, set()).add(round(at, 9))
    assert by_wave[0] == {0.0}
    assert by_wave[1] == {1.3}
    assert by_wave[2] == {2.3}


def test_jitter_delays_the_send_not_the_recorded_latency():
    _scheduler, recorder, sends = _run_waves(lambda c, w: 0.05, waves=1, jitter=0.1)
    assert sorted(round(at, 9) for _w, _c, at in sends) == [0.0, 0.1, 0.2, 0.3]
    latencies = recorder.latencies(["insert"])
    assert all(abs(latency - 0.05) < 1e-12 for latency in latencies)


def test_closed_loop_client_sends_only_after_the_previous_reply():
    scheduler = Scheduler()
    recorder = Recorder()
    sent_at = []

    async def issue(n):
        sent_at.append(scheduler.now)
        await scheduler.sleep(0.2)
        return "read" if n % 2 else "scan"

    scheduler.run_until_complete(
        closed_loop_client(
            scheduler, 4, issue, lambda n: 0.1, recorder, start_after=0.5
        )
    )
    assert [round(t, 9) for t in sent_at] == [0.5, 0.8, 1.1, 1.4]
    assert recorder.count("read") == 2 and recorder.count("scan") == 2
    assert sorted(round(t, 9) for t in recorder.completions(["read", "scan"])) == [
        0.7, 1.0, 1.3, 1.6,
    ]
    assert recorder.span("scan") == (0.5, 1.3)


def test_quantized_walk_is_seeded_and_sums_exactly_in_any_order():
    walk = quantized_walk(random.Random(5), 4000)
    assert walk == quantized_walk(random.Random(5), 4000)
    assert walk != quantized_walk(random.Random(6), 4000)
    assert all(value * 256 == int(value * 256) for value in walk)
    forward = 0.0
    for value in walk:
        forward += value
    backward = 0.0
    for value in reversed(walk):
        backward += value
    assert forward == backward == sum(sorted(walk))

"""Unit tests for CPU and token-bucket resource models."""

import pytest

from repro.kernel import CpuResource, Scheduler, TokenBucket


def test_single_core_serializes_work(sched):
    cpu = CpuResource(sched, cores=1)
    finish_times = []

    async def job():
        await cpu.consume(1.0)
        finish_times.append(sched.now)

    async def main():
        await sched.gather([sched.spawn(job()) for _ in range(3)])

    sched.run_until_complete(main())
    assert finish_times == [1.0, 2.0, 3.0]


def test_multi_core_runs_in_parallel(sched):
    cpu = CpuResource(sched, cores=2)
    finish_times = []

    async def job():
        await cpu.consume(1.0)
        finish_times.append(sched.now)

    async def main():
        await sched.gather([sched.spawn(job()) for _ in range(4)])

    sched.run_until_complete(main())
    assert finish_times == [1.0, 1.0, 2.0, 2.0]


def test_speed_scales_service_time(sched):
    cpu = CpuResource(sched, cores=1, speed=2.0)

    async def main():
        await cpu.consume(1.0)
        return sched.now

    assert sched.run_until_complete(main()) == 0.5


def test_zero_cost_work_completes_now(sched):
    cpu = CpuResource(sched, cores=1)

    async def main():
        await cpu.consume(0.0)
        return sched.now

    assert sched.run_until_complete(main()) == 0.0


def test_negative_cost_rejected(sched):
    cpu = CpuResource(sched, cores=1)
    with pytest.raises(ValueError):
        cpu.consume(-1)


def test_invalid_construction():
    sched = Scheduler()
    with pytest.raises(ValueError):
        CpuResource(sched, cores=0)
    with pytest.raises(ValueError):
        CpuResource(sched, cores=1, speed=0)


def test_utilization_accounting(sched):
    cpu = CpuResource(sched, cores=2)

    async def main():
        await cpu.consume(1.0)   # one core busy 1s out of 2 cores * 2s
        await sched.sleep(1.0)

    sched.run_until_complete(main())
    assert cpu.utilization() == pytest.approx(0.25)
    assert cpu.jobs_completed == 1
    cpu.reset_accounting()
    assert cpu.busy_seconds == 0.0


def test_queue_depth_reflects_backlog(sched):
    cpu = CpuResource(sched, cores=1)

    async def submit():
        cpu.consume(2.0)
        cpu.consume(2.0)
        return cpu.queue_depth_seconds()

    depth = sched.run_until_complete(submit())
    assert depth == pytest.approx(4.0)


def test_wave_drains_with_fcfs_queueing(sched):
    # A synchronized wave of N jobs on c cores finishes in N/c * service.
    cpu = CpuResource(sched, cores=4)
    finish_times = []

    async def job():
        await cpu.consume(0.01)
        finish_times.append(sched.now)

    async def main():
        await sched.gather([sched.spawn(job()) for _ in range(100)])

    sched.run_until_complete(main())
    assert finish_times[-1] == pytest.approx(100 / 4 * 0.01)
    assert finish_times[0] == pytest.approx(0.01)


def test_token_bucket_consumes_burst_then_throttles(sched):
    bucket = TokenBucket(sched, rate=10, burst=10)
    assert bucket.try_consume(10) == 0.0
    wait = bucket.try_consume(5)
    assert wait == pytest.approx(0.5)
    # Tokens were not taken on failure.
    assert bucket.tokens == pytest.approx(0.0)


def test_token_bucket_refills_over_time(sched):
    bucket = TokenBucket(sched, rate=10, burst=10)
    bucket.try_consume(10)

    async def main():
        await sched.sleep(0.5)
        return bucket.tokens

    assert sched.run_until_complete(main()) == pytest.approx(5.0)


def test_token_bucket_async_consume_waits(sched):
    bucket = TokenBucket(sched, rate=10, burst=10)

    async def main():
        await bucket.consume(10)
        await bucket.consume(5)
        return sched.now

    assert sched.run_until_complete(main()) == pytest.approx(0.5)


def test_token_bucket_validation(sched):
    with pytest.raises(ValueError):
        TokenBucket(sched, rate=0)
    bucket = TokenBucket(sched, rate=1)
    with pytest.raises(ValueError):
        bucket.try_consume(-1)

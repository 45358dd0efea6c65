"""Integration tests for the SHM platform end to end."""

import pytest

from repro.errors import AuthorizationError, UnknownEntityError
from repro.shm import channel_id_for, sensor_id_for

from .conftest import points_for


def test_provision_matches_paper_structure(sched, platform):
    """100 sensors => 1 org, 1 user, 1 project, 210 channels (§6.1)."""

    async def main():
        return await platform.provision(total_sensors=100)

    report = sched.run_until_complete(main())
    assert report.organizations == 1
    assert report.users == 1
    assert report.projects == 1
    assert report.sensors == 100
    assert report.physical_channels == 200
    assert report.virtual_channels == 10
    assert report.total_channels == 210


def test_provision_multiple_orgs(sched, platform):
    async def main():
        return await platform.provision(total_sensors=250, sensors_per_org=100)

    report = sched.run_until_complete(main())
    assert report.organizations == 3
    assert report.org_ids == ["org-0", "org-1", "org-2"]
    assert report.sensors == 250


def test_ingest_and_raw_range(sched, platform):
    async def main():
        await platform.provision(total_sensors=2, sensors_per_org=100)
        sensor_id = sensor_id_for("org-0", 0)
        c0 = channel_id_for(sensor_id, 0)
        c1 = channel_id_for(sensor_id, 1)
        await platform.ingest(
            sensor_id,
            {c0: points_for(0, start=0.0), c1: points_for(1, start=0.0)},
        )
        await platform.ingest(
            sensor_id,
            {c0: points_for(0, start=1.0), c1: points_for(1, start=1.0)},
        )
        full = await platform.raw_range(c0, 0.0, 10.0)
        partial = await platform.raw_range(c0, 1.0, 1.35)
        return full, partial

    full, partial = sched.run_until_complete(main())
    assert len(full) == 20
    assert len(partial) == 4
    assert partial[0][0] == pytest.approx(1.0)


def test_ingest_unknown_channel_rejected(sched, platform):
    async def main():
        await platform.provision(total_sensors=1)
        sensor_id = sensor_id_for("org-0", 0)
        with pytest.raises(UnknownEntityError):
            await platform.ingest(sensor_id, {"bogus-channel": points_for(0, 0.0)})

    sched.run_until_complete(main())


def test_live_data_returns_every_channel(sched, platform):
    async def main():
        await platform.provision(total_sensors=10)
        for i in range(10):
            sensor_id = sensor_id_for("org-0", i)
            await platform.ingest(
                sensor_id,
                {
                    channel_id_for(sensor_id, 0): points_for(0, 0.0),
                    channel_id_for(sensor_id, 1): points_for(1, 0.0),
                },
            )
        return await platform.live_data("org-0")

    live = sched.run_until_complete(main())
    # 10 sensors * 2 channels + 1 virtual channel (sensor 0).
    assert len(live) == 21
    sensor0 = sensor_id_for("org-0", 0)
    c0_latest = live[channel_id_for(sensor0, 0)]
    assert c0_latest is not None
    timestamp, value = c0_latest
    assert timestamp == pytest.approx(0.9)


def test_virtual_channel_derives_sum(sched, platform):
    async def main():
        await platform.provision(total_sensors=1)
        sensor_id = sensor_id_for("org-0", 0)
        c0, c1 = channel_id_for(sensor_id, 0), channel_id_for(sensor_id, 1)
        p0 = [(0.1 * i, 1.0) for i in range(10)]
        p1 = [(0.1 * i, 2.0) for i in range(10)]
        await platform.ingest(sensor_id, {c0: p0, c1: p1})
        await sched.sleep(1)  # let one-way forwards drain
        return await platform.raw_range(f"{sensor_id}/vc", 0.0, 2.0, virtual=True)

    derived = sched.run_until_complete(main())
    assert len(derived) == 10
    assert all(value == pytest.approx(3.0) for _, value in derived)


def test_virtual_channel_waits_for_all_inputs(sched, platform):
    async def main():
        await platform.provision(total_sensors=1)
        sensor_id = sensor_id_for("org-0", 0)
        c0, c1 = channel_id_for(sensor_id, 0), channel_id_for(sensor_id, 1)
        # Only channel 0 delivers; the virtual channel must stay empty.
        await platform.ingest(sensor_id, {c0: [(0.0, 1.0)]})
        await sched.sleep(1)
        empty = await platform.raw_range(f"{sensor_id}/vc", 0.0, 2.0, virtual=True)
        # Now channel 1 catches up for the same timestamp.
        await platform.ingest(sensor_id, {c1: [(0.0, 5.0)]})
        await sched.sleep(1)
        filled = await platform.raw_range(f"{sensor_id}/vc", 0.0, 2.0, virtual=True)
        return empty, filled

    empty, filled = sched.run_until_complete(main())
    assert empty == []
    assert filled == [(0.0, 6.0)]


def test_accumulated_change_service(sched, platform):
    async def main():
        await platform.provision(total_sensors=1)
        sensor_id = sensor_id_for("org-0", 0)
        c0 = channel_id_for(sensor_id, 0)
        await platform.ingest(
            sensor_id, {c0: [(0.0, 10.0), (0.1, 12.0), (0.2, 11.0)]}
        )
        return await platform.accumulated_change(c0)

    change = sched.run_until_complete(main())
    assert change["net"] == pytest.approx(1.0)
    assert change["total"] == pytest.approx(3.0)
    assert change["count"] == 3


def test_alerts_fire_and_reach_inbox(sched, platform):
    rule = {
        "rule_id": "too-high",
        "high": 100.0,
        "low": None,
        "channel_id": None,
        "sensor_type": None,
        "cooldown_seconds": 60.0,
        "message": "reading exceeded 100",
    }

    async def main():
        await platform.provision(total_sensors=1, alert_rules=[rule])
        sensor_id = sensor_id_for("org-0", 0)
        c0 = channel_id_for(sensor_id, 0)
        c1 = channel_id_for(sensor_id, 1)
        await platform.ingest(
            sensor_id,
            {c0: [(0.0, 50.0), (0.1, 150.0)], c1: [(0.0, 10.0), (0.1, 20.0)]},
        )
        await sched.sleep(1)  # alert is a one-way tell
        alerts = await platform.alerts("org-0")
        inbox = await platform.runtime.ref("Organization", "org-0").inbox("admin")
        return alerts, inbox

    alerts, inbox = sched.run_until_complete(main())
    assert len(alerts) == 1
    assert alerts[0]["rule_id"] == "too-high"
    assert alerts[0]["value"] == 150.0
    assert len(inbox) == 1


def test_alert_cooldown_suppresses_repeats(sched, platform):
    rule = {
        "rule_id": "r", "high": 1.0, "low": None, "channel_id": None,
        "sensor_type": None, "cooldown_seconds": 60.0, "message": "",
    }

    async def main():
        await platform.provision(total_sensors=1, alert_rules=[rule])
        sensor_id = sensor_id_for("org-0", 0)
        c0 = channel_id_for(sensor_id, 0)
        # Violations at t=0 and t=10 (inside cooldown), then t=100 (outside).
        await platform.ingest(sensor_id, {c0: [(0.0, 5.0)]})
        await platform.ingest(sensor_id, {c0: [(10.0, 5.0)]})
        await platform.ingest(sensor_id, {c0: [(100.0, 5.0)]})
        await sched.sleep(1)
        return await platform.alerts("org-0")

    alerts = sched.run_until_complete(main())
    assert [a["timestamp"] for a in alerts] == [0.0, 100.0]


def test_alert_rule_added_after_provisioning(sched, platform):
    async def main():
        await platform.provision(total_sensors=2)
        org = platform.runtime.ref("Organization", "org-0")
        pushed = await org.add_alert_rule("late-rule", high=10.0)
        sensor_id = sensor_id_for("org-0", 1)
        c0 = channel_id_for(sensor_id, 0)
        await sched.sleep(0.5)  # rule pushes are one-way
        await platform.ingest(sensor_id, {c0: [(0.0, 99.0)]})
        await sched.sleep(0.5)
        return pushed, await platform.alerts("org-0")

    pushed, alerts = sched.run_until_complete(main())
    assert pushed == 4  # 2 sensors x 2 physical channels
    assert len(alerts) == 1
    assert alerts[0]["rule_id"] == "late-rule"


def test_aggregates_hour_and_day(sched, platform):
    async def main():
        await platform.provision(total_sensors=1)
        sensor_id = sensor_id_for("org-0", 0)
        c0 = channel_id_for(sensor_id, 0)
        # Two hours of data, one point per 10 minutes.
        for ts in range(0, 7200, 600):
            await platform.ingest(sensor_id, {c0: [(float(ts), float(ts % 3600))]})
        await sched.sleep(1)
        hours = await platform.aggregates(c0, "hour", 0.0, 7200.0)
        # Close the open hour bucket so it rolls up into the day.
        from repro.shm import aggregator_id_for

        await platform.runtime.ref(
            "Aggregator", aggregator_id_for(c0, "hour")
        ).flush()
        await sched.sleep(1)
        days = await platform.aggregates(c0, "day", 0.0, 86400.0)
        return hours, days

    hours, days = sched.run_until_complete(main())
    assert len(hours) == 2
    assert hours[0][1]["count"] == 6
    assert len(days) == 1
    assert days[0][1]["count"] == 12


def test_access_control_enforced(sched, platform):
    async def main():
        await platform.provision(total_sensors=1)
        org = platform.runtime.ref("Organization", "org-0")
        await org.add_user("analyst", "Ana", role="data_analyst")
        # Analysts may read...
        live = await platform.live_data("org-0", user_id="analyst")
        # ...but not manage users.
        with pytest.raises(AuthorizationError):
            await org.add_user("x", "X", role="admin", acting_user="analyst")
        # Unknown users may do nothing.
        with pytest.raises(AuthorizationError):
            await platform.live_data("org-0", user_id="stranger")
        return live

    live = sched.run_until_complete(main())
    assert isinstance(live, dict)


def test_window_eviction_archives_points(sched, platform):
    platform.window_capacity = 15

    async def main():
        await platform.provision(total_sensors=1)
        sensor_id = sensor_id_for("org-0", 0)
        c0 = channel_id_for(sensor_id, 0)
        await platform.ingest(sensor_id, {c0: points_for(0, 0.0)})
        await platform.ingest(sensor_id, {c0: points_for(0, 1.0)})
        return platform.archive.read_range(c0, 0.0, 100.0)

    archived = sched.run_until_complete(main())
    assert len(archived) == 5  # 20 ingested - 15 window capacity


def test_multi_tenant_isolation(sched, platform):
    async def main():
        await platform.provision(total_sensors=200, sensors_per_org=100)
        s0 = sensor_id_for("org-0", 0)
        await platform.ingest(s0, {channel_id_for(s0, 0): [(0.0, 1.0)]})
        live_org1 = await platform.live_data("org-1")
        return live_org1

    live_org1 = sched.run_until_complete(main())
    # org-1 sees only its own channels, all without data.
    assert len(live_org1) == 210
    assert all(value is None for value in live_org1.values())


def test_sensor_relocation(sched, platform):
    async def main():
        await platform.provision(total_sensors=1)
        sensor = platform.runtime.ref("Sensor", sensor_id_for("org-0", 0))
        await sensor.relocate((55.34, 11.03))
        return await sensor.describe()

    description = sched.run_until_complete(main())
    assert description["position"] == (55.34, 11.03)


def test_organization_summary(sched, platform):
    async def main():
        await platform.provision(total_sensors=20)
        return await platform.organization_summary("org-0")

    summary = sched.run_until_complete(main())
    assert summary["sensors"] == 20
    assert summary["channels"] == 42  # 40 physical + 2 virtual
    assert summary["users"] == 1
    assert summary["projects"] == 1

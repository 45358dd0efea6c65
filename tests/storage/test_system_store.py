"""Unit tests for the system store (membership + reminders)."""

import pytest

from repro.errors import SiloUnavailableError
from repro.storage import SystemStore


@pytest.fixture
def store(sched):
    return SystemStore(sched, lease_seconds=10)


def test_announce_and_active_list(store):
    store.announce("silo-b")
    store.announce("silo-a")
    assert store.active_silos() == ["silo-a", "silo-b"]


def test_lease_expiry_marks_suspected(sched, store):
    store.announce("silo-a")
    sched.run_for(11)
    assert store.status_of("silo-a") == "suspected"
    assert store.active_silos() == []


def test_refresh_lease_keeps_silo_active(sched, store):
    store.announce("silo-a")
    sched.run_for(8)
    store.refresh_lease("silo-a")
    sched.run_for(8)
    assert store.status_of("silo-a") == "active"


def test_refresh_unknown_silo_raises(store):
    with pytest.raises(SiloUnavailableError):
        store.refresh_lease("ghost")


def test_retire_marks_dead_even_with_valid_lease(store):
    store.announce("silo-a")
    store.retire("silo-a")
    assert store.status_of("silo-a") == "dead"
    assert store.active_silos() == []


def test_reannounce_revives_dead_silo(store):
    store.announce("silo-a")
    store.retire("silo-a")
    store.announce("silo-a")
    assert store.status_of("silo-a") == "active"


def test_status_of_unknown_silo_raises(store):
    with pytest.raises(SiloUnavailableError):
        store.status_of("ghost")


def test_membership_metadata_stored(store):
    entry = store.announce("silo-a", instance_type="m5.xlarge")
    assert entry.metadata == {"instance_type": "m5.xlarge"}


def test_register_and_list_reminders(sched, store):
    store.register_reminder("shm/org-1", "hourly-agg", period=3600)
    store.register_reminder("shm/org-1", "daily-agg", period=86400)
    store.register_reminder("shm/org-2", "hourly-agg", period=3600)
    names = {r.name for r in store.reminders_for("shm/org-1")}
    assert names == {"hourly-agg", "daily-agg"}
    assert len(store.all_reminders()) == 3


def test_reminder_replacement_and_removal(store):
    store.register_reminder("a", "r", period=10)
    store.register_reminder("a", "r", period=20)
    reminders = store.reminders_for("a")
    assert len(reminders) == 1
    assert reminders[0].period == 20
    assert store.unregister_reminder("a", "r")
    assert not store.unregister_reminder("a", "r")


def test_reminder_first_due_defaults_to_now_plus_period(sched, store):
    sched.run_for(5)
    reminder = store.register_reminder("a", "r", period=10)
    assert reminder.first_due == 15


def test_reminder_period_must_be_positive(store):
    with pytest.raises(ValueError):
        store.register_reminder("a", "r", period=0)

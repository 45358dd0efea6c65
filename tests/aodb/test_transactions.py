"""Tests for multi-actor transactions (2PL, rollback, conflicts)."""

import pytest

from repro.aodb import AodbDatabase
from repro.errors import TransactionAbortedError, TransactionConflictError
from repro.runtime import Actor, ActorKey, AodbRuntime, RuntimeConfig


class Account(Actor):
    """A transactional bank-account-like actor (state-document based)."""

    async def deposit(self, amount):
        self.state["balance"] = self.state.get("balance", 0) + amount
        self.mark_dirty()
        return self.state["balance"]

    async def withdraw(self, amount):
        balance = self.state.get("balance", 0)
        if balance < amount:
            raise ValueError("insufficient funds")
        self.state["balance"] = balance - amount
        self.mark_dirty()
        return self.state["balance"]

    async def balance(self):
        return self.state.get("balance", 0)


@pytest.fixture
def accounts(sched, db):
    db.register_actor(Account)

    async def seed():
        await db.ref("Account", "a").deposit(100)
        await db.ref("Account", "b").deposit(50)

    sched.run_until_complete(seed())
    return db


def test_commit_applies_all_updates(sched, accounts):
    async def main():
        async with accounts.transaction() as txn:
            await txn.call("Account", "a", "withdraw", 30)
            await txn.call("Account", "b", "deposit", 30)
        return (
            await accounts.ref("Account", "a").balance(),
            await accounts.ref("Account", "b").balance(),
        )

    assert sched.run_until_complete(main()) == (70, 80)
    assert accounts.stats_commits == 1


def test_failure_rolls_back_all_participants(sched, accounts):
    async def main():
        with pytest.raises(ValueError, match="insufficient funds"):
            async with accounts.transaction() as txn:
                await txn.call("Account", "b", "deposit", 500)
                await txn.call("Account", "a", "withdraw", 1000)  # fails
        return (
            await accounts.ref("Account", "a").balance(),
            await accounts.ref("Account", "b").balance(),
        )

    # Both balances back to their seeds: the deposit to b was undone.
    assert sched.run_until_complete(main()) == (100, 50)
    assert accounts.stats_aborts == 1


def test_explicit_abort(sched, accounts):
    async def main():
        txn = accounts.transaction()
        await txn.call("Account", "a", "withdraw", 10)
        await txn.abort()
        return await accounts.ref("Account", "a").balance(), txn.state

    balance, state = sched.run_until_complete(main())
    assert balance == 100
    assert state == "aborted"


def test_transaction_isolation_blocks_conflicting_txn(sched, accounts):
    order = []

    async def transfer(name, delay):
        async with accounts.transaction() as txn:
            await txn.call("Account", "a", "withdraw", 10)
            order.append(("locked", name))
            await accounts.runtime.scheduler.sleep(delay)
            await txn.call("Account", "b", "deposit", 10)
        order.append(("end", name))

    async def main():
        t1 = sched.spawn(transfer("t1", 5.0))
        await sched.sleep(1.0)
        t2 = sched.spawn(transfer("t2", 0.0))
        await sched.gather([t1, t2])
        return await accounts.ref("Account", "a").balance()

    balance = sched.run_until_complete(main())
    assert balance == 80  # both applied, serially
    # t2 could not take the lock on account `a` before t1 finished.
    assert order == [("locked", "t1"), ("end", "t1"), ("locked", "t2"), ("end", "t2")]


def test_lock_timeout_aborts_with_conflict(sched, accounts):
    async def hold_lock():
        txn = accounts.transaction()
        await txn.call("Account", "a", "balance")
        await sched.sleep(100)  # hold the lock well past the victim timeout
        await txn.commit()

    async def main():
        sched.spawn(hold_lock())
        await sched.sleep(1)
        with pytest.raises(TransactionConflictError):
            async with accounts.transaction(lock_timeout=2.0) as txn:
                await txn.call("Account", "a", "withdraw", 10)
        return await accounts.ref("Account", "a").balance()

    # Victim aborted; holder committed untouched balance.
    assert sched.run_until_complete(main()) == 100


def test_wound_released_locks_allow_progress(sched, accounts):
    async def main():
        async with accounts.transaction() as txn1:
            await txn1.call("Account", "a", "withdraw", 10)
        # txn1 committed and released; txn2 proceeds immediately.
        async with accounts.transaction() as txn2:
            await txn2.call("Account", "a", "withdraw", 10)
        return await accounts.ref("Account", "a").balance()

    assert sched.run_until_complete(main()) == 80


def test_repeated_touch_locks_once(sched, accounts):
    async def main():
        async with accounts.transaction() as txn:
            await txn.call("Account", "a", "deposit", 1)
            await txn.call("Account", "a", "deposit", 1)  # same participant
        return await accounts.ref("Account", "a").balance()

    assert sched.run_until_complete(main()) == 102


def test_using_finished_transaction_raises(sched, accounts):
    async def main():
        txn = accounts.transaction()
        await txn.call("Account", "a", "balance")
        await txn.commit()
        with pytest.raises(TransactionAbortedError):
            await txn.call("Account", "a", "deposit", 1)
        with pytest.raises(TransactionAbortedError):
            await txn.abort()

    sched.run_until_complete(main())


def test_abort_is_idempotent(sched, accounts):
    async def main():
        txn = accounts.transaction()
        await txn.call("Account", "a", "balance")
        await txn.abort()
        await txn.abort()  # no error
        return txn.state

    assert sched.run_until_complete(main()) == "aborted"


def test_rollback_restores_exact_document(sched, accounts):
    class Doc(Actor):
        async def put(self, key, value):
            self.state[key] = value
            return dict(self.state)

        async def get_all(self):
            return dict(self.state)

    accounts.register_actor(Doc)

    async def main():
        ref = accounts.ref("Doc", "d")
        await ref.put("stable", {"nested": [1, 2]})
        with pytest.raises(RuntimeError):
            async with accounts.transaction() as txn:
                await txn.call("Doc", "d", "put", "temp", "value")
                raise RuntimeError("force rollback")
        return await ref.get_all()

    assert sched.run_until_complete(main()) == {"stable": {"nested": [1, 2]}}


def test_redelivered_restore_installs_the_original_undo_log(sched):
    """The restored actor shares nothing with the coordinator's undo log.

    With ``copy_messages=False`` (the cattle benchmark's config) the
    ``__txn_restore__`` argument is ``Transaction._snapshots[key]`` itself.
    A retry or a duplicated delivery hands the actor that same object a
    second time, so the first restore must install a copy: otherwise what
    the actor did in between is "restored" too.
    """

    class Doc(Actor):
        async def append(self, value):
            self.state["nested"]["items"].append(value)
            return len(self.state["nested"]["items"])

        async def get_all(self):
            return self.state

    config = RuntimeConfig(
        default_method_cost=0.0, activation_cost=0.0, copy_messages=False
    )
    runtime = AodbRuntime(sched, config=config)
    runtime.add_silo("s1", cores=2)
    database = AodbDatabase(runtime)
    database.register_actor(Doc)
    key = ActorKey("Doc", "d")

    async def restore(undo_log):
        await runtime.send(
            key, "__txn_restore__", (undo_log,), {}, caller_endpoint="client"
        )

    async def main():
        ref = database.ref("Doc", "d")
        (await ref.get_all())["nested"] = {"items": [1]}
        txn = database.transaction()
        await txn.call("Doc", "d", "append", 2)
        await txn.abort()
        undo_log = txn._snapshots[key]
        assert await ref.get_all() == {"nested": {"items": [1]}}
        await ref.append(3)  # the restored actor moves on...
        assert undo_log == {"nested": {"items": [1]}}
        await restore(undo_log)  # ...and the same restore arrives again
        return await ref.get_all()

    assert sched.run_until_complete(main()) == {"nested": {"items": [1]}}

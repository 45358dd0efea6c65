"""The §4.4 constraint-enforcement principle, in all three flavours."""

from .conftest import seed_chain


def test_transactional_sale_moves_cow_atomically(sched, platform):
    async def main():
        await seed_chain(platform)
        await platform.register_farmer("farm-2", "Buyer Farm")
        ok = await platform.sell_cow_transactional("cow-1", "farm-1", "farm-2", 50.0)
        herds = (
            await platform.runtime.ref("Farmer", "farm-1").herd(),
            await platform.runtime.ref("Farmer", "farm-2").herd(),
        )
        owner_index = await platform.cows_of("farm-2")
        cow = await platform.runtime.ref("Cow", "cow-1").describe()
        return ok, herds, owner_index, cow

    ok, herds, owner_index, cow = sched.run_until_complete(main())
    assert ok is True
    assert herds == (["cow-2"], ["cow-1"])
    assert owner_index == ["cow-1"]
    assert cow["owner_id"] == "farm-2"


def test_transactional_sale_rolls_back_on_bad_seller(sched, platform):
    async def main():
        await seed_chain(platform)
        await platform.register_farmer("farm-2", "Buyer Farm")
        # farm-2 does not own cow-1: step 1 fails, nothing changes.
        ok = await platform.sell_cow_transactional("cow-1", "farm-2", "farm-1", 50.0)
        return ok, await platform.runtime.ref("Farmer", "farm-1").herd()

    ok, herd = sched.run_until_complete(main())
    assert ok is False or herd == ["cow-1", "cow-2"]
    assert "cow-1" in herd


def test_transactional_sale_rollback_restores_intermediate_updates(sched, platform):
    async def main():
        await seed_chain(platform)
        # farm-3 exists but the cow update will fail: cow-9 was never
        # registered, so set_owner raises (no owner => not alive).
        await platform.register_farmer("farm-3", "Buyer")
        from repro.errors import LifecycleError

        try:
            async with platform.db.transaction() as txn:
                await txn.call("Farmer", "farm-1", "remove_cow", "cow-1")
                await txn.call("Farmer", "farm-3", "add_cow", "cow-1")
                await txn.call("Cow", "cow-9", "set_owner", "farm-3", 1.0)
        except LifecycleError:
            pass
        return (
            await platform.runtime.ref("Farmer", "farm-1").herd(),
            await platform.runtime.ref("Farmer", "farm-3").herd(),
        )

    farm1, farm3 = sched.run_until_complete(main())
    assert "cow-1" in farm1
    assert farm3 == []


def test_workflow_sale_applies_all_steps(sched, platform):
    async def main():
        await seed_chain(platform)
        await platform.register_farmer("farm-2", "Buyer Farm")
        outcome = await platform.sell_cow_workflow("cow-1", "farm-1", "farm-2", 60.0)
        return outcome, await platform.runtime.ref("Farmer", "farm-2").herd()

    outcome, herd = sched.run_until_complete(main())
    assert outcome.succeeded
    assert outcome.applied_steps == [
        "remove-from-seller",
        "add-to-buyer",
        "update-cow",
    ]
    assert herd == ["cow-1"]


def test_workflow_sale_compensates_on_failure(sched, platform):
    async def main():
        await seed_chain(platform)
        await platform.register_farmer("farm-2", "Buyer Farm")
        # Slaughter the cow first: set_owner (step 3) will fail.
        await platform.runtime.ref("Slaughterhouse", "sh-1").slaughter_cow(
            "cow-2", timestamp=10.0
        )
        await sched.sleep(1)  # herd update drains
        outcome = await platform.sell_cow_workflow("cow-1", "farm-1", "farm-2", 60.0)

        # Sell cow-1? No - use the slaughtered cow-2 for the failing sale:
        outcome = await platform.sell_cow_workflow("cow-2", "farm-1", "farm-2", 61.0)
        return outcome

    outcome = sched.run_until_complete(main())
    assert not outcome.succeeded
    assert outcome.failed_step in ("remove-from-seller", "update-cow")


def test_concurrent_transactional_sales_serialize(sched, platform):
    """Two buyers race for the same cow; exactly one sale succeeds."""

    async def main():
        await seed_chain(platform)
        await platform.register_farmer("farm-2", "Buyer A")
        await platform.register_farmer("farm-3", "Buyer B")
        results = await sched.gather(
            [
                sched.spawn(
                    platform.sell_cow_transactional("cow-1", "farm-1", "farm-2", 1.0)
                ),
                sched.spawn(
                    platform.sell_cow_transactional("cow-1", "farm-1", "farm-3", 1.0)
                ),
            ]
        )
        owner = (await platform.runtime.ref("Cow", "cow-1").describe())["owner_id"]
        herd2 = await platform.runtime.ref("Farmer", "farm-2").herd()
        herd3 = await platform.runtime.ref("Farmer", "farm-3").herd()
        return results, owner, herd2, herd3

    results, owner, herd2, herd3 = sched.run_until_complete(main())
    assert sorted(results) == [False, True]
    # Exactly one herd has the cow, matching the cow's own owner record.
    assert (owner == "farm-2") == ("cow-1" in herd2)
    assert (owner == "farm-3") == ("cow-1" in herd3)
    assert ("cow-1" in herd2) != ("cow-1" in herd3)

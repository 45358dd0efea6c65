"""Tests for the EPCIS event-document export."""

from repro.cattle import export_product_document

from .conftest import seed_chain


async def full_chain_product(platform, sched):
    await seed_chain(platform)
    sh = platform.runtime.ref("Slaughterhouse", "sh-1")
    cut_ids = await sh.slaughter_cow("cow-1", timestamp=100.0, cuts=2)
    dist = platform.runtime.ref("Distributor", "dist-1")
    delivery_id = await dist.create_delivery(cut_ids, "sh-1", "ret-1")
    delivery = platform.runtime.ref("Delivery", delivery_id)
    await delivery.start(timestamp=110.0)
    await delivery.complete(timestamp=120.0)
    await sched.sleep(1)
    retailer = platform.runtime.ref("Retailer", "ret-1")
    product_id = await retailer.create_product(cut_ids, timestamp=130.0)
    await retailer.sell_product(product_id, timestamp=140.0)
    return product_id


def test_document_shape_and_chronology(sched, platform):
    async def main():
        product_id = await full_chain_product(platform, sched)
        return await export_product_document(platform.db, product_id)

    document = sched.run_until_complete(main())
    assert document["type"] == "EPCISDocument"
    assert document["schemaVersion"] == "2.0"
    events = document["epcisBody"]["eventList"]
    times = [event["eventTime"] for event in events]
    assert times == sorted(times)
    # One commissioning (birth), one per-cow slaughter observation, two
    # slaughter transformations (one per cut), two pickup + two drop-off
    # aggregations, two retail transformations, one sale.
    kinds = [event["type"] for event in events]
    assert kinds.count("TransformationEvent") == 4
    assert kinds.count("AggregationEvent") == 4
    assert kinds.count("ObjectEvent") == 3


def test_business_steps_cover_the_chain(sched, platform):
    async def main():
        product_id = await full_chain_product(platform, sched)
        return await export_product_document(platform.db, product_id)

    document = sched.run_until_complete(main())
    events = document["epcisBody"]["eventList"]
    steps = {event["bizStep"].rsplit(":", 1)[-1] for event in events}
    assert {
        "commissioning",
        "slaughtering",
        "transporting",
        "receiving",
        "retail_selling",
    } <= steps


def test_transformation_events_link_inputs_to_outputs(sched, platform):
    async def main():
        product_id = await full_chain_product(platform, sched)
        document = await export_product_document(platform.db, product_id)
        return product_id, document

    product_id, document = sched.run_until_complete(main())
    events = document["epcisBody"]["eventList"]
    slaughter = [
        e for e in events
        if e["type"] == "TransformationEvent" and e["bizStep"].endswith("slaughtering")
    ]
    assert all(e["inputEPCList"] == ["cow-1"] for e in slaughter)
    retail = [
        e for e in events
        if e["type"] == "TransformationEvent" and e["bizStep"].endswith("commissioning")
    ]
    assert all(product_id in e["outputEPCList"] for e in retail)


def test_ownership_transfer_appears_as_shipping_event(sched, platform):
    async def main():
        await seed_chain(platform)
        await platform.register_farmer("farm-2", "Buyer")
        await platform.sell_cow_transactional("cow-1", "farm-1", "farm-2", 50.0)
        sh = platform.runtime.ref("Slaughterhouse", "sh-1")
        cut_ids = await sh.slaughter_cow("cow-1", timestamp=100.0, cuts=1)
        dist = platform.runtime.ref("Distributor", "dist-1")
        delivery_id = await dist.create_delivery(cut_ids, "sh-1", "ret-1")
        delivery = platform.runtime.ref("Delivery", delivery_id)
        await delivery.start(110.0)
        await delivery.complete(120.0)
        await sched.sleep(1)
        retailer = platform.runtime.ref("Retailer", "ret-1")
        product_id = await retailer.create_product(cut_ids, timestamp=130.0)
        return await export_product_document(platform.db, product_id)

    document = sched.run_until_complete(main())
    shipping = [
        e
        for e in document["epcisBody"]["eventList"]
        if e["bizStep"].endswith("shipping")
    ]
    assert len(shipping) == 1
    assert shipping[0]["source"] == "farm-1"
    assert shipping[0]["destination"] == "farm-2"


def test_unsold_product_has_no_sale_event(sched, platform):
    async def main():
        await seed_chain(platform)
        sh = platform.runtime.ref("Slaughterhouse", "sh-1")
        cut_ids = await sh.slaughter_cow("cow-1", timestamp=100.0, cuts=1)
        dist = platform.runtime.ref("Distributor", "dist-1")
        delivery_id = await dist.create_delivery(cut_ids, "sh-1", "ret-1")
        delivery = platform.runtime.ref("Delivery", delivery_id)
        await delivery.start(110.0)
        await delivery.complete(120.0)
        await sched.sleep(1)
        retailer = platform.runtime.ref("Retailer", "ret-1")
        product_id = await retailer.create_product(cut_ids, timestamp=130.0)
        return await export_product_document(platform.db, product_id)

    document = sched.run_until_complete(main())
    steps = [e["bizStep"] for e in document["epcisBody"]["eventList"]]
    assert not any(step.endswith("retail_selling") for step in steps)

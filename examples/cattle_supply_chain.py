"""Beef cattle tracking & tracing, farm to consumer (case study 2).

Walks the paper's Figure 3 model end to end:

1. farmers with geo-fenced pastures and collar-equipped cows;
2. an atomic cow sale between farm units (the §4.4 transaction principle);
3. slaughter, distribution via Delivery actors, retail transformation;
4. a consumer trace assembled into a provenance graph (``ProvenanceGraph``,
   a few dicts on the standard library: origin farms, entity counts);
5. the same chain through model B (versioned non-actor objects, Figure 5)
   with a message-count comparison — the §4.3 trade-off, live.

Run: ``python examples/cattle_supply_chain.py``
"""

from repro.aodb import AodbDatabase
from repro.cattle import (
    CattlePlatform,
    build_product_trace_graph,
    rectangle_fence,
    summarize_trace,
)
from repro.kernel import Scheduler
from repro.net import ConstantLatency, Network
from repro.runtime import AodbRuntime, RuntimeConfig


async def main(scheduler, platform):
    runtime = platform.runtime

    # -- farms, cows, collars ---------------------------------------------------
    await platform.register_farmer("farm-jensen", "Jensen Farm", "urn:gs1:gln:loc:0000001")
    await platform.register_farmer("farm-olsen", "Olsen Farm", "urn:gs1:gln:loc:0000002")
    for index in range(4):
        await platform.register_cow(f"cow-{index}", "farm-jensen", born_at=0.0)

    farmer = runtime.ref("Farmer", "farm-jensen")
    pasture = rectangle_fence("north-pasture", 55.30, 11.00, 55.40, 11.20)
    await farmer.define_fence(pasture.as_dict())
    for index in range(4):
        await farmer.assign_fence(f"cow-{index}", "north-pasture")

    # Collar readings stream in; cow-3 wanders out of the pasture.
    for step in range(10):
        t = float(step * 60)
        for index in range(4):
            drift = 0.02 * step if index == 3 else 0.001 * step
            await runtime.ref("Cow", f"cow-{index}").record_reading(
                {
                    "timestamp": t,
                    "latitude": 55.35 + drift,
                    "longitude": 11.10,
                    "activity": 0.4,
                    "temperature": 38.6,
                }
            )
    await scheduler.sleep(1)
    breaches = await farmer.breaches()
    print(f"geo-fence breaches reported to the farmer: {len(breaches)} "
          f"(cow {breaches[0]['cow_id']})" if breaches else "no breaches")
    herd_locations = await farmer.herd_locations()
    print(f"herd tracking: {len(herd_locations)} cows, "
          f"cow-0 at ({herd_locations['cow-0']['latitude']:.3f}, "
          f"{herd_locations['cow-0']['longitude']:.3f})")

    # -- an atomic sale between farm units (transaction, §4.4) -------------------
    sold = await platform.sell_cow_transactional("cow-1", "farm-jensen", "farm-olsen", 700.0)
    print(f"cow-1 sold to Olsen Farm atomically: {sold}; "
          f"Jensen now owns {await platform.cows_of('farm-jensen')}")

    # -- slaughter, distribution, retail (model A: everything an actor) ----------
    await platform.register_slaughterhouse("sh-dc", "Danish Crown", "urn:gs1:gln:loc:0000009")
    await platform.register_distributor("dist-nl", "Nordic Logistics")
    await platform.register_retailer("ret-sm", "SuperMart")

    sh = runtime.ref("Slaughterhouse", "sh-dc")
    print("slaughterhouse provenance check:",
          (await sh.incoming_cow_info("cow-0"))["cow"]["owner_id"])
    cut_ids = await sh.slaughter_cow("cow-0", timestamp=1000.0, cuts=4)

    distributor = runtime.ref("Distributor", "dist-nl")
    delivery_id = await distributor.create_delivery(cut_ids, "sh-dc", "ret-sm", "truck-7")
    delivery = runtime.ref("Delivery", delivery_id)
    await delivery.start(timestamp=1010.0)
    print(f"delivery {delivery_id} in transit with {len(cut_ids)} cuts; "
          f"in-transit cuts per index: {await platform.cuts_held_by('dist-nl')}")
    await delivery.complete(timestamp=1050.0)
    await scheduler.sleep(1)

    retailer = runtime.ref("Retailer", "ret-sm")
    product_id = await retailer.create_product(cut_ids[:2], timestamp=1100.0,
                                               product_kind="rib-eye twin pack")
    await retailer.sell_product(product_id, timestamp=1200.0)

    # -- the consumer trace -------------------------------------------------------
    graph = await build_product_trace_graph(platform.db, product_id)
    summary = summarize_trace(graph, product_id)
    print(f"consumer trace of {product_id}:")
    print(f"  origin farms: {summary['origin_farms']}")
    print(f"  entities in provenance: {summary['entities']}")

    # -- the same chain through model B, counting messages (§4.3) ------------------
    await runtime.ref("SlaughterhouseB", "shb").setup("Crown B")
    await runtime.ref("DistributorB", "distb").setup("Logistics B")
    await runtime.ref("RetailerB", "retb").setup("Mart B")
    before = runtime.stats.asks + runtime.stats.tells
    shb = runtime.ref("SlaughterhouseB", "shb")
    b_cuts = await shb.slaughter_cow("cow-2", timestamp=2000.0, cuts=4)
    await shb.ship_cuts(b_cuts, "distb", 2010.0)
    await runtime.ref("DistributorB", "distb").deliver_cuts(b_cuts, "retb", 2050.0)
    retb = runtime.ref("RetailerB", "retb")
    b_product = await retb.create_product(b_cuts[:2], timestamp=2100.0)
    b_trace = await retb.trace_product(b_product)
    model_b_messages = runtime.stats.asks + runtime.stats.tells - before
    print(f"model B ran the same chain in {model_b_messages} messages; "
          f"trace chains: {[link['holder'] for link in b_trace['cuts'][0]['chain']]}")


if __name__ == "__main__":
    scheduler = Scheduler()
    config = RuntimeConfig(default_method_cost=0.0001, activation_cost=0.0002)
    runtime = AodbRuntime(
        scheduler, config=config, network=Network(scheduler, lan=ConstantLatency(0.0005))
    )
    runtime.add_silo("silo-1", cores=4)
    runtime.add_silo("silo-2", cores=4)
    platform = CattlePlatform(AodbDatabase(runtime))
    scheduler.run_until_complete(main(scheduler, platform))
    print("supply chain example complete")

"""cattle_txn — case study 2: concurrent 2PL ownership transfers beside queries.

Two 4-core silos, 64 farmers, 2 000 cows.  Cohorts of 32 concurrent
``sell_cow_transactional`` transfers run on disjoint farmer pairs, plus a
small hot pair (two transfers in the same direction between farm-0 and
farm-1 per cohort) that forces lock waits but can never deadlock or reach
the lock timeout; a few closed-loop readers issue indexed queries.  The only
user of ``aodb.transactions`` / ``index`` / ``query`` and of a non-SHM
``RuntimeConfig`` (no batching, no fast path): the guard for runtime
refactors that only look at SHM.
"""

from __future__ import annotations

from repro import AodbDatabase, AodbRuntime, RuntimeConfig, Scheduler
from repro.bench.calibration import LAN_LATENCY_SECONDS
from repro.cattle import CattlePlatform
from repro.kernel import RngRegistry
from repro.net import ConstantLatency, Network
from repro.obs import Profiler, Tracer

from ..deploy import TRACE_SPAN_CAP, Deployment
from ..loadgen import closed_loop_client
from .base import Audit, RuntimeWorkload, scaled

FARMERS = 64
COWS = 2000
COHORT = 32
HOT_PER_COHORT = 2
COHORTS = 150
READERS = 4
QUERIES_PER_READER = 250
QUERY_LIMIT = 10
SILO_CORES = 4
START_JITTER = 0.001
THINK_RANGE = (0.002, 0.006)

TXN_METHODS = ("remove_cow", "add_cow", "set_owner", "__txn_snapshot__")


def farm(index: int) -> str:
    return f"farm-{index}"


class CattleTxn(RuntimeWorkload):
    name = "cattle_txn"
    why = (
        "2PL ownership transfers + indexed queries on a non-SHM runtime config: "
        "sole user of aodb transactions/index/query, guard for SHM-only refactors"
    )
    rate_window = None
    write_kinds = ("txn",)
    read_kinds = ("query",)

    def setup(self) -> None:
        rng = self.rng
        self.cows = scaled(COWS, self.scale, floor=FARMERS * 4)
        self.cohorts = scaled(COHORTS, self.scale, floor=8)
        self.readers = scaled(READERS, self.scale, floor=2)
        self.queries_per_reader = scaled(QUERIES_PER_READER, self.scale, floor=20)
        scheduler = self.scheduler = Scheduler()
        config = RuntimeConfig(
            default_method_cost=0.0002,
            activation_cost=0.0005,
            copy_messages=False,
            idle_timeout=3600.0,
            collection_interval=600.0,
            seed=self.seed,
        )
        registry = RngRegistry(self.seed)
        runtime = AodbRuntime(
            scheduler,
            config=config,
            network=Network(
                scheduler, rng=registry, lan=ConstantLatency(LAN_LATENCY_SECONDS)
            ),
            rng=registry,
            tracer=Tracer(enabled=self.tracing, max_spans=TRACE_SPAN_CAP),
            profiler=Profiler(enabled=self.profiling),
        )
        for index in range(2):
            runtime.add_silo(f"silo-{index}", cores=SILO_CORES)
        database = AodbDatabase(runtime)
        platform = self.platform = CattlePlatform(database, with_model_b=False)
        self.dep = Deployment(scheduler, runtime, database, platform)

        herds: list[list[str]] = [[] for _ in range(FARMERS)]
        for cow in range(self.cows):
            herds[cow % FARMERS].append(f"cow-{cow}")

        async def provision() -> None:
            for index in range(FARMERS):
                await platform.register_farmer(farm(index), f"Farm {index}")
            for index, herd in enumerate(herds):
                for cow_id in herd:
                    await platform.register_cow(cow_id, farm(index))

        scheduler.run_until_complete(provision())
        for silo in runtime.silos():
            silo.cpu.reset_accounting()

        # The whole schedule is an input: drawn from the seed against the
        # driver's own ownership ledger, which ends as the reference state.
        self.schedule = [self._draw_cohort(rng, herds, n) for n in range(self.cohorts)]
        self.reference_herds = herds
        self.queries = [
            [(rng.randrange(FARMERS), rng.uniform(*THINK_RANGE))
             for _ in range(self.queries_per_reader)]
            for _ in range(self.readers)
        ]
        self.query_results: list[tuple] = []

    @staticmethod
    def _draw_cohort(rng, herds: list[list[str]], cohort: int) -> list[tuple]:
        """32 transfers: disjoint pairs over farms 2.., two on the hot pair."""
        transfers = []
        others = list(range(2, FARMERS))
        rng.shuffle(others)
        for slot in range(COHORT - HOT_PER_COHORT):
            seller, buyer = others[2 * slot], others[2 * slot + 1]
            if not herds[seller]:
                seller, buyer = buyer, seller
            transfers.append((seller, buyer))
        # Same direction for both hot transfers: they queue on the same two
        # locks in the same order, so they wait but cannot deadlock.
        hot = (0, 1) if cohort % 2 == 0 else (1, 0)
        transfers.extend([hot] * HOT_PER_COHORT)
        drawn = []
        for seller, buyer in transfers:
            cow_id = herds[seller].pop(rng.randrange(len(herds[seller])))
            drawn.append((cow_id, seller, buyer, rng.uniform(0.0, START_JITTER)))
        for cow_id, _seller, buyer, _jitter in drawn:
            herds[buyer].append(cow_id)
        return drawn

    def is_ack_root(self, span) -> bool:
        return span.name.rsplit(".", 1)[-1] in TXN_METHODS

    async def _transfer(self, cohort: int, transfer: tuple) -> None:
        scheduler = self.scheduler
        cow_id, seller, buyer, jitter = transfer
        await scheduler.sleep(jitter)
        sent = scheduler.now
        self.attempted += 1
        committed = await self.platform.sell_cow_transactional(
            cow_id, farm(seller), farm(buyer), float(cohort)
        )
        self.recorder.add("txn", sent, scheduler.now - sent)
        if not committed:
            self.failed += 1

    def _reader(self, reader: int):
        database = self.dep.database
        queries = self.queries[reader]

        async def issue(n: int) -> str:
            farmer = farm(queries[n][0])
            rows = await (
                database.query("Cow")
                .where(owner_id=farmer)
                .call("describe")
                .limit(QUERY_LIMIT)
                .run()
            )
            self.query_results.append(
                (len(rows), all(row.value["cow_id"] == row.actor_id for row in rows))
            )
            return "query"

        return closed_loop_client(
            self.scheduler, self.queries_per_reader, issue,
            lambda n: queries[n][1], self.recorder,
        )

    def load(self) -> None:
        scheduler = self.scheduler

        async def cohorts() -> None:
            for index, cohort in enumerate(self.schedule):
                await scheduler.gather(
                    [scheduler.spawn(self._transfer(index, t)) for t in cohort]
                )

        async def main() -> None:
            await scheduler.gather(
                [scheduler.spawn(cohorts(), name="ledger-cohorts")]
                + [scheduler.spawn(self._reader(i)) for i in range(self.readers)]
            )

        self._run_load(main())

    def audit(self) -> list[Audit]:
        runtime = self.dep.runtime

        async def final_state() -> tuple[int, int, int]:
            wrong_owner = 0
            for index, herd in enumerate(self.reference_herds):
                for cow_id in herd:
                    described = await runtime.ref("Cow", cow_id).describe()
                    wrong_owner += described["owner_id"] != farm(index)
            wrong_herd = 0
            listed = 0
            for index, herd in enumerate(self.reference_herds):
                actual = await runtime.ref("Farmer", farm(index)).herd()
                listed += len(actual)
                wrong_herd += sorted(actual) != sorted(herd)
            return wrong_owner, wrong_herd, listed

        wrong_owner, wrong_herd, listed = self.scheduler.run_until_complete(
            final_state()
        )
        commits = self.counts.delta("txn.commits")
        aborts = self.counts.delta("txn.aborts")
        bad_queries = sum(
            1 for size, consistent in self.query_results
            if size > QUERY_LIMIT or not consistent
        )
        expected_txns = self.cohorts * COHORT
        return [
            Audit("every op completed",
                  self.recorder.count("txn") == expected_txns
                  and self.recorder.count("query")
                  == self.readers * self.queries_per_reader),
            Audit("commits + aborts == attempted",
                  commits + aborts == self.attempted,
                  f"{commits:.0f} + {aborts:.0f} vs {self.attempted}"),
            Audit("every transfer committed", self.failed == 0 and aborts == 0,
                  f"{self.failed} returned False, {aborts:.0f} aborts"),
            Audit("owner record == driver's ownership ledger", wrong_owner == 0,
                  f"{wrong_owner} of {self.cows} cows differ"),
            Audit("exactly one herd per cow", wrong_herd == 0 and listed == self.cows,
                  f"{wrong_herd} herds differ; {listed} cows listed of {self.cows}"),
            Audit("queries return <= limit consistent rows", bad_queries == 0,
                  f"{bad_queries} of {len(self.query_results)}"),
        ]


"""The benchmark's four workloads.

Three drive the document store through ``DocumentClient`` /
``CollectionHandle`` on a deployment built by ``build_topology``; the fourth
runs the paper's demo evaluation through ``ChronosControl`` and
``AgentFleet``.  Every workload is one process with one closed-loop client
thread: the next operation is sent when the previous one returned.

For the docstore workloads every input (records, keys, update payloads,
inserted records) is generated from the seed before the timed region that
uses it.  Each workload checks the program's outputs as it goes and at the
end; a failed operation or a failed check counts in ``failed``.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
from array import array
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter
from typing import Any, Callable

from repro.demo import prepare_demo, run_demo
from repro.docstore.client import DocumentClient
from repro.docstore.documents import document_size
from repro.docstore.topology import TopologySpec, build_topology
from repro.workloads.distributions import make_distribution
from repro.workloads.generator import RecordGenerator

RECORDS = 20_000
LOAD_BATCH = 1_000
SCAN_LIMIT = 10
DATABASE, COLLECTION = "benchmark", "usertable"
#: Operations generated (untimed) ahead of each timed chunk.
CHUNK = 250
#: Read-only operations per loaded record run after loading, inside the
#: set-up time, so the measured phase starts with warm caches.
WARMUP_PER_RECORD = 0.1
#: Keys compared against the reference model after the measured phase.
SAMPLED_KEYS = 500


#: Seconds one :func:`reference_loop` takes on the reference machine (about
#: its median on the 2-vCPU machine of the seed baseline).
REFERENCE_LOOP_S = 0.0011
#: Seconds between two samples of the machine's speed.
SPEED_PERIOD_S = 0.1

_REFERENCE_TABLE = {f"user{index}": index for index in range(1024)}
_REFERENCE_KEYS = tuple(_REFERENCE_TABLE)


def reference_loop() -> int:
    """Fixed interpreter work on a small warm table that allocates no
    containers, so neither the program's heap nor its collections of it
    change how long the loop takes -- only the machine's speed does."""
    table, total = _REFERENCE_TABLE, 0
    for __ in range(12):
        for key in _REFERENCE_KEYS:
            if key in table:
                total += table[key] ^ len(key)
    return total


class Speedometer:
    """Samples the machine's speed with :func:`reference_loop`.

    The shared machine's speed drifts by up to 2x over minutes and the
    program's drifts with it; ``slowdown`` (mean loop time over the
    reference) lets a run's rates and times be stated at the reference
    speed.  A sample is the faster of two back-to-back loops.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._last = 0.0

    def sample(self) -> None:
        started = perf_counter()
        reference_loop()
        middle = perf_counter()
        reference_loop()
        self._last = perf_counter()
        self.samples.append(min(middle - started, self._last - middle))
        self.spent += self._last - started

    def maybe_sample(self) -> None:
        if perf_counter() - self._last >= SPEED_PERIOD_S:
            self.sample()

    @property
    def slowdown(self) -> float:
        return statistics.fmean(self.samples) / REFERENCE_LOOP_S


@dataclass
class Stats:
    """What one run measured and checked."""

    #: Seconds per op, by op type; compact, so the samples barely move the
    #: process's peak memory.
    latencies: dict[str, array] = field(default_factory=dict)
    ops: int = 0
    wall: float = 0.0
    failed_ops: int = 0
    checks: int = 0
    failed_checks: int = 0
    errors: list[str] = field(default_factory=list)
    sizes: dict[str, Any] = field(default_factory=dict)
    speed: Speedometer = field(default_factory=Speedometer)

    def check(self, ok: bool, what: str) -> None:
        self.checks += 1
        if not ok:
            self.failed_checks += 1
            if len(self.errors) < 10:
                self.errors.append(what)

    def fail(self, what: str, error: BaseException) -> None:
        self.failed_ops += 1
        if len(self.errors) < 10:
            self.errors.append(f"{what}: {type(error).__name__}: {error}")

    @property
    def attempted(self) -> int:
        return self.ops + self.failed_ops + self.checks

    @property
    def failed(self) -> int:
        return self.failed_ops + self.failed_checks


def percentile(values: list[float], fraction: float) -> float:
    """Linear-interpolated percentile of ``values`` (``fraction`` in [0, 1]).

    The benchmark keeps its own statistics, so a change to the program's
    helpers cannot change how the program is measured.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


# -- docstore workloads ------------------------------------------------------------------


class DocstoreWorkload:
    """Load ``RECORDS`` records into one deployment, then run an op mix."""

    name = ""
    #: The op type whose latency is reported as ``op_mean_us``/``op_p95_us``.
    primary = ""
    spec = TopologySpec()
    engine_options: dict[str, Any] = {}
    indexes: tuple[str, ...] = ("category",)
    #: Deployments built per untraced run; ``setup_s`` is their median.
    setups = 3

    def __init__(self, seed: int, records: int = RECORDS, chunk: int = CHUNK):
        self.seed = seed
        self.records = records
        self.chunk = chunk
        self.generator = RecordGenerator(field_count=10, field_length=100)
        self.keys = make_distribution("zipfian", records)
        record_rng = random.Random(seed)
        self.inputs = [self.generator.record(index, record_rng)
                       for index in range(records)]
        self.op_rng = random.Random(seed + 2)
        self.deployment: Any = None
        self.handle: Any = None
        self.loaded_bytes = sum(document_size(record) for record in self.inputs)

    # -- set-up ---------------------------------------------------------------------

    def set_up(self, on_maintain: Callable[[Callable[[], Any]], Any] | None = None) -> float:
        """Build, load, index and warm one deployment; returns its wall seconds.

        ``on_maintain`` wraps the sharded maintain round (the traced run
        traces it).  Warm-up inputs are generated before the clock starts.
        """
        self.tear_down()
        warm_rng = random.Random(self.seed + 1)
        warm_keys = [self.generator.key(self.keys.next_key(warm_rng))
                     for __ in range(int(self.records * WARMUP_PER_RECORD))]
        gc.collect()
        started = perf_counter()
        self.deployment = build_topology(self.spec, **self.engine_options)
        self.handle = DocumentClient(self.deployment).collection(DATABASE, COLLECTION)
        for start in range(0, self.records, LOAD_BATCH):
            self.handle.insert_many(self.inputs[start:start + LOAD_BATCH])
        for field_path in self.indexes:
            self.handle.create_index(field_path)
        if self.spec.is_sharded:
            maintain = partial(self.deployment.maintain, DATABASE, COLLECTION)
            if on_maintain is None:
                maintain()
            else:
                on_maintain(maintain)
        self.warm_up(warm_keys)
        return perf_counter() - started

    def warm_up(self, keys: list[str]) -> None:
        for key in keys:
            self.handle.find_with_cost({"_id": key})

    def tear_down(self) -> None:
        close = getattr(self.deployment, "close", None)
        if close is not None:
            close()
        self.deployment = self.handle = None

    # -- the measured phase ---------------------------------------------------------------

    def start(self) -> None:
        """Reset the reference state for the freshly loaded deployment."""
        self.logical_bytes = self.loaded_bytes

    def plan(self, count: int) -> list[tuple]:
        raise NotImplementedError

    def execute(self, plan: list[tuple], stats: Stats) -> None:
        raise NotImplementedError

    def run_chunk(self, stats: Stats, plan: list[tuple] | None = None) -> None:
        plan = self.plan(self.chunk) if plan is None else plan
        started = perf_counter()
        self.execute(plan, stats)
        stats.wall += perf_counter() - started
        stats.speed.maybe_sample()

    def finish(self, stats: Stats) -> None:
        """End-of-run checks plus the sizes the run observed."""
        stored = self.handle.stats()
        stats.sizes.update(
            records=self.records,
            logical_bytes=self.logical_bytes,
            stored_bytes=stored.get("storage_bytes", 0),
        )

    def _timed(self, stats: Stats, kind: str) -> array:
        return stats.latencies.setdefault(kind, array("d"))


class YcsbCStandalone(DocstoreWorkload):
    """YCSB-C: 100% ``_id`` point reads on a standalone server.

    The wiredTiger cache holds about a quarter of the data, so this is the
    workload larger than the cache: client copy, fast-id plan, engine read
    and LRU cache, with no write, replication or router work.
    """

    name = "ycsb_c_standalone"
    setups = 5  # its set-up is short, so more of them steady the median
    primary = "read"
    #: A quarter of the ~11 MB the 20k records take stored (compressed);
    #: the cache charges uncompressed bytes, so it holds ~11% of the records.
    engine_options = {"cache_bytes": 2_750_000}

    def plan(self, count: int) -> list[tuple]:
        rng, keys = self.op_rng, self.keys
        return [(index,) for index in (keys.next_key(rng) for __ in range(count))]

    def execute(self, plan: list[tuple], stats: Stats) -> None:
        find = self.handle.find_with_cost
        key_of = self.generator.key
        inputs = self.inputs
        latencies = self._timed(stats, "read")
        for (index,) in plan:
            query = {"_id": key_of(index)}
            started = perf_counter()
            try:
                result = find(query)
            except Exception as error:  # noqa: BLE001 - counted, the run goes on
                stats.fail("read", error)
                continue
            latencies.append(perf_counter() - started)
            stats.ops += 1
            documents = result.documents
            stats.check(len(documents) == 1 and documents[0] == inputs[index],
                        f"read {query}")

    def finish(self, stats: Stats) -> None:
        super().finish(stats)
        stats.check(self.handle.count_documents({}) == self.records, "count_documents")
        cache = self.handle.stats().get("cache", {})
        stats.sizes.update(cache_bytes=self.engine_options["cache_bytes"],
                           hit_ratio=cache.get("hit_ratio", 0.0))


class YcsbAReplset(DocstoreWorkload):
    """YCSB-A: 50% reads and 50% single-field updates on a 3-member replica
    set at ``w="majority"``, with the default cache (the data fits).

    Every update runs the write path on the primary and replays through
    the oplog on both secondaries inside the client's call.
    """

    name = "ycsb_a_replset"
    primary = "update"
    spec = TopologySpec(replicas=3, write_concern="majority")

    def start(self) -> None:
        super().start()
        # The reference model: every record as the updates so far left it.
        self.model = list(self.inputs)
        self.updated: set[int] = set()

    def plan(self, count: int) -> list[tuple]:
        rng, keys, generator = self.op_rng, self.keys, self.generator
        plan = []
        for __ in range(count):
            index = keys.next_key(rng)
            if rng.random() < 0.5:
                plan.append((index, None))
            else:
                plan.append((index, generator.update_fragment(rng)))
        return plan

    def execute(self, plan: list[tuple], stats: Stats) -> None:
        handle, key_of, model = self.handle, self.generator.key, self.model
        reads, updates = self._timed(stats, "read"), self._timed(stats, "update")
        find, update_one = handle.find_with_cost, handle.update_one
        for index, fragment in plan:
            query = {"_id": key_of(index)}
            if fragment is None:
                started = perf_counter()
                try:
                    result = find(query)
                except Exception as error:  # noqa: BLE001
                    stats.fail("read", error)
                    continue
                reads.append(perf_counter() - started)
                stats.ops += 1
                documents = result.documents
                stats.check(len(documents) == 1 and documents[0] == model[index],
                            f"read {query}")
                continue
            started = perf_counter()
            try:
                result = update_one(query, fragment)
            except Exception as error:  # noqa: BLE001
                stats.fail("update", error)
                continue
            updates.append(perf_counter() - started)
            stats.ops += 1
            model[index] = {**model[index], **fragment["$set"]}
            self.updated.add(index)
            stats.check(result.matched_count == 1, f"update {query}")

    def finish(self, stats: Stats) -> None:
        super().finish(stats)
        stats.check(self.handle.count_documents({}) == self.records, "count_documents")
        sample_rng = random.Random(self.seed + 3)
        sample = sorted(self.updated)[:SAMPLED_KEYS // 2]
        sample += sample_rng.sample(range(self.records),
                                    min(SAMPLED_KEYS, self.records) - len(sample))
        for index in sample:
            stored = self.handle.find_one({"_id": self.generator.key(index)})
            stats.check(stored == self.model[index], f"sampled key {index}")


class RangeSharded(DocstoreWorkload):
    """75% ``_id`` range scans, 20% top-k pipelines and 5% inserts on a
    4-shard hash-sharded cluster with the default parallel fan-out.

    Every scan and top-k fans out to all shards through the router and the
    shard executor and is merged; ``$group`` full scans are left out, as one
    takes hundreds of milliseconds and would swamp the mix.
    """

    name = "range_sharded"
    primary = "scan"
    spec = TopologySpec(shards=4, shard_key="_id", shard_strategy="hash")
    indexes = ("category", "counter")

    def start(self) -> None:
        super().start()
        self.sorted_keys = sorted(self.generator.key(index)
                                  for index in range(self.records))
        self.next_index = self.records
        self.inserted = 0
        self.insert_rng = random.Random(self.seed + 4)

    def plan(self, count: int) -> list[tuple]:
        rng, keys, generator = self.op_rng, self.keys, self.generator
        plan: list[tuple] = []
        for __ in range(count):
            roll = rng.random()
            if roll < 0.75:
                plan.append(("scan", generator.key(keys.next_key(rng))))
            elif roll < 0.95:
                plan.append(("topk", keys.next_key(rng)))
            else:
                plan.append(("insert", generator.record(self.next_index, self.insert_rng)))
                self.next_index += 1
        return plan

    def execute(self, plan: list[tuple], stats: Stats) -> None:
        handle, sorted_keys = self.handle, self.sorted_keys
        scans, topks = self._timed(stats, "scan"), self._timed(stats, "topk")
        inserts = self._timed(stats, "insert")
        for kind, argument in plan:
            started = perf_counter()
            try:
                if kind == "scan":
                    result = handle.find_with_cost({"_id": {"$gte": argument}},
                                                   limit=SCAN_LIMIT)
                elif kind == "topk":
                    result = handle.aggregate_with_cost([
                        {"$match": {"counter": {"$gte": argument}}},
                        {"$sort": {"counter": 1}},
                        {"$limit": SCAN_LIMIT},
                    ])
                else:
                    result = handle.insert_one(argument)
            except Exception as error:  # noqa: BLE001
                stats.fail(kind, error)
                continue
            elapsed = perf_counter() - started
            stats.ops += 1
            if kind == "scan":
                scans.append(elapsed)
                position = bisect.bisect_left(sorted_keys, argument)
                expected = sorted_keys[position:position + SCAN_LIMIT]
                stats.check([document["_id"] for document in result.documents] == expected,
                            f"scan from {argument}")
            elif kind == "topk":
                topks.append(elapsed)
                total = self.records + self.inserted
                expected = list(range(argument, min(argument + SCAN_LIMIT, total)))
                stats.check([document["counter"] for document in result.documents]
                            == expected, f"top-k from {argument}")
            else:
                inserts.append(elapsed)
                bisect.insort(sorted_keys, argument["_id"])
                self.inserted += 1
                self.logical_bytes += document_size(argument)
                stats.check(result.inserted_ids == [argument["_id"]],
                            f"insert {argument['_id']}")

    def finish(self, stats: Stats) -> None:
        super().finish(stats)
        stats.check(self.handle.count_documents({}) == self.records + self.inserted,
                    "count_documents")
        stats.sizes.update(inserted=self.inserted)


# -- Chronos ----------------------------------------------------------------------------------

#: The paper's demo evaluation at benchmark size: 2 engines x 5 thread counts.
DEMO_PARAMETERS: dict[str, Any] = {
    "storage_engine": ["wiredtiger", "mmapv1"],
    "threads": {"start": 1, "stop": 16, "step": 2, "scale": "geometric"},
    "record_count": 2_000,
    "operation_count": 4_000,
    "query_mix": "50:50",
    "distribution": "zipfian",
}
DEMO_JOBS = 10
#: Control-plane set-ups timed per run for ``setup_s``.
CONTROL_SETUPS = 21


class ChronosEval:
    """Runs whole demo evaluations (prepare + run) until the time is spent.

    One op is one evaluation job.  The agents' measured-phase reads are
    timed from outside (``CollectionHandle.find_with_cost``) for the read
    latency percentiles.
    """

    name = "chronos_eval"
    primary = "read"

    def __init__(self, seed: int, operation_count: int | None = None,
                 record_count: int | None = None):
        self.seed = seed
        self.parameters = dict(DEMO_PARAMETERS, seed=seed)
        if operation_count is not None:
            self.parameters["operation_count"] = operation_count
        if record_count is not None:
            self.parameters["record_count"] = record_count
        self.throughputs: list[dict[str, float]] = []

    def set_up(self) -> float:
        """Time one control-plane set-up (project, system, experiment, jobs)."""
        gc.collect()
        started = perf_counter()
        prepare_demo(parameters=dict(self.parameters))
        return perf_counter() - started

    def evaluate(self, stats: Stats) -> float:
        """One complete evaluation; returns the wall seconds of ``run_demo``."""
        setup = prepare_demo(parameters=dict(self.parameters))
        started = perf_counter()
        try:
            run_demo(setup)
        except Exception as error:  # noqa: BLE001
            stats.fail("evaluation", error)
            return perf_counter() - started
        elapsed = perf_counter() - started
        report = setup.report
        stats.ops += report.jobs_finished
        stats.failed_ops += report.jobs_failed
        stats.check(report.jobs_finished == DEMO_JOBS,
                    f"{report.jobs_finished} of {DEMO_JOBS} jobs finished")
        results = setup.results
        stats.check(len(results) == DEMO_JOBS, f"{len(results)} results stored")
        expected_ops = self.parameters["operation_count"]
        for result in results:
            stats.check(result.get("operations") == expected_ops,
                        f"result operations {result.get('operations')}")
        throughputs = {_job_key(result): result.get("throughput_ops_per_sec")
                       for result in results}
        if self.throughputs:
            stats.check(throughputs == self.throughputs[0],
                        "simulated throughputs differ from the first evaluation")
        self.throughputs.append(throughputs)
        return elapsed


def _job_key(result: dict[str, Any]) -> str:
    parameters = result.get("parameters", {})
    return f"{parameters.get('storage_engine')}/{parameters.get('threads')}"


DOCSTORE = {workload.name: workload
            for workload in (YcsbCStandalone, YcsbAReplset, RangeSharded)}
NAMES = (*DOCSTORE, ChronosEval.name)

"""The repository's benchmark: one workload per call, or all of them.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload ycsb_c_standalone --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the separate
traced run that reports the per-layer metrics (see ``README.md`` in this
directory).  Every metric is printed by name and unit, and the last line of
standard output is one JSON object::

    {"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}

The program is imported from ``src/`` of the checkout this file lives in;
without it the benchmark exits with an error before printing a result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

#: Chunks per segment of the traced run, which alternates untraced and
#: traced segments so the tracing overhead is measured under the same state.
TRACE_SEGMENT_CHUNKS = 2


def _import_program() -> None:
    """Put the checkout's ``src/`` first on the path and insist on using it."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources at {source}")
    sys.path.insert(0, str(source))
    import repro

    if Path(repro.__file__).resolve().parent != (source / "repro").resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {source}")


def pin_to_one_cpu() -> None:
    """Run the process and every thread it starts on one CPU.

    The program's threads (the sharded cluster's fan-out workers) take
    turns on the interpreter lock, so a second CPU adds no parallelism --
    only cross-CPU wake-ups, whose delay on a shared virtual machine is the
    noisiest part of a fan-out.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})


def load_contract() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def space_amp(stats: Any) -> float:
    """Stored bytes per logical byte of the documents the run wrote."""
    return stats.sizes["stored_bytes"] / stats.sizes["logical_bytes"]


def per_op_type(stats: Any) -> dict[str, tuple[float, str, int]]:
    """``<kind>_p50_us``/``<kind>_p95_us`` for every op type a run timed."""
    from perfbench.workloads import percentile

    report = {}
    for kind, values in sorted(stats.latencies.items()):
        if values:
            report[f"{kind}_p50_us"] = (percentile(values, 0.50) * 1e6, "us", len(values))
            report[f"{kind}_p95_us"] = (percentile(values, 0.95) * 1e6, "us", len(values))
    return report


# -- untraced runs ------------------------------------------------------------------------


def run_docstore(name: str, seed: int, seconds: float,
                 **sizes: int) -> tuple[dict, Any, dict]:
    from perfbench.workloads import DOCSTORE, Stats, percentile

    workload = DOCSTORE[name](seed, **sizes)
    stats = Stats()
    setups = []
    # Each deployment built for ``setup_s`` also serves its share of the
    # measured phase, which spreads the measurement over the whole run: the
    # shared machine's speed drifts over seconds.
    for block in range(1, workload.setups + 1):
        stats.speed.sample()
        setups.append(workload.set_up())
        stats.speed.sample()
        workload.start()
        gc.collect()
        while stats.wall < seconds * block / workload.setups:
            workload.run_chunk(stats)
        workload.finish(stats)
    workload.tear_down()
    primary = stats.latencies.get(workload.primary) or [0.0]
    metrics = {
        # Read before the percentiles' sorted copy can raise the peak.
        "peak_rss_mb": peak_rss_mb(),
        "throughput_ops_s": stats.ops / stats.wall,
        "op_mean_us": statistics.fmean(primary) * 1e6,
        "op_p95_us": percentile(primary, 0.95) * 1e6,
        "setup_s": statistics.median(setups),
    }
    extra = {"space_amp": (space_amp(stats), "ratio"), "setups_s": (setups, "s")}
    return at_reference_speed(metrics, stats.speed, extra), stats, extra


def run_chronos(seed: int, seconds: float, operation_count: int | None = None,
                record_count: int | None = None) -> tuple[dict, Any, dict]:
    from perfbench.workloads import CONTROL_SETUPS, ChronosEval, Stats, percentile

    workload = ChronosEval(seed, operation_count=operation_count,
                           record_count=record_count)
    stats = Stats()
    speed = stats.speed
    speed.sample()
    setups = [workload.set_up() for __ in range(CONTROL_SETUPS)]
    speed.sample()
    reads = stats.latencies.setdefault("read", array("d"))
    elapsed = 0.0
    evaluations = 0
    gc.collect()
    with timed_reads(reads, speed):
        # Two evaluations at least: the second checks the first's results.
        while evaluations < 2 or elapsed < seconds:
            spent = speed.spent
            elapsed += workload.evaluate(stats) - (speed.spent - spent)
            evaluations += 1
    stats.wall = elapsed
    metrics = {
        "peak_rss_mb": peak_rss_mb(),
        "throughput_ops_s": stats.ops / elapsed,
        "op_mean_us": statistics.fmean(reads or [0.0]) * 1e6,
        "op_p95_us": percentile(reads or [0.0], 0.95) * 1e6,
        "setup_s": statistics.median(setups),
    }
    extra = {"jobs_s": (metrics["throughput_ops_s"], "1/s"),
             "evaluations": (evaluations, "count")}
    return at_reference_speed(metrics, speed, extra), stats, extra


#: The time metrics, restated at the reference machine's speed.
TIMES = ("op_mean_us", "op_p95_us", "setup_s")


def at_reference_speed(metrics: dict[str, float], speed: Any, extra: dict) -> dict[str, float]:
    """Rates times, and times divided by, the run's measured slowdown.

    The wall-clock values go to ``extra``, which is printed but not gated.
    """
    slowdown = speed.slowdown
    extra["slowdown"] = (slowdown, "ratio")
    scaled = dict(metrics)
    extra["wall.throughput_ops_s"] = (metrics["throughput_ops_s"], "1/s")
    scaled["throughput_ops_s"] = metrics["throughput_ops_s"] * slowdown
    for name in TIMES:
        extra[f"wall.{name}"] = (metrics[name], name.rsplit("_", 1)[1])
        scaled[name] = metrics[name] / slowdown
    return scaled


class timed_reads:
    """Times every ``CollectionHandle.find_with_cost`` call into ``sink``.

    The Chronos agents run their operation loop inside the program, so the
    latency of their reads is taken at the client boundary instead.
    """

    def __init__(self, sink: array, speed: Any):
        self.sink = sink
        self.speed = speed

    def __enter__(self) -> "timed_reads":
        from repro.docstore.client import CollectionHandle

        original = self.original = CollectionHandle.find_with_cost
        sink, speed = self.sink, self.speed

        def find_with_cost(*args, **kwargs):
            started = perf_counter()
            result = original(*args, **kwargs)
            sink.append(perf_counter() - started)
            speed.maybe_sample()
            return result

        CollectionHandle.find_with_cost = find_with_cost
        return self

    def __exit__(self, *exc_info) -> None:
        from repro.docstore.client import CollectionHandle

        CollectionHandle.find_with_cost = self.original


# -- traced runs ---------------------------------------------------------------------------


def trace_docstore(name: str, seed: int, seconds: float,
                   **sizes: int) -> tuple[dict, Any, dict]:
    from perfbench.tracer import Tracer
    from perfbench.workloads import DOCSTORE, Stats

    workload = DOCSTORE[name](seed, **sizes)
    setup_tracer = Tracer()

    def traced_maintain(maintain: Callable[[], Any]) -> Any:
        with setup_tracer.active():
            return maintain()

    workload.set_up(on_maintain=traced_maintain)
    workload.start()
    tracer = Tracer()
    plain, traced = Stats(), Stats()
    gc.collect()
    while plain.wall + traced.wall < seconds:
        plans = [workload.plan(workload.chunk) for __ in range(2 * TRACE_SEGMENT_CHUNKS)]
        for plan in plans[:TRACE_SEGMENT_CHUNKS]:
            workload.run_chunk(plain, plan)
        with tracer.active():
            for plan in plans[TRACE_SEGMENT_CHUNKS:]:
                workload.run_chunk(traced, plan)
    workload.finish(traced)
    workload.tear_down()
    metrics = layer_metrics(tracer, setup_tracer, ops=traced.ops, jobs=0,
                            overhead=_overhead(plain, traced), space_amp=space_amp(traced))
    return metrics, _combined(plain, traced), {}


def trace_chronos(seed: int, seconds: float, operation_count: int | None = None,
                  record_count: int | None = None) -> tuple[dict, Any, dict]:
    from perfbench.tracer import Tracer
    from perfbench.workloads import ChronosEval, Stats

    workload = ChronosEval(seed, operation_count=operation_count,
                           record_count=record_count)
    tracer = Tracer()
    plain, traced = Stats(), Stats()
    gc.collect()
    while plain.wall + traced.wall < seconds or not traced.ops:
        plain.wall += workload.evaluate(plain)
        with tracer.active():
            traced.wall += workload.evaluate(traced)
    metrics = layer_metrics(tracer, None, ops=traced.ops, jobs=traced.ops,
                            overhead=_overhead(plain, traced), space_amp=0.0)
    return metrics, _combined(plain, traced), {}


def _overhead(plain: Any, traced: Any) -> float:
    """The share of untraced throughput the tracer costs."""
    return 1.0 - (traced.ops / traced.wall) / (plain.ops / plain.wall)


def _combined(plain: Any, traced: Any) -> Any:
    """One ``Stats`` with the ops and checks of both kinds of segment."""
    from perfbench.workloads import Stats

    return Stats(ops=plain.ops + traced.ops,
                 failed_ops=plain.failed_ops + traced.failed_ops,
                 checks=plain.checks + traced.checks,
                 failed_checks=plain.failed_checks + traced.failed_checks,
                 errors=plain.errors + traced.errors, sizes=traced.sizes)


def layer_metrics(tracer: Any, setup_tracer: Any, ops: int, jobs: int,
                  overhead: float, space_amp: float) -> dict[str, float]:
    """The per-layer metrics from a traced measured phase.

    ``ops`` is the traced phase's op count (jobs for ``chronos_eval``); the
    balancer metrics also include the set-up's maintain round.
    """
    spans, counters = tracer.totals()
    if setup_tracer is not None:
        setup_spans, setup_counters = setup_tracer.totals()
    else:
        setup_spans, setup_counters = {}, {}

    def own(layer: str) -> float:
        return spans.get(layer, (0, 0.0, 0.0))[2]

    def total(layer: str) -> float:
        return spans.get(layer, (0, 0.0, 0.0))[1]

    def count(name: str) -> float:
        return counters.get(name, 0)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def us_per_op(seconds: float) -> float:
        return ratio(seconds * 1e6, ops)

    def ms_per_job(layer: str) -> float:
        return ratio(own(layer) * 1e3, jobs)

    writes = count("client.writes")
    cache_lookups = count("cache.hits") + count("cache.misses")
    balancer = spans.get("sharding.balancer", (0, 0.0, 0.0))[2] + setup_spans.get(
        "sharding.balancer", (0, 0.0, 0.0))[2]
    return {
        "client.self_us_per_op": us_per_op(own("client")),
        "documents.clone_us_per_op": us_per_op(total("documents.clone")),
        "documents.clones_per_op": ratio(count("documents.clones"), ops),
        "planner.self_us_per_op": us_per_op(own("planner")),
        "planner.cache_hit_ratio": ratio(count("planner.cached"), count("planner.plans")),
        "matching.compiles_per_op": ratio(count("matching.compiles"), ops),
        "collection.self_us_per_op": us_per_op(own("collection")),
        "collection.examined_per_returned": ratio(count("collection.examined"),
                                                  count("collection.returned")),
        "engine.self_us_per_op": us_per_op(own("engine")),
        "engine.reads_per_op": ratio(count("engine.reads"), ops),
        "engine.writes_per_op": ratio(count("engine.writes"), ops),
        "cache.hit_ratio": ratio(count("cache.hits"), cache_lookups),
        "cache.evictions_per_op": ratio(count("cache.evictions"), ops),
        "update_ops.self_us_per_op": us_per_op(own("update_ops")),
        "documents.freeze_us_per_op": us_per_op(total("documents.freeze")),
        "indexes.self_us_per_op": us_per_op(own("indexes")),
        "indexes.updates_per_write": ratio(count("indexes.updates"), writes),
        "locks.self_us_per_op": us_per_op(own("locks")),
        "locks.wait_us_per_op": us_per_op(count("locks.wait_s")),
        "locks.contentions": count("locks.contentions"),
        "replication.self_us_per_op": us_per_op(own("replication")),
        "replication.oplog_us_per_op": us_per_op(total("replication.oplog")),
        "replication.apply_us_per_op": us_per_op(total("replication.apply")),
        "replication.applies_per_write": ratio(count("replication.applies"), writes),
        "sharding.router.self_us_per_op": us_per_op(own("sharding.router")),
        "sharding.router.shards_per_op": ratio(count("router.shards"), count("router.ops")),
        "sharding.router.targeted_ratio": ratio(count("router.targeted"),
                                                count("router.ops")),
        "sharding.executor.self_us_per_op": us_per_op(own("sharding.executor")),
        "sharding.executor.worker_us_per_op": us_per_op(count("executor.worker_s")),
        "sharding.balancer.self_ms": balancer * 1e3,
        "sharding.balancer.splits": count("balancer.splits")
        + setup_counters.get("balancer.splits", 0),
        "sharding.balancer.migrations": count("balancer.migrations")
        + setup_counters.get("balancer.migrations", 0),
        "aggregation.self_us_per_op": us_per_op(own("aggregation")),
        "workloads.generator.self_ms_per_job": ms_per_job("workloads.generator"),
        "workloads.runner.self_ms_per_job": ms_per_job("workloads.runner"),
        "agents.self_ms_per_job": ms_per_job("agents"),
        "agent.self_ms_per_job": ms_per_job("agent"),
        "rest.self_ms_per_job": ms_per_job("rest"),
        "core.self_ms_per_job": ms_per_job("core"),
        "storage.space_amp": space_amp,
        "trace.traced_ops": float(ops),
        "trace.overhead_frac": overhead,
    }


# -- entry point ---------------------------------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: bool,
        **sizes: Any) -> tuple[dict[str, float], Any, dict]:
    from perfbench.workloads import ChronosEval

    if name == ChronosEval.name:
        runner = trace_chronos if trace else run_chronos
        return runner(seed, seconds, **sizes)
    runner = trace_docstore if trace else run_docstore
    return runner(name, seed, seconds, **sizes)


def result_line(metrics: dict[str, float], units: dict[str, str], stats: Any) -> dict:
    if set(metrics) != set(units):
        raise SystemExit(f"error: metrics {sorted(set(metrics) ^ set(units))} "
                         "differ from BENCHMARK.json")
    return {
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True,
                        help="workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)

    contract = load_contract()
    names = [workload["name"] for workload in contract["workloads"]]
    if arguments.workload == "all":
        return run_all(names, arguments)
    if arguments.workload not in names:
        parser.error(f"unknown workload {arguments.workload!r}; choose from {names}")

    pin_to_one_cpu()
    _import_program()
    sys.path.insert(0, str(ROOT))
    metrics, stats, extra = run(arguments.workload, arguments.seed,
                                arguments.seconds, bool(arguments.trace))
    table = "per_layer" if arguments.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in contract[table]}
    line = result_line(metrics, units, stats)

    print(f"# {arguments.workload} seed={arguments.seed} seconds={arguments.seconds:g} "
          f"trace={arguments.trace}")
    for name, unit in units.items():
        print(f"{name:40s} {metrics[name]:14.4f} {unit}")
    if not arguments.trace:
        for name, (value, unit, samples) in per_op_type(stats).items():
            print(f"{name:40s} {value:14.4f} {unit}  (n={samples})")
        for name, (value, unit) in extra.items():
            print(f"{name:40s} {value} {unit}")
        print(f"{'failed_frac':40s} {stats.failed / max(stats.attempted, 1):14.6f} ratio")
    for name, value in sorted(stats.sizes.items()):
        print(f"size.{name:35s} {value}")
    for error in stats.errors:
        print(f"! {error}")
    print(json.dumps(line))
    return 0


def run_all(names: list[str], arguments: argparse.Namespace) -> int:
    """Every workload in its own process, one after the other."""
    status = 0
    for name in names:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(arguments.seed), "--seconds", str(arguments.seconds),
             "--trace", str(arguments.trace)],
            check=False, stdout=subprocess.PIPE, text=True, timeout=600)
        sys.stdout.write(completed.stdout)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())

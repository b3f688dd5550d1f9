"""Tests of the benchmark itself: metrics, tracer accounting and checks.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import gc
import json
import threading
import time

import pytest

from perfbench import run, workloads
from perfbench.tracer import Tracer
from perfbench.workloads import (
    ChronosEval,
    RangeSharded,
    Stats,
    YcsbAReplset,
    YcsbCStandalone,
)

SMALL = {"records": 300, "chunk": 50}
SMALL_CHRONOS = {"operation_count": 60, "record_count": 40}


def _sizes(name: str) -> dict:
    return SMALL_CHRONOS if name == ChronosEval.name else SMALL


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_smallest_run_emits_every_metric_with_its_unit(name, trace):
    contract = run.load_contract()
    assert [workload["name"] for workload in contract["workloads"]] == list(workloads.NAMES)
    table = contract["per_layer" if trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in table}

    metrics, stats, __ = run.run(name, 7, 0.01, bool(trace), **_sizes(name))
    line = run.result_line(metrics, units, stats)

    assert line["correct"], stats.errors
    assert line["failed"] == 0 and line["attempted"] >= 1
    assert {name: entry["unit"] for name, entry in line["metrics"].items()} == units
    for entry in line["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    if not trace:
        assert all(line["metrics"][name]["value"] > 0 for name in units)


def test_same_seed_gives_the_same_inputs():
    first, second = YcsbAReplset(3, **SMALL), YcsbAReplset(3, **SMALL)
    assert first.inputs == second.inputs
    first.start()
    second.start()
    assert first.plan(40) == second.plan(40)
    assert YcsbAReplset(4, **SMALL).inputs != first.inputs


# -- tracer accounting ---------------------------------------------------------------------

SLEEP = 0.004


def toy_child() -> None:
    time.sleep(SLEEP)


def toy_worker() -> None:
    time.sleep(3 * SLEEP)


def toy_scatter() -> None:
    worker = threading.Thread(target=toy_worker)
    worker.start()
    worker.join(timeout=5)
    assert not worker.is_alive()


def toy_op() -> None:
    time.sleep(SLEEP)
    toy_child()
    toy_scatter()


def test_self_times_reconcile_with_the_op_wall_across_a_worker_thread():
    here = __name__
    tracer = Tracer(
        layers={"op": [(f"{here}:toy_op", None)],
                "child": [(f"{here}:toy_child", None)],
                "executor": [(f"{here}:toy_scatter", None)],
                "worker": [(f"{here}:toy_worker", None)]},
        counters=[], packages=(here,))
    with tracer.active():
        started = time.perf_counter()
        toy_op()
        wall = time.perf_counter() - started
    assert toy_op.__name__ == "toy_op" and not hasattr(toy_op, "__wrapped__")

    spans, __ = tracer.totals()
    caller_self = sum(spans[layer][2] for layer in ("op", "child", "executor"))
    assert caller_self == pytest.approx(spans["op"][1], abs=1e-6)
    assert spans["op"][1] == pytest.approx(wall, rel=0.05, abs=5e-4)
    # The caller's executor span keeps only the hand-off and the wait; the
    # worker thread's span carries the work itself.
    assert spans["worker"][2] >= 3 * SLEEP
    assert spans["executor"][2] == pytest.approx(spans["worker"][1], abs=3e-3)
    assert spans["child"][2] >= SLEEP and spans["op"][2] >= SLEEP
    assert {layer: spans[layer][0] for layer in spans} == {
        "op": 1, "child": 1, "executor": 1, "worker": 1}


# -- every correctness check rejects an injected wrong result ---------------------------------


class _Corrupting:
    """A collection handle whose ``method`` results pass through ``corrupt``."""

    def __init__(self, handle, method, corrupt):
        self._handle, self._method, self._corrupt = handle, method, corrupt

    def __getattr__(self, name):
        attribute = getattr(self._handle, name)
        if name != self._method:
            return attribute

        def corrupted(*args, **kwargs):
            return self._corrupt(attribute(*args, **kwargs))
        return corrupted


def _run_corrupted(workload, method, corrupt) -> Stats:
    workload.set_up()
    workload.start()
    stats = Stats()
    workload.handle = _Corrupting(workload.handle, method, corrupt)
    workload.run_chunk(stats)
    workload.finish(stats)
    workload.tear_down()
    return stats


def _reverse(result):
    result.documents = result.documents[::-1]
    return result


def _shift_first(field):
    def corrupt(result):
        if result.documents:
            result.documents = [dict(result.documents[0],
                                     **{field: result.documents[0][field] + "x"
                                        if isinstance(result.documents[0][field], str)
                                        else result.documents[0][field] + 1})]
        return result
    return corrupt


def _unmatched(result):
    result.matched_count = 0
    return result


@pytest.mark.parametrize("factory, method, corrupt", [
    (YcsbCStandalone, "find_with_cost", _shift_first("field0")),
    (YcsbCStandalone, "count_documents", lambda count: count + 1),
    (YcsbAReplset, "find_with_cost", _shift_first("field3")),
    (YcsbAReplset, "update_one", _unmatched),
    (YcsbAReplset, "find_one", lambda document: dict(document, field1="stale")),
    (RangeSharded, "find_with_cost", _reverse),
    (RangeSharded, "aggregate_with_cost", _shift_first("counter")),
    (RangeSharded, "count_documents", lambda count: count - 1),
], ids=["C-read", "C-count", "A-read", "A-update", "A-sampled", "scan-order",
        "topk", "range-count"])
def test_docstore_checks_reject_wrong_results(factory, method, corrupt):
    clean = _run_corrupted(factory(5, **SMALL), "stats", lambda value: value)
    assert clean.failed == 0, clean.errors
    stats = _run_corrupted(factory(5, **SMALL), method, corrupt)
    assert stats.failed_checks > 0


def test_update_check_rejects_a_lost_update():
    workload = YcsbAReplset(5, **SMALL)

    def drop_update(handle):
        class Dropping(_Corrupting):
            def update_one(self, query, update):
                return handle.update_one(query, {"$set": {"counter": -1}})
        return Dropping(handle, None, None)

    workload.set_up()
    workload.start()
    workload.handle = drop_update(workload.handle)
    stats = Stats()
    workload.run_chunk(stats)
    workload.finish(stats)
    workload.tear_down()
    assert stats.failed_checks > 0


def test_insert_check_rejects_a_wrong_id():
    def wrong_id(result):
        result.inserted_ids = ["nobody"]
        return result

    workload = RangeSharded(5, records=300, chunk=400)
    stats = _run_corrupted(workload, "insert_one", wrong_id)
    assert stats.failed_checks > 0


@pytest.mark.parametrize("corruption", ["operations", "throughput", "missing"])
def test_chronos_checks_reject_wrong_results(monkeypatch, corruption):
    real_run_demo = workloads.run_demo
    calls = []

    def corrupted_run_demo(setup):
        real_run_demo(setup)
        calls.append(setup)
        result = setup.results[0]
        if corruption == "operations":
            result["operations"] -= 1
        elif corruption == "missing":
            setup.results.pop()
        elif len(calls) == 2:
            result["throughput_ops_per_sec"] *= 1.01
        return setup

    monkeypatch.setattr(workloads, "run_demo", corrupted_run_demo)
    workload = ChronosEval(5, **SMALL_CHRONOS)
    stats = Stats()
    workload.evaluate(stats)
    workload.evaluate(stats)
    assert stats.failed_checks > 0


def test_layer_table_covers_every_per_layer_metric_once():
    contract = run.load_contract()
    table = json.loads((run.HERE / "layers.json").read_text())
    names = [workload["name"] for workload in contract["workloads"]]
    end_to_end = {metric["name"] for metric in contract["end_to_end"]}
    listed = [name for row in table["rows"] for name in row["metrics"]]
    assert sorted(listed) == sorted(metric["name"] for metric in contract["per_layer"])
    assert sorted(table["workloads"]) == sorted(names)
    for row in table["rows"]:
        for metric, workload in row["moves"]:
            assert metric in end_to_end and workload in names, row["row"]
        assert set(row["flat"]) <= set(names), row["row"]


def test_reference_loop_leaves_the_collector_alone():
    # The speed sample must not depend on the program's heap: a loop that
    # allocated containers would trigger (and time) its garbage collections.
    gc.collect()
    before = gc.get_count()[0]
    for __ in range(10):
        workloads.reference_loop()
    assert gc.get_count()[0] <= before + 1


def test_rates_scale_up_and_times_down_with_the_slowdown():
    speed = workloads.Speedometer()
    speed.samples = [2 * workloads.REFERENCE_LOOP_S]
    measured = {"throughput_ops_s": 100.0, "op_mean_us": 10.0, "op_p95_us": 20.0,
                "setup_s": 4.0, "peak_rss_mb": 50.0}
    extra: dict = {}
    scaled = run.at_reference_speed(measured, speed, extra)
    assert scaled == {"throughput_ops_s": 200.0, "op_mean_us": 5.0, "op_p95_us": 10.0,
                      "setup_s": 2.0, "peak_rss_mb": 50.0}
    assert extra["wall.op_p95_us"] == (20.0, "us") and extra["slowdown"] == (2.0, "ratio")

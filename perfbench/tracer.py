"""Per-layer wall-clock tracing from outside the program.

The tracer wraps the public functions and methods of each layer of the
document store and of Chronos (see :data:`LAYERS`) in timing spans while it
is installed, and restores the originals when it is removed.  Nothing in the
program changes: a span is recorded around each call into a layer.

Each thread keeps its own span stack, so work that ``ShardExecutor`` worker
threads do for a fan-out is attributed to the worker's layers, and the
caller's executor span keeps only the hand-off and the wait.  A layer's
*self* time is the wall time of its spans minus the part covered by their
child spans on the same thread.

Probes count work at the same boundaries (cache hits, index entries, shards
contacted, ...) from the arguments and return values of the wrapped calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
from time import perf_counter
from typing import Any, Callable, Iterable

# -- probes -----------------------------------------------------------------------
#
# A probe runs after its span closed, with the thread state, the span's own
# frame ``[child_seconds, layer, examined]`` and the call's arguments and
# result.  ``state.stack[-1]``, when present, is the caller's frame.

_READ_METHODS = frozenset({"find_with_cost", "find_one", "aggregate",
                           "aggregate_partial", "count_documents"})


def _count(name: str, amount: int = 1) -> Callable:
    def probe(state, frame, args, kwargs, result) -> None:
        state.counters[name] = state.counters.get(name, 0) + amount
    return probe


def _probe_engine_read(state, frame, args, kwargs, result) -> None:
    counters = state.counters
    counters["engine.reads"] = counters.get("engine.reads", 0) + 1
    for caller in reversed(state.stack):
        if caller[1] == "collection":
            caller[2] += 1  # one candidate examined by the collection call
            break


def _probe_engine_batch(state, frame, args, kwargs, result) -> None:
    counters = state.counters
    counters["engine.writes"] = counters.get("engine.writes", 0) + len(args[1])


def _probe_collection_read(state, frame, args, kwargs, result) -> None:
    counters = state.counters
    documents = getattr(result, "documents", None)
    if documents is None:
        returned = 0 if result is None or isinstance(result, int) else 1
    else:
        returned = len(documents)
    counters["collection.examined"] = counters.get("collection.examined", 0) + frame[2]
    counters["collection.returned"] = counters.get("collection.returned", 0) + returned


def _probe_plan(state, frame, args, kwargs, result) -> None:
    counters = state.counters
    counters["planner.plans"] = counters.get("planner.plans", 0) + 1
    if result.cache_state in ("hit", "fast_id"):
        counters["planner.cached"] = counters.get("planner.cached", 0) + 1


def _probe_lock_stats(state, frame, args, kwargs, result) -> None:
    waited = args[1]
    if waited:
        counters = state.counters
        counters["locks.wait_s"] = counters.get("locks.wait_s", 0.0) + waited
        counters["locks.contentions"] = counters.get("locks.contentions", 0) + 1


def _probe_router(state, frame, args, kwargs, result) -> None:
    # Only the outermost router call of an operation counts (insert_many
    # re-enters insert_one per document).
    if state.stack and state.stack[-1][1] == "sharding.router":
        return
    costs = getattr(result, "shard_costs", None)
    if not costs:
        return
    shards = sum(1 for name in costs if name != "balancer")
    counters = state.counters
    counters["router.ops"] = counters.get("router.ops", 0) + 1
    counters["router.shards"] = counters.get("router.shards", 0) + shards
    if shards < args[0].cluster.shard_count:
        counters["router.targeted"] = counters.get("router.targeted", 0) + 1


def _probe_scatter(state, frame, args, kwargs, result) -> None:
    walls = result[1]
    counters = state.counters
    counters["executor.worker_s"] = counters.get("executor.worker_s", 0.0) + sum(walls[1:])


def _probe_splits(state, frame, args, kwargs, result) -> None:
    state.counters["balancer.splits"] = state.counters.get("balancer.splits", 0) + result


def _probe_migrations(state, frame, args, kwargs, result) -> None:
    state.counters["balancer.migrations"] = (
        state.counters.get("balancer.migrations", 0) + len(result))


def _probe_apply(state, frame, args, kwargs, result) -> None:
    state.counters["replication.applies"] = (
        state.counters.get("replication.applies", 0) + 1)


def _counted_get(original: Callable, get_state: Callable) -> Callable:
    @functools.wraps(original)
    def counted_get(*args, **kwargs):
        result = original(*args, **kwargs)
        key = "cache.hits" if result[0] else "cache.misses"
        counters = get_state().counters
        counters[key] = counters.get(key, 0) + 1
        return result
    return counted_get


def _counted_put(original: Callable, get_state: Callable) -> Callable:
    @functools.wraps(original)
    def counted_put(cache, *args, **kwargs):
        before = cache.stats.evictions
        result = original(cache, *args, **kwargs)
        evicted = cache.stats.evictions - before
        if evicted:
            counters = get_state().counters
            counters["cache.evictions"] = counters.get("cache.evictions", 0) + evicted
        return result
    return counted_put


# -- the layer table -------------------------------------------------------------------
#
# ``layer -> [(target, probe), ...]``.  A target is ``module:function``,
# ``module:Class`` (every public method the class defines) or
# ``module:Class.name1,name2``.  Span names are the layer names the metrics
# use; ``documents.clone`` and ``documents.freeze`` are split out of the
# layers that call them because the metrics report them separately.

_DS = "repro.docstore"

LAYERS: dict[str, list[tuple[str, Callable | None]]] = {
    "client": [(f"{_DS}.client:CollectionHandle.insert_one,insert_many,update_one,"
                "update_many,delete_one,delete_many", _count("client.writes")),
               (f"{_DS}.client:CollectionHandle.find_one,find,find_with_cost,"
                "find_cursor,aggregate,aggregate_with_cost,distinct,explain,"
                "count_documents,create_index,stats", None),
               (f"{_DS}.client:DocumentClient.record_latency,collection", None)],
    "documents.clone": [(f"{_DS}.documents:clone_document", _count("documents.clones"))],
    "documents.freeze": [(f"{_DS}.documents:freeze_document", None),
                         (f"{_DS}.documents:measure_document", None)],
    "planner": [(f"{_DS}.planner:QueryPlanner.plan", _probe_plan),
                (f"{_DS}.planner:QueryPlanner.invalidate_cache,explain", None)],
    "matching": [(f"{_DS}.matching:compile_query", _count("matching.compiles")),
                 (f"{_DS}.matching:compile_shape", _count("matching.compiles"))],
    "collection": [(f"{_DS}.collection:Collection.{name}", _probe_collection_read)
                   for name in sorted(_READ_METHODS)]
                  + [(f"{_DS}.collection:Collection.insert_one,insert_many,update_one,"
                      "update_many,replace_one,delete_one,delete_many,create_index,"
                      "drop_index,distinct,stats", None)],
    "engine": [(f"{_DS}.{module}:{cls}.read", _probe_engine_read)
               for module, cls in (("wiredtiger", "WiredTigerEngine"),
                                   ("mmapv1", "MmapV1Engine"))]
              + [(f"{_DS}.{module}:{cls}.{name}", _count("engine.writes"))
                 for module, cls in (("wiredtiger", "WiredTigerEngine"),
                                     ("mmapv1", "MmapV1Engine"))
                 for name in ("insert", "update", "delete")]
              + [(f"{_DS}.{module}:{cls}.insert_batch", _probe_engine_batch)
                 for module, cls in (("wiredtiger", "WiredTigerEngine"),
                                     ("mmapv1", "MmapV1Engine"))]
              + [(f"{_DS}.{module}:{cls}.peek,count,storage_bytes,statistics", None)
                 for module, cls in (("wiredtiger", "WiredTigerEngine"),
                                     ("mmapv1", "MmapV1Engine"))],
    "update_ops": [(f"{_DS}.update_ops:apply_update", None)],
    "indexes": [(f"{_DS}.indexes:IndexCatalog.add_document,remove_document,create,drop",
                 None),
                (f"{_DS}.indexes:OrderedSecondaryIndex.add,remove", None),
                (f"{_DS}.indexes:SecondaryIndex.add,remove", _count("indexes.updates"))],
    "locks": [(f"{_DS}.locks:_LockGuard.__enter__,__exit__", None),
              (f"{_DS}.locks:_DocumentWriteGuard.__enter__,__exit__", None),
              (f"{_DS}.locks:LockStats.record", _probe_lock_stats)],
    "replication": [(f"{_DS}.replication.replica_set:ReplicaSet.primary_write,"
                     "routed_read,catch_up_member,create_index,require_primary", None),
                    (f"{_DS}.replication.member:ReplicaSetMember.apply_entries", None)],
    "replication.oplog": [(f"{_DS}.replication.oplog:Oplog.append,entries_after", None)],
    "replication.apply": [(f"{_DS}.replication.oplog:apply_entry", _probe_apply)],
    "sharding.router": [(f"{_DS}.sharding.router:QueryRouter", _probe_router)],
    "sharding.executor": [(f"{_DS}.sharding.executor:ShardExecutor.scatter", _probe_scatter),
                          (f"{_DS}.sharding.executor:ShardExecutor.run_serial", None)],
    "sharding.balancer": [(f"{_DS}.sharding.cluster:ShardedCluster.maintain,auto_maintain",
                           None),
                          (f"{_DS}.sharding.cluster:ShardedCluster.split_chunks",
                           _probe_splits),
                          (f"{_DS}.sharding.cluster:ShardedCluster.balance",
                           _probe_migrations)],
    "aggregation": [(f"{_DS}.aggregation:{name}", None)
                    for name in ("execute_pipeline", "execute_partial",
                                 "merge_shard_streams", "combine_partial_groups",
                                 "split_pipeline")],
    "workloads.generator": [("repro.workloads.generator:RecordGenerator", None),
                            ("repro.workloads.distributions:ZipfianGenerator.next_key,"
                             "next_rank,grow", None)],
    "workloads.runner": [("repro.workloads.runner:DocumentBenchmark", None)],
    "agents": [("repro.agents.mongo_agent:MongoAgent", None)],
    "agent": [("repro.agent.runner:AgentRunner", None),
              ("repro.agent.connection:AgentConnection", None),
              ("repro.agent.fleet:AgentFleet", None)],
    "rest": [("repro.rest.client:RestClient", None)],
    "core": [(f"repro.core.{module}:{cls}", None) for module, cls in (
        ("control", "ChronosControl"), ("scheduler", "Scheduler"),
        ("jobs", "JobService"), ("results", "ResultService"),
        ("evaluations", "EvaluationService"), ("experiments", "ExperimentService"),
        ("deployments", "DeploymentService"), ("systems", "SystemService"),
        ("projects", "ProjectService"), ("users", "UserService"),
        ("events", "EventService"), ("logs", "LogService"),
        ("archive", "ArchiveService"), ("access", "AccessControl"),
        ("failure", "FailureHandler"), ("repository", "Repository"))],
}

#: Counted without a span of their own: their time stays with the engine.
COUNTERS: list[tuple[str, Callable]] = [
    (f"{_DS}.cache:LruCache.get", _counted_get),
    (f"{_DS}.cache:LruCache.put", _counted_put),
]


class _ThreadState:
    __slots__ = ("stack", "spans", "counters")

    def __init__(self) -> None:
        self.stack: list[list] = []
        # layer -> [calls, total_seconds, self_seconds]
        self.spans: dict[str, list] = {}
        self.counters: dict[str, float] = {}


class Tracer:
    """Installs timing spans around every target of a layer table.

    Use :meth:`active` (a context manager) around the code to trace; spans
    and counters accumulate across activations.
    """

    def __init__(self, layers: dict[str, list[tuple[str, Callable | None]]] | None = None,
                 counters: Iterable[tuple[str, Callable]] | None = None,
                 packages: tuple[str, ...] = ("repro",)):
        self.layers = LAYERS if layers is None else layers
        self.counters = COUNTERS if counters is None else list(counters)
        # Modules whose imported names are rebound when a function is wrapped.
        self.packages = packages
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._restore: list[tuple[Any, str, Any]] = []

    # -- activation ---------------------------------------------------------------------

    def active(self) -> "_Activation":
        return _Activation(self)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for layer, targets in self.layers.items():
            for target, probe in targets:
                for owner, name, raw in _resolve(target):
                    self._patch(owner, name, raw, self._span(layer, probe))
        for target, counted in self.counters:
            for owner, name, raw in _resolve(target):
                self._patch(owner, name, raw,
                            functools.partial(counted, get_state=self._state))

    def uninstall(self) -> None:
        for owner, name, raw in reversed(self._restore):
            setattr(owner, name, raw)
        self._restore.clear()

    # -- results ----------------------------------------------------------------------------

    def totals(self) -> tuple[dict[str, list], dict[str, float]]:
        """Spans (``layer -> [calls, total_s, self_s]``) and counters, summed
        over every thread that recorded any."""
        spans: dict[str, list] = {}
        counters: dict[str, float] = {}
        with self._states_lock:
            states = list(self._states)
        for state in states:
            for layer, (calls, total, own) in list(state.spans.items()):
                merged = spans.setdefault(layer, [0, 0.0, 0.0])
                merged[0] += calls
                merged[1] += total
                merged[2] += own
            for name, value in list(state.counters.items()):
                counters[name] = counters.get(name, 0) + value
        return spans, counters

    # -- wrappers ---------------------------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._states_lock:
                self._states.append(state)
        return state

    def _span(self, layer: str, probe: Callable | None) -> Callable:
        get_state = self._state

        def wrap(original: Callable) -> Callable:
            @functools.wraps(original)
            def span(*args, **kwargs):
                state = get_state()
                stack = state.stack
                frame = [0.0, layer, 0]
                stack.append(frame)
                started = perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - started
                    stack.pop()
                    if stack:
                        stack[-1][0] += elapsed
                    totals = state.spans.get(layer)
                    if totals is None:
                        totals = state.spans[layer] = [0, 0.0, 0.0]
                    totals[0] += 1
                    totals[1] += elapsed
                    totals[2] += elapsed - frame[0]
                if probe is not None:
                    probe(state, frame, args, kwargs, result)
                return result
            return span
        return wrap

    def _patch(self, owner: Any, name: str, raw: Any, wrap: Callable) -> None:
        if isinstance(owner, type):
            if isinstance(raw, staticmethod):
                replacement: Any = staticmethod(wrap(raw.__func__))
            elif isinstance(raw, classmethod):
                replacement = classmethod(wrap(raw.__func__))
            else:
                replacement = wrap(raw)
            self._restore.append((owner, name, raw))
            setattr(owner, name, replacement)
            return
        # A module-level function: rebind it in every module that imported it.
        wrapped = wrap(raw)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if namespace is None or not module.__name__.startswith(self.packages):
                continue
            for attribute, value in list(namespace.items()):
                if value is raw:
                    self._restore.append((module, attribute, raw))
                    setattr(module, attribute, wrapped)


class _Activation:
    def __init__(self, tracer: Tracer):
        self._tracer = tracer

    def __enter__(self) -> Tracer:
        self._tracer.install()
        return self._tracer

    def __exit__(self, *exc_info) -> None:
        self._tracer.uninstall()


def _resolve(target: str) -> list[tuple[Any, str, Any]]:
    """``(owner, attribute, raw object)`` for each callable a target names."""
    module_name, __, path = target.partition(":")
    module = importlib.import_module(module_name)
    owner_name, __, names = path.partition(".")
    owner = getattr(module, owner_name)
    if not isinstance(owner, type):
        return [(module, owner_name, owner)]
    if names:
        wanted = names.split(",")
    else:
        wanted = [name for name in vars(owner) if not name.startswith("_")]
    resolved = []
    for name in wanted:
        raw = vars(owner).get(name)
        if raw is None:
            raise AttributeError(f"{target}: {owner_name} defines no {name!r}")
        function = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
        if not inspect.isfunction(function) or inspect.isgeneratorfunction(function):
            continue  # properties, constants and generators are not spans
        resolved.append((owner, name, raw))
    return resolved

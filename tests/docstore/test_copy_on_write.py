"""Copy-on-write safety: external mutation can never corrupt stored state.

The hot-path overhaul removed every defensive ``deepcopy`` from the engines;
safety now rests on two invariants this suite pins down:

* the **write boundary** freezes one canonical copy per write, so mutating a
  document *after* handing it to ``insert`` cannot change the store, and
* the **client surface** (``find`` / ``find_one`` / cursor iteration /
  ``find_with_cost`` on a :class:`~repro.docstore.client.CollectionHandle`)
  returns defensive copies, so mutating a returned document -- however deeply
  -- cannot change stored data, secondary-index entries, oplog post-images or
  replicated members, on any deployment shape.

Because stored documents are never mutated in place, updates share every
untouched subtree with the previous version, and replicas share the
primary's objects; the last part of this suite pins that sharing, the delta
sizes it enables, and the simulated costs it must not move.
"""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.docstore.client import DocumentClient
from repro.docstore.collection import Collection
from repro.docstore.documents import (
    clone_document,
    document_size,
    freeze_document,
    get_path,
)
from repro.docstore.mmapv1 import MmapV1Engine
from repro.docstore.replication.replica_set import ReplicaSet
from repro.docstore.server import DocumentServer
from repro.docstore.sharding.cluster import ShardedCluster
from repro.docstore.topology import TopologySpec, build_topology
from repro.docstore.update_ops import apply_update
from repro.docstore.wiredtiger import WiredTigerEngine
from repro.errors import DocumentStoreError


def _make_documents(count: int) -> list[dict]:
    return [
        {"_id": f"user{index:04d}", "category": f"cat{index % 5}",
         "n": index, "nested": {"tags": [index, f"t{index}"], "flag": index % 2 == 0}}
        for index in range(count)
    ]


def _mutate_deeply(document: dict) -> None:
    """Trash every mutable layer of a returned document."""
    document["category"] = "corrupted"
    document["n"] = -999
    document["injected"] = {"evil": True}
    nested = document.get("nested")
    if isinstance(nested, dict):
        nested["flag"] = "corrupted"
        tags = nested.get("tags")
        if isinstance(tags, list):
            tags.append("corrupted")
            if tags:
                tags[0] = "corrupted"


def _canonical(documents: list[dict]) -> list[tuple]:
    return sorted((str(doc["_id"]), repr(sorted(doc.items()))) for doc in documents)


DEPLOYMENTS = {
    "standalone": TopologySpec(),
    "sharded": TopologySpec(shards=3, shard_key="_id"),
    "replica_set": TopologySpec(replicas=3, write_concern="majority"),
    "replicated_cluster": TopologySpec(shards=2, replicas=3,
                                       write_concern="majority"),
}


@pytest.fixture(params=sorted(DEPLOYMENTS), name="deployment")
def deployment_fixture(request):
    return request.param, build_topology(DEPLOYMENTS[request.param])


class TestClientSurfaceIsolation:
    """Mutating documents returned by the client surface changes nothing."""

    def _loaded_handle(self, server, count: int = 40):
        client = DocumentClient(server)
        handle = client.collection("db", "users")
        handle.insert_many(_make_documents(count))
        handle.create_index("category")
        return handle

    def test_find_results_are_isolated(self, deployment):
        __, server = deployment
        handle = self._loaded_handle(server)
        baseline = _canonical(handle.find({}))
        for document in handle.find({}):
            _mutate_deeply(document)
        assert _canonical(handle.find({})) == baseline

    def test_find_one_and_find_with_cost_are_isolated(self, deployment):
        __, server = deployment
        handle = self._loaded_handle(server)
        baseline = _canonical(handle.find({}))
        _mutate_deeply(handle.find_one({"_id": "user0003"}))
        for document in handle.find_with_cost({"category": "cat1"}).documents:
            _mutate_deeply(document)
        for document in handle.find_with_cost({"_id": {"$gte": "user0010"}},
                                              limit=5).documents:
            _mutate_deeply(document)
        assert _canonical(handle.find({})) == baseline

    def test_index_entries_survive_mutation(self, deployment):
        """Queries through the secondary index still see the original values."""
        __, server = deployment
        handle = self._loaded_handle(server)
        expected = sorted(doc["_id"] for doc in handle.find({"category": "cat2"}))
        for document in handle.find({"category": "cat2"}):
            _mutate_deeply(document)
        assert sorted(doc["_id"] for doc in handle.find({"category": "cat2"})) == expected
        assert handle.find({"category": "corrupted"}) == []


class TestCursorIsolation:
    def test_cursor_iteration_returns_copies(self):
        server = DocumentServer()
        collection = server.database("db").collection("users")
        collection.insert_many(_make_documents(20))
        baseline = _canonical([doc for doc in collection.find({})])
        for document in collection.find({"n": {"$gte": 0}}).sort("n").limit(10):
            _mutate_deeply(document)
        assert _canonical([doc for doc in collection.find({})]) == baseline

    def test_find_one_returns_copy(self):
        server = DocumentServer()
        collection = server.database("db").collection("users")
        collection.insert_many(_make_documents(5))
        _mutate_deeply(collection.find_one({"_id": "user0001"}))
        fresh = collection.find_one({"_id": "user0001"})
        assert fresh["category"] == "cat1"
        assert fresh["nested"]["tags"] == [1, "t1"]


class TestWriteBoundaryIsolation:
    def test_mutating_inserted_document_after_insert(self):
        """The write boundary froze its own copy: the caller's object is dead."""
        server = DocumentServer()
        collection = server.database("db").collection("users")
        original = {"_id": "a", "nested": {"tags": [1, 2]}, "n": 1}
        collection.insert_one(original)
        original["n"] = -1
        original["nested"]["tags"].append("corrupted")
        stored = collection.find_one({"_id": "a"})
        assert stored["n"] == 1
        assert stored["nested"]["tags"] == [1, 2]

    def test_mutating_batch_documents_after_insert_many(self):
        server = DocumentServer()
        collection = server.database("db").collection("users")
        batch = _make_documents(10)
        collection.insert_many(batch)
        for document in batch:
            _mutate_deeply(document)
        assert collection.count_documents({"category": "corrupted"}) == 0
        assert collection.count_documents({}) == 10


class TestReplicationIsolation:
    def test_oplog_post_images_survive_client_mutation(self):
        replica_set = ReplicaSet(members=3, write_concern="majority")
        client = DocumentClient(replica_set)
        handle = client.collection("db", "users")
        handle.insert_many(_make_documents(15))
        handle.update_one({"_id": "user0003"}, {"$set": {"n": 1000}})
        for document in handle.find({}):
            _mutate_deeply(document)
        for entry in replica_set.oplog:
            if entry.document is not None:
                assert entry.document.get("category") != "corrupted"
                nested = entry.document.get("nested") or {}
                assert "corrupted" not in (nested.get("tags") or [])

    def test_secondaries_unaffected_by_client_mutation(self):
        replica_set = ReplicaSet(members=3, write_concern="majority")
        client = DocumentClient(replica_set)
        handle = client.collection("db", "users")
        handle.insert_many(_make_documents(15))
        for document in handle.find({}):
            _mutate_deeply(document)
        primary = replica_set.require_primary()
        for member in replica_set.members:
            if member is primary:
                continue
            docs = member.server.database("db").collection("users") \
                .find_with_cost({}).documents
            assert all(doc["category"].startswith("cat") for doc in docs)


class TestShardedIsolation:
    def test_router_merge_documents_are_isolated(self):
        cluster = ShardedCluster(shards=4)
        client = DocumentClient(cluster)
        handle = client.collection("db", "users")
        handle.insert_many(_make_documents(60))
        baseline = _canonical(handle.find({}))
        # A limited multi-shard range scan exercises the router's merge path.
        for document in handle.find_with_cost({"_id": {"$gte": "user0000"}},
                                              limit=25).documents:
            _mutate_deeply(document)
        assert _canonical(handle.find({})) == baseline


operation_keys = st.integers(0, 15)
payloads = st.dictionaries(
    st.sampled_from(["category", "n", "extra"]),
    st.one_of(st.integers(-20, 20), st.text(alphabet="abc", max_size=4),
              st.lists(st.integers(0, 5), max_size=3)),
    max_size=3,
)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(operation_keys, payloads), min_size=1, max_size=25))
def test_property_client_mutation_never_leaks(operations):
    """For any CRUD mix, trashing every returned document changes nothing."""
    server = DocumentServer()
    reference = DocumentServer()
    client = DocumentClient(server)
    handle = client.collection("db", "c")
    reference_collection = reference.database("db").collection("c")
    live: set[str] = set()
    for key, payload in operations:
        doc_id = f"d{key}"
        if doc_id in live:
            handle.update_one({"_id": doc_id}, {"$set": payload})
            reference_collection.update_one({"_id": doc_id}, {"$set": payload})
        else:
            handle.insert_one({"_id": doc_id, **payload})
            reference_collection.insert_one({"_id": doc_id, **payload})
            live.add(doc_id)
        for document in handle.find({}):
            document.clear()
            document["poison"] = [object()]
    mutated = _canonical(handle.find({}))
    expected = _canonical(reference_collection.find_with_cost({}).documents)
    assert mutated == expected


# -- copy-on-write updates ---------------------------------------------------------
#
# Updates copy only the containers on each modified path; every untouched
# subtree is shared by reference with the previous version, across members
# and with the oplog.  Mutating a client copy or an operand reaches none of
# them, and the delta-sized versions keep the byte accounting exact.

SHARING_BASE = {
    "_id": "a", "n": 1, "name": "x",
    "nested": {"deep": {"v": 1}, "side": {"s": [1, 2]}, "tags": [{"t": 1}, {"t": 2}]},
    "other": {"o": [1]},
}
CONTAINER_PATHS = ["nested", "nested.deep", "nested.side", "nested.side.s",
                   "nested.tags", "nested.tags.0", "nested.tags.1", "other", "other.o"]


@pytest.mark.parametrize("update, copied", [
    ({"$set": {"name": "y"}}, set()),
    ({"$set": {"nested.deep.v": 2}}, {"nested", "nested.deep"}),
    ({"$set": {"nested.tags.1.t": 3}}, {"nested", "nested.tags", "nested.tags.1"}),
    ({"$inc": {"n": 1, "nested.deep.v": 1}}, {"nested", "nested.deep"}),
    ({"$unset": {"nested.side.s": "", "missing.path": ""}}, {"nested", "nested.side"}),
    ({"$rename": {"nested.deep": "moved"}}, {"nested"}),
    ({"$push": {"nested.side.s": 3}}, {"nested", "nested.side", "nested.side.s"}),
], ids=["set", "set-dotted", "set-array-path", "inc", "unset", "rename", "push"])
def test_updates_share_untouched_subtrees(update, copied):
    old, __ = freeze_document(SHARING_BASE)
    snapshot = clone_document(old)
    new, size = apply_update(old, document_size(old), update)
    assert size == document_size(new)
    assert old == snapshot  # the previous version is never modified
    assert new is not old
    for path in CONTAINER_PATHS:
        found, value = get_path(new, path)
        if not found:
            continue
        if path in copied:
            assert value is not get_path(old, path)[1], path
        else:
            assert value is get_path(old, path)[1], path
    if "$rename" in update:
        assert new["moved"] is old["nested"]["deep"]


@pytest.mark.parametrize("engine_cls", [WiredTigerEngine, MmapV1Engine],
                         ids=["wiredtiger", "mmapv1"])
def test_stored_versions_share_untouched_subtrees(engine_cls):
    collection = Collection("c", engine_cls())
    collection.insert_one(SHARING_BASE)
    before = collection.engine.peek("a")
    collection.update_one({"_id": "a"}, {"$set": {"nested.deep.v": 5}})
    after = collection.engine.peek("a")
    assert after["nested"]["deep"] == {"v": 5} and before["nested"]["deep"] == {"v": 1}
    assert after["other"] is before["other"]
    assert after["nested"]["tags"] is before["nested"]["tags"]


class TestOperandIsolation:
    """Operands are frozen on the way in: mutating them later changes nothing."""

    EXPECTED = {"_id": "a", "arr": [{"p": [1]}],
                "payload": {"list": [1, 2], "inner": {"k": "v"}}}

    def _assert_everywhere(self, replica_set, handle, expected) -> None:
        for member in replica_set.members:
            stored = member.server.database("db").collection("users").engine.peek("a")
            assert stored == expected
        assert replica_set.oplog.entries[-1].document == expected
        assert handle.find({"payload.list": "corrupted"}) == []

    def test_mutating_operands_and_client_copies(self):
        replica_set = ReplicaSet(members=3, write_concern="majority")
        handle = DocumentClient(replica_set).collection("db", "users")
        handle.create_index("payload.list")
        handle.insert_one({"_id": "a", "arr": []})
        payload = {"list": [1, 2], "inner": {"k": "v"}}
        pushed = {"p": [1]}
        handle.update_one({"_id": "a"}, {"$set": {"payload": payload},
                                         "$push": {"arr": pushed}})
        payload["list"].append("corrupted")
        payload["inner"]["k"] = "corrupted"
        pushed["p"].append("corrupted")
        self._assert_everywhere(replica_set, handle, self.EXPECTED)
        returned = handle.find_one({"_id": "a"})
        returned["payload"]["list"].append("corrupted")
        returned["arr"][0]["p"].clear()
        self._assert_everywhere(replica_set, handle, self.EXPECTED)
        assert [doc["_id"] for doc in handle.find({"payload.list": 2})] == ["a"]

    def test_mutating_a_replacement_document(self):
        replica_set = ReplicaSet(members=3, write_concern="majority")
        handle = DocumentClient(replica_set).collection("db", "users")
        handle.create_index("payload.list")
        handle.insert_one({"_id": "a"})
        replacement = {"arr": [{"p": [1]}],
                       "payload": {"list": [1, 2], "inner": {"k": "v"}}}
        handle.update_one({"_id": "a"}, replacement)
        replacement["payload"]["list"].append("corrupted")
        replacement["arr"].append("corrupted")
        self._assert_everywhere(replica_set, handle, self.EXPECTED)


def _random_update(rng: random.Random, step: int) -> dict:
    value = rng.choice([step, f"s{'x' * rng.randrange(30)}", [step, "v"],
                        {"k": step, "l": [1]}, None, 2.5, True])
    return rng.choice([
        {"$set": {rng.choice(["s", "t", "a.b", "a.c.0", "a.new.x"]): value}},
        {"$unset": {rng.choice(["s", "a.b", "a.c", "a.new"]): ""}},
        {"$inc": {rng.choice(["n", "a.b"]): rng.randrange(-3, 4)}},
        {"$rename": {"s": "t"}} if rng.random() < 0.5 else {"$rename": {"t": "s"}},
        {"$push": {"a.c": value}},
        {"$push": {"a.c": {"$each": [step, step + 1]}}},
        {"$addToSet": {"a.c": rng.randrange(4)}},
        {"$pull": {"a.c": rng.randrange(4)}},
        {"$pop": {"a.c": rng.choice([1, -1])}},
        {"$min": {"n": rng.randrange(-50, 50)}, "$max": {"m": rng.randrange(50)}},
        {"a": {"b": step, "c": [1]}, "s": "r" * rng.randrange(20)},
        {"$set": {"bad.$field": 1}},
    ])


@pytest.mark.parametrize("engine_cls", [WiredTigerEngine, MmapV1Engine],
                         ids=["wiredtiger", "mmapv1"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_delta_sizes_equal_full_measurement(engine_cls, seed):
    """Every delta-sized write stores exactly ``document_size`` of its version."""
    collection = Collection("c", engine_cls())
    collection.create_index("a.b")
    ids = [f"d{index}" for index in range(12)]
    collection.insert_many([{"_id": record_id, "a": {"b": 1, "c": [1]}, "s": "x"}
                            for record_id in ids])
    rng = random.Random(seed)
    for step in range(300):
        record_id = rng.choice(ids)
        before = collection.engine.peek(record_id)
        try:
            collection.update_one({"_id": record_id}, _random_update(rng, step))
        except DocumentStoreError:
            assert collection.engine.peek(record_id) is before  # nothing written
        document, size = collection.engine.peek_with_size(record_id)
        assert size == document_size(document)
    collection.engine.verify_accounting()
    # The changed-key index maintenance left exactly what a rebuild holds.
    documents = [document for __, document, __ in collection.engine.scan()]
    rebuilt = Collection("rebuilt", engine_cls())
    rebuilt.insert_many(documents)
    rebuilt.create_index("a.b")
    index, fresh = collection.indexes.get("a.b"), rebuilt.indexes.get("a.b")
    assert len(index) == len(fresh)
    assert index.ordered_records() == fresh.ordered_records()
    for document in documents:
        found, value = get_path(document, "a.b")
        if found:
            assert index.lookup(value) == fresh.lookup(value)


def _seeded_mix(spec: TopologySpec) -> tuple[float, float]:
    """A seeded update+read mix: (client-visible seconds, every engine's seconds)."""
    deployment = build_topology(spec)
    handle = DocumentClient(deployment).collection("db", "items")
    rng = random.Random(20201)
    handle.create_index("group")
    handle.create_index("nested.tag")
    total = 0.0
    for index in range(60):
        total += handle.insert_one({
            "_id": f"k{index:03d}", "n": index, "group": index % 5,
            "nested": {"tag": f"t{index % 3}", "list": [index]},
            "payload": "x" * (index % 17)}).simulated_seconds
    for step in range(400):
        key = f"k{rng.randrange(60):03d}"
        roll = rng.random()
        if roll < 0.4:
            result = handle.find_with_cost({"_id": key})
        elif roll < 0.55:
            result = handle.update_one(
                {"_id": key}, {"$set": {"payload": "y" * rng.randrange(40)}})
        elif roll < 0.65:
            result = handle.update_one({"_id": key}, {
                "$inc": {"n": 1}, "$set": {"nested.tag": f"t{step % 4}"}})
        elif roll < 0.72:
            result = handle.update_one({"_id": key}, {"$push": {"nested.list": step}})
        elif roll < 0.78:
            result = handle.update_many({"group": rng.randrange(5)},
                                        {"$set": {"touched": step}})
        elif roll < 0.84:
            result = handle.update_one({"_id": key}, {
                "_id": key, "n": step, "group": step % 5, "nested": {"tag": "r"}})
        elif roll < 0.9:
            result = handle.find_with_cost({"group": rng.randrange(5)})
        elif roll < 0.95:
            result = handle.update_one({"_id": key}, {
                "$unset": {"payload": ""}, "$rename": {"touched": "was"}})
        else:
            total += handle.delete_one({"_id": key}).simulated_seconds
            result = handle.insert_one(
                {"_id": key, "n": -1, "group": 1, "nested": {"tag": "t0"}})
        total += result.simulated_seconds
    return total, sum(_engine_seconds(deployment))


def _engine_seconds(deployment):
    if isinstance(deployment, ShardedCluster):
        for shard in deployment.shards:
            yield from _engine_seconds(shard)
    elif isinstance(deployment, ReplicaSet):
        for member in deployment.members:
            yield from _engine_seconds(member.server)
    else:
        yield deployment.database("db").collection("items").engine.costs.total_seconds


# Recorded with the by-query replay and deep-copying updates this write path
# replaced: the simulated axis must not move by a single bit.
GOLDEN_SECONDS = {
    ("wiredtiger", "standalone"): (0.027152667968749874, 0.02704466796874979),
    ("wiredtiger", "replica_set"): (0.3340063359374986, 0.07125200390624964),
    ("wiredtiger", "sharded"): (0.019894042968749904, 0.02725466796875001),
    ("wiredtiger", "replicated_cluster"): (0.32396561718749883, 0.07146200390624995),
    ("mmapv1", "standalone"): (0.029012727539062356, 0.028904727539062272),
    ("mmapv1", "replica_set"): (0.33772645507812443, 0.07683218261718709),
    ("mmapv1", "sharded"): (0.021800696289062397, 0.028994727539062518),
    ("mmapv1", "replicated_cluster"): (0.32775985351562453, 0.07692218261718739),
}


@pytest.mark.parametrize("engine, kind", sorted(GOLDEN_SECONDS))
def test_simulated_seconds_match_golden(engine, kind):
    spec = dataclasses.replace(DEPLOYMENTS[kind], storage_engine=engine)
    assert _seeded_mix(spec) == GOLDEN_SECONDS[engine, kind]

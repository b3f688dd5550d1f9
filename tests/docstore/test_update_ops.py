"""Tests for the update-operator language."""

from __future__ import annotations

import pytest

from repro.docstore import update_ops
from repro.docstore.documents import document_size
from repro.docstore.update_ops import is_update_document
from repro.errors import DocumentStoreError


def apply_update(document: dict, update: dict) -> dict:
    """The updated document; its delta size must equal a full measurement."""
    updated, size = update_ops.apply_update(document, document_size(document), update)
    assert size == document_size(updated)
    return updated

BASE = {"_id": "d1", "count": 5, "name": "widget", "tags": ["a"], "nested": {"x": 1}}


class TestReplacement:
    def test_whole_document_replacement_keeps_id(self):
        replaced = apply_update(BASE, {"name": "other"})
        assert replaced == {"_id": "d1", "name": "other"}

    def test_is_update_document(self):
        assert is_update_document({"$set": {"a": 1}})
        assert not is_update_document({"a": 1})

    def test_original_document_is_not_mutated(self):
        apply_update(BASE, {"$set": {"name": "changed"}})
        assert BASE["name"] == "widget"


class TestSetUnsetRename:
    def test_set_creates_and_overwrites(self):
        updated = apply_update(BASE, {"$set": {"name": "gadget", "new": 1, "nested.y": 2}})
        assert updated["name"] == "gadget"
        assert updated["new"] == 1
        assert updated["nested"] == {"x": 1, "y": 2}

    def test_unset_removes(self):
        updated = apply_update(BASE, {"$unset": {"name": "", "missing": ""}})
        assert "name" not in updated

    def test_rename(self):
        updated = apply_update(BASE, {"$rename": {"name": "title"}})
        assert updated["title"] == "widget"
        assert "name" not in updated

    def test_id_cannot_be_modified(self):
        with pytest.raises(DocumentStoreError):
            apply_update(BASE, {"$set": {"_id": "other"}})

    def test_unknown_operator_raises(self):
        with pytest.raises(DocumentStoreError):
            apply_update(BASE, {"$bogus": {"a": 1}})

    def test_operator_spec_must_be_object(self):
        with pytest.raises(DocumentStoreError):
            apply_update(BASE, {"$set": 5})


class TestNumericOperators:
    def test_inc_existing_and_missing(self):
        updated = apply_update(BASE, {"$inc": {"count": 3, "fresh": 2}})
        assert updated["count"] == 8
        assert updated["fresh"] == 2

    def test_inc_non_numeric_field_raises(self):
        with pytest.raises(DocumentStoreError):
            apply_update(BASE, {"$inc": {"name": 1}})

    def test_inc_requires_numeric_operand(self):
        with pytest.raises(DocumentStoreError):
            apply_update(BASE, {"$inc": {"count": "one"}})

    def test_mul(self):
        assert apply_update(BASE, {"$mul": {"count": 2}})["count"] == 10

    def test_min_max(self):
        assert apply_update(BASE, {"$min": {"count": 3}})["count"] == 3
        assert apply_update(BASE, {"$min": {"count": 9}})["count"] == 5
        assert apply_update(BASE, {"$max": {"count": 9}})["count"] == 9
        assert apply_update(BASE, {"$max": {"count": 3}})["count"] == 5
        assert apply_update(BASE, {"$max": {"absent": 7}})["absent"] == 7


class TestArrayOperators:
    def test_push_scalar_and_each(self):
        updated = apply_update(BASE, {"$push": {"tags": "b"}})
        assert updated["tags"] == ["a", "b"]
        updated = apply_update(BASE, {"$push": {"tags": {"$each": ["b", "c"]}}})
        assert updated["tags"] == ["a", "b", "c"]

    def test_push_creates_array(self):
        assert apply_update(BASE, {"$push": {"log": "x"}})["log"] == ["x"]

    def test_push_to_non_array_raises(self):
        with pytest.raises(DocumentStoreError):
            apply_update(BASE, {"$push": {"count": 1}})

    def test_add_to_set_deduplicates(self):
        updated = apply_update(BASE, {"$addToSet": {"tags": "a"}})
        assert updated["tags"] == ["a"]
        updated = apply_update(BASE, {"$addToSet": {"tags": "b"}})
        assert updated["tags"] == ["a", "b"]

    def test_pull_removes_matching(self):
        doc = {"_id": "x", "tags": ["a", "b", "a"]}
        assert apply_update(doc, {"$pull": {"tags": "a"}})["tags"] == ["b"]

    def test_pop_front_and_back(self):
        doc = {"_id": "x", "tags": ["a", "b", "c"]}
        assert apply_update(doc, {"$pop": {"tags": 1}})["tags"] == ["a", "b"]
        assert apply_update(doc, {"$pop": {"tags": -1}})["tags"] == ["b", "c"]

    def test_pop_empty_is_noop(self):
        doc = {"_id": "x", "tags": []}
        assert apply_update(doc, {"$pop": {"tags": 1}})["tags"] == []

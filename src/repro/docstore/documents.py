"""Document validation, identifier handling and size accounting.

Documents are plain dictionaries restricted to JSON-compatible values (the
subset of BSON the benchmarks use).  Every document carries an ``_id`` field
which is generated when absent.  :func:`document_size` approximates the BSON
wire size; both storage engines use it to drive their space and I/O cost
accounting.

Hot-path helpers (the copy-on-write write/read boundary):

* :func:`freeze_document` validates, deep-copies and sizes a document in a
  *single* recursive walk.  The collection write boundary calls it once per
  write to produce the canonical stored document -- engines store that object
  directly and never copy again.
* :func:`resize_document` sizes the copy-on-write successor of a stored
  document by delta: :func:`~repro.docstore.update_ops.apply_update` copies
  only the containers on each modified path and shares every untouched
  subtree, so only the top-level entries whose value object changed are
  re-measured (and validated).
* :func:`measure_document` validates and sizes a whole document without
  copying it, for a caller that holds an immutable document but not its size.
* :func:`clone_document` is the defensive copy the *client surface* hands
  out -- a fast recursive copy specialised to JSON-like values (no ``copy``
  module dispatch or memoisation), applied exactly once per returned
  document.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any

from repro.errors import DocumentStoreError

_COUNTER = itertools.count(1)
_COUNTER_LOCK = threading.Lock()


def new_object_id() -> str:
    """Return a new unique document identifier.

    Identifiers are sequential (``oid-1``, ``oid-2`` ...) rather than random
    so that test fixtures and workload traces are reproducible.
    """
    with _COUNTER_LOCK:
        value = next(_COUNTER)
    return f"oid-{value}"


def validate_document(document: Any) -> dict[str, Any]:
    """Validate a document: a dict with string keys and JSON-compatible values."""
    if not isinstance(document, dict):
        raise DocumentStoreError(
            f"documents must be dictionaries, got {type(document).__name__}"
        )
    _validate_value(document, path="")
    return document


def _validate_value(value: Any, path: str) -> None:
    if value is None or isinstance(value, (bool, int, float, str)):
        return
    if isinstance(value, list):
        for position, item in enumerate(value):
            _validate_value(item, f"{path}[{position}]")
        return
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise DocumentStoreError(
                    f"document keys must be strings (at {path or '<root>'}), got {key!r}"
                )
            if key.startswith("$"):
                raise DocumentStoreError(
                    f"field names may not start with '$' (at {path}.{key})"
                )
            _validate_value(item, f"{path}.{key}" if path else key)
        return
    raise DocumentStoreError(
        f"unsupported value type {type(value).__name__} at {path or '<root>'}"
    )


def with_id(document: dict[str, Any]) -> dict[str, Any]:
    """Return a shallow copy of ``document`` guaranteed to carry an ``_id``."""
    if "_id" in document:
        return dict(document)
    copied = dict(document)
    copied["_id"] = new_object_id()
    return copied


def document_size(document: Any) -> int:
    """Approximate the serialised size of ``document`` in bytes."""
    if document is None:
        return 1
    if isinstance(document, bool):
        return 1
    if isinstance(document, int):
        return 8
    if isinstance(document, float):
        return 8
    if isinstance(document, str):
        return len(document.encode("utf-8")) + 5
    if isinstance(document, list):
        return 5 + sum(document_size(item) + 2 for item in document)
    if isinstance(document, dict):
        return 5 + sum(
            len(key.encode("utf-8")) + 2 + document_size(value)
            for key, value in document.items()
        )
    raise DocumentStoreError(f"cannot size value of type {type(document).__name__}")


def freeze_document(document: dict[str, Any]) -> tuple[dict[str, Any], int]:
    """Validate, deep-copy and size ``document`` in one recursive walk.

    Returns ``(frozen, size)`` where ``frozen`` is the canonical stored copy
    (sharing nothing mutable with the input) and ``size`` equals
    ``document_size(frozen)``.  This is the write boundary of the
    copy-on-write document protocol: the frozen object is stored by the
    engine as-is, indexed as-is and captured by the oplog as-is, and is
    never mutated in place afterwards.
    """
    if not isinstance(document, dict):
        raise DocumentStoreError(
            f"documents must be dictionaries, got {type(document).__name__}"
        )
    return _freeze_dict(document, "")


def freeze_value(value: Any, path: str) -> Any:
    """Validated deep copy of one field value (an update operand) at ``path``."""
    return _freeze_value(value, path)[0]


def _freeze_dict(value: dict[str, Any], path: str) -> tuple[dict[str, Any], int]:
    copied: dict[str, Any] = {}
    size = 5
    for key, item in value.items():
        if not isinstance(key, str):
            raise DocumentStoreError(
                f"document keys must be strings (at {path or '<root>'}), got {key!r}"
            )
        if key.startswith("$"):
            raise DocumentStoreError(
                f"field names may not start with '$' (at {path}.{key})"
            )
        child, child_size = _freeze_value(item, f"{path}.{key}" if path else key)
        copied[key] = child
        size += len(key.encode("utf-8")) + 2 + child_size
    return copied, size


def _freeze_value(value: Any, path: str) -> tuple[Any, int]:
    if value is None or value is True or value is False:
        return value, 1
    if isinstance(value, str):
        return value, len(value.encode("utf-8")) + 5
    if isinstance(value, (int, float)):
        return value, 8
    if isinstance(value, list):
        copied_list: list[Any] = []
        size = 5
        for position, item in enumerate(value):
            child, child_size = _freeze_value(item, f"{path}[{position}]")
            copied_list.append(child)
            size += child_size + 2
        return copied_list, size
    if isinstance(value, dict):
        return _freeze_dict(value, path)
    raise DocumentStoreError(
        f"unsupported value type {type(value).__name__} at {path or '<root>'}"
    )


def measure_document(document: dict[str, Any]) -> int:
    """Validate and size a document without copying it (one walk).

    For documents that are already immutable but whose size is unknown --
    the delta path (:func:`resize_document`) covers every write that has a
    previous size.  Raises on invalid documents exactly like
    :func:`validate_document`.
    """
    if not isinstance(document, dict):
        raise DocumentStoreError(
            f"documents must be dictionaries, got {type(document).__name__}"
        )
    return _measure_dict(document, "")


_ABSENT = object()


def resize_document(old: dict[str, Any], old_size: int, new: dict[str, Any]) -> int:
    """Size ``new``, a copy-on-write successor of ``old`` (of ``old_size``).

    Sizes are additive per top-level entry, so the new size is the old one
    minus the entries whose value object changed or vanished, plus the new
    entries.  Entries still holding the *same* object are skipped: stored
    documents are never mutated in place, so identity proves they did not
    change.  The new entries are validated as :func:`measure_document`
    would, raising the same :class:`DocumentStoreError` on invalid values.
    """
    size = old_size
    for key, value in old.items():
        if new.get(key, _ABSENT) is not value:
            size -= len(key.encode("utf-8")) + 2 + document_size(value)
    for key, value in new.items():
        if old.get(key, _ABSENT) is not value:
            size += _measure_entry(key, value)
    return size


def _measure_dict(value: dict[str, Any], path: str) -> int:
    size = 5
    for key, item in value.items():
        size += _measure_entry(key, item, path)
    return size


def _measure_entry(key: Any, item: Any, path: str = "") -> int:
    """Validate and size one ``key: item`` entry of the object at ``path``."""
    if not isinstance(key, str):
        raise DocumentStoreError(
            f"document keys must be strings (at {path or '<root>'}), got {key!r}"
        )
    if key.startswith("$"):
        raise DocumentStoreError(
            f"field names may not start with '$' (at {path}.{key})"
        )
    return len(key.encode("utf-8")) + 2 + _measure_value(
        item, f"{path}.{key}" if path else key)


def _measure_value(value: Any, path: str) -> int:
    if value is None or value is True or value is False:
        return 1
    if isinstance(value, str):
        return len(value.encode("utf-8")) + 5
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, list):
        size = 5
        for position, item in enumerate(value):
            size += _measure_value(item, f"{path}[{position}]") + 2
        return size
    if isinstance(value, dict):
        return _measure_dict(value, path)
    raise DocumentStoreError(
        f"unsupported value type {type(value).__name__} at {path or '<root>'}"
    )


def clone_document(value: Any) -> Any:
    """Fast deep copy specialised to validated JSON-like document values.

    This is the single defensive copy the client surface applies to every
    document it returns; scalars are immutable and shared.  Frozen documents
    contain only plain ``dict``/``list`` containers (``freeze_document``
    rebuilds them), so exact ``type`` checks inlined at each level are safe
    and markedly faster than ``isinstance`` dispatch per scalar.
    """
    tp = type(value)
    if tp is dict:
        return {
            key: (item if type(item) is not dict and type(item) is not list
                  else clone_document(item))
            for key, item in value.items()
        }
    if tp is list:
        return [item if type(item) is not dict and type(item) is not list
                else clone_document(item)
                for item in value]
    return value


def get_path(document: dict[str, Any], path: str) -> tuple[bool, Any]:
    """Resolve a dotted ``path`` in ``document``.

    Returns ``(found, value)``; ``found`` is False when any intermediate
    segment is missing or not a dictionary/list.
    """
    current: Any = document
    for segment in path.split("."):
        if isinstance(current, dict):
            if segment not in current:
                return False, None
            current = current[segment]
        elif isinstance(current, list):
            if not segment.isdigit() or int(segment) >= len(current):
                return False, None
            current = current[int(segment)]
        else:
            return False, None
    return True, current


def set_path(document: dict[str, Any], path: str, value: Any) -> None:
    """Set ``value`` at dotted ``path``, creating intermediate objects.

    Copy-on-write: ``document`` (the root) is modified in place, but every
    nested dict or list the path descends into is replaced by a shallow copy
    before it is written.  So when ``document`` is a fresh shallow copy of a
    stored version, the stored version and all its untouched subtrees -- which
    the new version keeps sharing -- are never modified.
    """
    segments = path.split(".")
    current: Any = document
    for segment in segments[:-1]:
        if isinstance(current, list) and segment.isdigit():
            key: Any = int(segment)
            while len(current) <= key:
                current.append({})
        elif not isinstance(current, dict):
            raise DocumentStoreError(f"cannot descend into {segment!r} on {path!r}")
        elif segment not in current:
            current[segment] = current = {}
            continue
        elif not isinstance(current[segment], (dict, list)):
            raise DocumentStoreError(
                f"cannot set {path!r}: {segment!r} is not a document or array"
            )
        else:
            key = segment
        current[key] = current = _copy_container(current[key])
    last = segments[-1]
    if isinstance(current, list) and last.isdigit():
        index = int(last)
        while len(current) <= index:
            current.append(None)
        current[index] = value
    elif isinstance(current, dict):
        current[last] = value
    else:
        raise DocumentStoreError(f"cannot set {path!r} on a scalar value")


def unset_path(document: dict[str, Any], path: str) -> bool:
    """Remove the value at dotted ``path``; returns True if something was removed.

    Copy-on-write like :func:`set_path`; containers are copied only when the
    field exists and is removed.
    """
    parent_path, __, last = path.rpartition(".")
    segments = parent_path.split(".") if parent_path else []
    parent = get_path(document, parent_path)[1] if segments else document
    if not isinstance(parent, dict) or last not in parent:
        return False
    current: Any = document
    for segment in segments:
        key: Any = int(segment) if isinstance(current, list) else segment
        current[key] = current = _copy_container(current[key])
    del current[last]
    return True


def _copy_container(value: Any) -> Any:
    """A shallow copy of a dict or list on a modified path (scalars as-is)."""
    if isinstance(value, dict):
        return dict(value)
    if isinstance(value, list):
        return list(value)
    return value

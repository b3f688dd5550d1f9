"""Update operators: ``$set``, ``$unset``, ``$inc``, ``$mul``, ``$push`` ...

`apply_update` produces a *new* version of a stored (frozen) document, and
its size, by copy-on-write: it shallow-copies the root, copies only the
dicts and lists along each modified dotted path, and shares every untouched
subtree with the previous version by reference.  Operands enter through the
freeze helpers (validated deep copies), so the new version shares nothing
mutable with the caller.  Sharing is safe because stored documents are never
mutated in place; it also lets
:func:`~repro.docstore.documents.resize_document` and
:meth:`~repro.docstore.indexes.IndexCatalog.replace_document` treat an
unchanged object identity as proof that a field did not change.  Storage
engines decide afterwards whether the new version fits in place (mmapv1
padding) or requires a rewrite.
"""

from __future__ import annotations

from typing import Any

from repro.docstore.documents import (
    freeze_document,
    freeze_value,
    get_path,
    resize_document,
    set_path,
    unset_path,
)
from repro.errors import DocumentStoreError

_SUPPORTED = {
    "$set",
    "$unset",
    "$inc",
    "$mul",
    "$min",
    "$max",
    "$rename",
    "$push",
    "$pull",
    "$addToSet",
    "$pop",
}


def is_update_document(update: dict[str, Any]) -> bool:
    """True when ``update`` uses operators rather than whole-document replacement."""
    return isinstance(update, dict) and any(key.startswith("$") for key in update)


def apply_update(document: dict[str, Any], size: int,
                 update: dict[str, Any]) -> tuple[dict[str, Any], int]:
    """Return the new version of ``document`` (of ``size`` bytes) under
    ``update``, together with the new version's size.

    Whole-document replacement freezes the replacement (validated, copied
    and sized in one walk) and preserves the original ``_id``; operator
    updates are applied field by field, copy-on-write, and sized by delta
    (:func:`~repro.docstore.documents.resize_document`).  ``document``
    itself is never modified.
    """
    if not is_update_document(update):
        replacement, replacement_size = freeze_document(update)
        new_document = dict(replacement)
        new_document["_id"] = document["_id"]
        return new_document, resize_document(replacement, replacement_size,
                                             new_document)

    new_document = dict(document)
    for operator, spec in update.items():
        if operator not in _SUPPORTED:
            raise DocumentStoreError(f"unknown update operator {operator!r}")
        if not isinstance(spec, dict):
            raise DocumentStoreError(f"{operator} expects an object of field updates")
        for path, operand in spec.items():
            if path == "_id":
                raise DocumentStoreError("the _id field cannot be modified")
            _apply_one(new_document, operator, path, operand)
    return new_document, resize_document(document, size, new_document)


def _apply_one(document: dict[str, Any], operator: str, path: str, operand: Any) -> None:
    if operator == "$set":
        set_path(document, path, freeze_value(operand, path))
        return
    if operator == "$unset":
        unset_path(document, path)
        return
    if operator == "$rename":
        found, value = get_path(document, path)
        if found:
            unset_path(document, path)
            set_path(document, str(operand), value)
        return

    found, current = get_path(document, path)

    if operator in ("$inc", "$mul"):
        if found and not isinstance(current, (int, float)) or isinstance(current, bool):
            if found:
                raise DocumentStoreError(
                    f"cannot apply {operator} to non-numeric field {path!r}"
                )
        if not isinstance(operand, (int, float)) or isinstance(operand, bool):
            raise DocumentStoreError(f"{operator} requires a numeric operand")
        base = current if found else 0
        set_path(document, path, base + operand if operator == "$inc" else base * operand)
        return

    if operator in ("$min", "$max"):
        if (not found or (operator == "$min" and operand < current)
                or (operator == "$max" and operand > current)):
            set_path(document, path, freeze_value(operand, path))
        return

    # Array operators below.
    if operator == "$push":
        if found and not isinstance(current, list):
            raise DocumentStoreError(f"cannot $push to non-array field {path!r}")
        array = list(current) if found else []
        if isinstance(operand, dict) and "$each" in operand:
            array.extend(freeze_value(item, path) for item in operand["$each"])
        else:
            array.append(freeze_value(operand, path))
        set_path(document, path, array)
        return

    if operator == "$addToSet":
        if found and not isinstance(current, list):
            raise DocumentStoreError(f"cannot $addToSet to non-array field {path!r}")
        array = current if found else []
        if operand not in array:
            set_path(document, path, array + [freeze_value(operand, path)])
        return

    if operator == "$pull":
        if not found or not isinstance(current, list):
            return
        kept = [item for item in current if item != operand]
        if len(kept) != len(current):
            set_path(document, path, kept)
        return

    if operator == "$pop":
        if not found or not isinstance(current, list) or not current:
            return
        set_path(document, path, current[1:] if operand == -1 else current[:-1])
        return

    raise DocumentStoreError(f"unknown update operator {operator!r}")

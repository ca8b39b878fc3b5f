"""JSON space documents.

A document lists the points and exactly one of two views of the topology:

* ``opens``: the full open family as lists of labels, or
* ``min_basis``: a map from each label to its minimal open set.

``serialize_space`` always emits the canonical ``min_basis`` form, compact,
with points in order and members sorted by point index, so equal spaces
serialize to identical bytes.
"""

from __future__ import annotations

import json
import math
from typing import Any

from .errors import DocumentSyntaxError, SchemaError
from .spaces import FinSpace, from_minimal_basis, from_open_sets


def space_to_document(space: FinSpace) -> dict:
    return {
        "points": list(space.labels),
        "min_basis": {
            lab: list(space.members(space.basis[i]))
            for i, lab in enumerate(space.labels)
        },
    }


def serialize_space(space: FinSpace) -> str:
    return json.dumps(space_to_document(space), separators=(",", ":"))


def _label_list(value: Any, what: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise SchemaError(f"{what} must be a list of label strings")
    return value


def document_to_space(doc: Any) -> FinSpace:
    if not isinstance(doc, dict):
        raise SchemaError("space document must be a JSON object")
    if "points" not in doc:
        raise SchemaError('space document needs a "points" list')
    points = _label_list(doc["points"], '"points"')
    # a JSON escape can spell a lone surrogate, which UTF-8 cannot encode
    for label in points:
        if label.encode("utf-8", "replace").decode("utf-8") != label:
            raise SchemaError(f"the label {label!r} is not valid Unicode text")
    has_opens = "opens" in doc
    has_basis = "min_basis" in doc
    if has_opens == has_basis:
        raise SchemaError('give exactly one of "opens" or "min_basis"')
    extra = set(doc) - {"points", "opens", "min_basis"}
    if extra:
        raise SchemaError(f"unknown document keys: {sorted(extra)}")
    if has_opens:
        if not isinstance(doc["opens"], list):
            raise SchemaError('"opens" must be a list of label lists')
        opens = [_label_list(o, "each open set") for o in doc["opens"]]
        return from_open_sets(points, opens)
    basis_map = doc["min_basis"]
    if not isinstance(basis_map, dict):
        raise SchemaError('"min_basis" must map labels to label lists')
    missing = [lab for lab in points if lab not in basis_map]
    if missing:
        raise SchemaError(f"min_basis misses points: {missing}")
    extra_keys = [lab for lab in basis_map if lab not in points]
    if extra_keys:
        raise SchemaError(f"min_basis names unknown points: {extra_keys}")
    basis = [_label_list(basis_map[lab], f"min_basis[{lab!r}]") for lab in points]
    return from_minimal_basis(points, basis)


def _object(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object as a dict; a key given twice raises ``SchemaError``,
    where ``json`` alone would keep its last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise SchemaError(f"the key {key!r} is given twice in one object")
            seen.add(key)
    return obj


def parse_space(text: str) -> FinSpace:
    if not isinstance(text, (str, bytes, bytearray)):
        raise DocumentSyntaxError(f"a document is text, not {type(text).__name__}")
    try:
        doc = json.loads(text, object_pairs_hook=_object)
    except json.JSONDecodeError as e:
        raise DocumentSyntaxError(f"not valid JSON: {e}") from None
    except UnicodeDecodeError as e:
        raise DocumentSyntaxError(f"not decodable text: {e}") from None
    except RecursionError:
        raise DocumentSyntaxError("document nests too deeply to parse") from None
    return document_to_space(doc)


def further_to_json(value) -> Any:
    """Finite values stay ints; infinity crosses JSON as the string "inf"."""
    if value is None:
        return None
    if value == math.inf:
        return "inf"
    return int(value)

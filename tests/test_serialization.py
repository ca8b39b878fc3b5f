import json
import re
import time

import pytest

from furtherness import (
    DocumentSyntaxError,
    FinSpace,
    NotClosedUnderUnionError,
    SchemaError,
    SizeTooLargeError,
    document_to_space,
    enumerate_topologies,
    parse_space,
    serialize_space,
    space_to_document,
)
from furtherness.order import identity_map, is_continuous_by_preimages
from furtherness.spaces import OPEN_FAMILY_LIMIT

E2_OPENS_DOC = (
    '{"points":["a","b","c","d"],"opens":[[],["a"],["d"],["a","b"],["a","d"],'
    '["a","b","d"],["a","b","c","d"]]}'
)


def test_parse_opens_form(e2):
    assert parse_space(E2_OPENS_DOC) == e2


def test_serialize_emits_min_basis(e2):
    doc = json.loads(serialize_space(e2))
    assert doc == {
        "points": ["a", "b", "c", "d"],
        "min_basis": {"a": ["a"], "b": ["a", "b"], "c": ["a", "b", "c", "d"], "d": ["d"]},
    }


def test_one_point_space_document():
    sp = parse_space('{"points":["x"],"min_basis":{"x":["x"]}}')
    assert sp.n == 1
    assert serialize_space(sp) == '{"points":["x"],"min_basis":{"x":["x"]}}'


def test_roundtrip_all_small_spaces():
    for n in (1, 2, 3):
        for sp in enumerate_topologies(n):
            assert parse_space(serialize_space(sp)) == sp


def test_document_roundtrip_dict(e2):
    assert document_to_space(space_to_document(e2)) == e2


def test_incomplete_example_family_rejected():
    # the family misses {a} ∪ {c}, so it is not a topology
    doc = (
        '{"points":["a","b","c","d"],"opens":[[],["a"],["c"],["a","b"],["c","d"],'
        '["a","b","c"],["a","c","d"],["a","b","c","d"]]}'
    )
    with pytest.raises(NotClosedUnderUnionError) as exc:
        parse_space(doc)
    msg = str(exc.value)
    assert "{a}" in msg and "{c}" in msg


def test_bad_json_is_syntax_error():
    with pytest.raises(DocumentSyntaxError):
        parse_space("{not json")


def test_deep_nesting_is_syntax_error():
    # json.loads recurses once per bracket and overflows the stack
    with pytest.raises(DocumentSyntaxError, match="nests too deeply"):
        parse_space("[" * 100000 + "]" * 100000)


def test_schema_requires_points():
    with pytest.raises(SchemaError):
        document_to_space({"min_basis": {}})


def test_schema_rejects_both_forms(e2):
    doc = space_to_document(e2)
    doc["opens"] = [[]]
    with pytest.raises(SchemaError):
        document_to_space(doc)


def test_schema_rejects_neither_form():
    with pytest.raises(SchemaError):
        document_to_space({"points": ["a"]})


def test_schema_rejects_unknown_keys(e2):
    doc = space_to_document(e2)
    doc["extra"] = 1
    with pytest.raises(SchemaError):
        document_to_space(doc)


def test_schema_rejects_missing_basis_entry():
    with pytest.raises(SchemaError):
        document_to_space({"points": ["a", "b"], "min_basis": {"a": ["a"]}})


def test_schema_rejects_non_object():
    with pytest.raises(SchemaError):
        document_to_space([1, 2])


@pytest.mark.parametrize("doc, why", [
    ({"points": "ab", "min_basis": {}}, '"points" must be a list of label strings'),
    ({"points": ["a", 1], "min_basis": {}}, '"points" must be a list of label strings'),
    ({"points": ["a"], "opens": {"a": ["a"]}}, '"opens" must be a list of label lists'),
    ({"points": ["a"], "min_basis": [["a"]]}, '"min_basis" must map labels to label lists'),
    ({"points": ["a"], "min_basis": {"a": ["a"], "z": ["z"]}}, "min_basis names unknown points"),
])
def test_schema_rejects_malformed_fields(doc, why):
    with pytest.raises(SchemaError, match=re.escape(why)):
        document_to_space(doc)


@pytest.mark.parametrize("text, key", [
    # json alone keeps the last value: a one-point space
    ('{"points":["a","b"],"points":["a"],"min_basis":{"a":["a"]}}', "points"),
    # json alone keeps ["a","b"]: the indiscrete space
    ('{"points":["a","b"],"min_basis":{"a":["a"],"a":["a","b"],"b":["a","b"]}}', "a"),
])
def test_parse_rejects_a_repeated_key(text, key):
    with pytest.raises(SchemaError, match=re.escape(f"the key {key!r} is given twice")):
        parse_space(text)


@pytest.mark.parametrize("text", [
    r'{"points":["\ud800"],"min_basis":{"\ud800":["\ud800"]}}',
    r'{"points":["a","b\udfff"],"opens":[[],["a","b\udfff"]]}',
])
def test_parse_rejects_a_label_that_is_no_unicode_text(text):
    # a JSON escape can spell a lone surrogate, which UTF-8 cannot encode
    with pytest.raises(SchemaError, match=re.escape("is not valid Unicode text")):
        parse_space(text)
    # a surrogate pair spells one character, which it can
    pair = r'{"points":["\ud83d\ude00"],"opens":[[],["\ud83d\ude00"]]}'
    assert parse_space(pair).labels == ("😀",)


def test_schema_rejects_unknown_member():
    with pytest.raises(Exception):
        document_to_space({"points": ["a"], "min_basis": {"a": ["a", "z"]}})


def test_opens_form_refuses_a_huge_family():
    # the discrete space on twelve points has exactly the limit of opens
    assert OPEN_FAMILY_LIMIT == 1 << 12
    twelve = FinSpace.discrete([f"p{i}" for i in range(12)])
    assert len(twelve.open_family) == 1 << 12
    # 2**18 opens: the refusal comes from a count that stops one past it
    big = FinSpace.discrete([f"p{i}" for i in range(18)])
    start = time.perf_counter()
    with pytest.raises(SizeTooLargeError, match="at most 4096 opens, got at least 4097"):
        big.open_family
    assert time.perf_counter() - start < 1
    assert "open_family" not in big.__dict__
    # every other reader of the family refuses the same way
    with pytest.raises(SizeTooLargeError, match="open family"):
        is_continuous_by_preimages(identity_map(big))


@pytest.mark.parametrize(
    "value, why",
    [
        (None, "a document is text"),
        (123, "a document is text"),
        (["x"], "a document is text"),
        (b"\x80", "not decodable text"),
        (bytearray(b'{"points": ["\xc3"]}'), "not decodable text"),
    ],
)
def test_parse_space_refuses_what_is_not_text(value, why):
    with pytest.raises(DocumentSyntaxError, match=why):
        parse_space(value)

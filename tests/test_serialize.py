"""The package's own schema check against jsonschema's Draft 2020-12
validator, on documents near each shipped schema.  The tests that call
jsonschema skip without it; the others run either way."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl1zeta import serialize

REP = {"p": 5, "val": -1, "unit": 7, "prec": 4}
CHI = {"p": 5, "cond": 2, "unit_char": [3], "t": [0.6, 0.8]}

# one valid document per schema; with OTHER_PI, every oneOf branch is taken
VALID = {
    "arch_char": {"place": "complex", "eps": 1, "t": 0.5},
    "arch_seed": {"place": "complex", "coeff": [1, 0], "hol": 2, "antihol": 0,
                  "poly": [[1, 0], [0.5, -1]]},
    "character": CHI,
    "complex_list": [[0.6, 0.8], [1, 0]],
    "gamma_report": {"gamma_closed": {}, "gamma_pv": {"a": 1},
                     "max_coeff_diff": 1e-16, "shells": [-3, 2]},
    "matrix2": [["1/27", 0], [-2, "9"]],
    "mult_step_function": {"model": "mult", "p": 5, "terms": [
        {"coeff": [1, 0.3], "rep": "3/5", "k": 2},
        {"coeff": [-1, 0], "rep": REP, "k": 0}]},
    "pi_params": {"kind": "chars", "chis": [CHI, {}]},
    "step_function": {"model": "step", "p": 5, "terms": [
        {"coeff": [1, 0], "twist": None, "center": "-4/9", "rad": 1},
        {"coeff": [0, 1], "twist": REP, "rad": -1},
        {"coeff": [0, 0], "center": REP, "twist": "0", "rad": 0}]},
}
OTHER_PI = [{"kind": "satake", "alpha": [[0.6, 0.8]]}, {"kind": "gl1", "chi": CHI}]

LEAVES = [None, True, 0, -1, 2, 2.0, 1.5, math.nan, "x", "1/0", "1/2\n", [], {},
          [1, 2, 3], "mult", "step", "complex", "satake", "gl1", "chars"]
NEW_KEYS = ["zz", "prec", "place", "t", "chi", "alpha", "center"]


def _nodes(doc, at=()):
    yield at, doc
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _nodes(value, at + (key,))


def _replaced(doc, at, new):
    if not at:
        return new
    out = dict(doc) if isinstance(doc, dict) else list(doc)
    out[at[0]] = _replaced(doc[at[0]], at[1:], new)
    return out


@st.composite
def near_documents(draw):
    """A valid document after 0 to 3 edits: drop a key or an item, add a
    key, or replace a node with one of LEAVES."""
    name = draw(st.sampled_from(sorted(VALID)))
    doc = VALID[name] if name != "pi_params" else draw(
        st.sampled_from([VALID[name], *OTHER_PI]))
    for _ in range(draw(st.integers(0, 3))):
        at, node = draw(st.sampled_from(list(_nodes(doc))))
        edit = draw(st.sampled_from(["drop", "add", "leaf"]))
        if edit == "leaf" or not isinstance(node, (dict, list)) or not node and edit == "drop":
            new = draw(st.sampled_from(LEAVES))
        elif edit == "drop":
            gone = draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                        else range(len(node))))
            new = ({k: v for k, v in node.items() if k != gone} if isinstance(node, dict)
                   else node[:gone] + node[gone + 1:])
        elif isinstance(node, dict):
            new = {**node, draw(st.sampled_from(NEW_KEYS)): draw(st.sampled_from(LEAVES))}
        else:
            new = node + [draw(st.sampled_from(LEAVES))]
        doc = _replaced(doc, at, new)
    return name, doc


def _accepts(doc, name) -> bool:
    try:
        serialize.validate(doc, name)
    except serialize.InputFormatError as exc:
        assert exc.code == "schema/" + name
        return False
    return True


@pytest.mark.parametrize("name, doc", [*VALID.items(), *(("pi_params", d) for d in OTHER_PI)])
def test_valid_documents_pass(name, doc):
    jsonschema = pytest.importorskip("jsonschema")
    assert _accepts(doc, name)
    assert jsonschema.Draft202012Validator(serialize.load_schema(name)).is_valid(doc)


@settings(max_examples=1500, deadline=None)
@given(near_documents())
def test_validate_agrees_with_jsonschema(case):
    jsonschema = pytest.importorskip("jsonschema")
    name, doc = case
    expected = jsonschema.Draft202012Validator(serialize.load_schema(name)).is_valid(doc)
    assert _accepts(doc, name) == expected


RATIONAL = {"type": "string", "pattern": "^-?[0-9]+(/[0-9]*[1-9][0-9]*)?$"}
NUMBER_ONCE = {"oneOf": [{"type": "integer"}, {"type": "number"}]}


@pytest.mark.parametrize("schema, doc, ok", [
    ({"type": "integer"}, 5.0, True), ({"type": "integer"}, True, False),
    ({"type": "number"}, True, False), ({"type": "number"}, math.nan, True),
    (RATIONAL, "1/2\n", True), (RATIONAL, "x1/2", False),
    (NUMBER_ONCE, 1.5, True), (NUMBER_ONCE, 2, False),
    ({"minimum": 2, "minItems": 1, "required": ["a"]}, "x", True)])
def test_draft_2020_12_corner_cases(schema, doc, ok):
    jsonschema = pytest.importorskip("jsonschema")
    assert (serialize._error(doc, serialize.check_schema(schema), "$") is None) == ok
    assert jsonschema.Draft202012Validator(schema).is_valid(doc) == ok


@pytest.mark.parametrize("schema", [
    {"type": "string", "format": "date"},
    {"properties": {"a": {"maxLength": 3}}},
    {"additionalProperties": {"type": "integer"}},
    {"type": ["integer", "null"]},
    {"items": [{"type": "integer"}]},
    {"oneOf": [{"type": "integer"}, {"not": {}}]},
    {"enum": [1, 2]},
    {"minItems": True},
])
def test_unsupported_schema_fails_to_load(schema):
    with pytest.raises(ValueError):
        serialize.check_schema(schema)

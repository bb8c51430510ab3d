"""The canonical JSON writer against the recursive writer it replaced."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from metricforms.cli import main
from metricforms import report
from metricforms.report import dumps_canonical

import oracles

# integer-valued floats print as .1f below 1e16 and as .17g from there;
# subnormals, signed zeros and the largest float sit at the edges
EDGE_FLOATS = [0.0, -0.0, 1.0, -3.0, 1e16, -1e16, 9999999999999998.0,
               1e17, 0.1, 1 / 3, 5e-324, -2.2250738585072014e-308,
               1.7976931348623157e308]
EDGE_STRINGS = ['', 'a"b', 'back\\slash', 'tab\tnew\nline', '\x00\x1f\x7f',
                'ünï', '"\\"']

_floats = st.one_of(st.sampled_from(EDGE_FLOATS),
                    st.floats(allow_nan=False, allow_infinity=False))
_leaves = st.one_of(
    _floats,
    # a float subclass goes through the general branch, one at a time
    _floats.map(np.float64),
    st.integers(), st.booleans(), st.none(),
    st.complex_numbers(allow_nan=False, allow_infinity=False),
    st.sampled_from(EDGE_STRINGS), st.text(max_size=6))
_documents = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        # lists of floats only take the one-join branch
        st.lists(_floats, max_size=5),
        st.dictionaries(st.one_of(st.sampled_from(EDGE_STRINGS),
                                  st.text(max_size=4)),
                        children, max_size=4)),
    max_leaves=20)


@given(_documents, st.integers(0, 3))
@example([], 0)
@example({}, 2)
@example([[], {}, ()], 1)
@example(EDGE_FLOATS, 0)
@example([1.5, np.float64(2.5), 3.5], 1)
@example(complex(1.0, -0.0), 0)
@settings(max_examples=300, deadline=None)
def test_writer_matches_recursive_writer(doc, indent):
    assert dumps_canonical(doc, indent) == oracles.dumps_canonical(doc, indent)


@pytest.mark.parametrize("doc", [
    math.nan, -math.inf, np.float64(math.inf),
    [1.0, math.nan, 2.0],              # the one-join branch
    [1.0, True, math.inf],             # the general branch
    {"a": {"b": [0.5, -math.inf]}},
    complex(math.inf, 0.0),
    (0.5, complex(1.0, math.nan))])
def test_non_finite_number_raises(doc):
    with pytest.raises(ValueError, match="finite numbers"):
        dumps_canonical(doc)
    with pytest.raises(ValueError, match="finite numbers"):
        oracles.dumps_canonical(doc)


# integers, both sides of 1e16, signed zeros and subnormals
_MATRIX_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -7.0, 1e15, 1e16, -1e16, 9.999e15,
                     9999999999999998.0, 5e-324, -1e-310,
                     2.2250738585072014e-308]),
    st.integers(-10 ** 6, 10 ** 6).map(float),
    st.floats(allow_nan=False, allow_infinity=False))
# with no integral value, every format is %.17g and the template is one
# join of the separators
_FRACTIONAL = st.floats(allow_nan=False, allow_infinity=False).filter(
    lambda v: not v.is_integer())
_matrices = st.sampled_from([_MATRIX_FLOATS, _FRACTIONAL]).flatmap(
    lambda floats: st.integers(1, 4).flatmap(lambda width: st.lists(
        st.lists(floats, min_size=width, max_size=width),
        min_size=1, max_size=6)))


@given(_matrices, st.integers(0, 3))
@example([[0.0, -0.0], [1e16, 9.999e15]], 1)
@example([[5e-324, 3.0]], 0)
@example([[0.5, -2.5e-7], [1e300 / 3, 0.1]], 2)
@example([[0.5, -2.5e-7], [1e15, 0.1]], 0)
@settings(max_examples=300, deadline=None)
def test_template_writer_matches_per_float_writer(rows, indent):
    # a matrix and its flattened list, each through one %-template
    for doc in (rows, [v for row in rows for v in row]):
        assert dumps_canonical(doc, indent) \
            == oracles.dumps_canonical(doc, indent)


@given(_matrices, st.sampled_from([math.inf, -math.inf, math.nan]),
       st.data())
@settings(max_examples=100, deadline=None)
def test_template_writer_refuses_non_finite_floats(rows, bad, data):
    i = data.draw(st.integers(0, len(rows) - 1))
    j = data.draw(st.integers(0, len(rows[0]) - 1))
    rows[i][j] = bad
    for doc in (rows, rows[i]):
        for write in (dumps_canonical, oracles.dumps_canonical):
            with pytest.raises(ValueError,
                               match="^reports must contain finite numbers$"):
                write(doc)


@pytest.mark.parametrize("value,text", [
    (1e16 - 2, "9999999999999998.0"), (1e16, "10000000000000000"),
    (1e17, "1e+17"), (-0.0, "-0.0"), (0.1, "0.10000000000000001"),
    (5e-324, "4.9406564584124654e-324")])
def test_float_rules(value, text):
    # one rule for a float alone, in a list and in a matrix
    assert dumps_canonical(value) == dumps_canonical(np.float64(value)) \
        == text
    assert dumps_canonical([value, 0.5]) == f"[\n  {text},\n  0.5\n]"
    assert dumps_canonical([[value], [0.5]]) \
        == f"[\n  [\n    {text}\n  ],\n  [\n    0.5\n  ]\n]"


@given(st.text(alphabet=st.one_of(
    st.characters(max_codepoint=0x20), st.sampled_from('"\\%üあ\ud800'),
    st.characters()), max_size=12))
@example("\x00\x1f\x7f\"\\\ud800")
@settings(max_examples=300, deadline=None)
def test_escape_matches_character_loop(s):
    assert report._escape(s) == oracles.escape(s)


def test_unserializable_value_raises_type_error():
    with pytest.raises(TypeError, match="cannot serialize set"):
        dumps_canonical({"a": [1.0, {2}]})


def test_geodesic_document_reads_back_to_the_same_bytes(capsys):
    code = main(["geodesic", "schwarzschild", "--start", "5,1.3,1,-1.8",
                 "--velocity", "0.12,0.03,0.06,1.3", "--steps", "100",
                 "--json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert len(doc["classical"]["x"]) == 101
    assert dumps_canonical(doc) == out.rstrip("\n")
    assert oracles.dumps_canonical(doc) == out.rstrip("\n")


_B = report.ROW_BLOCK


@pytest.mark.parametrize("rows", [1, 2, _B - 1, _B, _B + 1, 2 * _B + 3])
@pytest.mark.parametrize("width", [None, 1, 4])
def test_streamed_array_is_the_text_of_its_nested_list(rows, width):
    # a float array, streamed a block of rows at a time, is written as the
    # nested list of its floats; integral values take %.1f in any block
    shape = (rows,) if width is None else (rows, width)
    rng = np.random.default_rng(rows)
    arr = rng.normal(size=shape) * 10.0 ** rng.integers(-5, 18, size=shape)
    arr.flat[::7] = np.round(arr.flat[::7])
    doc = {"name": "array", "a": arr, "rest": [arr[:2], -0.0, 3]}
    pieces = []
    assert dumps_canonical(doc, 1, write=pieces.append) is None
    want = oracles.dumps_canonical(
        {"name": "array", "a": arr.tolist(),
         "rest": [arr[:2].tolist(), -0.0, 3]}, 1)
    assert "".join(pieces) == dumps_canonical(doc, 1) == want
    # one piece per block of rows, not one per number
    assert len(pieces) < 20 + 2 * (rows // _B + 1)


@pytest.mark.parametrize("doc", [
    {"a": np.array([[1.0, 2.0], [3.0, math.nan]]), "b": 1.0},
    {"a": np.ones((3 * _B, 2)), "b": math.inf},
    {"a": np.ones(2 * _B), "b": [np.full(3, -math.inf)]},
    {"a": np.ones(2), "b": complex(0.0, math.nan)}])
def test_streamed_document_with_a_non_finite_number_writes_nothing(doc):
    pieces = []
    with pytest.raises(ValueError, match="^reports must contain finite "
                                         "numbers$"):
        dumps_canonical(doc, write=pieces.append)
    assert pieces == []

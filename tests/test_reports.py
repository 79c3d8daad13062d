"""The report renderer against the isinstance-based reference it replaced.

`canonical_json` dispatches on exact built-in types and quotes strings with
the C encoder; `render_reference.canonical_json` is the renderer as it was.
Every report-like tree, and every golden report, must render to the same
bytes through both.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equigraph.reports import canonical_json

import render_reference

GOLDEN_DIR = Path(__file__).parent / "golden"

SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.5e-310,
                  1e16, -1e16, 123456789012.5, -123456789012.5, 0.1, 1 / 3]
SPECIAL_LEAVES = SPECIAL_FLOATS + [
    np.float64(-0.0), np.float64(math.inf), np.float64(2.5), np.int64(-7), np.int64(2**62),
    np.bool_(True), np.bool_(False), True, False, None, 2**70, -2**70, 0,
    "", "plain", "ünïcødé ∑ 𝔾", "tab\tnew\nline\x00\x1f\x7f", '"quoted\\"',
]

leaves = st.one_of(
    st.sampled_from(SPECIAL_LEAVES),
    st.floats(),
    st.floats(width=64).map(np.float64),
    st.integers(),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.none(),
    st.text(),
)
# int and str keys together: sorting must go by str(key), as the reference does
keys = st.one_of(st.text(max_size=4), st.integers(-20, 20))
trees = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(keys, children, max_size=5),
    ),
    max_leaves=30,
)


@given(trees)
@settings(max_examples=200, deadline=None)
def test_renders_like_the_reference(tree):
    assert canonical_json(tree) == render_reference.canonical_json(tree)


def test_every_special_leaf_renders_like_the_reference():
    tree = {
        "leaves": SPECIAL_LEAVES,
        "as_tuple": tuple(SPECIAL_LEAVES),
        "nested": {10: {"b": [], "a": {}}, 9: (), "x": [[-0.0], {"k": -0.0}]},
        2: SPECIAL_FLOATS,
    }
    assert canonical_json(tree) == render_reference.canonical_json(tree)
    for leaf in SPECIAL_LEAVES:
        assert canonical_json(leaf) == render_reference.canonical_json(leaf)


def test_negative_zero_and_non_finite_floats():
    assert canonical_json([0.0, -0.0, math.inf, -math.inf, math.nan]) == (
        '[\n  0,\n  0,\n  "inf",\n  "-inf",\n  "nan"\n]')


def test_keys_sort_as_strings():
    assert canonical_json({10: 1, 9: 2, "a": 3}) == '{\n  "10": 1,\n  "9": 2,\n  "a": 3\n}'


@pytest.mark.parametrize("path", sorted(GOLDEN_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_golden_reports_render_identically(path):
    text = path.read_text()
    report = json.loads(text)
    assert canonical_json(report) + "\n" == text
    assert render_reference.canonical_json(report) + "\n" == text

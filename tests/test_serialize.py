"""Deterministic JSON and CSV text."""

import json

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from pesinlab._serialize import csv_text, dumps

_json_like = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@given(_json_like)
def test_dumps_roundtrip(obj):
    assert json.loads(dumps(obj)) == obj


def test_dumps_escapes_control_characters():
    text = dumps({"name": "a\nb\t\x00\x1f\"\\"})
    assert text == '{"name": "a\\nb\\t\\u0000\\u001f\\"\\\\"}'
    assert json.loads(text) == {"name": "a\nb\t\x00\x1f\"\\"}


def test_csv_text_formats_cells():
    rows = [(0, 0.1, "x"), (np.int64(2), np.float64(1.0) / 3.0, 7)]
    assert csv_text(("a", "b", "c"), rows) == (
        "a,b,c\n0,0.10000000000000001,x\n2,0.33333333333333331,7\n")
    assert csv_text(("a",), []) == "a\n"

"""Deterministic JSON and CSV text."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pesinlab import cocycle, pesin, quasihyp, shadow
from pesinlab import systems as dyn
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


def _reports():
    """One report of each class that prints itself, from a real computation."""
    cat, p24 = dyn.make_system("cat"), dyn.make_system("product24")
    cat_split, p24_split = dyn.reference_splitting(cat), dyn.reference_splitting(p24)
    x = np.array([0.1, 0.3, 0.7])
    return [
        pesin.check_block_membership(p24, x, p24_split, pesin.PesinParams(1, 0.4, 2), 40),
        pesin.block_geometry_product24(0.4, 5, grid_n=1000, horizon=60),
        quasihyp.check_quasi_hyperbolic(cat, x[1:], 12, cat_split, 0.5,
                                        quasihyp.canonical_partition(12, 2, 3)),
        cocycle.mean_exponents(p24, x, p24_split, 1, 50),
        shadow.close_orbit(cat, np.array([0.31, 0.57]), 9),
        shadow.estimate_shadowing_constant(cat, [1e-6], trials=1, length_range=(4, 9)),
    ]


_REPORTS = _reports()


@pytest.mark.parametrize("report", _REPORTS, ids=lambda r: type(r).__name__)
def test_a_report_prints_its_fields(report):
    keys = {f.name for f in dataclasses.fields(report)}
    if "params" in keys:   # a block certificate's parameters print flat
        keys = keys - {"params"} | {"K", "zeta", "k"}
    if hasattr(report, "passed"):
        keys.add("passed")
    record = report.to_dict()
    assert set(record) == keys
    # stdlib json reads the record as the report's own emitter writes it
    assert json.loads(json.dumps(record)) == json.loads(dumps(record))


@pytest.mark.parametrize("report", _REPORTS, ids=lambda r: type(r).__name__)
def test_a_field_added_to_a_report_prints(report):
    extra = dataclasses.make_dataclass(
        "Extra", [("residual_history", list, dataclasses.field(default_factory=list))],
        bases=(type(report),), frozen=True)
    fields = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
    record = extra(**fields, residual_history=[1.0, 0.5]).to_dict()
    assert record["residual_history"] == [1.0, 0.5]
    assert json.loads(dumps(record))["residual_history"] == [1.0, 0.5]

"""The benchmark's trace patch table names only what pesinlab defines.

``benchmarks/spans.py`` wraps the functions and methods in its ``LAYERS``
table, reading each method from its class's own ``__dict__``.  A method that
becomes inherited, or a function that is renamed, makes a traced benchmark
run fail; this test names the entry first.
"""

import importlib.util
from pathlib import Path

import pesinlab

_SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def test_every_traced_layer_exists():
    spec = importlib.util.spec_from_file_location("benchmark_spans", _SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)   # stdlib only
    missing = []
    for mod_name, owner, attr, *_ in spans.LAYERS:
        mod = getattr(pesinlab, mod_name)
        if owner is None:
            found = callable(getattr(mod, attr, None))
        else:
            found = attr in vars(getattr(mod, owner))
        if not found:
            missing.append(".".join(filter(None, (mod_name, owner, attr))))
    assert not missing, f"not defined where the trace table patches them: {missing}"

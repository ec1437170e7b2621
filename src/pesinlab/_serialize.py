"""Deterministic text output: JSON and CSV with 17-significant-digit floats.

The stdlib json encoder formats floats with repr (shortest round-trip), which
is reproducible but not fixed width.  Reports here always print floats with
17 significant digits so files are byte-identical across platforms and easy
to diff, hence the small hand-rolled emitter.
"""

from __future__ import annotations

import json
import math

import numpy as np


def fmt_float(x: float) -> str:
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite value in report: {x!r}")
    return format(x, ".17g")


def _emit(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(fmt_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))  # escapes below U+0020
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), out)
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(", ")
            if not isinstance(key, str):
                raise TypeError(f"non-string key in report: {key!r}")
            _emit(key, out)
            out.append(": ")
            _emit(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(", ")
            _emit(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Deterministic JSON text (sorted keys, fixed float format)."""
    out: list = []
    _emit(obj, out)
    return "".join(out)


def csv_text(header, rows) -> str:
    """CSV with 17-significant-digit floats and no quoting (plain fields only)."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, (float, np.floating)):
                cells.append(fmt_float(cell))
            elif isinstance(cell, (int, np.integer)):
                cells.append(str(int(cell)))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


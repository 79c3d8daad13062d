"""The recursive report renderer as it was before `reports` dispatched on
exact types: every value goes through isinstance checks and the `numbers`
ABCs, every string through `json.dumps`.  Kept only as the reference that
`tests/test_reports.py` compares the fast renderer with, byte for byte."""

import json
import math
import numbers


def format_float(x: float) -> str:
    """12 significant digits, trailing zeros trimmed, -0 normalised."""
    x = float(x)
    if not math.isfinite(x):
        return json.dumps(str(x))  # quoted, so the document stays valid JSON
    if x == 0.0:
        x = 0.0
    return format(x, ".12g")


def canonical_json(value, indent: int = 0) -> str:
    """Deterministic JSON rendering; dict keys sorted, floats via format_float."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key in sorted(value, key=str):
            items.append(f"{inner}{json.dumps(str(key))}: {canonical_json(value[key], indent + 1)}")
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [f"{inner}{canonical_json(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, numbers.Real):
        return format_float(float(value))
    if value is None:
        return "null"
    return json.dumps(str(value))

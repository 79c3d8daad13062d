"""Canonical report serialization: sorted keys, fixed float formatting.

Reports are emitted as pretty-printed JSON with keys sorted and every
float rendered at 12 significant digits with trailing zeros trimmed, so
byte-for-byte diffs of reports are meaningful.

The renderer dispatches on a value's exact built-in type, in this order:
dict, list or tuple, float, str, bool, int, None.  Strings and keys are
quoted by the C function that `json.dumps` ends in.  Everything else,
numpy scalars (np.float64, np.int64, np.bool_) and subclasses included,
takes the fallback, which decides by isinstance and the `numbers` ABCs,
so every value renders as it would through those checks alone.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from json.encoder import encode_basestring_ascii as _quote

SCHEMA_VERSION = 1

_INF = math.inf


def format_float(x: float) -> str:
    """12 significant digits, trailing zeros trimmed, -0 normalised."""
    x = float(x)
    if not math.isfinite(x):
        return json.dumps(str(x))  # quoted, so the document stays valid JSON
    if x == 0.0:
        x = 0.0
    return format(x, ".12g")


def canonical_json(value) -> str:
    """Deterministic JSON rendering; dict keys sorted, floats via format_float."""
    return _render(value, "")


def _render(value, pad: str) -> str:
    """One value at indentation pad; private, so tracing adds no span per value."""
    t = type(value)
    if t is dict:
        return _render_dict(value, pad)
    if t is list or t is tuple:
        return _render_list(value, pad)
    if t is float:
        if -_INF < value < _INF:
            return format(value, ".12g") if value else "0"  # "0" for -0.0 as well
        return format_float(value)
    if t is str:
        return _quote(value)
    if t is bool:
        return "true" if value else "false"
    if t is int:
        return str(value)
    if value is None:
        return "null"
    return _render_other(value, pad)


def _render_other(value, pad: str) -> str:
    """Subclasses, numpy scalars and any other type, by isinstance."""
    if isinstance(value, dict):
        return _render_dict(value, pad)
    if isinstance(value, (list, tuple)):
        return _render_list(value, pad)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, numbers.Real):
        return format_float(float(value))
    return _quote(str(value))


def _render_dict(value: dict, pad: str) -> str:
    if not value:
        return "{}"
    inner = pad + "  "
    items = [f"{_quote(str(key))}: {_render(value[key], inner)}" for key in sorted(value, key=str)]
    return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}}}"


def _render_list(value, pad: str) -> str:
    if not value:
        return "[]"
    inner = pad + "  "
    return f"[\n{inner}" + f",\n{inner}".join([_render(v, inner) for v in value]) + f"\n{pad}]"


def payload_digest(payload: str) -> str:
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def make_report(command: str, options: dict, inputs: dict, results: dict,
                eps: float | None = None) -> dict:
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "options": options,
        "inputs": inputs,
        "results": results,
    }
    if eps is not None:
        report["eps"] = eps
    return report


def render_report(report: dict) -> str:
    return canonical_json(report) + "\n"

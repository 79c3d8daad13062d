"""The vertex cap: a desk-scale limit on the order of any graph built or parsed.

Kept apart from the graph, codec and predictor modules so that each of them
can refuse an oversized request before allocating it.
"""

from __future__ import annotations

import os

from .errors import ParameterError, ResourceLimitError

VERTEX_CAP_ENV = "EQUIGRAPH_MAX_VERTICES"
DEFAULT_VERTEX_CAP = 4096


def vertex_cap() -> int:
    """Desk-scale limit on graph orders, overridable via environment."""
    raw = os.environ.get(VERTEX_CAP_ENV)
    if raw is None:
        return DEFAULT_VERTEX_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ParameterError(f"{VERTEX_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ParameterError(f"{VERTEX_CAP_ENV} must be positive, got {cap}")
    return cap


def check_cap(n: int, what: str, doublings: int = 0) -> None:
    """Refuse a graph on n * 2**doublings vertices above the vertex cap; a
    huge doublings count is refused without forming 2**doublings."""
    if doublings < 0:
        raise ParameterError(f"iteration count must be nonnegative, got {doublings}")
    cap = vertex_cap()
    huge = n > 0 and doublings > cap.bit_length()
    order = f"{n} * 2**{doublings}" if huge else n << doublings
    if huge or order > cap:
        raise ResourceLimitError(f"{what} needs {order} vertices, above the cap of {cap} "
                                 f"(raise {VERTEX_CAP_ENV} to override)")

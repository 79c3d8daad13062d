"""Per-layer spans recorded from outside the program.

`Tracer` wraps every public function of each equigraph module (the layers)
and rebinds the wrapper wherever a module imported the function by name, or
holds it in a module-level dict such as `cli.COMMANDS`, so calls between
layers pass through it.  Each call becomes a `Span` with a request id and a
parent; a span's self time is its duration minus its children's.  Counters
(matrix orders, bytes, edges) are read from arguments and results after the
span closes, on a clock that is paused meanwhile, so they cost no span time.
`uninstall` puts every original back.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import math
import time
from dataclasses import dataclass, field

PACKAGE = "equigraph"
LAYERS = ("cli", "graphio", "graphs", "spectra", "predict", "theorems", "search", "reports")

# Recursive per value of a report; render_report's span already covers them.
SKIP = frozenset({"reports.canonical_json", "reports.format_float"})

CONSTRUCTIONS = frozenset({
    "complement", "disjoint_union", "copies", "join", "cartesian_product", "kronecker_product",
    "extended_double_cover", "iterated_edc", "k_fold", "double_graph", "line_graph",
    "complete", "empty", "complete_bipartite", "path", "cycle", "hypercube", "build_named",
})
PREDICATES = frozenset({"connected_components", "is_connected", "is_bipartite", "is_regular"})
PARSE = frozenset({"parse_graph", "detect_format", "decode_graph6", "decode_edgelist"})
EMIT = frozenset({"emit_graph", "encode_graph6", "encode_edgelist"})


@dataclass
class Span:
    id: int
    parent: int | None
    request: int | None
    layer: str
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _attrs(layer: str, name: str, args: tuple, result) -> dict:
    """Counters for one call, read after it returned."""
    if name == "eigenvalues":
        entries = getattr(args[0], "entries", args[0])  # a SymMatrix, or an array it will wrap
        return {"n": entries.shape[0], "key": hashlib.blake2b(entries.tobytes(), digest_size=16).digest()}
    if name in ("matrix_of", "spanning_trees_exact"):
        return {"n": args[0].n}
    if layer == "graphs" and name in CONSTRUCTIONS:
        return {"edges": result.m}
    if name == "parse_graph":
        return {"bytes": len(args[0].payload)}
    if name == "emit_graph":
        return {"bytes": len(result.payload)}
    if name == "render_report":
        return {"bytes": len(result)}
    if name == "find_regular_graph_with_l_spectrum":
        return {"scanned": result.scanned}
    return {}


class Tracer:
    """Install with `with Tracer() as tr:`; set `tr.request` before each request."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request: int | None = None
        self._stack: list[Span] = []
        self._paused = 0.0
        self._patches: list[tuple] = []

    # -- clock -----------------------------------------------------------
    def now(self) -> float:
        return time.perf_counter() - self._paused

    # -- installation ----------------------------------------------------
    def install(self) -> "Tracer":
        mods = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        namespaces = mods + [importlib.import_module(PACKAGE)]
        for layer, mod in zip(LAYERS, mods):
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or f"{layer}.{name}" in SKIP or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(layer, name, fn)
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is fn:
                            self._patches.append((setattr, ns, key, fn))
                            setattr(ns, key, wrapper)
                        elif isinstance(val, dict):
                            for dkey, dval in list(val.items()):
                                if dval is fn:
                                    self._patches.append((dict.__setitem__, val, dkey, fn))
                                    val[dkey] = wrapper
        return self

    def uninstall(self) -> None:
        while self._patches:
            setter, target, key, original = self._patches.pop()
            setter(target, key, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- spans -----------------------------------------------------------
    def open(self, layer: str, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, self.request, layer, name, self.now())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.now()
        self._stack.pop()

    def _wrap(self, layer: str, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.open(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            t0 = time.perf_counter()
            span.attrs = _attrs(layer, name, args, result)
            tracer._paused += time.perf_counter() - t0
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    out = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in out:
            out[s.parent] -= s.duration
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one pass: self times in ms plus exact counters."""
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}

    def ms(pred) -> float:
        return 1000.0 * sum(selfs[s.id] for s in spans if pred(s))

    def named(*names):
        return lambda s: s.name in names

    eig = [s for s in spans if s.name == "eigenvalues"]
    exact = [s for s in spans if s.name == "spanning_trees_exact"]

    def under_search(s: Span) -> bool:
        while s.parent is not None:
            s = by_id[s.parent]
            if s.layer == "search":
                return True
        return False

    scanned = sum(s.attrs.get("scanned", 0) for s in spans)
    solved_in_search = sum(1 for s in eig if under_search(s))
    theorem_roots = [s for s in spans if s.layer == "theorems"
                     and (s.parent is None or by_id[s.parent].layer != "theorems")]
    return {
        "spectra.eigensolve_ms": ms(named("eigenvalues")),
        "spectra.eigensolve_count": len(eig),
        "spectra.eigensolve_n3": sum(s.attrs["n"] ** 3 for s in eig),
        "spectra.eigensolve_max_n": max((s.attrs["n"] for s in eig), default=0),
        "spectra.eigensolve_distinct_frac": len({s.attrs["key"] for s in eig}) / len(eig) if eig else 0.0,
        "spectra.matrix_ms": ms(named("matrix_of")),
        "spectra.matrix_bytes": sum(8 * s.attrs["n"] ** 2 for s in spans if s.name == "matrix_of"),
        "spectra.exact_det_ms": ms(named("spanning_trees_exact")),
        "spectra.exact_det_count": len(exact),
        "spectra.exact_det_n3": sum(max(s.attrs["n"] - 1, 0) ** 3 for s in exact),
        "graphs.construct_ms": ms(lambda s: s.layer == "graphs" and s.name in CONSTRUCTIONS),
        "graphs.construct_calls": sum(1 for s in spans if s.layer == "graphs" and s.name in CONSTRUCTIONS),
        "graphs.construct_edges": sum(s.attrs.get("edges", 0) for s in spans if s.layer == "graphs"),
        "graphs.predicate_ms": ms(lambda s: s.layer == "graphs" and s.name in PREDICATES),
        "graphio.parse_ms": ms(lambda s: s.layer == "graphio" and s.name in PARSE),
        "graphio.parse_bytes": sum(s.attrs.get("bytes", 0) for s in spans if s.name == "parse_graph"),
        "graphio.emit_ms": ms(lambda s: s.layer == "graphio" and s.name in EMIT),
        "graphio.emit_bytes": sum(s.attrs.get("bytes", 0) for s in spans if s.name == "emit_graph"),
        "cli.self_ms": ms(lambda s: s.layer == "cli"),
        "theorems.self_ms": ms(lambda s: s.layer == "theorems"),
        "theorems.checks": len(theorem_roots),
        "predict.closed_form_ms": ms(lambda s: s.layer == "predict"),
        "predict.closed_form_calls": sum(1 for s in spans if s.layer == "predict" and s.name.startswith("predict_")),
        "reports.render_ms": ms(lambda s: s.layer == "reports"),
        "reports.render_bytes": sum(s.attrs.get("bytes", 0) for s in spans if s.name == "render_report"),
        "search.ms": ms(lambda s: s.layer == "search"),
        "search.scanned": scanned,
        "search.prefilter_skip_frac": 1.0 - solved_in_search / scanned if scanned else 0.0,
    }


def layer_totals(spans: list[Span]) -> dict[str, float]:
    """Self time in ms per layer; the values sum to the root spans' total."""
    selfs = self_times(spans)
    out = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        out[s.layer] += 1000.0 * selfs[s.id]
    return out


def roots_ms(spans: list[Span]) -> float:
    return 1000.0 * math.fsum(s.duration for s in spans if s.parent is None)

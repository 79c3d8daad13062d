"""Exhaustive search for regular graphs with a prescribed Laplacian spectrum.

Enumeration is over labelled r-regular graphs with the symmetry reductions
that vertex 0's neighbourhood is fixed to {1..r} and untouched vertices are
used in label order; every isomorphism class still appears at least once,
which is all a witness search needs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from collections.abc import Iterator

import numpy as np

from .errors import ParameterError
from .graphs import Graph
from .spectra import spectrum_of, Spectrum, spectra_equal


@dataclass(frozen=True)
class SearchResult:
    witness: Graph | None
    scanned: int
    matched: int


def enumerate_regular_graphs(n: int, r: int) -> Iterator[Graph]:
    """All labelled r-regular graphs on n vertices, up to the two symmetry
    reductions above.  Backtracks vertex by vertex with degree pruning."""
    if n < 0 or r < 0:
        raise ParameterError("order and degree must be nonnegative")
    if r >= n or (n * r) % 2 != 0:
        return
    A = np.zeros((n, n), dtype=bool)
    deg = [0] * n

    def link(u, v, present):
        A[u, v] = A[v, u] = present
        step = 1 if present else -1
        deg[u] += step
        deg[v] += step

    def extend(i) -> Iterator[Graph]:
        if i == n:
            yield Graph._from_array(A.copy())
            return
        need = r - deg[i]
        if need == 0:
            yield from extend(i + 1)
            return
        row = A[i].tolist()
        cands = [j for j in range(i + 1, n) if deg[j] < r and not row[j]]
        if len(cands) < need:
            return
        fresh = [j for j in cands if deg[j] == 0]
        for chosen in itertools.combinations(cands, need):
            picked_fresh = [j for j in chosen if deg[j] == 0]
            if picked_fresh != fresh[: len(picked_fresh)]:
                continue  # interchangeable untouched vertices: smallest labels first
            for j in chosen:
                link(i, j, True)
            yield from extend(i + 1)
            for j in chosen:
                link(i, j, False)

    for j in range(1, r + 1):
        link(0, j, True)
    yield from extend(1)


def triangle_count(G: Graph) -> int:
    """trace(A^3) / 6, in floats: exact while n^3 < 2^53."""
    A = G.adjacency.astype(np.float64)
    return int(round(float(((A @ A) * A).sum()))) // 6


def find_regular_graph_with_l_spectrum(n: int, r: int, target: Spectrum,
                                       eps: float = 1e-6,
                                       stop_at_first: bool = True) -> SearchResult:
    """Scan all r-regular graphs on n vertices for one whose Laplacian
    spectrum matches the target multiset.

    A triangle-count prefilter (third spectral moment of r - mu, an exact
    integer) skips most eigensolves.
    """
    if len(target) != n:
        raise ParameterError(f"target spectrum has {len(target)} values, expected {n}")
    moment3 = sum((r - v) ** 3 for v in target.values)
    expected_triangles = round(moment3 / 6.0)
    prefilter_ok = abs(moment3 / 6.0 - expected_triangles) < 1e-6

    witness = None
    scanned = 0
    matched = 0
    for G in enumerate_regular_graphs(n, r):
        scanned += 1
        if prefilter_ok and triangle_count(G) != expected_triangles:
            continue
        if spectra_equal(spectrum_of(G, "laplacian"), target, eps):
            matched += 1
            if witness is None:
                witness = G
            if stop_at_first:
                break
    return SearchResult(witness, scanned, matched)

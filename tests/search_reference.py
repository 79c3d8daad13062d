"""Backtracking reference for the regular-graph witness search.

This is the vertex-by-vertex depth-first enumeration, with a per-graph
triangle prefilter, that the level-synchronous enumerator in
`equigraph.search` replaced; it is kept only to check the new one against.
Graphs are plain boolean adjacency arrays.
"""

import itertools

import numpy as np

from equigraph.search import SearchResult
from equigraph.graphs import Graph
from equigraph.spectra import spectra_equal, spectrum_of


def regular_graphs(n, r):
    """Labelled r-regular graphs on n vertices with vertex 0 joined to 1..r
    and untouched vertices used in label order, depth-first."""
    if r >= n or (n * r) % 2 != 0:
        return
    A = np.zeros((n, n), dtype=bool)
    deg = [0] * n

    def link(u, v, present):
        A[u, v] = A[v, u] = present
        step = 1 if present else -1
        deg[u] += step
        deg[v] += step

    def extend(i):
        if i == n:
            yield A.copy()
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
                continue
            for j in chosen:
                link(i, j, True)
            yield from extend(i + 1)
            for j in chosen:
                link(i, j, False)

    for j in range(1, r + 1):
        link(0, j, True)
    yield from extend(1)


def triangle_count(A):
    F = A.astype(np.float64)
    return int(round(float(((F @ F) * F).sum()))) // 6


def find_regular_graph_with_l_spectrum(n, r, target, eps=1e-6, stop_at_first=True):
    moment3 = sum((r - v) ** 3 for v in target.values)
    expected_triangles = round(moment3 / 6.0)
    prefilter_ok = abs(moment3 / 6.0 - expected_triangles) < 1e-6
    witness, scanned, matched = None, 0, 0
    for A in regular_graphs(n, r):
        scanned += 1
        if prefilter_ok and triangle_count(A) != expected_triangles:
            continue
        G = Graph._from_array(A)
        if spectra_equal(spectrum_of(G, "laplacian"), target, eps):
            matched += 1
            if witness is None:
                witness = G
            if stop_at_first:
                break
    return SearchResult(witness, scanned, matched)

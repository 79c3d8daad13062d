"""Exhaustive search for regular graphs with a prescribed Laplacian spectrum.

Enumeration is over labelled r-regular graphs with the symmetry reductions
that vertex 0's neighbourhood is fixed to {1..r} and untouched vertices are
used in label order; every isomorphism class still appears at least once,
which is all a witness search needs.

The enumeration is level-synchronous.  A partial graph is a row of int64
bitmasks (entry k holds the neighbours j > k that vertex k chose) and a
degree vector.  At level i, every partial graph of a chunk takes each subset
of {i+1..n-1} from a precomputed table, in `itertools.combinations` order,
that one vectorized mask accepts: the subset avoids full vertices, has
r - deg[i] elements, and uses untouched vertices only as a prefix of them.
Reading the mask's nonzeros in row-major order yields the leaves in
depth-first order.  The levels are chained generators over chunks of at most
`_CHUNK` partial graphs, so a search holds one chunk per level whatever the
number of graphs, and stops at the first chunk holding a match.  A chunk of
complete graphs passes the exact triangle prefilter as one batched matmul;
only its survivors become `Graph`s and are eigensolved.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from collections.abc import Iterable, Iterator

import numpy as np

from .errors import ParameterError
from .graphs import Graph
from .spectra import spectrum_of, Spectrum, spectra_equal

# Vertex sets are int64 bitmasks; 62 keeps 1 << n representable as well.
_MAX_ORDER = 62
# Most partial graphs in one chunk, subsets in one table slice, and entries
# in one validity mask.
_CHUNK = 1024


@dataclass(frozen=True)
class SearchResult:
    witness: Graph | None
    scanned: int
    matched: int


def _subset_tables(lo: int, n: int, r: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Subsets of {lo..n-1} with at most r elements, smallest size first and
    in `itertools.combinations` order within a size, as slices of at most
    `_CHUNK` rows: (bitmasks, 0/1 membership rows over 0..n-1, sizes)."""
    subsets = itertools.chain.from_iterable(
        itertools.combinations(range(lo, n), s) for s in range(min(r, n - lo) + 1))
    while batch := list(itertools.islice(subsets, _CHUNK)):
        bits = np.zeros((len(batch), n), dtype=np.int8)
        for row, subset in zip(bits, batch):
            row[list(subset)] = 1
        yield (bits.astype(np.int64) << np.arange(n)).sum(axis=1), bits, bits.sum(axis=1)


def _expand(chunks: Iterable[tuple[np.ndarray, np.ndarray]], i: int, n: int, r: int):
    """Every child at level i of every partial graph in `chunks`, in order,
    as chunks of at most `_CHUNK` partial graphs."""
    width = sum(math.comb(n - 1 - i, s) for s in range(min(r, n - 1 - i) + 1))
    # a table too wide for one slice is rebuilt, slice by slice, per parent
    table = list(_subset_tables(i + 1, n, r)) if width <= _CHUNK else None
    per = max(1, _CHUNK // width)
    later = np.arange(n) > i
    weights = np.int64(1) << np.arange(n)
    pending: list[tuple[np.ndarray, np.ndarray]] = []
    # chunks start small and double up to _CHUNK, so that the first leaves,
    # and a stop_at_first match among them, come after little work
    count, limit = 0, min(32, _CHUNK)
    for rows, deg in chunks:
        cand = ((deg < r) & later) @ weights
        fresh = ((deg == 0) & later) @ weights
        need = r - deg[:, i]
        for p in range(0, len(rows), per):
            block = slice(p, p + per)
            c, f, k = cand[block, None], fresh[block, None], need[block, None]
            for masks, bits, sizes in table or _subset_tables(i + 1, n, r):
                picked, left = masks & f, f & ~masks
                ok = (((masks & ~c) == 0) & (sizes == k)
                      & ((left == 0) | (picked < (left & -left))))
                parent, t = np.nonzero(ok)
                if not parent.size:
                    continue
                parent += p
                child_rows, child_deg = rows[parent], deg[parent] + bits[t]
                child_rows[:, i] = masks[t]
                child_deg[:, i] = r
                if pending and count + parent.size > limit:
                    yield _concat(pending)
                    pending, count, limit = [], 0, min(2 * limit, _CHUNK)
                pending.append((child_rows, child_deg))
                count += parent.size
    if pending:
        yield _concat(pending)


def _concat(pieces: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    rows, deg = zip(*pieces)
    return np.concatenate(rows), np.concatenate(deg)


def _regular_graph_chunks(n: int, r: int) -> Iterator[np.ndarray]:
    """Boolean adjacency stacks, shape (k, n, n) with k <= `_CHUNK`, of all
    labelled r-regular graphs on n vertices up to the two symmetry
    reductions above, in depth-first order."""
    if n < 0 or r < 0:
        raise ParameterError("order and degree must be nonnegative")
    if n > _MAX_ORDER:
        raise ParameterError(f"regular-graph search supports at most {_MAX_ORDER} vertices, got {n}")
    if r >= n or (n * r) % 2 != 0:
        return iter(())
    rows = np.zeros((1, n), dtype=np.int64)
    rows[0, 0] = ((1 << r) - 1) << 1
    deg = np.zeros((1, n), dtype=np.int8)
    deg[0, 1:r + 1] = 1
    deg[0, 0] = r
    chunks: Iterable = [(rows, deg)]
    for i in range(1, n):
        chunks = _expand(chunks, i, n, r)
    bit = np.int64(1) << np.arange(n)
    return (upper | upper.transpose(0, 2, 1)
            for upper in ((rows[:, :, None] & bit) != 0 for rows, _ in chunks))


def _triangle_counts(A: np.ndarray) -> np.ndarray:
    """trace(A^3) / 6 of each adjacency array in a stack (..., n, n), in
    floats: exact while n^3 < 2^53."""
    F = A.astype(np.float64)
    closed = np.rint(((F @ F) * F).sum(axis=(-2, -1))).astype(np.int64)
    return closed // 6


def find_regular_graph_with_l_spectrum(n: int, r: int, target: Spectrum,
                                       eps: float = 1e-6,
                                       stop_at_first: bool = True) -> SearchResult:
    """Scan all r-regular graphs on n vertices (n <= 62) for one whose
    Laplacian spectrum matches the target multiset.

    A triangle-count prefilter (third spectral moment of r - mu, an exact
    integer) skips most eigensolves.  `scanned` counts the graphs up to and
    including the first match when `stop_at_first`, else all of them.
    """
    chunks = _regular_graph_chunks(n, r)
    if len(target) != n:
        raise ParameterError(f"target spectrum has {len(target)} values, expected {n}")
    moment3 = sum((r - v) ** 3 for v in target.values)
    expected_triangles = round(moment3 / 6.0)
    prefilter_ok = abs(moment3 / 6.0 - expected_triangles) < 1e-6

    witness = None
    scanned = 0
    matched = 0
    for A in chunks:
        survivors = (np.flatnonzero(_triangle_counts(A) == expected_triangles) if prefilter_ok
                     else range(len(A)))
        for j in survivors:
            G = Graph._from_array(A[j].copy())
            if spectra_equal(spectrum_of(G, "laplacian"), target, eps):
                matched += 1
                if witness is None:
                    witness = G
                if stop_at_first:
                    return SearchResult(witness, scanned + int(j) + 1, matched)
        scanned += len(A)
    return SearchResult(witness, scanned, matched)

"""Regular-graph witness search: the level-synchronous enumerator against the
backtracking reference in `search_reference`, by leaf order and by result."""

import tracemalloc

import numpy as np
import pytest

import search_reference as ref
from equigraph import search
from equigraph.errors import ParameterError
from equigraph.graphs import Graph
from equigraph.search import SearchResult, _regular_graph_chunks, find_regular_graph_with_l_spectrum
from equigraph.spectra import Spectrum, spectrum_of

FIG1_SPECTRUM_B = Spectrum((0, 2, 3, 3, 5, 5, 6, 6, 6))
# third moment of 4 - mu is not a multiple of 6: the prefilter is off, and
# eps = 0.01 still matches the same graphs as the Figure-1 target
OFF_PREFILTER = Spectrum((0, 2, 3, 3, 5, 5, 6, 6, 6.001))
ORDERS = [(7, 4), (8, 3), (8, 5), (9, 4), (10, 3), (10, 4)]


def leaves(n, r):
    return [A.tobytes() for chunk in _regular_graph_chunks(n, r) for A in chunk]


def circulant_10_4() -> Graph:
    return Graph(10, {tuple(sorted((i, (i + d) % 10))) for i in range(10) for d in (1, 2)})


@pytest.mark.parametrize("n, r", ORDERS + [(1, 0), (6, 0), (12, 2), (62, 1)])
def test_leaf_order_matches_backtracking(n, r):
    chunks = list(_regular_graph_chunks(n, r))
    assert all(len(A) <= search._CHUNK and A.dtype == bool for A in chunks)
    assert leaves(n, r) == [A.tobytes() for A in ref.regular_graphs(n, r)]


@pytest.mark.parametrize("n, r", [(8, 3), (9, 4)])
def test_leaf_order_with_tables_wider_than_a_chunk(n, r, monkeypatch):
    # with 8-row chunks most tables are rebuilt slice by slice per parent
    monkeypatch.setattr(search, "_CHUNK", 8)
    assert all(len(A) <= 8 for A in _regular_graph_chunks(n, r))
    assert leaves(n, r) == [A.tobytes() for A in ref.regular_graphs(n, r)]


@pytest.mark.parametrize("target, eps", [(FIG1_SPECTRUM_B, 1e-6), (OFF_PREFILTER, 0.01)])
@pytest.mark.parametrize("stop_at_first", [True, False])
def test_result_matches_backtracking(target, eps, stop_at_first):
    got = find_regular_graph_with_l_spectrum(9, 4, target, eps, stop_at_first)
    assert got == ref.find_regular_graph_with_l_spectrum(9, 4, target, eps, stop_at_first)
    assert (got.scanned, got.matched) == ((23, 1) if stop_at_first else (2047, 40))


@pytest.mark.parametrize("target, eps", [(FIG1_SPECTRUM_B, 1e-6), (OFF_PREFILTER, 0.01)])
def test_one_eigensolve_per_prefilter_survivor(target, eps, monkeypatch):
    solved = []

    def counting(G, kind):
        solved.append(G.adjacency.tobytes())
        return spectrum_of(G, kind)

    monkeypatch.setattr(search, "spectrum_of", counting)
    find_regular_graph_with_l_spectrum(9, 4, target, eps, stop_at_first=False)
    graphs = list(ref.regular_graphs(9, 4))
    triangles = sum((4 - v) ** 3 for v in target.values) / 6  # 8 for the Figure-1 target
    survivors = graphs if target is OFF_PREFILTER else [A for A in graphs if ref.triangle_count(A) == triangles]
    assert solved == [A.tobytes() for A in survivors]
    assert len(survivors) == (2047 if target is OFF_PREFILTER else 124)


@pytest.mark.parametrize("n, r", [(5, 3), (7, 1), (4, 4), (4, 5), (0, 0), (62, 62)])
def test_no_graphs_for_odd_degree_sum_or_degree_at_least_order(n, r):
    assert find_regular_graph_with_l_spectrum(n, r, Spectrum((0.0,) * n)) == SearchResult(None, 0, 0)


@pytest.mark.parametrize("n, r", [(-1, 2), (4, -1), (63, 2), (100, 3)])
def test_negative_or_unsupported_order_is_refused(n, r):
    with pytest.raises(ParameterError):
        find_regular_graph_with_l_spectrum(n, r, Spectrum((0.0,) * max(n, 0)))
    with pytest.raises(ParameterError):
        _regular_graph_chunks(n, r)


@pytest.mark.parametrize("n, target", [(9, FIG1_SPECTRUM_B), (10, spectrum_of(circulant_10_4(), "laplacian"))])
def test_full_search_memory_is_bounded(n, target):
    tracemalloc.start()
    try:
        result = find_regular_graph_with_l_spectrum(n, 4, target, stop_at_first=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.scanned == {9: 2047, 10: 21740}[n] and result.matched >= 1
    assert peak < 8 * 2**20


def test_triangle_count_is_the_batched_count_of_one_graph():
    stack = np.stack([A for _, A in zip(range(50), ref.regular_graphs(10, 4))])
    counts = search._triangle_counts(stack)
    assert counts.tolist() == [ref.triangle_count(A) for A in stack]
    assert [int(search._triangle_counts(A)) for A in stack] == counts.tolist()

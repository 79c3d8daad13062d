"""Graph type, named families, and construction laws.

Edge-count and structure laws under test:
  cover:     m' = 2m + n, bipartite, perfect matching, degrees shift by 1
  join:      m' = m1 + m2 + n1*n2
  cartesian: m' = n1*m2 + n2*m1
  kronecker: m' = 2*m1*m2
  k-fold:    m' = k^2 * m, adjacency = A (x) all-ones
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equigraph.errors import ParameterError, ResourceLimitError, ValidationError
from equigraph.graphs import (
    Graph,
    build_named,
    cartesian_product,
    complement,
    complete,
    complete_bipartite,
    connected_components,
    copies,
    cycle,
    disjoint_union,
    double_graph,
    empty,
    extended_double_cover,
    hypercube,
    is_bipartite,
    is_connected,
    is_regular,
    iterated_edc,
    join,
    k_fold,
    kronecker_product,
    line_graph,
    path,
)

from conftest import random_graph


@st.composite
def graphs(draw, max_n=7):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if pairs:
        edges = draw(st.sets(st.sampled_from(pairs)))
    else:
        edges = set()
    return Graph(n, frozenset(edges))


def adjacency_array(G: Graph) -> np.ndarray:
    A = np.zeros((G.n, G.n), dtype=int)
    for u, v in G.edges:
        A[u, v] = A[v, u] = 1
    return A


class TestGraphType:
    def test_basic_counts(self):
        G = Graph.from_edges(4, [(0, 1), (1, 2), (3, 2)])
        assert G.n == 4 and G.m == 3
        assert sum(G.degrees()) == 2 * G.m

    def test_rejects_bad_endpoint(self):
        with pytest.raises(ValidationError):
            Graph.from_edges(2, [(0, 2)])

    def test_rejects_loop(self):
        with pytest.raises(ValidationError):
            Graph.from_edges(3, [(1, 1)])

    def test_normalises_orientation(self):
        assert Graph.from_edges(3, [(2, 0)]) == Graph.from_edges(3, [(0, 2)])

    def test_empty_graph_allowed(self):
        G = Graph(0, frozenset())
        assert G.n == 0 and G.m == 0


class TestNamedFamilies:
    def test_complete_3(self):
        G = build_named("complete", [3])
        assert (G.n, G.m) == (3, 3)

    def test_empty_4(self):
        G = build_named("empty", [4])
        assert (G.n, G.m) == (4, 0)

    def test_cycle_4(self):
        G = build_named("cycle", [4])
        assert (G.n, G.m) == (4, 4)
        assert G.degrees() == [2, 2, 2, 2]

    def test_path_and_bipartite(self):
        assert build_named("path", [5]).m == 4
        assert build_named("complete_bipartite", [2, 3]).m == 6

    def test_hypercube(self):
        G = build_named("hypercube", [3])
        assert G.n == 8 and G.m == 12 and is_regular(G)

    @pytest.mark.parametrize("family,params", [
        ("complete", [0]),
        ("cycle", [2]),
        ("complete_bipartite", [3]),
        ("nosuch", [3]),
    ])
    def test_rejects_bad_params(self, family, params):
        with pytest.raises(ParameterError):
            build_named(family, params)


class TestComplement:
    def test_complete_to_empty(self):
        assert complement(complete(3)).m == 0
        assert complement(empty(4)) == complete(4)

    def test_c5_self_complementary(self):
        # isomorphism-free check: same size and degree sequence
        G = cycle(5)
        H = complement(G)
        assert H.m == 5
        assert sorted(H.degrees()) == sorted(G.degrees())

    @given(graphs())
    @settings(max_examples=50, deadline=None)
    def test_edge_count_law(self, G):
        assert complement(G).m == G.n * (G.n - 1) // 2 - G.m


class TestUnionJoin:
    def test_union_counts(self):
        U = disjoint_union(complete(2), complete(2))
        assert (U.n, U.m) == (4, 2)

    def test_copies(self):
        C = copies(complete(3), 3)
        assert (C.n, C.m) == (9, 9)
        assert len(connected_components(C)) == 3

    def test_copies_rejects_zero(self):
        with pytest.raises(ParameterError):
            copies(complete(2), 0)

    def test_copies_of_the_empty_graph_refuse_a_huge_count_at_once(self):
        with pytest.raises(ResourceLimitError, match="above the cap"):
            copies(Graph(0, []), 10**12)

    def test_join_is_complete_bipartite(self):
        assert join(empty(2), empty(2)) == complete_bipartite(2, 2)

    def test_join_wheel_counts(self):
        W = join(complete(1), cycle(4))
        assert (W.n, W.m) == (5, 8)

    def test_join_k33_with_empty9(self):
        J = join(complete_bipartite(3, 3), empty(9))
        assert (J.n, J.m) == (15, 9 + 0 + 54)

    @given(graphs(max_n=5), graphs(max_n=5))
    @settings(max_examples=50, deadline=None)
    def test_join_edge_law(self, G1, G2):
        assert join(G1, G2).m == G1.m + G2.m + G1.n * G2.n


class TestProducts:
    def test_k2_cartesian_k2_is_c4(self):
        P = cartesian_product(complete(2), complete(2))
        assert (P.n, P.m) == (4, 4)
        assert P.degrees() == [2, 2, 2, 2] and is_connected(P)

    def test_k3_cartesian_k3(self):
        P = cartesian_product(complete(3), complete(3))
        assert (P.n, P.m) == (9, 18)
        assert is_regular(P) and P.degrees()[0] == 4

    def test_grid_2x3(self):
        P = cartesian_product(path(2), path(3))
        assert (P.n, P.m) == (6, 7)

    def test_k2_kronecker_k2_is_2k2(self):
        P = kronecker_product(complete(2), complete(2))
        assert (P.n, P.m) == (4, 2)
        assert P.degrees() == [1, 1, 1, 1]

    def test_k3_kronecker_k2_is_c6(self):
        P = kronecker_product(complete(3), complete(2))
        assert (P.n, P.m) == (6, 6)
        assert P.degrees() == [2] * 6 and is_connected(P) and is_bipartite(P)

    @given(graphs(max_n=5), graphs(max_n=5))
    @settings(max_examples=50, deadline=None)
    def test_product_edge_laws(self, G1, G2):
        assert cartesian_product(G1, G2).m == G1.n * G2.m + G2.n * G1.m
        assert kronecker_product(G1, G2).m == 2 * G1.m * G2.m

    def test_kronecker_matrix_identity(self):
        rng = np.random.default_rng(7)
        G1, G2 = random_graph(rng, 5), random_graph(rng, 4)
        K = kronecker_product(G1, G2)
        assert np.array_equal(adjacency_array(K),
                              np.kron(adjacency_array(G1), adjacency_array(G2)))


class TestExtendedDoubleCover:
    def test_k2_cover_is_c4(self):
        C = extended_double_cover(complete(2))
        assert (C.n, C.m) == (4, 4) and C.degrees() == [2] * 4 and is_connected(C)

    def test_k3_cover_is_k33(self):
        assert extended_double_cover(complete(3)) == complete_bipartite(3, 3)

    def test_empty_cover_is_matching(self):
        C = extended_double_cover(empty(4))
        assert C.edges == frozenset({(i, 4 + i) for i in range(4)})

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_cover_laws(self, G):
        C = extended_double_cover(G)
        assert C.n == 2 * G.n
        assert C.m == 2 * G.m + G.n
        assert is_bipartite(C)
        # perfect matching {i, n+i} by construction
        assert all(C.has_edge(i, G.n + i) for i in range(G.n))
        deg = C.degrees()
        for i, d in enumerate(G.degrees()):
            assert deg[i] == d + 1 and deg[G.n + i] == d + 1

    def test_cover_connected_iff(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            G = random_graph(rng, int(rng.integers(1, 8)))
            assert is_connected(extended_double_cover(G)) == is_connected(G)

    def test_iterated_counts(self):
        G = iterated_edc(complete(2), 2)
        assert (G.n, G.m) == (8, 12)
        G = iterated_edc(complete(3), 2)
        assert (G.n, G.m) == (12, 24)

    def test_iterated_identity_and_bipartite(self):
        G = complete(3)
        assert iterated_edc(G, 0) == G
        for k in range(1, 4):
            assert is_bipartite(iterated_edc(G, k))

    def test_iterated_rejects_negative(self):
        with pytest.raises(ParameterError):
            iterated_edc(complete(2), -1)


class TestKFold:
    def test_double_k2_is_c4(self):
        D = double_graph(complete(2))
        assert (D.n, D.m) == (4, 4) and D.degrees() == [2] * 4 and is_connected(D)

    def test_kfold_counts(self):
        D = k_fold(complete(3), 2)
        assert (D.n, D.m) == (6, 12)

    def test_kfold_identity(self):
        G = path(4)
        assert k_fold(G, 1) == G

    def test_kfold_rejects_zero(self):
        with pytest.raises(ParameterError):
            k_fold(complete(2), 0)

    @given(graphs(max_n=5), st.integers(min_value=1, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_kfold_matrix_identity(self, G, k):
        D = k_fold(G, k)
        assert D.m == k * k * G.m
        assert np.array_equal(adjacency_array(D), np.kron(adjacency_array(G), np.ones((k, k))))


class TestLineGraph:
    def test_small_classics(self):
        assert line_graph(path(3)) == complete(2)
        assert line_graph(complete(3)) == complete(3)
        L = line_graph(cycle(4))
        assert (L.n, L.m) == (4, 4) and L.degrees() == [2] * 4

    def test_regular_law(self):
        G = cartesian_product(complete(3), complete(3))  # 4-regular, 9 vertices
        L = line_graph(G)
        assert L.n == 9 * 4 // 2
        assert is_regular(L) and L.degrees()[0] == 2 * 4 - 2


class TestEmptyGraphPropagation:
    def test_constructions_accept_n0(self):
        G = Graph(0, frozenset())
        assert extended_double_cover(G).n == 0
        assert complement(G).n == 0
        assert k_fold(G, 3).n == 0
        assert cartesian_product(G, complete(3)).n == 0
        assert join(G, complete(2)) == complete(2)

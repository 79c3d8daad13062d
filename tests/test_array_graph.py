"""The array-backed Graph against the edge-set reference it replaced.

Every construction, both encoders and the derived views must agree exactly
with `edgeset_reference`: on hypothesis graphs with n <= 12, and on seeded
graphs of 63, 64, 100 and 257 vertices, whose graph6 strings carry the
four-byte order field (n >= 63); the upper triangles of 63 and 257 vertices
end in a partial 6-bit group, those of 64 and 100 in a full one.  Larger
seeded cases reach what those sizes miss: graph6 triangles of 0, 6, 12 and 18
bits mod 24, the edge list's 4-digit labels, a sparse and a dense Kronecker
factor in both orders, and k-fold graphs up to the cap; seeded codec cases of
0, 1, 2, 6 and 48 vertices hold each format's one kernel to the reference
where a document is a few bytes long.  They compare codecs and products only,
because the reference line graph is quadratic in m.
"""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import edgeset_reference as ref
import equigraph
from equigraph import graphs as g
from equigraph.errors import ValidationError
from equigraph.graphio import decode_edgelist, decode_graph6, encode_edgelist, encode_graph6
from equigraph.limits import vertex_cap
from equigraph.search import _triangle_counts
from equigraph.spectra import _bareiss_determinant, matrix_of, spanning_trees_exact

from conftest import random_graph


@st.composite
def graphs(draw, max_n=12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return g.Graph(n, frozenset(edges))


def checked_of(G):
    """`ref.of(G)` once the adjacency is a square, read-only boolean array,
    symmetric with a zero diagonal: the invariant that constructions and
    decoders promise `Graph._from_array`, and that the edge set, read from
    the upper triangle only, cannot see."""
    A = G.adjacency
    assert A.dtype == bool and A.shape == (G.n, G.n) and not A.flags.writeable
    assert np.array_equal(A, A.T)
    assert not A.diagonal().any()
    return ref.of(G)


def assert_unary_constructions_match(G):
    E = ref.of(G)
    assert checked_of(g.complement(G)) == ref.complement(E)
    assert checked_of(g.extended_double_cover(G)) == ref.extended_double_cover(E)
    assert checked_of(g.iterated_edc(G, 2)) == ref.iterated_edc(E, 2)
    assert checked_of(g.double_graph(G)) == ref.double_graph(E)
    assert checked_of(g.k_fold(G, 3)) == ref.k_fold(E, 3)
    assert checked_of(g.line_graph(G)) == ref.line_graph(E)


def assert_binary_constructions_match(G1, G2):
    E1, E2 = ref.of(G1), ref.of(G2)
    assert checked_of(g.disjoint_union(G1, G2)) == ref.disjoint_union(E1, E2)
    assert checked_of(g.join(G1, G2)) == ref.join(E1, E2)
    assert checked_of(g.cartesian_product(G1, G2)) == ref.cartesian_product(E1, E2)
    assert checked_of(g.kronecker_product(G1, G2)) == ref.kronecker_product(E1, E2)


def assert_codecs_match(G):
    E = ref.of(G)
    g6, el = ref.encode_graph6(E), ref.encode_edgelist(E)
    assert encode_graph6(G) == g6
    assert encode_edgelist(G) == el
    for H in (decode_graph6(g6), decode_edgelist(el)):
        assert checked_of(H) == E and H == G


def assert_views_match(G):
    E = ref.of(G)
    H = nx.Graph()
    H.add_nodes_from(range(G.n))
    H.add_edges_from(E[1])
    assert G.m == len(E[1])
    assert G.degrees() == ref.degrees(E)
    assert all(type(u) is int and type(v) is int for u, v in G.edges)
    assert all(G.adjacency[u, v] == H.has_edge(u, v) for u in range(G.n) for v in range(G.n))
    assert g.is_connected(G) == (nx.number_connected_components(H) <= 1)
    assert g.is_bipartite(G) == nx.is_bipartite(H)
    assert _triangle_counts(G.adjacency) == sum(nx.triangles(H).values()) // 3
    A = np.zeros((G.n, G.n))
    for u, v in E[1]:
        A[u, v] = A[v, u] = 1.0
    D = np.diag(A.sum(axis=1)) if G.n else np.zeros((0, 0))
    assert matrix_of(G, "adjacency").tobytes() == A.tobytes()
    assert matrix_of(G, "laplacian").tobytes() == (D - A).tobytes()
    assert matrix_of(G, "signless_laplacian").tobytes() == (D + A).tobytes()
    if G.n:
        assert spanning_trees_exact(G) == _bareiss_determinant(ref.laplacian_minor(E))


class TestAgainstEdgeSetReference:
    @pytest.mark.parametrize("build,args", [
        ("complete", (1,)), ("complete", (7,)), ("empty", (5,)),
        ("complete_bipartite", (3, 4)), ("path", (1,)), ("path", (6,)),
        ("cycle", (3,)), ("cycle", (9,)), ("hypercube", (0,)), ("hypercube", (4,)),
    ])
    def test_named_families(self, build, args):
        assert checked_of(getattr(g, build)(*args)) == getattr(ref, build)(*args)

    @given(graphs())
    @settings(max_examples=80, deadline=None)
    def test_unary_constructions(self, G):
        assert_unary_constructions_match(G)

    @given(graphs(max_n=8), graphs(max_n=8))
    @settings(max_examples=80, deadline=None)
    def test_binary_constructions(self, G1, G2):
        assert_binary_constructions_match(G1, G2)

    @given(graphs())
    @settings(max_examples=120, deadline=None)
    def test_codecs(self, G):
        assert_codecs_match(G)

    @given(graphs())
    @settings(max_examples=80, deadline=None)
    def test_derived_views(self, G):
        assert_views_match(G)

    @pytest.mark.parametrize("n", [63, 64, 100, 257])
    def test_seeded_larger_graphs(self, n):
        rng = np.random.default_rng(n)
        G = random_graph(rng, n, 3.0 / n)
        small = random_graph(rng, 5, 0.5)
        assert_codecs_match(G)
        assert_codecs_match(g.complement(G))
        assert_unary_constructions_match(G)
        assert_binary_constructions_match(G, small)
        assert_binary_constructions_match(small, G)
        assert_binary_constructions_match(G, g.complete(2))
        assert ref.of(g.join(G, G)) == ref.join(ref.of(G), ref.of(G))
        assert_views_match(G)


def array_random_graph(rng, n, p):
    """G(n, p) drawn as one array, for sizes where a Python loop per pair is slow."""
    A = np.triu(rng.random((n, n)) < p, 1)
    return g.Graph._from_array(A | A.T)


class TestAgainstReferenceAtScale:
    @pytest.mark.parametrize("n,rem24", [(208, 0), (205, 6), (201, 12), (204, 18), (1000, 12), (1001, 4),
                                         (0, 0), (1, 0), (2, 1), (6, 15), (48, 0)])
    def test_seeded_codecs(self, n, rem24):
        """Triangles of every multiple of 6 bits mod 24, 4-digit labels with
        a full (1000) and a partial (1001) last 6-bit group, and documents
        of a few bytes: no triangle, one bit, a partial 3-byte word."""
        nbits = n * (n - 1) // 2
        assert nbits % 24 == rem24
        G = array_random_graph(np.random.default_rng(n), n, 8.0 / max(n, 16))
        assert_codecs_match(G)

    @pytest.mark.parametrize("n1,p1,n2,p2", [
        (1024, 4 / 1024, 2, 1.0),  # G (x) K_2: two strided blocks
        (2, 1.0, 1024, 4 / 1024),  # K_2 (x) G: two blocks of G
        (40, 0.05, 48, 0.3),  # the sparser factor first: block loop
        (48, 0.3, 40, 0.05),  # the sparser factor second: block loop
        (32, 0.4, 32, 0.4),  # both dense: block loop
    ])
    def test_seeded_kronecker_products(self, n1, p1, n2, p2):
        rng = np.random.default_rng(n1 * n2)
        G1, G2 = array_random_graph(rng, n1, p1), array_random_graph(rng, n2, p2)
        assert checked_of(g.kronecker_product(G1, G2)) == ref.kronecker_product(ref.of(G1), ref.of(G2))

    @pytest.mark.parametrize("n,p,k", [
        (1000, 4 / 1000, 1), (1000, 4 / 1000, 2), (1000, 4 / 1000, 3),  # J_k the sparser factor
        (12, 0.15, 40),  # A sparser: one all-ones block per nonzero
        (4, 1.0, 40),  # A dense: one all-ones block per nonzero
    ])
    def test_seeded_k_folds(self, n, p, k):
        G = array_random_graph(np.random.default_rng(n * k), n, p)
        assert checked_of(g.k_fold(G, k)) == ref.k_fold(ref.of(G), k)

    def test_k_fold_of_one_vertex_at_the_cap(self):
        F = g.k_fold(g.complete(1), vertex_cap())
        assert checked_of(F) == (vertex_cap(), frozenset())


class TestGraphType:
    def test_adjacency_is_read_only_and_graph_immutable(self):
        G = g.cycle(5)
        assert G.adjacency.dtype == bool and not G.adjacency.flags.writeable
        with pytest.raises(ValueError):
            G.adjacency[0, 2] = True
        with pytest.raises(AttributeError):
            G.n = 6

    def test_pickle_and_deepcopy_round_trip(self):
        G = g.Graph(4, [(0, 1), (2, 3)])
        for H in (pickle.loads(pickle.dumps(G)), copy.deepcopy(G)):
            assert H == G and not H.adjacency.flags.writeable

    def test_equality_and_hash_follow_the_array(self):
        a = g.Graph(4, [(0, 1), (2, 3)])
        b = g.Graph(4, [(2, 3), (0, 1)])
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != g.Graph(5, [(0, 1), (2, 3)])
        assert a != g.Graph(4, [(0, 1)])

    @pytest.mark.parametrize("edges,fragment", [
        ([(0, 3)], r"edge \(0, 3\) invalid for n=3"),
        ([(1, 0)], r"edge \(1, 0\) invalid"),
        ([(0, 1, 2)], "pairs of integer"),
        ([(0.5, 1)], "pairs of integer"),
    ])
    def test_edge_validation_messages(self, edges, fragment):
        with pytest.raises(ValidationError, match=fragment):
            g.Graph(3, edges)

    def test_edges_and_edge_arrays_are_sorted_pairs(self):
        G = g.Graph(5, [(3, 4), (0, 2), (1, 4), (0, 1)])
        u, v = G.edge_arrays()
        assert list(zip(u.tolist(), v.tolist())) == sorted(G.edges) == [(0, 1), (0, 2), (1, 4), (3, 4)]


def test_import_loads_neither_scipy_nor_networkx():
    code = ("import sys, equigraph, equigraph.cli; "
            "print(sorted(m for m in ('scipy', 'networkx') if m in sys.modules))")
    src = str(Path(equigraph.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"

"""Graph serialization: edge-list format and the standard graph6 encoding.

networkx's codec serves as the independent oracle for graph6; agreement is
exhaustive for n <= 5 and sampled for n <= 8.
"""

import itertools

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equigraph.errors import EquigraphError, ParameterError, ParseError, ResourceLimitError, ValidationError
from equigraph.graphio import (
    GraphDocument,
    decode_edgelist,
    decode_graph6,
    detect_format,
    emit_graph,
    encode_edgelist,
    encode_graph6,
    parse_graph,
)
from equigraph.graphs import (
    Graph,
    cartesian_product,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    empty,
    extended_double_cover,
    hypercube,
    iterated_edc,
    join,
    k_fold,
    kronecker_product,
    line_graph,
    path,
)

from conftest import random_graph


@st.composite
def graphs(draw, max_n=10):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph(n, frozenset(edges))


def all_graphs_up_to(max_n):
    for n in range(max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            edges = {pairs[i] for i in range(len(pairs)) if bits >> i & 1}
            yield Graph(n, frozenset(edges))


def to_nx(G: Graph) -> nx.Graph:
    H = nx.Graph()
    H.add_nodes_from(range(G.n))
    H.add_edges_from(G.edges)
    return H


class TestEdgelist:
    def test_k2_round(self):
        assert decode_edgelist("2 1\n0 1") == complete(2)
        assert encode_edgelist(complete(2)) == "2 1\n0 1\n"

    def test_emit_is_sorted_header_plus_lines(self):
        text = encode_edgelist(cycle(4))
        assert text.splitlines()[0] == "4 4"
        assert len(text.splitlines()) == 5

    def test_round_trip_random(self):
        rng = np.random.default_rng(61)
        for _ in range(100):
            G = random_graph(rng, int(rng.integers(0, 13)))
            assert decode_edgelist(encode_edgelist(G)) == G

    def test_endpoint_out_of_range(self):
        with pytest.raises(ValidationError, match="line 2"):
            decode_edgelist("2 1\n0 2")

    def test_loop_rejected(self):
        with pytest.raises(ValidationError, match="loop"):
            decode_edgelist("3 1\n1 1")

    def test_duplicate_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            decode_edgelist("3 2\n0 1\n1 0")

    @pytest.mark.parametrize("text,fragment", [
        ("", "empty"),
        ("2", "header"),
        ("a b\n", "two integers"),
        ("2 2\n0 1", "promises 2 edges"),
        ("2 1\n0 1 2", "edge must be"),
        ("2 1\nx y", "integers"),
    ])
    def test_parse_errors(self, text, fragment):
        with pytest.raises(ParseError, match=fragment):
            decode_edgelist(text)


class TestGraph6:
    def test_k4_is_tilde_string(self):
        assert encode_graph6(complete(4)) == "C~"
        assert decode_graph6("C~") == complete(4)

    def test_header_stripped(self):
        assert decode_graph6(">>graph6<<C~") == complete(4)

    def test_empty_and_singleton(self):
        assert decode_graph6(encode_graph6(empty(1))) == empty(1)
        assert decode_graph6(encode_graph6(Graph(0, frozenset()))) == Graph(0, frozenset())

    def test_exhaustive_round_trip_small(self):
        for G in all_graphs_up_to(5):
            assert decode_graph6(encode_graph6(G)) == G

    def test_exhaustive_agreement_with_networkx_small(self):
        for G in all_graphs_up_to(5):
            ours = encode_graph6(G)
            theirs = nx.to_graph6_bytes(to_nx(G), header=False).decode().strip()
            assert ours == theirs

    def test_sampled_agreement_with_networkx(self):
        rng = np.random.default_rng(67)
        for _ in range(200):
            G = random_graph(rng, int(rng.integers(0, 9)))
            ours = encode_graph6(G)
            theirs = nx.to_graph6_bytes(to_nx(G), header=False).decode().strip()
            assert ours == theirs
            back = nx.from_graph6_bytes(ours.encode())
            assert set(map(tuple, map(sorted, back.edges()))) == set(G.edges)

    def test_large_order_field(self):
        G = empty(100)
        s = encode_graph6(G)
        assert s.startswith("~") and decode_graph6(s) == G

    @pytest.mark.parametrize("text,fragment", [
        ("", "empty"),
        ("C~\nC~", "single line"),
        ("C" + chr(20), "outside graph6 range"),
        ("C~~", "expected"),
        ("C", "expected"),
    ])
    def test_parse_errors(self, text, fragment):
        with pytest.raises(ParseError, match=fragment):
            decode_graph6(text)

    def test_nonzero_padding_rejected(self):
        # K_2 encodes to 'A_'; 'A' + chr(63+1) carries a stray padding bit
        assert decode_graph6("A_") == complete(2)
        with pytest.raises(ParseError, match="padding"):
            decode_graph6("A" + chr(63 + 1))

    @given(graphs())
    @settings(max_examples=120, deadline=None)
    def test_round_trip_property(self, G):
        assert decode_graph6(encode_graph6(G)) == G


class TestDocuments:
    def test_parse_emit_round_trip(self):
        G = cycle(5)
        for fmt in ("graph6", "edgelist"):
            doc = emit_graph(G, fmt)
            assert doc.format == fmt
            assert parse_graph(doc) == G

    def test_unknown_format_rejected(self):
        with pytest.raises(ParameterError):
            emit_graph(complete(2), "dot")
        with pytest.raises(ParameterError):
            GraphDocument("dot", "")

    def test_detect_format(self):
        assert detect_format("3 1\n0 1\n") == "edgelist"
        assert detect_format("C~") == "graph6"
        assert detect_format(">>graph6<<C~") == "graph6"
        assert detect_format("  2 1\n0 1") == "edgelist"


class TestVertexCapAtParse:
    """A header above the cap is refused before the n x n array is allocated."""

    @pytest.mark.parametrize("decode,encode", [(decode_graph6, encode_graph6),
                                               (decode_edgelist, encode_edgelist)])
    def test_nine_vertices_above_a_cap_of_eight(self, decode, encode, monkeypatch):
        monkeypatch.setenv("EQUIGRAPH_MAX_VERTICES", "8")
        assert decode(encode(cycle(8))) == cycle(8)
        with pytest.raises(ResourceLimitError, match="needs 9 vertices, above the cap of 8"):
            decode(encode(cycle(9)))

    @pytest.mark.parametrize("text", ["100000 0\n", "~~?@????", "~A??" + "?" * 10])
    def test_huge_header_refused_without_its_body(self, text):
        with pytest.raises(ResourceLimitError, match="above the cap"):
            parse_graph(GraphDocument(detect_format(text), text))

    @pytest.mark.parametrize("build", [
        lambda: Graph(9, [(0, 1)]),
        lambda: complete(9),
        lambda: empty(9),
        lambda: complete_bipartite(4, 5),
        lambda: path(9),
        lambda: cycle(9),
        lambda: hypercube(4),
        lambda: disjoint_union(complete(5), complete(5)),
        lambda: join(complete(5), complete(5)),
        lambda: kronecker_product(complete(3), complete(3)),
        lambda: cartesian_product(complete(3), complete(3)),
        lambda: extended_double_cover(complete(5)),
        lambda: iterated_edc(complete(3), 2),
        lambda: k_fold(complete(3), 3),
        lambda: line_graph(complete(5)),
    ], ids=["graph", "complete", "empty", "complete_bipartite", "path", "cycle", "hypercube",
            "disjoint_union", "join", "kronecker_product", "cartesian_product",
            "extended_double_cover", "iterated_edc", "k_fold", "line_graph"])
    def test_library_graph_refused_above_the_cap(self, build, monkeypatch):
        """Every construction refuses a result above the cap, not only the CLI."""
        monkeypatch.setenv("EQUIGRAPH_MAX_VERTICES", "8")
        with pytest.raises(ResourceLimitError, match="above the cap of 8"):
            build()


_FUZZ_ALPHABET = st.sampled_from(list("0123456789 \n\t-~?@_ABC}xyz\u00b2\u0663\u00e9\u2028>graph6<"))


@given(st.one_of(st.text(), st.text(alphabet=_FUZZ_ALPHABET),
                 st.lists(st.tuples(st.integers(-3, 12), st.integers(-3, 12)), max_size=6).map(
                     lambda rows: "\n".join(f"{u} {v}" for u, v in rows))))
@settings(max_examples=400, deadline=None)
def test_parsers_raise_only_equigraph_errors(text):
    try:
        parse_graph(GraphDocument(detect_format(text), text))
    except EquigraphError:
        pass


@pytest.mark.parametrize("text", ["\u00b2 1\n0 1", "2 1\n\u00b2 1", "3 \u00b2"])
def test_non_ascii_digits_are_parse_errors(text):
    assert detect_format(text) == "edgelist"
    with pytest.raises(ParseError):
        decode_edgelist(text)

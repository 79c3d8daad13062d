"""Graph serialization: edge-list format and the standard graph6 encoding.

networkx's codec serves as the independent oracle for graph6; agreement is
exhaustive for n <= 5 and sampled for n <= 8.
"""

import itertools

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    _decode_edgelist_arrays,
    _decode_edgelist_lines,
    _edgelist_tokens,
)
from equigraph.graphs import (
    Graph,
    cartesian_product,
    complete,
    complete_bipartite,
    copies,
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
        lambda: copies(complete(3), 3),
    ], ids=["graph", "complete", "empty", "complete_bipartite", "path", "cycle", "hypercube",
            "disjoint_union", "join", "kronecker_product", "cartesian_product",
            "extended_double_cover", "iterated_edc", "k_fold", "line_graph", "copies"])
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


@pytest.mark.parametrize("text", ["\u00b2 1\n0 1", "2 1\n\u00b2 1", "3 \u00b2", "3 1\n0 0_2", "3 1\n0 +2",
                                  "2 1\n\u0660 \u0661", "\u0663 1\n0 1"])
def test_non_ascii_digits_are_parse_errors(text):
    assert detect_format(text) == "edgelist"
    with pytest.raises(ParseError):
        decode_edgelist(text)


_FAULTS = ("count", "cap", "range", "loop", "duplicate", "token", "sign", "unicode", "extra", "short",
           "long")
_UNICODE_DIGITS = (str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669"),
                   str.maketrans("0123456789", "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19"))


@st.composite
def edgelist_documents(draw):
    """Edge-list documents in assorted spacing, valid or with one fault, and
    sometimes one stray character."""
    n = draw(st.integers(0, 9))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12)) if pairs else []
    rows = [[str(n), ""]] + [[str(u), str(v)] if draw(st.booleans()) else [str(v), str(u)]
                             for u, v in edges]
    fault = draw(st.sampled_from((None,) * 4 + _FAULTS))
    row = draw(st.integers(0, len(rows) - 1))
    col = draw(st.integers(0, 1))
    if fault == "range":
        rows.append([str(n + draw(st.integers(0, 3))), "0"])
    elif fault == "loop":
        rows.append([str(draw(st.integers(0, 9)))] * 2)
    elif fault == "duplicate" and edges:
        rows.append(rows[draw(st.integers(1, len(edges)))][::-1])
    rows[0][1] = str(len(rows) - 1 + (draw(st.sampled_from((-1, 1))) if fault == "count" else 0))
    if fault == "cap":
        rows[0][0] = "5000"
    elif fault == "token":
        rows[row][col] = draw(st.sampled_from(("x", "1.5", "0x1", "1e2", "")))
    elif fault == "sign":
        rows[row][col] = draw(st.sampled_from("+-")) + rows[row][col]
    elif fault == "unicode":
        rows[row][col] = rows[row][col].translate(draw(st.sampled_from(_UNICODE_DIGITS)))
    elif fault == "extra":
        rows[row].append("0")
    elif fault == "short":
        rows[row].pop()
    elif fault == "long":
        rows[row][col] = draw(st.sampled_from("09")) * draw(st.integers(15, 22)) + rows[row][col]
    gap = st.sampled_from((" ", "\t", "  ", " \t", "\u00a0"))
    lines = [draw(st.sampled_from(("", " ", "\t"))) + draw(gap).join(r) + draw(st.sampled_from(("", " ")))
             for r in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(("", "  ", "\t"))))
    doc = draw(st.sampled_from(("\n", "\r\n"))).join(lines) + draw(st.sampled_from(("", "\n")))
    if draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(doc)))
        doc = doc[:at] + draw(st.sampled_from(list("0123456789 \t\n\r+-x\u0663\u00a0\x0b\x00"))) + doc[at:]
    return doc


def _outcome(decode, text):
    try:
        return decode(text)
    except Exception as exc:  # the parsers must fail alike, whatever the class
        return type(exc), str(exc)


def _arrays_then_lines(text):
    G = _decode_edgelist_arrays(text)
    return _decode_edgelist_lines(text) if G is None else G


@given(edgelist_documents())
@example("3 1\n0 1\n1 0")
@settings(max_examples=500, deadline=None)
def test_edgelist_array_pass_matches_line_parser(text):
    expected = _outcome(_decode_edgelist_lines, text)
    assert _outcome(_arrays_then_lines, text) == expected
    assert _outcome(decode_edgelist, text) == expected


@given(graphs(max_n=12))
@settings(max_examples=60, deadline=None)
def test_emitted_edgelists_take_the_array_pass(G):
    text = encode_edgelist(G)
    assert _edgelist_tokens(text).tolist() == [int(tok) for tok in text.split()]
    assert _edgelist_tokens(text.replace("\n", "\r\n")).tolist() == [int(tok) for tok in text.split()]

"""Graph serialization: standard graph6 strings and a plain edge-list format.

The edge-list format is an "n m" header line followed by m lines "u v"
with 0-based endpoints.  graph6 follows the published format: N(n) then
the upper triangle packed column by column into 6-bit groups offset by 63.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ParseError, ValidationError
from .graphs import Graph
from .limits import check_cap

FORMATS = ("graph6", "edgelist")

GRAPH6_HEADER = ">>graph6<<"
_G6_MIN, _G6_MAX = 63, 126
# The edge-list array pass costs about 35 us whatever the length (2-vCPU x86-64
# host); below this many characters, some 25 edge lines, the line loop is faster.
_ARRAY_PARSE_MIN_CHARS = 128
_PAD = 0  # the left padding of `_label_table`, which no emitted byte equals


@dataclass(frozen=True)
class GraphDocument:
    format: str
    payload: str

    def __post_init__(self):
        if self.format not in FORMATS:
            raise ParameterError(f"unknown graph format {self.format!r}; choose from {FORMATS}")


def parse_graph(doc: GraphDocument) -> Graph:
    if doc.format == "graph6":
        return decode_graph6(doc.payload)
    return decode_edgelist(doc.payload)


def emit_graph(G: Graph, format: str) -> GraphDocument:
    if format == "graph6":
        return GraphDocument("graph6", encode_graph6(G))
    if format == "edgelist":
        return GraphDocument("edgelist", encode_edgelist(G))
    raise ParameterError(f"unknown graph format {format!r}; choose from {FORMATS}")


def detect_format(payload: str) -> str:
    """Sniff a payload: a leading integer pair means edge list, else graph6.

    Unambiguous because digits and whitespace are outside the graph6 byte
    range [63, 126] at the head position.
    """
    stripped = payload.strip()
    if stripped.startswith(GRAPH6_HEADER):
        return "graph6"
    head = stripped.split("\n", 1)[0].split()
    if len(head) == 2 and all(tok.isdigit() for tok in head):
        return "edgelist"
    return "graph6"


# ---------------------------------------------------------------------------
# edge list
# ---------------------------------------------------------------------------

def decode_edgelist(text: str) -> Graph:
    """Parse an edge-list document.  A document of ASCII digits in lines of
    two tokens is parsed in one numpy pass; a short document, and any fault,
    goes through the line-by-line parser, which names the faulty line."""
    G = _decode_edgelist_arrays(text) if len(text) >= _ARRAY_PARSE_MIN_CHARS else None
    return _decode_edgelist_lines(text) if G is None else G


def _decode_edgelist_arrays(text: str) -> Graph | None:
    """The graph of a well-formed document, or None when the line parser
    must run: on any fault, and for anything but plain ASCII tokens."""
    tokens = _edgelist_tokens(text)
    if tokens is None:
        return None
    n, m = int(tokens[0]), int(tokens[1])
    check_cap(n, "edge-list graph")
    u, v = tokens[2::2], tokens[3::2]
    if u.size != m or not ((u < n) & (v < n) & (u != v)).all():
        return None
    A = np.zeros((n, n), dtype=bool)
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    A[lo, hi] = True
    if np.count_nonzero(A) != m:  # a duplicate edge, in either orientation
        return None
    A[hi, lo] = True
    return Graph._from_array(A)


def _edgelist_tokens(text: str) -> np.ndarray | None:
    """Every token of a document made only of ASCII digits, spaces, tabs and
    newlines whose nonblank lines each hold two tokens of at most 18 digits,
    as int64 in text order; None for any other document."""
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    try:
        data = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    except UnicodeEncodeError:
        return None
    digit = (data >= 48) & (data <= 57)
    newline = data == 10
    if not (digit | newline | (data == 32) | (data == 9)).all():
        return None
    start, end = digit.copy(), digit.copy()
    start[1:] &= ~digit[:-1]
    end[:-1] &= ~digit[1:]
    starts, ends = np.flatnonzero(start), np.flatnonzero(end)
    if starts.size == 0 or starts.size % 2 or (ends - starts).max() >= 18:
        return None
    # among token starts and newlines in text order, the starts come in
    # adjacent pairs with a newline between consecutive pairs
    s = np.flatnonzero(start[np.flatnonzero(start | newline)])
    if (s[1::2] != s[0::2] + 1).any() or (s[2::2] <= s[1:-1:2] + 1).any():
        return None
    return np.fromstring(text, dtype=np.int64, sep=" ")


def _decode_edgelist_lines(text: str) -> Graph:
    lines = text.splitlines()
    rows = [(i + 1, ln.strip()) for i, ln in enumerate(lines) if ln.strip()]
    if not rows:
        raise ParseError("empty edge-list document")
    lineno, header = rows[0]
    parts = header.split()
    if len(parts) != 2:
        raise ParseError(f"line {lineno}: header must be 'n m', got {header!r}")
    try:
        n, m = _ascii_int(parts[0]), _ascii_int(parts[1])
    except ValueError as exc:
        raise ParseError(f"line {lineno}: header must be two integers, got {header!r}") from exc
    if n < 0 or m < 0:
        raise ParseError(f"line {lineno}: negative counts in header {header!r}")
    check_cap(n, "edge-list graph")
    if len(rows) - 1 != m:
        raise ParseError(f"header promises {m} edges but document has {len(rows) - 1} edge lines")
    edges = set()
    for lineno, ln in rows[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: edge must be 'u v', got {ln!r}")
        try:
            u, v = _ascii_int(parts[0]), _ascii_int(parts[1])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: edge endpoints must be integers, got {ln!r}") from exc
        if not (0 <= u < n and 0 <= v < n):
            raise ValidationError(f"line {lineno}: endpoint out of range 0..{n - 1}: {ln!r}")
        if u == v:
            raise ValidationError(f"line {lineno}: loop at vertex {u} not allowed")
        key = (min(u, v), max(u, v))
        if key in edges:
            raise ValidationError(f"line {lineno}: duplicate edge {key}")
        edges.add(key)
    A = np.zeros((n, n), dtype=bool)
    if edges:
        u, v = np.array(list(edges)).T
        A[u, v] = A[v, u] = True
    return Graph._from_array(A)


def _ascii_int(token: str) -> int:
    """An optionally negative run of ASCII digits as an int.  `int` alone
    would also take "_" separators, a "+" sign and any Unicode digit."""
    digits = token[1:] if token.startswith("-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an ASCII integer: {token!r}")
    return int(token)


def encode_edgelist(G: Graph) -> str:
    """Header, then one "u v" line per edge in sorted order.

    The lines are gathered from a label table rather than formatted one by
    one (see `_label_table`): each endpoint becomes one fixed-width D + 1
    byte record, "u " or "v\n", and one mask then drops every padding byte."""
    u, v = G.edge_arrays()
    rows = np.empty(2 * u.size, dtype=np.intp)
    rows[0::2] = u
    rows[1::2] = v + G.n
    records = np.take(_label_table(G.n), rows, axis=0)
    return f"{G.n} {u.size}\n" + records[records != _PAD].tobytes().decode("ascii")


def _label_table(n: int) -> np.ndarray:
    """A 2n x (D + 1) byte table, D the digit count of n - 1: row u holds
    label u right-aligned in D bytes and a space, row n + u the same label
    and a newline.  The left padding is the byte `_PAD`, which no record
    keeps, so the real separators survive the mask that drops it.  Digit
    column p of the labels 0..n-1 is each of 0-9 repeated 10^p times,
    cycled, and its padding is the prefix of labels below 10^p."""
    width = len(str(max(n - 1, 0)))
    table = np.empty((2, n, width + 1), dtype=np.uint8)
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    for p in range(width):
        column = np.tile(np.repeat(digits, 10 ** p), -(-n // 10 ** (p + 1)))[:n]
        if p:  # no leading zeros; label 0 shows one digit
            column[:10 ** p] = _PAD
        table[:, :, width - 1 - p] = column
    table[0, :, width] = ord(" ")
    table[1, :, width] = ord("\n")
    return table.reshape(2 * n, width + 1)


# ---------------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------------

def encode_graph6(G: Graph) -> str:
    """N(n), then bit (i, j) for 0 <= i < j < n in column order (j outer),
    six bits per byte, offset by 63.  Column order of the upper triangle is
    row order of the lower one, and the array is symmetric.

    The bits, zero-padded to a multiple of 24, pack into 3-byte words, and
    integer shifts split each word into its four 6-bit codes.  Codes of the
    padding past the last partial group are dropped."""
    n = G.n
    bits = G.adjacency[np.tri(n, k=-1, dtype=bool)]
    padded = np.zeros(-(-bits.size // 24) * 24, dtype=bool)
    padded[:bits.size] = bits
    b0, b1, b2 = np.packbits(padded).reshape(-1, 3).T
    words = np.empty((b0.size, 4), dtype=np.uint8)
    words[:, 0] = b0 >> 2
    words[:, 1] = (b0 & 3) << 4 | b1 >> 4
    words[:, 2] = (b1 & 15) << 2 | b2 >> 6
    words[:, 3] = b2 & 63
    codes = words.ravel()[:-(-bits.size // 6)]
    return _encode_g6_order(n) + (codes + 63).tobytes().decode("ascii")


def decode_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):].strip()
    if not s:
        raise ParseError("empty graph6 document")
    if "\n" in s:
        raise ParseError("graph6 payload must be a single line")
    codes = np.frombuffer(s.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    bad = (codes < _G6_MIN) | (codes > _G6_MAX)
    if bad.any():
        pos = int(bad.argmax())
        raise ParseError(f"byte {pos}: character {s[pos]!r} outside graph6 range")
    n, body = _decode_g6_order(s)
    check_cap(n, "graph6 graph")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise ParseError(f"graph6 body has {len(body)} bytes, expected {need} for n={n}")
    groups = (codes[len(s) - need:] - 63).astype(np.uint8) << 2
    bits = np.unpackbits(groups[:, None], axis=1)[:, :6].ravel()
    if bits[nbits:].any():
        raise ParseError("nonzero padding bits in graph6 body")
    # bit k is (i, j) with j(j-1)/2 <= k < j(j+1)/2 and i = k - j(j-1)/2
    k = np.flatnonzero(bits)
    starts = np.arange(n) * (np.arange(n) - 1) // 2
    j = np.searchsorted(starts, k, side="right") - 1
    i = k - starts[j]
    A = np.zeros((n, n), dtype=bool)
    A[i, j] = A[j, i] = True
    return Graph._from_array(A)


def _encode_g6_order(n: int) -> str:
    if n < 0:
        raise ParameterError("vertex count must be nonnegative")
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return "~" + "".join(chr(((n >> shift) & 63) + 63) for shift in (12, 6, 0))
    if n <= 68719476735:
        return "~~" + "".join(chr(((n >> shift) & 63) + 63) for shift in (30, 24, 18, 12, 6, 0))
    raise ParameterError(f"vertex count {n} too large for graph6")


def _decode_g6_order(s: str) -> tuple[int, str]:
    if s[0] != "~":
        return ord(s[0]) - 63, s[1:]
    if len(s) >= 2 and s[1] != "~":
        if len(s) < 4:
            raise ParseError("truncated graph6 order field")
        n = 0
        for ch in s[1:4]:
            n = (n << 6) | (ord(ch) - 63)
        return n, s[4:]
    if len(s) < 8:
        raise ParseError("truncated graph6 order field")
    n = 0
    for ch in s[2:8]:
        n = (n << 6) | (ord(ch) - 63)
    return n, s[8:]

"""Immutable simple-graph type, named families, and graph constructions.

A graph is one read-only n x n boolean adjacency array, and every
construction is the matrix identity its docstring states.  Every named
family and construction refuses a result above the vertex cap (see
`limits`) before allocating it.

A graph is checked where it enters the program: `Graph(n, edges)`,
`Graph.from_edges` and the decoders in `graphio` refuse malformed input and
a vertex count above the cap.  The families and constructions here are
trusted: each identity is square, symmetric and loop-free by its form, so
its array goes to `Graph._from_array` unchecked, and the tests assert that
invariant on every result.

Vertices are always labelled 0..n-1, and each constructor fixes a vertex
ordering explicitly so that the identities hold literally:

  * extended double cover: first class keeps labels 0..n-1, the mirror
    class gets n..2n-1;
  * products on (u, v) pairs: (u, v) -> u * n2 + v;
  * k-fold graphs interleave copies: copy a of vertex u -> u * k + a,
    which makes the adjacency matrix equal A(G) (x) J_k entrywise;
  * disjoint copies stack them: copy c of vertex u -> c * n + u, which
    makes it I_k (x) A(G).
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError, ValidationError
from .limits import check_cap

Edge = tuple[int, int]


class Graph:
    """Simple undirected labelled graph on vertices 0..n-1.

    `adjacency` is the canonical read-only n x n boolean array: symmetric,
    zero diagonal.  `m`, `edges` (a frozenset of (u, v) pairs with u < v),
    the degrees and the neighbour sets are views derived from it.
    Instances are immutable and hashable, equal when their arrays are;
    every operation in this module is a pure function.
    """

    __slots__ = ("n", "adjacency", "_deg")

    def __init__(self, n: int, edges):
        if not isinstance(n, int) or n < 0:
            raise ValidationError(f"vertex count must be a nonnegative integer, got {n!r}")
        check_cap(n, "graph")
        pairs = np.array(list(edges))
        if pairs.size == 0:
            pairs = np.zeros((0, 2), dtype=np.int64)
        elif pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iu":
            raise ValidationError("edges must be pairs of integer vertex labels")
        u, v = pairs[:, 0], pairs[:, 1]
        bad = (u < 0) | (u >= v) | (v >= n)
        if bad.any():
            e = tuple(pairs[bad.argmax()].tolist())
            raise ValidationError(f"edge {e} invalid for n={n} (need 0 <= u < v < n)")
        A = np.zeros((n, n), dtype=bool)
        A[u, v] = A[v, u] = True
        self._init(A)

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Build a graph from any iterable of vertex pairs, normalising order."""
        norm = set()
        for u, v in edges:
            if u == v:
                raise ValidationError(f"loop at vertex {u} not allowed")
            norm.add((min(u, v), max(u, v)))
        return cls(n, norm)

    @classmethod
    def _from_array(cls, A: np.ndarray) -> "Graph":
        """Adopt a boolean array that is square, symmetric and zero-diagonal
        by construction, with no re-check and no copy; it becomes read-only,
        so the caller must hold no other writable reference to it."""
        G = object.__new__(cls)
        G._init(A)
        return G

    def _init(self, A: np.ndarray) -> None:
        A.flags.writeable = False
        object.__setattr__(self, "n", A.shape[0])
        object.__setattr__(self, "adjacency", A)
        object.__setattr__(self, "_deg", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"Graph is immutable; cannot set {name!r}")

    @property
    def m(self) -> int:
        return int(self._degree_array().sum()) // 2

    @property
    def edges(self) -> frozenset[Edge]:
        u, v = self.edge_arrays()
        return frozenset(zip(u.tolist(), v.tolist()))

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Endpoints u < v of every edge as two int arrays, in sorted order:
        the nonzeros of the upper triangle of the adjacency array, row by row."""
        u, v = np.divmod(np.flatnonzero(self.adjacency), self.n)
        upper = u < v
        return u[upper], v[upper]

    def _degree_array(self) -> np.ndarray:
        if self._deg is None:  # computed once, on first use
            object.__setattr__(self, "_deg", np.count_nonzero(self.adjacency, axis=1))
        return self._deg

    def degrees(self) -> list[int]:
        return self._degree_array().tolist()

    def adjacency_sets(self) -> list[set[int]]:
        return [set(np.flatnonzero(row).tolist()) for row in self.adjacency]

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and 0 <= v < self.n and bool(self.adjacency[u, v])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.adjacency, other.adjacency)

    def __hash__(self) -> int:
        return hash((self.n, np.packbits(self.adjacency).tobytes()))

    def __reduce__(self):
        return Graph._from_array, (self.adjacency.copy(),)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={sorted(self.edges)})"


# ---------------------------------------------------------------------------
# named families
# ---------------------------------------------------------------------------

def complete(n: int) -> Graph:
    """J - I."""
    _positive(n, "complete")
    check_cap(n, "complete graph")
    return Graph._from_array(~np.eye(n, dtype=bool))


def empty(n: int) -> Graph:
    _positive(n, "empty")
    check_cap(n, "empty graph")
    return Graph._from_array(np.zeros((n, n), dtype=bool))


def complete_bipartite(q: int, r: int) -> Graph:
    """[[0, J], [J, 0]] with blocks of q and r vertices."""
    _positive(q, "complete_bipartite")
    _positive(r, "complete_bipartite")
    check_cap(q + r, "complete bipartite graph")
    A = np.zeros((q + r, q + r), dtype=bool)
    A[:q, q:] = A[q:, :q] = True
    return Graph._from_array(A)


def path(n: int) -> Graph:
    """i ~ i + 1."""
    _positive(n, "path")
    check_cap(n, "path")
    return Graph._from_array(np.eye(n, k=1, dtype=bool) | np.eye(n, k=-1, dtype=bool))


def cycle(n: int) -> Graph:
    """i ~ i + 1 mod n."""
    _positive(n, "cycle")
    if n < 3:
        raise ParameterError(f"cycle needs at least 3 vertices, got {n}")
    check_cap(n, "cycle")
    A = np.eye(n, k=1, dtype=bool) | np.eye(n, k=-1, dtype=bool)
    A[0, n - 1] = A[n - 1, 0] = True
    return Graph._from_array(A)


def hypercube(s: int) -> Graph:
    """Hypercube on 2**s vertices; i ~ j iff their labels differ in one bit."""
    if s < 0:
        raise ParameterError(f"hypercube dimension must be nonnegative, got {s}")
    check_cap(1, "hypercube", doublings=s)
    n = 1 << s
    i = np.arange(n)
    A = np.zeros((n, n), dtype=bool)
    for b in range(s):
        A[i, i ^ (1 << b)] = True
    return Graph._from_array(A)


def build_named(family: str, params: list[int]) -> Graph:
    """Build a standard graph by family name and integer parameters."""
    builders = {
        "complete": (complete, 1),
        "empty": (empty, 1),
        "complete_bipartite": (complete_bipartite, 2),
        "path": (path, 1),
        "cycle": (cycle, 1),
        "hypercube": (hypercube, 1),
    }
    if family not in builders:
        raise ParameterError(f"unknown family {family!r}; choose from {sorted(builders)}")
    fn, argc = builders[family]
    if len(params) != argc:
        raise ParameterError(f"family {family!r} takes {argc} parameter(s), got {len(params)}")
    return fn(*params)


def _positive(x: int, name: str) -> None:
    if not isinstance(x, int) or x <= 0:
        raise ParameterError(f"{name} size must be a positive integer, got {x!r}")


# ---------------------------------------------------------------------------
# structural predicates
# ---------------------------------------------------------------------------

def _bfs(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Component index and breadth-first depth of every vertex; components
    are numbered in the order of their smallest vertex."""
    n = A.shape[0]
    comp = np.full(n, -1)
    depth = np.zeros(n, dtype=np.int64)
    c = 0
    while (unseen := np.flatnonzero(comp < 0)).size:
        frontier = unseen[:1]
        d = 0
        while frontier.size:
            comp[frontier] = c
            depth[frontier] = d
            frontier = np.flatnonzero(A[frontier].any(axis=0) & (comp < 0))
            d += 1
        c += 1
    return comp, depth


def connected_components(G: Graph) -> list[list[int]]:
    """Vertex lists of the connected components, each sorted ascending."""
    comp, _ = _bfs(G.adjacency)
    return [np.flatnonzero(comp == c).tolist() for c in range(comp.max(initial=-1) + 1)]


def is_connected(G: Graph) -> bool:
    return len(connected_components(G)) <= 1


def is_bipartite(G: Graph) -> bool:
    """True iff the vertex set 2-colours properly (vacuously true for n=0):
    breadth-first depth parity is the colouring, and no edge may join two
    vertices of the same parity."""
    A = G.adjacency
    odd = _bfs(A)[1] % 2 == 1
    return not (A[np.ix_(odd, odd)].any() or A[np.ix_(~odd, ~odd)].any())


def is_regular(G: Graph) -> bool:
    deg = G._degree_array()
    return deg.size == 0 or deg.min() == deg.max()


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def complement(G: Graph) -> Graph:
    """not A, with a zero diagonal."""
    C = ~G.adjacency
    np.fill_diagonal(C, False)
    return Graph._from_array(C)


def disjoint_union(G1: Graph, G2: Graph) -> Graph:
    """blockdiag(A1, A2): the labels of G2 shifted up by n1."""
    n1 = G1.n
    check_cap(n1 + G2.n, "disjoint union")
    C = np.zeros((n1 + G2.n, n1 + G2.n), dtype=bool)
    C[:n1, :n1] = G1.adjacency
    C[n1:, n1:] = G2.adjacency
    return Graph._from_array(C)


def copies(G: Graph, k: int) -> Graph:
    """I_k (x) A: k disjoint copies, copy c of vertex u labelled c*n + u."""
    if k < 1:
        raise ParameterError(f"number of copies must be positive, got {k}")
    check_cap(G.n * k, "disjoint copies")
    check_cap(k, "the copies of one vertex")  # a 0-vertex G passes the first check; I_k takes no huge k
    return Graph._from_array(_kron(np.eye(k, dtype=bool), k, G.adjacency, 2 * G.m))


def join(G1: Graph, G2: Graph) -> Graph:
    """[[A1, J], [J, A2]]: the disjoint union plus every cross pair."""
    n1 = G1.n
    C = disjoint_union(G1, G2).adjacency.copy()
    C[:n1, n1:] = C[n1:, :n1] = True
    return Graph._from_array(C)


def cartesian_product(G1: Graph, G2: Graph) -> Graph:
    """A1 (x) I + I (x) A2: equal in one coordinate, adjacent in the other;
    (u, v) -> u*n2 + v."""
    n1, n2 = G1.n, G2.n
    check_cap(n1 * n2, "Cartesian product")
    C = np.zeros((n1, n2, n1, n2), dtype=bool)
    v = np.arange(n2)
    C[:, v, :, v] = G1.adjacency
    u = np.arange(n1)
    C[u, :, u, :] = G2.adjacency
    return Graph._from_array(C.reshape(n1 * n2, n1 * n2))


def _kron(A1: np.ndarray, nnz1: int, A2: np.ndarray, nnz2: int) -> np.ndarray:
    """A1 (x) A2 for square boolean arrays holding nnz1 and nnz2 nonzeros.

    The result, an (n1, n2, n1, n2) array flattened to (n1 n2) x (n1 n2),
    starts at zero; for each nonzero (i, j) of the factor with fewer
    nonzeros, the other factor is written into block [i, :, j, :] (A1
    sparser) or [:, i, :, j] (A2 sparser).  The Python loop therefore runs
    min(nnz1, nnz2) times, and each write is one strided numpy copy.
    """
    n1, n2 = A1.shape[0], A2.shape[0]
    C = np.zeros((n1, n2, n1, n2), dtype=bool)
    a1_sparser = nnz1 <= nnz2
    sparse, other = (A1, A2) if a1_sparser else (A2, A1)
    blocks = C if a1_sparser else C.transpose(1, 0, 3, 2)
    i, j = np.nonzero(sparse)
    for a, b in zip(i.tolist(), j.tolist()):
        blocks[a, :, b, :] = other
    return C.reshape(n1 * n2, n1 * n2)


def kronecker_product(G1: Graph, G2: Graph) -> Graph:
    """A1 (x) A2: adjacent in both coordinates; (u, v) -> u*n2 + v.

    Built by block writes: viewed as an (n1, n2, n1, n2) array, block
    [i, :, j, :] is A2 wherever A1[i, j] is set, so only the nonzeros of the
    sparser factor are visited (see `_kron`)."""
    check_cap(G1.n * G2.n, "Kronecker product")
    return Graph._from_array(_kron(G1.adjacency, 2 * G1.m, G2.adjacency, 2 * G2.m))


def extended_double_cover(G: Graph) -> Graph:
    """[[0, A+I], [A+I, 0]]: bipartite mirror with classes {0..n-1} and
    {n..2n-1}, i ~ n+j iff i=j or i~j.

    The result always contains the perfect matching {i, n+i} and vertex i
    has degree deg_G(i) + 1 on both sides.
    """
    n = G.n
    check_cap(n, "extended double cover", doublings=1)
    B = G.adjacency | np.eye(n, dtype=bool)
    C = np.zeros((2 * n, 2 * n), dtype=bool)
    C[:n, n:] = C[n:, :n] = B
    return Graph._from_array(C)


def iterated_edc(G: Graph, k: int) -> Graph:
    """Apply the extended double cover k times; k = 0 returns G unchanged."""
    check_cap(G.n, "iterated double cover", doublings=k)
    out = G
    for _ in range(k if G.n else 0):  # the cover of the empty graph is itself
        out = extended_double_cover(out)
    return out


def k_fold(G: Graph, k: int) -> Graph:
    """A (x) J_k: k interleaved copies, each vertex joined to the neighbours
    of its counterparts in every copy (copies of one vertex stay
    non-adjacent).  Copy a of vertex u is labelled u*k + a.

    The Kronecker block writes of `_kron` with J_k, a zero-stride view, as
    the second factor: one all-ones k x k block per nonzero of A, or A into
    each strided block [:, a, :, b] when the k^2 blocks are fewer.  An
    edgeless A writes nothing, whatever k is.
    """
    if k < 1:
        raise ParameterError(f"fold count must be positive, got {k}")
    check_cap(G.n * k, "k-fold graph")
    check_cap(k, "the fold of one vertex")  # a 0-vertex G passes the first check; J_k takes no huge k
    return Graph._from_array(_kron(G.adjacency, 2 * G.m, np.broadcast_to(True, (k, k)), k * k))


def double_graph(G: Graph) -> Graph:
    return k_fold(G, 2)


def line_graph(G: Graph) -> Graph:
    """Vertices are the edges of G (sorted order); adjacency = shared
    endpoint, the off-diagonal support of B^T B for the n x m incidence
    matrix B.  Each column of B has ones in rows u_i and v_i only, so row i
    of B^T B is B[u_i] + B[v_i]."""
    u, v = G.edge_arrays()
    m = u.size
    check_cap(m, "line graph")
    B = np.zeros((G.n, m), dtype=bool)
    B[u, np.arange(m)] = B[v, np.arange(m)] = True
    L = B[u] | B[v]
    np.fill_diagonal(L, False)
    return Graph._from_array(L)

"""Immutable simple-graph type, named families, and graph constructions.

Vertices are always labelled 0..n-1.  Every constructor fixes a vertex
ordering explicitly so that matrix identities hold literally:

  * extended double cover: first class keeps labels 0..n-1, the mirror
    class gets n..2n-1;
  * products on (u, v) pairs: (u, v) -> u * n2 + v;
  * k-fold graphs interleave copies: copy a of vertex u -> u * k + a,
    which makes the adjacency matrix equal A(G) (x) J_k entrywise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from collections import deque

from .errors import ParameterError, ValidationError

Edge = tuple[int, int]


@dataclass(frozen=True)
class Graph:
    """Simple undirected labelled graph on vertices 0..n-1.

    Edges are stored as a frozenset of (u, v) pairs with u < v; no loops,
    no duplicates.  Instances are immutable and hashable; every operation
    in this module is a pure function.
    """

    n: int
    edges: frozenset[Edge]

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 0:
            raise ValidationError(f"vertex count must be a nonnegative integer, got {self.n!r}")
        for e in self.edges:
            u, v = e
            if not (0 <= u < v < self.n):
                raise ValidationError(f"edge {e} invalid for n={self.n} (need 0 <= u < v < n)")

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Build a graph from any iterable of vertex pairs, normalising order."""
        norm = set()
        for u, v in edges:
            if u == v:
                raise ValidationError(f"loop at vertex {u} not allowed")
            norm.add((min(u, v), max(u, v)))
        return cls(n, frozenset(norm))

    @property
    def m(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def adjacency_sets(self) -> list[set[int]]:
        adj = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges


# ---------------------------------------------------------------------------
# named families
# ---------------------------------------------------------------------------

def complete(n: int) -> Graph:
    _positive(n, "complete")
    return Graph.from_edges(n, itertools.combinations(range(n), 2))


def empty(n: int) -> Graph:
    _positive(n, "empty")
    return Graph(n, frozenset())


def complete_bipartite(q: int, r: int) -> Graph:
    _positive(q, "complete_bipartite")
    _positive(r, "complete_bipartite")
    return Graph.from_edges(q + r, ((i, q + j) for i in range(q) for j in range(r)))


def path(n: int) -> Graph:
    _positive(n, "path")
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Graph:
    _positive(n, "cycle")
    if n < 3:
        raise ParameterError(f"cycle needs at least 3 vertices, got {n}")
    return Graph.from_edges(n, ((i, (i + 1) % n) for i in range(n)))


def hypercube(s: int) -> Graph:
    """Hypercube on 2**s vertices; i ~ j iff their labels differ in one bit."""
    if s < 0:
        raise ParameterError(f"hypercube dimension must be nonnegative, got {s}")
    n = 1 << s
    return Graph.from_edges(n, ((i, i ^ (1 << b)) for i in range(n) for b in range(s) if i < i ^ (1 << b)))


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

def connected_components(G: Graph) -> list[list[int]]:
    """Vertex lists of the connected components, each sorted ascending."""
    adj = G.adjacency_sets()
    seen = [False] * G.n
    comps = []
    for start in range(G.n):
        if seen[start]:
            continue
        comp = []
        queue = deque([start])
        seen[start] = True
        while queue:
            u = queue.popleft()
            comp.append(u)
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        comps.append(sorted(comp))
    return comps


def is_connected(G: Graph) -> bool:
    return len(connected_components(G)) <= 1


def is_bipartite(G: Graph) -> bool:
    """True iff the vertex set 2-colours properly (vacuously true for n=0)."""
    adj = G.adjacency_sets()
    color = [-1] * G.n
    for start in range(G.n):
        if color[start] >= 0:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if color[w] < 0:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    return False
    return True


def is_regular(G: Graph) -> bool:
    deg = G.degrees()
    return len(set(deg)) <= 1


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def complement(G: Graph) -> Graph:
    all_pairs = set(itertools.combinations(range(G.n), 2))
    return Graph(G.n, frozenset(all_pairs - G.edges))


def disjoint_union(G1: Graph, G2: Graph) -> Graph:
    """Union with the labels of G2 shifted up by n1."""
    shifted = {(u + G1.n, v + G1.n) for u, v in G2.edges}
    return Graph(G1.n + G2.n, G1.edges | frozenset(shifted))


def copies(G: Graph, k: int) -> Graph:
    if k < 1:
        raise ParameterError(f"number of copies must be positive, got {k}")
    out = G
    for _ in range(k - 1):
        out = disjoint_union(out, G)
    return out


def join(G1: Graph, G2: Graph) -> Graph:
    """All edges of both graphs plus every cross pair."""
    base = disjoint_union(G1, G2)
    cross = {(u, G1.n + v) for u in range(G1.n) for v in range(G2.n)}
    return Graph(base.n, base.edges | frozenset(cross))


def cartesian_product(G1: Graph, G2: Graph) -> Graph:
    """Equal in one coordinate, adjacent in the other; (u, v) -> u*n2 + v."""
    n2 = G2.n
    edges = set()
    for u in range(G1.n):
        for a, b in G2.edges:
            edges.add((u * n2 + a, u * n2 + b))
    for u, v in G1.edges:
        for a in range(n2):
            edges.add((u * n2 + a, v * n2 + a))
    return Graph.from_edges(G1.n * n2, edges)


def kronecker_product(G1: Graph, G2: Graph) -> Graph:
    """Adjacent in both coordinates; (u, v) -> u*n2 + v."""
    n2 = G2.n
    edges = set()
    for u, v in G1.edges:
        for a, b in G2.edges:
            edges.add((u * n2 + a, v * n2 + b))
            edges.add((u * n2 + b, v * n2 + a))
    return Graph.from_edges(G1.n * n2, edges)


def extended_double_cover(G: Graph) -> Graph:
    """Bipartite mirror: classes {0..n-1} and {n..2n-1}, i ~ n+j iff i=j or i~j.

    The result always contains the perfect matching {i, n+i} and vertex i
    has degree deg_G(i) + 1 on both sides.
    """
    n = G.n
    edges = {(i, n + i) for i in range(n)}
    for u, v in G.edges:
        edges.add((u, n + v))
        edges.add((v, n + u))
    return Graph.from_edges(2 * n, edges)


def iterated_edc(G: Graph, k: int) -> Graph:
    """Apply the extended double cover k times; k = 0 returns G unchanged."""
    if k < 0:
        raise ParameterError(f"iteration count must be nonnegative, got {k}")
    out = G
    for _ in range(k):
        out = extended_double_cover(out)
    return out


def k_fold(G: Graph, k: int) -> Graph:
    """k interleaved copies, each vertex joined to the neighbours of its
    counterparts in every copy (copies of one vertex stay non-adjacent).

    With copy a of vertex u labelled u*k + a the adjacency matrix equals
    the Kronecker product of A(G) with the all-ones k x k matrix.
    """
    if k < 1:
        raise ParameterError(f"fold count must be positive, got {k}")
    edges = set()
    for u, v in G.edges:
        for a in range(k):
            for b in range(k):
                edges.add((u * k + a, v * k + b))
    return Graph.from_edges(G.n * k, edges)


def double_graph(G: Graph) -> Graph:
    return k_fold(G, 2)


def line_graph(G: Graph) -> Graph:
    """Vertices are the edges of G (sorted order); adjacency = shared endpoint."""
    es = sorted(G.edges)
    out = set()
    for (i, e1), (j, e2) in itertools.combinations(enumerate(es), 2):
        if set(e1) & set(e2):
            out.add((i, j))
    return Graph.from_edges(len(es), out)

"""Edge-set reference: graphs as (n, frozenset of (u, v) pairs with u < v).

These are the pair-by-pair constructions and codecs that the array-backed
`equigraph.graphs.Graph` replaced, kept only to check the array identities
against.  Every function takes and returns plain (n, edges) tuples.
"""

import itertools

EdgeSet = tuple[int, frozenset]


def of(G) -> EdgeSet:
    return G.n, frozenset(G.edges)


def _norm(n, edges) -> EdgeSet:
    return n, frozenset((min(u, v), max(u, v)) for u, v in edges)


def complete(n):
    return _norm(n, itertools.combinations(range(n), 2))


def empty(n):
    return n, frozenset()


def complete_bipartite(q, r):
    return _norm(q + r, ((i, q + j) for i in range(q) for j in range(r)))


def path(n):
    return _norm(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n):
    return _norm(n, ((i, (i + 1) % n) for i in range(n)))


def hypercube(s):
    n = 1 << s
    return _norm(n, ((i, i ^ (1 << b)) for i in range(n) for b in range(s) if i < i ^ (1 << b)))


def complement(G):
    n, edges = G
    return n, frozenset(set(itertools.combinations(range(n), 2)) - edges)


def disjoint_union(G1, G2):
    (n1, e1), (n2, e2) = G1, G2
    return n1 + n2, e1 | frozenset((u + n1, v + n1) for u, v in e2)


def join(G1, G2):
    n, edges = disjoint_union(G1, G2)
    n1 = G1[0]
    return n, edges | frozenset((u, n1 + v) for u in range(n1) for v in range(G2[0]))


def cartesian_product(G1, G2):
    (n1, e1), (n2, e2) = G1, G2
    edges = {(u * n2 + a, u * n2 + b) for u in range(n1) for a, b in e2}
    edges |= {(u * n2 + a, v * n2 + a) for u, v in e1 for a in range(n2)}
    return _norm(n1 * n2, edges)


def kronecker_product(G1, G2):
    (n1, e1), (n2, e2) = G1, G2
    edges = set()
    for u, v in e1:
        for a, b in e2:
            edges.add((u * n2 + a, v * n2 + b))
            edges.add((u * n2 + b, v * n2 + a))
    return _norm(n1 * n2, edges)


def extended_double_cover(G):
    n, e = G
    edges = {(i, n + i) for i in range(n)}
    for u, v in e:
        edges.add((u, n + v))
        edges.add((v, n + u))
    return _norm(2 * n, edges)


def iterated_edc(G, k):
    for _ in range(k):
        G = extended_double_cover(G)
    return G


def k_fold(G, k):
    n, e = G
    edges = {(u * k + a, v * k + b) for u, v in e for a in range(k) for b in range(k)}
    return _norm(n * k, edges)


def double_graph(G):
    return k_fold(G, 2)


def line_graph(G):
    es = sorted(G[1])
    out = {(i, j) for (i, e1), (j, e2) in itertools.combinations(enumerate(es), 2)
           if set(e1) & set(e2)}
    return len(es), frozenset(out)


def degrees(G):
    n, e = G
    deg = [0] * n
    for u, v in e:
        deg[u] += 1
        deg[v] += 1
    return deg


def encode_edgelist(G):
    n, e = G
    return "\n".join([f"{n} {len(e)}"] + [f"{u} {v}" for u, v in sorted(e)]) + "\n"


def encode_graph6(G):
    n, e = G
    if n <= 62:
        out = chr(n + 63)
    else:
        out = "~" + "".join(chr(((n >> shift) & 63) + 63) for shift in (12, 6, 0))
    bits = [1 if (i, j) in e else 0 for j in range(1, n) for i in range(j)]
    for base in range(0, len(bits), 6):
        group = bits[base:base + 6]
        group += [0] * (6 - len(group))
        val = 0
        for b in group:
            val = (val << 1) | b
        out += chr(val + 63)
    return out


def laplacian_minor(G):
    """Laplacian with the last row and column deleted, as integer rows."""
    n, e = G
    deg = degrees(G)
    minor = [[0] * (n - 1) for _ in range(n - 1)]
    for i in range(n - 1):
        minor[i][i] = deg[i]
    for u, v in e:
        if u < n - 1 and v < n - 1:
            minor[u][v] -= 1
            minor[v][u] -= 1
    return minor

"""Independent reference for the benchmark: input graphs, codecs, expected answers.

Nothing here imports equigraph.  Every expected value comes from how an input
was generated: Kirchhoff closed forms, determinants modulo primes, construction
sizes from formulas, and spectra derived from the small base graphs through the
matrix identities (cover = [[0, A+I], [A+I, 0]], k-fold = A (x) J_k, ...).  A
wrong answer from the program therefore cannot also be the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Primes below 2**31, so products of two residues fit in int64.
PRIMES = (2147483647, 2147483629, 2147483587)


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BGraph:
    """Simple graph on 0..n-1; `edges` is an (m, 2) int64 array with u < v."""

    n: int
    edges: np.ndarray

    @property
    def m(self) -> int:
        return int(self.edges.shape[0])

    def adjacency(self) -> np.ndarray:
        A = np.zeros((self.n, self.n))
        if self.m:
            A[self.edges[:, 0], self.edges[:, 1]] = 1.0
            A[self.edges[:, 1], self.edges[:, 0]] = 1.0
        return A

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edges.ravel(), minlength=self.n)


def line_edges(G: BGraph) -> int:
    """Edges of the line graph: pairs of edges sharing an endpoint."""
    d = G.degrees()
    return int((d * (d - 1) // 2).sum())


def from_pairs(n: int, pairs) -> BGraph:
    arr = np.asarray(list(pairs), dtype=np.int64).reshape(-1, 2)
    arr = np.sort(arr, axis=1)
    if arr.size and (arr[:, 0] == arr[:, 1]).any():
        raise ValueError("loop in generated graph")
    arr = np.unique(arr, axis=0)
    return BGraph(n, arr)


def from_adjacency(A: np.ndarray) -> BGraph:
    u, v = np.nonzero(np.triu(A, 1))
    return BGraph(A.shape[0], np.stack([u, v], axis=1).astype(np.int64))


def complete(n: int) -> BGraph:
    u, v = np.triu_indices(n, 1)
    return BGraph(n, np.stack([u, v], axis=1).astype(np.int64))


def complete_bipartite(a: int, b: int) -> BGraph:
    u, v = np.meshgrid(np.arange(a), a + np.arange(b), indexing="ij")
    return BGraph(a + b, np.stack([u.ravel(), v.ravel()], axis=1).astype(np.int64))


def cycle(n: int) -> BGraph:
    return from_pairs(n, ((i, (i + 1) % n) for i in range(n)))


def path(n: int) -> BGraph:
    return from_pairs(n, ((i, i + 1) for i in range(n - 1)))


def hypercube(s: int) -> BGraph:
    n = 1 << s
    return from_pairs(n, ((i, i ^ (1 << b)) for i in range(n) for b in range(s) if i < i ^ (1 << b)))


def union(*parts: BGraph) -> BGraph:
    shift, chunks = 0, []
    for G in parts:
        chunks.append(G.edges + shift)
        shift += G.n
    return BGraph(shift, np.concatenate(chunks).astype(np.int64))


def _from_pair_index(n: int, idx: np.ndarray) -> BGraph:
    u, v = np.triu_indices(n, 1)
    idx = np.sort(idx)
    return BGraph(n, np.stack([u[idx], v[idx]], axis=1).astype(np.int64))


def gnm(rng: np.random.Generator, n: int, m: int) -> BGraph:
    """Uniform graph with exactly n vertices and m edges."""
    return _from_pair_index(n, rng.choice(n * (n - 1) // 2, size=m, replace=False))


def connected_gnm(rng: np.random.Generator, n: int, m: int) -> BGraph:
    """Random spanning tree plus uniform extra edges: connected, exactly m edges."""
    if m < n - 1:
        raise ValueError("a connected graph needs m >= n - 1")
    order = rng.permutation(n)
    child = order[1:]
    parent = order[(rng.random(n - 1) * np.arange(1, n)).astype(np.int64)]
    u, v = np.minimum(parent, child), np.maximum(parent, child)
    tree = u * n - u * (u + 1) // 2 + (v - u - 1)
    free = np.setdiff1d(np.arange(n * (n - 1) // 2), tree)
    return _from_pair_index(n, np.concatenate([tree, rng.choice(free, size=m - (n - 1), replace=False)]))


def bipartite_gnm(rng: np.random.Generator, a: int, b: int, m: int) -> BGraph:
    """Random bipartite graph with sides 0..a-1 and a..a+b-1 and exactly m edges."""
    pick = rng.choice(a * b, size=m, replace=False)
    return from_pairs(a + b, ((int(k // b), a + int(k % b)) for k in pick))


def odd_unicyclic(rng: np.random.Generator, n: int, girth: int) -> BGraph:
    """Connected, non-bipartite, n edges: an odd cycle with random trees hung on it."""
    if girth % 2 == 0 or girth > n:
        raise ValueError("girth must be odd and at most n")
    pairs = [(i, (i + 1) % girth) for i in range(girth)]
    pairs += [(i, int(rng.integers(0, i))) for i in range(girth, n)]
    return from_pairs(n, pairs)


def relabel(G: BGraph, rng: np.random.Generator) -> BGraph:
    perm = rng.permutation(G.n)
    return BGraph(G.n, np.sort(perm[G.edges], axis=1)) if G.m else G


# ---------------------------------------------------------------------------
# codecs (graph6 per McKay's formats.txt; edge list "n m" then "u v" lines)
# ---------------------------------------------------------------------------

def encode_edgelist(G: BGraph) -> str:
    body = "".join(f"{u} {v}\n" for u, v in G.edges.tolist())
    return f"{G.n} {G.m}\n{body}"


def _g6_order(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    return "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))


def encode_graph6(G: BGraph) -> str:
    nbits = G.n * (G.n - 1) // 2
    bits = np.zeros(nbits + (-nbits) % 6, dtype=np.uint8)
    if G.m:
        u, v = G.edges[:, 0], G.edges[:, 1]
        bits[v * (v - 1) // 2 + u] = 1
    vals = bits.reshape(-1, 6) @ np.array([32, 16, 8, 4, 2, 1]) + 63
    return _g6_order(G.n) + vals.astype(np.uint8).tobytes().decode("ascii") + "\n"


def payload_size(fmt: str, payload: str) -> tuple[int, int]:
    """(n, m) read back from an emitted document, without equigraph."""
    if fmt == "edgelist":
        lines = payload.split("\n")
        n, m = map(int, lines[0].split())
        if sum(1 for ln in lines[1:] if ln.strip()) != m:
            raise ValueError("edge-list body does not match its header")
        return n, m
    s = payload.strip()
    if s[0] != "~":
        n, body = ord(s[0]) - 63, s[1:]
    else:
        n = 0
        for ch in s[1:4]:
            n = (n << 6) | (ord(ch) - 63)
        body = s[4:]
    vals = np.frombuffer(body.encode("ascii"), dtype=np.uint8) - 63
    bits = np.unpackbits(vals[:, None], axis=1)[:, 2:].ravel()
    nbits = n * (n - 1) // 2
    if len(bits) != nbits + (-nbits) % 6 or bits[nbits:].any():
        raise ValueError("graph6 body has the wrong length or padding")
    return n, int(bits.sum())


# ---------------------------------------------------------------------------
# matrix identities and spectra
# ---------------------------------------------------------------------------

def laplacian(A: np.ndarray) -> np.ndarray:
    return np.diag(A.sum(axis=1)) - A


def signless(A: np.ndarray) -> np.ndarray:
    return np.diag(A.sum(axis=1)) + A


def cover_adj(A: np.ndarray) -> np.ndarray:
    B = A + np.eye(A.shape[0])
    Z = np.zeros_like(A)
    return np.block([[Z, B], [B, Z]])


def kfold_adj(A: np.ndarray, k: int) -> np.ndarray:
    return np.kron(A, np.ones((k, k)))


def eigs(M: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(M) if M.size else np.zeros(0)


def edges_of(A: np.ndarray) -> int:
    return int(round(A.sum() / 2))


def energy(A: np.ndarray) -> float:
    return float(np.abs(eigs(A)).sum())


def laplacian_energy_from(mu: np.ndarray, n: int, m: int) -> float:
    return float(np.abs(np.asarray(mu) - 2.0 * m / n).sum())


def join_empty_le(A: np.ndarray, p: int) -> tuple[float, int, int]:
    """Laplacian energy, order and size of join(H, empty(p)) from H alone.

    The join's Laplacian spectrum is {0, n+p} u {mu_i + p : i >= 1} u {n, p-1 times}.
    """
    n, m = A.shape[0], edges_of(A)
    mu = eigs(laplacian(A))
    spec = np.concatenate([[0.0, n + p], mu[1:] + p, np.full(p - 1, float(n))])
    N, M = n + p, m + n * p
    return laplacian_energy_from(spec, N, M), N, M


def cart_complete_le(A: np.ndarray, p: int) -> float:
    """Laplacian energy of H x K_p: spectrum {alpha_i} u {alpha_i + p, p-1 times}."""
    n, m = A.shape[0], edges_of(A)
    alpha = eigs(laplacian(A))
    spec = np.concatenate([alpha] + [alpha + p] * (p - 1))
    return laplacian_energy_from(spec, n * p, p * m + n * p * (p - 1) // 2)


# ---------------------------------------------------------------------------
# spanning trees
# ---------------------------------------------------------------------------

def trees_complete(n: int) -> int:
    return n ** (n - 2) if n >= 2 else 1


def trees_complete_bipartite(a: int, b: int) -> int:
    return a ** (b - 1) * b ** (a - 1)


def trees_cycle(n: int) -> int:
    return n


def trees_hypercube(s: int) -> int:
    num = 1
    for k in range(1, s + 1):
        num *= (2 * k) ** math.comb(s, k)
    return num // 2 ** s


def trees_cover_complete(n: int) -> int:
    return n ** (2 * n - 2)


def det_mod(M: np.ndarray, p: int) -> int:
    """Determinant of an integer matrix modulo a prime p < 2**31."""
    M = np.asarray(M, dtype=np.int64) % p
    n = M.shape[0]
    det = 1
    for k in range(n):
        nz = np.flatnonzero(M[k:, k])
        if nz.size == 0:
            return 0
        r = k + int(nz[0])
        if r != k:
            M[[k, r]] = M[[r, k]]
            det = -det
        piv = int(M[k, k])
        det = det * piv % p
        inv = pow(piv, p - 2, p)
        f = M[k + 1:, k] * inv % p
        M[k + 1:, k:] = (M[k + 1:, k:] - f[:, None] * M[k, k:][None, :]) % p
    return det % p


def tree_residues(A: np.ndarray) -> tuple[int, ...]:
    """Spanning-tree count of the graph with adjacency A, modulo each of PRIMES."""
    L = np.rint(laplacian(A)).astype(np.int64)[:-1, :-1]
    return tuple(det_mod(L, p) for p in PRIMES)


def log_trees(A: np.ndarray) -> float:
    sign, logdet = np.linalg.slogdet(laplacian(A)[:-1, :-1])
    return logdet if sign > 0 else -math.inf


@dataclass(frozen=True)
class TreeCount:
    """A spanning-tree count known exactly, or by residues plus its logarithm."""

    exact: int | None
    residues: tuple[int, ...]
    log: float

    @classmethod
    def closed(cls, value: int) -> "TreeCount":
        return cls(value, tuple(value % p for p in PRIMES), math.log(value) if value else -math.inf)

    @classmethod
    def of(cls, A: np.ndarray) -> "TreeCount":
        return cls(None, tree_residues(A), log_trees(A))

    def matches_int(self, value) -> bool:
        if not isinstance(value, int) or isinstance(value, bool):
            return False
        if self.exact is not None:
            return value == self.exact
        return all(value % p == r for p, r in zip(PRIMES, self.residues))

    def matches_float(self, value, rel: float = 1e-6) -> bool:
        """A floating-point route agrees within a relative tolerance (`"inf"` never does)."""
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return False
        if self.exact is not None:
            return abs(int(value) - self.exact) * round(1 / rel) <= max(self.exact, 1)
        if value <= 0:
            return self.log == -math.inf
        return abs(math.log(value) - self.log) <= rel

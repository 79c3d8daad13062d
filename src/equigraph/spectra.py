"""Dense symmetric eigencomputation, graph energies, and spanning-tree counts.

Three matrices are supported for a graph G with degree matrix D and
adjacency matrix A: the adjacency matrix itself, the Laplacian D - A and
the signless Laplacian D + A.  Spanning trees are counted twice over, by
the spectral route (product of the n-1 largest Laplacian eigenvalues over
n) and by an exact integer cofactor determinant, so the two routes can
certify each other.

The exact determinant of a connected graph's Laplacian minor comes from
Bareiss elimination over Python integers for minors of order up to 26, the
measured crossover, and above it from elimination modulo primes below
2**23 and Chinese remaindering.  The minor is positive definite, so
Hadamard's inequality bounds its determinant by the product of its
diagonal (the degrees), and the primes' product exceeds twice that bound.
The modular elimination runs in float64, which is exact while every
partial sum stays below 2**53.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, ParameterError, ResourceLimitError
from .graphs import Graph, is_bipartite, is_connected

MATRIX_KINDS = ("adjacency", "laplacian", "signless_laplacian")

SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class SymMatrix:
    """Dense real symmetric matrix; entries are held read-only."""

    entries: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.entries, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ContractViolationError(f"expected a square matrix, got shape {M.shape}")
        if M.size and np.abs(M - M.T).max() > SYMMETRY_TOL:
            raise ContractViolationError("matrix is not symmetric within 1e-12")
        M = M.copy()
        M.flags.writeable = False
        object.__setattr__(self, "entries", M)

    @classmethod
    def _of_symmetric(cls, M: np.ndarray) -> "SymMatrix":
        """Adopt a float array that is symmetric by construction, with no
        re-check and no copy; it becomes read-only."""
        M.flags.writeable = False
        out = object.__new__(cls)
        object.__setattr__(out, "entries", M)
        return out

    @property
    def order(self) -> int:
        return self.entries.shape[0]

    def max_abs_entry(self) -> float:
        M = self.entries  # max |M| without allocating |M|
        return float(max(M.max(), -M.min())) if M.size else 0.0


@dataclass(frozen=True)
class Spectrum:
    """Sorted (ascending) real eigenvalue multiset with a comparison tolerance."""

    values: tuple[float, ...]
    tol: float = 1e-8

    def __post_init__(self):
        if self.tol < 0:
            raise ParameterError("tolerance must be nonnegative")
        vals = tuple(float(v) for v in self.values)
        if any(vals[i] > vals[i + 1] for i in range(len(vals) - 1)):
            vals = tuple(sorted(vals))
        object.__setattr__(self, "values", vals)

    @classmethod
    def _of_sorted(cls, values: tuple[float, ...], tol: float) -> "Spectrum":
        """Adopt Python floats that are ascending already, as LAPACK returns
        them, with no conversion and no sortedness scan."""
        out = object.__new__(cls)
        object.__setattr__(out, "values", values)
        object.__setattr__(out, "tol", tol)
        return out

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class EnergyValue:
    """A graph energy: sum of spectral deviations for one matrix kind.

    avg_degree is the shift 2m/n and is set only for the Laplacian kinds.
    """

    value: float
    kind: str
    avg_degree: float | None = None

    def __post_init__(self):
        if self.kind not in MATRIX_KINDS:
            raise ParameterError(f"unknown energy kind {self.kind!r}")
        if self.value < 0:
            raise ParameterError("energy cannot be negative")


# ---------------------------------------------------------------------------
# matrices and eigenvalues
# ---------------------------------------------------------------------------

def matrix_of(G: Graph, kind: str) -> SymMatrix:
    """Adjacency / Laplacian / signless Laplacian matrix of G, integer-valued:
    A, D - A or D + A, built in one float64 array."""
    if kind not in MATRIX_KINDS:
        raise ParameterError(f"unknown matrix kind {kind!r}; choose from {MATRIX_KINDS}")
    A = G.adjacency
    # 0 - A rather than -A: no negative zeros, so the entries match D - A bit for bit
    M = np.subtract(0.0, A, dtype=np.float64) if kind == "laplacian" else A.astype(np.float64)
    if kind != "adjacency":
        M.flat[::G.n + 1] = G._degree_array()
    return SymMatrix._of_symmetric(M)


def eigenvalues(M: SymMatrix) -> Spectrum:
    """Full real spectrum of a symmetric matrix, ascending.

    Backed by LAPACK's symmetric solver; deterministic for identical input.
    The spectrum is adopted as LAPACK returns it, ascending, converted to
    Python floats in one `tolist` and not re-checked.  The attached
    tolerance scales with the largest entry so later multiset comparisons
    default to something sensible.
    """
    if not isinstance(M, SymMatrix):
        M = SymMatrix(np.asarray(M))
    vals = np.linalg.eigvalsh(M.entries).tolist() if M.order else []
    return Spectrum._of_sorted(tuple(vals), tol=1e-8 * max(1.0, M.max_abs_entry()))


def spectrum_of(G: Graph, kind: str) -> Spectrum:
    return eigenvalues(matrix_of(G, kind))


def spectra_equal(S1: Spectrum, S2: Spectrum, eps: float) -> bool:
    """Multiset equality: same length, elementwise within eps after sorting."""
    if eps < 0:
        raise ParameterError("eps must be nonnegative")
    if len(S1) != len(S2):
        return False
    return all(abs(a - b) <= eps for a, b in zip(S1.values, S2.values))


def spectral_distance(S1: Spectrum, S2: Spectrum) -> float:
    """Max elementwise distance of the sorted spectra; inf on length mismatch."""
    if len(S1) != len(S2):
        return math.inf
    if not S1.values:
        return 0.0
    return max(abs(a - b) for a, b in zip(S1.values, S2.values))


def is_cospectral(G1: Graph, G2: Graph, kind: str, eps: float) -> bool:
    return spectra_equal(spectrum_of(G1, kind), spectrum_of(G2, kind), eps)


def is_laplacian_integral(G: Graph, eps: float = 1e-8) -> bool:
    """True iff every Laplacian eigenvalue is within eps of an integer."""
    if eps < 0:
        raise ParameterError("eps must be nonnegative")
    return all(abs(v - round(v)) <= eps for v in spectrum_of(G, "laplacian").values)


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------

def spectral_energy(G: Graph, kind: str) -> tuple[EnergyValue, Spectrum]:
    """Energy of one matrix of G and the spectrum it sums: |lambda_i| for
    the adjacency matrix, |mu_i - 2m/n| for the two Laplacian kinds."""
    if kind != "adjacency" and G.n == 0:
        raise ParameterError("average degree 2m/n undefined for the empty graph")
    avg = None if kind == "adjacency" else 2.0 * G.m / G.n
    spec = spectrum_of(G, kind)
    value = float(sum(abs(v - (avg or 0.0)) for v in spec.values))
    return EnergyValue(value, kind, avg_degree=avg), spec


def energy(G: Graph) -> EnergyValue:
    """Sum of absolute adjacency eigenvalues."""
    return spectral_energy(G, "adjacency")[0]


def laplacian_energy(G: Graph) -> EnergyValue:
    return spectral_energy(G, "laplacian")[0]


def signless_laplacian_energy(G: Graph) -> EnergyValue:
    return spectral_energy(G, "signless_laplacian")[0]


# ---------------------------------------------------------------------------
# spanning trees
# ---------------------------------------------------------------------------

def spanning_trees_eigen(G: Graph) -> float:
    """Product of the n-1 largest Laplacian eigenvalues divided by n.

    Evaluates to ~0 for disconnected graphs since a second zero eigenvalue
    enters the product; a product beyond the float range is refused with
    ResourceLimitError.
    """
    if G.n < 1:
        raise ParameterError("spanning trees undefined for the empty graph")
    vals = spectrum_of(G, "laplacian").values
    if G.n == 1:
        return 1.0
    with np.errstate(over="ignore"):
        count = float(np.prod(vals[1:])) / G.n
    return _finite_count(count, f"a graph on {G.n} vertices")


def spanning_trees_exact(G: Graph) -> int:
    """Exact spanning-tree count: integer determinant of a Laplacian minor.

    Deletes the last row and column.  A disconnected graph has no spanning
    tree and returns 0 before any elimination; otherwise the minor is
    positive definite.  Minors of order up to `_BAREISS_MAX_ORDER` (26, the
    measured crossover) run fraction-free (Bareiss) elimination over Python
    integers.  Larger ones run the multi-modular determinant: float64
    elimination modulo primes below 2**23, exact while every partial sum
    stays below 2**53, with as many primes as Hadamard's bound (the product
    of the degrees) needs.  Both routes are exact at any size.
    """
    if G.n < 1:
        raise ParameterError("spanning trees undefined for the empty graph")
    if not is_connected(G):
        return 0
    n = G.n
    minor = np.subtract(0, G.adjacency[:n - 1, :n - 1], dtype=np.int64)
    minor.flat[::n] = G.degrees()[:n - 1]
    if n - 1 <= _BAREISS_MAX_ORDER:
        return _bareiss_determinant(minor.tolist())
    return _modular_determinant(minor)


def _bareiss_determinant(rows: list[list[int]]) -> int:
    """Fraction-free Gaussian elimination; exact over the integers."""
    n = len(rows)
    if n == 0:
        return 1
    M = [list(map(int, r)) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if M[i][k] != 0), None)
            if pivot is None:
                return 0
            M[k], M[pivot] = M[pivot], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


# The multi-modular determinant computes in float64, which holds every
# integer of magnitude up to 2**53 exactly.  Residues lie in (-p, p) with
# p < 2**23, so a product of two is below 2**46, and a sum of _BLOCK of
# them stays below _BLOCK * 2**46 < 2**53.  16 measured fastest.
_PRIME_LIMIT = 1 << 23
_BLOCK = 16
# primes per batch, so that the batch of minors stays near this size
_BATCH_BYTES = 1 << 21
# crossover in the minor's order: Bareiss measured faster up to here
_BAREISS_MAX_ORDER = 26

# the primes found so far: a cache of one fixed sequence, never reset
_PRIMES: list[int] = []


def _primes() -> Iterator[int]:
    """The primes below 2**23 in descending order, found on demand by trial
    division and cached."""
    i = 0
    while True:
        if i == len(_PRIMES):
            c = (_PRIMES[-1] if _PRIMES else _PRIME_LIMIT + 1) - 2
            while not all(c % d for d in range(3, math.isqrt(c) + 1, 2)):
                c -= 2
            _PRIMES.append(c)
        yield _PRIMES[i]
        i += 1


def _modular_determinant(minor: np.ndarray) -> int:
    """Determinant of a positive definite integer matrix from its residues
    modulo many primes, by Chinese remaindering (Abbott, Bronstein &
    Mulders, ISSAC 1999).

    Hadamard's inequality bounds the determinant by the product H of the
    diagonal, so primes are taken until their product exceeds 2H, which
    fixes the determinant as the residue of least absolute value.  No
    early termination is needed.  A prime that meets a zero pivot divides
    a leading principal minor, a nonzero integer, so only finitely many
    do; each is dropped and replaced by the next prime.
    """
    n = minor.shape[0]
    bound = 2 * math.prod(int(d) for d in np.diagonal(minor))
    batch = max(1, _BATCH_BYTES // (8 * n * n))
    A = minor.astype(np.float64)
    primes = _primes()
    residues: list[tuple[int, int]] = []
    modulus = 1
    while modulus <= bound:
        needed, reach = [], modulus
        while reach <= bound:
            needed.append(next(primes))
            reach *= needed[-1]
        # groups of at most batch primes, as even as possible
        size = math.ceil(len(needed) / math.ceil(len(needed) / batch))
        for g in range(0, len(needed), size):
            group = needed[g:g + size]
            for q, r in zip(group, _det_mod_primes(A, group)):
                if r:  # zero only when a pivot vanished
                    residues.append((r, q))
                    modulus *= q
    x, m = 0, 1
    for r, p in residues:
        x += m * ((r - x) * pow(m, -1, p) % p)
        m *= p
    return x if 2 * x < m else x - m


def _det_mod_primes(A: np.ndarray, primes: list[int]) -> list[int]:
    """det A mod each prime, batched over the primes, with 0 for a prime
    that meets a zero pivot.

    Block Schur complements without pivoting: Gauss-Jordan inverts each
    diagonal block A11 of _BLOCK rows, then batched matmuls form
    X = A11^-1 A12 and, _BLOCK rows at a time, the trailing update
    A22 - A21 X.  Residues are kept in (-p, p).
    """
    n = A.shape[0]
    p = np.array(primes, dtype=np.float64)[:, None, None]
    pinv = 1.0 / p
    M = np.fmod(A, p)  # small entries: fmod is quick here
    det = [1] * len(primes)
    for k0 in range(0, n, _BLOCK):
        k1 = min(k0 + _BLOCK, n)
        inverse = _inverse_mod(M[:, k0:k1, k0:k1], primes, p, pinv, det)
        X = _reduce(np.matmul(inverse, M[:, k0:k1, k1:]), p, pinv)
        for c0 in range(k1, n, _BLOCK):
            rows = M[:, c0:c0 + _BLOCK, k1:]
            rows -= np.matmul(M[:, c0:c0 + _BLOCK, k0:k1], X)
            _reduce(rows, p, pinv)
    return det


def _reduce(x: np.ndarray, p: np.ndarray, pinv: np.ndarray) -> np.ndarray:
    """x - p * rint(x / p), in place: a residue in (-p, p).  For integers
    |x| < _BLOCK * p**2 the computed quotient is within 2**-20 of x / p, so
    rint misses the nearest integer only at a near tie, the result stays in
    (-p, p) and every step is exact.  fmod is exact too, but many times
    slower on large quotients."""
    t = x * pinv
    np.rint(t, out=t)
    t *= p
    x -= t
    return x


def _inverse_mod(block: np.ndarray, primes: list[int], p: np.ndarray, pinv: np.ndarray,
                 det: list[int]) -> np.ndarray:
    """Inverse of each w x w block mod its prime, by Gauss-Jordan on
    [A11 | I]; multiplies det by the pivots.

    At step i only columns i .. w + i of [A11 | I] can change.  Reduction
    is delayed: a row is reduced when it becomes the pivot row and once at
    the end.  Between those it takes at most w - 1 updates of size below
    p**2, so it stays below w * p**2 < 2**53.
    """
    P, w, _ = block.shape
    p2, pinv2 = p[:, :, 0], pinv[:, :, 0]
    E = np.zeros((P, w, 2 * w))
    E[:, :, :w] = block
    E[:, :, w:] = np.eye(w)
    for i in range(w):
        row = _reduce(E[:, i, i:w + i + 1], p2, pinv2)
        inv = []
        for j, (x, q) in enumerate(zip(row[:, 0].tolist(), primes)):
            # a zero pivot leaves det at 0 for good, which marks the prime
            det[j] = det[j] * int(x) % q
            inv.append(pow(int(x), -1, q) if x else 0)
        row *= np.array(inv, dtype=np.float64)[:, None]
        _reduce(row, p2, pinv2)
        factor = _reduce(E[:, :, i].copy(), p2, pinv2)
        factor[:, i] = 0
        E[:, :, i + 1:w + i + 1] -= np.einsum("pi,pj->pij", factor, row[:, 1:])
    return _reduce(E[:, :, w:], p, pinv)


def edc_spanning_trees_formula(G: Graph) -> float:
    """Spanning trees of the extended double cover from the base graph:
    half the exact count for G times the product of (q_i + 2) over the
    signless Laplacian spectrum of G.
    """
    if G.n < 1:
        raise ParameterError("spanning trees undefined for the empty graph")
    return _finite_count(_edc_trees_from_base(G, spanning_trees_exact(G)), "the cover")


def _edc_trees_from_base(G: Graph, tau: int) -> float:
    """The cover's tree count from tau = tau(G), already known."""
    half = 0.5 * _count_as_float(tau, "the base graph")
    q = spectrum_of(G, "signless_laplacian").values
    with np.errstate(over="ignore"):
        return half * float(np.prod([v + 2.0 for v in q]))


def _count_as_float(count: int, what: str) -> float:
    """An exact spanning-tree count as a float, refused when it overflows."""
    try:
        return float(count)
    except OverflowError as exc:
        raise ResourceLimitError(f"the spanning-tree count of {what} ({count.bit_length()} bits) "
                                 f"overflows a float") from exc


def _finite_count(count: float, what: str) -> float:
    """A spanning-tree count from a float route, refused when it overflowed."""
    if not math.isfinite(count):
        raise ResourceLimitError(f"the spanning-tree count of {what} overflows a float")
    return count


def edc_spanning_trees_formula_bipartite(G: Graph) -> float:
    """Bipartite shortcut for the same count: tau(G) times the product of
    (mu_i + 2) over the n-1 largest Laplacian eigenvalues.
    """
    if G.n < 1:
        raise ParameterError("spanning trees undefined for the empty graph")
    if not is_bipartite(G):
        raise ParameterError("bipartite form requires a bipartite graph")
    tau = _count_as_float(spanning_trees_exact(G), "the base graph")
    mu = spectrum_of(G, "laplacian").values
    with np.errstate(over="ignore"):
        count = tau * float(np.prod([v + 2.0 for v in mu[1:]]))
    return _finite_count(count, "the cover")

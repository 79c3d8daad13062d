"""Dense symmetric eigencomputation, graph energies, and spanning-tree counts.

Three matrices are supported for a graph G with degree matrix D and
adjacency matrix A: the adjacency matrix itself, the Laplacian D - A and
the signless Laplacian D + A.  Spanning trees are counted twice over, by
the spectral route (product of the n-1 largest Laplacian eigenvalues over
n) and by an exact integer cofactor determinant, so the two routes can
certify each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, ParameterError, ResourceLimitError
from .graphs import Graph, is_bipartite

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
        return float(np.abs(self.entries).max()) if self.entries.size else 0.0


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
        M.flat[::G.n + 1] = G.degrees()
    return SymMatrix._of_symmetric(M)


def eigenvalues(M: SymMatrix) -> Spectrum:
    """Full real spectrum of a symmetric matrix, ascending.

    Backed by LAPACK's symmetric solver; deterministic for identical input.
    The attached tolerance scales with the largest entry so later multiset
    comparisons default to something sensible.
    """
    if not isinstance(M, SymMatrix):
        M = SymMatrix(np.asarray(M))
    vals = np.linalg.eigvalsh(M.entries) if M.order else np.zeros(0)
    return Spectrum(tuple(float(v) for v in vals), tol=1e-8 * max(1.0, M.max_abs_entry()))


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
    enters the product.
    """
    if G.n < 1:
        raise ParameterError("spanning trees undefined for the empty graph")
    vals = spectrum_of(G, "laplacian").values
    return float(np.prod(vals[1:])) / G.n if G.n > 1 else 1.0


def spanning_trees_exact(G: Graph) -> int:
    """Exact spanning-tree count: integer determinant of a Laplacian minor.

    Deletes the last row and column and runs fraction-free (Bareiss)
    elimination over Python integers, so the result is exact at any size.
    """
    if G.n < 1:
        raise ParameterError("spanning trees undefined for the empty graph")
    n = G.n
    minor = np.subtract(0, G.adjacency[:n - 1, :n - 1], dtype=np.int64)
    minor.flat[::n] = G.degrees()[:n - 1]
    return _bareiss_determinant(minor.tolist())


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


def edc_spanning_trees_formula(G: Graph) -> float:
    """Spanning trees of the extended double cover from the base graph:
    half the exact count for G times the product of (q_i + 2) over the
    signless Laplacian spectrum of G.
    """
    if G.n < 1:
        raise ParameterError("spanning trees undefined for the empty graph")
    return _edc_trees_from_base(G, spanning_trees_exact(G))


def _edc_trees_from_base(G: Graph, tau: int) -> float:
    """The cover's tree count from tau = tau(G), already known."""
    half = 0.5 * _count_as_float(tau, "the base graph")
    q = spectrum_of(G, "signless_laplacian").values
    return half * float(np.prod([v + 2.0 for v in q]))


def _count_as_float(count: int, what: str) -> float:
    """An exact spanning-tree count as a float, refused when it overflows."""
    try:
        return float(count)
    except OverflowError as exc:
        raise ResourceLimitError(f"the spanning-tree count of {what} ({count.bit_length()} bits) "
                                 f"overflows a float") from exc


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
    return tau * float(np.prod([v + 2.0 for v in mu[1:]]))

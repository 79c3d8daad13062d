"""Dense symmetric eigencomputation, graph energies, and spanning-tree counts.

Three matrices are supported for a graph G with degree matrix D and
adjacency matrix A: the adjacency matrix itself, the Laplacian D - A and
the signless Laplacian D + A.  Spanning trees are counted twice over, by
the spectral route (product of the n-1 largest Laplacian eigenvalues over
n) and by an exact integer cofactor determinant (`_exact_determinant`), so
the two routes can certify each other.  Theorem 3.5's count for the cover
is computed in integers too, via the exact det(Q + 2I).

Every matrix handed to `eigenvalues` is one that `matrix_of` built for a
simple graph, and the eigensolve relies on that form without re-checking
it: the off-diagonal entries are 0 or +-1, so the largest |entry| is
max(1, largest diagonal entry), and an index's row depends only on its
vertex's neighbour set and degree.  From order 512 up, an eigensolve
reduces the matrix first (gates measured with `tools/bench_eigensolve.py`;
below 512 the values stay exactly LAPACK's).  A block-symmetric matrix
I_p (x) B + (J_p - I_p) (x) C is solved as B + (p - 1)C and p - 1 copies of
B - C, each part split again: the paper's covers, G (x) K_2, k-folds and
G x K_p all split.  A part that is +-Y + beta*I of a part Y solved earlier
in the same call (A + I and -(A + I) for A(G*), L(G) + 2rI and Q(G) + 2rI
for an iterated cover) takes Y's values, flipped and shifted; no solve is
shared between calls.  Self-comparison: the split of the cover's Laplacian
is exactly L(G) and Q(G) + 2I, the proof of Theorem 3.2, so from order 512
up `verify 3.2` makes nearly the predictor's LAPACK calls; it still tests
the construction, since a wrong block fails the exact equality.  The exact
determinants never use the split.  What does not split deflates its false
twins: swapping two non-adjacent indices with identical rows of the nonzero
pattern is a graph automorphism, so LAPACK solves only the quotient over
the twin classes, when it keeps at most 3/4 of the order (129 classes and
about 7 ms, against 544 ms dense, for the order-2048 join of family 4.3).
The paper's constructions make only false twins, and true twins are left
to the split or the dense solve.  Every spectrum still holds all n values.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ParameterError, ResourceLimitError
from .graphs import Graph, is_connected

MATRIX_KINDS = ("adjacency", "laplacian", "signless_laplacian")


@dataclass(frozen=True)
class Spectrum:
    """Sorted (ascending) real eigenvalue multiset with a comparison tolerance."""

    values: tuple[float, ...]
    tol: float = 1e-8

    def __post_init__(self):
        if not self.tol >= 0:  # refuses nan too
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


# ---------------------------------------------------------------------------
# matrices and eigenvalues
# ---------------------------------------------------------------------------

def matrix_of(G: Graph, kind: str) -> np.ndarray:
    """Adjacency / Laplacian / signless Laplacian matrix of G, integer-valued:
    A, D - A or D + A, built in one read-only float64 array."""
    if kind not in MATRIX_KINDS:
        raise ParameterError(f"unknown matrix kind {kind!r}; choose from {MATRIX_KINDS}")
    A = G.adjacency
    # 0 - A rather than -A: no negative zeros, so the entries match D - A bit for bit
    M = np.subtract(0.0, A, dtype=np.float64) if kind == "laplacian" else A.astype(np.float64)
    if kind != "adjacency":
        M.flat[::G.n + 1] = G._degree_array()
    M.flags.writeable = False
    return M


def eigenvalues(M: np.ndarray) -> Spectrum:
    """Full spectrum of a `matrix_of` matrix, ascending, all n values.

    M must be the adjacency, Laplacian or signless Laplacian matrix of a
    simple graph, as `matrix_of` builds it; its form is relied on, not
    re-checked.  M is symmetric, its off-diagonal entries are 0 or +-1, and
    an index's row depends only on its vertex's neighbours and degree.

    Backed by LAPACK's symmetric solver; deterministic for identical input.
    From order 512 (`_DEFLATE_MIN_ORDER`) up, M is first reduced
    (`_reduced_eigenvalues`): split into the blocks of a block-symmetric
    layout (`_block_split`), and, when it splits no further, deflated by
    its false twins (`_deflated_eigenvalues`).  Below 512 the values are
    exactly those of `np.linalg.eigvalsh(M)`.  Either way all n values come
    back, ascending, converted to Python floats in one `tolist` and not
    re-checked.  The attached tolerance is 1e-8 * max |M|, so later
    multiset comparisons default to something sensible; by the form of M
    that is 1e-8 * max(1, largest diagonal entry), read from the diagonal
    alone.
    """
    n = M.shape[0]
    if n >= _DEFLATE_MIN_ORDER:
        vals = np.sort(_reduced_eigenvalues(M)).tolist()
    else:
        vals = np.linalg.eigvalsh(M).tolist() if n else []
    tol = 1e-8 * max(1.0, float(np.diagonal(M).max())) if n else 1e-8
    return Spectrum._of_sorted(tuple(vals), tol)


# Blocks and twins are reduced from this order up.  Twin detection is a
# larger share of a small solve (about 0.3 ms next to 4 ms at 256, 0.7 ms
# next to 17 ms at 512), and below it every spectrum stays exactly LAPACK's.
_DEFLATE_MIN_ORDER = 512
# The quotient is solved only when it keeps at most this share of the order
# (4c <= 3n).  On random graphs with a few leaf twins (c near n) it took as
# long as the dense solve and allocated a second matrix of the same size.
_QUOTIENT_MAX_SHARE = 0.75


def _reduced_eigenvalues(M: np.ndarray, solved: list[tuple[np.ndarray, np.ndarray]] | None = None) -> np.ndarray:
    """Every eigenvalue of the symmetric M, unsorted.  A part with no
    off-diagonal entry gives its diagonal, and one that is s*Y + beta*I of a
    part Y in `solved` (the parts reduced so far in this top-level call,
    with their values) gives s * spec Y + beta.  Else the block split comes
    first, and what splits no further is deflated by its false twins from
    order 512 up, then solved by LAPACK."""
    whole = solved is None
    if whole:
        solved = []
    elif np.count_nonzero(M) == np.count_nonzero(np.diagonal(M)):
        return np.diagonal(M).copy()
    for Y, vals in solved:
        shift = _shift_of(M, Y) if Y.shape == M.shape else None
        if shift is not None:
            return shift[0] * vals + shift[1]
    split = _block_split(M)
    if split is not None:
        S, D, p = split
        vals = np.concatenate([_reduced_eigenvalues(S, solved), np.tile(_reduced_eigenvalues(D, solved), p - 1)])
    else:
        vals = _deflated_eigenvalues(M, whole) if M.shape[0] >= _DEFLATE_MIN_ORDER else None
        vals = np.linalg.eigvalsh(M) if vals is None else vals
    solved.append((M, vals))
    return vals


def _shift_of(M: np.ndarray, Y: np.ndarray) -> tuple[int, float] | None:
    """(s, beta) with M = s*Y + beta*I exactly and s = +-1, else None, for
    M and Y of one order.  The cheap tests come first: a constant shift
    along the diagonal, then row 0 off the diagonal, and only then every
    off-diagonal entry."""
    dM, dY = np.diagonal(M), np.diagonal(Y)
    for s in (1, -1):
        beta = dM[0] - s * dY[0]
        if (dM - s * dY == beta).all() and (M[0, 1:] == s * Y[0, 1:]).all():
            same = M == s * Y
            same.flat[::M.shape[0] + 1] = True
            if same.all():
                return s, beta
    return None


def _block_split(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, int] | None:
    """(B + (p - 1)C, B - C, p) when M = I_p (x) B + (J_p - I_p) (x) C in one
    of two layouts, else None.

    Then spec M is spec(B + (p - 1)C) and p - 1 copies of spec(B - C): the
    vectors f (x) x with f constant give the first part, f summing to zero
    the second (for p = 2 the centrosymmetric split; Cantoni & Butler,
    Linear Algebra Appl. 13, 1976).  Integer entries keep B +- C exact.
    For each divisor p > 1 of the order n, largest first, block (a, b) is
    M[a*m:(a+1)*m, b*m:(b+1)*m] with m = n / p (contiguous, as in a cover)
    or M[a::p, b::p] (interleaved, as in G (x) K_2 and G x K_p).  Row 0 of
    block rows 0 and 1 is probed by slice comparisons before every block
    but B = block (0, 0) and C = block (0, 1) is compared with B or C.
    """
    n = M.shape[0]
    divisors = {d for q in range(1, math.isqrt(n) + 1) if n % q == 0 for d in (q, n // q)}
    for p in sorted(divisors - {1}, reverse=True):
        m = n // p
        layouts = [M.reshape(p, m, p, m), M.reshape(m, p, m, p).transpose(1, 0, 3, 2)]
        for X in layouts[:1 + (m > 1)]:
            # row 0 of block row 1 is row 0 of block row 0 with its first two blocks swapped
            r0, r1 = X[0, 0], X[1, 0]
            if not ((r1[1] == r0[0]).all() and (r1[0] == r0[1]).all()
                    and (r0[2:] == r0[1]).all() and (r1[2:] == r0[1]).all()):
                continue
            B, C = X[0, :, 0], X[0, :, 1]
            if (X[0, :, 2:] == C[:, None]).all() and all(
                    (X[a, :, a] == B).all() and (X[a, :, :a] == C[:, None]).all()
                    and (X[a, :, a + 1:] == C[:, None]).all() for a in range(1, p)):
                return B + (p - 1) * C, B - C, p
    return None


def _deflated_eigenvalues(M: np.ndarray, matrix_of_form: bool = True) -> np.ndarray | None:
    """The spectrum of M from its false-twin classes, unsorted, or None to
    solve M densely.

    Indices u and r are false twins when M[u, r] = 0 and swapping them
    leaves M unchanged.  A class of s false twins with diagonal value a
    then holds the block aI, and every vector on the class that sums to
    zero is an eigenvector for a, s - 1 of them.  The rest of the spectrum
    belongs to the vectors constant on each class, an equitable partition
    (Godsil & Royle, Algebraic Graph Theory, 2001, ch. 9).  Its c x c
    quotient, symmetrized by sqrt(s), is R[c, c'] = M[r_c, r_c'] *
    sqrt(s_c * s_c') off the diagonal and R[c, c] = a_c on it, for
    representatives r_c.

    The classes are the equal rows of the pattern P = (M != 0) with a zero
    diagonal (`_twin_classes`).  In a `matrix_of` matrix such pattern twins
    are twins of M, as `eigenvalues` sets out.  A block split's part is not
    one (B + (p - 1)C holds 2 or p where both blocks have an edge), so
    there a member stays in its class only if its diagonal and its row
    outside the two indices are its representative's; then every pair of
    the class is twins.  Returns None when the quotient would keep more
    than `_QUOTIENT_MAX_SHARE` of n.
    """
    n = M.shape[0]
    label, reps, sizes = _twin_classes(M)
    if not matrix_of_form and reps.size <= _QUOTIENT_MAX_SHARE * n:
        members = np.flatnonzero(reps[label] != np.arange(n))
        r = reps[label[members]]
        same = M[members] == M[r]
        same[np.arange(members.size), members] = same[np.arange(members.size), r] = True
        apart = ~same.all(axis=1) | (np.diagonal(M)[members] != np.diagonal(M)[r])
        label[members[apart]] = reps.size + np.arange(np.count_nonzero(apart))
        _, reps, label, sizes = np.unique(label, return_index=True, return_inverse=True, return_counts=True)
    c = reps.size
    if c > _QUOTIENT_MAX_SHARE * n:
        return None
    a = np.diagonal(M)[reps]
    root = np.sqrt(sizes)
    R = M[np.ix_(reps, reps)]
    R *= root[:, None]
    R *= root
    R.flat[::c + 1] = a
    return np.concatenate([np.linalg.eigvalsh(R), np.repeat(a, sizes - 1)])


def _twin_classes(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidate false-twin classes of M's pattern: each index's class, each
    class's representative (its first index) and each class's size.

    The rows of M != 0 with the diagonal cleared are grouped by one
    `np.unique` over their packed bits viewed as single void items, which
    is far faster than `np.unique(..., axis=0)`.  True twins, adjacent with
    equal closed neighbourhoods, are left apart: every construction of the
    paper that reaches this deflation makes false twins (the two copies of
    a vertex in D[G], the empty join partner of 4.3-4.9), and K_n and
    complete multipartite graphs split into blocks first.
    """
    P = M != 0
    P.flat[::M.shape[0] + 1] = False
    rows = np.packbits(P, axis=1)
    _, reps, label, sizes = np.unique(rows.view(np.dtype((np.void, rows.shape[1]))).ravel(),
                                      return_index=True, return_inverse=True, return_counts=True)
    return label, reps, sizes


def spectrum_of(G: Graph, kind: str) -> Spectrum:
    return eigenvalues(matrix_of(G, kind))


def spectra_equal(S1: Spectrum, S2: Spectrum, eps: float) -> bool:
    """Multiset equality: same length, elementwise within eps after sorting."""
    if not eps >= 0:  # refuses nan too
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


def is_laplacian_integral(G: Graph, eps: float = 1e-8) -> bool:
    """True iff every Laplacian eigenvalue is within eps of an integer."""
    if not eps >= 0:  # refuses nan too
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
    if not math.isfinite(count):
        raise ResourceLimitError(f"the spanning-tree count of a graph on {G.n} vertices overflows a float")
    return count


def spanning_trees_exact(G: Graph) -> int:
    """Exact spanning-tree count: integer determinant of a Laplacian minor.

    Deletes the last row and column.  A disconnected graph has no spanning
    tree and returns 0 before any elimination; otherwise the minor is
    positive definite and goes to `_exact_determinant`.
    """
    if G.n < 1:
        raise ParameterError("spanning trees undefined for the empty graph")
    if not is_connected(G):
        return 0
    n = G.n
    minor = np.subtract(0, G.adjacency[:n - 1, :n - 1], dtype=np.int64)
    minor.flat[::n] = G.degrees()[:n - 1]
    return _exact_determinant(minor)


def _exact_determinant(M: np.ndarray) -> int:
    """Determinant of a positive definite int64 matrix, exact at any order.

    Up to order `_BAREISS_MAX_ORDER`, the measured crossover, fraction-free
    (Bareiss) elimination over Python integers.  Above it, the multi-modular
    determinant: float64 elimination modulo primes below 2**23, exact while
    every partial sum stays below 2**53, with primes until their product
    exceeds twice Hadamard's bound, the product of the diagonal.
    """
    if M.shape[0] <= _BAREISS_MAX_ORDER:
        return _bareiss_determinant(M.tolist())
    return _modular_determinant(M)


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
# where `_exact_determinant` hands over from Bareiss to the modular route
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
    """Spanning trees of the extended double cover from the base graph
    (Theorem 3.5): the exact tau(G) det(Q + 2I) / 2 as a float, refused
    when it overflows one."""
    if G.n < 1:
        raise ParameterError("spanning trees undefined for the empty graph")
    return _count_as_float(Fraction(_edc_trees_doubled(G, spanning_trees_exact(G)), 2), "the cover")


def _edc_trees_doubled(G: Graph, tau: int) -> int:
    """Twice the cover's tree count by Theorem 3.5, tau(G) det(Q + 2I), from
    tau = tau(G); Q + 2I is positive definite, as Q is semidefinite."""
    M = G.adjacency.astype(np.int64)
    M.flat[::G.n + 1] = G._degree_array() + 2
    return tau * _exact_determinant(M)


def _count_as_float(count: int | Fraction, what: str) -> float:
    """An exact spanning-tree count as a float, refused when it overflows."""
    try:
        return float(count)
    except OverflowError as exc:
        raise ResourceLimitError(f"the spanning-tree count of {what} ({int(count).bit_length()} bits) "
                                 f"overflows a float") from exc

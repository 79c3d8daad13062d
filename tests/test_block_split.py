"""Block splitting inside `spectra.eigenvalues`.

From order 512 up, `eigenvalues` splits a matrix of the form
M = I_p (x) B + (J_p - I_p) (x) C, in contiguous or interleaved layout, into
B + (p - 1)C and p - 1 copies of B - C, and splits each part again; a part
that is +-Y + beta*I of a part Y already reduced in the same call takes
Y's values.  These tests hold it to the dense solve on every layout, on
nested ones and on layouts whose parts are shifts of each other, send near
misses to the dense path or to a separate solve, pin the solves the
paper's composites make, keep the reuse inside one call, and keep parts
away from the pattern-only twin shortcut.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equigraph import spectra
from equigraph.graphs import (
    Graph,
    cartesian_product,
    complete,
    cycle,
    double_graph,
    empty,
    extended_double_cover,
    hypercube,
    iterated_edc,
    join,
    kronecker_product,
)
from equigraph.spectra import MATRIX_KINDS, eigenvalues, matrix_of
from equigraph.theorems import VERDICT_CONFIRMED, run_check

from test_twin_deflation import blow_up, connected_base, eigvalsh_shapes

CROSSOVER = spectra._DEFLATE_MIN_ORDER
MAX_ORDER = 1100


def random_symmetric(rng: np.random.Generator, n: int, density: float, diagonal: bool) -> np.ndarray:
    A = np.triu(rng.random((n, n)) < density, 0 if diagonal else 1)
    return A | A.T


def block_symmetric(B: np.ndarray, C: np.ndarray, p: int, interleaved: bool) -> np.ndarray:
    """I_p (x) B + (J_p - I_p) (x) C: block (a, b) on indices a*m + i
    (contiguous) or i*p + a (interleaved)."""
    m = B.shape[0]
    X = np.empty((p, m, p, m), dtype=bool)
    X[:] = C[None, :, None, :]
    for a in range(p):
        X[a, :, a] = B
    if interleaved:
        X = X.transpose(1, 0, 3, 2)
    return X.reshape(p * m, p * m)


@st.composite
def block_graphs(draw):
    """The adjacency of a graph of order 512-1100, block-symmetric for p in
    {2, 3, 25}, contiguous or interleaved; when nested, B and C are
    block-symmetric themselves for an inner p, so that both parts split
    again.  Returns the adjacency, n / p and n / (p * inner): every solve is
    at most the first, and at most the second when nested."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    p = draw(st.sampled_from([2, 3, 25]))
    nested = draw(st.booleans())
    inner = draw(st.sampled_from([2, 3, 25])) if nested else 1
    m = draw(st.integers(-(-CROSSOVER // (p * inner)), MAX_ORDER // (p * inner)))
    density = draw(st.floats(0.0, 0.3))
    outer_interleaved, inner_interleaved = draw(st.booleans()), draw(st.booleans())

    def factor(diagonal: bool) -> np.ndarray:
        if not nested:
            return random_symmetric(rng, m, density, diagonal)
        return block_symmetric(random_symmetric(rng, m, density, diagonal),
                               random_symmetric(rng, m, density, True), inner, inner_interleaved)
    A = block_symmetric(factor(False), factor(True), p, outer_interleaved)
    return A, m * inner, m


@st.composite
def shifted_part_graphs(draw):
    """The adjacency of a graph of order 512-1100 whose block split has parts
    that are +-X + beta*I of each other: X (x) K_p-like layouts with C = I
    (the Cartesian product: B - C = B + (p - 1)C - pI in every kind) and,
    for p = 2, covers [[0, C], [C, 0]] with C regular (circulant), whose
    parts are C and -C, or D + C and D - C with D constant.  Returns the
    adjacency and n / p: LAPACK solves at most n / p rows in all."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cover = draw(st.booleans())
    p = 2 if cover else draw(st.sampled_from([2, 3, 25]))
    m = draw(st.integers(-(-CROSSOVER // p), MAX_ORDER // p))
    if cover:
        offsets = rng.random(m // 2 + 1) < draw(st.floats(0.0, 0.1))
        first = np.zeros(m, dtype=bool)
        first[:offsets.size] = offsets
        first[1:] |= first[1:][::-1]  # symmetric, so the circulant is too
        C = first[(np.arange(m)[None, :] - np.arange(m)[:, None]) % m]
        B = np.zeros((m, m), dtype=bool)
    else:
        B, C = random_symmetric(rng, m, draw(st.floats(0.0, 0.3)), False), np.eye(m, dtype=bool)
    return block_symmetric(B, C, p, draw(st.booleans())), m


def assert_matches_eigvalsh(M: np.ndarray, vals: tuple[float, ...]) -> None:
    assert len(vals) == M.shape[0] and all(type(v) is float for v in vals)
    assert all(x <= y for x, y in zip(vals, vals[1:]))
    err = np.abs(np.array(vals) - np.linalg.eigvalsh(M)).max()
    assert err <= 1e-12 * M.shape[0] * max(1.0, np.abs(M).max())


class TestAgainstTheDenseSolve:
    @given(block_graphs(), st.sampled_from(MATRIX_KINDS))
    @settings(max_examples=30, deadline=None)
    def test_every_layout_matches_eigvalsh(self, case, kind):
        A, part, leaf = case
        M = matrix_of(Graph._from_array(A), kind)
        with pytest.MonkeyPatch.context() as patch:
            shapes = eigvalsh_shapes(patch)
            vals = eigenvalues(M).values
        assert_matches_eigvalsh(M, vals)
        orders = [s[0] for s in shapes]
        assert max(orders, default=0) <= part
        # nested blocks split again down to the inner order
        assert max(orders, default=0) <= leaf or part == leaf

    @given(shifted_part_graphs(), st.sampled_from(MATRIX_KINDS))
    @settings(max_examples=30, deadline=None)
    def test_shifted_parts_match_eigvalsh(self, case, kind):
        A, part = case
        M = matrix_of(Graph._from_array(A), kind)
        with pytest.MonkeyPatch.context() as patch:
            shapes = eigvalsh_shapes(patch)
            vals = eigenvalues(M).values
        assert_matches_eigvalsh(M, vals)
        # the second part takes the first part's values: no rows solved for it
        assert sum(s[0] for s in shapes) <= part

    @pytest.mark.parametrize("kind", MATRIX_KINDS)
    def test_near_miss_takes_the_dense_path(self, kind, monkeypatch):
        """The cover with one cross edge toggled is no longer block-symmetric."""
        G = connected_base(4302, 512, 1024)
        A = extended_double_cover(G).adjacency.copy()
        A[3, 512 + 7] = A[512 + 7, 3] = not A[3, 512 + 7]
        M = matrix_of(Graph._from_array(A), kind)
        assert spectra._block_split(M) is None
        shapes = eigvalsh_shapes(monkeypatch)
        vals = eigenvalues(M).values
        assert shapes == [(1024, 1024)]
        assert vals == tuple(np.linalg.eigvalsh(M).tolist())


class TestReuseWithinOneCall:
    def test_one_toggled_entry_forces_a_second_solve(self, monkeypatch):
        """[[B, C], [C, B]] with B one edge {3, 7} and C = A + I: the parts
        C + B and B - C = -(C + B) + 2B agree as -Y + 0*I on the diagonal and
        on row 0, and differ only at (3, 7) and (7, 3)."""
        G = connected_base(4306, 512, 1024)
        C = G.adjacency | np.eye(512, dtype=bool)
        B = np.zeros((512, 512), dtype=bool)
        B[3, 7] = B[7, 3] = True
        M = matrix_of(Graph._from_array(np.block([[B, C], [C, B]])), "adjacency")
        S, D, p = spectra._block_split(M)
        assert p == 2 and spectra._shift_of(D, S) is None
        assert spectra._shift_of(D - 2 * B, S) == (-1, 0)
        shapes = eigvalsh_shapes(monkeypatch)
        vals = eigenvalues(M).values
        assert shapes == [(512, 512), (512, 512)]
        assert_matches_eigvalsh(M, vals)

    def test_32_predictor_is_not_served_from_the_direct_side(self, monkeypatch):
        """The table of solved parts lives in one `eigenvalues` call: the
        split of L(G*) is exactly L(G) and Q(G) + 2I, and the predictor of
        verify 3.2 still solves L(G) and Q(G) itself."""
        G = connected_base(4302, 512, 1024)
        shapes = eigvalsh_shapes(monkeypatch)
        calls = []
        solve = spectra.eigenvalues

        def recorded(M):
            before = len(shapes)
            out = solve(M)
            calls.append((M.shape[0], shapes[before:]))
            return out
        monkeypatch.setattr(spectra, "eigenvalues", recorded)
        assert run_check("3.2", G).verdict == VERDICT_CONFIRMED
        assert sorted(calls) == [(512, [(512, 512)])] * 2 + [(1024, [(512, 512)] * 2)]


class TestSolveShapes:
    def test_32_cover_solves_two_halves(self, monkeypatch):
        """L(G*) splits into L(G) and Q(G) + 2I, the proof of Theorem 3.2."""
        G = connected_base(4302, 512, 1024)
        M = matrix_of(extended_double_cover(G), "laplacian")
        S, D, p = spectra._block_split(M)
        assert p == 2
        assert np.array_equal(S, matrix_of(G, "laplacian"))
        assert np.array_equal(D, matrix_of(G, "signless_laplacian") + 2 * np.eye(512))
        shapes = eigvalsh_shapes(monkeypatch)
        vals = eigenvalues(M).values
        assert shapes == [(512, 512), (512, 512)]
        assert_matches_eigvalsh(M, vals)

    def test_410_product_solves_parts_of_order_21(self, monkeypatch):
        """The parts are L(H) and L(H) + 25I for H = cover(C_21), and L(H)'s
        are L(C_21) and Q(C_21) + 2I = -L(C_21) + 6I, as C_21 is 2-regular:
        one solve of order 21 serves all four."""
        M = matrix_of(cartesian_product(extended_double_cover(cycle(21)), complete(25)), "laplacian")
        shapes = eigvalsh_shapes(monkeypatch)
        vals = eigenvalues(M).values
        assert shapes == [(21, 21)]
        assert_matches_eigvalsh(M, vals)

    @pytest.mark.parametrize("member", range(4))
    def test_chain_members_solve_four_quarters(self, member, monkeypatch):
        """Each member splits into four quarters of order 256: L(G),
        Q(G) + 2I and their shifts by 2I for the first three members, and
        L(G) with its shifts by 2I, 2I and 4I for G x Q_2.  A shift takes the
        values of the quarter solved before it."""
        G = connected_base(4303, 256, 600)
        k2 = complete(2)
        H = [lambda: iterated_edc(G, 2),
             lambda: cartesian_product(iterated_edc(G, 1), k2),
             lambda: iterated_edc(cartesian_product(G, k2), 1),
             lambda: cartesian_product(G, hypercube(2))][member]()
        M = matrix_of(H, "laplacian")
        shapes = eigvalsh_shapes(monkeypatch)
        vals = eigenvalues(M).values
        assert shapes == [(256, 256)] * [2, 2, 2, 1][member]
        assert_matches_eigvalsh(M, vals)

    def test_kronecker_with_k2_solves_a_and_minus_a(self, monkeypatch):
        """The parts are A and -A: one solve of A gives both."""
        G = connected_base(4304, 512, 1024)
        M = matrix_of(kronecker_product(G, complete(2)), "adjacency")
        shapes = eigvalsh_shapes(monkeypatch)
        vals = eigenvalues(M).values
        assert shapes == [(512, 512)]
        assert_matches_eigvalsh(M, vals)


def swaps_without_change(M: np.ndarray, u: int, r: int) -> bool:
    swap = np.arange(M.shape[0])
    swap[[u, r]] = r, u
    return np.array_equal(M[np.ix_(swap, swap)], M)


class TestPartsAreNotMatrixOfMatrices:
    def test_double_join_part_deflates_its_twins(self, monkeypatch):
        """join(D[G], K_896-bar) splits into a part of order 512 whose empty
        vertices are twins by value (degree 128, -2 to each vertex of D[G]),
        so the part solves a quotient, and the other part is diagonal."""
        M = matrix_of(join(double_graph(connected_base(4305, 64, 128)), empty(896)), "laplacian")
        S, D, p = spectra._block_split(M)
        assert p == 2 and S.shape == (512, 512) and np.min(S) == -2
        assert np.count_nonzero(D) == np.count_nonzero(np.diagonal(D))
        shapes = eigvalsh_shapes(monkeypatch)
        vals = eigenvalues(M).values
        assert shapes == [(65, 65)]  # 64 vertices of G and one class of 448 empty ones
        assert_matches_eigvalsh(M, vals)

    @pytest.mark.parametrize("kind", MATRIX_KINDS)
    def test_part_with_unequal_pattern_twins(self, kind):
        """[[A1, A2], [A2, A1]] where the pattern of A1 + A2 is a blow-up with
        many twins, and each of its edges lies in A1, in A2 or in both: the
        part B + C holds 1s and 2s, so its pattern twins are not twins."""
        rng = np.random.default_rng(11)
        P = blow_up(rng, 512, 4.0, 0, 0.05).adjacency
        side = np.triu(rng.integers(0, 3, P.shape), 1)
        side = side + side.T
        A1, A2 = P & (side != 1), P & (side != 2)
        M = matrix_of(Graph._from_array(np.block([[A1, A2], [A2, A1]])), kind)
        S, _, p = spectra._block_split(M)
        assert p == 2 and S.shape == (512, 512)
        label, reps, _ = spectra._twin_classes(S)
        assert reps.size <= spectra._QUOTIENT_MAX_SHARE * 512
        assert not all(swaps_without_change(S, u, int(reps[label[u]]))
                       for u in np.flatnonzero(reps[label] != np.arange(512)).tolist())
        assert_matches_eigvalsh(M, eigenvalues(M).values)

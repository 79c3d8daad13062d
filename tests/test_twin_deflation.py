"""Twin deflation inside `spectra.eigenvalues`.

From order 512 up, `eigenvalues` groups interchangeable non-adjacent
indices (false twins) by the nonzero pattern of a `matrix_of` matrix and
solves the quotient over the classes in place of the full matrix.  These
tests hold it to the dense solve on graphs with planted twins, on the
paper's composites (joins with an empty graph, k-folds) and on K_a joined
with a graph, whose true twins are left to the dense solve; hold the form
it relies on (a pattern twin swaps with its representative without changing
the matrix, and max |M| is on the diagonal or 1); and bound the memory and
the shapes of the solves it makes.  Block splitting, which runs before it,
is tested in `test_block_split.py`.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equigraph import spectra
from equigraph.cli import main
from equigraph.graphio import emit_graph
from equigraph.graphs import (
    Graph,
    complete,
    disjoint_union,
    empty,
    extended_double_cover,
    join,
    k_fold,
)
from equigraph.spectra import MATRIX_KINDS, eigenvalues, matrix_of

CROSSOVER = spectra._DEFLATE_MIN_ORDER


def random_base(rng: np.random.Generator, n: int, p: float) -> np.ndarray:
    A = np.triu(rng.random((n, n)) < p, 1)
    return A | A.T


def blow_up(rng: np.random.Generator, order: int, mean_size: float, isolated: int, p: float,
            clique_share: float = 0.5) -> Graph:
    """A random base graph with each vertex replaced by a class of twins:
    true twins (a clique) with probability clique_share, else false twins
    (independent), joined to the classes of the base vertex's neighbours,
    plus isolated vertices.  mean_size 1 plants no twins; larger means
    plant more."""
    sizes = []
    while sum(sizes) < order - isolated:
        sizes.append(1 + int(rng.poisson(mean_size - 1)))
    sizes[-1] -= sum(sizes) - (order - isolated)
    sizes = [s for s in sizes if s > 0]
    label = np.repeat(np.arange(len(sizes)), sizes)
    A = random_base(rng, len(sizes), p)[np.ix_(label, label)]
    clique = rng.random(len(sizes)) < clique_share
    A |= (label[:, None] == label[None, :]) & clique[label][:, None]
    np.fill_diagonal(A, False)
    G = Graph._from_array(A)
    return disjoint_union(G, empty(isolated)) if isolated else G


@st.composite
def twin_rich_graphs(draw):
    """Graphs of order 300-900 that plant twins: blow-ups with many or few
    twins (so the 4c <= 3n gate falls on both sides), joins with an empty
    graph, k-folds, and K_a joined with a graph (true twins only)."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    order = draw(st.one_of(st.integers(300, CROSSOVER - 1), st.integers(CROSSOVER, 900)))
    shape = draw(st.sampled_from(["many_twins", "few_twins", "join_empty", "k_fold", "complete_join"]))
    p = draw(st.floats(0.02, 0.5))
    if shape == "many_twins":
        return blow_up(rng, order, draw(st.floats(2.0, 6.0)), draw(st.integers(0, 20)), p)
    if shape == "few_twins":
        return blow_up(rng, order, 1.05, draw(st.integers(0, 3)), p)
    if shape == "join_empty":
        g = draw(st.integers(20, 150))
        return join(Graph._from_array(random_base(rng, g, p)), empty(order - g))
    if shape == "k_fold":
        k = draw(st.integers(2, 4))
        return k_fold(Graph._from_array(random_base(rng, order // k, p)), k)
    a = draw(st.integers(1, 200))
    return join(complete(a), Graph._from_array(random_base(rng, order - a, p)))


def dense(M: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(M)


class TestAgainstTheDenseSolve:
    @given(twin_rich_graphs(), st.sampled_from(MATRIX_KINDS))
    @settings(max_examples=30, deadline=None)
    def test_spectrum_matches_eigvalsh(self, G, kind):
        M = matrix_of(G, kind)
        vals = eigenvalues(M).values
        assert type(vals) is tuple and len(vals) == G.n
        assert all(type(v) is float for v in vals)
        assert all(x <= y for x, y in zip(vals, vals[1:]))
        scale = max(1.0, np.abs(M).max())
        assert np.abs(np.array(vals) - dense(M)).max() <= 1e-12 * G.n * scale
        if G.n < CROSSOVER:
            assert vals == tuple(dense(M).tolist())

    @pytest.mark.parametrize("kind", MATRIX_KINDS)
    def test_paper_composites_spectra(self, kind):
        rng = np.random.default_rng(17)
        base = Graph._from_array(random_base(rng, 64, 0.06))
        for G in (join(extended_double_cover(base), empty(896)),
                  join(k_fold(base, 2), empty(896)),
                  k_fold(Graph._from_array(random_base(rng, 256, 0.02)), 3)):
            M = matrix_of(G, kind)
            err = np.abs(np.array(eigenvalues(M).values) - dense(M)).max()
            assert err <= 1e-12 * G.n * max(1.0, np.abs(M).max())


def true_twin_blow_up(rng: np.random.Generator) -> Graph:
    """A 600-vertex blow-up of a random graph with classes of 3 true twins."""
    n, s = 600, 3
    label = np.repeat(np.arange(n // s), s)
    A = random_base(rng, n // s, 0.1)[np.ix_(label, label)]
    A |= label[:, None] == label[None, :]
    np.fill_diagonal(A, False)
    return Graph._from_array(A)


def eigvalsh_shapes(monkeypatch) -> list[tuple[int, ...]]:
    """Record the shape of every matrix `np.linalg.eigvalsh` solves."""
    shapes = []
    solve = np.linalg.eigvalsh

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return solve(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    return shapes


class TestTheFormEigenvaluesRelyOn:
    @given(twin_rich_graphs())
    @settings(max_examples=20, deadline=None)
    def test_pattern_twins_swap_and_the_diagonal_gives_the_tolerance(self, G):
        """Swapping a pattern twin u with its representative r moves only
        rows and columns u and r, so for a symmetric M it leaves M unchanged
        iff row r, read through the swap, is row u and row u so read is
        row r."""
        for kind in MATRIX_KINDS:
            M = matrix_of(G, kind)
            assert np.array_equal(M, M.T)
            label, reps, _ = spectra._twin_classes(M)
            for u in np.flatnonzero(reps[label] != np.arange(G.n)).tolist():
                r = int(reps[label[u]])
                swap = np.arange(G.n)
                swap[[u, r]] = r, u
                assert np.array_equal(M[r, swap], M[u]) and np.array_equal(M[u, swap], M[r])
            assert eigenvalues(M).tol == 1e-8 * max(1.0, float(np.abs(M).max()))


def connected_base(seed: int, n: int, m: int) -> Graph:
    """A random spanning tree plus random extra edges, m edges in all."""
    rng = np.random.default_rng(seed)
    A = np.zeros((n, n), dtype=bool)
    A[rng.integers(0, np.arange(1, n)), np.arange(1, n)] = True
    while np.triu(A | A.T, 1).sum() < m:
        i, j = rng.integers(0, n, 2)
        A[min(i, j), max(i, j)] = i != j
    A = np.triu(A | A.T, 1)
    return Graph._from_array(A | A.T)


class TestMemoryAndSolveShapes:
    BASE = connected_base(4301, 64, 128)

    def test_true_twin_blow_up_solves_one_200_quotient(self, monkeypatch):
        """The classes of three true twins make the interleaved layout
        I_3 (x) A + (J_3 - I_3) (x) (A + I), so the block split leaves one
        part of order 200 to solve and a diagonal one."""
        M = matrix_of(true_twin_blow_up(np.random.default_rng(5)), "adjacency")
        shapes = eigvalsh_shapes(monkeypatch)
        vals = eigenvalues(M).values
        assert shapes == [(200, 200)]
        assert np.abs(np.array(vals) - np.linalg.eigvalsh(M)).max() <= 1e-12 * M.shape[0]

    @pytest.mark.parametrize("kind", MATRIX_KINDS)
    def test_unequal_twin_classes_solve_a_quotient(self, kind, monkeypatch):
        """Classes of false twins of uneven sizes: no block split, so the
        twins are deflated, each class adding its diagonal value s - 1
        times."""
        G = blow_up(np.random.default_rng(23), 600, 3.0, 0, 0.1, clique_share=0.0)
        M = matrix_of(G, kind)
        assert spectra._block_split(M) is None
        label, reps, sizes = spectra._twin_classes(M)
        members = np.flatnonzero(reps[label] != np.arange(G.n))
        assert not M[reps[label[members]], members].any()
        assert np.unique(sizes[sizes > 1]).size > 2 and reps.size <= spectra._QUOTIENT_MAX_SHARE * G.n
        shapes = eigvalsh_shapes(monkeypatch)
        vals = eigenvalues(M).values
        assert shapes == [(reps.size, reps.size)]
        assert np.abs(np.array(vals) - dense(M)).max() <= 1e-12 * G.n * max(1.0, np.abs(M).max())

    @pytest.mark.parametrize("kind", MATRIX_KINDS)
    def test_true_twins_that_do_not_split_are_solved_densely(self, kind, monkeypatch):
        """K_200 joined with a random graph on 400 vertices: the 200 clique
        vertices are true twins, which deflation leaves apart, and no block
        layout holds the join, so LAPACK solves the whole matrix."""
        G = join(complete(200), Graph._from_array(random_base(np.random.default_rng(29), 400, 0.1)))
        M = matrix_of(G, kind)
        assert spectra._block_split(M) is None
        label, reps, _ = spectra._twin_classes(M)
        assert np.unique(label[:200]).size == 200 and reps.size > spectra._QUOTIENT_MAX_SHARE * G.n
        shapes = eigvalsh_shapes(monkeypatch)
        vals = eigenvalues(M).values
        assert shapes == [(600, 600)]
        assert np.abs(np.array(vals) - dense(M)).max() <= 1e-12 * G.n * max(1.0, np.abs(M).max())

    def test_peak_memory_on_the_43_composite(self, monkeypatch):
        M = matrix_of(join(extended_double_cover(self.BASE), empty(1920)), "laplacian")
        shapes = eigvalsh_shapes(monkeypatch)
        tracemalloc.start()
        try:
            eigenvalues(M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert shapes == [(129, 129)]
        assert peak < 16 * 2 ** 20

    def test_family_43_solves_one_129_quotient(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "g.el").write_text(emit_graph(self.BASE, "edgelist").payload)
        shapes = eigvalsh_shapes(monkeypatch)
        code = main(["family", "--theorem", "4.3", "--in", str(tmp_path / "g.el"), "--p", "1920"])
        assert '"verdict":"confirmed"' in capsys.readouterr().out.replace(" ", "")
        assert code == 0
        assert shapes == [(129, 129)]

    def test_verify_32_on_a_graph_with_few_twins_solves_the_cover_in_halves(self, tmp_path, monkeypatch,
                                                                           capsys):
        """No twin quotient is built: the cover splits into two halves of
        order 512, and L(G) and Q(G) of the prediction are solved whole."""
        G = connected_base(4302, 512, 1024)
        _, reps, _ = spectra._twin_classes(matrix_of(G, "laplacian"))
        assert G.n - 16 < reps.size < G.n  # a few leaf twins, far from the gate
        (tmp_path / "g.el").write_text(emit_graph(G, "edgelist").payload)
        shapes = eigvalsh_shapes(monkeypatch)
        assert main(["verify", "--in", str(tmp_path / "g.el"), "--theorem", "3.2"]) == 0
        capsys.readouterr()
        assert shapes == [(512, 512)] * 4

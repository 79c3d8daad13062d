"""Matrices, eigenvalues, energies, and the two spanning-tree routes.

Expected values below were either computed by hand from small spectra or
cross-checked by an independent route (Cayley's formula, the complete
bipartite tree count q^(r-1) r^(q-1), exact integer determinants).
"""

import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equigraph import spectra
from equigraph.errors import ParameterError
from equigraph.graphs import (
    Graph,
    cartesian_product,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    empty,
    extended_double_cover,
    hypercube,
    iterated_edc,
    join,
    kronecker_product,
    path,
)
from equigraph.spectra import (
    MATRIX_KINDS,
    Spectrum,
    edc_spanning_trees_formula,
    eigenvalues,
    energy,
    is_laplacian_integral,
    laplacian_energy,
    matrix_of,
    spanning_trees_eigen,
    spanning_trees_exact,
    spectra_equal,
    spectral_distance,
    spectral_energy,
    spectrum_of,
)

from conftest import random_bipartite_graph, random_connected_graph, random_graph


def close(a, b, eps=1e-8):
    return abs(a - b) <= eps


class TestMatrices:
    def test_laplacian_k2(self):
        M = matrix_of(complete(2), "laplacian")
        assert np.array_equal(M, [[1, -1], [-1, 1]])

    def test_signless_k3_row_sums(self):
        M = matrix_of(complete(3), "signless_laplacian")
        assert np.array_equal(M, np.eye(3) + np.ones((3, 3)))
        assert list(M.sum(axis=1)) == [4, 4, 4]

    def test_adjacency_c4_circulant(self):
        M = matrix_of(cycle(4), "adjacency")
        assert list(M[0]) == [0, 1, 0, 1]

    def test_laplacian_rows_sum_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            G = random_graph(rng, int(rng.integers(1, 9)))
            M = matrix_of(G, "laplacian")
            assert np.abs(M.sum(axis=1)).max() == 0

    def test_rejects_unknown_kind(self):
        with pytest.raises(ParameterError):
            matrix_of(complete(2), "weird")

    def test_is_a_read_only_float_array(self):
        M = matrix_of(cycle(4), "laplacian")
        assert type(M) is np.ndarray and M.dtype == np.float64 and not M.flags.writeable


class TestEigenvalues:
    def test_k2_laplacian(self):
        vals = eigenvalues(matrix_of(complete(2), "laplacian")).values
        assert close(vals[0], 0) and close(vals[1], 2)

    def test_k33_adjacency(self):
        vals = spectrum_of(complete_bipartite(3, 3), "adjacency").values
        expected = [-3, 0, 0, 0, 0, 3]
        assert all(close(a, b) for a, b in zip(vals, expected))

    def test_k3xk3_laplacian(self):
        vals = spectrum_of(cartesian_product(complete(3), complete(3)), "laplacian").values
        expected = [0, 3, 3, 3, 3, 6, 6, 6, 6]
        assert all(close(a, b) for a, b in zip(vals, expected))

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            G = random_graph(rng, 8)
            M = matrix_of(G, "laplacian")
            w, Q = np.linalg.eigh(M)
            residual = np.abs(M - Q @ np.diag(w) @ Q.T).max()
            assert residual <= 1e-9 * G.n * max(1.0, np.abs(M).max())

    def test_deterministic(self):
        M = matrix_of(cycle(5), "adjacency")
        assert eigenvalues(M).values == eigenvalues(M).values

    def test_empty_matrix(self):
        assert eigenvalues(matrix_of(Graph(0, frozenset()), "adjacency")).values == ()

    @pytest.mark.parametrize("n", [0, 1, 2, 64])
    def test_trusted_spectrum_matches_the_validating_constructor(self, n):
        rng = np.random.default_rng(900 + n)
        for _ in range(5):
            G = random_graph(rng, n, rng.random())
            for kind in MATRIX_KINDS:
                M = matrix_of(G, kind)
                vals = np.linalg.eigvalsh(M) if n else np.zeros(0)
                largest = float(np.abs(M).max()) if n else 0.0
                expected = Spectrum(tuple(float(v) for v in vals), tol=1e-8 * max(1.0, largest))
                S = eigenvalues(M)
                assert S.values == expected.values and S.tol == expected.tol
                assert type(S.values) is tuple and all(type(v) is float for v in S.values)

    @pytest.mark.parametrize("entries", [
        [[0, 1], [1, 0]],
        [[0, 1, 1], [1, 0, 0], [1, 0, 0]],
        [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]],
        [[0, 0], [0, 0]],
        [[0]],
    ])
    def test_max_abs_entry(self, entries):
        """The tolerance scales with max |M|, which the diagonal of a
        `matrix_of` matrix gives alone: its off-diagonal entries are 0 or
        +-1.  `entries` is the graph's adjacency matrix."""
        G = Graph._from_array(np.array(entries, dtype=bool))
        for kind in MATRIX_KINDS:
            M = matrix_of(G, kind)
            tol = eigenvalues(M).tol
            assert tol == 1e-8 * max(1.0, float(np.abs(M).max()))
            assert type(tol) is float

    def test_max_abs_entry_of_the_empty_matrix(self):
        assert eigenvalues(np.zeros((0, 0))).tol == 1e-8


class TestSpectrumOps:
    def test_c4_laplacian(self):
        vals = spectrum_of(cycle(4), "laplacian").values
        assert all(close(a, b) for a, b in zip(vals, [0, 2, 2, 4]))

    def test_k3_signless(self):
        vals = spectrum_of(complete(3), "signless_laplacian").values
        assert all(close(a, b) for a, b in zip(vals, [1, 1, 4]))

    def test_empty4_all_kinds(self):
        for kind in ("adjacency", "laplacian", "signless_laplacian"):
            assert all(close(v, 0) for v in spectrum_of(empty(4), kind).values)

    def test_spectra_equal(self):
        s = spectrum_of(cycle(4), "laplacian")
        assert spectra_equal(s, s, 0.0)
        assert not spectra_equal(s, spectrum_of(complete(4), "laplacian"), 1e-6)
        assert not spectra_equal(s, spectrum_of(complete(3), "laplacian"), 1e-6)

    def test_spectra_equal_refuses_a_nan_eps(self):
        s = spectrum_of(cycle(4), "laplacian")
        with pytest.raises(ParameterError):
            spectra_equal(s, s, math.nan)

    def test_spectrum_refuses_a_nan_tolerance(self):
        with pytest.raises(ParameterError):
            Spectrum((0.0, 1.0), tol=math.nan)

    def test_spectral_distance_length_mismatch(self):
        assert spectral_distance(Spectrum((0.0,)), Spectrum((0.0, 1.0))) == math.inf

    def test_edc_vs_prism_cospectrality(self):
        # bipartite case agrees, odd-cycle case does not
        p3 = path(3)
        assert spectra_equal(spectrum_of(extended_double_cover(p3), "laplacian"),
                             spectrum_of(cartesian_product(p3, complete(2)), "laplacian"), 1e-7)
        k3 = complete(3)
        assert not spectra_equal(spectrum_of(extended_double_cover(k3), "laplacian"),
                                 spectrum_of(cartesian_product(k3, complete(2)), "laplacian"), 1e-7)


class TestEnergies:
    def test_energy_k3(self):
        assert close(energy(complete(3)).value, 4)

    def test_energy_k33_two_routes(self):
        assert close(energy(complete_bipartite(3, 3)).value, 6)
        lam = spectrum_of(complete(3), "adjacency").values
        assert close(2 * sum(abs(v + 1) for v in lam), 6)

    def test_energy_empty(self):
        assert energy(empty(5)).value == 0
        assert energy(empty(5)).avg_degree is None

    def test_le_k2(self):
        e = laplacian_energy(complete(2))
        assert close(e.value, 2) and close(e.avg_degree, 1)

    def test_le_k3(self):
        assert close(laplacian_energy(complete(3)).value, 4)

    def test_le_signless_k3(self):
        assert close(spectral_energy(complete(3), "signless_laplacian")[0].value, 4)

    def test_le_rejects_empty_graph(self):
        with pytest.raises(ParameterError):
            laplacian_energy(Graph(0, frozenset()))

    def test_energy_additive_over_union(self):
        G = complete(3)
        assert close(energy(disjoint_union(G, G)).value, 2 * energy(G).value)

    def test_regular_le_equals_energy(self):
        for G in (cycle(5), complete(4), complete_bipartite(3, 3), cycle(6)):
            assert close(laplacian_energy(G).value, energy(G).value)


class TestSpanningTrees:
    def test_forced_values(self):
        assert close(spanning_trees_eigen(cycle(4)), 4)
        assert close(spanning_trees_eigen(complete(4)), 16)
        assert close(spanning_trees_eigen(disjoint_union(complete(2), complete(2))), 0, 1e-9)
        assert spanning_trees_exact(cycle(4)) == 4
        assert spanning_trees_exact(complete_bipartite(3, 3)) == 81
        assert spanning_trees_exact(empty(3)) == 0
        assert spanning_trees_exact(complete(1)) == 1

    def test_cayley_formula(self):
        for n in range(2, 9):
            assert spanning_trees_exact(complete(n)) == n ** (n - 2)

    def test_complete_bipartite_formula(self):
        for q in range(1, 5):
            for r in range(1, 5):
                assert spanning_trees_exact(complete_bipartite(q, r)) == q ** (r - 1) * r ** (q - 1)

    def test_eigen_matches_exact(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            G = random_graph(rng, int(rng.integers(1, 13)))
            assert abs(spanning_trees_eigen(G) - spanning_trees_exact(G)) < 0.5

    def test_singleton_conventions(self):
        K1 = complete(1)
        assert spanning_trees_exact(K1) == 1
        assert spanning_trees_eigen(K1) == 1.0
        assert laplacian_energy(K1).value == 0.0
        assert energy(K1).value == 0.0

    def test_rejects_empty_graph(self):
        with pytest.raises(ParameterError):
            spanning_trees_exact(Graph(0, frozenset()))


def laplacian_minor(G: Graph) -> np.ndarray:
    n = G.n
    minor = np.subtract(0, G.adjacency[:n - 1, :n - 1], dtype=np.int64)
    minor.flat[::n] = G.degrees()[:n - 1]
    return minor


@st.composite
def connected_graphs(draw, max_n=60):
    """A random spanning tree plus random extra edges."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    A = np.triu(rng.random((n, n)) < draw(st.floats(min_value=0.0, max_value=1.0)), 1)
    A[rng.integers(0, np.arange(1, n)), np.arange(1, n)] = True
    return Graph._from_array(A | A.T)


def hypercube_trees(s: int) -> int:
    """tau(Q_s) = 2^(2^s - s - 1) * prod_k k^C(s, k)."""
    return 2 ** (2 ** s - s - 1) * math.prod(k ** math.comb(s, k) for k in range(1, s + 1))


def count_primes(monkeypatch, primes=None) -> list[int]:
    """Record every prime the modular determinant draws; optionally inject
    the sequence it draws from."""
    drawn = []
    source = spectra._primes

    def recorded():
        for q in (source() if primes is None else primes):
            drawn.append(q)
            yield q
    monkeypatch.setattr(spectra, "_primes", recorded)
    return drawn


def fewest_primes(primes, bound: int) -> int:
    """Length of the shortest prefix of primes whose product exceeds bound."""
    product = 1
    for count, q in enumerate(primes, start=1):
        product *= q
        if product > bound:
            return count
    raise AssertionError("prime list too short")


class TestModularDeterminant:
    @given(connected_graphs())
    @settings(max_examples=40, deadline=None)
    def test_equals_bareiss(self, G):
        minor = laplacian_minor(G)
        assert spectra._modular_determinant(minor) == spectra._bareiss_determinant(minor.tolist())

    @pytest.mark.parametrize("G,count", [
        (complete(100), 100 ** 98),
        (complete(200), 200 ** 198),
        (complete_bipartite(30, 45), 30 ** 44 * 45 ** 29),
        (cycle(160), 160),
        (hypercube(7), hypercube_trees(7)),
        (extended_double_cover(complete(40)), 40 ** 78),
    ], ids=["K100", "K200", "K30,45", "C160", "Q7", "cover-K40"])
    def test_kirchhoff_closed_forms_above_the_crossover(self, G, count, monkeypatch):
        assert G.n - 1 > spectra._BAREISS_MAX_ORDER
        monkeypatch.setattr(spectra, "_bareiss_determinant", None)
        assert spanning_trees_exact(G) == count

    def test_disconnected_graph_is_0_before_any_elimination(self, monkeypatch):
        monkeypatch.setattr(spectra, "_bareiss_determinant", None)
        monkeypatch.setattr(spectra, "_modular_determinant", None)
        assert spanning_trees_exact(disjoint_union(complete(40), cycle(30))) == 0
        assert spanning_trees_exact(empty(60)) == 0

    def test_uses_the_fewest_primes_the_hadamard_bound_allows(self, monkeypatch):
        """K_129: the diagonal is 128, and 128**128 and twice it need
        different numbers of primes."""
        fewest = fewest_primes(spectra._primes(), 2 * 128 ** 128)
        expected = [q for q, _ in zip(spectra._primes(), range(fewest))]
        drawn = count_primes(monkeypatch)
        assert spectra._modular_determinant(laplacian_minor(complete(129))) == 129 ** 127
        assert drawn == expected

    def test_a_prime_meeting_a_zero_pivot_is_replaced(self, monkeypatch):
        """The leading k x k minor of K_n's Laplacian minor is n^(k-1) (n-k),
        so 97 divides it for K_100 at k = 3."""
        odd = [q for q in range(101, 4000, 2) if all(q % d for d in range(3, math.isqrt(q) + 1, 2))]
        drawn = count_primes(monkeypatch, [97] + odd)
        assert spectra._modular_determinant(laplacian_minor(complete(100))) == 100 ** 98
        assert drawn == [97] + odd[:fewest_primes(odd, 2 * 99 ** 99)]

    def test_primes_are_the_largest_below_the_float_limit_in_order(self):
        """Checked against a Fermat test to bases 2, 3, 5 and 7."""
        primes = [q for q, _ in zip(spectra._primes(), range(20))]
        fermat = [c for c in range(2 ** 23 - 1, primes[-1] - 1, -2)
                  if all(pow(a, c - 1, c) == 1 for a in (2, 3, 5, 7))]
        assert primes == fermat
        assert spectra._BLOCK * primes[0] ** 2 < 2 ** 53

    def test_selects_bareiss_up_to_the_crossover(self, monkeypatch):
        orders = []
        for name in ("_bareiss_determinant", "_modular_determinant"):
            routine = getattr(spectra, name)
            monkeypatch.setattr(spectra, name, lambda m, f=routine, name=name: orders.append(
                (name, len(m))) or f(m))
        top = spectra._BAREISS_MAX_ORDER
        assert spanning_trees_exact(complete(top + 1)) == (top + 1) ** (top - 1)
        assert spanning_trees_exact(complete(top + 2)) == (top + 2) ** top
        assert orders == [("_bareiss_determinant", top), ("_modular_determinant", top + 1)]


class TestEdcTreesFormula:
    def test_forced_values(self):
        assert close(edc_spanning_trees_formula(complete(2)), 4)
        assert close(edc_spanning_trees_formula(complete(3)), 81, 1e-6)
        assert close(edc_spanning_trees_formula(empty(2)), 0)

    def test_matches_exact_on_cover(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            G = random_connected_graph(rng, int(rng.integers(2, 8)))
            expect = spanning_trees_exact(extended_double_cover(G))
            assert edc_spanning_trees_formula(G) == expect

    def test_bipartite_form_agrees(self):
        """On a bipartite graph Q and L are similar, so the count is also
        tau(G) times the product of (mu_i + 2) over the n-1 largest mu_i."""
        rng = np.random.default_rng(29)
        for _ in range(25):
            G = random_bipartite_graph(rng, int(rng.integers(2, 8)))
            general = edc_spanning_trees_formula(G)
            mu = spectrum_of(G, "laplacian").values
            shortcut = spanning_trees_exact(G) * math.prod(v + 2.0 for v in mu[1:])
            assert abs(general - shortcut) <= 1e-6 * max(1.0, abs(general))


class TestLaplacianIntegrality:
    def test_examples(self):
        assert is_laplacian_integral(complete(4))
        assert not is_laplacian_integral(path(4))  # contains 2 +- sqrt(2)

    def test_refuses_a_nan_eps(self):
        with pytest.raises(ParameterError):
            is_laplacian_integral(complete(3), math.nan)

    def test_iteration_preserves_for_bipartite(self):
        for G in (complete(2), path(3), complete_bipartite(2, 3), cycle(4)):
            if not is_laplacian_integral(G):
                continue
            for k in range(1, 4):
                assert is_laplacian_integral(iterated_edc(G, k))

    def test_iteration_preserves_for_q_integral(self):
        for G in (complete(3), complete(4), complete(5)):
            for k in range(1, 3):
                assert is_laplacian_integral(iterated_edc(G, k))

    def test_paw_is_the_known_gap(self):
        # Laplacian-integral but not signless-integral: the cover picks up
        # irrational values, so integrality does not survive one iteration.
        paw = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        assert is_laplacian_integral(paw)
        assert not is_laplacian_integral(extended_double_cover(paw))


class TestTraceAndStructureLaws:
    def test_trace_laws(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            G = random_graph(rng, int(rng.integers(1, 9)))
            tol = 1e-8 * max(1, G.n)
            assert abs(sum(spectrum_of(G, "laplacian").values) - 2 * G.m) <= tol
            assert abs(sum(spectrum_of(G, "signless_laplacian").values) - 2 * G.m) <= tol
            assert abs(sum(spectrum_of(G, "adjacency").values)) <= tol

    def test_zero_multiplicity_counts_components(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            G = random_graph(rng, int(rng.integers(1, 9)), p=0.3)
            mu = spectrum_of(G, "laplacian").values
            zeros = sum(1 for v in mu if abs(v) <= 1e-8)
            H = nx.Graph()
            H.add_nodes_from(range(G.n))
            H.add_edges_from(G.edges)
            assert zeros == nx.number_connected_components(H)
            assert mu[0] >= -1e-9

    def test_bipartite_l_equals_q(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            G = random_bipartite_graph(rng, int(rng.integers(1, 9)))
            assert spectra_equal(spectrum_of(G, "laplacian"),
                                 spectrum_of(G, "signless_laplacian"), 1e-8)

    def test_bipartite_adjacency_symmetric(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            G = random_bipartite_graph(rng, int(rng.integers(1, 9)))
            vals = spectrum_of(G, "adjacency").values
            flipped = Spectrum(tuple(sorted(-v for v in vals)))
            assert spectra_equal(Spectrum(vals), flipped, 1e-8)


class TestProductAndJoinSpectra:
    """The constructions against the spectral rules they obey: pairwise sums
    (Cartesian) and products (Kronecker) of the parts' spectra, and the
    join's Laplacian rule."""

    def test_cartesian_rule_both_kinds(self):
        rng = np.random.default_rng(47)
        for _ in range(15):
            G1 = random_graph(rng, int(rng.integers(1, 7)))
            G2 = random_graph(rng, int(rng.integers(1, 7)))
            P = cartesian_product(G1, G2)
            for kind in ("adjacency", "laplacian"):
                s1, s2 = spectrum_of(G1, kind).values, spectrum_of(G2, kind).values
                assert spectra_equal(Spectrum([a + b for a in s1 for b in s2]),
                                     spectrum_of(P, kind), 1e-8)

    def test_kronecker_rule_adjacency(self):
        rng = np.random.default_rng(53)
        for _ in range(15):
            G1 = random_graph(rng, int(rng.integers(1, 7)))
            G2 = random_graph(rng, int(rng.integers(1, 7)))
            P = kronecker_product(G1, G2)
            s1, s2 = spectrum_of(G1, "adjacency").values, spectrum_of(G2, "adjacency").values
            assert spectra_equal(Spectrum([a * b for a in s1 for b in s2]),
                                 spectrum_of(P, "adjacency"), 1e-8)

    def test_kronecker_laplacian_rule_is_rejected(self):
        # the product rule does not hold for Laplacian spectra, already on K_2 x K_2
        s = spectrum_of(complete(2), "laplacian").values
        assert not spectra_equal(Spectrum([a * b for a in s for b in s]),
                                 spectrum_of(kronecker_product(complete(2), complete(2)), "laplacian"),
                                 1e-8)

    def test_join_rule(self):
        """{0, n1+n2} u {n1 + sigma_j} u {n2 + mu_i}, each part dropping one zero."""
        rng = np.random.default_rng(59)
        for _ in range(15):
            G1 = random_graph(rng, int(rng.integers(1, 7)))
            G2 = random_graph(rng, int(rng.integers(1, 7)))
            mu = spectrum_of(G1, "laplacian").values
            sigma = spectrum_of(G2, "laplacian").values
            rule = ([0.0, G1.n + G2.n] + [G1.n + v for v in sigma[1:]]
                    + [G2.n + v for v in mu[1:]])
            assert spectra_equal(Spectrum(rule), spectrum_of(join(G1, G2), "laplacian"), 1e-8)

    def test_join_k33_empty9(self):
        vals = spectrum_of(join(complete_bipartite(3, 3), empty(9)), "laplacian").values
        expected = sorted([15.0, 15.0] + [6.0] * 8 + [12.0] * 4 + [0.0])
        assert all(close(a, b) for a, b in zip(vals, expected, strict=True))

"""Spectral predictors, identity checkers, and equienergetic families.

Frozen expected values:
  cover of P_3 has adjacency spectrum +-(sqrt2+1), +-1, +-(sqrt2-1);
  double of P_3 has Laplacian spectrum {0,2,2,2,4,6};
  the three family instances evaluate to 55.2, 72 and 64 (direct eigensolve
  agreed with hand expansion before freezing).
"""

import inspect
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equigraph.errors import ParameterError, ResourceLimitError
from equigraph.graphs import (
    Graph,
    complete,
    complete_bipartite,
    cycle,
    double_graph,
    empty,
    extended_double_cover,
    is_connected,
    iterated_edc,
    join,
    k_fold,
    kronecker_product,
    path,
)
from equigraph.predict import (
    predict_edc_a_spectrum,
    predict_edc_l_spectrum,
    predict_iterated_edc_l_spectrum,
    predict_iterated_edc_l_spectrum_bipartite,
    predict_kfold_a_spectrum,
    predict_kfold_l_spectrum,
)
from equigraph.spectra import (
    Spectrum,
    energy,
    laplacian_energy,
    matrix_of,
    spectra_equal,
    spectrum_of,
)
from equigraph.theorems import (
    CLAIMS,
    VERDICT_CONFIRMED,
    VERDICT_DEVIATION,
    VERDICT_HYPOTHESIS_NOT_MET,
    check_le_doubling,
    family_cartesian,
    family_join_edc,
    family_join_kfold,
    family_mixed,
    kfold_le_formula,
    MIXED_FAMILY_IDS,
    _edc_join_edges_fit,
    _edc_join_le,
    _kfold_join_edges_fit,
    _kfold_join_le,
    make_report,
    run_check,
    run_claim,
    smallest_feasible_edc_join_slack,
    smallest_feasible_kfold_join_slack,
)
from equigraph import spectra, theorems
from equigraph.reports import canonical_json

from conftest import (
    random_bipartite_graph,
    random_graph,
    random_nonbipartite_graph,
)
from test_twin_deflation import connected_base

SQRT2 = math.sqrt(2.0)


def assert_matches(predicted: Spectrum, values, eps=1e-7):
    assert spectra_equal(predicted, Spectrum(tuple(float(v) for v in values)), eps)


class TestPredictors:
    def test_edc_a_spectrum_examples(self):
        assert_matches(predict_edc_a_spectrum(complete(3)), [-3, 0, 0, 0, 0, 3])
        assert_matches(predict_edc_a_spectrum(empty(2)), [-1, -1, 1, 1])
        assert_matches(predict_edc_a_spectrum(path(3)),
                       [-(SQRT2 + 1), -1, -(SQRT2 - 1), SQRT2 - 1, 1, SQRT2 + 1])

    def test_kfold_a_spectrum_examples(self):
        assert_matches(predict_kfold_a_spectrum(complete(3), 2), [4, -2, -2, 0, 0, 0])
        G = random_graph(np.random.default_rng(1), 5)
        assert spectra_equal(predict_kfold_a_spectrum(G, 1),
                             spectrum_of(G, "adjacency"), 1e-9)
        assert_matches(predict_kfold_a_spectrum(complete(2), 3), [3, -3, 0, 0, 0, 0])

    def test_edc_l_spectrum_examples(self):
        assert_matches(predict_edc_l_spectrum(complete(2)), [0, 2, 2, 4])
        assert_matches(predict_edc_l_spectrum(complete(3)), [0, 3, 3, 3, 3, 6])
        assert_matches(predict_edc_l_spectrum(empty(3)), [0, 0, 0, 2, 2, 2])

    def test_iterated_l_spectrum_examples(self):
        assert_matches(predict_iterated_edc_l_spectrum_bipartite(complete(2), 2),
                       [0, 2, 2, 2, 4, 4, 4, 6])
        assert_matches(predict_iterated_edc_l_spectrum(complete(3), 2),
                       sorted([0, 3, 3] + [2, 5, 5] + [3, 3, 6] + [5, 5, 8]))
        G = random_graph(np.random.default_rng(2), 4)
        assert spectra_equal(predict_iterated_edc_l_spectrum(G, 1),
                             predict_edc_l_spectrum(G), 1e-9)

    def test_kfold_l_spectrum_examples(self):
        assert_matches(predict_kfold_l_spectrum(complete(3), 2), [0, 6, 6, 4, 4, 4])
        assert_matches(predict_kfold_l_spectrum(path(3), 2), [0, 2, 6, 2, 4, 2])
        G = random_graph(np.random.default_rng(3), 5)
        assert spectra_equal(predict_kfold_l_spectrum(G, 1),
                             spectrum_of(G, "laplacian"), 1e-9)

    def test_predictors_match_direct_random(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            G = random_graph(rng, int(rng.integers(1, 9)))
            k = int(rng.integers(1, 4))
            assert spectra_equal(predict_edc_a_spectrum(G),
                                 spectrum_of(extended_double_cover(G), "adjacency"), 1e-7)
            assert spectra_equal(predict_edc_l_spectrum(G),
                                 spectrum_of(extended_double_cover(G), "laplacian"), 1e-7)
            assert spectra_equal(predict_kfold_a_spectrum(G, k),
                                 spectrum_of(k_fold(G, k), "adjacency"), 1e-7)
            assert spectra_equal(predict_kfold_l_spectrum(G, k),
                                 spectrum_of(k_fold(G, k), "laplacian"), 1e-7)

    def test_iterated_consistency_with_recursion(self):
        # closed multiplicity form == one-step predictor applied at depth k-1
        rng = np.random.default_rng(103)
        for _ in range(10):
            G = random_graph(rng, int(rng.integers(1, 5)))
            for k in range(1, 5):
                pred = predict_iterated_edc_l_spectrum(G, k)
                one_more = predict_edc_l_spectrum(iterated_edc(G, k - 1))
                assert spectra_equal(pred, one_more, 1e-7)

    def test_binomial_bookkeeping(self):
        for k in range(1, 6):
            total_l = sum(math.comb(k - 1, r) for r in range(k))
            total_q = sum(math.comb(k - 1, r - 1) for r in range(1, k + 1))
            assert total_l + total_q == 2 ** k
        for n, k in [(3, 2), (4, 3), (2, 4)]:
            G = complete(n)
            assert len(predict_iterated_edc_l_spectrum(G, k)) == 2 ** k * n

    def test_bipartite_and_general_agree(self):
        rng = np.random.default_rng(107)
        for _ in range(20):
            G = random_bipartite_graph(rng, int(rng.integers(1, 6)))
            for k in (1, 2, 3):
                assert spectra_equal(predict_iterated_edc_l_spectrum(G, k),
                                     predict_iterated_edc_l_spectrum_bipartite(G, k), 1e-7)

    def test_bipartite_shortcut_rejects_odd_cycle(self):
        with pytest.raises(ParameterError):
            predict_iterated_edc_l_spectrum_bipartite(complete(3), 2)

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setenv("EQUIGRAPH_MAX_VERTICES", "16")
        with pytest.raises(ResourceLimitError):
            predict_iterated_edc_l_spectrum(complete(3), 4)


class TestReportMechanics:
    def test_verdict_confirmed(self):
        r = make_report("x", {"a": True}, (1.0,), (1.0 + 1e-9,), 1e-6)
        assert r.verdict == VERDICT_CONFIRMED and r.hypotheses_met

    def test_verdict_hypothesis(self):
        r = make_report("x", {"a": False}, (1.0,), (9.0,), 1e-6)
        assert r.verdict == VERDICT_HYPOTHESIS_NOT_MET

    def test_verdict_deviation(self):
        r = make_report("x", {}, (1.0,), (2.0,), 1e-6)
        assert r.verdict == VERDICT_DEVIATION
        assert r.max_abs_deviation == 1.0

    def test_length_mismatch_is_deviation(self):
        r = make_report("x", {}, (1.0,), (1.0, 2.0), 1e-6)
        assert r.verdict == VERDICT_DEVIATION and math.isinf(r.max_abs_deviation)

    def test_unknown_id_rejected(self):
        with pytest.raises(ParameterError):
            run_check("9.99", complete(2))

    @pytest.mark.parametrize("eps", [math.inf, math.nan, -1.0])
    def test_eps_that_is_not_finite_and_nonnegative_rejected(self, eps):
        with pytest.raises(ParameterError, match="eps must be finite and nonnegative"):
            run_check("3.2", path(3), eps=eps)

    def test_eps_zero_accepted(self):
        assert run_check("3.5", path(3), eps=0.0).verdict == VERDICT_CONFIRMED

    @pytest.mark.parametrize("tid", list(CLAIMS))
    def test_default_eps_is_the_checkers_signature_default(self, tid):
        """Without an eps a claim runs as if given its checker's default (3.6,
        3.7 and 3.8 report 0.5, the gate of their 0/1 outcomes)."""
        claim = CLAIMS[tid]
        default = inspect.signature(claim.check).parameters["eps"].default
        graphs = (complete(3), complete(3) if claim.needs_second else None)
        spec, report = run_claim(claim.command, tid, *graphs, p=20)
        assert (spec, report) == run_claim(claim.command, tid, *graphs, eps=default, p=20)
        assert report.eps == (0.5 if tid in ("3.6", "3.7", "3.8") else default)

    def test_all_registered_ids_run(self):
        G = path(3)
        for tid in (t for t, claim in CLAIMS.items() if claim.command == "verify"):
            second = cycle(4) if tid == "3.8" else None
            report = run_check(tid, G, second=second)
            assert report.verdict in (VERDICT_CONFIRMED, VERDICT_HYPOTHESIS_NOT_MET)


class TestEnergyIdentities:
    def test_tensor_vs_double(self):
        r = run_check("2.6", complete(3))
        assert r.verdict == VERDICT_CONFIRMED
        assert all(abs(v - 8.0) <= 1e-7 for v in r.computed)
        assert not r.details["cospectral"]

    def test_tensor_power_vs_kfold_iff(self):
        r = run_check("2.7", complete(3), k=4)
        assert r.verdict == VERDICT_CONFIRMED and r.details["s"] == 2
        r = run_check("2.7", complete(3), k=3)
        assert r.predicted[-1] == 0.0 and r.computed[-1] == 0.0

    def test_cover_square_condition_met(self):
        r = run_check("2.8", complete_bipartite(2, 2))
        assert r.verdict == VERDICT_CONFIRMED
        assert r.details["theta"] == 2

    def test_cover_square_condition_fails(self):
        r = run_check("2.8", complete(3))
        assert r.verdict == VERDICT_HYPOTHESIS_NOT_MET

    def test_bipartite_cover_vs_double(self):
        r = run_check("2.9", cycle(6))
        assert r.verdict == VERDICT_CONFIRMED
        r = run_check("2.9", cycle(4))
        assert r.verdict == VERDICT_HYPOTHESIS_NOT_MET
        assert abs(r.computed[0] - 12.0) <= 1e-7 and abs(r.computed[1] - 8.0) <= 1e-7

    def test_bipartite_cover_vs_double_eigenvalue_floor(self):
        """P_4's eigenvalues +-0.618 and +-1.618 fall below |lambda| >= 1, and
        its energies (10.47 against 8.94) differ; C_6's are 1 and 2."""
        r = run_check("2.9", path(4))
        assert r.verdict == VERDICT_HYPOTHESIS_NOT_MET
        assert r.hypotheses == {"bipartite": True, "abs_eigs_at_least_1": False}
        r = run_check("2.9", cycle(6))
        assert r.verdict == VERDICT_CONFIRMED
        assert r.hypotheses == {"bipartite": True, "abs_eigs_at_least_1": True}

    def test_cover_square_nonzero_eigenvalue_floor(self):
        """K_{1,3}'s nonzero eigenvalues +-sqrt(3) fall below 2, and its
        energies (21.86 against 22.93) differ; K_{2,2}'s are +-2."""
        r = run_check("2.8", complete_bipartite(1, 3))
        assert r.verdict == VERDICT_HYPOTHESIS_NOT_MET
        assert r.hypotheses == {"nonzero_eigs_at_least_2": False}
        r = run_check("2.8", complete_bipartite(2, 2))
        assert r.verdict == VERDICT_CONFIRMED
        assert r.hypotheses == {"nonzero_eigs_at_least_2": True}

    def test_cover_energy_formula(self):
        r = run_check("2.edc-energy", complete(3))
        assert r.verdict == VERDICT_CONFIRMED and abs(r.computed[0] - 6.0) <= 1e-7

    def test_tensor_cartesian_doubling(self):
        r = run_check("2.kron-cart", complete(3))
        assert r.verdict == VERDICT_CONFIRMED

    def test_unknown_identity(self):
        with pytest.raises(ParameterError):
            run_check("2.z", complete(2))

    def test_energy_scaling_random(self):
        rng = np.random.default_rng(109)
        for _ in range(40):
            G = random_graph(rng, int(rng.integers(1, 8)))
            base = energy(G).value
            k = int(rng.integers(1, 5))
            assert abs(energy(k_fold(G, k)).value - k * base) <= 1e-7
            s = int(rng.integers(1, 3))
            power = G
            for _ in range(s):
                power = kronecker_product(power, complete(2))
            assert abs(energy(power).value - 2 ** s * base) <= 1e-7

    def test_forward_2_9_on_condition_family(self):
        for G in (cycle(6), complete_bipartite(2, 2), complete_bipartite(3, 3), complete(2)):
            lam = spectrum_of(G, "adjacency").values
            if not all(abs(v) >= 1 - 1e-9 for v in lam):
                continue
            r = run_check("2.9", G)
            assert r.verdict == VERDICT_CONFIRMED


class TestCospectralityChecks:
    def test_cover_vs_prism(self):
        assert run_check("3.6", path(3)).verdict == VERDICT_CONFIRMED
        assert run_check("3.6", complete(3)).verdict == VERDICT_CONFIRMED
        r = run_check("3.6", complete(3))
        assert r.predicted == (0.0,) and r.computed == (0.0,)

    def test_iterated_pair(self):
        # L-cospectral pair: a graph and itself; non-pair: different spectra
        r = run_check("3.8", cycle(4), k=2, second=cycle(4))
        assert r.verdict == VERDICT_CONFIRMED and r.predicted == (1.0,)
        r = run_check("3.8", cycle(4), k=2, second=complete(4))
        assert r.verdict == VERDICT_CONFIRMED and r.predicted == (0.0,)

    def test_iterated_pair_needs_second(self):
        with pytest.raises(ParameterError):
            run_check("3.8", cycle(4))

    def test_chain_bipartite(self):
        r = run_check("3.chain", complete(2), k=2)
        assert r.verdict == VERDICT_CONFIRMED
        assert r.details["member_orders"] == [8, 8, 8, 8]

    def test_chain_requires_bipartite(self):
        r = run_check("3.chain", complete(3), k=2)
        assert r.verdict == VERDICT_HYPOTHESIS_NOT_MET

    def test_random_bipartite_vs_nonbipartite(self):
        rng = np.random.default_rng(113)
        for _ in range(10):
            B = random_bipartite_graph(rng, int(rng.integers(2, 8)))
            r = run_check("3.6", B)
            assert r.computed == (1.0,) and r.verdict == VERDICT_CONFIRMED
            N = random_nonbipartite_graph(rng, int(rng.integers(3, 8)))
            r = run_check("3.6", N)
            assert r.computed == (0.0,) and r.verdict == VERDICT_CONFIRMED


def edc_l_mutant(q_kind: str = "signless_laplacian", shift: float = 2.0):
    """Theorem 3.2's predictor {mu_i} u {q_i + 2} with the q_i taken from
    another matrix kind or shifted by another amount."""
    def predict(G):
        mu = spectrum_of(G, "laplacian").values
        return Spectrum(tuple(mu) + tuple(v + shift for v in spectrum_of(G, q_kind).values))
    return predict


class TestPredictorMutants:
    """A spectrum check with a wrong predictor must report a deviation on
    some input; the paper's predictors confirm on the same inputs."""

    BASE_512 = connected_base(4306, 512, 1024)

    @pytest.mark.parametrize("G", [complete(3), BASE_512], ids=["K3", "connected-512"])
    def test_32_with_q_plus_1_deviates(self, G):
        if G.n >= spectra._DEFLATE_MIN_ORDER:  # the direct side solves the split cover's halves
            assert spectra._block_split(matrix_of(extended_double_cover(G), "laplacian")) is not None
        mutant = theorems._spectrum_check("3.2", "laplacian", extended_double_cover, edc_l_mutant(shift=1.0))
        assert mutant(G).verdict == VERDICT_DEVIATION
        assert run_check("3.2", G).verdict == VERDICT_CONFIRMED

    @pytest.mark.parametrize("G, verdict", [(complete(3), VERDICT_DEVIATION),
                                            (cycle(5), VERDICT_DEVIATION),
                                            (path(4), VERDICT_CONFIRMED),
                                            (complete_bipartite(2, 3), VERDICT_CONFIRMED)])
    def test_32_with_mu_for_q_dies_only_on_a_non_bipartite_base(self, G, verdict):
        """L(G) and Q(G) are cospectral exactly for bipartite G, so only a
        non-bipartite input tells mu from q."""
        mutant = theorems._spectrum_check("3.2", "laplacian", extended_double_cover, edc_l_mutant("laplacian"))
        assert mutant(G).verdict == verdict
        assert run_check("3.2", G).verdict == VERDICT_CONFIRMED

    @pytest.mark.parametrize("G, k", [(complete(3), 2), (path(4), 3)])
    def test_33_with_a_multiplicity_off_by_one_deviates(self, G, k, monkeypatch):
        def off_by_one(G, k):
            """One copy more of each mu_i + 2(k - 1) and one fewer of each
            q_i + 2k, so the count stays 2^k n."""
            mu = spectrum_of(G, "laplacian").values
            q = spectrum_of(G, "signless_laplacian").values
            out = [v + 2.0 * r for r in range(k) for v in mu for _ in range(math.comb(k - 1, r) + (r == k - 1))]
            out += [v + 2.0 * r for r in range(1, k + 1) for v in q
                    for _ in range(math.comb(k - 1, r - 1) - (r == k))]
            return Spectrum(tuple(out))

        assert run_check("3.3", G, k=k).verdict == VERDICT_CONFIRMED
        monkeypatch.setattr(theorems, "predict_iterated_edc_l_spectrum", off_by_one)
        report = run_check("3.3", G, k=k)
        assert len(report.predicted) == len(report.computed) == 2 ** k * G.n
        assert report.verdict == VERDICT_DEVIATION


class TestTreesAndIntegrality:
    def test_edc_trees_check(self):
        r = run_check("3.5", complete(3))
        assert r.verdict == VERDICT_CONFIRMED
        assert r.computed == (81.0,)

    def test_edc_trees_check_runs_bareiss_once_per_graph(self, monkeypatch):
        orders = []
        bareiss = spectra._bareiss_determinant
        monkeypatch.setattr(spectra, "_bareiss_determinant",
                            lambda rows: orders.append(len(rows)) or bareiss(rows))
        r = run_check("3.5", complete(5))
        assert orders == [4, 5, 9]  # tau(G), det(Q + 2I), then tau(cover)
        assert r.details["base_exact"] == 125 and r.verdict == VERDICT_CONFIRMED

    @pytest.mark.parametrize("n", [12, 40, 81])
    def test_edc_trees_check_is_exact_past_the_float_mantissa(self, n):
        """The cover of K_n has n^(2n-2) spanning trees: past 2**53 from K_12
        up, and just inside the float range at K_81."""
        r = run_check("3.5", complete(n))
        assert r.verdict == VERDICT_CONFIRMED and r.max_abs_deviation == 0

    def test_edc_trees_verdict_does_not_depend_on_labels(self):
        """A connected 12-vertex, 40-edge graph whose cover has about 2**64
        spanning trees, under 40 relabelings."""
        rng = np.random.default_rng(2)
        pairs = list(itertools.combinations(range(12), 2))
        edges = [pairs[i] for i in rng.choice(len(pairs), 40, replace=False)]
        assert is_connected(Graph(12, edges))
        for _ in range(40):
            perm = rng.permutation(12).tolist()
            G = Graph(12, [tuple(sorted((perm[u], perm[v]))) for u, v in edges])
            r = run_check("3.5", G)
            assert r.verdict == VERDICT_CONFIRMED and r.max_abs_deviation == 0

    def test_integrality_iteration(self):
        r = run_check("3.7", complete(4), k=2)
        assert r.verdict == VERDICT_CONFIRMED
        paw = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        r = run_check("3.7", paw, k=1)
        assert r.verdict == VERDICT_HYPOTHESIS_NOT_MET
        assert r.predicted == (1.0,) and r.computed == (0.0,)

    def test_integrality_iteration_uses_the_given_eps(self):
        # signless Laplacian of P_4: 0, 2 - sqrt2, 2, 2 + sqrt2; off integers by 0.41
        assert not run_check("3.7", path(4)).details["q_integral"]
        assert run_check("3.7", path(4), eps=0.5).details["q_integral"]


@pytest.mark.parametrize("tid, G, solves", [("2.8", complete_bipartite(2, 2), 3),
                                            ("2.8", complete(3), 3),
                                            ("4.2", cycle(6), 2),
                                            ("4.2", path(3), 2)])
def test_one_eigensolve_per_distinct_matrix(tid, G, solves, monkeypatch):
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def counting(M):
        solved.append(M.tobytes())
        return eigvalsh(M)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    run_check(tid, G)
    assert len(solved) == len(set(solved)) == solves


class TestLeChecks:
    def test_le_doubling_k2(self):
        r = check_le_doubling(complete(2))
        assert r.verdict == VERDICT_CONFIRMED
        assert abs(r.computed[0] - 4.0) <= 1e-7

    def test_le_doubling_fails_p3(self):
        r = check_le_doubling(path(3))
        assert r.verdict == VERDICT_HYPOTHESIS_NOT_MET
        assert abs(r.predicted[0] - r.computed[0]) > 1e-3

    def test_le_doubling_c6(self):
        r = check_le_doubling(cycle(6))
        assert r.verdict == VERDICT_CONFIRMED

    def test_kfold_le_formula(self):
        r = kfold_le_formula(complete(3), 2)
        assert r.verdict == VERDICT_CONFIRMED and abs(r.computed[0] - 8.0) <= 1e-7
        r = kfold_le_formula(path(3), 2)
        assert r.verdict == VERDICT_CONFIRMED
        r = kfold_le_formula(path(4), 1)
        assert abs(r.computed[0] - laplacian_energy(path(4)).value) <= 1e-9

    def test_kfold_le_regular_scaling(self):
        for G in (cycle(5), complete(4)):
            for k in (2, 3):
                r = kfold_le_formula(G, k)
                assert r.verdict == VERDICT_CONFIRMED
                assert abs(r.computed[0] - k * laplacian_energy(G).value) <= 1e-7


class TestJoinFamilies:
    def test_edc_family_instance(self):
        spec, r = family_join_edc(complete(3), p=9, t=1, k=3)
        assert r.verdict == VERDICT_CONFIRMED
        assert abs(spec.closed_form_le - 55.2) <= 1e-9
        assert spec.composite_n == 15
        assert abs(spec.avg_degree_prime - 126.0 / 15.0) <= 1e-12

    def test_edc_family_k2_instance(self):
        spec, r = family_join_edc(complete(2), p=7, t=1, k=3)
        assert r.hypotheses_met and r.verdict == VERDICT_CONFIRMED

    def test_edc_family_p_too_small(self):
        _, r = family_join_edc(complete(3), p=8, t=1, k=3)
        assert r.verdict == VERDICT_HYPOTHESIS_NOT_MET
        assert not r.hypotheses["p_large_enough"]

    def test_kfold_family_instance(self):
        spec, r = family_join_kfold(complete(3), p=10, k=2, t=4)
        assert r.verdict == VERDICT_CONFIRMED
        assert abs(spec.closed_form_le - 72.0) <= 1e-9

    def test_kfold_family_k2_t4(self):
        spec, r = family_join_kfold(complete(2), p=8, k=2, t=4)
        assert r.hypotheses_met and r.verdict == VERDICT_CONFIRMED

    def test_kfold_family_p_too_small(self):
        _, r = family_join_kfold(complete(3), p=9, k=2, t=4)
        assert r.verdict == VERDICT_HYPOTHESIS_NOT_MET

    def test_avg_degree_matches_composite(self):
        rng = np.random.default_rng(127)
        for _ in range(10):
            G = random_graph(rng, int(rng.integers(2, 5)))
            t = int(rng.integers(1, 3))
            k = smallest_feasible_edc_join_slack(G, t)
            p = (1 << t) * G.n + k
            spec, _ = family_join_edc(G, p=p, t=t, k=k)
            composite = join(iterated_edc(G, t), empty(p))
            assert spec.avg_degree_prime == 2.0 * composite.m / composite.n

    def test_avg_degree_matches_composite_kfold(self):
        rng = np.random.default_rng(131)
        for _ in range(10):
            G = random_graph(rng, int(rng.integers(2, 5)))
            fold = int(rng.integers(2, 4))
            slack = smallest_feasible_kfold_join_slack(G, fold)
            p = fold * G.n + slack
            spec, _ = family_join_kfold(G, p=p, k=fold, t=slack)
            composite = join(k_fold(G, fold), empty(p))
            assert spec.avg_degree_prime == 2.0 * composite.m / composite.n

    def test_family_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            family_join_edc(complete(3), p=0, t=1, k=3)
        with pytest.raises(ParameterError):
            family_join_edc(complete(3), p=9, t=-1, k=3)
        with pytest.raises(ParameterError):
            family_join_kfold(complete(3), p=9, k=0, t=4)
        with pytest.raises(ParameterError):
            family_join_edc(Graph(0, frozenset()), p=4, t=1, k=3)

    def test_smallest_slack_helpers(self):
        G = complete(3)
        k = smallest_feasible_edc_join_slack(G, 1)
        assert k == 3
        t = smallest_feasible_kfold_join_slack(G, 2)
        assert t >= 4
        assert G.m <= t * (2 * G.n + t) / 8.0

    def test_smallest_slack_refuses_a_fold_below_1_and_a_negative_iteration_count(self):
        with pytest.raises(ParameterError, match="fold count must be positive, got 0"):
            smallest_feasible_kfold_join_slack(complete(3), 0)
        with pytest.raises(ParameterError, match="iteration count must be nonnegative, got -1"):
            smallest_feasible_edc_join_slack(complete(3), -1)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 64), m=st.integers(0, 2016), k=st.integers(-8, 200), t=st.integers(0, 6))
    def test_integer_edge_bounds_match_the_paper_forms(self, n, m, k, t):
        """On values this small the float forms round to the exact answer."""
        assert _edc_join_edges_fit(n, m, k, t) == (m <= (k - t) * n / 2.0 + k * k / 2.0 ** (t + 1))
        if k >= 1:
            assert _kfold_join_edges_fit(n, m, k, t) == (m <= t * (k * n + t) / (2.0 * k * k))


def old_mixed_forms(mixed_id: str, n: int, m1: int, m2: int, p: int) -> tuple[float, ...]:
    """The closed forms family_mixed once wrote out by hand for each side:
    (avg1, closed1, avg2, closed2)."""
    if mixed_id == "thm48":
        avg1 = (16.0 * m1 + 8.0 * n + 8.0 * p * n) / (p + 4 * n)
        avg2 = (16.0 * m2 + 4.0 * n + 8.0 * p * n) / (p + 4 * n)
        closed1 = 16.0 * n + 16.0 * m1 + (p - 4 * n) * avg1
        closed2 = 12.0 * n + 16.0 * m2 + (p - 4 * n) * avg2
    elif mixed_id == "thm49":
        avg1 = (16.0 * m1 + 8.0 * n + 8.0 * p * n) / (p + 4 * n)
        avg2 = (8.0 * m2 + 8.0 * n + 8.0 * p * n) / (p + 4 * n)
        closed1 = 16.0 * n + 16.0 * m1 + (p - 4 * n) * avg1
        closed2 = 16.0 * n + 8.0 * m2 + (p - 4 * n) * avg2
    else:
        avg1 = (8.0 * m1 + 4.0 * p * n) / (p + 2 * n)
        avg2 = (4.0 * m2 + 2.0 * n + 4.0 * p * n) / (p + 2 * n)
        closed1 = 4.0 * n + 8.0 * m1 + (p - 2 * n) * avg1
        closed2 = 6.0 * n + 4.0 * m2 + (p - 2 * n) * avg2
    return avg1, closed1, avg2, closed2


# mixed family -> the two composites it joins with an empty graph on p vertices
MIXED_COMPOSITES = {
    "thm48": (lambda G1: double_graph(extended_double_cover(G1)),
              lambda G2: extended_double_cover(double_graph(G2))),
    "thm49": (lambda G1: double_graph(extended_double_cover(G1)), lambda G2: iterated_edc(G2, 2)),
    "eq41_42": (double_graph, extended_double_cover),
}


class TestMixedFamilies:
    def test_thm48_witness(self):
        G1 = Graph(4, [(0, 1), (2, 3)])
        G2 = path(4)
        r = family_mixed("thm48", G1, G2, p=20, k=4)
        assert r.verdict == VERDICT_CONFIRMED and r.hypotheses_met

    def test_thm48_wrong_order(self):
        r = family_mixed("thm48", complete(3), complete(3), p=20, k=4)
        assert not r.hypotheses["order_divisible_by_4"]

    def test_thm49_witness(self):
        G1 = Graph(4, [(0, 1), (2, 3)])
        r = family_mixed("thm49", G1, cycle(4), p=20, k=4)
        assert r.verdict == VERDICT_CONFIRMED and r.hypotheses_met

    def test_eq41_witness(self):
        G1 = Graph(4, [(0, 1), (2, 3)])
        G2 = Graph(4, [(0, 2), (1, 3)])
        r = family_mixed("eq41_42", G1, G2, p=12, k=4)
        assert r.verdict == VERDICT_CONFIRMED and r.hypotheses_met

    def test_eq41_infeasible_odd_relation(self):
        # 4*m1 - n odd makes the edge relation unsatisfiable in integers
        r = family_mixed("eq41_42", complete(3), complete(3), p=12, k=4)
        assert not r.hypotheses["edge_relation"]

    def test_unknown_mixed_id(self):
        with pytest.raises(ParameterError):
            family_mixed("thm99", complete(2), complete(2), p=4)

    @settings(max_examples=300, deadline=None)
    @given(mixed_id=st.sampled_from(MIXED_FAMILY_IDS), n=st.integers(1, 4096),
           m1=st.integers(0, 4096 * 4095 // 2), m2=st.integers(0, 4096 * 4095 // 2),
           p=st.integers(1, 4096))
    def test_helpers_on_composite_bases_reproduce_the_old_forms(self, mixed_id, n, m1, m2, p):
        if mixed_id == "eq41_42":
            sides = _kfold_join_le(n, m1, p, 2) + _edc_join_le(n, m2, p, 1)
        else:
            side2 = _edc_join_le(2 * n, 4 * m2, p, 1) if mixed_id == "thm48" else _edc_join_le(n, m2, p, 2)
            sides = _kfold_join_le(2 * n, 2 * m1 + n, p, 2) + side2
        assert sides == old_mixed_forms(mixed_id, n, m1, m2, p)

    @pytest.mark.parametrize("mixed_id", MIXED_FAMILY_IDS)
    def test_reports_the_old_forms_and_the_composites_average_degree(self, mixed_id):
        rng = np.random.default_rng(151)
        for _ in range(5):
            n, p = 4, int(rng.integers(1, 24))
            G1, G2 = random_graph(rng, n), random_graph(rng, n)
            r = family_mixed(mixed_id, G1, G2, p=p)
            avg1, closed1, avg2, closed2 = old_mixed_forms(mixed_id, n, G1.m, G2.m, p)
            assert r.predicted == (closed1, closed2, 0.0)
            for i, (build, G) in enumerate(zip(MIXED_COMPOSITES[mixed_id], (G1, G2)), start=1):
                composite = join(build(G), empty(p))
                assert r.details[f"avg_degree_prime_{i}"] == 2.0 * composite.m / composite.n
            assert (avg1, avg2) == (r.details["avg_degree_prime_1"], r.details["avg_degree_prime_2"])


class TestCartesianFamily:
    def test_k3_instance(self):
        r = family_cartesian(complete(3), complete(3), p=5)
        assert r.verdict == VERDICT_CONFIRMED
        assert all(abs(v - 64.0) <= 1e-6 for v in r.predicted)
        assert r.details["equienergetic_iff_base"]

    def test_bipartite_rejected(self):
        r = family_cartesian(cycle(4), cycle(4), p=6)
        assert r.verdict == VERDICT_HYPOTHESIS_NOT_MET
        assert not r.hypotheses["non_bipartite"]

    def test_p_too_small(self):
        r = family_cartesian(complete(3), complete(3), p=4)
        assert r.verdict == VERDICT_HYPOTHESIS_NOT_MET
        assert not r.hypotheses["p_large_enough"]


def only_false(hypotheses: dict, name: str) -> bool:
    return [k for k, v in hypotheses.items() if not v] == [name]


class TestHypothesisBoundaries:
    """Each threshold between an input just inside it, which confirms, and
    one just outside, which fails that hypothesis alone: a weakened
    threshold would report the outside input met."""

    HOUSE = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (3, 4)])  # a square with a roof
    DART = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3)])

    def test_410_q_floor(self):
        """Both graphs are non-bipartite with n = 5 and m = 6, so the floor
        2m/n - 2 is 0.4.  The house's least signless Laplacian eigenvalue is
        (3 - sqrt 5)/2 = 0.382, below it by 0.018 and above 2m/n - 3; the
        dart's is 0.511."""
        r = family_cartesian(self.DART, self.DART, p=7)
        assert r.verdict == VERDICT_CONFIRMED and r.hypotheses_met
        r = family_cartesian(self.HOUSE, self.HOUSE, p=7)
        assert r.verdict == VERDICT_HYPOTHESIS_NOT_MET
        assert only_false(r.hypotheses, "q_spectrum_floor")
        r = family_cartesian(self.DART, self.HOUSE, p=7)
        assert only_false(r.hypotheses, "q_spectrum_floor")

    def test_thm48_edge_bound(self):
        """n = 4 and k = 4 bound 16 m2 by 4n(k - 2) + k^2 = 48: m2 = 3 meets
        it with equality, m2 = 4 exceeds it and stays within 4n(k - 1) + k^2."""
        r = family_mixed("thm48", Graph(4, [(0, 1), (2, 3)]), path(4), p=20, k=4)
        assert r.verdict == VERDICT_CONFIRMED and r.hypotheses_met
        r = family_mixed("thm48", path(4), cycle(4), p=20, k=4)
        assert r.verdict == VERDICT_HYPOTHESIS_NOT_MET
        assert only_false(r.hypotheses, "edges_small_enough")

    def test_thm49_edge_bound(self):
        """n = 8 and k = 4 bound 8 m2 by k(4n + k) - 8n = 80: m2 = 10 meets it
        with equality, m2 = 12 exceeds it and stays within k(4n + k).  G1 is
        a path on 6 or 7 of the 8 vertices, so m2 = 2 m1; G2 is C_8 with 2
        or 4 long chords."""
        chords = [(0, 4), (1, 5), (2, 6), (3, 7)]
        inside = family_mixed("thm49", Graph(8, path(6).edges), Graph(8, cycle(8).edges | set(chords[:2])), p=36, k=4)
        assert inside.verdict == VERDICT_CONFIRMED and inside.hypotheses_met
        outside = family_mixed("thm49", Graph(8, path(7).edges), Graph(8, cycle(8).edges | set(chords)), p=36, k=4)
        assert outside.verdict == VERDICT_HYPOTHESIS_NOT_MET
        assert only_false(outside.hypotheses, "edges_small_enough")

    @pytest.mark.parametrize("k", [2, 3])
    def test_kfold_family_slack(self, k):
        """K_2 meets every other hypothesis of 4.6 (k = 2) and 4.7 (k = 3)
        with slack t = 2k - 1, which alone falls short of 2k."""
        _, r = family_join_kfold(complete(2), p=4 * k, k=k, t=2 * k)
        assert r.verdict == VERDICT_CONFIRMED and r.hypotheses_met
        _, r = family_join_kfold(complete(2), p=4 * k, k=k, t=2 * k - 1)
        assert r.verdict == VERDICT_HYPOTHESIS_NOT_MET
        assert only_false(r.hypotheses, "slack_at_least_2k")


class TestDeterminism:
    def test_reports_serialize_identically(self):
        spec1, r1 = family_join_edc(complete(3), p=9, t=1, k=3)
        spec2, r2 = family_join_edc(complete(3), p=9, t=1, k=3)
        blob1 = canonical_json({"family": spec1.to_dict(), "report": r1.to_dict()})
        blob2 = canonical_json({"family": spec2.to_dict(), "report": r2.to_dict()})
        assert blob1 == blob2
        r3 = family_cartesian(complete(3), complete(3), p=5)
        r4 = family_cartesian(complete(3), complete(3), p=5)
        assert canonical_json(r3.to_dict()) == canonical_json(r4.to_dict())

"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the PASS lines.
Criteria with stated runtime budgets assert the elapsed wall time.
"""

import itertools
import time

import numpy as np
import pytest

from equigraph.graphio import decode_graph6, encode_graph6
from equigraph.graphs import (
    Graph,
    cartesian_product,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    double_graph,
    extended_double_cover,
    hypercube,
    is_bipartite,
    iterated_edc,
    k_fold,
    kronecker_product,
    line_graph,
    path,
)
from equigraph.predict import (
    predict_edc_l_spectrum,
    predict_iterated_edc_l_spectrum,
    predict_iterated_edc_l_spectrum_bipartite,
)
from equigraph.search import find_regular_graph_with_l_spectrum
from equigraph.spectra import (
    Spectrum,
    edc_spanning_trees_formula,
    energy,
    laplacian_energy,
    spanning_trees_eigen,
    spanning_trees_exact,
    spectra_equal,
    spectral_distance,
    spectrum_of,
)
from equigraph.theorems import (
    VERDICT_CONFIRMED,
    check_le_doubling,
    family_cartesian,
    family_join_edc,
    family_join_kfold,
    family_mixed,
    run_check,
    smallest_feasible_edc_join_slack,
    smallest_feasible_kfold_join_slack,
)

from conftest import (
    random_bipartite_graph,
    random_connected_graph,
    random_graph,
    random_nonbipartite_graph,
)

FIG1_SPECTRUM_A = Spectrum((0, 3, 3, 3, 3, 6, 6, 6, 6))
FIG1_SPECTRUM_B = Spectrum((0, 2, 3, 3, 5, 5, 6, 6, 6))


@pytest.fixture(scope="module")
def figure1_pair():
    G1 = cartesian_product(complete(3), complete(3))
    result = find_regular_graph_with_l_spectrum(9, 4, FIG1_SPECTRUM_B, eps=1e-6)
    assert result.witness is not None
    return G1, result.witness


def report(criterion, message):
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


def test_criterion_01_figure1_reproduction(figure1_pair):
    t0 = time.perf_counter()
    G1, _ = figure1_pair
    assert spectra_equal(spectrum_of(G1, "laplacian"), FIG1_SPECTRUM_A, 1e-8)
    assert abs(laplacian_energy(G1).value - 16.0) <= 1e-8

    full = find_regular_graph_with_l_spectrum(9, 4, FIG1_SPECTRUM_B, eps=1e-6,
                                              stop_at_first=False)
    assert full.witness is not None and full.matched >= 1
    assert spectra_equal(spectrum_of(full.witness, "laplacian"), FIG1_SPECTRUM_B, 1e-6)
    assert abs(laplacian_energy(full.witness).value - 16.0) <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(1, f"4-regular 9-vertex witness {encode_graph6(full.witness)} "
              f"({full.matched} labelled matches in {full.scanned} graphs, "
              f"both energies 16, {elapsed:.1f}s)")


def test_criterion_02_edc_l_spectrum_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(200):
        G = random_graph(rng, int(rng.integers(1, 9)), p=float(rng.uniform(0.2, 0.8)))
        predicted = predict_edc_l_spectrum(G)
        direct = spectrum_of(extended_double_cover(G), "laplacian")
        worst = max(worst, spectral_distance(predicted, direct))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-7
    assert elapsed < 5.0
    report(2, f"200 random graphs n<=8, max |predicted - direct| = {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_03_iterated_edc_l_spectrum():
    rng = np.random.default_rng(303)
    worst = 0.0
    bipartite_checked = 0
    for _ in range(50):
        G = random_graph(rng, int(rng.integers(1, 6)))
        for k in (1, 2, 3):
            predicted = predict_iterated_edc_l_spectrum(G, k)
            direct = spectrum_of(iterated_edc(G, k), "laplacian")
            worst = max(worst, spectral_distance(predicted, direct))
            if is_bipartite(G):
                shortcut = predict_iterated_edc_l_spectrum_bipartite(G, k)
                worst = max(worst, spectral_distance(predicted, shortcut))
                bipartite_checked += 1
    assert worst <= 1e-7
    assert bipartite_checked > 0
    report(3, f"50 random graphs n<=5, k in 1..3, max deviation {worst:.2e}, "
              f"{bipartite_checked} bipartite shortcut agreements")


def test_criterion_04_edc_spanning_trees():
    assert edc_spanning_trees_formula(complete(2)) == 4
    assert spanning_trees_exact(extended_double_cover(complete(2))) == 4
    assert edc_spanning_trees_formula(complete(3)) == 81
    assert spanning_trees_exact(extended_double_cover(complete(3))) == 81
    rng = np.random.default_rng(404)
    for _ in range(100):
        G = random_connected_graph(rng, int(rng.integers(2, 9)))
        assert edc_spanning_trees_formula(G) == spanning_trees_exact(extended_double_cover(G))
    report(4, "100 random connected graphs n<=8 plus forced cases 4 and 81, "
              "formula == exact count on every one")


def test_criterion_05_edc_prism_cospectrality():
    rng = np.random.default_rng(505)
    for _ in range(20):
        B = random_bipartite_graph(rng, int(rng.integers(2, 9)))
        assert spectra_equal(spectrum_of(extended_double_cover(B), "laplacian"),
                             spectrum_of(cartesian_product(B, complete(2)), "laplacian"), 1e-7)
    for _ in range(20):
        N = random_nonbipartite_graph(rng, int(rng.integers(3, 9)))
        assert not spectra_equal(spectrum_of(extended_double_cover(N), "laplacian"),
                                 spectrum_of(cartesian_product(N, complete(2)), "laplacian"), 1e-7)
    report(5, "cover vs prism Laplacian cospectrality holds on 20 bipartite, "
              "fails on 20 non-bipartite graphs")


def test_criterion_06_energy_identities():
    rng = np.random.default_rng(606)
    for _ in range(100):
        G = random_graph(rng, int(rng.integers(1, 8)))
        base = energy(G).value
        k = int(rng.integers(1, 5))
        assert abs(energy(k_fold(G, k)).value - k * base) <= 1e-7
        assert abs(energy(kronecker_product(G, complete(2))).value
                   - energy(double_graph(G)).value) <= 1e-7

    # modulus-2 condition pool: complete bipartite blocks and their unions
    pool_28 = [complete_bipartite(2, 2), complete_bipartite(2, 3), complete_bipartite(3, 3),
               disjoint_union(complete_bipartite(2, 2), complete_bipartite(3, 3)),
               complete_bipartite(2, 4)]
    confirmed_28 = 0
    for G in pool_28:
        r = run_check("2.8", G)
        if r.hypotheses_met:
            assert r.verdict == VERDICT_CONFIRMED
            confirmed_28 += 1
    assert confirmed_28 >= 3

    # bipartite cover-vs-double identity under its condition, plus a violator
    confirmed_29 = 0
    pool_29 = (cycle(6), complete(2), hypercube(3), disjoint_union(cycle(6), complete(2)),
               complete_bipartite(2, 2), complete_bipartite(3, 3))
    for G in pool_29:
        r = run_check("2.9", G)
        if r.hypotheses_met:
            assert r.verdict == VERDICT_CONFIRMED
            confirmed_29 += 1
    assert confirmed_29 >= 4
    r = run_check("2.9", cycle(4))
    assert not r.hypotheses_met
    assert abs(r.computed[0] - r.computed[1]) > 1e-3  # energies genuinely differ
    report(6, f"fold/tensor energy scaling on 100 random graphs, "
              f"{confirmed_28} modulus-2 instances and {confirmed_29} bipartite instances "
              f"confirmed, inequality witnessed on the 4-cycle")


def test_criterion_07_le_doubling():
    rng = np.random.default_rng(707)
    pool = [complete(2), cycle(6), complete_bipartite(2, 2), complete_bipartite(3, 3)]
    pool += [random_bipartite_graph(rng, int(rng.integers(2, 9))) for _ in range(40)]
    met = 0
    for G in pool:
        if G.n == 0:
            continue
        r = check_le_doubling(G)
        if r.hypotheses_met:
            assert r.verdict == VERDICT_CONFIRMED
            assert abs(r.computed[0] - 2.0 * laplacian_energy(G).value) <= 1e-7
            met += 1
    assert met >= 3
    r = check_le_doubling(path(3))
    assert not r.hypotheses_met
    assert abs(r.computed[0] - r.predicted[0]) > 1e-3
    report(7, f"doubling confirmed on {met} condition-satisfying bipartite graphs, "
              f"witnessed failure on the 3-path")


def _random_instance_43(rng):
    G = random_graph(rng, int(rng.integers(2, 6)))
    k = smallest_feasible_edc_join_slack(G, 1)
    p = 2 * G.n + k + int(rng.integers(0, 3))
    return family_join_edc(G, p=p, t=1, k=k)


def _random_instance_44(rng):
    G = random_graph(rng, int(rng.integers(2, 5)))
    t = int(rng.integers(2, 4))
    k = smallest_feasible_edc_join_slack(G, t)
    p = (1 << t) * G.n + k + int(rng.integers(0, 3))
    return family_join_edc(G, p=p, t=t, k=k)


def _random_instance_46(rng):
    G = random_graph(rng, int(rng.integers(2, 6)))
    t = smallest_feasible_kfold_join_slack(G, 2)
    p = 2 * G.n + t + int(rng.integers(0, 3))
    return family_join_kfold(G, p=p, k=2, t=t)


def _random_instance_47(rng):
    G = random_graph(rng, int(rng.integers(2, 5)))
    k = int(rng.integers(2, 4))
    t = smallest_feasible_kfold_join_slack(G, k)
    p = k * G.n + t + int(rng.integers(0, 3))
    return family_join_kfold(G, p=p, k=k, t=t)


def _random_instance_410(rng):
    for _ in range(300):
        n = int(rng.integers(3, 6))
        G1 = random_nonbipartite_graph(rng, n)
        G2 = random_nonbipartite_graph(rng, n)
        if G2.m != G1.m:
            continue
        p = n + 2 + int(rng.integers(0, 3))
        r = family_cartesian(G1, G2, p=p)
        if r.hypotheses_met:
            return None, r
    raise RuntimeError("no hypothesis-satisfying cartesian instance found")


def test_criterion_08_family_closed_forms():
    t0 = time.perf_counter()
    spec, r = family_join_edc(complete(3), p=9, t=1, k=3)
    assert r.verdict == VERDICT_CONFIRMED and abs(spec.closed_form_le - 55.2) <= 1e-6
    spec, r = family_join_kfold(complete(3), p=10, k=2, t=4)
    assert r.verdict == VERDICT_CONFIRMED and abs(spec.closed_form_le - 72.0) <= 1e-6
    r = family_cartesian(complete(3), complete(3), p=5)
    assert r.verdict == VERDICT_CONFIRMED
    assert all(abs(v - 64.0) <= 1e-6 for v in r.computed)

    rng = np.random.default_rng(808)
    generators = {
        "4.3": _random_instance_43,
        "4.4": _random_instance_44,
        "4.6": _random_instance_46,
        "4.7": _random_instance_47,
        "4.10": _random_instance_410,
    }
    for name, gen in generators.items():
        for _ in range(20):
            out = gen(rng)
            check = out[1]
            assert check.hypotheses_met, f"{name} generated a non-instance"
            assert check.verdict == VERDICT_CONFIRMED, f"{name}: {check}"
            assert check.max_abs_deviation <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(8, f"forced values 55.2 / 72 / 64 plus 20 random instances per family "
              f"claim, all within 1e-6 ({elapsed:.1f}s)")


def _graphs_with_m(n, m, limit=200):
    pairs = list(itertools.combinations(range(n), 2))
    found = 0
    for combo in itertools.combinations(pairs, m):
        yield Graph(n, frozenset(combo))
        found += 1
        if found >= limit:
            return


def test_criterion_09_cross_family_witnesses():
    # search small graphs meeting each edge relation until one witness passes
    n = 4
    witnesses = {}
    for m1 in range(0, 4):
        for G1 in _graphs_with_m(n, m1, limit=8):
            for G2 in _graphs_with_m(n, m1 + n // 4, limit=8):
                r = family_mixed("thm48", G1, G2, p=20, k=4)
                if r.hypotheses_met and r.verdict == VERDICT_CONFIRMED:
                    witnesses.setdefault("thm48", r)
    for m1 in range(1, 4):
        for G1 in _graphs_with_m(n, m1, limit=8):
            for G2 in _graphs_with_m(n, 2 * m1, limit=8):
                r = family_mixed("thm49", G1, G2, p=20, k=4)
                if r.hypotheses_met and r.verdict == VERDICT_CONFIRMED:
                    witnesses.setdefault("thm49", r)
    for m1 in range(1, 5):
        m2_times_2 = 4 * m1 - n
        if m2_times_2 < 0 or m2_times_2 % 2:
            continue
        for G1 in _graphs_with_m(n, m1, limit=8):
            for G2 in _graphs_with_m(n, m2_times_2 // 2, limit=8):
                r = family_mixed("eq41_42", G1, G2, p=12, k=4)
                if r.hypotheses_met and r.verdict == VERDICT_CONFIRMED:
                    witnesses.setdefault("eq41_42", r)
    assert set(witnesses) == {"thm48", "thm49", "eq41_42"}
    for name, r in witnesses.items():
        assert r.hypotheses_met and r.max_abs_deviation <= 1e-6
    report(9, "witness pairs found for all three cross-family constructions, "
              "equal energies to 1e-6 with all hypothesis flags true")


def test_criterion_10_oracle_equivalence():
    rng = np.random.default_rng(1010)
    for _ in range(500):
        G = random_graph(rng, int(rng.integers(1, 11)), p=float(rng.uniform(0.2, 0.9)))
        assert abs(spanning_trees_eigen(G) - spanning_trees_exact(G)) < 0.5

    count = 0
    for nn in range(6):
        pairs = list(itertools.combinations(range(nn), 2))
        for bits in range(1 << len(pairs)):
            edges = {pairs[i] for i in range(len(pairs)) if bits >> i & 1}
            G = Graph(nn, frozenset(edges))
            assert decode_graph6(encode_graph6(G)) == G
            count += 1
    report(10, f"tree counts agree on 500 random graphs n<=10; graph6 round-trip "
               f"exact on all {count} graphs with n<=5")


def test_criterion_11_iterated_line_graph_equienergetic(figure1_pair):
    G1, G2 = figure1_pair
    L1 = line_graph(line_graph(G1))
    L2 = line_graph(line_graph(G2))
    assert L1.n == 54 and L2.n == 54
    assert set(L1.degrees()) == {10} and set(L2.degrees()) == {10}
    e1, e2 = energy(L1).value, energy(L2).value
    assert abs(e1 - e2) <= 1e-6
    report(11, f"twice-iterated line graphs on 54 vertices are 10-regular and "
               f"equienergetic: {e1:.6f} vs {e2:.6f}")

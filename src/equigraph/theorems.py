"""Numerical certification of spectral identities and equienergetic families.

Every checker builds the graphs a claim talks about, evaluates the claim's
hypotheses (reported, never assumed), computes predicted and direct values,
and returns a TheoremReport.  Hypothesis failure is data, not an exception:
the verdict enum carries it so near-miss cases stay visible.

Claims are addressed by short identifiers (e.g. "3.2", "4.10") which are
also the CLI vocabulary; see CLAIMS.  A claim's default eps is its
checker's eps default.  The join families state each closed form and edge
bound once, and the mixed pairs reuse them on composite bases.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

from .errors import ParameterError
from .graphs import (
    Graph,
    cartesian_product,
    complete,
    double_graph,
    empty,
    extended_double_cover,
    hypercube,
    is_bipartite,
    is_connected,
    iterated_edc,
    join,
    k_fold,
    kronecker_product,
)
from .predict import (
    predict_edc_a_spectrum,
    predict_edc_l_spectrum,
    predict_iterated_edc_l_spectrum,
    predict_iterated_edc_l_spectrum_bipartite,
    predict_kfold_a_spectrum,
    predict_kfold_l_spectrum,
)
from .spectra import (
    _count_as_float,
    _edc_trees_doubled,
    energy,
    laplacian_energy,
    spanning_trees_eigen,
    spanning_trees_exact,
    is_laplacian_integral,
    spectral_distance,
    spectral_energy,
    spectrum_of,
)

EPS_SPECTRUM = 1e-7
EPS_ENERGY = 1e-7
EPS_FAMILY = 1e-6
EPS_TREES = 0.0

VERDICT_CONFIRMED = "confirmed"
VERDICT_HYPOTHESIS_NOT_MET = "hypothesis_not_met"
VERDICT_DEVIATION = "deviation"


@dataclass(frozen=True, eq=True)
class TheoremReport:
    """Predicted vs computed quantities for one claim, with a verdict.

    verdict is "confirmed" iff every hypothesis holds and the largest
    |predicted - computed| entry is within eps; "hypothesis_not_met" when
    some reported condition fails; "deviation" otherwise.
    """

    theorem_id: str
    hypotheses: dict[str, bool]
    predicted: tuple[float, ...]
    computed: tuple[float, ...]
    max_abs_deviation: float
    eps: float
    verdict: str
    details: dict = field(default_factory=dict)

    @property
    def hypotheses_met(self) -> bool:
        return all(self.hypotheses.values())

    def to_dict(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "hypotheses": dict(self.hypotheses),
            "hypotheses_met": self.hypotheses_met,
            "predicted": list(self.predicted),
            "computed": list(self.computed),
            "max_abs_deviation": self.max_abs_deviation,
            "eps": self.eps,
            "verdict": self.verdict,
            "details": dict(self.details),
        }


def make_report(theorem_id: str, hypotheses: dict[str, bool],
                predicted, computed, eps: float, details: dict | None = None) -> TheoremReport:
    if len(predicted) != len(computed):
        dev = math.inf
    elif predicted:
        # subtracted before converting, so that exact counts deviate exactly
        dev = max(abs(a - b) for a, b in zip(predicted, computed))
    else:
        dev = 0.0
    predicted = tuple(float(v) for v in predicted)
    computed = tuple(float(v) for v in computed)
    if not all(hypotheses.values()):
        verdict = VERDICT_HYPOTHESIS_NOT_MET
    elif dev <= eps:
        verdict = VERDICT_CONFIRMED
    else:
        verdict = VERDICT_DEVIATION
    return TheoremReport(theorem_id, dict(hypotheses), predicted, computed,
                         float(dev), float(eps), verdict, dict(details or {}))


@dataclass(frozen=True, eq=True)
class FamilySpec:
    """Parameters of one join-family instance and the closed-form energy
    they imply.  p is the size of the empty join partner, k and t are the
    family's slack / fold / iteration knobs (meaning depends on the claim).
    """

    theorem_id: str
    n: int
    m: int
    p: int
    k: int | None
    t: int | None
    composite_n: int
    composite_m: int
    avg_degree_prime: float
    closed_form_le: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _tensor_k2_power(G: Graph, s: int) -> Graph:
    """s-fold Kronecker product with a single edge."""
    out = G
    for _ in range(s):
        out = kronecker_product(out, complete(2))
    return out


def _eig_signature_difference(lam: tuple[float, ...], eps: float) -> int:
    """Count of nonnegative minus count of negative eigenvalues, with a
    zero-band: |v| <= eps classifies as nonnegative."""
    return sum(1 if v >= -eps else -1 for v in lam)


def _sum_degree_deviation(G: Graph) -> float:
    avg = 2.0 * G.m / G.n
    return sum(abs(d - avg) for d in G.degrees())


# ---------------------------------------------------------------------------
# spectrum predictions vs direct eigencomputation
# ---------------------------------------------------------------------------

def _spectrum_check(theorem_id: str, kind: str, construct: Callable, predict: Callable,
                    k: int | None = None) -> Callable[..., TheoremReport]:
    """The checker of a spectrum identity: the `kind` spectrum of
    construct(G), or construct(G, k) when k has a default, against
    predict on the same arguments.  The graph is built first, so the
    vertex cap refuses it before G is solved."""
    def check(G: Graph, k: int | None = k, eps: float = EPS_SPECTRUM) -> TheoremReport:
        args = (G,) if k is None else (G, k)
        computed = spectrum_of(construct(*args), kind)
        return make_report(theorem_id, {}, predict(*args).values, computed.values, eps,
                           None if k is None else {"k": k})
    return check


def check_iterated_edc_laplacian_spectrum(G: Graph, k: int = 2, eps: float = EPS_SPECTRUM) -> TheoremReport:
    predicted = predict_iterated_edc_l_spectrum(G, k)
    computed = spectrum_of(iterated_edc(G, k), "laplacian")
    details: dict = {"k": k, "bipartite": is_bipartite(G)}
    if is_bipartite(G):
        shortcut = predict_iterated_edc_l_spectrum_bipartite(G, k)
        details["bipartite_shortcut_distance"] = spectral_distance(predicted, shortcut)
    return make_report("3.3", {}, predicted.values, computed.values, eps, details)


# ---------------------------------------------------------------------------
# energy identities
# ---------------------------------------------------------------------------

def check_tensor_k2_vs_double_energy(G: Graph, eps: float = EPS_ENERGY) -> TheoremReport:
    """Tensoring with an edge and doubling give equienergetic graphs."""
    e_tensor = energy(kronecker_product(G, complete(2))).value
    closed = 2.0 * energy(G).value
    e_double = energy(double_graph(G)).value
    cospectral = spectral_distance(spectrum_of(kronecker_product(G, complete(2)), "adjacency"),
                                   spectrum_of(double_graph(G), "adjacency")) <= eps
    return make_report("2.6", {}, (closed, closed), (e_tensor, e_double), eps,
                       {"cospectral": cospectral})


def check_tensor_power_vs_kfold_energy(G: Graph, k: int = 2, eps: float = EPS_ENERGY) -> TheoremReport:
    """k-fold and s-th tensor power, s = max(floor(log2 k), 1), are
    equienergetic exactly when k = 2**s."""
    s = max(k.bit_length() - 1, 1)
    e_fold = energy(k_fold(G, k)).value
    base = energy(G).value
    e_power = energy(_tensor_k2_power(G, s)).value
    equal_expected = 1.0 if k == 2 ** s else 0.0
    equal_observed = 1.0 if abs(e_fold - e_power) <= eps * max(1.0, e_fold) else 0.0
    hyp = {"nonzero_energy": base > eps}
    return make_report("2.7", hyp,
                       (k * base, (2 ** s) * base, equal_expected),
                       (e_fold, e_power, equal_observed), eps,
                       {"k": k, "s": s})


def check_edc_tensor_vs_iterated_energy(G: Graph, eps: float = EPS_ENERGY) -> TheoremReport:
    """Tensored cover vs twice-iterated cover; equal when every nonzero
    adjacency eigenvalue has modulus at least 2, both matching
    4*sum|lambda| + 4*theta with theta the eigenvalue signature difference."""
    cover = extended_double_cover(G)
    e_tensor = energy(kronecker_product(cover, complete(2))).value
    e_iter = energy(extended_double_cover(cover)).value
    lam = spectrum_of(G, "adjacency").values
    hyp = {"nonzero_eigs_at_least_2": all(abs(v) >= 2.0 - eps for v in lam if abs(v) > eps)}
    theta = _eig_signature_difference(lam, eps)
    closed = 4.0 * sum(abs(v) for v in lam) + 4.0 * theta
    return make_report("2.8", hyp, (closed, closed), (e_tensor, e_iter), eps,
                       {"theta": theta})


def check_edc_vs_double_energy_bipartite(G: Graph, eps: float = EPS_ENERGY) -> TheoremReport:
    """For bipartite G the cover and the double graph are equienergetic
    exactly when every adjacency eigenvalue has modulus at least 1."""
    e_cover = energy(extended_double_cover(G)).value
    lam = spectrum_of(G, "adjacency").values
    hyp = {
        "bipartite": is_bipartite(G),
        "abs_eigs_at_least_1": all(abs(v) >= 1.0 - eps for v in lam),
    }
    closed = 2.0 * sum(abs(v) for v in lam)
    e_double = energy(double_graph(G)).value
    return make_report("2.9", hyp, (closed, closed), (e_cover, e_double), eps,
                       {"energy_gap": e_cover - e_double})


def check_edc_energy_formula(G: Graph, eps: float = EPS_ENERGY) -> TheoremReport:
    """Cover energy equals 2*sum|lambda_i + 1|."""
    direct = energy(extended_double_cover(G)).value
    lam = spectrum_of(G, "adjacency").values
    closed = 2.0 * sum(abs(v + 1.0) for v in lam)
    return make_report("2.edc-energy", {}, (closed,), (direct,), eps)


def check_tensor_cartesian_energy(G: Graph, eps: float = EPS_ENERGY) -> TheoremReport:
    """E((G (x) K_2) x K_2) equals twice E(G x K_2)."""
    k2 = complete(2)
    lhs = energy(cartesian_product(kronecker_product(G, k2), k2)).value
    rhs = 2.0 * energy(cartesian_product(G, k2)).value
    return make_report("2.kron-cart", {}, (rhs,), (lhs,), eps)


# ---------------------------------------------------------------------------
# spanning trees, integrality, cospectrality
# ---------------------------------------------------------------------------

def check_edc_spanning_trees(G: Graph, eps: float = EPS_TREES) -> TheoremReport:
    """Theorem 3.5 in integers: tau(G) det(Q + 2I) against twice the cover's
    exact cofactor count.  Either count beyond the float range is refused,
    the formula's before the cover's determinant is taken."""
    cover = extended_double_cover(G)
    base_exact = spanning_trees_exact(G)
    formula = Fraction(_edc_trees_doubled(G, base_exact), 2)
    _count_as_float(formula, "the cover")
    exact = spanning_trees_exact(cover)
    _count_as_float(exact, "the cover")
    return make_report("3.5", {}, (formula,), (exact,), eps,
                       {"eigen_route": spanning_trees_eigen(cover),
                        "base_exact": base_exact})


def check_laplacian_integrality_iteration(G: Graph, k: int = 1, eps: float = 1e-8) -> TheoremReport:
    """Laplacian integrality survives the iterated cover in both directions.

    The iterated spectrum mixes in signless-Laplacian values, so the claim
    is exact only when those are integral too; automatic for bipartite G,
    reported as a hypothesis otherwise.
    """
    q_vals = spectrum_of(G, "signless_laplacian").values
    q_integral = all(abs(v - round(v)) <= eps for v in q_vals)
    hyp = {"bipartite_or_q_integral": is_bipartite(G) or q_integral}
    base = is_laplacian_integral(G, eps)
    iterated = is_laplacian_integral(iterated_edc(G, k), eps)
    return make_report("3.7", hyp, (float(base),), (float(iterated),), 0.5,
                       {"k": k, "q_integral": q_integral})


def check_edc_cartesian_cospectral(G: Graph, eps: float = EPS_SPECTRUM) -> TheoremReport:
    """The cover and the prism G x K_2 are Laplacian cospectral exactly for
    one-vertex or bipartite G."""
    expected = G.n <= 1 or is_bipartite(G)
    s1 = spectrum_of(extended_double_cover(G), "laplacian")
    s2 = spectrum_of(cartesian_product(G, complete(2)), "laplacian")
    dist = spectral_distance(s1, s2)
    observed = dist <= eps
    return make_report("3.6", {}, (float(expected),), (float(observed),), 0.5,
                       {"spectral_distance": dist, "bipartite": is_bipartite(G)})


def check_iterated_cospectral_pair(G: Graph, second: Graph, k: int = 1,
                                   eps: float = EPS_SPECTRUM) -> TheoremReport:
    """Laplacian cospectrality of a pair is preserved and reflected by the
    k-th iterated cover."""
    base_equal = spectral_distance(spectrum_of(G, "laplacian"),
                                   spectrum_of(second, "laplacian")) <= eps
    iter_equal = spectral_distance(spectrum_of(iterated_edc(G, k), "laplacian"),
                                   spectrum_of(iterated_edc(second, k), "laplacian")) <= eps
    return make_report("3.8", {}, (float(base_equal),), (float(iter_equal),), 0.5,
                       {"k": k})


def check_bipartite_cospectral_chain(G: Graph, k: int = 2, eps: float = EPS_SPECTRUM) -> TheoremReport:
    """For bipartite G the four graphs below are mutually Laplacian cospectral:
    the s-th iterated cover, the (s-1)-th cover crossed with an edge, the
    (s-1)-th cover of the prism, and G x (hypercube of dimension s)."""
    if k < 1:
        raise ParameterError(f"iteration count must be positive, got {k}")
    hyp = {"bipartite": is_bipartite(G)}
    k2 = complete(2)
    members = [
        iterated_edc(G, k),
        cartesian_product(iterated_edc(G, k - 1), k2),
        iterated_edc(cartesian_product(G, k2), k - 1),
        cartesian_product(G, hypercube(k)),
    ]
    spectra = [spectrum_of(M, "laplacian") for M in members]
    dists = [spectral_distance(spectra[i], spectra[j])
             for i in range(len(spectra)) for j in range(i + 1, len(spectra))]
    return make_report("3.chain", hyp, tuple(0.0 for _ in dists), tuple(dists), eps,
                       {"k": k, "member_orders": [M.n for M in members]})


# ---------------------------------------------------------------------------
# Laplacian-energy identities
# ---------------------------------------------------------------------------

def check_le_doubling(G: Graph, eps: float = EPS_ENERGY) -> TheoremReport:
    """For bipartite G the cover doubles the Laplacian energy exactly when
    every Laplacian eigenvalue sits at least 1 away from the average degree."""
    if G.n == 0:
        raise ParameterError("Laplacian energy undefined for the empty graph")
    direct = laplacian_energy(extended_double_cover(G)).value
    le, spec = spectral_energy(G, "laplacian")
    mu, avg = spec.values, le.avg_degree
    hyp = {
        "bipartite": is_bipartite(G),
        "le_gaps_at_least_1": all(abs(v - avg) >= 1.0 - eps for v in mu),
    }
    doubled = 2.0 * le.value
    return make_report("4.2", hyp, (doubled,), (direct,), eps,
                       {"min_gap": min(abs(v - avg) for v in mu)})


def kfold_le_formula(G: Graph, k: int = 2, eps: float = EPS_ENERGY) -> TheoremReport:
    """Laplacian energy of the k-fold graph: k*LE(G) plus a degree-spread
    term k(k-1)*sum|d_i - 2m/n| that vanishes for regular graphs."""
    if k < 1:
        raise ParameterError(f"fold count must be positive, got {k}")
    if G.n == 0:
        raise ParameterError("Laplacian energy undefined for the empty graph")
    direct = laplacian_energy(k_fold(G, k)).value
    closed = k * laplacian_energy(G).value + k * (k - 1) * _sum_degree_deviation(G)
    return make_report("4.kfold-le", {}, (closed,), (direct,), eps, {"k": k})


# ---------------------------------------------------------------------------
# equienergetic join families
# ---------------------------------------------------------------------------

def _check_family_args(graphs: tuple[Graph, ...], p: int, partner: str = "join partner") -> None:
    if any(G.n == 0 for G in graphs):
        raise ParameterError("family needs a nonempty base graph" if len(graphs) == 1
                             else "family needs nonempty base graphs")
    if p < 1:
        raise ParameterError(f"{partner} size must be positive, got {p}")


def _edc_join_le(n: int, m: int, p: int, t: int) -> tuple[float, float]:
    """Average degree and closed-form Laplacian energy of the t-th iterated
    cover of an (n, m) graph joined with an empty graph on p vertices
    (4.3/4.4)."""
    scale = 1 << t
    N = scale * n
    avg = (2.0 * scale * m + scale * t * n + 2.0 * p * N) / (p + N)
    return avg, (N * (t + 2) + 2.0 * scale * m) + (p - N) * avg


def _kfold_join_le(n: int, m: int, p: int, k: int) -> tuple[float, float]:
    """Average degree and closed-form Laplacian energy of the k-fold graph
    of an (n, m) graph joined with an empty graph on p vertices (4.6/4.7)."""
    N = k * n
    avg = (2.0 * k * k * m + 2.0 * p * N) / (p + N)
    return avg, (2.0 * N + 2.0 * k * k * m) + (p - N) * avg


def _edc_join_edges_fit(n: int, m: int, k: int, t: int) -> bool:
    """The edge bound of 4.3/4.4, m <= (k - t) n / 2 + k^2 / 2^(t+1), in integers."""
    return (2 << t) * m <= (1 << t) * (k - t) * n + k * k


def _kfold_join_edges_fit(n: int, m: int, k: int, t: int) -> bool:
    """The edge bound of 4.6/4.7, m <= t (k n + t) / (2 k^2), in integers."""
    return 2 * k * k * m <= t * (k * n + t)


def family_join_edc(G: Graph, p: int, t: int = 1, k: int | None = None,
                    eps: float = EPS_FAMILY,
                    theorem_id: str | None = None) -> tuple[FamilySpec, TheoremReport]:
    """Join of the t-th iterated cover with an empty graph on p vertices.

    Under the slack hypotheses the Laplacian energy depends on (n, m, p, t)
    only, so all same-parameter instances are mutually equienergetic; the
    closed form is checked against direct eigencomputation.
    """
    _check_family_args((G,), p)
    composite = join(iterated_edc(G, t), empty(p))
    if k is None:
        k = smallest_feasible_edc_join_slack(G, t)
    n, m = G.n, G.m
    hyp = {
        "iterations_at_least_1": t >= 1,
        "slack_at_least_t_plus_2": k >= t + 2,
        "p_large_enough": p >= (1 << t) * n + k,
        "edges_small_enough": _edc_join_edges_fit(n, m, k, t),
    }
    tid = theorem_id or ("4.3" if t == 1 else "4.4")
    avg, closed = _edc_join_le(n, m, p, t)
    direct = laplacian_energy(composite).value
    spec = FamilySpec(tid, n, m, p, k, t, composite.n, composite.m, avg, closed)
    report = make_report(tid, hyp, (closed,), (direct,), eps,
                         {"p": p, "k": k, "t": t})
    return spec, report


def family_join_kfold(G: Graph, p: int, k: int = 2, t: int | None = None,
                      eps: float = EPS_FAMILY,
                      theorem_id: str | None = None) -> tuple[FamilySpec, TheoremReport]:
    """Join of the k-fold graph with an empty graph on p vertices; t is the
    slack in the hypotheses.  Same closed-form-vs-direct contract as the
    cover family."""
    _check_family_args((G,), p)
    composite = join(k_fold(G, k), empty(p))
    if t is None:
        t = smallest_feasible_kfold_join_slack(G, k)
    n, m = G.n, G.m
    hyp = {
        "fold_at_least_2": k >= 2,
        "slack_at_least_2k": t >= 2 * k,
        "p_large_enough": p >= k * n + t,
        "edges_small_enough": _kfold_join_edges_fit(n, m, k, t),
    }
    tid = theorem_id or ("4.6" if k == 2 else "4.7")
    avg, closed = _kfold_join_le(n, m, p, k)
    direct = laplacian_energy(composite).value
    spec = FamilySpec(tid, n, m, p, k, t, composite.n, composite.m, avg, closed)
    report = make_report(tid, hyp, (closed,), (direct,), eps,
                         {"p": p, "k": k, "t": t})
    return spec, report


def _smallest_slack(fits: Callable[[int], bool], start: int) -> int:
    """The first slack from start up that satisfies an edge bound; every
    bound holds once the slack is large enough."""
    return next(s for s in itertools.count(start) if fits(s))


def smallest_feasible_edc_join_slack(G: Graph, t: int = 1) -> int:
    """Smallest slack satisfying the edge bound for the cover join family."""
    if t < 0:
        raise ParameterError(f"iteration count must be nonnegative, got {t}")
    return _smallest_slack(lambda k: _edc_join_edges_fit(G.n, G.m, k, t), t + 2)


def smallest_feasible_kfold_join_slack(G: Graph, k: int = 2) -> int:
    """Smallest slack satisfying the edge bound for the k-fold join family."""
    if k < 1:
        raise ParameterError(f"fold count must be positive, got {k}")
    return _smallest_slack(lambda t: _kfold_join_edges_fit(G.n, G.m, k, t), 2 * k)


MIXED_FAMILY_IDS = ("thm48", "thm49", "eq41_42")


def family_mixed(mixed_id: str, G1: Graph, G2: Graph, p: int, k: int = 4,
                 eps: float = EPS_FAMILY) -> TheoremReport:
    """Cross-construction equienergetic pairs with different edge counts.

    thm48:   double of cover(G1) vs cover of double(G2), needs m2 = m1 + n/4;
    thm49:   double of cover(G1) vs twice-iterated cover(G2), needs m2 = 2*m1;
    eq41_42: double(G1) vs cover(G2), needs 4*m1 = 2*m2 + n.
    Both composites are joined with an empty graph on p vertices and their
    direct Laplacian energies are compared with each closed form.  Each
    side is a double (the 2-fold graph) or an iterated cover of a smaller
    base, so its closed form is 4.6 or 4.3/4.4 on that base: 4.6 on cover(G1)
    and 4.3 on double(G2) for thm48, 4.6 on cover(G1) and 4.4 on G2 for
    thm49, 4.6 on G1 and 4.3 on G2 for eq41_42.  All use n = |V(G1)|.
    """
    if mixed_id not in MIXED_FAMILY_IDS:
        raise ParameterError(f"unknown mixed family {mixed_id!r}; choose from {MIXED_FAMILY_IDS}")
    _check_family_args((G1, G2), p)
    n, m1, m2 = G1.n, G1.m, G2.m
    same_order = G1.n == G2.n

    if mixed_id == "thm48":
        hyp = {
            "same_order": same_order,
            "order_divisible_by_4": n % 4 == 0,
            "edge_relation": same_order and 4 * m2 == 4 * m1 + n,
            "slack_at_least_4": k >= 4,
            "p_large_enough": p >= 4 * n + k,
            "edges_small_enough": 16 * m2 <= 4 * n * (k - 2) + k * k,
        }
        H1, H2 = double_graph(extended_double_cover(G1)), extended_double_cover(double_graph(G2))
        avg1, closed1 = _kfold_join_le(2 * n, 2 * m1 + n, p, 2)
        avg2, closed2 = _edc_join_le(2 * n, 4 * m2, p, 1)
    elif mixed_id == "thm49":
        hyp = {
            "same_order": same_order,
            "edge_relation": same_order and m2 == 2 * m1,
            "slack_at_least_4": k >= 4,
            "p_large_enough": p >= 4 * n + k,
            "edges_small_enough": 8 * m2 <= k * (4 * n + k) - 8 * n,
        }
        H1, H2 = double_graph(extended_double_cover(G1)), iterated_edc(G2, 2)
        avg1, closed1 = _kfold_join_le(2 * n, 2 * m1 + n, p, 2)
        avg2, closed2 = _edc_join_le(n, m2, p, 2)
    else:
        hyp = {
            "same_order": same_order,
            "edge_relation": same_order and 4 * m1 == 2 * m2 + n,
            "slack_at_least_4": k >= 4,
            "p_large_enough": p >= 2 * n + k,
            "edges_small_enough_double": _kfold_join_edges_fit(n, m1, 2, k),
            "edges_small_enough_cover": _edc_join_edges_fit(n, m2, k, 1),
        }
        H1, H2 = double_graph(G1), extended_double_cover(G2)
        avg1, closed1 = _kfold_join_le(n, m1, p, 2)
        avg2, closed2 = _edc_join_le(n, m2, p, 1)

    le1 = laplacian_energy(join(H1, empty(p))).value
    le2 = laplacian_energy(join(H2, empty(p))).value
    return make_report(mixed_id, hyp, (closed1, closed2, 0.0), (le1, le2, le1 - le2), eps,
                       {"p": p, "k": k, "m1": m1, "m2": m2,
                        "avg_degree_prime_1": avg1, "avg_degree_prime_2": avg2})


def family_cartesian(G1: Graph, G2: Graph, p: int, eps: float = EPS_FAMILY) -> TheoremReport:
    """Covers crossed with a complete graph: the composites are equienergetic
    exactly when the base graphs are, each matching the closed form
    (p-1)*LE(G) + 4pn - 4n under the stated Q-spectrum floor."""
    _check_family_args((G1, G2), p, "complete factor")
    kp = complete(p)
    n, m = G1.n, G1.m
    q1 = spectrum_of(G1, "signless_laplacian").values
    q2 = spectrum_of(G2, "signless_laplacian").values
    avg = 2.0 * m / n
    hyp = {
        "same_order": G1.n == G2.n,
        "same_size": G1.m == G2.m,
        "connected": is_connected(G1) and is_connected(G2),
        "non_bipartite": not is_bipartite(G1) and not is_bipartite(G2),
        "p_large_enough": p >= n + 2,
        "q_spectrum_floor": min(min(q1), min(q2)) >= avg - 2.0 - eps,
    }
    le_base1 = laplacian_energy(G1).value
    le_base2 = laplacian_energy(G2).value
    closed1 = (p - 1) * le_base1 + 4.0 * p * n - 4.0 * n
    closed2 = (p - 1) * le_base2 + 4.0 * p * n - 4.0 * n
    le1 = laplacian_energy(cartesian_product(extended_double_cover(G1), kp)).value
    le2 = laplacian_energy(cartesian_product(extended_double_cover(G2), kp)).value
    iff_match = (abs(le1 - le2) <= eps) == (abs(le_base1 - le_base2) <= eps)
    return make_report("4.10", hyp, (closed1, closed2), (le1, le2), eps,
                       {"p": p, "le_base_1": le_base1, "le_base_2": le_base2,
                        "equienergetic_iff_base": iff_match})


# ---------------------------------------------------------------------------
# claim table: the `verify` and `family` vocabulary
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Claim:
    """How one claim runs: the CLI command that owns it ("verify" or
    "family"), its checker (whose eps default is the claim's), whether the
    checker takes a second graph after the first, and which checker
    parameter each given CLI option (k, t or p) sets."""

    command: str
    check: Callable
    needs_second: bool = False
    options: dict = field(default_factory=dict)


_K = {"k": "k"}
_PK = {"p": "p", "k": "k"}
_PKT = {"p": "p", "k": "k", "t": "t"}

CLAIMS: dict[str, Claim] = {
    "2.4": Claim("verify", _spectrum_check("2.4", "adjacency", extended_double_cover, predict_edc_a_spectrum)),
    "2.5": Claim("verify", _spectrum_check("2.5", "adjacency", k_fold, predict_kfold_a_spectrum, 2), options=_K),
    "2.6": Claim("verify", check_tensor_k2_vs_double_energy),
    "2.7": Claim("verify", check_tensor_power_vs_kfold_energy, options=_K),
    "2.8": Claim("verify", check_edc_tensor_vs_iterated_energy),
    "2.9": Claim("verify", check_edc_vs_double_energy_bipartite),
    "2.edc-energy": Claim("verify", check_edc_energy_formula),
    "2.kron-cart": Claim("verify", check_tensor_cartesian_energy),
    "3.2": Claim("verify", _spectrum_check("3.2", "laplacian", extended_double_cover, predict_edc_l_spectrum)),
    "3.3": Claim("verify", check_iterated_edc_laplacian_spectrum, options=_K),
    "3.5": Claim("verify", check_edc_spanning_trees),
    "3.6": Claim("verify", check_edc_cartesian_cospectral),
    "3.7": Claim("verify", check_laplacian_integrality_iteration, options=_K),
    "3.8": Claim("verify", check_iterated_cospectral_pair, True, _K),
    "3.chain": Claim("verify", check_bipartite_cospectral_chain, options=_K),
    "4.1": Claim("verify", _spectrum_check("4.1", "laplacian", k_fold, predict_kfold_l_spectrum, 2), options=_K),
    "4.2": Claim("verify", check_le_doubling),
    "4.kfold-le": Claim("verify", kfold_le_formula, options=_K),
    # --k is the slack of 4.3, 4.4 and 4.6; 4.7 takes the fold from --k and the slack from --t
    "4.3": Claim("family", partial(family_join_edc, t=1, theorem_id="4.3"), options=_PK),
    "4.4": Claim("family", partial(family_join_edc, t=2, theorem_id="4.4"), options=_PKT),
    "4.6": Claim("family", partial(family_join_kfold, k=2, theorem_id="4.6"),
                 options={"p": "p", "t": "k"}),
    "4.7": Claim("family", partial(family_join_kfold, k=3, theorem_id="4.7"), options=_PKT),
    "4.8": Claim("family", partial(family_mixed, "thm48"), True, _PK),
    "4.9": Claim("family", partial(family_mixed, "thm49"), True, _PK),
    "4.10": Claim("family", family_cartesian, True, {"p": "p"}),
    "eq41": Claim("family", partial(family_mixed, "eq41_42"), True, _PK),
}


def run_claim(command: str, theorem_id: str, G: Graph, second: Graph | None = None,
              eps: float | None = None, **options: int | None
              ) -> tuple[FamilySpec | None, TheoremReport]:
    """Run one claim of `command` by ID; options are the CLI's k, t and p,
    None when not given.  An eps, when given, must be finite and
    nonnegative: inf would confirm anything, and nan or a negative eps
    nothing.  Returns the join-family parameters (else None) and the
    report."""
    claim = CLAIMS.get(theorem_id)
    if claim is None or claim.command != command:
        ids = " ".join(tid for tid, c in CLAIMS.items() if c.command == command)
        raise ParameterError(f"unknown {command} claim {theorem_id!r}; choose from {ids}")
    if claim.needs_second and second is None:
        raise ParameterError(f"{command} {theorem_id} needs a second graph (--in2)")
    kwargs = {param: options[opt] for param, opt in claim.options.items()
              if options.get(opt) is not None}
    if eps is not None:
        if not 0 <= eps < math.inf:  # also refuses nan
            raise ParameterError(f"eps must be finite and nonnegative, got {eps!r}")
        kwargs["eps"] = eps
    graphs = (G, second) if claim.needs_second else (G,)
    out = claim.check(*graphs, **kwargs)
    return out if isinstance(out, tuple) else (None, out)


def run_check(theorem_id: str, G: Graph, k: int | None = None,
              second: Graph | None = None, eps: float | None = None) -> TheoremReport:
    """Run one `verify` claim by ID."""
    return run_claim("verify", theorem_id, G, second, eps, k=k)[1]

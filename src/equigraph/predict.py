"""Closed-form spectral predictors for covers, folds, joins, and products.

Each function returns the spectrum a construction should have, computed
from the spectra of the inputs alone.  The checkers in `theorems` compare
these predictions against direct eigencomputation on the built graphs.
"""

from __future__ import annotations

import math

from .errors import ParameterError
from .graphs import Graph, is_bipartite
from .limits import check_cap
from .spectra import Spectrum, spectrum_of


def predict_edc_a_spectrum(G: Graph) -> Spectrum:
    """Adjacency spectrum of the extended double cover: +-(lambda_i + 1)."""
    lam = spectrum_of(G, "adjacency").values
    out = [v + 1.0 for v in lam] + [-(v + 1.0) for v in lam]
    return Spectrum(tuple(sorted(out)))


def predict_kfold_a_spectrum(G: Graph, k: int) -> Spectrum:
    """Adjacency spectrum of the k-fold graph: k*lambda_i plus (k-1)n zeros."""
    if k < 1:
        raise ParameterError(f"fold count must be positive, got {k}")
    check_cap(G.n * k, "k-fold graph")
    lam = spectrum_of(G, "adjacency").values
    out = [k * v for v in lam] + [0.0] * ((k - 1) * G.n)
    return Spectrum(tuple(sorted(out)))


def predict_edc_l_spectrum(G: Graph) -> Spectrum:
    """Laplacian spectrum of the extended double cover: {mu_i} u {q_i + 2}."""
    mu = spectrum_of(G, "laplacian").values
    q = spectrum_of(G, "signless_laplacian").values
    return Spectrum(tuple(sorted(list(mu) + [v + 2.0 for v in q])))


def predict_iterated_edc_l_spectrum(G: Graph, k: int) -> Spectrum:
    """Laplacian spectrum of the k-th iterated extended double cover.

    For every base index i the value mu_i + 2r enters with multiplicity
    C(k-1, r) for r = 0..k-1, and q_i + 2r with multiplicity C(k-1, r-1)
    for r = 1..k; the 2**k multiplicities per index sum as two halves of
    Pascal's row.
    """
    if k < 1:
        raise ParameterError(f"iteration count must be positive, got {k}")
    check_cap(G.n, "iterated double cover spectrum", doublings=k)
    if G.n == 0:  # the iterated cover of the empty graph is itself
        return Spectrum(())
    mu = spectrum_of(G, "laplacian").values
    q = spectrum_of(G, "signless_laplacian").values
    out: list[float] = []
    for r in range(k):
        c = math.comb(k - 1, r)
        for v in mu:
            out.extend([v + 2.0 * r] * c)
    for r in range(1, k + 1):
        c = math.comb(k - 1, r - 1)
        for v in q:
            out.extend([v + 2.0 * r] * c)
    return Spectrum(tuple(sorted(out)))


def predict_iterated_edc_l_spectrum_bipartite(G: Graph, k: int) -> Spectrum:
    """Bipartite shortcut: mu_i + 2r with multiplicity C(k, r), r = 0..k."""
    if k < 1:
        raise ParameterError(f"iteration count must be positive, got {k}")
    if not is_bipartite(G):
        raise ParameterError("bipartite shortcut requires a bipartite graph")
    check_cap(G.n, "iterated double cover spectrum", doublings=k)
    if G.n == 0:
        return Spectrum(())
    mu = spectrum_of(G, "laplacian").values
    out: list[float] = []
    for r in range(k + 1):
        c = math.comb(k, r)
        for v in mu:
            out.extend([v + 2.0 * r] * c)
    return Spectrum(tuple(sorted(out)))


def predict_kfold_l_spectrum(G: Graph, k: int) -> Spectrum:
    """Laplacian spectrum of the k-fold graph: {k*mu_i} u {k*d_i, k-1 times each}."""
    if k < 1:
        raise ParameterError(f"fold count must be positive, got {k}")
    check_cap(G.n * k, "k-fold graph")
    mu = spectrum_of(G, "laplacian").values
    out = [k * v for v in mu]
    for d in G.degrees():
        out.extend([float(k * d)] * (k - 1))
    return Spectrum(tuple(sorted(out)))


def predict_join_l_spectrum(G1: Graph, G2: Graph) -> Spectrum:
    """Laplacian spectrum of the join from the parts' spectra.

    {n1+n2} u {n1 + sigma_j : j < n2} u {n2 + mu_i : i < n1} u {0}, where
    each part contributes all but one zero eigenvalue.
    """
    if G1.n == 0 or G2.n == 0:
        raise ParameterError("join spectrum needs both parts nonempty")
    mu = spectrum_of(G1, "laplacian").values
    sigma = spectrum_of(G2, "laplacian").values
    out = [0.0, float(G1.n + G2.n)]
    out += [G1.n + v for v in sigma[1:]]
    out += [G2.n + v for v in mu[1:]]
    return Spectrum(tuple(sorted(out)))


def predict_product_spectrum(G1: Graph, G2: Graph, product: str, kind: str) -> Spectrum:
    """Pairwise sums (cartesian) or products (kronecker) of the parts' spectra.

    The sum rule is exact for the adjacency and Laplacian spectra, the
    product rule for the adjacency spectrum only.
    """
    kinds = {"cartesian": ("adjacency", "laplacian"), "kronecker": ("adjacency",)}
    if product not in kinds:
        raise ParameterError(f"unknown product {product!r}")
    if kind not in kinds[product]:
        raise ParameterError(f"unsupported matrix kind {kind!r} for {product} product spectra")
    s1 = spectrum_of(G1, kind).values
    s2 = spectrum_of(G2, kind).values
    if product == "cartesian":
        out = [a + b for a in s1 for b in s2]
    else:
        out = [a * b for a in s1 for b in s2]
    return Spectrum(tuple(sorted(out)))

"""Closed-form spectral predictors for extended double covers and k-fold graphs.

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

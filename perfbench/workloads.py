"""The four benchmark workloads: fixed request lists built from a seed.

A workload is a list of `Request`s.  Sizes, kinds and expected verdicts are
fixed by the workload; the seed only draws the random graphs, and every pass
relabels each input with fresh random permutations (complete graphs, which no
relabeling changes, instead step n around its nominal value), so no request in
a process reuses an input graph from an earlier one.  Expected answers come
from `oracle`.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracle as o

CONFIRMED = "confirmed"
NOT_MET = "hypothesis_not_met"

# Laplacian spectrum of the 4-regular 9-vertex graph the witness search looks for
FIG1_SPECTRUM_B = (0, 2, 3, 3, 5, 5, 6, 6, 6)


@dataclass
class Input:
    graph: o.BGraph
    fmt: str = "edgelist"


@dataclass
class Request:
    kind: str
    argv: list[str]
    inputs: dict[str, Input] = field(default_factory=dict)
    expect: str | None = None  # expected verdict, where the command reports one
    check: Callable | None = None  # (report or result, pass index) -> failure reason or None
    call: Callable | None = None  # library request: callable() -> result, in place of argv
    per_pass: Callable | None = None  # pass index -> the request to send on that pass

    def at(self, pass_no: int) -> "Request":
        return self.per_pass(pass_no) if self.per_pass else self

    def sizes(self) -> tuple:
        return tuple((role, i.graph.n, i.graph.m, i.fmt) for role, i in sorted(self.inputs.items()))


# ---------------------------------------------------------------------------
# checks: each returns None when the output agrees with the reference
# ---------------------------------------------------------------------------

def _close(a, b, rel=1e-7, abs_=1e-6) -> bool:
    return isinstance(a, (int, float)) and abs(a - b) <= abs_ + rel * abs(b)


def _verdict(report: dict, expect: str) -> str | None:
    got = report["results"]["report"]["verdict"]
    return None if got == expect else f"verdict {got}, expected {expect}"


def check_verify(expect: str, values: Callable | None = None) -> Callable:
    """Verdict must match; `values(report, pass)` optionally checks the numbers."""
    def check(report, pass_no):
        return _verdict(report, expect) or (values(report, pass_no) if values else None)
    return check


def check_computed(expected: list[float]) -> Callable:
    def values(report, _):
        got = report["results"]["report"]["computed"]
        bad = [i for i, x in enumerate(expected) if not _close(got[i], x)]
        return f"computed[{bad[0]}]={got[bad[0]]} vs reference {expected[bad[0]]}" if bad else None
    return values


def check_spectrum(expected: np.ndarray, field_path=("results", "report", "computed")) -> Callable:
    def values(report, _):
        got = report
        for key in field_path:
            got = got[key]
        got = np.asarray(got, dtype=float)
        if got.shape != expected.shape:
            return f"spectrum has {got.size} values, expected {expected.size}"
        err = float(np.abs(got - expected).max()) if got.size else 0.0
        return None if err <= 1e-6 * max(1.0, float(np.abs(expected).max())) else f"spectrum off by {err:.3g}"
    return values


def check_family(expect: str, les: list[float], composite: tuple[int, int] | None = None) -> Callable:
    def values(report, _):
        if composite is not None:
            fam = report["results"]["family"]
            if (fam["composite_n"], fam["composite_m"]) != composite:
                return f"composite {(fam['composite_n'], fam['composite_m'])}, expected {composite}"
        return check_computed(les)(report, _)
    return check_verify(expect, values)


def check_construct(n: int, m: int, fmt: str) -> Callable:
    def check(report, _):
        res = report["results"]
        if (res["n"], res["m"]) != (n, m):
            return f"reported (n, m) = {(res['n'], res['m'])}, expected {(n, m)}"
        if res["graph"]["format"] != fmt or o.payload_size(fmt, res["graph"]["payload"]) != (n, m):
            return "emitted document does not decode to the expected (n, m)"
        return None
    return check


def check_trees(fields: dict[str, tuple[str, o.TreeCount]]) -> Callable:
    """fields: report key -> ("int" | "float", reference count)."""
    def check(report, _):
        res = report["results"]
        for key, (how, ref) in fields.items():
            val = res.get(key)
            ok = ref.matches_int(val) if how == "int" else ref.matches_float(val)
            if not ok:
                return f"{key}={str(val)[:40]} disagrees with the reference count"
        return None
    return check


def check_trees_claim(base: o.TreeCount, cover: o.TreeCount) -> Callable:
    """verify 3.5: confirmed, and the exact counts it reports match the reference."""
    def values(report, _):
        rep = report["results"]["report"]
        if not base.matches_int(rep["details"]["base_exact"]):
            return "base tree count disagrees with the reference"
        if not cover.matches_float(rep["computed"][0]):
            return "cover tree count disagrees with the reference"
        return None
    return check_verify(CONFIRMED, values)


# ---------------------------------------------------------------------------
# reference values for claims, from the base graphs only
# ---------------------------------------------------------------------------

def ref_verify(tid: str, G: o.BGraph, k: int | None = None) -> Callable | None:
    """Numeric reference for the verify claims that print comparable values."""
    A = G.adjacency()
    if tid == "2.6":
        e = 2.0 * o.energy(A)
        return check_computed([e, e])
    if tid == "2.8":
        e = 4.0 * float(np.abs(o.eigs(A) + 1.0).sum())
        return check_computed([e, e])
    if tid == "3.2":
        mu, q = o.eigs(o.laplacian(A)), o.eigs(o.signless(A))
        return check_spectrum(np.sort(np.concatenate([mu, q + 2.0])))
    if tid == "4.kfold-le":
        k = k or 2
        spec = np.concatenate([k * o.eigs(o.laplacian(A)), np.repeat(k * G.degrees().astype(float), k - 1)])
        return check_computed([o.laplacian_energy_from(spec, k * G.n, k * k * G.m)])
    return None


def ref_family(tid: str, G1: o.BGraph, p: int, G2: o.BGraph | None = None, k: int | None = None,
               t: int | None = None) -> tuple[list[float], tuple[int, int] | None]:
    """Direct Laplacian energies of the family composites, and (n, m) of the first."""
    A1 = G1.adjacency()
    if tid in ("4.3", "4.4"):
        H = A1
        for _ in range(1 if tid == "4.3" else t):
            H = o.cover_adj(H)
        le, N, M = o.join_empty_le(H, p)
        return [le], (N, M)
    if tid in ("4.6", "4.7"):
        le, N, M = o.join_empty_le(o.kfold_adj(A1, 2 if tid == "4.6" else k), p)
        return [le], (N, M)
    A2 = G2.adjacency()
    if tid == "4.10":
        return [o.cart_complete_le(o.cover_adj(A1), p), o.cart_complete_le(o.cover_adj(A2), p)], None
    if tid == "4.8":
        H1, H2 = o.kfold_adj(o.cover_adj(A1), 2), o.cover_adj(o.kfold_adj(A2, 2))
    elif tid == "4.9":
        H1, H2 = o.kfold_adj(o.cover_adj(A1), 2), o.cover_adj(o.cover_adj(A2))
    else:
        H1, H2 = o.kfold_adj(A1, 2), o.cover_adj(A2)
    return [o.join_empty_le(H1, p)[0], o.join_empty_le(H2, p)[0]], None


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------

def verify(G: o.BGraph, tid: str, expect: str = CONFIRMED, k: int | None = None,
           second: o.BGraph | None = None, fmt: str = "edgelist") -> Request:
    argv = ["verify", "--in", "{in}", "--theorem", tid]
    inputs = {"in": Input(G, fmt)}
    if k is not None:
        argv += ["--k", str(k)]
    if second is not None:
        argv += ["--in2", "{in2}"]
        inputs["in2"] = Input(second, fmt)
    values = ref_verify(tid, G, k) if expect == CONFIRMED else None
    return Request(f"verify {tid}", argv, inputs, expect, check_verify(expect, values))


def family(tid: str, G1: o.BGraph, p: int, G2: o.BGraph | None = None, k: int | None = None,
           t: int | None = None, expect: str = CONFIRMED, fmt: str = "edgelist") -> Request:
    argv = ["family", "--theorem", tid, "--in", "{in}", "--p", str(p)]
    inputs = {"in": Input(G1, fmt)}
    if G2 is not None:
        argv += ["--in2", "{in2}"]
        inputs["in2"] = Input(G2, fmt)
    if k is not None:
        argv += ["--k", str(k)]
    if t is not None:
        argv += ["--t", str(t)]
    # the CLI's defaults, which the reference has to mirror: 4.4 iterates twice, 4.7 folds 3 times
    kk = k if k is not None else 3
    tt = t if t is not None else 2
    les, composite = ref_family(tid, G1, p, G2, kk, tt)
    return Request(f"family {tid}", argv, inputs, expect, check_family(expect, les, composite))


def construct(G: o.BGraph, op: str, out: str, n: int, m: int, k: int | None = None,
              fmt: str = "edgelist", with_graph: o.BGraph | None = None, op2: str | None = None,
              with_fmt: str = "edgelist") -> Request:
    argv = ["construct", "--in", "{in}", "--op", op, "--out", out]
    inputs = {"in": Input(G, fmt)}
    if k is not None:
        argv += ["--k", str(k)]
    if with_graph is not None:
        argv += ["--with", "{with}", "--op2", op2]
        inputs["with"] = Input(with_graph, with_fmt)
    kind = f"construct {op}" + (f"+{op2}" if op2 else "")
    return Request(kind, argv, inputs, None, check_construct(n, m, out))


def zigzag(pass_no: int) -> int:
    """0, 1, -1, 2, -2, ...: steps that never repeat and stay centred on 0."""
    return (pass_no + 1) // 2 * (1 if pass_no % 2 else -1)


def complete_series(build: Callable[[int], Request], n: int) -> Request:
    """Relabeling cannot change a complete graph, so pass p sends
    build(n + zigzag(p)): no input repeats, and the cost stays centred on n's."""
    req = build(n)
    req.per_pass = lambda pass_no: build(n + zigzag(pass_no))
    return req


def _tree_fields(method, ref, cover_ref):
    if method is None:
        return {"eigen": ("float", ref), "exact": ("int", ref)}
    if method in ("exact", "eigen"):
        return {method: ("int" if method == "exact" else "float", ref)}
    return {"edc_exact": ("int", cover_ref), "edc_formula": ("float", cover_ref)}


def trees(G: o.BGraph, method: str | None, ref: o.TreeCount | None = None,
          cover_ref: o.TreeCount | None = None, fmt: str = "edgelist") -> Request:
    argv = ["trees", "--in", "{in}"] + (["--method", method] if method else [])
    return Request(f"trees {method or 'both'}", argv, {"in": Input(G, fmt)}, None,
                   check_trees(_tree_fields(method, ref, cover_ref)))


def trees_claim(G: o.BGraph, base: o.TreeCount, cover: o.TreeCount, fmt: str = "edgelist") -> Request:
    """verify 3.5, whose exact counts are also checked."""
    return Request("verify 3.5", ["verify", "--in", "{in}", "--theorem", "3.5"], {"in": Input(G, fmt)},
                   CONFIRMED, check_trees_claim(base, cover))


def spectra_req(G: o.BGraph, flag: str, fmt: str = "edgelist") -> Request:
    A = G.adjacency()
    M = {"a": A, "l": o.laplacian(A), "q": o.signless(A)}[flag]
    return Request(f"spectra {flag}", ["spectra", "--in", "{in}", "--matrix", flag], {"in": Input(G, fmt)},
                   None, check_spectrum(o.eigs(M), ("results", "spectrum")))


def energy_req(G: o.BGraph, flag: str, fmt: str = "edgelist") -> Request:
    A = G.adjacency()
    value = o.energy(A) if flag == "e" else o.laplacian_energy_from(
        o.eigs(o.laplacian(A) if flag == "le" else o.signless(A)), G.n, G.m)

    def check(report, _):
        got = report["results"]["value"]
        return None if _close(got, value, 1e-9) else f"energy {got} vs reference {value}"
    return Request(f"energy {flag}", ["energy", "--in", "{in}", "--kind", flag], {"in": Input(G, fmt)},
                   None, check)


def search_req(target=FIG1_SPECTRUM_B) -> Request:
    """Full 9-vertex 4-regular witness search.  The search has no CLI command,
    so this request calls the library; its input is a spectrum, not a file."""
    def call():
        from equigraph.search import find_regular_graph_with_l_spectrum
        from equigraph.spectra import Spectrum
        return find_regular_graph_with_l_spectrum(9, 4, Spectrum(tuple(target)), eps=1e-6,
                                                  stop_at_first=False)

    def check(result, _):
        if result.witness is None or result.matched < 1:
            return "no witness found"
        W = o.from_pairs(9, sorted(result.witness.edges))
        err = float(np.abs(o.eigs(o.laplacian(W.adjacency())) - np.asarray(target, float)).max())
        return None if err <= 1e-6 else f"witness spectrum off by {err:.3g}"
    return Request("search", [], {}, None, check, call)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _edc_slack(G: o.BGraph, t: int) -> int:
    """A slack satisfying both hypotheses of the cover-join family (k >= t + 2, edge bound)."""
    return t + max(2, math.ceil(2 * G.m / G.n))


def _kfold_slack(G: o.BGraph, k: int) -> int:
    """A slack satisfying both hypotheses of the k-fold-join family (t >= 2k, edge bound)."""
    return max(2 * k, math.ceil(2 * k * G.m / G.n))


def certify_large(rng: np.random.Generator) -> list[Request]:
    """Large family and claim checks: composites of 1024-2048 vertices."""
    G43 = o.connected_gnm(rng, 64, 128)
    k43 = _edc_slack(G43, 1)
    G46 = o.connected_gnm(rng, 64, 128)
    t46 = _kfold_slack(G46, 2)
    C1, C2 = o.cycle(21), o.odd_unicyclic(rng, 21, 5)
    E1, E2 = o.gnm(rng, 64, 60), o.gnm(rng, 64, 88)  # 4*m1 = 2*m2 + n
    # 2.8's hypothesis (nonzero |eigenvalues| >= 2) holds for K_{a,b} with ab >= 4
    blocks = ([o.complete_bipartite(8, 8)] * 8 + [o.complete_bipartite(4, 12)] * 4
              + [o.complete_bipartite(2, 6)] * 8)
    return [
        family("4.3", G43, 2048 - 2 * 64, k=k43),
        family("4.6", G46, 1024 - 2 * 64, k=t46, fmt="graph6"),
        family("4.10", C1, 25, C2),
        family("eq41", E1, 1024 - 2 * 64, E2, fmt="graph6"),
        verify(o.gnm(rng, 512, 1024), "2.6"),
        verify(o.union(*blocks), "2.8", fmt="graph6"),
        verify(o.gnm(rng, 512, 1024), "3.2"),
        verify(o.bipartite_gnm(rng, 128, 128, 512), "3.chain", k=2, fmt="graph6"),
        verify(o.gnm(rng, 512, 1024), "4.kfold-le", k=2),
    ]


def construct_io(rng: np.random.Generator) -> list[Request]:
    """Every unary op and every --op2 op on 512-2048-vertex inputs, both formats in and out.

    Expected (n, m): cover (2n, 2m + n); k-fold (kn, k^2 m); line graph
    (m, sum C(d, 2)); complement (n, C(n, 2) - m); join (n1 + n2, m1 + m2 + n1 n2);
    cartesian (n1 n2, n1 m2 + n2 m1); kronecker (n1 n2, 2 m1 m2); union (n1 + n2, m1 + m2).
    """
    def g(n, m):
        return o.gnm(rng, n, m)

    G1, G2, G3, G4, G5, G6 = g(1024, 2048), g(512, 1024), g(1024, 2048), g(512, 1024), g(512, 1200), g(512, 2048)
    J1, J2 = g(256, 512), g(512, 1024)
    D1, C4 = g(256, 512), o.cycle(4)
    K1, K2 = g(512, 1024), o.complete(2)
    U1, U2 = g(512, 1024), g(512, 1024)
    return [
        construct(G1, "edc", "edgelist", 2048, 2 * 2048 + 1024, fmt="graph6"),
        construct(G2, "edc^k", "graph6", 2048, 2 * (2 * 1024 + 512) + 1024, k=2),
        construct(G3, "double", "edgelist", 2048, 4 * 2048),
        construct(G4, "kfold", "edgelist", 1536, 9 * 1024, k=3, fmt="graph6"),
        construct(G5, "line", "graph6", 1200, o.line_edges(G5)),
        construct(G6, "complement", "edgelist", 512, 512 * 511 // 2 - 2048, fmt="graph6"),
        construct(J1, "edc", "graph6", 1024, (2 * 512 + 256) + 1024 + 512 * 512,
                  with_graph=J2, op2="join", with_fmt="graph6"),
        construct(D1, "double", "edgelist", 2048, 512 * 4 + 4 * 4 * 512, fmt="graph6",
                  with_graph=C4, op2="cartesian"),
        construct(K1, "edc", "graph6", 2048, 2 * (2 * 1024 + 512), with_graph=K2, op2="kronecker"),
        construct(U1, "kfold", "edgelist", 1536, 4 * 1024 + 1024, k=2, with_graph=U2, op2="union",
                  with_fmt="graph6"),
    ]


def small_claims(rng: np.random.Generator) -> list[Request]:
    """Hundreds of small requests (n <= 48): every verify ID, small families,
    spectra / energy / trees / construct, and the full witness search."""
    reqs: list[Request] = []
    fmts = ("edgelist", "graph6")

    def rg(n, m):
        return o.connected_gnm(rng, n, m)

    def bip(a, b, m):
        return o.bipartite_gnm(rng, a, b, m)

    for i in range(3):
        f = fmts[i % 2]
        reqs += [
            verify(rg(16, 32), "2.4", fmt=f),
            verify(rg(12, 24), "2.5", k=2 + i % 2, fmt=f),
            verify(rg(16, 32), "2.6", fmt=f),
            verify(rg(10, 20), "2.7", k=(2, 4, 2)[i], fmt=f),
            verify(o.union(o.complete_bipartite(2, 3), o.complete_bipartite(4, 4)), "2.8", fmt=f),
            verify(o.path(6 + i), "2.8", expect=NOT_MET, fmt=f),
            verify(o.union(o.cycle(6), o.complete(2), o.complete(2)), "2.9", fmt=f),
            verify(o.path(5), "2.9", expect=NOT_MET, fmt=f),
            verify(rg(16, 30), "2.edc-energy", fmt=f),
            verify(rg(12, 20), "2.kron-cart", fmt=f),
            verify(rg(16, 32), "3.2", fmt=f),
            verify(rg(8, 12), "3.3", k=2, fmt=f),
            verify(rg(6 + i, 9), "3.5", fmt=f),
            # The cover of a 12-vertex, 40-edge graph has ~2^64 spanning trees, so `verify 3.5`
            # on it deviates or not depending on the vertex labels; the exact-det and eigen
            # work runs here as a tree count, whose answer does not depend on them.
            trees(T4 := rg(12, 40), "edc-formula", None, o.TreeCount.of(o.cover_adj(T4.adjacency())), fmt=f),
            verify(rg(16, 24), "3.6", fmt=f),
            verify(bip(6, 6, 14), "3.7", fmt=f),
            verify(G := rg(12, 20), "3.8", second=o.relabel(G, rng), fmt=f),
            verify(rg(12, 20), "3.8", second=rg(12, 20), fmt=f),
            verify(bip(4, 6, 12), "3.chain", k=2, fmt=f),
            verify(o.cycle(7 + 2 * i), "3.chain", expect=NOT_MET, k=2, fmt=f),
            verify(rg(16, 32), "4.1", k=2 + i % 2, fmt=f),
            verify(o.hypercube(3), "4.2", fmt=f),
            verify(o.hypercube(4), "4.2", expect=NOT_MET, fmt=f),
            verify(rg(16, 24), "4.kfold-le", k=2 + i % 2, fmt=f),
        ]
        F = rg(8, 12)
        F4 = rg(6, 8)
        F6 = rg(8, 12)
        F7 = rg(6, 8)
        M1, M2 = o.gnm(rng, 8, 3), o.gnm(rng, 8, 5)  # 4.8: m2 = m1 + n/4
        N1, N2 = o.gnm(rng, 8, 4), o.gnm(rng, 8, 8)  # 4.9: m2 = 2*m1
        Q1, Q2 = o.gnm(rng, 8, 6), o.gnm(rng, 8, 8)  # eq41: 4*m1 = 2*m2 + n
        k43, k44 = _edc_slack(F, 1), _edc_slack(F4, 2)
        t46, t47 = _kfold_slack(F6, 2), _kfold_slack(F7, 3)
        reqs += [
            family("4.3", F, 2 * 8 + k43 + 4 * i, k=k43, fmt=f),
            family("4.3", F, 2 * 8 + k43 - 1, k=k43, expect=NOT_MET, fmt=f),
            family("4.4", F4, 4 * 6 + k44 + i, k=k44, t=2, fmt=f),
            family("4.6", F6, 2 * 8 + t46 + i, k=t46, fmt=f),
            family("4.7", F7, 3 * 6 + t47 + i, k=3, t=t47, fmt=f),
            family("4.8", M1, 4 * 8 + 4 + i, M2, k=4, fmt=f),
            family("4.9", N1, 4 * 8 + 4 + i, N2, k=4, fmt=f),
            family("eq41", Q1, 2 * 8 + 4 + i, Q2, fmt=f),
            family("4.10", o.cycle(7), 9 + i, o.odd_unicyclic(rng, 7, 3), fmt=f),
        ]
        for flag in ("a", "l", "q"):
            reqs += [spectra_req(rg(24 + 8 * i, 48), flag, fmt=f), spectra_req(rg(48, 96), flag, fmt=f)]
        for flag in ("e", "le", "le+"):
            reqs += [energy_req(rg(24 + 8 * i, 48), flag, fmt=f), energy_req(rg(48, 96), flag, fmt=f)]
        T1 = rg(20, 40)
        T2 = rg(40, 80)
        reqs += [
            trees(T1, None, o.TreeCount.of(T1.adjacency()), fmt=f),
            trees(T2, "exact", o.TreeCount.of(T2.adjacency()), fmt=f),
            trees(o.cycle(30), "eigen", o.TreeCount.closed(o.trees_cycle(30)), fmt=f),
            trees(o.complete_bipartite(5, 7), "exact", o.TreeCount.closed(o.trees_complete_bipartite(5, 7)), fmt=f),
            trees(T3 := rg(12, 24), "edc-formula", None, o.TreeCount.of(o.cover_adj(T3.adjacency())), fmt=f),
        ]
        S, W = rg(24, 48), rg(24, 60)
        P = o.path(3)
        reqs += [
            construct(S, "edc", fmts[1 - i % 2], 48, 2 * 48 + 24, fmt=f),
            construct(S, "edc^k", "graph6", 96, 2 * (2 * 48 + 24) + 48, k=2, fmt=f),
            construct(S, "double", "edgelist", 48, 4 * 48, fmt=f),
            construct(S, "kfold", "graph6", 72, 9 * 48, k=3, fmt=f),
            construct(W, "line", "edgelist", 60, o.line_edges(W), fmt=f),
            construct(S, "complement", "graph6", 24, 24 * 23 // 2 - 48, fmt=f),
            construct(S, "edc", "edgelist", 48 * 3, 3 * (2 * 48 + 24) + 48 * 2, with_graph=P, op2="cartesian", fmt=f),
            construct(S, "double", "graph6", 48 * 3, 2 * (4 * 48) * 2, with_graph=P, op2="kronecker", fmt=f),
            construct(S, "complement", "edgelist", 27, 24 * 23 // 2 - 48 + 2 + 24 * 3, with_graph=P, op2="join", fmt=f),
            construct(S, "line", "graph6", 48 + 3, o.line_edges(S) + 2,
                      with_graph=P, op2="union", fmt=f),
        ]
    reqs.append(search_req())
    return reqs


def exact_trees(rng: np.random.Generator) -> list[Request]:
    """Exact spanning-tree counts and the cover tree identity, n from 48 to 160."""
    R1, R2, R3 = o.connected_gnm(rng, 128, 512), o.connected_gnm(rng, 48, 150), o.connected_gnm(rng, 56, 200)
    tc = o.TreeCount.closed

    def kn(n):
        """(K_n, its tree count, its cover's tree count)."""
        return o.complete(n), tc(o.trees_complete(n)), tc(o.trees_cover_complete(n))

    reqs = [
        complete_series(lambda n: trees(kn(n)[0], "exact", kn(n)[1], fmt="graph6"), 96),
        trees(o.complete_bipartite(48, 48), "exact", tc(o.trees_complete_bipartite(48, 48))),
        trees(o.cycle(160), "exact", tc(o.trees_cycle(160))),
        trees(o.hypercube(7), "exact", tc(o.trees_hypercube(7)), fmt="graph6"),
        trees(R1, "exact", o.TreeCount.of(R1.adjacency())),
        complete_series(lambda n: trees(kn(n)[0], "edc-formula", *kn(n)[1:]), 48),
        trees(o.cycle(64), "edc-formula", None, o.TreeCount.of(o.cover_adj(o.cycle(64).adjacency())),
              fmt="graph6"),
        trees(R2, "edc-formula", None, o.TreeCount.of(o.cover_adj(R2.adjacency()))),
        # verify 3.5 fails on every K_n from K_17 up, and relabeling cannot change K_n,
        # so the failures are the same on every pass and seed.  On other graphs this
        # large its verdict depends on the vertex labels, so Q_6 and R3 send the
        # cover's tree count instead.
        complete_series(lambda n: trees_claim(*kn(n)), 48),
        trees(o.hypercube(6), "edc-formula", None, o.TreeCount.of(o.cover_adj(o.hypercube(6).adjacency())),
              fmt="graph6"),
        trees(R3, "edc-formula", None, o.TreeCount.of(o.cover_adj(R3.adjacency()))),
        # From K_82 up, the cover has more than 1.8e308 spanning trees, the float
        # range the 3.5 check converts its exact count into; 86 +- 4 stays above.
        complete_series(lambda n: trees_claim(*kn(n)), 86),
    ]
    return reqs


WORKLOADS: dict[str, Callable[[np.random.Generator], list[Request]]] = {
    "certify-large": certify_large,
    "construct-io": construct_io,
    "small-claims": small_claims,
    "exact-trees": exact_trees,
}


def build(workload: str, seed: int) -> list[Request]:
    rng = np.random.default_rng([seed, list(WORKLOADS).index(workload)])
    return WORKLOADS[workload](rng)


# ---------------------------------------------------------------------------
# per-pass input files
# ---------------------------------------------------------------------------

def materialise(reqs: list[Request], seed: int, pass_no: int, workdir: str) -> list[list[str]]:
    """Write this pass's relabeled inputs of `reqs` (already `Request.at(pass_no)`);
    return each request's argv."""
    rng = np.random.default_rng([seed, 1_000_003, pass_no])
    out = []
    for r_i, req in enumerate(reqs):
        paths = {}
        for role, inp in req.inputs.items():
            G = o.relabel(inp.graph, rng)
            text = o.encode_graph6(G) if inp.fmt == "graph6" else o.encode_edgelist(G)
            path = os.path.join(workdir, f"r{r_i}_{role}.{'g6' if inp.fmt == 'graph6' else 'el'}")
            with open(path, "w", encoding="ascii") as fh:
                fh.write(text)
            paths[role] = path
        out.append([a.format(**paths) if a.startswith("{") else a for a in req.argv])
    return out

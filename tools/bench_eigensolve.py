"""Time `spectra.eigenvalues` against a dense `np.linalg.eigvalsh` solve.

Two series:

* the composites that the `certify-large` benchmark workload solves (family
  4.3, 4.6 and eq41 joins with an empty graph, the double and k-fold graphs
  of `verify 2.6` and `4.kfold-le`, the Kronecker product and cover that
  `2.6` and `3.2` solve, the tensored and iterated covers of `2.8`, the
  four `3.chain` members and family 4.10's cover(C_21) x K_25), each a
  seeded random instance of the same shape, plus an order-4096 `3.chain`
  member at the vertex cap;
* random graphs with m = 2n and few twins at orders 256-2048, which split
  into no blocks and show the two crossovers of the twin deflation: the
  cost of detecting twins next to the dense solve (why nothing below order
  512 is reduced), and the cost of solving the quotient anyway when it
  keeps more than 3/4 of the order (why such a quotient is not built).

Each row gives the orders LAPACK solves inside one `eigenvalues` call
(`parts`) and their number (`lapack_solves`: a part that is +-Y + beta*I
of a part already solved costs none), and the times of `eigenvalues`, the
dense solve, the block probe and split (`split_ms`), twin detection on the
whole matrix (`detect_ms`) and the block probe of a random m = 2n
Laplacian of the same order (`probe_ms`), which splits into no blocks:
what every matrix of that order pays to be told so.  Each time is the
median of --repeat calls on one matrix (at most 3 from order 4096 up),
interleaved with the other calls timed on it.  The result goes to --out
as JSON (default BENCH_eigensolve.json), with the host's numpy and CPU
count.  Needs numpy and equigraph only:

    PYTHONPATH=src python tools/bench_eigensolve.py
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import time

import numpy as np

from equigraph import spectra
from equigraph.graphs import (
    Graph,
    cartesian_product,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    double_graph,
    empty,
    extended_double_cover,
    hypercube,
    iterated_edc,
    join,
    k_fold,
    kronecker_product,
)
from equigraph.spectra import eigenvalues, matrix_of


def gnm(rng: np.random.Generator, n: int, m: int) -> Graph:
    pairs = np.column_stack(np.triu_indices(n, 1))
    return Graph(n, map(tuple, pairs[rng.choice(len(pairs), m, replace=False)].tolist()))


def bipartite_gnm(rng: np.random.Generator, a: int, b: int, m: int) -> Graph:
    """m random edges between the sides {0..a-1} and {a..a+b-1}."""
    cells = rng.choice(a * b, m, replace=False)
    return Graph(a + b, zip((cells // b).tolist(), (a + cells % b).tolist()))


def chain_members(G: Graph, k: int) -> list[Graph]:
    """The four mutually cospectral graphs of `verify 3.chain`."""
    k2 = complete(2)
    return [iterated_edc(G, k), cartesian_product(iterated_edc(G, k - 1), k2),
            iterated_edc(cartesian_product(G, k2), k - 1), cartesian_product(G, hypercube(k))]


def median_ms(fns: dict, repeat: int) -> dict:
    """Median wall time in ms of each callable, the calls interleaved so
    that drift in the host's speed falls on all of them alike."""
    times = {name: [] for name in fns}
    for _ in range(repeat):
        for name, fn in fns.items():
            t0 = time.perf_counter()
            fn()
            times[name].append(1000.0 * (time.perf_counter() - t0))
    return {name: statistics.median(ts) for name, ts in times.items()}


def forced_quotient(M: np.ndarray) -> None:
    """Build and solve the quotient even above the class-count gate."""
    gate = spectra._QUOTIENT_MAX_SHARE
    spectra._QUOTIENT_MAX_SHARE = 1.0
    try:
        spectra._deflated_eigenvalues(M)
    finally:
        spectra._QUOTIENT_MAX_SHARE = gate


def composites(rng: np.random.Generator) -> list[tuple[str, Graph, str]]:
    G43, G46, E1, E2 = gnm(rng, 64, 128), gnm(rng, 64, 128), gnm(rng, 64, 60), gnm(rng, 64, 88)
    G512 = gnm(rng, 512, 1024)
    return [
        ("4.3 cover join", join(extended_double_cover(G43), empty(1920)), "laplacian"),
        ("4.6 double join", join(double_graph(G46), empty(896)), "laplacian"),
        ("eq41 double join", join(double_graph(E1), empty(896)), "laplacian"),
        ("eq41 cover join", join(extended_double_cover(E2), empty(896)), "laplacian"),
        ("2.6 double graph", double_graph(G512), "adjacency"),
        ("2.6 kronecker with K_2", kronecker_product(G512, complete(2)), "adjacency"),
        ("4.kfold-le 2-fold", k_fold(G512, 2), "laplacian"),
        ("3.2 cover", extended_double_cover(G512), "laplacian"),
    ]


def split_composites(rng: np.random.Generator) -> list[tuple[str, Graph, str]]:
    blocks = [complete_bipartite(8, 8)] * 8 + [complete_bipartite(4, 12)] * 4 + [complete_bipartite(2, 6)] * 8
    G28 = blocks[0]
    for B in blocks[1:]:
        G28 = disjoint_union(G28, B)
    cover = extended_double_cover(G28)
    rows = [("2.8 cover kronecker K_2", kronecker_product(cover, complete(2)), "adjacency"),
            ("2.8 twice-iterated cover", extended_double_cover(cover), "adjacency")]
    rows += [(f"3.chain member {i + 1}", H, "laplacian")
             for i, H in enumerate(chain_members(bipartite_gnm(rng, 128, 128, 512), 2))]
    rows.append(("4.10 cover(C_21) x K_25", cartesian_product(extended_double_cover(cycle(21)), complete(25)),
                 "laplacian"))
    rows.append(("3.chain member 1, k=3", chain_members(bipartite_gnm(rng, 256, 256, 1024), 3)[0], "laplacian"))
    return rows


def solved_orders(M: np.ndarray) -> list[int]:
    """The orders LAPACK solves inside one `eigenvalues` call on M."""
    orders = []
    solve = np.linalg.eigvalsh

    def recorded(a, *args, **kwargs):
        orders.append(a.shape[0])
        return solve(a, *args, **kwargs)
    np.linalg.eigvalsh = recorded
    try:
        eigenvalues(M)
    finally:
        np.linalg.eigvalsh = solve
    return sorted(orders, reverse=True)


def unsplit(n: int) -> np.ndarray:
    """The Laplacian of 2n random vertex pairs (loops and repeats dropped)
    on n vertices: no block layout, so the probe rejects every candidate."""
    pairs = np.random.default_rng(n).integers(0, n, (2 * n, 2))
    return matrix_of(Graph(n, {(min(u, v), max(u, v)) for u, v in pairs.tolist() if u != v}), "laplacian")


def row(name: str, G: Graph, kind: str, repeat: int) -> dict:
    M = matrix_of(G, kind)
    U = unsplit(G.n)
    assert spectra._block_split(U) is None
    classes = spectra._twin_classes(M)[1].size
    fns = {
        "eigenvalues_ms": lambda: eigenvalues(M),
        "dense_ms": lambda: np.linalg.eigvalsh(M),
        "split_ms": lambda: spectra._block_split(M),
        "detect_ms": lambda: spectra._twin_classes(M),
        "probe_ms": lambda: spectra._block_split(U),
    }
    if classes > spectra._QUOTIENT_MAX_SHARE * G.n and spectra._block_split(M) is None:
        # what the class-count gate saves
        fns["forced_quotient_ms"] = lambda: forced_quotient(M)
    parts = solved_orders(M)
    return {"case": name, "kind": kind, "n": G.n, "classes": int(classes), "parts": parts,
            "lapack_solves": len(parts), **median_ms(fns, repeat if G.n < 4096 else min(repeat, 3))}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeat", type=int, default=9)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", default="BENCH_eigensolve.json")
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)
    np.linalg.eigvalsh(np.eye(256))  # the first solve of a process is slow
    rows = [row(name, G, kind, args.repeat) for name, G, kind in composites(rng)]
    rows += [row(f"random m=2n n={n}", gnm(rng, n, 2 * n), "laplacian", args.repeat)
             for n in (256, 512, 1024, 2048)]
    rows += [row(name, G, kind, args.repeat) for name, G, kind in split_composites(rng)]
    doc = {
        "deflate_min_order": spectra._DEFLATE_MIN_ORDER,
        "quotient_max_share": spectra._QUOTIENT_MAX_SHARE,
        "repeat": args.repeat, "seed": args.seed,
        "host": {"python": platform.python_version(), "numpy": np.__version__, "cpus": os.cpu_count()},
        "rows": rows,
    }
    with open(args.out, "w", encoding="ascii") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    for r in rows:
        extra = f"  forced quotient {r['forced_quotient_ms']:8.2f}" if "forced_quotient_ms" in r else ""
        parts = f"{len(r['parts'])} x <={r['parts'][0]}" if r["parts"] else "none"
        print(f"{r['case']:26s} n={r['n']:5d} c={r['classes']:5d}  eigenvalues {r['eigenvalues_ms']:8.2f}"
              f"  dense {r['dense_ms']:8.2f}  split {r['split_ms']:6.2f}  detect {r['detect_ms']:6.2f}"
              f"  probe {r['probe_ms']:5.2f} ms  parts {parts}{extra}")


if __name__ == "__main__":
    main()

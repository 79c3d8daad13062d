"""Command-line surface.

Commands: spectra, energy, construct, trees, verify, family.  Every run
prints one canonical JSON report to stdout.  Exit codes: 0 for success
(including hypothesis_not_met verdicts), 1 for parse/validation errors,
2 for usage errors, 3 when a claim check reports a deviation.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import theorems
from .errors import EquigraphError, ParseError
from .graphio import GraphDocument, detect_format, emit_graph, parse_graph
from .graphs import (
    Graph,
    cartesian_product,
    complement,
    disjoint_union,
    double_graph,
    extended_double_cover,
    iterated_edc,
    join,
    k_fold,
    kronecker_product,
    line_graph,
)
from .reports import make_report, payload_digest, render_report
from .spectra import (
    edc_spanning_trees_formula,
    spanning_trees_eigen,
    spanning_trees_exact,
    spectral_energy,
    spectrum_of,
)

EXIT_OK = 0
EXIT_DATA_ERROR = 1
EXIT_USAGE = 2
EXIT_DEVIATION = 3

MATRIX_FLAGS = {"a": "adjacency", "l": "laplacian", "q": "signless_laplacian"}
ENERGY_FLAGS = {"e": "adjacency", "le": "laplacian", "le+": "signless_laplacian"}


# --op -> builder(G, k), with k None when --k is not given; every builder
# refuses a result above the vertex cap before allocating it
UNARY_OPS = {
    "edc": lambda G, k: extended_double_cover(G),
    "edc^k": lambda G, k: iterated_edc(G, 1 if k is None else k),
    "double": lambda G, k: double_graph(G),
    "kfold": lambda G, k: k_fold(G, 2 if k is None else k),
    "line": lambda G, k: line_graph(G),
    "complement": lambda G, k: complement(G),
}

# --op2 -> builder(G1, G2)
BINARY_OPS = {
    "join": join,
    "cartesian": cartesian_product,
    "kronecker": kronecker_product,
    "union": disjoint_union,
}


def _claim_ids(command: str) -> list[str]:
    return [tid for tid, claim in theorems.CLAIMS.items() if claim.command == command]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equigraph",
        description="Graph spectra, energies, constructions, and numerical claim checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectra", help="print a sorted matrix spectrum")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--matrix", choices=sorted(MATRIX_FLAGS), required=True)

    en = sub.add_parser("energy", help="print a graph energy")
    en.add_argument("--in", dest="infile", required=True)
    en.add_argument("--kind", choices=sorted(ENERGY_FLAGS), required=True)

    co = sub.add_parser("construct", help="build a derived graph")
    co.add_argument("--in", dest="infile", required=True)
    co.add_argument("--op", choices=list(UNARY_OPS), required=True)
    co.add_argument("--k", type=int, default=None)
    co.add_argument("--with", dest="withfile", default=None)
    co.add_argument("--op2", choices=list(BINARY_OPS), default=None)
    co.add_argument("--out", choices=["graph6", "edgelist"], required=True)

    tr = sub.add_parser("trees", help="count spanning trees")
    tr.add_argument("--in", dest="infile", required=True)
    tr.add_argument("--method", choices=["eigen", "exact", "edc-formula"], default=None)

    ve = sub.add_parser("verify", help="check one spectral claim")
    ve.add_argument("--in", dest="infile", required=True)
    ve.add_argument("--theorem", required=True,
                    help="claim ID: " + " ".join(_claim_ids("verify")))
    ve.add_argument("--k", type=int, default=None)
    ve.add_argument("--in2", dest="infile2", default=None)
    ve.add_argument("--eps", type=float, default=None)

    fa = sub.add_parser("family", help="check one equienergetic family instance")
    fa.add_argument("--theorem", choices=_claim_ids("family"), required=True)
    fa.add_argument("--in", dest="infile", required=True)
    fa.add_argument("--in2", dest="infile2", default=None)
    fa.add_argument("--p", type=int, required=True)
    fa.add_argument("--k", type=int, default=None)
    fa.add_argument("--t", type=int, default=None)
    fa.add_argument("--eps", type=float, default=None)

    return parser


def _load_graph(path: str) -> tuple[Graph, dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = fh.read()
    except OSError as exc:
        raise EquigraphError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    fmt = detect_format(payload)
    G = parse_graph(GraphDocument(fmt, payload))
    meta = {"path": path, "format": fmt, "sha256": payload_digest(payload), "n": G.n, "m": G.m}
    return G, meta


def cmd_spectra(args) -> tuple[dict, int]:
    G, meta = _load_graph(args.infile)
    kind = MATRIX_FLAGS[args.matrix]
    spec = spectrum_of(G, kind)
    results = {"matrix": kind, "spectrum": list(spec.values)}
    report = make_report("spectra", {"matrix": args.matrix}, {"in": meta}, results, eps=spec.tol)
    return report, EXIT_OK


def cmd_energy(args) -> tuple[dict, int]:
    G, meta = _load_graph(args.infile)
    val, spec = spectral_energy(G, ENERGY_FLAGS[args.kind])
    results = {"kind": val.kind, "value": val.value}
    if val.avg_degree is not None:
        results["avg_degree"] = val.avg_degree
    report = make_report("energy", {"kind": args.kind}, {"in": meta}, results, eps=spec.tol)
    return report, EXIT_OK


def cmd_construct(args) -> tuple[dict, int]:
    if (args.withfile is None) != (args.op2 is None):
        raise EquigraphError("--with and --op2 must be given together")
    G, meta = _load_graph(args.infile)
    inputs = {"in": meta}
    out = UNARY_OPS[args.op](G, args.k)
    options = {"op": args.op, "out": args.out}
    if args.k is not None:
        options["k"] = args.k
    if args.withfile is not None:
        G2, meta2 = _load_graph(args.withfile)
        inputs["with"] = meta2
        options["op2"] = args.op2
        out = BINARY_OPS[args.op2](out, G2)
    doc = emit_graph(out, args.out)
    results = {"graph": {"format": doc.format, "payload": doc.payload},
               "n": out.n, "m": out.m}
    report = make_report("construct", options, inputs, results)
    return report, EXIT_OK


def cmd_trees(args) -> tuple[dict, int]:
    G, meta = _load_graph(args.infile)
    results: dict = {}
    if args.method in (None, "eigen"):
        results["eigen"] = spanning_trees_eigen(G)
    if args.method in (None, "exact"):
        results["exact"] = spanning_trees_exact(G)
    if args.method == "edc-formula":
        cover = extended_double_cover(G)
        results["edc_formula"] = edc_spanning_trees_formula(G)
        results["edc_exact"] = spanning_trees_exact(cover)
    options = {} if args.method is None else {"method": args.method}
    # counts are integers; 0.5 is the rounding gate for the one float route, eigen
    report = make_report("trees", options, {"in": meta}, results, eps=0.5)
    return report, EXIT_OK


def cmd_claim(args) -> tuple[dict, int]:
    """`verify` and `family`: run one claim from the table in `theorems`."""
    G, meta = _load_graph(args.infile)
    inputs = {"in": meta}
    second = None
    if args.infile2 is not None:
        second, inputs["in2"] = _load_graph(args.infile2)
    given = {name: getattr(args, name, None) for name in ("p", "k", "t")}
    spec, check = theorems.run_claim(args.command, args.theorem, G, second, args.eps, **given)
    results = {"report": check.to_dict()}
    if spec is not None:
        results["family"] = spec.to_dict()
    options = {"theorem": args.theorem}
    options.update((name, value) for name, value in given.items() if value is not None)
    report = make_report(args.command, options, inputs, results, eps=check.eps)
    code = EXIT_DEVIATION if check.verdict == theorems.VERDICT_DEVIATION else EXIT_OK
    return report, code


COMMANDS = {
    "spectra": cmd_spectra,
    "energy": cmd_energy,
    "construct": cmd_construct,
    "trees": cmd_trees,
    "verify": cmd_claim,
    "family": cmd_claim,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = COMMANDS[args.command](args)
    except EquigraphError as exc:
        print(f"equigraph: error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR
    sys.stdout.write(render_report(report))
    return code


if __name__ == "__main__":
    sys.exit(main())

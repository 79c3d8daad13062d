"""Tests for the benchmark's own machinery: tracer, reference checks, seeds."""

import contextlib
import importlib
import io
import math

import numpy as np
import pytest

import oracle as o
import run
import tracer
import workloads as w
from equigraph import cli, graphs, spectra


def _namespace_snapshot():
    mods = [importlib.import_module(f"equigraph.{layer}") for layer in tracer.LAYERS]
    mods.append(importlib.import_module("equigraph"))
    snap = {}
    for mod in mods:
        for key, val in vars(mod).items():
            snap[(mod.__name__, key)] = val
            if isinstance(val, dict):
                for dkey, dval in val.items():
                    snap[(mod.__name__, key, dkey)] = dval
    return snap


def _cli(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    return code, out.getvalue()


def test_tracer_restores_every_binding_even_after_an_error(tmp_path):
    before = _namespace_snapshot()
    path = tmp_path / "g.el"
    path.write_text(o.encode_edgelist(o.cycle(6)))
    with pytest.raises(RuntimeError):
        with tracer.Tracer() as tr:
            assert graphs.iterated_edc is not before[("equigraph.graphs", "iterated_edc")]
            assert cli.COMMANDS["verify"] is not before[("equigraph.cli", "COMMANDS", "verify")]
            assert _cli(["verify", "--in", str(path), "--theorem", "3.2"])[0] == 0
            raise RuntimeError("abort the traced block")
    assert tr.spans
    after = _namespace_snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def _by_name(spans, name):
    return [s for s in spans if s.name == name]


def test_self_time_of_iterated_cover_excludes_its_covers():
    G = graphs.cycle(40)
    with tracer.Tracer() as tr:
        graphs.iterated_edc(G, 3)
    (root,) = _by_name(tr.spans, "iterated_edc")
    covers = _by_name(tr.spans, "extended_double_cover")
    assert len(covers) == 3 and all(c.parent == root.id for c in covers)
    selfs = tracer.self_times(tr.spans)
    assert selfs[root.id] == pytest.approx(root.duration - sum(c.duration for c in covers), abs=1e-12)
    assert math.fsum(selfs.values()) == pytest.approx(root.duration, abs=1e-9)
    m = tracer.layer_metrics(tr.spans)
    assert m["graphs.construct_calls"] == 4
    assert m["graphs.construct_edges"] == (120 + 320 + 800) + 800  # three covers, then the result


def test_spectrum_of_nests_matrix_build_and_eigensolve():
    G = graphs.complete_bipartite(5, 7)
    with tracer.Tracer() as tr:
        spectra.spectrum_of(G, "laplacian")
    (root,) = _by_name(tr.spans, "spectrum_of")
    children = [s for s in tr.spans if s.parent == root.id]
    assert [c.name for c in children] == ["matrix_of", "eigenvalues"]
    m = tracer.layer_metrics(tr.spans)
    assert m["spectra.eigensolve_count"] == 1
    assert m["spectra.eigensolve_n3"] == 12 ** 3
    assert m["spectra.matrix_bytes"] == 8 * 12 ** 2
    assert m["spectra.eigensolve_ms"] + m["spectra.matrix_ms"] <= 1000.0 * root.duration


def test_traced_cli_request_accounts_for_its_wall_time(tmp_path):
    path = tmp_path / "g.g6"
    path.write_text(o.encode_graph6(o.gnm(np.random.default_rng(3), 12, 20)))
    with tracer.Tracer() as tr:
        tr.request = 7
        root = tr.open("cli", "request")
        code, _ = _cli(["verify", "--in", str(path), "--theorem", "2.6"])
        tr.close(root)
    assert code == 0
    assert {s.request for s in tr.spans} == {7}
    m = tracer.layer_metrics(tr.spans)
    assert m["theorems.checks"] == 1
    assert m["graphio.parse_bytes"] == path.stat().st_size
    assert m["spectra.eigensolve_count"] == 5  # E(G), E(kron), E(double), then kron and double again
    assert m["spectra.eigensolve_distinct_frac"] == pytest.approx(3 / 5)
    assert sum(tracer.layer_totals(tr.spans).values()) == pytest.approx(tracer.roots_ms(tr.spans))
    eig_parents = {tr.spans[s.parent].layer for s in _by_name(tr.spans, "spectrum_of")}
    assert eig_parents <= {"theorems", "spectra"}


def _report(results):
    return {"results": results}


def test_reference_flags_wrong_answers():
    tau = o.trees_complete(10)
    req = w.trees(o.complete(10), "exact", o.TreeCount.closed(tau))
    assert req.check(_report({"exact": tau}), 0) is None
    assert "disagrees" in req.check(_report({"exact": tau + 1}), 0)
    assert "disagrees" in req.check(_report({"exact": float(tau)}), 0)

    G = o.gnm(np.random.default_rng(0), 20, 40)
    ref = o.TreeCount.of(G.adjacency())
    req = w.trees(G, "exact", ref)
    true = int(round(np.linalg.det(o.laplacian(G.adjacency())[1:, 1:])))
    assert req.check(_report({"exact": true}), 0) is None
    assert req.check(_report({"exact": true + o.PRIMES[0]}), 0) is not None

    req = w.construct(o.cycle(5), "edc", "edgelist", 10, 15)
    good = o.encode_edgelist(o.from_adjacency(o.cover_adj(o.cycle(5).adjacency())))
    assert req.check(_report({"n": 10, "m": 15, "graph": {"format": "edgelist", "payload": good}}), 0) is None
    assert req.check(_report({"n": 10, "m": 14, "graph": {"format": "edgelist", "payload": good}}), 0)

    req = w.family("4.3", o.cycle(8), 30, k=4)
    rep = {"family": {"composite_n": 46, "composite_m": 16 + 8 + 16 * 30},
           "report": {"verdict": "confirmed", "computed": [0.0]}}
    assert "computed[0]" in req.check(_report(rep), 0)
    rep["report"]["verdict"] = "deviation"
    assert "verdict" in req.check(_report(rep), 0)


def test_failure_classification_uses_exit_codes_and_reference():
    req = w.verify(o.cycle(6), "3.6")
    assert run.failure(req, 0, None, "", OverflowError()) == "raised OverflowError"
    assert run.failure(req, 0, 3, "{}", None) == "deviation"
    assert run.failure(req, 0, 1, "", None) == "exit 1"
    assert run.failure(req, 0, 0, "not json", None).startswith("oracle: unreadable")
    bad = '{"results": {"report": {"verdict": "hypothesis_not_met"}}}'
    assert run.failure(req, 0, 0, bad, None).startswith("oracle: verdict")


def test_real_requests_pass_the_reference(tmp_path):
    reqs = [w.verify(o.cycle(6), "3.2"), w.family("4.3", o.cycle(8), 30, k=4),
            w.trees(o.hypercube(3), "exact", o.TreeCount.closed(o.trees_hypercube(3))),
            w.construct(o.cycle(6), "line", "graph6", 6, 6)]
    for pass_no in range(2):
        argvs = w.materialise(reqs, 5, pass_no, str(tmp_path))
        for req, argv in zip(reqs, argvs):
            code, out, exc = run.send(cli, req, argv)
            assert run.failure(req, pass_no, code, out, exc) is None, req.kind


def test_held_out_seed_gives_the_same_mix_and_verdicts():
    for name in w.WORKLOADS:
        a, b = w.build(name, 1), w.build(name, 2)
        assert [(r.kind, r.sizes(), r.expect) for r in a] == [(r.kind, r.sizes(), r.expect) for r in b]
        assert any(not np.array_equal(ia.graph.edges, ib.graph.edges)
                   for ra, rb in zip(a, b) for ia, ib in zip(ra.inputs.values(), rb.inputs.values()))


def test_inputs_change_every_pass(tmp_path):
    reqs = [w.verify(o.gnm(np.random.default_rng(1), 30, 60), "2.4"),
            w.complete_series(lambda n: w.trees(o.complete(n), "exact",
                                                o.TreeCount.closed(o.trees_complete(n))), 9)]
    seen = [set(), set()]
    for pass_no in range(5):
        at = [r.at(pass_no) for r in reqs]
        for i, argv in enumerate(w.materialise(at, 1, pass_no, str(tmp_path))):
            with open(argv[2]) as fh:
                seen[i].add(fh.read())
        code, out, exc = run.send(cli, at[1], w.materialise(at, 1, pass_no, str(tmp_path))[1])
        assert run.failure(at[1], pass_no, code, out, exc) is None
    assert len(seen[0]) == 5 and len(seen[1]) == 5
    assert [w.zigzag(p) for p in range(5)] == [0, 1, -1, 2, -2]


def test_kirchhoff_closed_forms_match_modular_determinants():
    cases = [(o.complete(12), o.trees_complete(12)),
             (o.complete_bipartite(4, 7), o.trees_complete_bipartite(4, 7)),
             (o.cycle(15), o.trees_cycle(15)),
             (o.hypercube(4), o.trees_hypercube(4)),
             (o.from_adjacency(o.cover_adj(o.complete(7).adjacency())), o.trees_cover_complete(7))]
    for G, tau in cases:
        assert o.TreeCount.of(G.adjacency()).residues == o.TreeCount.closed(tau).residues


def test_verify_35_verdicts_do_not_depend_on_labels():
    """verify 3.5 compares floats, so on a cover with more spanning trees than a
    float holds exactly its verdict changes with the vertex labels.  Such requests
    must be on complete graphs, which relabeling cannot change; otherwise runs of
    the same code would report different failure counts."""
    for name in w.WORKLOADS:
        for req in w.build(name, 1):
            if req.kind != "verify 3.5":
                continue
            G = req.inputs["in"].graph
            if G.m != G.n * (G.n - 1) // 2:
                assert o.log_trees(o.cover_adj(G.adjacency())) < 40 * math.log(2), (name, req.sizes())

"""Command-line surface: golden reports, exit codes, determinism.

Golden files freeze the canonical report bytes for one invocation of every
command path.  Regenerate after an intentional change with:

    EQUIGRAPH_UPDATE_GOLDENS=1 pytest tests/test_cli.py
"""

import json
import math
import os
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from equigraph import cli, spectra
from equigraph.cli import build_parser, main
from equigraph.graphio import emit_graph
from equigraph.graphs import complete
from equigraph.theorems import CLAIMS

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_DIR = Path(__file__).parent / "golden"

# (golden name, argv, expected exit code)
CASES = [
    ("spectra_k3_l", ["spectra", "--in", "k3.el", "--matrix", "l"], 0),
    ("spectra_c4g6_a", ["spectra", "--in", "c4.g6", "--matrix", "a"], 0),
    ("spectra_k3_q", ["spectra", "--in", "k3.el", "--matrix", "q"], 0),
    ("energy_k2_e", ["energy", "--in", "k2.el", "--kind", "e"], 0),
    ("energy_k3_le", ["energy", "--in", "k3.el", "--kind", "le"], 0),
    ("energy_c4_leplus", ["energy", "--in", "c4.el", "--kind", "le+"], 0),
    ("construct_edc_k2", ["construct", "--in", "k2.el", "--op", "edc", "--out", "graph6"], 0),
    ("construct_kfold_p3", ["construct", "--in", "p3.el", "--op", "kfold", "--k", "3",
                            "--out", "edgelist"], 0),
    ("construct_join", ["construct", "--in", "k2.el", "--op", "complement",
                        "--with", "k3.el", "--op2", "join", "--out", "edgelist"], 0),
    ("construct_line", ["construct", "--in", "k3.el", "--op", "line", "--out", "graph6"], 0),
    ("construct_edck", ["construct", "--in", "k2.el", "--op", "edc^k", "--k", "2",
                        "--out", "edgelist"], 0),
    ("trees_k3_default", ["trees", "--in", "k3.el"], 0),
    ("trees_k2_edc", ["trees", "--in", "k2.el", "--method", "edc-formula"], 0),
    ("trees_c4_exact", ["trees", "--in", "c4.el", "--method", "exact"], 0),
    ("verify_32_k3", ["verify", "--in", "k3.el", "--theorem", "3.2"], 0),
    ("verify_29_c4", ["verify", "--in", "c4.el", "--theorem", "2.9"], 0),
    ("verify_36_p3", ["verify", "--in", "p3.el", "--theorem", "3.6"], 0),
    ("verify_38_pair", ["verify", "--in", "c4.el", "--theorem", "3.8",
                        "--in2", "c4.el", "--k", "2"], 0),
    ("verify_35_k3", ["verify", "--in", "k3.el", "--theorem", "3.5"], 0),
    ("verify_42_p3", ["verify", "--in", "p3.el", "--theorem", "4.2"], 0),
    ("verify_33_k3", ["verify", "--in", "k3.el", "--theorem", "3.3", "--k", "2"], 0),
    ("verify_2edc_k3", ["verify", "--in", "k3.el", "--theorem", "2.edc-energy"], 0),
    ("family_43_k3", ["family", "--theorem", "4.3", "--in", "k3.el", "--p", "9", "--k", "3"], 0),
    ("family_44_k2", ["family", "--theorem", "4.4", "--in", "k2.el", "--p", "13",
                      "--k", "4", "--t", "2"], 0),
    ("family_46_k3", ["family", "--theorem", "4.6", "--in", "k3.el", "--p", "10", "--k", "4"], 0),
    ("family_47_k2", ["family", "--theorem", "4.7", "--in", "k2.el", "--p", "12",
                      "--k", "3", "--t", "6"], 0),
    ("family_48_pair", ["family", "--theorem", "4.8", "--in", "m2.el",
                        "--in2", "p4.el", "--p", "20", "--k", "4"], 0),
    ("family_49_pair", ["family", "--theorem", "4.9", "--in", "m2.el",
                        "--in2", "c4.el", "--p", "20", "--k", "4"], 0),
    ("family_410_k3", ["family", "--theorem", "4.10", "--in", "k3.el",
                       "--in2", "k3.el", "--p", "5"], 0),
    ("family_eq41", ["family", "--theorem", "eq41", "--in", "m2.el",
                     "--in2", "m2b.el", "--p", "12", "--k", "4"], 0),
]


@pytest.mark.parametrize("name,argv,expected_code", CASES, ids=[c[0] for c in CASES])
def test_golden_report(name, argv, expected_code, capsys, monkeypatch):
    monkeypatch.chdir(DATA_DIR)
    code = main(argv)
    out = capsys.readouterr().out
    golden = GOLDEN_DIR / f"{name}.json"
    if os.environ.get("EQUIGRAPH_UPDATE_GOLDENS"):
        golden.write_text(out)
    assert code == expected_code
    assert out == golden.read_text()


def test_reports_byte_identical_across_runs(capsys, monkeypatch):
    monkeypatch.chdir(DATA_DIR)
    main(["verify", "--in", "k3.el", "--theorem", "3.3", "--k", "2"])
    first = capsys.readouterr().out
    main(["verify", "--in", "k3.el", "--theorem", "3.3", "--k", "2"])
    second = capsys.readouterr().out
    assert first == second


class TestExitCodes:
    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["bogus-command"])
        assert exc.value.code == 2

    def test_missing_required_flag_is_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["spectra", "--in", "k2.el"])
        assert exc.value.code == 2

    def test_unknown_family_theorem_is_2(self, monkeypatch):
        monkeypatch.chdir(DATA_DIR)
        with pytest.raises(SystemExit) as exc:
            main(["family", "--theorem", "5.1", "--in", "k3.el", "--p", "4"])
        assert exc.value.code == 2

    def test_missing_file_is_1(self, capsys):
        assert main(["spectra", "--in", "no-such-file.el", "--matrix", "a"]) == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_payload_is_1(self, tmp_path, capsys, monkeypatch):
        bad = tmp_path / "bad.el"
        bad.write_text("2 1\n0 5\n")
        monkeypatch.chdir(tmp_path)
        assert main(["spectra", "--in", "bad.el", "--matrix", "a"]) == 1
        assert "out of range" in capsys.readouterr().err

    def test_non_utf8_payload_is_1(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "bad.el").write_bytes(b"\xff2 1\n0 1\n")
        monkeypatch.chdir(tmp_path)
        assert main(["spectra", "--in", "bad.el", "--matrix", "a"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "equigraph: error: bad.el: not UTF-8 text (byte 0)\n"

    @pytest.mark.parametrize("command,argv", [
        ("verify", ["--in", "p3.el", "--theorem", "3.2"]),
        ("family", ["--theorem", "4.3", "--in", "k3.el", "--p", "9", "--k", "3"]),
    ], ids=["verify", "family"])
    @pytest.mark.parametrize("eps", ["inf", "nan", "-1"])
    def test_eps_that_is_not_finite_and_nonnegative_is_1(self, command, argv, eps, monkeypatch,
                                                          capsys):
        monkeypatch.chdir(DATA_DIR)
        assert main([command, *argv, "--eps", eps]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("equigraph: error: eps must be finite and nonnegative")

    @pytest.mark.parametrize("theorem,code,verdict", [
        ("3.5", 0, "confirmed"),  # an exact integer identity
        ("3.2", 3, "deviation"),  # eigensolver noise exceeds 0
    ])
    def test_eps_zero_is_legal(self, theorem, code, verdict, monkeypatch, capsys):
        monkeypatch.chdir(DATA_DIR)
        assert main(["verify", "--in", "p3.el", "--theorem", theorem, "--eps", "0"]) == code
        out = capsys.readouterr().out
        assert '"eps": 0,' in out and f'"verdict": "{verdict}"' in out

    def test_unknown_verify_id_is_1(self, monkeypatch, capsys):
        monkeypatch.chdir(DATA_DIR)
        assert main(["verify", "--in", "k3.el", "--theorem", "9.9"]) == 1
        capsys.readouterr()

    def test_pair_check_without_in2_is_1(self, monkeypatch, capsys):
        monkeypatch.chdir(DATA_DIR)
        assert main(["verify", "--in", "c4.el", "--theorem", "3.8"]) == 1
        capsys.readouterr()

    def test_with_without_op2_is_1(self, monkeypatch, capsys):
        """Either flag alone is a usage error, refused before any input is
        read or any construction runs."""
        monkeypatch.chdir(DATA_DIR)
        calls = []
        monkeypatch.setattr(cli, "_load_graph", lambda path: calls.append(path))
        monkeypatch.setitem(cli.UNARY_OPS, "edc", lambda G, k: calls.append("edc"))
        assert main(["construct", "--in", "k2.el", "--op", "edc",
                     "--with", "k3.el", "--out", "graph6"]) == 1
        assert main(["construct", "--in", "k2.el", "--op", "edc",
                     "--op2", "join", "--out", "graph6"]) == 1
        assert capsys.readouterr().err.count("--with and --op2 must be given together") == 2
        assert calls == []

    def test_deviation_verdict_is_3(self, monkeypatch, capsys):
        # force a deviation by tightening eps below eigensolver noise
        monkeypatch.chdir(DATA_DIR)
        assert main(["verify", "--in", "k3.el", "--theorem", "3.2", "--eps", "1e-18"]) == 3
        out = capsys.readouterr().out
        assert '"verdict": "deviation"' in out

    def test_hypothesis_not_met_is_0(self, monkeypatch, capsys):
        monkeypatch.chdir(DATA_DIR)
        assert main(["verify", "--in", "c4.el", "--theorem", "2.9"]) == 0
        assert '"verdict": "hypothesis_not_met"' in capsys.readouterr().out

    def test_resource_cap_is_1(self, monkeypatch, capsys):
        monkeypatch.chdir(DATA_DIR)
        monkeypatch.setenv("EQUIGRAPH_MAX_VERTICES", "8")
        assert main(["verify", "--in", "k3.el", "--theorem", "3.3", "--k", "3"]) == 1
        assert "cap" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["verify", "--in", "k2.el", "--theorem", "2.5", "--k", "5"],
        ["verify", "--in", "k2.el", "--theorem", "2.7", "--k", "8"],
        ["verify", "--in", "k2.el", "--theorem", "4.1", "--k", "5"],
        ["verify", "--in", "k2.el", "--theorem", "4.kfold-le", "--k", "5"],
        ["construct", "--in", "k2.el", "--op", "kfold", "--k", "5", "--out", "graph6"],
        ["construct", "--in", "k2.el", "--op", "edc^k", "--k", "4", "--out", "graph6"],
        *(["construct", "--in", "k3.el", "--op", "edc", "--with", "k3.el", "--op2", op, "--out", "graph6"]
          for op in ("join", "cartesian", "kronecker", "union")),
        *(["construct", "--in", "k5.el", "--op", op, "--out", "graph6"] for op in ("line", "edc", "double")),
    ])
    def test_cap_refuses_folds_iterations_and_products(self, argv, monkeypatch, capsys):
        monkeypatch.chdir(DATA_DIR)
        monkeypatch.setenv("EQUIGRAPH_MAX_VERTICES", "8")
        assert main(argv) == 1
        assert "above the cap of 8" in capsys.readouterr().err

    @pytest.mark.parametrize("theorem", ["2.4", "2.6", "2.8", "2.9", "2.edc-energy", "2.kron-cart",
                                         "3.2", "3.5", "3.6", "4.2"])
    def test_cap_refuses_covers_and_products_of_one_input(self, theorem, monkeypatch, capsys):
        monkeypatch.chdir(DATA_DIR)
        monkeypatch.setenv("EQUIGRAPH_MAX_VERTICES", "4")
        solved = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda M: solved.append(M.shape) or eigvalsh(M))
        assert main(["verify", "--in", "k3.el", "--theorem", theorem]) == 1
        assert "above the cap of 4" in capsys.readouterr().err
        assert solved == []

    @pytest.mark.parametrize("theorem,options", [("4.8", ["--p", "8", "--k", "4"]),
                                                 ("4.9", ["--p", "8", "--k", "4"]),
                                                 ("eq41", ["--p", "12", "--k", "4"]),
                                                 ("4.10", ["--p", "4"])])
    def test_cap_refuses_a_family_composite_of_the_second_input(self, theorem, options, monkeypatch, capsys):
        monkeypatch.chdir(DATA_DIR)
        monkeypatch.setenv("EQUIGRAPH_MAX_VERTICES", "16")
        solved = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda M: solved.append(M.shape) or eigvalsh(M))
        argv = ["family", "--theorem", theorem, "--in", "k2.el", "--in2", "k3.el"] + options
        assert main(argv) == 1
        assert "above the cap of 16" in capsys.readouterr().err
        assert all(n <= 16 for n, _ in solved)

    @pytest.mark.parametrize("suffix,payload", [(".el", "9 1\n0 8\n"), (".g6", "H" + "?" * 6)])
    def test_input_above_the_cap_is_refused_at_parse(self, suffix, payload, tmp_path, monkeypatch, capsys):
        path = tmp_path / ("g9" + suffix)
        path.write_text(payload)
        monkeypatch.setenv("EQUIGRAPH_MAX_VERTICES", "8")
        assert main(["spectra", "--in", str(path), "--matrix", "a"]) == 1
        assert "needs 9 vertices, above the cap of 8" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["verify", "--in", "k3.el", "--theorem", "3.7", "--k", "1000000"],
        ["construct", "--in", "k3.el", "--op", "edc^k", "--k", "1000000", "--out", "graph6"],
        ["family", "--theorem", "4.4", "--in", "k3.el", "--p", "9", "--t", "1000000"],
    ])
    def test_cap_refuses_a_huge_iteration_count_unexpanded(self, argv, monkeypatch, capsys):
        monkeypatch.chdir(DATA_DIR)
        assert main(argv) == 1
        assert "needs 3 * 2**1000000 vertices" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["verify", "--in", "k3.el", "--theorem", "3.7", "--k", "-1"],
        ["verify", "--in", "c4.el", "--theorem", "3.8", "--in2", "c4.el", "--k", "-1"],
    ])
    def test_negative_iteration_count_is_1(self, argv, monkeypatch, capsys):
        monkeypatch.chdir(DATA_DIR)
        assert main(argv) == 1
        assert "must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["construct", "--in", "empty.el", "--op", "kfold", "--k", str(10 ** 20), "--out", "edgelist"],
        ["verify", "--in", "empty.el", "--theorem", "2.7", "--k", str(10 ** 20)],
    ])
    def test_huge_fold_count_of_the_empty_graph_is_1(self, argv, tmp_path, monkeypatch, capsys):
        (tmp_path / "empty.el").write_text("0 0\n")
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert "above the cap of 4096" in capsys.readouterr().err

    def test_iterated_cover_claim_on_the_empty_graph_sums_no_binomials(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "empty.el").write_text("0 0\n")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(math, "comb", lambda *args: pytest.fail("binomial loop on an empty spectrum"))
        assert main(["verify", "--in", "empty.el", "--theorem", "3.3", "--k", "100000"]) == 0
        assert '"verdict": "confirmed"' in capsys.readouterr().out

    @pytest.mark.parametrize("n,method", [(200, None), (200, "eigen"), (100, "edc-formula")])
    def test_float_tree_count_overflowing_is_1(self, n, method, tmp_path, monkeypatch, capsys):
        """The float routes refuse a count beyond the float range, with no
        overflow warning and no printed inf."""
        (tmp_path / "kn.el").write_text(emit_graph(complete(n), "edgelist").payload)
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["trees", "--in", "kn.el"] + (["--method", method] if method else [])) == 1
        captured = capsys.readouterr()
        assert "overflows a float" in captured.err and "inf" not in captured.out

    @pytest.mark.parametrize("argv", [
        ["--theorem", "4.3", "--in", "k3.el", "--p", "9", "--k", str(10 ** 200)],
        ["--theorem", "4.3", "--in", "k3.el", "--p", "9", "--k", str(-10 ** 200)],
        ["--theorem", "4.4", "--in", "k2.el", "--p", "13", "--k", str(10 ** 200)],
        ["--theorem", "4.6", "--in", "k3.el", "--p", "10", "--k", str(10 ** 200)],
        ["--theorem", "4.7", "--in", "k2.el", "--p", "12", "--t", str(10 ** 200)],
        ["--theorem", "4.8", "--in", "m2.el", "--in2", "p4.el", "--p", "20", "--k", str(10 ** 200)],
        ["--theorem", "4.9", "--in", "m2.el", "--in2", "c4.el", "--p", "20", "--k", str(10 ** 200)],
        ["--theorem", "eq41", "--in", "m2.el", "--in2", "m2b.el", "--p", "12", "--k", str(10 ** 200)],
    ], ids=["4.3", "4.3-negative", "4.4", "4.6", "4.7", "4.8", "4.9", "eq41"])
    def test_slack_beyond_the_float_range_fails_a_hypothesis(self, argv, monkeypatch, capsys):
        """The edge bounds compare integers, so a slack with no float value
        is an answer, not an OverflowError."""
        monkeypatch.chdir(DATA_DIR)
        assert main(["family", *argv]) == 0
        captured = capsys.readouterr()
        assert '"verdict": "hypothesis_not_met"' in captured.out and captured.err == ""

    def test_complete_factor_beyond_the_float_range_is_1(self, monkeypatch, capsys):
        monkeypatch.chdir(DATA_DIR)
        argv = ["family", "--theorem", "4.10", "--in", "k3.el", "--in2", "k3.el", "--p", str(10 ** 400)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("equigraph: error: complete graph needs")


class TestConstructOutput:
    def test_edc_of_k2_is_c4(self, monkeypatch, capsys):
        monkeypatch.chdir(DATA_DIR)
        main(["construct", "--in", "k2.el", "--op", "edc", "--out", "edgelist"])
        out = capsys.readouterr().out
        assert '"n": 4' in out and '"m": 4' in out

    def test_double_equals_kfold2(self, monkeypatch, capsys):
        monkeypatch.chdir(DATA_DIR)
        main(["construct", "--in", "p3.el", "--op", "double", "--out", "graph6"])
        first = capsys.readouterr().out
        main(["construct", "--in", "p3.el", "--op", "kfold", "--k", "2", "--out", "graph6"])
        second = capsys.readouterr().out
        payload = [ln for ln in first.splitlines() if "payload" in ln]
        assert payload and payload == [ln for ln in second.splitlines() if "payload" in ln]


def test_energy_solves_its_matrix_once(monkeypatch, capsys):
    monkeypatch.chdir(DATA_DIR)
    shapes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda M: shapes.append(M.shape) or eigvalsh(M))
    assert main(["energy", "--in", "k3.el", "--kind", "le"]) == 0
    assert shapes == [(3, 3)]
    capsys.readouterr()


def test_readme_and_help_list_the_claim_table(monkeypatch, capsys):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    ids = {cmd: [tid for tid, claim in CLAIMS.items() if claim.command == cmd]
           for cmd in ("verify", "family")}
    assert re.search(r"`verify` IDs: `([^`]*)`", readme).group(1).split() == ids["verify"]
    assert re.search(r"family +--theorem \{([^}]*)\}", readme).group(1).split("|") == ids["family"]
    monkeypatch.setenv("COLUMNS", "500")  # argparse wraps help text at hyphens
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    assert "claim ID: " + " ".join(ids["verify"]) in capsys.readouterr().out


@pytest.mark.parametrize("argv,patched,count", [
    # the base count overflows (K_180 and up): the cover formula cannot scale it
    (["trees", "--in", "k3.el", "--method", "edc-formula"], "equigraph.spectra.spanning_trees_exact",
     lambda G: 10 ** 400),
    # only the cover's exact count overflows (K_82 and up)
    (["verify", "--in", "k3.el", "--theorem", "3.5"], "equigraph.theorems.spanning_trees_exact",
     lambda G: 10 ** 400 if G.n > 3 else 3),
], ids=["trees-edc-formula", "verify-3.5"])
def test_tree_count_overflowing_a_float_is_1(argv, patched, count, monkeypatch, capsys):
    """A count above the float range is an error, not a traceback; the counts
    are faked so that no Bareiss elimination runs at size."""
    monkeypatch.chdir(DATA_DIR)
    monkeypatch.setattr(patched, count)
    assert main(argv) == 1
    assert "overflows a float" in capsys.readouterr().err


def test_argument_parser_is_built_once(monkeypatch, capsys):
    monkeypatch.chdir(DATA_DIR)
    build_parser.cache_clear()
    assert main(["energy", "--in", "k3.el", "--kind", "e"]) == 0
    assert main(["energy", "--in", "k2.el", "--kind", "e"]) == 0
    capsys.readouterr()
    assert build_parser.cache_info().misses == 1


N_ABOVE_CROSSOVER = spectra._BAREISS_MAX_ORDER + 2


def _write_complete(tmp_path, n, monkeypatch):
    (tmp_path / "kn.el").write_text(emit_graph(complete(n), "edgelist").payload)
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("argv,exact_count", [
    (["trees", "--in", "kn.el", "--method", "edc-formula"], N_ABOVE_CROSSOVER ** (2 * N_ABOVE_CROSSOVER - 2)),
    (["verify", "--in", "kn.el", "--theorem", "3.5"], N_ABOVE_CROSSOVER ** (N_ABOVE_CROSSOVER - 2)),
], ids=["trees-edc-formula", "verify-3.5"])
def test_tree_counts_above_the_crossover_run_one_determinant_per_graph(argv, exact_count, tmp_path,
                                                                       monkeypatch, capsys):
    """One exact determinant each of G's minor, of Q + 2I and of the cover's
    minor, all past the order where the modular route takes over from Bareiss."""
    n = N_ABOVE_CROSSOVER
    _write_complete(tmp_path, n, monkeypatch)
    orders = []
    modular = spectra._modular_determinant
    monkeypatch.setattr(spectra, "_modular_determinant", lambda m: orders.append(len(m)) or modular(m))
    monkeypatch.setattr(spectra, "_bareiss_determinant", None)
    assert main(argv) in (0, 3)
    assert orders == [n - 1, n, 2 * n - 1]
    assert str(exact_count) in capsys.readouterr().out


def test_verify_35_past_the_float_range_refuses_before_the_cover(tmp_path, monkeypatch, capsys):
    """The cover of K_82 has 82^162 (about 2**1030) spanning trees: the formula
    side refuses it, so the cover's order-163 minor is never eliminated."""
    _write_complete(tmp_path, 82, monkeypatch)
    orders = []
    modular = spectra._modular_determinant
    monkeypatch.setattr(spectra, "_modular_determinant", lambda m: orders.append(len(m)) or modular(m))
    assert main(["verify", "--in", "kn.el", "--theorem", "3.5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "overflows a float" in captured.err
    assert orders == [81, 82]


@pytest.mark.parametrize("n", [81, 82])
@pytest.mark.parametrize("argv", [["trees", "--in", "kn.el", "--method", "edc-formula"],
                                  ["verify", "--in", "kn.el", "--theorem", "3.5"]],
                         ids=["trees-edc-formula", "verify-3.5"])
def test_tree_counts_near_the_float_range_print_floats_or_exit_1(argv, n, tmp_path, monkeypatch, capsys):
    """Every count a report prints reads as a finite float; a count past the
    float range exits 1 and prints nothing, never a larger integer."""
    _write_complete(tmp_path, n, monkeypatch)
    code = main(argv)
    captured = capsys.readouterr()
    if code != 0:
        assert code == 1 and captured.out == "" and "overflows a float" in captured.err
        return
    results = json.loads(captured.out)["results"]
    report = results.get("report")
    counts = ([*report["predicted"], *report["computed"], *report["details"].values()] if report
              else list(results.values()))
    assert counts and all(math.isfinite(float(v)) for v in counts)

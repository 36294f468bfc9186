"""Subcommand dispatch: documented invocations, exit codes, determinism."""

import json

import pytest

from diskmaps import cli


def run_json(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_frontier_on_the_degree_nine_example(capsys):
    code, doc = run_json(capsys, ["frontier", "--catalog", "example15",
                                  "--K", "1"])
    assert code == 0
    assert set(doc) == {"config", "reports", "summary"}
    rep = doc["reports"][0]
    assert rep["type"] == "FrontierReport"
    K, kprime = rep["samples"][0]
    assert K == 1.0
    assert 10.5 < kprime < 11.2
    assert doc["config"]["command"] == "frontier"
    assert doc["summary"]["status"] == "data"


def test_bounds_identity_has_equality_row(capsys):
    code, doc = run_json(capsys, ["bounds", "--catalog", "identity",
                                  "--K", "1", "--Kprime", "0", "--R", "1",
                                  "--n-max", "4"])
    assert code == 0
    top = next(r for r in doc["reports"]
               if r["type"] == "BoundReport"
               and r["inequality_id"] == "chen-1.0" and r["index"] == 1)
    assert top["margin"] == 0.0
    assert top["status"] == "holds"
    assert doc["summary"]["status"] == "holds"
    ctx = doc["config"]["context"]
    assert ctx["provenance"]["R"] == "given"
    assert ctx["provenance"]["perimeter_sup"] == "2piR"


def test_coeffs_reads_off_simple_harmonic_map(capsys):
    code, doc = run_json(capsys, ["coeffs", "--map", "z + 0.3*conj(z)^2"])
    assert code == 0
    table = doc["reports"][0]
    assert table["type"] == "CoeffTable"
    assert table["valid"] is True
    a1 = table["a"][1]
    assert abs(a1["re"] - 1.0) < 1e-10 and abs(a1["im"]) < 1e-10
    b2 = table["b"][1]  # b entries start at index 1
    assert abs(b2["re"] - 0.3) < 1e-10 and abs(b2["im"]) < 1e-10


def test_identical_argv_yields_identical_bytes(tmp_path, capsys):
    argv = ["frontier", "--catalog", "example15", "--K", "1",
            "--radial-count", "48", "--angular-count", "96",
            "--refine-rounds", "2"]
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(argv + ["--out", str(first)]) == 0
    assert cli.main(argv + ["--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_exactly_one_map_source(capsys):
    code = cli.main(["analyze", "--map", "z", "--catalog", "identity"])
    err = capsys.readouterr().err
    assert code == 2
    assert "exactly one map source" in err
    assert cli.main(["analyze"]) == 2


def test_dsl_parse_error_is_usage_error(capsys):
    code = cli.main(["analyze", "--map", "z +* 2"])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    # A literal that overflows to inf is a parse error, not a silent inf.
    assert cli.main(["analyze", "--map", "1e999*z"]) == 2
    assert "overflows" in capsys.readouterr().err


def test_nonconvergence_maps_to_exit_3(monkeypatch, capsys):
    def explode(*_args, **_kwargs):
        raise RuntimeError("ladder failed to settle")

    monkeypatch.setattr(cli, "frontier", explode)
    code = cli.main(["frontier", "--map", "z"])
    assert code == 3
    assert "non-convergence" in capsys.readouterr().err


def test_violated_check_exits_1(capsys):
    # Identity has chord ratio exactly 1; C1 = 0.98 pins the upper clause
    # below it, so the check must report a violation.
    code, doc = run_json(capsys, [
        "check-thm11", "--map", "z", "--omega", "t", "--alpha", "1",
        "--C1", "0.98", "--C2", "10", "--pairs", "0.3:0.1j, 0.5:-0.2"])
    assert code == 1
    rep = doc["reports"][0]
    assert rep["holds_on_sample"] is False
    assert doc["summary"]["status"] == "violated"
    assert doc["summary"]["worst_margin"] < 0


def test_csv_flattening(capsys):
    code = cli.main(["bounds", "--catalog", "identity", "--K", "1",
                     "--Kprime", "0", "--R", "1", "--n-max", "2",
                     "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    for col in ("type", "inequality_id", "lhs", "rhs", "margin", "status"):
        assert col in header
    # 5 coefficient families at n = 1, 2 plus 3 derivative displays.
    assert len(lines) == 1 + 5 * 2 + 3


def test_catalog_listing(capsys):
    code, doc = run_json(capsys, ["catalog"])
    assert code == 0
    names = {r["name"] for r in doc["reports"]}
    assert {"identity", "scale", "moebius", "example13", "example15",
            "polyharmonic", "kalaj_extremal"} <= names


def test_analyze_reports_point_metrics(capsys):
    code, doc = run_json(capsys, ["analyze", "--map", "z^2",
                                  "--points", "0.5, 0.25j", "--K", "1"])
    assert code == 0
    row = doc["reports"][0]
    assert row["point"] == {"re": 0.5, "im": 0.0}
    assert row["op_norm"] == 1.0
    assert row["defect"] == 0.0  # analytic maps have ||D||^2 = J
    assert row["dilatation"] == 0.0


def test_analyze_survives_jet_failures(capsys):
    code, doc = run_json(capsys, ["analyze", "--catalog", "example13",
                                  "--param", "alpha=0.25", "--points", "0, 0.5"])
    assert code == 0
    first, second = doc["reports"]
    assert "error" in first
    assert "op_norm" in second


def test_solve_reports_values_and_residuals(capsys):
    code, doc = run_json(capsys, [
        "solve", "--psi", "re(z)", "--points", "0.3, 0.9995",
        "--radial-nodes", "64", "--angular-nodes", "128",
        "--patch-nodes", "32", "--boundary-nodes", "256"])
    assert code == 0
    inner, outer = doc["reports"]
    assert abs(inner["value"]["re"] - 0.3) < 1e-10
    assert inner["residual"] < 1e-4
    assert outer["residual"] is None  # stencil would cross the boundary


def test_unknown_catalog_parameter_is_usage_error(capsys):
    assert cli.main(["analyze", "--catalog", "scale",
                     "--param", "zoom=2"]) == 2
    assert cli.main(["analyze", "--catalog", "kalaj_extremal",
                     "--param", "Q=2"]) == 2
    capsys.readouterr()

"""Subcommand dispatch: documented invocations, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from diskmaps import GreenPotential, QuadratureConfig, cli, laplacian_residual, solve_poisson


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
    assert rep["sense_preserving"] is True
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


def test_repeated_calls_do_not_share_option_lists(capsys):
    # main reuses one parser; "append" options must start empty each call.
    frontier = ["frontier", "--map", "z", "--radial-count", "2",
                "--angular-count", "4", "--refine-rounds", "0"]
    _, doc = run_json(capsys, frontier + ["--K", "1", "--K", "2"])
    assert doc["config"]["K_values"] == [1.0, 2.0]
    _, doc = run_json(capsys, frontier + ["--K", "3"])
    assert doc["config"]["K_values"] == [3.0]
    analyze = ["analyze", "--catalog", "example13", "--points", "0.5"]
    _, doc = run_json(capsys, analyze + ["--param", "alpha=0.25"])
    assert doc["config"]["parameters"] == {"alpha": 0.25}
    # example13 requires alpha, so without --param the call must fail.
    assert cli.main(analyze) == 2
    capsys.readouterr()


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
    # So are an infinite pow exponent (it used to pass) and a 3,000-term sum
    # (it overflowed the evaluators' recursion, exit 3).
    assert cli.main(["analyze", "--map", "pow(z, 1e200*1e200)"]) == 2
    assert "pow exponent must be finite" in capsys.readouterr().err
    assert cli.main(["analyze", "--map", "+".join(["z"] * 3000)]) == 2
    assert "nested deeper than 256" in capsys.readouterr().err


def test_nonconvergence_maps_to_exit_3(monkeypatch, capsys):
    def explode(*_args, **_kwargs):
        raise RuntimeError("ladder failed to settle")

    monkeypatch.setattr(cli, "frontier", explode)
    code = cli.main(["frontier", "--map", "z"])
    assert code == cli.EXIT_NUMERICAL == 3
    assert capsys.readouterr().err == "numerical failure: ladder failed to settle\n"


def test_bounds_scan_with_failing_region_is_a_numerical_failure(capsys):
    # 13.5% of the grid's jets overflow; the derivative rows used to skip
    # them and hold.
    argv = ["bounds", "--map", "z + 0*exp(exp(exp(100*(abs(z) - 0.85))))",
            "--K", "1", "--R", "1", "--radial-sup", "1"]
    with np.errstate(all="ignore"):
        assert cli.main(argv) == 3
    assert "13.5% of grid points failed to evaluate (limit 1%)" in capsys.readouterr().err


def test_bounds_explicit_points_refuse_a_failing_jet(capsys):
    # Three of the four jets overflow; the worst row used to skip them and
    # hold at 0.1.  Per-point rows keep them as indeterminate rows.
    argv = ["bounds", "--map", "z + 0*exp(exp(exp(100*(abs(z) - 0.85))))",
            "--K", "1", "--R", "1", "--radial-sup", "1",
            "--points", "0.9, 0.95, 0.99, 0.1"]
    with np.errstate(all="ignore"):
        assert cli.main(argv) == 3
    assert "jet is not finite at the point (0.9+0j)" in capsys.readouterr().err
    with np.errstate(all="ignore"):
        code, doc = run_json(capsys, argv + ["--per-point"])
    assert code == 0
    kalaj = [r for r in doc["reports"] if r.get("inequality_id") == "kalaj-1"]
    assert [r["status"] for r in kalaj] == ["indeterminate"] * 3 + ["holds"]


@pytest.mark.parametrize("argv", [
    ["frontier", "--psi", "1/(z-1)", "--g", "1", "--K", "1"],
    ["length", "--psi", "1/(z-1)", "--g", "1", "--kind", "perimeter", "--r", "0.5"],
    ["solve", "--psi", "1/(z-1)", "--g", "1", "--points", "0.5"],
])
def test_boundary_data_with_a_pole_on_the_circle_is_a_numerical_failure(argv, capsys):
    # One nan sample made every coefficient nan: frontier and length exited
    # 0 with a report, solve 2 naming the query point.
    assert cli.main(argv) == 3
    assert capsys.readouterr().err == (
        "numerical failure: boundary data psi = '1/(z-1)' is not finite at theta = 0.0\n")


def test_a_source_that_fails_on_the_panel_grid_is_a_numerical_failure(capsys):
    argv = ["solve", "--psi", "z", "--g", "1 + 0*log(abs(z) - re(z))", "--points", "0.5"]
    assert cli.main(argv) == 3
    assert capsys.readouterr().err.startswith(
        "numerical failure: source g = '1 + 0*log(abs(z) - re(z))' is not finite at w = (")


def test_frontier_flags_a_sense_reversing_map(capsys):
    code, doc = run_json(capsys, ["frontier", "--map", "conj(z)", "--K", "2",
                                  "--radial-count", "4", "--angular-count", "8"])
    assert code == 0
    rep = doc["reports"][0]
    assert list(rep)[-1] == "sense_preserving"
    assert rep["sense_preserving"] is False


def test_length_through_a_pole_is_a_numerical_failure(capsys):
    assert cli.main(["length", "--map", "1/(z-0.5)", "--r", "0.5"]) == 3
    assert "jet evaluation failed" in capsys.readouterr().err
    assert cli.main(["length", "--map", "1/(z-0.45)", "--kind", "radial",
                     "--r", "0.9", "--theta", "0"]) == 3
    # A pole on a polyline circle of the boundary length, and on a
    # coefficient circle.
    assert cli.main(["length", "--kind", "boundary", "--map", "1/(z-0.99609375)"]) == 3
    assert "map evaluation failed" in capsys.readouterr().err
    assert cli.main(["coeffs", "--map", "1/(z-0.4)"]) == 3
    assert "map failed to evaluate" in capsys.readouterr().err


def test_removed_patch_flags_are_usage_errors(capsys):
    for flag, value in (("--patch-radius", "0.05"), ("--patch-nodes", "64")):
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", "--psi", "re(z)", "--g", "1", flag, value])
        assert exc.value.code == 2
    capsys.readouterr()


def test_prop14_source_sup_follows_the_quadrature_flags(capsys):
    # A --psi/--g map's source_sup is sampled on the map's own potential.
    g = "0.5*exp(-50*abs(z-0.3)^2)"
    sups = []
    for nodes in (16, 128):
        code, doc = run_json(capsys, ["check-prop14", "--psi", "z", "--g", g,
                                      "--C3", "1.5", "--radial-nodes", str(nodes)])
        assert code == 0
        sup = doc["reports"][0]["derived_constants"]["source_sup"]
        assert sup == GreenPotential(g, QuadratureConfig(radial_nodes=nodes)).source_grid_sup()
        sups.append(sup)
    # A sampled lower estimate of the true sup, 0.5 at z = 0.3.
    assert sups[0] < sups[1] < 0.5


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


def test_nan_pair_margin_is_a_numerical_failure(capsys):
    # The chord ratio overflows to nan at this pair; the check used to report
    # holds_on_sample with worst margin inf and exit 0.
    with np.errstate(all="ignore"):
        code = cli.main(["check-thm11", "--map", "exp(exp(exp(40*z)))", "--omega", "t",
                         "--alpha", "0.5", "--C1", "10", "--C2", "100",
                         "--pairs", "0.9:0.95", "--line-nodes", "5"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "nan on the pair ((0.9+0j), (0.95+0j))" in captured.err


def test_pole_at_a_pair_endpoint_is_a_numerical_failure(capsys):
    # f(0.5) is not finite; its chord ratio is inf, which once gave
    # infinite margins and "violated".
    with np.errstate(all="ignore"):
        code = cli.main(["check-thm11", "--map", "1/(z-0.5)", "--omega", "t",
                         "--alpha", "0.5", "--C1", "10", "--C2", "100",
                         "--pairs", "0.1:0.5", "--line-nodes", "5"])
    assert code == 3
    assert "nan on the pair ((0.1+0j), (0.5+0j))" in capsys.readouterr().err


def test_chord_integral_from_the_singular_origin(capsys):
    # example13's jet at 0 is undefined; the chord's guess there is the
    # exact preimage, so no jet is asked for and the integral is computed.
    code, doc = run_json(capsys, [
        "check-thm11", "--catalog", "example13", "--param", "alpha=0.25",
        "--omega", "t", "--alpha", "0.5", "--C1", "10", "--C2", "100",
        "--pairs", "0:0.5", "--line-nodes", "5"])
    assert code == 0
    rep = doc["reports"][0]
    assert rep["notes"] == ""
    assert 0.0 < rep["derived_constants"]["max_chord_integral"] < 100.0


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
        "--radial-nodes", "64", "--angular-nodes", "128", "--boundary-nodes", "256"])
    assert code == 0
    inner, outer = doc["reports"]
    assert abs(inner["value"]["re"] - 0.3) < 1e-10
    assert inner["residual"] < 1e-4
    assert outer["residual"] is None  # stencil would cross the boundary
    # An empty --g is the Laplace problem, as with --g 0.
    code, doc = run_json(capsys, ["solve", "--psi", "z", "--g", "", "--points", "0.3"])
    assert code == 0
    assert doc["reports"][0]["residual"] < 1e-4


def test_solve_takes_every_residual_in_one_call(monkeypatch, capsys, counting):
    # One values call takes the point outside the stencils' reach and the
    # five-point stencils of the other three, whose centres are the points.
    maps = []

    def solve(*args, **kwargs):
        maps.append(counting(solve_poisson(*args, **kwargs)))
        return maps[-1]

    monkeypatch.setattr(cli, "solve_poisson", solve)
    argv = ["solve", "--psi", "z", "--g", "1", "--points", "0.1, 0.9995, 0.3j, -0.5"]
    code, doc = run_json(capsys, argv)
    assert code == 0
    assert maps[0].calls == [("values", 1 + 3 * 5)]
    assert [row["residual"] is None for row in doc["reports"]] == [False, True, False, False]
    # The values and residuals are those of separate calls.
    m = solve_poisson("z", "1")
    pts = np.array([0.1, 0.9995, 0.3j, -0.5])
    assert [row["value"]["re"] for row in doc["reports"]] == m.values(pts).real.tolist()
    inner = pts[[0, 2, 3]]
    assert ([doc["reports"][i]["residual"] for i in (0, 2, 3)]
            == laplacian_residual(m, "1", inner).tolist())


@pytest.mark.parametrize("name,param,message", [
    ("kalaj_extremal", "series_degree=12.5",
     "catalog parameter series_degree must be an integer, got '12.5'"),
    ("scale", "c=abc", "catalog parameter c must be a complex number, got 'abc'"),
    ("example13", "alpha=x", "catalog parameter alpha must be a real number, got 'x'"),
])
def test_a_malformed_catalog_number_names_its_parameter(capsys, name, param, message):
    code = cli.main(["analyze", "--catalog", name, "--param", param, "--points", "0.5"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (cli.EXIT_USAGE, "")
    assert message in captured.err


def test_unknown_catalog_parameter_is_usage_error(capsys):
    assert cli.main(["analyze", "--catalog", "scale",
                     "--param", "zoom=2"]) == 2
    assert cli.main(["analyze", "--catalog", "kalaj_extremal",
                     "--param", "Q=2"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("name,params,message", [
    ("scale", ["c=1,2"], "catalog parameter c takes one number"),
    ("moebius", ["a=0.1,0.2"], "catalog parameter a takes one number"),
    ("kalaj_extremal", ["R=1,2"], "catalog parameter R takes one number"),
    ("kalaj_extremal", ["series_degree=12,24"], "catalog parameter series_degree takes"),
    ("example13", ["alpha=0.1,0.2"], "catalog parameter alpha takes one number"),
    ("polyharmonic", ["a=0.5", "b=0"], None),
    ("polyharmonic", ["a=0,1", "b=0.25"], None),
])
def test_catalog_parameters_take_lists_and_numbers_as_declared(capsys, name, params,
                                                                message):
    # A number parameter given a list once died with a TypeError (exit 1),
    # and a list parameter given one value iterated its characters (exit 2).
    argv = ["analyze", "--catalog", name, "--points", "0.5"]
    for param in params:
        argv += ["--param", param]
    code = cli.main(argv)
    captured = capsys.readouterr()
    if message is not None:
        assert (code, captured.out) == (cli.EXIT_USAGE, "")
        assert message in captured.err
        return
    assert code == 0
    # The same series with a trailing zero coefficient on each list.
    padded = [x for param in params for x in ("--param", param + ",0")]
    code, doc = run_json(capsys, [*argv[:5], *padded])
    assert code == 0
    assert json.loads(captured.out)["reports"] == doc["reports"]


@pytest.mark.parametrize("pairs", ["0.1:1.2", "0.1:0.1,0.2:0.3"])
def test_pair_checks_reject_exterior_and_coincident_pairs(capsys, pairs):
    thm11 = ["check-thm11", "--map", "z", "--omega", "t", "--alpha", "0.5",
             "--C1", "10", "--C2", "100", "--pairs", pairs]
    prop14 = ["check-prop14", "--map", "z", "--C3", "1.5", "--pairs", pairs]
    assert cli.main(thm11) == 2
    assert cli.main(prop14) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error: ") == 2


def test_zero_power_of_a_vanishing_base_is_one(capsys):
    # z^0 = 1 also at z = 0, as the constant term "1" is.
    for map_src in ("z + z^0", "z + 1"):
        code, doc = run_json(capsys, ["check-prop14", "--map", map_src,
                                      "--C3", "1.5", "--pairs", "0:0.5"])
        assert code == 0
        assert doc["reports"][0]["holds_on_sample"] is True


_THM11 = ["--omega", "t", "--alpha", "0.5", "--C1", "10", "--C2", "100", "--line-nodes", "5"]


@pytest.mark.parametrize("argv", [
    ["frontier", "--map", "z", "--K", "nan"],
    ["bounds", "--catalog", "identity", "--K", "nan"],
    ["bounds", "--catalog", "identity", "--K", "1", "--Kprime", "nan"],
    ["bounds", "--catalog", "identity", "--R", "nan"],
    ["bounds", "--catalog", "identity", "--points", "nan"],
    ["bounds", "--catalog", "scale", "--param", "c=nan"],
    ["bounds", "--catalog", "polyharmonic", "--param", "a=0,1", "--param", "b=0,inf"],
    ["check-thm11", "--map", "z", *_THM11[:4], "--C1", "nan", *_THM11[6:], "--pairs", "0.1:0.2"],
    ["check-thm11", "--map", "z", *_THM11, "--pairs", "nan:0.2j"],
    ["check-prop14", "--map", "z", "--C3", "1.5", "--pairs", "nan:0.2"],
    ["length", "--kind", "radial", "--map", "z", "--theta", "nan"],
    ["solve", "--psi", "z", "--residual-h", "nan"],
    ["analyze", "--map", "z", "--K", "nan"],
    ["analyze", "--map", "z", "--K=-inf"],
    ["analyze", "--map", "z", "--points", "0.1, inf"],
    ["frontier", "--map", "z", "--max-radius", "1e999"],
], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
def test_non_finite_numbers_are_usage_errors(capsys, argv):
    # Each once exited 3 ("numerical failure"), exited 0 printing nan, or
    # exited 2 with an unrelated message.
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects a flag's value
        code = exc.code
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE
    assert captured.out == ""
    assert "finite" in captured.err


def test_no_cli_path_imports_scipy():
    # Every CLI call is a fresh process that pays for each module it imports;
    # the package and these three reports need numpy and nothing heavier.
    argvs = [
        ["bounds", "--catalog", "polyharmonic", "--param", "a=0,1", "--param", "b=0,0,0.3",
         "--K", "4", "--radial-count", "8", "--angular-count", "16"],
        ["solve", "--psi", "z + 0.2*z^2", "--g", "abs(z)^2", "--points", "0.3, 0.5j"],
        ["check-thm11", "--map", "z + 0.1*conj(z)", "--omega", "t", "--alpha", "0.5",
         "--C1", "10", "--C2", "100", "--pairs", "0.1:0.5j", "--line-nodes", "5"],
    ]
    script = f"""
import contextlib, io, sys
import diskmaps
import diskmaps.cli
for argv in {argvs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert diskmaps.cli.main(argv) == 0, argv
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_bounds_says_when_the_measured_boundary_length_did_not_converge(capsys):
    # log(1-z) has an infinite boundary image length; the polyline's
    # extrapolations still print a finite R, so the provenance must say so.
    # Nor does the ray rule resolve its radial length.  Both stay unset, so
    # every row is indeterminate, as with --no-measure.
    code, doc = run_json(capsys, ["bounds", "--map", "log(1-z)", "--K", "2"])
    assert code == 0
    context = doc["config"]["context"]
    assert context["provenance"] == {"R": "boundary-polyline, not converged",
                                     "radial_sup": "angle-grid, not converged"}
    assert context["R"] is None and context["radial_sup"] is None
    assert {rep["status"] for rep in doc["reports"]} == {"indeterminate"}
    code, unmeasured = run_json(capsys, ["bounds", "--map", "log(1-z)", "--K", "2",
                                         "--no-measure"])
    assert unmeasured["reports"] == doc["reports"]
    code, doc = run_json(capsys, ["bounds", "--map", "z + 0.3*conj(z)^2", "--K", "4",
                                  "--radial-count", "8", "--angular-count", "16"])
    assert code == 0
    assert doc["config"]["context"]["provenance"]["R"] == "boundary-polyline"


@pytest.mark.parametrize("argv, flag, item", [
    (["coeffs", "--map", "z", "--radii", "0.5,,"], "--radii", "''"),
    (["length", "--map", "z", "--r", "0.5,abc"], "--r", "'abc'"),
])
def test_a_malformed_radius_list_names_its_flag(capsys, argv, flag, item):
    assert cli.main(argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag} ")
    assert item in captured.err


def test_radial_limit_says_whether_its_rays_converged(capsys):
    # log(1 - z) has infinite radial length at theta = 0: the extrapolated
    # capped value is finite but its rays are not converged.
    code, doc = run_json(capsys, ["length", "--map", "log(1-z)", "--kind", "radial-limit",
                                  "--theta", "0"])
    [rep] = doc["reports"]
    assert code == 0 and rep["type"] == "RadialLimit"
    assert rep["converged"] is False and np.isfinite(rep["value"])
    code, doc = run_json(capsys, ["length", "--catalog", "example15", "--kind",
                                  "radial-limit", "--theta", "0"])
    [rep] = doc["reports"]
    assert rep["converged"] is True and rep["value"] == pytest.approx(2.0, abs=1e-6)


def test_each_length_kind_keeps_its_own_default_node_count(capsys):
    affine = ["--map", "(1+0.2*i)*z + 0.3*conj(z)", "--r", "0.5"]
    _, doc = run_json(capsys, ["length", *affine, "--kind", "both"])
    assert [(r["kind"], r["node_count"]) for r in doc["reports"]] == [
        ("perimeter", 1024), ("radial", 33)]
    _, doc = run_json(capsys, ["length", *affine, "--kind", "both", "--nodes", "64"])
    assert [(r["kind"], r["node_count"]) for r in doc["reports"]] == [
        ("perimeter", 128), ("radial", 2 * 33)]

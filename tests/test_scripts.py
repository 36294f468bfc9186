"""The command-line scripts, run in-process on the shared catalog registry."""

import json
import re
import runpy
import shlex
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, name, *argv):
    main = runpy.run_path(str(SCRIPTS / name))["main"]
    monkeypatch.setattr(sys, "argv", [name, *argv])
    return main()


def test_bounds_regression_reports_no_violations(bounds_regression_run):
    run = bounds_regression_run
    assert run.code == 0
    assert "violation" not in run.err
    assert len(run.reports) == 8
    for path in run.reports:
        rows = json.loads(path.read_text())["reports"]
        assert all(row["status"] != "violated" for row in rows), path.name


def test_frontier_sweep_builds_kalaj_from_the_catalog(monkeypatch, capsys):
    run_script(monkeypatch, "frontier_sweep.py", "--catalog", "kalaj_extremal",
               "--param", "mu=0.5", "--k-count", "3", "--json")
    doc = json.loads(capsys.readouterr().out)
    assert doc["map"] == "kalaj_extremal"
    assert doc["parameters"]["mu"] == repr(((0.5 + 0j),))
    assert [K for K, _ in doc["samples"]] == [1.0, 2.0, 4.0]
    assert doc["dilatation_unbounded"] is False


def test_frontier_sweep_reads_params_like_the_cli(monkeypatch, capsys):
    # The script had its own --param parser, which kept the space in "c ".
    run_script(monkeypatch, "frontier_sweep.py", "--catalog", "scale",
               "--param", "c =1.5", "--k-count", "2", "--json")
    assert json.loads(capsys.readouterr().out)["parameters"] == {"c": repr(1.5 + 0j)}


def test_output_digest_hashes_every_benchmark_argv(monkeypatch, capsys):
    # syspath_prepend also undoes the script's own sys.path entries.
    monkeypatch.syspath_prepend(str(SCRIPTS.parent / "perfbench"))
    from workloads import WARMUP, WORKLOADS, generate

    assert run_script(monkeypatch, "output_digest.py", "--seeds", "1") == 0
    lines = capsys.readouterr().out.splitlines()
    argvs = {argv for workload in WORKLOADS for argv in WARMUP[workload]}
    for workload in WORKLOADS:
        for case in generate(workload, 1):
            argvs.add(case.argv)
            if case.oracle["kind"] == "twin":
                argvs.add(tuple(case.oracle["argv"]))
    argvs.update(runpy.run_path(str(SCRIPTS / "output_digest.py"))["EDGE_ARGVS"])
    assert len(lines) == len(argvs)
    assert all(re.fullmatch(r"[0-9a-f]{64} \S.*", line) for line in lines)
    assert {tuple(shlex.split(line[65:])) for line in lines} == argvs

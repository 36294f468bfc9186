"""The command-line scripts, run in-process on the shared catalog registry."""

import hashlib
import json
import re
import runpy
import shlex
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
DIGEST = Path(__file__).resolve().parent / "output_digest.txt"


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
    assert [line[:2] for line in lines[:2]] == ["# ", "# "]  # seeds and versions
    lines = lines[2:]
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


def test_output_digest_equals_the_committed_digest(monkeypatch, capsys):
    # Byte identity as a checked artifact: every argv of seeds 1-3 and every
    # edge case keeps its exit code, stdout and stderr.  A change that moves
    # bytes regenerates the file, whose diff then names the argvs.
    monkeypatch.syspath_prepend(str(SCRIPTS.parent / "perfbench"))
    committed = DIGEST.read_text().splitlines()
    assert run_script(monkeypatch, "output_digest.py") == 0
    fresh = capsys.readouterr().out.splitlines()
    recorded, running = committed[1][2:], fresh[1][2:]
    if recorded != running:
        pytest.fail(f"tests/output_digest.txt was made with {recorded}; this run has "
                    f"{running}, whose arithmetic may differ: regenerate it there")
    moved = sorted({line[65:] for line in set(fresh) ^ set(committed)})
    assert fresh == committed, f"{len(moved)} argvs moved: {moved}"


def test_every_workload_report_meets_its_oracle(monkeypatch):
    # The digest pins bytes; the benchmark's oracles (closed forms, 1-D
    # searches, closed-form twins) check the numbers of every report.
    monkeypatch.syspath_prepend(str(SCRIPTS.parent / "perfbench"))
    from oracles import check_report
    from workloads import WORKLOADS, generate

    run = runpy.run_path(str(SCRIPTS / "output_digest.py"))["run"]
    problems, count = [], 0
    for workload in WORKLOADS:
        for seed in (1, 2, 3):
            for case in generate(workload, seed):
                code, out, _ = run(case.argv)
                twin = run(case.oracle["argv"])[:2] if case.oracle["kind"] == "twin" else None
                count += 1
                problems += [f"{shlex.join(case.argv)}: {p}"
                             for p in check_report(case.oracle, code, out, twin).problems]
    assert count > 100
    assert problems == []


def test_compare_outputs_quantifies_moved_numbers(monkeypatch, capsys, tmp_path):
    def doc(argv, code, stdout, stderr=""):
        return json.dumps({"argv": argv, "code": code, "stdout": stdout, "stderr": stderr})

    old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
    old.write_text("\n".join([
        doc(["solve", "--g", "1"], 0, '{"value": 0.25, "residual": 1e-10}'),
        doc(["coeffs", "--map", "z"], 0, '{"a": [0, 1]}'),
        doc(["analyze", "--map", "exp(z"], 2, "", "error: bad input\n"),
        doc(["length", "--r", "0.5"], 0, '{"length": 3.0}'),
        doc(["check-prop14", "--g", "1/(z-0.5)"], 3, "", "numerical failure: nan\n"),
    ]) + "\n")
    new.write_text("\n".join([
        doc(["solve", "--g", "1"], 0, '{"value": 0.2500000000000001, "residual": 3e-10}'),
        doc(["coeffs", "--map", "z"], 0, '{"a": [0, 1]}'),
        doc(["analyze", "--map", "exp(z"], 3, "", "numerical failure\n"),
        doc(["length", "--r", "0.5"], 0, '{"length": 3.0, "converged": true}'),
        doc(["check-prop14", "--g", "1/(z-0.5)"], 0, '{"source_sup": 1509.57}'),
        doc(["frontier", "--K", "2"], 0, "{}"),
    ]) + "\n")
    assert run_script(monkeypatch, "compare_outputs.py", str(old), str(new)) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "abs 2.00e-10 rel 6.67e-01  code same  stderr same  solve --g 1",
        "abs 0.00e+00 rel 0.00e+00  code 2 -> 3  stderr moved  analyze --map 'exp(z'",
        "text moved  code same  stderr same  length --r 0.5",
        "text moved  code 3 -> 0  stderr moved  check-prop14 --g '1/(z-0.5)'",
        "only in new  frontier --K 2",
        "5 of 6 argvs moved",
    ]
    # A file against itself moves nothing.
    assert run_script(monkeypatch, "compare_outputs.py", str(old), str(old)) == 0
    assert capsys.readouterr().out == "0 of 5 argvs moved\n"


def test_compare_outputs_names_moves_of_signed_zeros_only(monkeypatch, capsys, tmp_path):
    def doc(argv, stdout):
        return json.dumps({"argv": argv, "code": 0, "stdout": stdout, "stderr": ""})

    old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
    old.write_text("\n".join([
        doc(["analyze", "--map", "1/z"], '{"dz": {"re": -6.25, "im": 0.0}, "dzbar": -0.0}'),
        doc(["coeffs", "--map", "z"], '{"a": [0.0, 1.0]}'),
        doc(["length", "--r", "0.5"], '{"length": 0.0, "nodes": 512}'),
    ]) + "\n")
    new.write_text("\n".join([
        doc(["analyze", "--map", "1/z"], '{"dz": {"re": -6.25, "im": -0.0}, "dzbar": 0.0}'),
        doc(["coeffs", "--map", "z"], '{"a": [0, 1.0]}'),
        doc(["length", "--r", "0.5"], '{"length": -0.0, "nodes": 513}'),
    ]) + "\n")
    assert run_script(monkeypatch, "compare_outputs.py", str(old), str(new)) == 1
    assert capsys.readouterr().out.splitlines() == [
        "signed zeros only  code same  stderr same  analyze --map 1/z",
        # Equal numbers printed otherwise, and a sign move beside a real one.
        "abs 0.00e+00 rel 0.00e+00  code same  stderr same  coeffs --map z",
        "abs 1.00e+00 rel 1.95e-03  code same  stderr same  length --r 0.5",
        "3 of 3 argvs moved",
    ]


def test_output_digest_documents_hash_to_the_digest(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(SCRIPTS.parent / "perfbench"))
    assert run_script(monkeypatch, "output_digest.py", "--seeds", "1") == 0
    hashes = capsys.readouterr().out.splitlines()[2:]
    assert run_script(monkeypatch, "output_digest.py", "--seeds", "1", "--documents") == 0
    docs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(docs) == len(hashes)
    for doc, line in zip(docs, hashes):
        text = f"{doc['code']}\n{doc['stdout']}\n{doc['stderr']}"
        assert line == f"{hashlib.sha256(text.encode()).hexdigest()} {shlex.join(doc['argv'])}"
    assert any(doc["code"] != 0 and doc["stderr"] for doc in docs)

#!/usr/bin/env python3
"""diskmaps benchmark: oracle-checked CLI reports in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One client drives the public entry point
`diskmaps.cli.main(argv)` in-process; the next report starts only after the
previous one returns.  A round is the workload's seeded argv list
(workloads.py); whole rounds repeat until S seconds have passed, and at
least twice, so every argv runs at least twice and its repeats must print
byte-identical output.  Every report is then checked against its oracle
(oracles.py), and a report counts as failed when its exit code differs,
it raises, its output changes between repeats, or a number misses its
oracle tolerance.

With --trace 0 the last line carries the end-to-end metrics; with
--trace 1 rounds alternate untraced and traced (tracing.py) and the last
line carries per-layer metrics, counts and times per traced round.  A
results file with the environment, every argv and every check outcome (and,
when traced, the spans) is written under perfbench/out/.
"""

import os

# One BLAS thread, fixed before numpy loads, so runs and commits compare
# like with like; the count is recorded with the results.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WARMUP, WORKLOADS, generate  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5
TAIL_BEYOND = 10


def load_cli():
    """Import diskmaps from this checkout's src/ (and from nowhere else)."""
    sys.path.insert(0, str(SRC))
    import diskmaps
    from diskmaps import cli

    if Path(diskmaps.__file__).resolve().parent != (SRC / "diskmaps").resolve():
        raise ImportError(f"diskmaps imported from {diskmaps.__file__}, not {SRC}")
    return cli


def run_report(cli, argv):
    """(exit code, standard output) of one in-process CLI invocation."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a failed report, not a dead run
            rc = f"raised {type(exc).__name__}: {exc}"
    return rc, out.getvalue()


def setup(workload):
    """Import, parser build and one warm-up pass; returns (seconds, cli)."""
    t0 = time.perf_counter()
    cli = load_cli()
    cli.build_parser()
    for argv in WARMUP[workload]:
        rc, _ = run_report(cli, argv)
        if rc != 0:
            raise RuntimeError(f"warm-up report {list(argv)} exited {rc!r}")
    return time.perf_counter() - t0, cli


def measure_setup(workload):
    """Median set-up time over fresh interpreters, and the samples."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples), samples


def tail(times):
    """(value, percentile): the highest integer percentile, by nearest rank,
    with at least TAIL_BEYOND samples above its rank."""
    xs = sorted(times)
    n = len(xs)
    for p in range(99, 0, -1):
        k = math.ceil(p * n / 100) - 1
        if n - 1 - k >= TAIL_BEYOND:
            return xs[k], p
    return xs[-1], 100


def loop(cli, cases, seconds, tracer=None):
    """Closed loop over whole rounds; returns the per-report records."""
    first, mismatched = {}, set()
    times, counts = [], [0] * len(cases)
    case_times = [[] for _ in cases]
    rounds = []  # (traced, seconds)
    report_id = 0
    start = time.perf_counter()
    while len(rounds) < 2 or time.perf_counter() - start < seconds:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        r0 = time.perf_counter()
        for i, case in enumerate(cases):
            if traced:
                tracer.begin_report(report_id)
            t0 = time.perf_counter()
            result = run_report(cli, case.argv)
            dt = time.perf_counter() - t0
            report_id += 1
            counts[i] += 1
            if not traced:
                times.append(dt)
                case_times[i].append(dt)
            if i not in first:
                first[i] = result
            elif result != first[i]:
                mismatched.add(i)
        rounds.append((traced, time.perf_counter() - r0))
        if traced:
            tracer.uninstall()
    return {"first": first, "mismatched": mismatched, "times": times,
            "counts": counts, "case_times": case_times, "rounds": rounds}


def check_cases(cli, cases, rec):
    """Oracle outcome per case; twins run here, outside the timed loop."""
    from oracles import check_report

    outcomes = []
    for i, case in enumerate(cases):
        twin = run_report(cli, case.oracle["argv"]) if case.oracle["kind"] == "twin" else None
        rc, out = rec["first"][i]
        ck = check_report(case.oracle, rc, out, twin)
        problems = list(ck.problems)
        if i in rec["mismatched"]:
            problems.append("output differs between repeats of the same argv")
        outcomes.append({"case": i, "kind": case.kind, "argv": list(case.argv),
                         "reports": rec["counts"][i], "oracle_err": ck.dev,
                         "times_s": rec["case_times"][i],
                         "problems": problems})
    return outcomes


def environment(seed):
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "blas_threads": int(BLAS_THREADS),
            "machine": platform.machine(), "seed": seed}


def _json_default(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _unit(name):
    if name.endswith("_frac") or name.endswith("report_share"):
        return "frac"
    if name.endswith("us_per_point"):
        return "us"
    if name.endswith("_s"):
        return "s/round"
    if name.endswith(".bytes"):
        return "B/round"
    if name.endswith(("jets_per_solve", "samples_per_point")):
        return "count"
    return "count/round"


def main(argv=None):
    ap = argparse.ArgumentParser(description="diskmaps benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=31.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        print(repr(setup(args.workload)[0]))
        return 0

    _, cli = setup(args.workload)
    setup_s, setup_samples = measure_setup(args.workload) if not args.trace else (None, [])
    cases = generate(args.workload, args.seed)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    rec = loop(cli, cases, args.seconds, tracer)
    outcomes = check_cases(cli, cases, rec)

    attempted = sum(rec["counts"])
    failed = sum(o["reports"] for o in outcomes if o["problems"])
    oracle_err = max(o["oracle_err"] for o in outcomes)
    plain = [r for r in rec["rounds"] if not r[0]]
    rate = len(cases) * len(plain) / sum(r[1] for r in plain)
    tail_s, tail_p = tail(rec["times"])
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": len(rec["rounds"]), "round_size": len(cases),
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        "oracle_err": oracle_err, "timed_reports": len(rec["times"]),
        "report_s.tail_percentile": tail_p, "setup_samples_s": setup_samples,
        "env": environment(args.seed),
    }
    if args.trace:
        from tracing import layer_metrics

        traced = [r for r in rec["rounds"] if r[0]]
        metrics = {k: (v, _unit(k)) for k, v in
                   layer_metrics(tracer.spans, len(traced)).items()}
        traced_rate = len(cases) * len(traced) / sum(r[1] for r in traced)
        metrics["trace.overhead_reports_per_s"] = (traced_rate - rate, "1/s")
        metrics["failed_frac"] = (failed / attempted, "frac")
        metrics["oracle_err"] = (oracle_err, "rel")
        details["untraced_reports_per_s"] = rate
        details["traced_reports_per_s"] = traced_rate
    else:
        metrics = {
            "report_s.p50": (statistics.median(rec["times"]), "s"),
            "report_s.tail": (tail_s, "s"),
            "reports_per_s": (rate, "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(stem.with_suffix(".spans.jsonl"))
    with open(stem.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump({"details": details, "metrics": metrics, "cases": outcomes,
                   "oracles": [c.oracle for c in cases]},
                  fh, indent=1, default=_json_default)

    for o in outcomes:
        for problem in o["problems"]:
            print(f"FAILED case {o['case']} ({o['kind']}): {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({"details": details}, default=_json_default))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

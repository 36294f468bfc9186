#!/usr/bin/env python3
"""Print a digest of the CLI's output on every benchmark argv and edge case.

Each line is the sha256 of the exit code, standard output and standard
error of one in-process `diskmaps.cli.main(argv)` call, then the argv.  The
argvs are the warm-ups and every report of the benchmark workloads
(perfbench/workloads.py) at the given seeds, each followed by its
closed-form twin when it has one, and then the fixed error-path argvs of
EDGE_ARGVS.  Run it in two checkouts and diff the outputs to see whether a
change moves any byte a report or an error message prints:

    python3 scripts/output_digest.py [--seeds 1 2 3] > digest.txt

Python warnings (numpy overflow notices) are suppressed: they name source
files and line numbers, which differ between checkouts.  The diskmaps
package is imported from this checkout's src/.
"""

import argparse
import contextlib
import hashlib
import io
import shlex
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from diskmaps import cli  # noqa: E402
from workloads import WARMUP, WORKLOADS, generate  # noqa: E402

_THM11 = ("--omega", "t", "--alpha", "0.5", "--C1", "10", "--C2", "100", "--line-nodes", "5")
_FAILING = "z + 0*exp(exp(exp(100*(abs(z) - 0.85))))"

# Singular points, poles, bad input and failing scans: each must keep its
# exit code and message.
EDGE_ARGVS = (
    ("analyze", "--map", "log(z)", "--points", "0"),
    ("analyze", "--map", "1/z + abs(z)", "--points", "0"),
    ("analyze", "--map", "z^-2 + pow(z, 0.5)", "--points", "0"),
    ("analyze", "--map", "abs(z)^3", "--points", "0"),
    ("analyze", "--catalog", "example13", "--param", "alpha=0.25", "--points", "0, 0.5"),
    ("analyze", "--psi", "z", "--g", "1", "--points", "1.2, 0.5"),
    ("solve", "--psi", "z", "--g", "1", "--points", "1.2"),
    ("check-thm11", "--map", "1/(z-0.5)", *_THM11, "--pairs", "0.1:0.5"),
    ("check-thm11", "--catalog", "example13", "--param", "alpha=0.25", *_THM11,
     "--pairs", "0:0.5"),
    ("check-prop14", "--psi", "z", "--g", "1/(z-0.5)", "--C3", "1", "--pairs", "0.5:0.1"),
    ("length", "--map", "1/(z-0.5)", "--r", "0.5"),
    ("length", "--kind", "boundary", "--map", "1/(z-0.99609375)"),
    ("coeffs", "--map", "1/(z-0.4)"),
    ("check-thm11", "--map", "exp(exp(exp(40*z)))", *_THM11, "--pairs", "0.9:0.95"),
    ("check-thm11", "--map", "z", *_THM11, "--pairs", "0.1:0.1"),
    ("check-prop14", "--map", "z", "--C3", "1", "--pairs", "0.1:1.5"),
    ("check-prop14", "--map", "z", "--C3", "1", "--pairs", ","),
    ("analyze", "--map", "z", "--patch-radius", "0.1"),
    ("analyze", "--map", "exp(z"),
    ("bounds", "--map", _FAILING, "--K", "1", "--R", "1", "--radial-sup", "1"),
    ("frontier", "--map", _FAILING, "--K", "1"),
    ("analyze", "--map", "pow(z, 1e200*1e200)"),
    ("analyze", "--map", "+".join(["z"] * 3000)),
    ("frontier", "--catalog", "scale", "--param", "c =1.5", "--K", "1"),
)


def argvs(seeds):
    """Distinct argvs of every workload, in first-seen order, then the edges."""
    seen = {}
    for workload in WORKLOADS:
        seen.update(dict.fromkeys(WARMUP[workload]))
        for seed in seeds:
            for case in generate(workload, seed):
                seen[case.argv] = None
                if case.oracle["kind"] == "twin":
                    seen[tuple(case.oracle["argv"])] = None
    seen.update(dict.fromkeys(EDGE_ARGVS))
    return list(seen)


def digest(argv):
    """sha256 hex of the exit code, standard output and error of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is part of the output being compared
            code = f"raised {type(exc).__name__}: {exc}"
    text = f"{code}\n{out.getvalue()}\n{err.getvalue()}"
    return hashlib.sha256(text.encode()).hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = ap.parse_args()
    for argv in argvs(args.seeds):
        print(digest(argv), shlex.join(argv))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Print a digest of the CLI's output on every benchmark argv and edge case.

After two comment lines naming the seeds and the Python and numpy versions
(whose arithmetic the hashes record; no CLI path imports scipy), each line
is the sha256 of the exit code, standard output and standard error of one
in-process `diskmaps.cli.main(argv)` call, then the argv.  The argvs are
the warm-ups and every report of the benchmark workloads
(perfbench/workloads.py) at the given seeds, each followed by its
closed-form twin when it has one, and then the fixed edge-case argvs of
EDGE_ARGVS.  Run it in two checkouts and diff the outputs to see whether a
change moves any byte a report or an error message prints:

    python3 scripts/output_digest.py [--seeds 1 2 3] > digest.txt

The digest of seeds 1-3 is committed as tests/output_digest.txt, and a
test recomputes it.  A change that moves bytes regenerates it with

    python3 scripts/output_digest.py > tests/output_digest.txt

With --documents each line is instead a JSON object with the argv, the exit
code, standard output and standard error themselves;
scripts/compare_outputs.py reads two such files and says by how much the
numbers of each moved argv changed.

Python warnings (numpy overflow notices) are suppressed: they name source
files and line numbers, which differ between checkouts.  The diskmaps
package is imported from this checkout's src/.
"""

import argparse
import contextlib
import hashlib
import io
import json
import platform
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
_SOLVE_POINTS = "0, 0.3, 0.25+0.1j, -0.6j, 0.95"
_LAST_BIT = "0.28687997040785324-0.0768692563954489j"

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
    # Sources that leave the Green potential unresolved: the checks are
    # indeterminate, and a pole on the circle also makes source_sup inf.
    ("check-prop14", "--psi", "z", "--g", "1/(z-1)", "--C3", "1", "--pairs", "0.5:0.1"),
    ("check-thm11", "--psi", "z", "--g", "pow(abs(z-0.5), -0.5)", *_THM11,
     "--pairs", "0.1:0.3j"),
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
    # Isolated failures a scan skips: the ray theta = 0, 96 of the 18,432
    # base points, is nan.
    ("frontier", "--map", "z + 0.3*conj(z)^2 + 0*log(abs(z) - re(z))", "--K", "1"),
    ("analyze", "--map", "pow(z, 1e200*1e200)"),
    ("analyze", "--map", "+".join(["z"] * 3000)),
    ("frontier", "--catalog", "scale", "--param", "c =1.5", "--K", "1"),
    ("bounds", "--map", _FAILING, "--K", "1", "--R", "1", "--radial-sup", "1",
     "--points", "0.9, 0.95, 0.99, 0.1"),
    ("bounds", "--map", _FAILING, "--K", "1", "--R", "1", "--radial-sup", "1",
     "--points", "0.9, 0.95, 0.99, 0.1", "--per-point"),
    # An infinite boundary image length and radial length: R and radial_sup
    # are measured but not converged.
    ("bounds", "--map", "log(1-z)", "--K", "2"),
    ("length", "--map", "log(1-z)", "--kind", "sup-radial"),
    ("length", "--map", "log(1-z)", "--kind", "radial", "--r", "1", "--theta", "0"),
    ("length", "--map", "log(1-z)", "--kind", "radial-limit", "--theta", "0"),
    # The derivative rows on the default grid, where every ring of the
    # identity ties.
    ("bounds", "--catalog", "identity", "--K", "1"),
    # Poisson maps at the two ends of the chop: boundary data with no noise
    # plateau (all 256 modes kept) and a source with a wide angular band.
    ("solve", "--psi", "abs(re(z))", "--g", "1", "--points", _SOLVE_POINTS),
    ("solve", "--psi", "z", "--g", "exp(-50*abs(z-0.3)^2)", "--points", _SOLVE_POINTS),
    # A kink that the Green panels split toward, from 3 starting panels: its
    # panel edges depend on the split limit (a count of halvings per panel).
    ("solve", "--psi", "z", "--g", "pow(abs(z-0.2), 0.5)", "--radial-nodes", "48",
     "--points", "0.3, 0.01j, 0.9"),
    # The band read's other branches: a band of K = 26 accepted at 128
    # angles (15 panels), modes that only the check angles see (N goes to the
    # cap of 256), and panels split dyadically toward 0 (61 of them).
    ("solve", "--psi", "z", "--g", "exp(-400*abs(z-0.06)^2)", "--points", _SOLVE_POINTS),
    ("solve", "--psi", "z", "--g", "1 + re(z^64)", "--points", _SOLVE_POINTS),
    ("solve", "--psi", "z", "--g", "log(abs(z))", "--points", _SOLVE_POINTS),
    # Boundary data and a source that are not finite where they are sampled.
    ("frontier", "--psi", "1/(z-1)", "--g", "1", "--K", "1"),
    ("solve", "--psi", "z", "--g", "1 + 0*log(abs(z) - re(z))", "--points", "0.5"),
    # Finite samples whose Fourier transform overflows.
    ("solve", "--psi", "1e308*z", "--g", "1", "--points", "0.5"),
    ("solve", "--psi", "z", "--g", "1e308*z", "--points", "0.5"),
    # A point where a scalar abs and np.abs differ in the last bit: analyze's
    # op_norm and the derivative lhs of bounds print the same 0.594.
    ("analyze", "--map", "z^2", "--points", _LAST_BIT),
    ("bounds", "--map", "z^2", "--K", "1", "--R", "2", "--per-point", "--points", _LAST_BIT),
    # Chord preimages that take Newton steps at the default line nodes (every
    # workload check-thm11 map is affine or near the identity), and a pole at
    # one of the points of a per-point report and of a pair check.
    ("check-thm11", "--map", "z + 0.3*conj(z)^2 + 0.1*z^3", *_THM11[:-2],
     "--pairs", "0.1:0.6j,-0.5:0.4+0.3j,0.7:-0.7"),
    ("analyze", "--map", "1/(z-0.5)", "--points", "0.1, 0.5"),
    ("check-prop14", "--map", "0.5*z + 1/(z-0.9)", "--C3", "1.5", "--pairs", "0.1:0.9"),
    # Non-finite numbers in float flags, points, pairs and catalog parameters
    # are usage errors (exit 2).
    ("frontier", "--map", "z", "--K", "nan"),
    ("bounds", "--catalog", "identity", "--K", "nan"),
    ("bounds", "--catalog", "identity", "--K", "1", "--Kprime", "nan"),
    ("bounds", "--catalog", "identity", "--R", "nan"),
    ("bounds", "--catalog", "identity", "--points", "nan"),
    ("bounds", "--catalog", "scale", "--param", "c=nan"),
    ("check-thm11", "--map", "z", *_THM11[:4], "--C1", "nan", *_THM11[6:],
     "--pairs", "0.1:0.2"),
    ("check-thm11", "--map", "z", *_THM11, "--pairs", "nan:0.2j"),
    ("check-prop14", "--map", "z", "--C3", "1.5", "--pairs", "nan:0.2"),
    ("length", "--kind", "radial", "--map", "z", "--theta", "nan"),
    ("solve", "--psi", "z", "--residual-h", "nan"),
    ("analyze", "--map", "z", "--K", "nan"),
    ("analyze", "--map", "z", "--points", "inf"),
) + tuple(
    # Length scans on each kind of map: DSL, catalog series, a map singular
    # only at 0 (the endpoint rule) and a Poisson map; sup-perimeter is in no
    # workload.
    ("length", *source, "--kind", kind, "--radial-count", "12", "--angular-count", "16")
    for kind in ("sup-radial", "sup-perimeter")
    for source in (
        ("--map", "z + 0.3*conj(z)^2 + 0.1*z*abs(z)^2"),
        ("--catalog", "polyharmonic", "--param", "a=0,1,0.2", "--param", "b=0,0.3"),
        ("--catalog", "example13", "--param", "alpha=0.25"),
        ("--psi", "z + 0.2*z^2", "--g", "abs(z)^2", "--radial-nodes", "32",
         "--angular-nodes", "32"),
    )
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


def run(argv):
    """Exit code, standard output and standard error of one CLI call."""
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
    return code, out.getvalue(), err.getvalue()


def digest(argv):
    """sha256 hex of the exit code, standard output and error of one CLI call."""
    code, out, err = run(argv)
    text = f"{code}\n{out}\n{err}"
    return hashlib.sha256(text.encode()).hexdigest()


def header(seeds):
    """The digest's comment lines: its seeds and the versions whose
    arithmetic it records."""
    import numpy

    return [
        f"# scripts/output_digest.py --seeds {' '.join(map(str, seeds))}",
        f"# python {platform.python_version()} numpy {numpy.__version__}",
    ]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--documents", action="store_true",
                    help="print each call's exit code, stdout and stderr as a JSON line")
    args = ap.parse_args()
    if not args.documents:
        print("\n".join(header(args.seeds)))
    for argv in argvs(args.seeds):
        if args.documents:
            code, out, err = run(argv)
            print(json.dumps({"argv": list(argv), "code": code, "stdout": out, "stderr": err}))
        else:
            print(digest(argv), shlex.join(argv))
    return 0


if __name__ == "__main__":
    sys.exit(main())

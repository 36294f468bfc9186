#!/usr/bin/env python3
"""Print a digest of the CLI's output on every benchmark argv.

Each line is the sha256 of the exit code and standard output of one
in-process `diskmaps.cli.main(argv)` call, then the argv.  The argvs are
the warm-ups and every report of the benchmark workloads
(perfbench/workloads.py) at the given seeds, each followed by its
closed-form twin when it has one.  Run it in two checkouts and diff the
outputs to see whether a change moves any byte a report prints:

    python3 scripts/output_digest.py [--seeds 1 2 3] > digest.txt

The diskmaps package is imported from this checkout's src/.
"""

import argparse
import contextlib
import hashlib
import io
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from diskmaps import cli  # noqa: E402
from workloads import WARMUP, WORKLOADS, generate  # noqa: E402


def argvs(seeds):
    """Distinct argvs of every workload, in first-seen order."""
    seen = {}
    for workload in WORKLOADS:
        seen.update(dict.fromkeys(WARMUP[workload]))
        for seed in seeds:
            for case in generate(workload, seed):
                seen[case.argv] = None
                if case.oracle["kind"] == "twin":
                    seen[tuple(case.oracle["argv"])] = None
    return list(seen)


def digest(argv):
    """sha256 hex of the exit code and standard output of one CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is part of the output being compared
            code = f"raised {type(exc).__name__}: {exc}"
    return hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = ap.parse_args()
    for argv in argvs(args.seeds):
        print(digest(argv), shlex.join(argv))
    return 0


if __name__ == "__main__":
    sys.exit(main())

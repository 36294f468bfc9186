#!/usr/bin/env python3
"""Say by how much the numbers of two output-document files differ.

OLD and NEW are files written by `scripts/output_digest.py --documents` in
two checkouts.  For each argv whose exit code, standard output or standard
error moved, one line gives the largest absolute and relative change among
the numbers of its standard output, its exit code (`same`, or `3 -> 0` where
it moved), whether its standard error moved, and the argv:

    python3 scripts/compare_outputs.py old.jsonl new.jsonl

Numbers are compared in order of appearance.  Where the text around them
moved too (a key, a flag or a message), the line says "text moved" instead
of the number changes, and where only zeros changed sign (0.0 and -0.0),
"signed zeros only".  The relative change of a pair is
|new - old| / max(|old|, |new|).  Exits 1 when any argv moved or appears in
only one file, else 0.
"""

import argparse
import json
import re
import shlex
import sys

# Decimal numbers as Python and JSON print them: 3, -0.25, 1e-12, 2.5E+3.
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def read(path):
    """argv tuple -> document, in file order."""
    with open(path) as fh:
        docs = (json.loads(line) for line in fh if line.strip())
        return {tuple(doc["argv"]): doc for doc in docs}


def number_change(old: str, new: str):
    """(largest absolute change, largest relative change) between the numbers
    of two texts, or None where the text around the numbers differs."""
    if NUMBER.sub("#", old) != NUMBER.sub("#", new):
        return None
    worst_abs = worst_rel = 0.0
    for a, b in zip(NUMBER.findall(old), NUMBER.findall(new)):
        x, y = float(a), float(b)
        change = abs(y - x)
        worst_abs = max(worst_abs, change)
        if change:
            worst_rel = max(worst_rel, change / max(abs(x), abs(y)))
    return worst_abs, worst_rel


def signed_zeros_only(old: str, new: str) -> bool:
    """True where two different texts differ only in the sign of zeros:
    every pair of numbers is equal, and each unequally printed pair is a
    zero printed with another sign."""
    if old == new or NUMBER.sub("#", old) != NUMBER.sub("#", new):
        return False
    pairs = zip(NUMBER.findall(old), NUMBER.findall(new))
    return all(a == b or (float(a) == float(b) == 0.0 and a.lstrip("+-") == b.lstrip("+-"))
               for a, b in pairs)


def describe(old: dict, new: dict) -> str:
    change = number_change(old["stdout"], new["stdout"])
    if change is None:
        numbers = "text moved"
    elif signed_zeros_only(old["stdout"], new["stdout"]):
        numbers = "signed zeros only"
    else:
        numbers = f"abs {change[0]:.2e} rel {change[1]:.2e}"
    code = f"{old['code']} -> {new['code']}" if old["code"] != new["code"] else "same"
    stderr = "moved" if old["stderr"] != new["stderr"] else "same"
    return f"{numbers}  code {code}  stderr {stderr}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old")
    ap.add_argument("new")
    args = ap.parse_args()
    old, new = read(args.old), read(args.new)
    moved = 0
    for argv in list(old) + [argv for argv in new if argv not in old]:
        if argv not in old or argv not in new:
            print(f"only in {'new' if argv in new else 'old'}  {shlex.join(argv)}")
        elif old[argv] != new[argv]:
            print(f"{describe(old[argv], new[argv])}  {shlex.join(argv)}")
        else:
            continue
        moved += 1
    print(f"{moved} of {len(set(old) | set(new))} argvs moved")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())

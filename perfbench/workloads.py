"""Seeded argv mixes for the benchmark workloads.

A workload is one round: a fixed list of report slots.  The seed picks the
numbers inside each slot (coefficients, points, radii, constants); it never
changes which subcommands run or how many points each one evaluates, so the
cost of a round, and with it every timing, is the same for every seed.
Each slot carries the oracle its report is checked against (see oracles.py).

Green workloads build Poisson maps f = P - G[S] from a harmonic polynomial
P and a source S whose Green potential G has a closed form, so every such
report has a closed-form `--map` twin.  Only default quadrature flags are
used, so the argvs stay valid when the quadrature options change.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

@dataclass(frozen=True)
class Case:
    """One report of a round: the argv the program sees and its oracle."""

    kind: str
    argv: Tuple[str, ...]
    oracle: Dict[str, object]


# --- number formatting ---------------------------------------------------------


def _r(x: float) -> float:
    return round(float(x), 4) + 0.0  # + 0.0 turns -0.0 into 0.0


def _c(z: complex) -> complex:
    return complex(_r(z.real), _r(z.imag))


def dsl_complex(z: complex) -> str:
    """A complex constant in the expression DSL, e.g. (0.1-0.25*i)."""
    sign = "-" if z.imag < 0 else "+"
    return f"({z.real!r}{sign}{abs(z.imag)!r}*i)"


def cli_complex(z: complex) -> str:
    """A complex number as the CLI's --points/--pairs/--param parse it.

    Lists of these may start with a minus sign, so they are passed as
    --points=... and --pairs=... to keep argparse from reading an option.
    """
    sign = "-" if z.imag < 0 else "+"
    return f"{z.real!r}{sign}{abs(z.imag)!r}j"


def _disk_point(rng: random.Random, r_lo: float, r_hi: float) -> complex:
    r = r_lo + (r_hi - r_lo) * rng.random()
    t = 2.0 * math.pi * rng.random()
    return _c(complex(r * math.cos(t), r * math.sin(t)))


def _cplx(rng: random.Random, scale: float) -> complex:
    return _c(complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale)))


# --- Poisson maps with closed-form Green potentials ---------------------------

# Source templates: ("abs", k) is S = c |z|^(2k), ("re", 1) is S = c re(z).


def source_dsl(kind: str, k: int, c: float) -> str:
    if kind == "re":
        return f"{c!r}*re(z)"
    return f"{c!r}" if k == 0 else f"{c!r}*abs(z)^{2 * k}"


def green_dsl(kind: str, k: int, c: float) -> str:
    """Closed-form G[S]: Laplacian -S, zero on the unit circle."""
    if kind == "re":
        return f"{c!r}*re(z)*(1 - z*conj(z))/8"
    return f"{c!r}*(1 - (z*conj(z))^{k + 1})/{(2 * k + 2) ** 2}"


def _poisson_map(rng: random.Random, source: Tuple[str, int]) -> Dict[str, object]:
    """Boundary data P = z + a2 z^2 + b1 conj(z) and a source c S.

    Coefficient ranges keep f = P - G[S] close to the identity (|f_z - 1| +
    |f_zbar| < 1 on the disk), so it is sense-preserving and injective and
    the Newton inversions of check-thm11 converge.
    """
    a2, b1 = _cplx(rng, 0.07), _cplx(rng, 0.1)
    c = _r(rng.uniform(0.2, 0.5))
    kind, k = source
    psi = f"z + {dsl_complex(a2)}*z^2 + {dsl_complex(b1)}*conj(z)"
    return {"a2": a2, "b1": b1, "c": c, "source": kind, "k": k, "psi": psi,
            "g": source_dsl(kind, k, c), "G": green_dsl(kind, k, c)}


def _green_case(kind: str, head: List[str], pm: Dict[str, object],
                tail: List[str]) -> Case:
    argv = tuple(head + ["--psi", pm["psi"], "--g", pm["g"]] + tail)
    twin = tuple(head + ["--map", f"{pm['psi']} - ({pm['G']})"] + tail)
    return Case(kind, argv, {"kind": "twin", "argv": twin})


# --- catalog-scan --------------------------------------------------------------


def _affine(rng: random.Random, lo: float, hi: float) -> Tuple[complex, complex]:
    """f = A z + B conj(z) with lo <= |B|/|A| <= hi: sense-preserving, injective."""
    A = _c(complex(rng.uniform(0.8, 1.5), rng.uniform(-0.5, 0.5)))
    t = rng.uniform(0.0, 2.0 * math.pi)
    return A, _c(abs(A) * rng.uniform(lo, hi) * complex(math.cos(t), math.sin(t)))


def _monomial(j: int, k: int) -> str:
    parts = [base if n == 1 else f"{base}^{n}"
             for base, n in (("z", j), ("conj(z)", k)) if n]
    return "*".join(parts)


# The eight bound contexts of acceptance criterion 12, each with the least K
# for which the map is K-quasiregular.
BOUNDS_CONTEXTS = (
    (("--catalog", "identity"), 1.0),
    (("--catalog", "scale", "--param", "c=1.5"), 1.0),
    (("--catalog", "moebius", "--param", "a=0.5"), 1.0),
    (("--catalog", "moebius", "--param", "a=0.3+0.2j", "--param", "t=0.7"), 1.0),
    (("--catalog", "polyharmonic", "--param", "a=0,1", "--param", "b=0,0,0.3"), 4.0),
    (("--catalog", "polyharmonic", "--param", "a=0,1,0,0.1",
      "--param", "b=0,0,0.25"), 6.0),
    (("--catalog", "kalaj_extremal", "--param", "R=1.0", "--param", "mu=0.0",
      "--param", "series_degree=12"), 1.0),
    (("--catalog", "kalaj_extremal", "--param", "R=1.0", "--param", "mu=0.5",
      "--param", "series_degree=24"), 3.0),
)

# Monomials z^j conj(z)^k of the analyze maps.
ANALYZE_TERMS = ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 1))


def _catalog_scan(rng: random.Random) -> List[Case]:
    cases: List[Case] = []
    for _ in range(2):
        Ks = sorted({1.0, _r(rng.uniform(1.2, 4.0))})
        argv = ["frontier", "--catalog", "example15"]
        for K in Ks:
            argv += ["--K", repr(K)]
        cases.append(Case("frontier-example15", tuple(argv),
                          {"kind": "example15-frontier", "K": Ks}))
    for _ in range(2):
        c = _c(complex(rng.uniform(-0.25, 0.25), rng.uniform(-0.25, 0.25)))
        K = _r(rng.uniform(1.0, 3.0))
        argv = ("frontier", "--map", f"z + {dsl_complex(c)}*conj(z)^2", "--K", repr(K))
        cases.append(Case("frontier-shear", argv,
                          {"kind": "shear-frontier", "c": c, "K": [K]}))
    for src, K in BOUNDS_CONTEXTS:
        K = _r(K * rng.uniform(1.0, 1.5))
        Kp = _r(rng.uniform(0.0, 0.5))
        argv = ("bounds",) + src + ("--K", repr(K), "--Kprime", repr(Kp))
        cases.append(Case("bounds", argv, {"kind": "bounds-hold"}))
    for _ in range(2):
        deg = rng.randint(2, 8)
        a = [_c(complex(rng.gauss(0, 1), rng.gauss(0, 1))) for _ in range(deg + 1)]
        b = [0j] + [_c(complex(rng.gauss(0, 1), rng.gauss(0, 1))) for _ in range(deg)]
        argv = ("coeffs", "--catalog", "polyharmonic",
                "--param", "a=" + ",".join(cli_complex(v) for v in a),
                "--param", "b=" + ",".join(cli_complex(v) for v in b))
        cases.append(Case("coeffs-series", argv,
                          {"kind": "series-coeffs", "a": a, "b": b}))
    a = _disk_point(rng, 0.2, 0.6)
    t = _r(rng.uniform(0.0, 2.0 * math.pi))
    argv = ("coeffs", "--catalog", "moebius", "--param", f"a={cli_complex(a)}",
            "--param", f"t={t!r}")
    cases.append(Case("coeffs-moebius", argv, {"kind": "moebius-coeffs", "a": a, "t": t}))
    theta = _r(rng.uniform(0.0, 2.0 * math.pi))
    cases.append(Case("length-radial-limit",
                      ("length", "--catalog", "example15", "--kind", "radial-limit",
                       "--theta", repr(theta)),
                      {"kind": "radial-limit", "value": 2.0}))
    A, B = _affine(rng, 0.1, 0.5)
    affine = f"{dsl_complex(A)}*z + {dsl_complex(B)}*conj(z)"
    radii = sorted({_r(rng.uniform(0.2, 0.95)) for _ in range(2)})
    r_arg = ",".join(repr(r) for r in radii)
    for kind, extra in (("perimeter", ["--r", r_arg]),
                        ("radial", ["--r", r_arg, "--theta", repr(theta)]),
                        ("boundary", []), ("sup-radial", [])):
        argv = ("length", "--map", affine, "--kind", kind, *extra)
        cases.append(Case(f"length-{kind}", argv,
                          {"kind": "affine-length", "A": A, "B": B, "length": kind,
                           "radii": radii, "theta": theta}))
    for _ in range(2):
        terms = [(j, k, _cplx(rng, 0.3)) for j, k in ANALYZE_TERMS]
        terms[0] = (1, 0, _c(complex(1.0, 0.0) + _cplx(rng, 0.2)))
        expr = " + ".join(f"{dsl_complex(c)}*{_monomial(j, k)}" for j, k, c in terms)
        points = [_disk_point(rng, 0.05, 0.9) for _ in range(8)]
        K = _r(rng.uniform(1.0, 3.0))
        argv = ("analyze", "--map", expr,
                "--points=" + ",".join(cli_complex(p) for p in points), "--K", repr(K))
        cases.append(Case("analyze", argv, {"kind": "poly-analyze", "terms": terms,
                                            "points": points, "K": K}))
    for omega in ("t", "pow(t, 0.5)"):
        A, B = _affine(rng, 0.0, 0.4)
        pairs = [(_disk_point(rng, 0.05, 0.8), _disk_point(rng, 0.05, 0.8))
                 for _ in range(3)]
        alpha = _r(rng.uniform(0.2, 0.8))
        C1, C2 = _r(rng.uniform(2.0, 6.0)), _r(rng.uniform(1.0, 4.0))
        argv = ("check-thm11", "--map", f"{dsl_complex(A)}*z + {dsl_complex(B)}*conj(z)",
                "--omega", omega, "--alpha", repr(alpha), "--C1", repr(C1),
                "--C2", repr(C2),
                "--pairs=" + ",".join(f"{cli_complex(p)}:{cli_complex(q)}" for p, q in pairs))
        cases.append(Case("check-thm11", argv,
                          {"kind": "affine-thm11", "A": A, "B": B, "omega": omega,
                           "alpha": alpha, "C1": C1, "C2": C2, "pairs": pairs,
                           "line_nodes": 129}))
    c0 = _r(rng.uniform(0.0, 0.5))
    c2 = _r(rng.uniform(0.0, 3.0 * (0.95 - c0)))
    cases.append(Case("check-subharmonic",
                      ("check-subharmonic", "--phi", f"{c0!r} + {c2!r}*abs(z)^2"),
                      {"kind": "subharmonic", "c0": c0, "c2": c2}))
    return cases


# --- green-rings ---------------------------------------------------------------


def _green_rings(rng: random.Random) -> List[Case]:
    # Frontier and perimeter reports cost about the same (48 Green jets each)
    # and are 14 of the 16 reports, so the median and the tail fall inside
    # one cluster of report times; each kind keeps one source template
    # because the per-point cost depends on the source.
    C3 = _r(rng.uniform(1.0, 1.9))
    cases = [Case("check-prop14", ("check-prop14", "--catalog", "example15", "--C3", repr(C3)),
                  {"kind": "prop14-example15", "C3": C3})]
    for _ in range(8):
        Ks = sorted({1.0, _r(rng.uniform(1.2, 4.0))})
        tail = ["--radial-count", "2", "--angular-count", "8", "--refine-rounds", "0"]
        for K in Ks:
            tail += ["--K", repr(K)]
        cases.append(_green_case("frontier", ["frontier"], _poisson_map(rng, ("abs", 1)), tail))
    for _ in range(6):
        r = _r(rng.uniform(0.3, 0.9))
        cases.append(_green_case("length-perimeter", ["length"], _poisson_map(rng, ("abs", 0)),
                                 ["--kind", "perimeter", "--r", repr(r), "--nodes", "16"]))
    r = _r(rng.uniform(0.4, 0.9))
    cases.append(_green_case("coeffs", ["coeffs"], _poisson_map(rng, ("re", 1)),
                             ["--count", "8", "--radii", repr(r)]))
    return cases


# --- green-scattered -----------------------------------------------------------


def _points_arg(rng: random.Random, n: int, r_hi: float) -> Tuple[str, List[complex]]:
    pts = [_disk_point(rng, 0.05, r_hi) for _ in range(n)]
    return ",".join(cli_complex(p) for p in pts), pts


def _chord(rng: random.Random, half: float, r_hi: float) -> Tuple[complex, complex]:
    """A chord of length 2 half centred within r_hi of the origin."""
    c = _disk_point(rng, 0.0, r_hi)
    t = rng.uniform(0.0, 2.0 * math.pi)
    d = complex(half * math.cos(t), half * math.sin(t))
    return _c(c - d), _c(c + d)


def _green_scattered(rng: random.Random) -> List[Case]:
    # Report times form three clusters (analyze < solve < check-thm11); with
    # 1 + 6 + 3 reports the median sits in the upper half of the solve
    # cluster and the tail inside the check-thm11 cluster, away from the
    # cluster edges, where a shift in machine speed would move them most.
    cases: List[Case] = []
    for _ in range(6):
        pm = _poisson_map(rng, ("abs", 2))
        text, pts = _points_arg(rng, 6, 0.9)
        argv = ("solve", "--psi", pm["psi"], "--g", pm["g"], "--points=" + text)
        cases.append(Case("solve", argv, {"kind": "solve", "map": pm, "points": pts,
                                          "h": 1e-3}))
    text, _ = _points_arg(rng, 24, 0.95)
    cases.append(_green_case("analyze", ["analyze"], _poisson_map(rng, ("re", 1)),
                             ["--points=" + text]))
    for _ in range(3):
        # Chords of one length keep the Newton march, and so the cost of the
        # report, the same for every seed.
        pairs = [_chord(rng, 0.2, 0.4) for _ in range(4)]
        alpha = _r(rng.uniform(0.2, 0.8))
        C1, C2 = _r(rng.uniform(2.0, 6.0)), _r(rng.uniform(1.0, 4.0))
        tail = ["--omega", "t", "--alpha", repr(alpha), "--C1", repr(C1), "--C2", repr(C2),
                "--pairs=" + ",".join(f"{cli_complex(p)}:{cli_complex(q)}" for p, q in pairs),
                "--line-nodes", "5"]
        cases.append(_green_case("check-thm11", ["check-thm11"], _poisson_map(rng, ("abs", 1)),
                                 tail))
    return cases


_GENERATORS = {
    "catalog-scan": _catalog_scan,
    "green-rings": _green_rings,
    "green-scattered": _green_scattered,
}
WORKLOADS = tuple(_GENERATORS)


def generate(workload: str, seed: int) -> List[Case]:
    """The round of `workload` for `seed`; the same seed gives the same argvs."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}")
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


# One small report per subcommand the workload runs, at default quadrature:
# it fills lazy caches (Gauss nodes, parsed sources) before timing starts.
_WARMUP_CATALOG = (
    ("frontier", "--catalog", "identity", "--radial-count", "4", "--angular-count", "8",
     "--K", "1"),
    ("bounds", "--catalog", "identity", "--K", "1", "--radial-count", "4",
     "--angular-count", "8"),
    ("coeffs", "--catalog", "identity", "--count", "4"),
    ("length", "--map", "z", "--kind", "perimeter", "--r", "0.5", "--nodes", "16"),
    ("analyze", "--map", "z", "--points", "0.5"),
    ("check-thm11", "--map", "z", "--omega", "t", "--alpha", "0.5", "--C1", "10",
     "--C2", "100", "--pairs", "0.1:0.2j", "--line-nodes", "5"),
    ("check-subharmonic", "--phi", "1", "--radial-count", "4", "--angular-count", "8"),
)
_WARMUP_GREEN = (
    ("solve", "--psi", "z", "--g", "1", "--points", "0.5"),
    ("analyze", "--psi", "z", "--g", "1", "--points", "0.5"),
    ("frontier", "--psi", "z", "--g", "1", "--radial-count", "1", "--angular-count", "4",
     "--refine-rounds", "0", "--K", "1"),
)
WARMUP = {
    "catalog-scan": _WARMUP_CATALOG,
    "green-rings": _WARMUP_GREEN + (
        ("length", "--psi", "z", "--g", "1", "--kind", "perimeter", "--r", "0.5",
         "--nodes", "8"),),
    "green-scattered": _WARMUP_GREEN + (
        ("check-thm11", "--psi", "z", "--g", "1", "--omega", "t", "--alpha", "0.5",
         "--C1", "10", "--C2", "100", "--pairs", "0.1:0.2j", "--line-nodes", "3"),),
}

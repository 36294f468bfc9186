"""Independent oracles for every report the workloads run.

Each check parses the report's JSON and compares its numbers with values
computed here from closed forms, 1-D searches or a closed-form `--map`
twin, never from the diskmaps code path under test.  The deviation of a
number is |got - want| / max(1, |want|); `oracle_err` is the largest
deviation over all checked numbers, and a check fails when a deviation
exceeds its tolerance or a status, flag or exit code differs.
"""

from __future__ import annotations

import cmath
import json
import math
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import ellipe

# Green reports against their closed-form twins: measured agreement is
# ~1e-12, so 1e-9 separates quadrature noise from a wrong potential.
TWIN_TOL = 1e-9
EXACT_TOL = 1e-9
# Grid suprema are lower estimates; with the default grid (96 shells, three
# refinement rounds) their error is below these bounds.
GRID_SUP_TOL = 1e-5
ANGLE_SUP_TOL = 1e-3
POLYLINE_TOL = 1e-5
RADIAL_LIMIT_TOL = 1e-6
# Five-point residuals divide value noise by h^2 = 1e-6.
RESIDUAL_TOL = 1e-5
# prop14 margins divide coefficient noise of the extracted analytic part by
# chords as short as 1e-4.
PROP14_TOL = 1e-6

DEFAULT_MAX_RADIUS = 1.0 - 1e-4
DEFAULT_RADIAL_COUNT = 96
RADIAL_CAP = 1.0 - 1e-6


class Check:
    """Accumulates the deviations and problems found in one report."""

    def __init__(self):
        self.dev = 0.0
        self.problems: List[str] = []

    def close(self, label: str, got, want, tol: float) -> None:
        if got is None or isinstance(got, str):
            self.problems.append(f"{label}: got {got!r}, want {want!r}")
            return
        dev = float(abs(complex(got) - complex(want)) / max(1.0, abs(complex(want))))
        self.dev = max(self.dev, dev)
        if not dev <= tol:
            self.problems.append(f"{label}: got {got!r}, want {want!r} "
                                 f"(deviation {dev:.3e} > {tol:.0e})")

    def equal(self, label: str, got, want) -> None:
        if got != want:
            self.problems.append(f"{label}: got {got!r}, want {want!r}")

    @property
    def ok(self) -> bool:
        return not self.problems


def cx(node) -> complex:
    return complex(node["re"], node["im"])


# --- closed forms --------------------------------------------------------------


def green_closed_form(source: str, k: int, c: float) -> Tuple[Callable, Callable]:
    """(S, G) as numpy callables: Laplacian(G) = -S and G = 0 on |z| = 1."""
    if source == "re":
        return (lambda z: c * np.real(z),
                lambda z: c * np.real(z) * (1.0 - np.abs(z) ** 2) / 8.0)
    return (lambda z: c * np.abs(z) ** (2 * k),
            lambda z: c * (1.0 - np.abs(z) ** (2 * k + 2)) / (2 * k + 2) ** 2)


def poisson_closed_form(pm: Dict[str, object]) -> Tuple[Callable, Callable]:
    """(f, S) for f = P - G[S] with P = z + a2 z^2 + b1 conj(z)."""
    S, G = green_closed_form(pm["source"], pm["k"], pm["c"])
    a2, b1 = pm["a2"], pm["b1"]
    return (lambda z: z + a2 * z * z + b1 * np.conj(z) - G(z)), S


def example15_profile(r: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(|f_z|, |f_zbar|) of 3 z |z|^2 - z |z|^8 at radius r."""
    u = r ** 6
    return r * r * (6.0 - 5.0 * u), r * r * np.abs(3.0 - 4.0 * u)


def example15_min_kprime(K: float, r_max: float = DEFAULT_MAX_RADIUS) -> float:
    """sup over 0 < r <= r_max of ||D||^2 - K J, by a dense 1-D scan and a
    bounded search around its best sample (the defect is radial)."""

    def defect(r):
        a, b = example15_profile(np.asarray(r, dtype=float))
        return (a + b) ** 2 - K * (a * a - b * b)

    rs = np.linspace(0.0, r_max, 20001)
    i = int(np.argmax(defect(rs)))
    lo, hi = rs[max(i - 1, 0)], rs[min(i + 1, rs.size - 1)]
    best = float(defect(rs[i]))
    if hi > lo:
        res = minimize_scalar(lambda r: -float(defect(r)), bounds=(lo, hi),
                              method="bounded", options={"xatol": 1e-13})
        best = max(best, -float(res.fun))
    return max(0.0, best)


def _grid_radii() -> np.ndarray:
    k = np.arange(1, DEFAULT_RADIAL_COUNT + 1)
    return DEFAULT_MAX_RADIUS * k / DEFAULT_RADIAL_COUNT


def _unbounded(shell_sups: np.ndarray) -> bool:
    tail = shell_sups[-3:]
    return bool(tail[-1] > 1.0 - 1e-3 and np.all(np.diff(tail) > 0.0))


def ellipse_perimeter(a: float, b: float) -> float:
    a, b = max(a, b), min(a, b)
    return 4.0 * a * float(ellipe(1.0 - (b / a) ** 2))


def _omega(name: str) -> Callable[[float], float]:
    return {"t": lambda t: t, "pow(t, 0.5)": math.sqrt}[name]


def _simpson_weights(n: int) -> np.ndarray:
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / (3.0 * (n - 1))


# --- report checks ---------------------------------------------------------------


def _frontier(ck: Check, rep: dict, Ks: List[float], kprimes: List[float],
              tol: float, sup_dil: float, unbounded: bool) -> None:
    samples = rep["samples"]
    ck.equal("K values", [s[0] for s in samples], Ks)
    for (K, got), want in zip(samples, kprimes):
        ck.close(f"min K' at K={K}", got, want, tol)
    ck.close("sup_dilatation", rep["sup_dilatation"], sup_dil, EXACT_TOL)
    ck.equal("dilatation_unbounded", rep["dilatation_unbounded"], unbounded)


def _check_example15_frontier(ck, doc, o, rc):
    ck.equal("exit code", rc, 0)
    a, b = example15_profile(_grid_radii())
    shells = b / a
    _frontier(ck, doc["reports"][0], o["K"], [example15_min_kprime(K) for K in o["K"]],
              GRID_SUP_TOL, float(shells.max()), _unbounded(shells))


def _check_shear_frontier(ck, doc, o, rc):
    # f = z + c conj(z)^2: |f_z| = 1 and |f_zbar| = 2|c| r, so the defect
    # grows with r and peaks on the outermost grid shell.
    ck.equal("exit code", rc, 0)
    s = 2.0 * abs(o["c"]) * DEFAULT_MAX_RADIUS
    kps = [max(0.0, (1.0 + s) ** 2 - K * (1.0 - s * s)) for K in o["K"]]
    _frontier(ck, doc["reports"][0], o["K"], kps, EXACT_TOL, s, False)


def _check_bounds(ck, doc, o, rc):
    ck.equal("exit code", rc, 0)
    ck.equal("summary status", doc["summary"]["status"], "holds")
    violated = [r["inequality_id"] for r in doc["reports"] if r["status"] == "violated"]
    ck.equal("violated rows", violated, [])


def _check_series_coeffs(ck, doc, o, rc):
    ck.equal("exit code", rc, 0)
    rep = doc["reports"][0]
    a, b = o["a"], o["b"]
    for n, got in enumerate(rep["a"]):
        ck.close(f"a[{n}]", cx(got), a[n] if n < len(a) else 0.0, EXACT_TOL)
    for n, got in enumerate(rep["b"], start=1):
        ck.close(f"b[{n}]", cx(got), b[n] if n < len(b) else 0.0, EXACT_TOL)
    ck.equal("valid", rep["valid"], True)


def _check_moebius_coeffs(ck, doc, o, rc):
    # e^{it} (z - a) / (1 - conj(a) z) = -e^{it} a + sum_{n>=1}
    # e^{it} (1 - |a|^2) conj(a)^(n-1) z^n; for a = 1/2 these are 3/2^(n+1).
    ck.equal("exit code", rc, 0)
    a, rot = o["a"], cmath.exp(1j * o["t"])
    rep = doc["reports"][0]
    for n, got in enumerate(rep["a"]):
        want = -rot * a if n == 0 else rot * (1 - abs(a) ** 2) * a.conjugate() ** (n - 1)
        ck.close(f"a[{n}]", cx(got), want, EXACT_TOL)
    for n, got in enumerate(rep["b"], start=1):
        ck.close(f"b[{n}]", cx(got), 0.0, EXACT_TOL)


def _check_radial_limit(ck, doc, o, rc):
    # Along any ray example15 is rho -> 3 rho^3 - rho^9, of length 2 at r = 1.
    ck.equal("exit code", rc, 0)
    ck.close("radial length limit", doc["reports"][0]["value"], o["value"],
             RADIAL_LIMIT_TOL)


def _check_affine_length(ck, doc, o, rc):
    # f = A z + B conj(z) maps circles to ellipses with semi-axes
    # (|A| +- |B|) r and rays to segments of length r |A + B e^{-2 i theta}|.
    ck.equal("exit code", rc, 0)
    A, B, kind = o["A"], o["B"], o["length"]
    big, small = abs(A) + abs(B), abs(abs(A) - abs(B))
    reps = doc["reports"]
    if kind == "perimeter":
        for rep, r in zip(reps, o["radii"]):
            ck.close(f"perimeter r={r}", rep["value"], ellipse_perimeter(big * r, small * r),
                     EXACT_TOL)
    elif kind == "radial":
        stretch = abs(A + B * cmath.exp(-2j * o["theta"]))
        for rep, r in zip(reps, o["radii"]):
            ck.close(f"radial r={r}", rep["value"], min(r, RADIAL_CAP) * stretch, EXACT_TOL)
    elif kind == "boundary":
        ck.close("boundary length", reps[0]["value"], ellipse_perimeter(big, small),
                 POLYLINE_TOL)
    else:
        ck.close("radial sup", reps[0]["value"], big * RADIAL_CAP, ANGLE_SUP_TOL)
    if kind in ("perimeter", "radial"):
        ck.equal("report count", len(reps), len(o["radii"]))


def _check_poly_analyze(ck, doc, o, rc):
    ck.equal("exit code", rc, 0)
    terms, K = o["terms"], o["K"]
    ck.equal("row count", len(doc["reports"]), len(o["points"]))
    for row, z in zip(doc["reports"], o["points"]):
        zb = z.conjugate()
        val = sum(c * z ** j * zb ** k for j, k, c in terms)
        dz = sum(j * c * z ** (j - 1) * zb ** k for j, k, c in terms if j)
        db = sum(k * c * z ** j * zb ** (k - 1) for j, k, c in terms if k)
        a, b = abs(dz), abs(db)
        want = {"value": val, "dz": dz, "dzbar": db, "op_norm": a + b,
                "lower_norm": abs(a - b), "jacobian": a * a - b * b,
                "dilatation": b / a, "defect": (a + b) ** 2 - K * (a * a - b * b)}
        for key, w in want.items():
            got = row.get(key)
            ck.close(f"{key} at {z}", cx(got) if isinstance(got, dict) else got, w,
                     EXACT_TOL)


def _check_affine_thm11(ck, doc, o, rc):
    # The preimage of an image chord under a real-linear map is the chord
    # itself, so the chord integral needs no Newton inversion here.
    A, B, alpha, C1, C2 = o["A"], o["B"], o["alpha"], o["C1"], o["C2"]
    omega = _omega(o["omega"])
    expo = (1.0 - alpha) / 2.0
    n = o["line_nodes"]
    ts = np.linspace(0.0, 1.0, n)
    w = _simpson_weights(n)
    worst, max_integral = math.inf, -math.inf
    for z1, z2 in o["pairs"]:
        d = z1 - z2
        q = abs(A * d + B * d.conjugate()) / abs(d)
        lower = omega(((1 + abs(z1)) * (1 + abs(z2))) ** expo) / C1
        upper = C1 / omega(((1 - abs(z1)) * (1 - abs(z2))) ** expo)
        path = np.abs((1.0 - ts) * z1 + ts * z2)
        integral = float(w @ np.array([1.0 / omega((1.0 - r) ** (1.0 - alpha)) for r in path]))
        max_integral = max(max_integral, integral)
        worst = min(worst, q - lower, upper - q, C2 - integral)
    rep = doc["reports"][0]
    ck.close("worst_margin", rep["worst_margin"], worst, 1e-8)
    ck.close("max_chord_integral", rep["derived_constants"]["max_chord_integral"],
             max_integral, 1e-8)
    ck.equal("notes", rep["notes"], "")
    if abs(worst) > 1e-9:
        holds = worst >= 0.0
        ck.equal("holds_on_sample", rep["holds_on_sample"], holds)
        ck.equal("exit code", rc, 0 if holds else 1)


def _check_subharmonic(ck, doc, o, rc):
    # phi = c0 + c2 |z|^2 is radial, A(r) = c0 r + c2 r^3 / 3, and Simpson's
    # rule integrates it exactly.
    r = _grid_radii()
    margins = r - (o["c0"] * r + o["c2"] * r ** 3 / 3.0)
    rep = doc["reports"][0]
    ck.equal("exit code", rc, 0)
    ck.equal("status", rep["status"], "holds")
    ck.close("margin", rep["margin"], float(margins.min()), EXACT_TOL)


def _check_prop14(ck, doc, o, rc):
    # f + G[Laplacian f] is harmonic with the boundary values 2z of f, so the
    # analytic part is h1 = 2z; the sup of ||D_f|| / |h1'| is about 2.1, so
    # every C3 < 2 is violated.  The worst margin is recomputed at the
    # reported witness chord.
    ck.equal("exit code", rc, 1)
    rep = doc["reports"][0]
    ck.equal("holds_on_sample", rep["holds_on_sample"], False)
    if not rep["witness"]:
        ck.problems.append("no witness chord")
        return
    z1, z2 = (cx(p) for p in rep["witness"])
    f = lambda z: 3 * z * abs(z) ** 2 - z * abs(z) ** 8  # noqa: E731
    d = abs(z1 - z2)
    want = (o["C3"] * 2.0 * d - abs(f(z1) - f(z2))) / d
    ck.close("worst_margin at witness", rep["worst_margin"], want, PROP14_TOL)


def _check_solve(ck, doc, o, rc):
    ck.equal("exit code", rc, 0)
    f, S = poisson_closed_form(o["map"])
    h = o["h"]
    ck.equal("row count", len(doc["reports"]), len(o["points"]))
    for row, z in zip(doc["reports"], o["points"]):
        ck.close(f"value at {z}", cx(row["value"]), complex(f(z)), TWIN_TOL)
        if 1.0 - abs(z) < 2 * h:
            ck.equal(f"residual at {z}", row["residual"], None)
            continue
        st = np.array([z + h, z - h, z + 1j * h, z - 1j * h, z])
        v = f(st)
        want = abs((v[:4].sum() - 4.0 * v[4]) / (h * h) - S(z))
        got = row["residual"]
        if got is None or abs(got - want) > RESIDUAL_TOL:
            ck.problems.append(f"residual at {z}: got {got!r}, want {want!r}")
        else:
            ck.dev = max(ck.dev, float(abs(got - want)))


_SKIP_KEYS = ("config", "witness", "witnesses")


def compare_docs(ck: Check, got, want, path: str = "") -> None:
    """Walk two report documents in step; numbers within TWIN_TOL.

    The run configuration differs by construction, and witness points may
    move between tied grid maxima under 1e-12 perturbations, so both are
    skipped; their values are compared through the reported maxima.
    """
    if isinstance(want, dict):
        if not isinstance(got, dict) or list(got) != list(want):
            ck.problems.append(f"{path}: keys differ")
            return
        if set(want) == {"re", "im"}:
            ck.close(path, cx(got), cx(want), TWIN_TOL)
            return
        for key in want:
            if key not in _SKIP_KEYS:
                compare_docs(ck, got[key], want[key], f"{path}/{key}")
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            ck.problems.append(f"{path}: lengths differ")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            compare_docs(ck, g, w, f"{path}[{i}]")
    elif isinstance(want, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        ck.close(path, got, want, TWIN_TOL)
    else:
        ck.equal(path, got, want)


_CHECKS = {
    "example15-frontier": _check_example15_frontier,
    "shear-frontier": _check_shear_frontier,
    "bounds-hold": _check_bounds,
    "series-coeffs": _check_series_coeffs,
    "moebius-coeffs": _check_moebius_coeffs,
    "radial-limit": _check_radial_limit,
    "affine-length": _check_affine_length,
    "poly-analyze": _check_poly_analyze,
    "affine-thm11": _check_affine_thm11,
    "subharmonic": _check_subharmonic,
    "prop14-example15": _check_prop14,
    "solve": _check_solve,
}


def check_report(oracle: Dict[str, object], rc, output: str,
                 twin: Optional[Tuple[int, str]] = None) -> Check:
    """Check one report (exit code and standard output) against its oracle.

    `twin` is the (exit code, output) of the closed-form twin for oracles of
    kind "twin".
    """
    ck = Check()
    try:
        doc = json.loads(output)
    except ValueError:
        ck.problems.append(f"exit code {rc!r} with no JSON report")
        return ck
    try:
        if oracle["kind"] == "twin":
            twin_rc, twin_out = twin
            ck.equal("exit code", rc, twin_rc)
            compare_docs(ck, doc, json.loads(twin_out))
        else:
            _CHECKS[oracle["kind"]](ck, doc, oracle, rc)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        ck.problems.append(f"malformed report: {type(exc).__name__}: {exc}")
    return ck

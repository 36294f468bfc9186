"""Ellipticity analysis: defect frontiers, distortion constants, pair checks.

A sense-preserving map with jet (f_z, f_zbar) satisfies a two-parameter
ellipticity inequality ||D||^2 <= K J + K' pointwise.  For fixed K >= 1 the
smallest admissible K' is the sup of the defect ||D||^2 - K J, so sweeping K
traces a trade-off frontier.  This module estimates those suprema on polar
grids, reading every metric from `wirtinger.Stretch`: `frontier`,
`min_kprime` (frontier at one K) and `qc_constant` each take one base
sample of the map on the grid, and only their refinement windows evaluate
it again.  It also converts between the (K, K') and (k1, k2) parameter
forms, and runs sampled checks of global distance inequalities
(bi-Lipschitz growth with a chord integral, domination by the analytic
part, and the pointwise / difference-quotient equivalence for concave
majorants).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .coefficients import MajorantSpec, extract_coeffs
from .grids import GridScanError, GridSpec, grid_supremum, polar_grid, sup_scan
from .maps import JetEvaluationError, PlanarMap, SeriesMap
from .potential import GreenPotential, PoissonMap
from .wirtinger import Stretch, disk_distance

__all__ = [
    "EllipticityParams",
    "CauchyPair",
    "FrontierReport",
    "HypothesisReport",
    "QcResult",
    "verdict",
    "min_kprime",
    "qc_constant",
    "frontier",
    "lemma24_convert",
    "invert_map",
    "check_theorem11",
    "check_prop14",
    "lemma22_check",
    "beta_constant",
]


# Margins within this of zero count as holding: shields exact-equality cases
# (identity maps, tight triangle inequalities) from last-bit roundoff.
_HOLD_TOL = 1e-12


@dataclass(frozen=True)
class EllipticityParams:
    """Distortion pair (K, K'): ||D||^2 <= K J + K' pointwise."""

    K: float
    Kprime: float

    def __post_init__(self):
        if not self.K >= 1.0:
            raise ValueError("K must be >= 1")
        if not self.Kprime >= 0.0:
            raise ValueError("Kprime must be >= 0")


@dataclass(frozen=True)
class CauchyPair:
    """Coefficient pair (k1, k2) for |f_zbar| <= k1 |f_z| + k2."""

    k1: float
    k2: float

    def __post_init__(self):
        if not 0.0 <= self.k1 < 1.0:
            raise ValueError("k1 must lie in [0, 1)")
        if not self.k2 >= 0.0:
            raise ValueError("k2 must be >= 0")


@dataclass(frozen=True)
class FrontierReport:
    """min-K' estimates along a sweep of K values.

    sense_preserving is false when some finite base-grid jet has J <= 0;
    the estimates then do not describe a K-quasiregular map.
    """

    samples: Tuple[Tuple[float, float], ...]
    witnesses: Tuple[complex, ...]
    sup_dilatation: float
    dilatation_unbounded: bool
    sense_preserving: bool


def verdict(margin: float, tol: float, undecided: bool = False) -> str:
    """The one verdict rule of every checked report: "indeterminate" when the
    margin is not finite or a precondition failed (`undecided`), else "holds"
    when margin >= -tol and "violated" below."""
    if undecided or not math.isfinite(margin):
        return "indeterminate"
    return "holds" if margin >= -tol else "violated"


@dataclass(frozen=True)
class HypothesisReport:
    """Outcome of a sampled inequality check; holds_on_sample is
    status == "holds", kept for readers of the older key."""

    condition_id: str
    status: str
    holds_on_sample: bool
    worst_margin: float
    witness: Optional[tuple]
    derived_constants: dict
    notes: str = ""

    @classmethod
    def checked(cls, condition_id: str, worst_margin: float, witness, derived_constants: dict,
                tol: float = _HOLD_TOL, notes: Sequence[str] = (), failed: Sequence[str] = ()):
        """A pair check's report, its status by `verdict` at `tol`; each reason
        in `failed` (a failed hypothesis) makes it indeterminate and joins the notes."""
        status = verdict(worst_margin, tol, undecided=bool(failed))
        return cls(condition_id, status, status == "holds", worst_margin, witness,
                   derived_constants, "; ".join([*notes, *failed]))


@dataclass(frozen=True)
class QcResult:
    """Grid estimate of sup ||D|| / l(D), with degeneracy flags."""

    value: float
    flag: str  # "finite" | "unbounded" | "not-sense-preserving"
    witness: Optional[complex] = None
    shell_dilatations: Tuple[float, ...] = ()  # outermost shells, inner to outer


def _base_sample(m: PlanarMap, grid: GridSpec) -> Tuple[np.ndarray, Stretch]:
    """The polar grid and the map's stretch on it: the one base sample that
    frontier, min_kprime and qc_constant read."""
    pts = polar_grid(grid)
    return pts, Stretch(*m.derivatives(pts))


def min_kprime(m: PlanarMap, K: float, grid: Optional[GridSpec] = None) -> Tuple[float, complex]:
    """Grid estimate of the least K' valid for this K, with its witness.

    The estimate is sup over the (refined) grid of max(0, ||D||^2 - K J);
    it is a lower bound for the true minimal K'.  It is `frontier` at K
    alone.
    """
    rep = frontier(m, [K], grid)
    return rep.samples[0][1], rep.witnesses[0]


def _shell_dilatations(s: Stretch) -> Tuple[np.ndarray, bool]:
    """Per-shell sup of |f_zbar| / |f_z| (rows = radii), nan-safe, and whether
    it blows up: the outermost sup exceeds 1 - 1e-3 and the last three increase."""
    sups = np.where(np.isfinite(s.dilatation), s.dilatation, -np.inf).max(axis=1)
    tail = sups[-3:]
    return sups, bool(len(tail) == 3 and tail[-1] > 1.0 - 1e-3 and np.all(np.diff(tail) > 0.0))


def qc_constant(m: PlanarMap, grid: Optional[GridSpec] = None) -> QcResult:
    """sup ||D|| / l(D) over the grid, flagged when the sup degenerates.

    flag "not-sense-preserving": some grid jet has J <= 0 (witness attached).
    flag "unbounded": the per-shell dilatation sup exceeds 1 - 1e-3 on the
    outermost shell and increases over the last three shells, so the ratio
    blows up toward the boundary and the reported value is a grid artifact.
    """
    grid = grid or GridSpec()
    pts, base = _base_sample(m, grid)
    if base.degenerate.any():
        idx = int(np.argmax(base.degenerate.ravel()))
        return QcResult(value=math.nan, flag="not-sense-preserving",
                        witness=complex(pts.ravel()[idx]))

    shell_sups, unbounded = _shell_dilatations(base)
    scan = grid_supremum(lambda z: Stretch(*m.derivatives(z)).qc_ratio, grid,
                         base_values=base.qc_ratio)
    flag = "unbounded" if unbounded else "finite"
    return QcResult(value=scan.value, flag=flag, witness=scan.witness,
                    shell_dilatations=tuple(float(s) for s in shell_sups[-8:]))


def frontier(m: PlanarMap, Ks: Sequence[float],
             grid: Optional[GridSpec] = None) -> FrontierReport:
    """Sweep K over Ks (ascending) and estimate min K' at each.

    For a sense-preserving map the estimates are non-increasing in K.  The
    base grid is sampled once and shared by every K and the dilatation
    scan; only the per-K refinement windows evaluate the map again.
    """
    Ks = sorted(float(K) for K in Ks)
    if not Ks:
        raise ValueError("Ks must be nonempty")
    if not all(K >= 1.0 for K in Ks):
        raise ValueError("every K must be >= 1")
    grid = grid or GridSpec()
    _, base = _base_sample(m, grid)

    scans = [grid_supremum(lambda z: Stretch(*m.derivatives(z)).defect(K), grid,
                           base_values=base.defect(K)) for K in Ks]
    shell_sups, unbounded = _shell_dilatations(base)
    sup_dil = float(shell_sups.max()) if np.isfinite(shell_sups).any() else math.nan
    return FrontierReport(samples=tuple((K, max(0.0, s.value)) for K, s in zip(Ks, scans)),
                          witnesses=tuple(s.witness for s in scans),
                          sup_dilatation=sup_dil, dilatation_unbounded=unbounded,
                          sense_preserving=not base.degenerate.any())


def lemma24_convert(params: Union[EllipticityParams, CauchyPair]):
    """Convert between the (K, K') and (k1, k2) parameter forms.

    The two directions are sharp separately but are not mutual inverses:
    (K, K') -> (k1, k2) -> (K2, K2') generally has K2 >= K.
    """
    if isinstance(params, EllipticityParams):
        K, Kp = params.K, params.Kprime
        return CauchyPair(k1=(K - 1.0) / (K + 1.0),
                          k2=math.sqrt(Kp) / (1.0 + K))
    if isinstance(params, CauchyPair):
        k1, k2 = params.k1, params.k2
        return EllipticityParams(K=2.0 * (1.0 + k1) / (1.0 - k1),
                                 Kprime=4.0 * k2**2 / (1.0 - k1) ** 2)
    raise TypeError("expected EllipticityParams or CauchyPair")


def invert_map(m: PlanarMap, w, guess, tol: float = 1e-12,
               max_iter: int = 100) -> np.ndarray:
    """Solve f(z) = w for an array of targets by damped Newton steps.

    The update inverts the real-linear differential: with residual
    r = f(z) - w and J = |f_z|^2 - |f_zbar|^2,

        z <- z - (conj(f_z) r - f_zbar conj(r)) / J.

    guess is an array shaped like w (or one point for every target), each
    in the open unit disk (ValueError otherwise).  The map is called only
    through `jets`: one call on the guesses, then one `jets` call per
    line-search trial on the targets still stepping whose trial point lies
    in the disk (none where every trial point leaves it), an accepted trial
    keeping its value and partials for the next step.  Each target halves
    its own step (at most 20 times) while its residual fails to decrease or
    its iterate leaves the disk.  Returns the preimages shaped like w, nan
    where a target fails: a non-finite residual, a degenerate Jacobian
    (J <= 1e-12), a stalled step or no convergence in max_iter iterations.
    """
    w = np.asarray(w, dtype=complex)
    z = np.array(np.broadcast_to(np.asarray(guess, dtype=complex), w.shape)).ravel()
    if not np.all(np.abs(z) < 1.0):
        raise ValueError("every guess must lie in the open unit disk")
    shape, w = w.shape, w.ravel()
    r, dz, db = np.array(m.jets(z))  # rows of one new array, updated in place
    r -= w
    out = np.full(z.shape, complex("nan+nanj"))
    unsolved = np.flatnonzero(np.isfinite(r))
    for _ in range(max_iter):
        done = np.abs(r[unsolved]) <= tol
        out[unsolved[done]] = z[unsolved[done]]
        unsolved = unsolved[~done]
        if not unsolved.size:
            break
        jac = Stretch(dz[unsolved], db[unsolved]).jacobian
        steady = jac > 1e-12  # also drops a nan Jacobian
        unsolved = unsolved[steady]
        res = r[unsolved]
        step = (np.conj(dz[unsolved]) * res - db[unsolved] * np.conj(res)) / jac[steady]
        pending, lam = np.arange(unsolved.size), 1.0
        for _ in range(20):
            idx = unsolved[pending]
            cand = z[idx] - lam * step[pending]
            inside = np.abs(cand) < 1.0
            trial = np.full((3, cand.size), complex("nan+nanj"))
            if inside.any():
                trial[:, inside] = m.jets(cand[inside])
                trial[0, inside] -= w[idx[inside]]
            better = np.abs(trial[0]) < np.abs(r[idx])
            kept = idx[better]
            z[kept], r[kept], dz[kept], db[kept] = cand[better], *trial[:, better]
            pending = pending[~better]
            if not pending.size:
                break
            lam *= 0.5
        unsolved = np.delete(unsolved, pending)  # a stalled target fails
    return out.reshape(shape)


def _as_majorant(omega) -> MajorantSpec:
    if isinstance(omega, MajorantSpec):
        return omega
    return MajorantSpec(omega)


def _check_alpha(alpha: float, **positive: float) -> None:
    """alpha must lie in [0, 1] and each named constant must be positive."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if not all(c > 0.0 for c in positive.values()):
        raise ValueError(f"{' and '.join(positive)} must be positive")


def _validated_pairs(pairs: Sequence[Tuple[complex, complex]]
                     ) -> List[Tuple[complex, complex]]:
    """The pairs as complex tuples; each must be two distinct interior points."""
    if not pairs:
        raise ValueError("pairs must be nonempty")
    pairs = [(complex(z1), complex(z2)) for z1, z2 in pairs]
    for z1, z2 in pairs:
        disk_distance(z1), disk_distance(z2)
        if abs(z1 - z2) < 1e-14:
            raise ValueError("pairs must consist of distinct points")
    return pairs


def _worst_pair(pairs: Sequence[Tuple[complex, complex]], margins: np.ndarray
                ) -> Tuple[float, Optional[tuple]]:
    """(least clause margin, first pair attaining it) of a (pairs, clauses) array.

    A nan clause margin leaves the pair undecided (the map or the majorant
    failed to evaluate there), so it raises JetEvaluationError naming the
    first such pair instead of dropping out of the minimum.
    """
    undecided = np.isnan(margins).any(axis=1)
    if undecided.any():
        z1, z2 = pairs[int(np.argmax(undecided))]
        raise JetEvaluationError(f"a clause margin is nan on the pair ({z1}, {z2})")
    least = margins.min(axis=1)
    i = int(np.argmin(least))
    return float(least[i]), (pairs[i] if least[i] < math.inf else None)


def _pair_values(m: PlanarMap, pairs: Sequence[Tuple[complex, complex]]):
    """(z1, z2, f(z1), f(z2)) arrays from one values call; f is nan at an end
    where it is not finite, so every margin of that pair is nan."""
    z1, z2 = np.array(pairs).T
    w = m.values(np.concatenate([z1, z2]))
    w = np.where(np.isfinite(w), w, np.nan)
    return z1, z2, w[:len(pairs)], w[len(pairs):]


def _chord_margins(spec: MajorantSpec, expo: float, C: float, z1: np.ndarray,
                   z2: np.ndarray, w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """(pairs, 2) margins of omega(((1+|z1|)(1+|z2|))^expo) / C
    <= |w1 - w2| / |z1 - z2| <= C / omega((d(z1) d(z2))^expo), lower clause first."""
    ratio = np.abs(w1 - w2) / np.abs(z1 - z2)
    lower = spec.eval(((1.0 + np.abs(z1)) * (1.0 + np.abs(z2))) ** expo) / C
    upper = C / spec.eval(((1.0 - np.abs(z1)) * (1.0 - np.abs(z2))) ** expo)
    return np.stack([ratio - lower, upper - ratio], axis=1)


def _check_univalence_on_sample(pts: np.ndarray, vals: np.ndarray) -> None:
    order = np.lexsort((pts.imag, pts.real))
    pts, vals = pts[order], vals[order]
    dz = np.abs(pts[:, None] - pts[None, :])
    dv = np.abs(vals[:, None] - vals[None, :])
    clash = (dz > 1e-10) & (dv < 1e-10)
    if clash.any():
        i, j = np.argwhere(clash)[0]
        raise ValueError(
            f"map is not injective on the sample: f({pts[i]}) ~ f({pts[j]})"
        )


def _failed_hypothesis(m: PlanarMap, source_sup: float = 0.0) -> List[str]:
    """Where an evaluated map visibly breaks the hypothesis on Delta f: a
    source sup that is not finite, or a Poisson map whose Green potential
    stopped refining before it resolved the source (a pole on the disk)."""
    failed = [] if math.isfinite(source_sup) else ["source_sup is not finite"]
    if isinstance(m, PoissonMap) and m.potential.resolved is False:
        failed.append("Green potential unresolved (refinement stopped)")
    return failed


def check_theorem11(
    m: PlanarMap,
    omega,
    alpha: float,
    C1: float,
    C2: float,
    pairs: Sequence[Tuple[complex, complex]],
    line_nodes: int = 129,
) -> HypothesisReport:
    """Sampled check of the two-sided growth bound plus the chord integral.

    For each pair (z1, z2) with chord ratio q = |f(z1)-f(z2)| / |z1-z2| and
    d(z) = 1 - |z|, verifies

        omega(((1+|z1|)(1+|z2|))^{(1-alpha)/2}) / C1
            <= q <= C1 / omega((d(z1) d(z2))^{(1-alpha)/2}),

    and integrates 1 / omega(d(Phi(t))^{1-alpha}) along the preimage
    Phi(t) = f^{-1}((1-t) f(z1) + t f(z2)) of the image segment (composite
    Simpson), requiring the integral to stay <= C2.  The preimages of every
    (pair, node) target come from one `invert_map` call, each started from
    its point z1 + t (z2 - z1) on the straight chord.  The worst margin over
    all clauses and pairs is reported; pairs with a target whose inversion
    fails are skipped and counted in the notes, and a nan clause margin
    (also where f is not finite at an endpoint) raises JetEvaluationError.
    The report is indeterminate on a Poisson map whose Green potential is
    unresolved.
    """
    _check_alpha(alpha, C1=C1, C2=C2)
    pairs = _validated_pairs(pairs)
    if line_nodes < 3:
        raise ValueError("line_nodes must be >= 3")
    if line_nodes % 2 == 0:
        line_nodes += 1  # composite Simpson needs an odd node count
    spec = _as_majorant(omega)
    expo = (1.0 - alpha) / 2.0

    z1, z2, w1, w2 = _pair_values(m, pairs)
    _check_univalence_on_sample(np.concatenate([z1, z2]), np.concatenate([w1, w2]))
    margins = _chord_margins(spec, expo, C1, z1, z2, w1, w2)

    ts = np.linspace(0.0, 1.0, line_nodes)
    simpson_w = np.ones(line_nodes)
    simpson_w[1:-1:2] = 4.0
    simpson_w[2:-1:2] = 2.0
    simpson_w /= 3.0 * (line_nodes - 1)
    preimages = invert_map(m, (1.0 - ts) * w1[:, None] + ts * w2[:, None],
                           z1[:, None] + ts * (z2 - z1)[:, None], tol=1e-10)
    solved = np.isfinite(preimages).all(axis=1)
    integrals = (1.0 / spec.eval((1.0 - np.abs(preimages)) ** (1.0 - alpha))) @ simpson_w
    integral_margin = np.where(solved, C2 - integrals, math.inf)

    worst, witness = _worst_pair(pairs, np.column_stack([margins, integral_margin]))
    skipped = len(pairs) - int(solved.sum())
    notes = [f"{skipped} of {len(pairs)} chord integrals skipped "
             "(inversion did not converge)"] if skipped else []
    derived = {
        "alpha": alpha,
        "C1": C1,
        "C2": C2,
        "max_chord_integral": float(integrals[solved].max()) if solved.any() else math.nan,
    }
    return HypothesisReport.checked("growth-and-chord-integral", worst, witness, derived,
                                    notes=notes, failed=_failed_hypothesis(m))


def _default_prop14_pairs(m: PlanarMap, h1: PlanarMap,
                          count: int = 400) -> List[Tuple[complex, complex]]:
    """Seeded uniform pairs plus short chords near the grid argmax of
    ||D_f|| / |h1'|, oriented along the direction of maximal stretch."""
    rng = np.random.default_rng(20250814)
    r = 0.95 * np.sqrt(rng.uniform(size=2 * count))
    t = rng.uniform(0.0, 2.0 * np.pi, size=2 * count)
    pts = r * np.exp(1j * t)
    pairs = [(complex(pts[2 * i]), complex(pts[2 * i + 1])) for i in range(count)]

    grid = GridSpec(radial_count=64, angular_count=128, max_radius=0.999,
                    refine_rounds=2)

    def stretch_ratio(z: np.ndarray) -> np.ndarray:
        op = Stretch(*m.derivatives(z)).op_norm
        abs_h1dz = Stretch(*h1.derivatives(z)).abs_dz
        with np.errstate(divide="ignore", invalid="ignore"):
            return op / abs_h1dz

    try:
        zstar = grid_supremum(stretch_ratio, grid).witness
    except GridScanError:
        return pairs
    jet = m.jet(zstar)
    if abs(jet.dz) > 0.0:
        # Direction of maximal stretch: arg(dz e^{it}) = arg(dzbar e^{-it}).
        db_angle = np.angle(complex(jet.dzbar)) if jet.dzbar != 0 else 0.0
        theta = 0.5 * (db_angle - np.angle(complex(jet.dz)))
        direction = complex(np.exp(1j * theta))
        for delta in (1e-2, 1e-3, 1e-4):
            a, b = zstar - delta * direction, zstar + delta * direction
            if abs(a) < 1.0 and abs(b) < 1.0 and abs(a - b) > 1e-14:
                pairs.append((a, b))
    return pairs


def _analytic_part_and_source(m: PlanarMap):
    """(h1, ||g||_inf, extracted?) for f = h1 + conj(h2) - G[g]."""
    parts = m.analytic_parts()
    if parts is not None:
        h1 = parts[0]
        if isinstance(m, PoissonMap):  # its own source, a DSL string or a callable
            return h1, m.potential.source_grid_sup(), False
        expr = m.laplacian_expr
        if expr is None or expr.strip() in {"0", "0.0", "(0)"}:
            return h1, 0.0, False
        return h1, GreenPotential(expr).source_grid_sup(), False

    expr = m.laplacian_expr
    if expr is None:
        # Last resort: a radius-consistent coefficient table certifies the
        # map as harmonic within tolerance, so h1 is its analytic half.
        table = extract_coeffs(m, count=32)
        if not table.valid:
            raise ValueError(
                "no analytic-part decomposition available: the map declares "
                "neither analytic_parts() nor a Laplacian, and its circle "
                f"coefficients disagree across radii by {table.disagreement:.3e}"
            )
        return SeriesMap(table.a, label="extracted-analytic-part"), 0.0, True

    pot = GreenPotential(expr)

    class _Harmonized:
        def values(self, z):
            return m.values(z) + pot.values(z)

    table = extract_coeffs(_Harmonized(), count=32)
    if not table.valid:
        raise ValueError(
            "analytic-part extraction failed: circle coefficients disagree "
            f"across radii by {table.disagreement:.3e}"
        )
    return SeriesMap(table.a, label="extracted-analytic-part"), pot.source_grid_sup(), True


def check_prop14(m: PlanarMap, C3: float,
                 pairs: Optional[Sequence[Tuple[complex, complex]]] = None
                 ) -> HypothesisReport:
    """Sampled check of |f(z1) - f(z2)| <= C3 |h1(z1) - h1(z2)|.

    h1 is the analytic part of f + G[Delta f]: taken from the map's own
    decomposition when declared, otherwise extracted from circle Fourier
    coefficients after adding the Green potential of the declared source.
    Given pairs must be distinct points of the open disk (ValueError
    otherwise, as in check_theorem11 and lemma22_check).  When pairs is
    omitted, 400 seeded uniform pairs are used, augmented
    with short chords near the grid maximizer of ||D_f|| / |h1'|.  On
    success the report carries the induced coefficient pair
    k1 = C3 - 1, k2 = (C3 / 3) ||Delta f||_inf and its (K, K') image.

    `source_sup` stands in for ||Delta f||_inf but is sampled: the max of
    |Delta f| over the Green potential's panel grid and the unit circle
    (`GreenPotential.source_grid_sup`; a Poisson map's own potential, with
    its quadrature and its DSL or array-callable source).  It is a lower
    estimate, so the derived k2 and (K, K') can be too small where
    |Delta f| peaks between samples.  Where the paper's hypothesis visibly
    fails (`source_sup` is not finite, or a Poisson map's Green potential
    is unresolved) the report is indeterminate and derives no constants.

    When h1 comes from coefficient extraction, the hold tolerance widens to
    1e-9 per unit chord: short chords divide the absolute coefficient noise
    (~1e-15) by tiny |z1 - z2|, so exact-equality cases would otherwise flip
    on roundoff.  Genuine violations are orders of magnitude larger.
    """
    if not 1.0 <= C3 < 2.0:
        raise ValueError("C3 must lie in [1, 2)")
    if pairs is not None:
        pairs = _validated_pairs(pairs)
    h1, g_sup, extracted = _analytic_part_and_source(m)
    if pairs is None:
        pairs = _default_prop14_pairs(m, h1)

    z1, z2, f1, f2 = _pair_values(m, pairs)
    _, _, g1, g2 = _pair_values(h1, pairs)
    # Per unit chord, comparable across deltas.
    margins = (C3 * np.abs(g1 - g2) - np.abs(f1 - f2)) / np.abs(z1 - z2)
    worst, witness = _worst_pair(pairs, margins[:, None])
    report = HypothesisReport.checked(
        "analytic-part-domination", worst, witness, {"C3": C3, "source_sup": g_sup},
        tol=1e-9 if extracted else _HOLD_TOL, failed=_failed_hypothesis(m, g_sup))
    if report.status == "holds":
        pair = CauchyPair(k1=C3 - 1.0, k2=(C3 / 3.0) * g_sup)
        report.derived_constants.update(cauchy_pair=pair,
                                        ellipticity_params=lemma24_convert(pair))
    return report


def lemma22_check(
    m: PlanarMap,
    omega,
    alpha: float,
    C4: float,
    C5: float,
    pairs: Sequence[Tuple[complex, complex]],
    grid: Optional[GridSpec] = None,
) -> HypothesisReport:
    """Sampled equivalence of difference-quotient and pointwise bounds.

    Clause (a), on pairs: the chord ratio is squeezed between
    omega(((1+|z1|)(1+|z2|))^{(1-alpha)/2}) / C4 and
    C4 / omega((d(z1) d(z2))^{(1-alpha)/2}).
    Clause (b), on the grid: l(D) >= omega((1+|z|)^{1-alpha}) / C5 and
    ||D|| <= C5 / omega(d(z)^{1-alpha}); points with a non-finite margin
    are skipped, up to 1% of the grid (GridScanError beyond).
    The derived constant beta(alpha) * C5 converts any (b)-type bound into
    an (a)-type one, with beta = Gamma((1+alpha)/2)^2 / Gamma(1+alpha).
    The report is indeterminate on a Poisson map whose Green potential is
    unresolved.
    """
    _check_alpha(alpha, C4=C4, C5=C5)
    pairs = _validated_pairs(pairs)
    spec = _as_majorant(omega)
    grid = grid or GridSpec()
    expo = (1.0 - alpha) / 2.0

    worst_a, witness_a = _worst_pair(
        pairs, _chord_margins(spec, expo, C4, *_pair_values(m, pairs)))

    pts = polar_grid(grid)
    s = Stretch(*m.derivatives(pts))
    d = 1.0 - np.abs(pts)
    lower_b = spec.eval((1.0 + np.abs(pts)) ** (1.0 - alpha)) / C5
    upper_b = C5 / spec.eval(d ** (1.0 - alpha))
    # The least margin is the sup of the negated margins, exactly.
    scan_b = sup_scan(-np.minimum(s.lower_norm - lower_b, upper_b - s.op_norm), pts)
    worst_b, witness_b = -scan_b.value, scan_b.witness

    worst = min(worst_a, worst_b)
    witness = witness_a if worst_a <= worst_b else (witness_b,)
    derived = {
        "alpha": alpha,
        "C4": C4,
        "C5": C5,
        "pair_margin": worst_a,
        "pointwise_margin": worst_b,
        "pointwise_to_pair_constant": beta_constant(alpha) * C5,
    }
    return HypothesisReport.checked("pointwise-vs-chord-equivalence", worst, witness,
                                    derived, failed=_failed_hypothesis(m))


def beta_constant(alpha: float) -> float:
    """Gamma((1+alpha)/2)^2 / Gamma(1+alpha); equals 1 at alpha=1, pi at 0."""
    _check_alpha(alpha)
    return math.gamma((1.0 + alpha) / 2.0) ** 2 / math.gamma(1.0 + alpha)

"""Circle-Fourier coefficient extraction, majorant validation, Bloch norms.

A harmonic map f = h1 + conj(h2) restricted to |z| = r has Fourier
coefficients c_n(r) = a_n r^n for n >= 0 and c_{-n}(r) = b_n r^n for n >= 1,
where b_n is the coefficient of zbar^n.  Extracting on several radii and
comparing the implied (a_n, b_n) across them is therefore both a coefficient
reader and a harmonicity diagnostic: non-harmonic maps make the radii
disagree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .expr import ExprAst, contains_var, parse_expr, value_array
from .grids import GridSpec, polar_grid, shell_ladder, sup_scan
from .maps import JetEvaluationError, at_point

__all__ = ["CoeffTable", "extract_coeffs", "MajorantSpec", "bloch_norm"]

# Largest cross-radius coefficient disagreement of a valid table.
_COEFF_TOLERANCE = 1e-8


@dataclass(frozen=True)
class CoeffTable:
    """Coefficients of f = sum a_n z^n + sum b_n zbar^n (b indexed from 1).

    disagreement is the largest absolute gap between a circle coefficient
    measured on a non-reference radius and the value predicted by the
    reference-radius coefficients; valid means it is within tolerance.
    """

    a: Tuple[complex, ...]
    b: Tuple[complex, ...]
    radii_used: Tuple[float, ...]
    disagreement: float
    tolerance: float
    valid: bool

    @property
    def count(self) -> int:
        return len(self.a) - 1


def extract_coeffs(
    m,
    count: int = 32,
    radii: Sequence[float] = (0.4, 0.6, 0.8),
) -> CoeffTable:
    """Read a_0..a_count and b_1..b_count from circle FFTs on several radii.

    Uses the largest radius as reference (best conditioning for high modes)
    and measures cross-radius disagreement on all others, which must stay
    within 1e-8 for a valid table.  Each circle takes max(256, 8 * count)
    samples, keeping modeled modes far from the aliasing range, and all
    circles come from one `values` call on a (radii, samples) array.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    radii = tuple(float(r) for r in radii)
    if not radii:
        raise ValueError("radii must be nonempty")
    if any(not 0.0 < r < 1.0 for r in radii):
        raise ValueError("radii must lie in (0, 1)")
    if len(set(radii)) != len(radii):
        raise ValueError("radii must be distinct")
    n = max(256, 8 * count)

    theta = 2.0 * np.pi * np.arange(n) / n
    circles = np.asarray(m.values(np.asarray(radii)[:, None] * np.exp(1j * theta)),
                         dtype=complex)
    per_radius = {}
    for r, vals in zip(radii, circles):
        if not np.all(np.isfinite(vals)):
            raise JetEvaluationError(f"map failed to evaluate on the circle |z| = {r}")
        c = np.fft.fft(vals) / n
        pos = c[: count + 1]                     # modes 0..count
        neg = c[-1 : -count - 1 : -1]            # modes -1..-count
        per_radius[r] = (pos, neg)

    ref = max(radii)
    pos_ref, neg_ref = per_radius[ref]
    pow_ref_a = ref ** np.arange(count + 1)
    pow_ref_b = ref ** np.arange(1, count + 1)
    a = pos_ref / pow_ref_a
    b = neg_ref / pow_ref_b

    disagreement = 0.0
    for r in radii:
        if r == ref:
            continue
        pos, neg = per_radius[r]
        pred_pos = a * r ** np.arange(count + 1)
        pred_neg = b * r ** np.arange(1, count + 1)
        disagreement = max(
            disagreement,
            float(np.max(np.abs(pos - pred_pos))),
            float(np.max(np.abs(neg - pred_neg))),
        )
    return CoeffTable(
        a=tuple(complex(v) for v in a),
        b=tuple(complex(v) for v in b),
        radii_used=radii,
        disagreement=disagreement,
        tolerance=_COEFF_TOLERANCE,
        valid=bool(disagreement <= _COEFF_TOLERANCE),
    )


_T_VAR = re.compile(r"\bt\b")


class MajorantSpec:
    """A validated distortion majorant omega on (0, 2].

    omega is given as expression source in one real variable (written t or
    z).  Construction checks, on a 1000-point ladder over (0, 2]:
      * omega(0) = 0 (directly, or as a limit when 0 is a singular point),
      * omega is nonnegative and nondecreasing,
      * t -> omega(t) / t is nonincreasing (concavity-type normalization).
    Invalid majorants raise ValueError.
    """

    def __init__(self, omega: Union[str, ExprAst]):
        if isinstance(omega, str):
            self.source = omega
            self.ast = parse_expr(_T_VAR.sub("z", omega))
        else:
            self.source = None
            self.ast = omega
        if not contains_var(self.ast):
            raise ValueError("majorant must depend on its variable")
        self._validate()

    def _validate(self) -> None:
        ts = 2.0 * np.arange(1, 1001) / 1000.0
        vals = value_array(self.ast, ts.astype(complex))
        if not np.all(np.isfinite(vals)):
            raise ValueError("majorant failed to evaluate on (0, 2]")
        if np.max(np.abs(vals.imag)) > 1e-12 * (1.0 + np.max(np.abs(vals.real))):
            raise ValueError("majorant must be real-valued")
        w = vals.real
        # 0 may be a singular point of the formula; then take a limit instead.
        at0, near0 = value_array(self.ast, np.array([0j, 1e-300]))
        w0 = abs(at0) if np.isfinite(at0) else abs(near0)
        if w0 > 1e-12:
            raise ValueError(f"majorant must vanish at 0 (got {w0:.3e})")
        if w[0] < -1e-12:
            raise ValueError("majorant must be nonnegative")
        if np.any(np.diff(w) < -1e-12 * np.maximum(1.0, np.abs(w[:-1]))):
            raise ValueError("majorant must be nondecreasing")
        ratio = w / ts
        if np.any(np.diff(ratio) > 1e-9 * np.abs(ratio[:-1]) + 1e-12):
            raise ValueError("majorant must have nonincreasing omega(t) / t")

    def eval(self, t):
        """omega at an array of positive real arguments; nan where singular."""
        return value_array(self.ast, np.asarray(t, dtype=complex)).real

    def __repr__(self):
        src = self.source if self.source is not None else "<ast>"
        return f"MajorantSpec({src!r})"


def bloch_norm(m, omega, alpha: float, grid: Optional[GridSpec] = None) -> float:
    """|f(0)| + sup ||D_f(z)|| * omega(d(z)^alpha) over the grid.

    The sup combines the polar grid with a shell ladder approaching the
    boundary, since the weighted derivative often peaks in the last
    sliver that coarse radial spacing misses.  Non-finite values are
    skipped, on the polar grid up to 1% of it (GridScanError beyond).
    """
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    spec = omega if isinstance(omega, MajorantSpec) else MajorantSpec(omega)
    grid = grid or GridSpec()

    def weighted(z: np.ndarray, dz: np.ndarray, db: np.ndarray) -> np.ndarray:
        return (np.abs(dz) + np.abs(db)) * spec.eval((1.0 - np.abs(z)) ** alpha)

    pts = polar_grid(grid)
    scan = sup_scan(weighted(pts, *m.derivatives(pts)), pts)
    # Polar grids skip r = 0, the weight's max; f(0) is the one value read.
    origin = np.array([0j])
    f0, *d0 = m.jets(origin)
    scan = scan.join(sup_scan(weighted(origin, *d0), origin, base=False))
    angles = np.exp(2j * np.pi * np.arange(grid.angular_count) / grid.angular_count)
    for r in shell_ladder(grid.max_radius, count=17):
        ring = r * angles
        scan = scan.join(sup_scan(weighted(ring, *m.derivatives(ring)), ring, base=False))
    return abs(at_point(0j, f0)[0]) + scan.value

"""Inequality suite: per-display margin reports for coefficient and
derivative bounds on harmonic and elliptic maps.

Each checked display is identified by a short id and produces BoundReport
rows with lhs, rhs, and margin = rhs - lhs.  Right-hand sides are computed
from the serialized context only (never from map evaluation), so any report
can be reproduced from its context alone.  The geometric inputs a context
may carry:

    R               boundary length of the image over 2 pi,
    perimeter_sup   sup of circle-image perimeters (lower ladder estimate),
    radial_sup      sup over angles of the radial image length,
    params          the (K, K') ellipticity pair,
    coeffs          an extracted CoeffTable.

Checked displays (lhs <= rhs):

    chen-1.0   |a_n|+|b_n| <= (sqrt(K') + K R) / n
    CRP-1c     |a_n|+|b_n| <= K perimeter_sup / (2 n pi)
    Mat-1      |a_n|+|b_n| <= perimeter_sup / (n pi)
    eq-2017    |a_n|+|b_n| <= K radial_sup
    chen-1.2   |a_n|+|b_n| <= sqrt(K') + K radial_sup
    kalaj-1    |f_z(z)|    <= R / (1 - |z|^2)
    CP-K       ||D_f(z)||  <= (R + (-R + sqrt(K' + K K' + K^2 R^2))/(1+K)) / (1 - |z|^2)
    CRP-2c     ||D_f(z)||  <= perimeter_sup sqrt(K) / (2 pi (1 - |z|))

The id radial-subharmonic belongs to the radial-integral check in the
lengths module, which reuses BoundReport.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .coefficients import CoeffTable
from .ellipticity import EllipticityParams
from .grids import GridSpec, polar_grid

__all__ = [
    "INEQUALITY_IDS",
    "HOLD_TOLERANCE",
    "BoundReport",
    "BoundContext",
    "coefficient_bounds_report",
    "derivative_bounds_report",
]

INEQUALITY_IDS = (
    "CRP-1c",
    "CRP-2c",
    "Mat-1",
    "kalaj-1",
    "chen-1.0",
    "CP-K",
    "eq-2017",
    "chen-1.2",
    "radial-subharmonic",
)

# A margin in (-1e-9, 0) is roundoff at equality cases, not a violation.
HOLD_TOLERANCE = 1e-9


def _status(margin: float) -> str:
    if not math.isfinite(margin):
        return "indeterminate"
    return "holds" if margin >= -HOLD_TOLERANCE else "violated"


@dataclass(frozen=True)
class BoundReport:
    """One checked instance of a display: margin = rhs - lhs."""

    inequality_id: str
    index: object  # coefficient index n, evaluation point z, or a radius
    lhs: float
    rhs: float
    margin: float
    status: str

    def __post_init__(self):
        if self.inequality_id not in INEQUALITY_IDS:
            raise ValueError(f"unknown inequality id {self.inequality_id!r}")

    @classmethod
    def evaluated(cls, inequality_id: str, index, lhs: float, rhs: float) -> "BoundReport":
        margin = rhs - lhs
        return cls(inequality_id=inequality_id, index=index, lhs=float(lhs),
                   rhs=float(rhs), margin=float(margin), status=_status(margin))

    @classmethod
    def indeterminate(cls, inequality_id: str, index=None) -> "BoundReport":
        return cls(inequality_id=inequality_id, index=index, lhs=math.nan,
                   rhs=math.nan, margin=math.nan, status="indeterminate")


@dataclass
class BoundContext:
    """Geometric and distortion inputs shared by the report builders.

    Inequalities whose inputs are absent produce indeterminate rows instead
    of guessing.  R_provenance records where R came from (e.g. "given",
    "boundary-polyline") since the suite cannot certify rectifiability.
    """

    params: Optional[EllipticityParams] = None
    R: Optional[float] = None
    R_provenance: str = ""
    perimeter_sup: Optional[float] = None
    radial_sup: Optional[float] = None
    coeffs: Optional[CoeffTable] = None

    def __post_init__(self):
        if self.R is not None and self.R <= 0.0:
            raise ValueError("R must be positive")
        if self.perimeter_sup is not None and self.perimeter_sup < 0.0:
            raise ValueError("perimeter_sup must be >= 0")
        if self.radial_sup is not None and self.radial_sup < 0.0:
            raise ValueError("radial_sup must be >= 0")


def _coeff_lhs(ctx: BoundContext, n: int) -> Optional[float]:
    if ctx.coeffs is None or n < 1 or n > ctx.coeffs.count:
        return None
    return abs(ctx.coeffs.a[n]) + abs(ctx.coeffs.b[n - 1])


def coefficient_bounds_report(ctx: BoundContext, n_max: int = 8) -> List[BoundReport]:
    """Rows for every coefficient display at n = 1..n_max.

    lhs is |a_n| + |b_n| from the context's coefficient table.  A display
    whose context fields are missing (or an n beyond the table) yields
    indeterminate rows.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    p = ctx.params
    rows: List[BoundReport] = []

    def emit(ineq: str, n: int, rhs: Optional[float]) -> None:
        lhs = _coeff_lhs(ctx, n)
        if lhs is None or rhs is None:
            rows.append(BoundReport.indeterminate(ineq, index=n))
        else:
            rows.append(BoundReport.evaluated(ineq, n, lhs, rhs))

    for n in range(1, n_max + 1):
        rhs = None
        if p is not None and ctx.R is not None:
            rhs = (math.sqrt(p.Kprime) + p.K * ctx.R) / n
        emit("chen-1.0", n, rhs)

    for n in range(1, n_max + 1):
        rhs = None
        if p is not None and ctx.perimeter_sup is not None:
            rhs = p.K * ctx.perimeter_sup / (2.0 * n * math.pi)
        emit("CRP-1c", n, rhs)

    for n in range(1, n_max + 1):
        rhs = ctx.perimeter_sup / (n * math.pi) if ctx.perimeter_sup is not None else None
        emit("Mat-1", n, rhs)

    for n in range(1, n_max + 1):
        rhs = None
        if p is not None and ctx.radial_sup is not None:
            rhs = p.K * ctx.radial_sup
        emit("eq-2017", n, rhs)

    for n in range(1, n_max + 1):
        rhs = None
        if p is not None and ctx.radial_sup is not None:
            rhs = math.sqrt(p.Kprime) + p.K * ctx.radial_sup
        emit("chen-1.2", n, rhs)

    return rows


def _cpk_bracket(p: EllipticityParams, R: float) -> float:
    root = math.sqrt(p.Kprime + p.K * p.Kprime + (p.K * R) ** 2)
    return R + (-R + root) / (1.0 + p.K)


def derivative_bounds_report(
    ctx: BoundContext,
    m,
    grid: Optional[GridSpec] = None,
    points: Optional[Sequence[complex]] = None,
    per_point: bool = False,
) -> List[BoundReport]:
    """Pointwise derivative displays over a grid or explicit points.

    By default each applicable display contributes a single worst-margin
    row whose index is the witness point; per_point=True emits one row per
    evaluation point instead.  Pass explicit points to probe equality cases
    that a polar grid misses (attainment points rarely land on grid nodes).
    """
    if points is not None:
        pts = np.asarray([complex(z) for z in points], dtype=complex)
        if pts.size == 0:
            raise ValueError("points must be nonempty")
        if np.any(np.abs(pts) >= 1.0):
            raise ValueError("points must lie in the open unit disk")
    else:
        pts = polar_grid(grid or GridSpec()).ravel()

    _, dz, db = m.jets(pts)
    adz, adb = np.abs(dz), np.abs(db)
    ok = np.isfinite(adz) & np.isfinite(adb)
    if not ok.any():
        raise ValueError("no evaluation point produced a finite jet")
    op = adz + adb
    az = np.abs(pts)
    p = ctx.params
    rows: List[BoundReport] = []

    def emit_batch(ineq: str, lhs: np.ndarray, rhs: np.ndarray) -> None:
        margins = np.where(ok, rhs - lhs, np.nan)
        if per_point:
            for z, l, r, mg in zip(pts, lhs, rhs, margins):
                if math.isnan(mg):
                    rows.append(BoundReport.indeterminate(ineq, index=complex(z)))
                else:
                    rows.append(BoundReport.evaluated(ineq, complex(z), float(l), float(r)))
            return
        idx = int(np.nanargmin(margins))
        rows.append(BoundReport.evaluated(ineq, complex(pts[idx]),
                                          float(lhs[idx]), float(rhs[idx])))

    if ctx.R is not None:
        emit_batch("kalaj-1", adz, ctx.R / (1.0 - az**2))
    else:
        rows.append(BoundReport.indeterminate("kalaj-1"))

    if p is not None and ctx.R is not None:
        emit_batch("CP-K", op, _cpk_bracket(p, ctx.R) / (1.0 - az**2))
    else:
        rows.append(BoundReport.indeterminate("CP-K"))

    if p is not None and ctx.perimeter_sup is not None:
        emit_batch("CRP-2c", op,
                   ctx.perimeter_sup * math.sqrt(p.K) / (2.0 * math.pi * (1.0 - az)))
    else:
        rows.append(BoundReport.indeterminate("CRP-2c"))

    return rows

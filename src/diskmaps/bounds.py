"""Inequality suite: per-display margin reports for coefficient and
derivative bounds on harmonic and elliptic maps.

Each display is declared once, in _COEFFICIENT_DISPLAYS or
_DERIVATIVE_DISPLAYS, by its id, the BoundContext fields its rhs reads and
the rhs; it yields BoundReport rows (lhs, rhs, margin = rhs - lhs), which
are indeterminate while any of those fields is unset.  The rhs reads the
context only, and for a derivative display |z| (so on a polar grid it is
taken once per ring, at the ring's radius); the lhs is |a_n|+|b_n| from the
context's coefficient table or a norm of the map's partials.  Context
fields:

    R               boundary length of the image over 2 pi,
    perimeter_sup   sup of circle-image perimeters (the CLI takes 2 pi R),
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
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .coefficients import CoeffTable
from .ellipticity import EllipticityParams, verdict
from .grids import GridSpec, polar_grid, ring_radii, sup_scan
from .maps import JetEvaluationError
from .wirtinger import Stretch

__all__ = [
    "INEQUALITY_IDS",
    "HOLD_TOLERANCE",
    "BoundReport",
    "BoundContext",
    "coefficient_bounds_report",
    "derivative_bounds_report",
]

# A margin in (-1e-9, 0) is roundoff at equality cases, not a violation.
HOLD_TOLERANCE = 1e-9


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
    def evaluated(cls, inequality_id: str, index, lhs: float, rhs: float,
                  undecided: bool = False) -> "BoundReport":
        """The row lhs <= rhs; `undecided` marks a failed hypothesis."""
        margin = rhs - lhs
        return cls(inequality_id=inequality_id, index=index, lhs=float(lhs),
                   rhs=float(rhs), margin=float(margin),
                   status=verdict(margin, HOLD_TOLERANCE, undecided))

    @classmethod
    def indeterminate(cls, inequality_id: str, index=None) -> "BoundReport":
        return cls.evaluated(inequality_id, index, math.nan, math.nan)


@dataclass
class BoundContext:
    """Geometric and distortion inputs shared by the report builders.

    Inequalities whose inputs are absent produce indeterminate rows instead
    of guessing.
    """

    params: Optional[EllipticityParams] = None
    R: Optional[float] = None
    perimeter_sup: Optional[float] = None
    radial_sup: Optional[float] = None
    coeffs: Optional[CoeffTable] = None

    def __post_init__(self):
        if self.R is not None and not self.R > 0.0:
            raise ValueError("R must be positive")
        if self.perimeter_sup is not None and not self.perimeter_sup >= 0.0:
            raise ValueError("perimeter_sup must be >= 0")
        if self.radial_sup is not None and not self.radial_sup >= 0.0:
            raise ValueError("radial_sup must be >= 0")


class _Display(NamedTuple):
    """rhs(ctx, n) of a coefficient display, rhs(ctx, |z|) of a derivative
    display whose lhs is |f_z| ("dz") or ||D_f|| ("op")."""

    inequality_id: str
    reads: Tuple[str, ...]
    rhs: Callable
    lhs: str = "op"


def _cpk_bracket(p: EllipticityParams, R: float) -> float:
    root = math.sqrt(p.Kprime + p.K * p.Kprime + (p.K * R) ** 2)
    return R + (-R + root) / (1.0 + p.K)


_COEFFICIENT_DISPLAYS = (
    _Display("chen-1.0", ("params", "R"),
             lambda c, n: (math.sqrt(c.params.Kprime) + c.params.K * c.R) / n),
    _Display("CRP-1c", ("params", "perimeter_sup"),
             lambda c, n: c.params.K * c.perimeter_sup / (2.0 * n * math.pi)),
    _Display("Mat-1", ("perimeter_sup",), lambda c, n: c.perimeter_sup / (n * math.pi)),
    _Display("eq-2017", ("params", "radial_sup"), lambda c, n: c.params.K * c.radial_sup),
    _Display("chen-1.2", ("params", "radial_sup"),
             lambda c, n: math.sqrt(c.params.Kprime) + c.params.K * c.radial_sup),
)

_DERIVATIVE_DISPLAYS = (
    _Display("kalaj-1", ("R",), lambda c, az: c.R / (1.0 - az**2), lhs="dz"),
    _Display("CP-K", ("params", "R"),
             lambda c, az: _cpk_bracket(c.params, c.R) / (1.0 - az**2)),
    _Display("CRP-2c", ("params", "perimeter_sup"),
             lambda c, az: c.perimeter_sup * math.sqrt(c.params.K)
             / (2.0 * math.pi * (1.0 - az))),
)

INEQUALITY_IDS = tuple(
    d.inequality_id for d in _COEFFICIENT_DISPLAYS + _DERIVATIVE_DISPLAYS
) + ("radial-subharmonic",)


def _applies(d: _Display, ctx: BoundContext) -> bool:
    return all(getattr(ctx, name) is not None for name in d.reads)


def coefficient_bounds_report(ctx: BoundContext, n_max: int = 8) -> List[BoundReport]:
    """Rows for every coefficient display at n = 1..n_max.

    lhs is |a_n| + |b_n| from the context's coefficient table.  A display
    whose context fields are missing (or an n beyond the table) yields
    indeterminate rows.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    table = ctx.coeffs
    rows: List[BoundReport] = []
    for d in _COEFFICIENT_DISPLAYS:
        for n in range(1, n_max + 1):
            if table is None or n > table.count or not _applies(d, ctx):
                rows.append(BoundReport.indeterminate(d.inequality_id, index=n))
            else:
                lhs = abs(table.a[n]) + abs(table.b[n - 1])
                rows.append(BoundReport.evaluated(d.inequality_id, n, lhs, d.rhs(ctx, n)))
    return rows


def derivative_bounds_report(
    ctx: BoundContext,
    m,
    grid: Optional[GridSpec] = None,
    points: Optional[Sequence[complex]] = None,
    per_point: bool = False,
) -> List[BoundReport]:
    """Pointwise derivative displays over a grid or explicit points.

    The lhs comes from one `derivatives` call on all the points.  By
    default each applicable display contributes a single worst-margin row
    whose index is the witness point; per_point=True emits one row per
    evaluation point instead, with the rhs at its |z|.  Pass explicit points
    to probe equality cases that a polar grid misses (attainment points
    rarely land on grid nodes).

    On a grid the worst row is found ring by ring: each ring's largest lhs
    (the first in angle among equals) against the rhs at the ring's radius
    (`ring_radii`), and the witness is that point of the first ring of
    least margin.  A grid raises GridScanError when more than 1% of its
    jets are not finite, and each display skips the points where its lhs
    is not finite.  Explicit points are each checked: in worst-row mode
    the first one with a non-finite jet raises JetEvaluationError, as a
    pair check does; per_point rows keep it as an indeterminate row.
    """
    spec = grid or GridSpec()
    if points is not None:
        pts = np.asarray([complex(z) for z in points], dtype=complex)
        if pts.size == 0:
            raise ValueError("points must be nonempty")
        if np.any(np.abs(pts) >= 1.0):
            raise ValueError("points must lie in the open unit disk")
    else:
        pts = polar_grid(spec)
        if per_point:
            pts = pts.ravel()

    s = Stretch(*m.derivatives(pts))
    op = s.op_norm
    if points is None:
        sup_scan(op, pts)  # the grid's failure rule
    ok = np.isfinite(op)
    if points is not None and not per_point and not ok.all():
        raise JetEvaluationError(f"jet is not finite at the point {complex(pts[np.argmin(ok)])}")
    if not ok.any():
        raise ValueError("no evaluation point produced a finite jet")
    lhs_of = {"dz": s.abs_dz, "op": op}
    by_ring = points is None and not per_point
    az = ring_radii(spec) if by_ring else np.abs(pts)
    rows: List[BoundReport] = []
    for d in _DERIVATIVE_DISPLAYS:
        ineq = d.inequality_id
        if not _applies(d, ctx):
            rows.append(BoundReport.indeterminate(ineq))
            continue
        lhs, rhs = lhs_of[d.lhs], d.rhs(ctx, az)
        if by_ring:
            # lhs - rhs rounds monotonically in lhs, so its sup is minus the
            # least ring margin, first reached on that ring.
            worst = sup_scan(lhs - rhs[:, None], pts, base=False)
            ring = int(np.argmin(np.abs(az - abs(worst.witness))))
            top = sup_scan(lhs[ring], pts[ring], base=False)
            rows.append(BoundReport.evaluated(ineq, top.witness, top.value, float(rhs[ring])))
            continue
        margins = np.where(ok, rhs - lhs, np.nan)
        if not per_point:
            idx = int(np.nanargmin(margins))
            rows.append(BoundReport.evaluated(ineq, complex(pts[idx]),
                                              float(lhs[idx]), float(rhs[idx])))
            continue
        for z, l, r, mg in zip(pts, lhs, rhs, margins):
            if math.isnan(mg):
                rows.append(BoundReport.indeterminate(ineq, index=complex(z)))
            else:
                rows.append(BoundReport.evaluated(ineq, complex(z), float(l), float(r)))
    return rows

"""Polar sampling grids and deterministic supremum scans over the disk.

The refinement scheme is shared by every sup-style estimator: scan a polar
base grid, then repeatedly densify a small window around the running
maximizer (spacing divided by 4 each round, 9x9 local window).

Every sampled sup is a `Scan` from `sup_scan`, the one failure rule: it
skips and counts (`masked`) non-finite samples, and refuses a base grid
more than 1% of which fails (GridScanError: the map fails on a region, not
at a point; `Scan.as_base`, also for a base grid sampled in blocks and
joined).  Extra samples (windows, shell rings, single points) are only
skipped and counted: one failure is 1.2% of a 9x9 window.  Ties go to the
first flat index, and in a joined scan to the earlier sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

__all__ = ["GridSpec", "GridScanError", "Scan", "sup_scan", "polar_grid", "ring_radii",
           "grid_supremum", "shell_ladder"]


class GridScanError(RuntimeError):
    """Too many grid points failed to evaluate for a trustworthy scan."""


# A scan masks at most this fraction of non-finite base-grid values.
_MAX_FAILURE_FRACTION = 0.01


@dataclass(frozen=True)
class GridSpec:
    """Polar grid: radial_count shells up to max_radius, angular_count rays.

    max_radius is capped at 1 - 1e-6 so every sample stays strictly
    interior with floating headroom.
    """

    radial_count: int = 96
    angular_count: int = 192
    max_radius: float = 1.0 - 1e-4
    refine_rounds: int = 3

    def __post_init__(self):
        if self.radial_count < 1 or self.angular_count < 1:
            raise ValueError("grid counts must be positive")
        if not 0.0 < self.max_radius <= 1.0 - 1e-6:
            raise ValueError("max_radius must lie in (0, 1 - 1e-6]")
        if self.refine_rounds < 0:
            raise ValueError("refine_rounds must be nonnegative")


def ring_radii(spec: GridSpec) -> np.ndarray:
    """The radii max_radius * i / radial_count, i = 1..radial_count, of the
    rings of polar_grid(spec)."""
    return spec.max_radius * np.arange(1, spec.radial_count + 1) / spec.radial_count


@lru_cache(maxsize=8)
def polar_grid(spec: GridSpec) -> np.ndarray:
    """Complex sample points, shape (radial_count, angular_count): ring i at
    ring_radii(spec)[i].  Cached per spec and shared, so read-only."""
    angles = 2.0 * np.pi * np.arange(spec.angular_count) / spec.angular_count
    pts = ring_radii(spec)[:, None] * np.exp(1j * angles)[None, :]
    pts.flags.writeable = False
    return pts


@dataclass(frozen=True)
class Scan:
    """A sampled sup: its value, the first point reaching it, and how many
    of the sampled points failed (were skipped) out of how many."""

    value: float
    witness: complex
    masked: int
    points: int

    def join(self, later: "Scan") -> "Scan":
        """Both samples, this one first: `later` wins only when larger."""
        top = later if later.value > self.value else self
        return Scan(top.value, top.witness, self.masked + later.masked,
                    self.points + later.points)

    def as_base(self) -> "Scan":
        """This scan as a base grid's: GridScanError past 1% failed samples."""
        if self.masked / self.points > _MAX_FAILURE_FRACTION:
            raise GridScanError(f"{self.masked / self.points:.1%} of grid points failed to "
                                f"evaluate (limit {_MAX_FAILURE_FRACTION:.0%})")
        return self


def sup_scan(values: np.ndarray, points: np.ndarray, base: bool = True) -> Scan:
    """The Scan of real `values` sampled at `points` (same shape).

    A base grid raises GridScanError past 1% failed samples; other samples
    never raise, and all failed ones give -inf at the first point.
    """
    vals = np.asarray(values, dtype=float)
    bad = ~np.isfinite(vals)
    masked = int(np.count_nonzero(bad))
    if masked:
        vals = np.where(bad, -np.inf, vals)
    idx = int(np.argmax(vals))
    scan = Scan(float(vals.flat[idx]), complex(points.flat[idx]), masked, bad.size)
    return scan.as_base() if base else scan


def _local_window(r0: float, t0: float, dr: float, dt: float, r_cap: float) -> np.ndarray:
    offsets = np.arange(-4, 5, dtype=float)
    r = np.clip(r0 + offsets * dr, 0.0, r_cap)
    t = t0 + offsets * dt
    return r[:, None] * np.exp(1j * t)[None, :]


def grid_supremum(
    field: Callable[[np.ndarray], np.ndarray],
    spec: GridSpec,
    base_values: Optional[np.ndarray] = None,
) -> Scan:
    """Supremum estimate of a real field over the disk grid, with refinement.

    `field` maps a complex array to a real array of the same shape; nan
    entries mark skipped points.  The Scan's value is a certified lower
    bound of the true sup (it is a maximum of evaluations); the refinement
    makes it a useful heuristic for the sup.

    base_values, when given, are the field's values on polar_grid(spec),
    already computed by the caller; `field` is then called only on the
    refinement windows.
    """
    pts = polar_grid(spec)
    if base_values is None:
        base_values = field(pts)
    elif np.shape(base_values) != pts.shape:
        raise ValueError(f"base_values have shape {np.shape(base_values)}, "
                         f"expected {pts.shape}")
    best = sup_scan(base_values, pts)

    dr = spec.max_radius / spec.radial_count
    dt = 2.0 * np.pi / spec.angular_count
    for _ in range(spec.refine_rounds):
        dr /= 4.0
        dt /= 4.0
        z = best.witness
        window = _local_window(abs(z), float(np.angle(z)), dr, dt, spec.max_radius)
        best = best.join(sup_scan(field(window), window, base=False))
    return best


def shell_ladder(max_radius: float, count: int = 12) -> np.ndarray:
    """Radii 1 - 2^{-k} climbing toward (and capped by) max_radius."""
    radii = [1.0 - 0.5**k for k in range(1, count + 1)]
    radii = [r for r in radii if r < max_radius]
    radii.append(max_radius)
    return np.array(radii)

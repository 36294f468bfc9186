"""Polar sampling grids and deterministic supremum scans over the disk.

The refinement scheme is shared by every sup-style estimator: scan a polar
base grid, then repeatedly densify a small window around the running
maximizer (spacing divided by 4 each round, 9x9 local window).  Reductions
resolve ties by first grid index, so scans are reproducible regardless of
evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

__all__ = ["GridSpec", "GridScanError", "polar_grid", "grid_supremum", "failed_points",
           "shell_ladder"]


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


def polar_grid(spec: GridSpec) -> np.ndarray:
    """Complex sample points, shape (radial_count, angular_count)."""
    radii = spec.max_radius * np.arange(1, spec.radial_count + 1) / spec.radial_count
    angles = 2.0 * np.pi * np.arange(spec.angular_count) / spec.angular_count
    return radii[:, None] * np.exp(1j * angles)[None, :]


def failed_points(vals: np.ndarray) -> np.ndarray:
    """Mask of the non-finite entries of a field sampled on a base grid.

    A scan may skip isolated failures, but raises GridScanError when they
    exceed 1% of the grid: the map then fails on a region, not a point.
    """
    bad = ~np.isfinite(vals)
    if bad.mean() > _MAX_FAILURE_FRACTION:
        raise GridScanError(
            f"{bad.mean():.1%} of grid points failed to evaluate "
            f"(limit {_MAX_FAILURE_FRACTION:.0%})"
        )
    return bad


def _local_window(r0: float, t0: float, dr: float, dt: float, r_cap: float) -> np.ndarray:
    offsets = np.arange(-4, 5, dtype=float)
    r = np.clip(r0 + offsets * dr, 0.0, r_cap)
    t = t0 + offsets * dt
    return r[:, None] * np.exp(1j * t)[None, :]


def grid_supremum(
    field: Callable[[np.ndarray], np.ndarray],
    spec: GridSpec,
    base_values: Optional[np.ndarray] = None,
) -> Tuple[float, complex]:
    """Supremum estimate of a real field over the disk grid, with refinement.

    `field` maps a complex array to a real array of the same shape; nan
    entries mark skipped points.  Returns (estimate, witness point).  The
    estimate is a certified lower bound of the true sup (it is a maximum of
    evaluations); the refinement makes it a useful heuristic for the sup.

    base_values, when given, are the field's values on polar_grid(spec),
    already computed by the caller; `field` is then called only on the
    refinement windows.
    """
    pts = polar_grid(spec)
    if base_values is None:
        vals = np.asarray(field(pts), dtype=float)
    else:
        vals = np.asarray(base_values, dtype=float)
        if vals.shape != pts.shape:
            raise ValueError(f"base_values have shape {vals.shape}, expected {pts.shape}")
    vals = np.where(failed_points(vals), -np.inf, vals)
    flat_idx = int(np.argmax(vals.ravel()))
    best_val = float(vals.ravel()[flat_idx])
    best_z = complex(pts.ravel()[flat_idx])
    if not np.isfinite(best_val):
        raise GridScanError("no grid point evaluated to a finite value")

    dr = spec.max_radius / spec.radial_count
    dt = 2.0 * np.pi / spec.angular_count
    r0, t0 = abs(best_z), float(np.angle(best_z))
    for _ in range(spec.refine_rounds):
        dr /= 4.0
        dt /= 4.0
        window = _local_window(r0, t0, dr, dt, spec.max_radius)
        wvals = np.asarray(field(window), dtype=float)
        wvals = np.where(np.isfinite(wvals), wvals, -np.inf)
        idx = int(np.argmax(wvals.ravel()))
        if float(wvals.ravel()[idx]) > best_val:
            best_val = float(wvals.ravel()[idx])
            best_z = complex(window.ravel()[idx])
            r0, t0 = abs(best_z), float(np.angle(best_z))
    return best_val, best_z


def shell_ladder(max_radius: float, count: int = 12) -> np.ndarray:
    """Radii 1 - 2^{-k} climbing toward (and capped by) max_radius."""
    radii = [1.0 - 0.5**k for k in range(1, count + 1)]
    radii = [r for r in radii if r < max_radius]
    radii.append(max_radius)
    return np.array(radii)

"""Pointwise first-order data of a planar map: Wirtinger jets and stretch metrics.

A jet packs the value f(z) together with the complex partials
f_z = (f_x - i f_y)/2 and f_zbar = (f_x + i f_y)/2.  All directional
stretch information of the differential at a point is a function of
(|f_z|, |f_zbar|).  `Stretch` is the one place that derives it: every
report reads the operator and lower norms, the Jacobian, the dilatation,
the ellipticity defect and the quasiconformal ratio from its arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = [
    "WirtingerJet",
    "Stretch",
    "disk_distance",
    "finite_difference_jet",
]


@dataclass(frozen=True)
class WirtingerJet:
    """Value and complex partials (d/dz, d/dzbar) of a map at one point."""

    value: complex
    dz: complex
    dzbar: complex

    def __iter__(self):
        """Unpack as the triple (value, dz, dzbar), the order of `jets`."""
        return iter((self.value, self.dz, self.dzbar))


class Stretch:
    """Stretch metrics of the partials (f_z, f_zbar), arrays of one shape.

    `abs_dz` = |f_z| and `abs_dzbar` = |f_zbar| are taken once, and each
    metric is derived from them on first use and kept.  Where a partial is
    not finite, so are the metrics.
    """

    def __init__(self, dz, dzbar):
        self.abs_dz = np.abs(dz)
        self.abs_dzbar = np.abs(dzbar)

    @cached_property
    def op_norm(self):  # ||D||, the largest directional stretch
        return self.abs_dz + self.abs_dzbar

    @cached_property
    def lower_norm(self):  # l(D), the smallest directional stretch
        return np.abs(self.abs_dz - self.abs_dzbar)

    @cached_property
    def jacobian(self):  # J = |f_z|^2 - |f_zbar|^2
        return self.abs_dz**2 - self.abs_dzbar**2

    @cached_property
    def dilatation(self):  # |f_zbar| / |f_z|, nan where |f_z| is 0 (or nan)
        return _quotient(self.abs_dzbar, self.abs_dz, self.abs_dz > 0.0)

    @cached_property
    def qc_ratio(self):  # ||D|| / l(D) where |f_z| > |f_zbar|, else nan
        return _quotient(self.op_norm, self.lower_norm, self.abs_dz > self.abs_dzbar)

    @cached_property
    def degenerate(self):  # finite partials with J <= 0: not sense-preserving
        return np.isfinite(self.abs_dz) & np.isfinite(self.abs_dzbar) & (self.jacobian <= 0.0)

    def defect(self, K: float):
        """The ellipticity defect ||D||^2 - K J."""
        return self.op_norm**2 - K * self.jacobian


def _quotient(num, den, where):
    """num / den where `where` holds, nan elsewhere."""
    return np.divide(num, den, out=np.full(np.shape(num), np.nan), where=where)


def disk_distance(z: complex) -> float:
    """Distance 1 - |z| from an interior point to the unit circle."""
    r = abs(z)
    if not r < 1.0:
        raise ValueError(f"point must lie in the open unit disk, got |z| = {r}")
    return 1.0 - r


def finite_difference_jet(
    f: Callable[[complex], complex], z: complex, h: float | None = None
) -> WirtingerJet:
    """Second-order central-difference jet of a point evaluator at z.

    The default step is min(1e-5 * max(1, |z|), (1 - |z|)/2), so that the
    stencil fits inside the disk at every interior point.  An explicit step
    must keep the four stencil points inside the unit disk.
    """
    if h is None:
        h = min(1e-5 * max(1.0, abs(z)), (1.0 - abs(z)) / 2.0)
    elif h <= 0.0:
        raise ValueError("step must be positive")
    if abs(z) + h >= 1.0:
        raise ValueError("difference stencil leaves the unit disk; reduce the step")
    fx = (f(z + h) - f(z - h)) / (2.0 * h)
    fy = (f(z + 1j * h) - f(z - 1j * h)) / (2.0 * h)
    return WirtingerJet(
        value=f(z),
        dz=(fx - 1j * fy) / 2.0,
        dzbar=(fx + 1j * fy) / 2.0,
    )

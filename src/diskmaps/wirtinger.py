"""Pointwise first-order data of a planar map: Wirtinger jets and stretch metrics.

A jet packs the value f(z) together with the complex partials
f_z = (f_x - i f_y)/2 and f_zbar = (f_x + i f_y)/2.  All directional
stretch information of the differential at a point is a function of
(|f_z|, |f_zbar|); `jet_metrics` derives the standard quantities.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "WirtingerJet",
    "DerivedMetrics",
    "jet_metrics",
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

    def is_finite(self) -> bool:
        return all(cmath.isfinite(v) for v in (self.value, self.dz, self.dzbar))


@dataclass(frozen=True)
class DerivedMetrics:
    """Stretch metrics of a differential, all derived from |dz| and |dzbar|."""

    op_norm: float        # |dz| + |dzbar|: largest directional stretch
    lower_norm: float     # ||dz| - |dzbar||: smallest directional stretch
    jacobian: float       # |dz|^2 - |dzbar|^2
    dilatation: float | None  # |dzbar|/|dz|; None when |dz| == 0


def jet_metrics(jet: WirtingerJet) -> DerivedMetrics:
    """Derive op/lower norms, Jacobian and dilatation from a jet."""
    a = abs(jet.dz)
    b = abs(jet.dzbar)
    return DerivedMetrics(
        op_norm=a + b,
        lower_norm=abs(a - b),
        jacobian=a * a - b * b,
        dilatation=(b / a) if a > 0.0 else None,
    )


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

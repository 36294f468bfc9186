"""Planar maps of the unit disk with uniform access to first-order jets.

Every map exposes scalar `value`/`jet` and vectorized `values`/`jets`.
Scalar evaluation raises on singular points; the vectorized paths return
nan entries instead so grid scans can mask isolated failures.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

from .expr import eval_jet, eval_value, jet_arrays, parse_expr, to_source, value_array
from .wirtinger import WirtingerJet, finite_difference_jet

__all__ = ["JetEvaluationError", "PlanarMap", "DslMap", "SeriesMap", "CallableMap"]

_NAN_JET = (complex("nan+nanj"),) * 3


class JetEvaluationError(ArithmeticError):
    """A map failed to evaluate where a quadrature or a circle FFT needs it.

    The arguments were valid; the map itself has a pole or branch point on
    the sampled path (a ray, a circle), so this is a numerical failure
    rather than a usage error.
    """


class PlanarMap:
    """Base class: a map of the open unit disk into the plane.

    Subclasses must implement `jet`.  `laplacian_expr` optionally names the
    Laplacian of the map as expression source, for maps where it is known in
    closed form.
    """

    label: str = "map"
    laplacian_expr: Optional[str] = None

    def jet(self, z: complex) -> WirtingerJet:
        raise NotImplementedError

    def value(self, z: complex) -> complex:
        return self.jet(z).value

    def values(self, z) -> np.ndarray:
        zz = np.asarray(z, dtype=complex)
        flat = zz.ravel()
        out = np.empty(flat.shape, dtype=complex)
        for idx, point in enumerate(flat):
            try:
                out[idx] = self.value(complex(point))
            except (ValueError, ArithmeticError):
                out[idx] = complex("nan+nanj")
        return out.reshape(zz.shape)

    def jets(self, z):
        """Return (value, dz, dzbar) arrays over an array of points."""
        zz = np.asarray(z, dtype=complex)
        flat = zz.ravel()
        v = np.empty(flat.shape, dtype=complex)
        dz = np.empty(flat.shape, dtype=complex)
        db = np.empty(flat.shape, dtype=complex)
        for idx, point in enumerate(flat):
            try:
                j = self.jet(complex(point))
                v[idx], dz[idx], db[idx] = j.value, j.dz, j.dzbar
            except (ValueError, ArithmeticError):
                v[idx], dz[idx], db[idx] = _NAN_JET
        shape = zz.shape
        return v.reshape(shape), dz.reshape(shape), db.reshape(shape)

    def analytic_parts(self) -> Optional[tuple["PlanarMap", "PlanarMap"]]:
        """Analytic maps (h1, h2) with f = h1 + conj(h2) + (potential terms).

        Returns None when no such decomposition is tracked for this map.
        """
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.label!r})"


class DslMap(PlanarMap):
    """Map defined by expression source in the variable z."""

    def __init__(
        self,
        source: str,
        label: Optional[str] = None,
        laplacian_expr: Optional[str] = None,
    ):
        self.ast = parse_expr(source)
        self.source = source
        self.label = label if label is not None else source
        self.laplacian_expr = laplacian_expr

    def value(self, z: complex) -> complex:
        return eval_value(self.ast, z)

    def jet(self, z: complex) -> WirtingerJet:
        return eval_jet(self.ast, z)

    def values(self, z) -> np.ndarray:
        return value_array(self.ast, z)

    def jets(self, z):
        return jet_arrays(self.ast, z)

    def __repr__(self) -> str:
        return f"DslMap({to_source(self.ast)})"


def _as_coeffs(c: Sequence[complex]) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(c, dtype=complex))
    if arr.ndim != 1:
        raise ValueError("coefficients must be one-dimensional")
    return arr if arr.size else np.zeros(1, dtype=complex)


class SeriesMap(PlanarMap):
    """f(z) = sum_n a[n] z^n + sum_n b[n] conj(z)^n with finite coefficients.

    The b coefficients multiply literal powers of conj(z).  Such maps are
    harmonic, so `laplacian_expr` is fixed to "0".
    """

    laplacian_expr = "0"

    def __init__(self, a: Sequence[complex], b: Sequence[complex] = (), label: str = "series"):
        self.a = _as_coeffs(a)
        self.b = _as_coeffs(b)
        self.label = label
        self._da = npoly.polyder(self.a) if self.a.size > 1 else np.zeros(1, dtype=complex)
        self._db = npoly.polyder(self.b) if self.b.size > 1 else np.zeros(1, dtype=complex)

    def value(self, z: complex) -> complex:
        z = complex(z)
        return complex(npoly.polyval(z, self.a) + npoly.polyval(np.conj(z), self.b))

    def jet(self, z: complex) -> WirtingerJet:
        z = complex(z)
        zb = np.conj(z)
        return WirtingerJet(
            value=complex(npoly.polyval(z, self.a) + npoly.polyval(zb, self.b)),
            dz=complex(npoly.polyval(z, self._da)),
            dzbar=complex(npoly.polyval(zb, self._db)),
        )

    def values(self, z) -> np.ndarray:
        zz = np.asarray(z, dtype=complex)
        return npoly.polyval(zz, self.a) + npoly.polyval(np.conj(zz), self.b)

    def jets(self, z):
        zz = np.asarray(z, dtype=complex)
        zb = np.conj(zz)
        v = npoly.polyval(zz, self.a) + npoly.polyval(zb, self.b)
        dz = npoly.polyval(zz, self._da)
        db = npoly.polyval(zb, self._db)
        ones = np.ones_like(zz)
        return v * ones, dz * ones, db * ones

    def analytic_parts(self):
        h1 = SeriesMap(self.a, label=f"{self.label}:h1")
        h2 = SeriesMap(np.conj(self.b), label=f"{self.label}:h2")
        return h1, h2


class CallableMap(PlanarMap):
    """Wrap a plain python function; jets fall back to central differences."""

    def __init__(
        self,
        fn: Callable[[complex], complex],
        jet_fn: Optional[Callable[[complex], WirtingerJet]] = None,
        label: str = "callable",
        laplacian_expr: Optional[str] = None,
        fd_step: Optional[float] = None,
    ):
        self.fn = fn
        self.jet_fn = jet_fn
        self.label = label
        self.laplacian_expr = laplacian_expr
        self.fd_step = fd_step

    def value(self, z: complex) -> complex:
        return complex(self.fn(complex(z)))

    def jet(self, z: complex) -> WirtingerJet:
        if self.jet_fn is not None:
            return self.jet_fn(complex(z))
        return finite_difference_jet(self.fn, complex(z), self.fd_step)

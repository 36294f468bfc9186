"""Planar maps of the unit disk with uniform access to first-order jets.

A map is its `values` and `jets`, each taken at one point or at an array of
points.  At a point they raise on a singular point; over an array they
return nan entries instead so grid scans can mask isolated failures.
`PlanarMap` derives the scalar `value` and `jet` from them once.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

from .expr import eval_jet, eval_value, jet_arrays, parse_expr, to_source, value_array
from .wirtinger import WirtingerJet, finite_difference_jet

__all__ = ["JetEvaluationError", "PlanarMap", "DslMap", "SeriesMap", "CallableMap", "is_array"]


def is_array(z) -> bool:
    """True for an array of points, False for one point.  A Python complex
    skips np.ndim, which costs ~1.5 us on a scalar (a tenth of a DSL jet)."""
    return not isinstance(z, complex) and np.ndim(z) > 0


class JetEvaluationError(ArithmeticError):
    """A map failed to evaluate where a quadrature or a circle FFT needs it.

    The arguments were valid; the map itself has a pole or branch point on
    the sampled path (a ray, a circle), so this is a numerical failure
    rather than a usage error.
    """


class PlanarMap:
    """Base class: a map of the open unit disk into the plane.

    Subclasses implement `values` and `jets`: at one point z they return the
    value, and the triple (value, d/dz, d/dzbar), raising on a singular
    point; at an array of points, arrays shaped like z with nan entries
    where the map fails.  `laplacian_expr` optionally names the Laplacian of
    the map as expression source, for maps where it is known in closed form.
    """

    label: str = "map"
    laplacian_expr: Optional[str] = None

    def values(self, z):
        raise NotImplementedError

    def jets(self, z):
        raise NotImplementedError

    def value(self, z: complex) -> complex:
        return complex(self.values(complex(z)))

    def jet(self, z: complex) -> WirtingerJet:
        jet = self.jets(complex(z))
        return jet if isinstance(jet, WirtingerJet) else WirtingerJet(*map(complex, jet))

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

    def values(self, z):
        return value_array(self.ast, z) if is_array(z) else eval_value(self.ast, z)

    def jets(self, z):
        return jet_arrays(self.ast, z) if is_array(z) else eval_jet(self.ast, z)

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

    def values(self, z):
        z = np.asarray(z, dtype=complex) if is_array(z) else complex(z)
        return npoly.polyval(z, self.a) + npoly.polyval(np.conj(z), self.b)

    def jets(self, z):
        z = np.asarray(z, dtype=complex) if is_array(z) else complex(z)
        zb = np.conj(z)
        return (npoly.polyval(z, self.a) + npoly.polyval(zb, self.b),
                npoly.polyval(z, self._da), npoly.polyval(zb, self._db))

    def analytic_parts(self):
        h1 = SeriesMap(self.a, label=f"{self.label}:h1")
        h2 = SeriesMap(np.conj(self.b), label=f"{self.label}:h2")
        return h1, h2


class CallableMap(PlanarMap):
    """Wrap a plain python function of one point.

    Jets fall back to central differences, and arrays are evaluated point
    by point, with nan where the function or its stencil fails.
    """

    def __init__(self, fn: Callable[[complex], complex], label: str = "callable"):
        self.fn = fn
        self.label = label

    def values(self, z):
        if is_array(z):
            return _pointwise(lambda p: [self.values(p)], z, 1)[0]
        return complex(self.fn(complex(z)))

    def jets(self, z):
        if is_array(z):
            return tuple(_pointwise(lambda p: list(self.jets(p)), z, 3))
        return finite_difference_jet(self.fn, complex(z))


def _pointwise(evaluate, z, parts: int) -> np.ndarray:
    """(parts, *z.shape) array of the list `evaluate` gives at each point of z,
    nan where it raises."""
    zz = np.asarray(z, dtype=complex)
    out = np.full((parts,) + zz.shape, complex("nan+nanj"))
    for idx in np.ndindex(zz.shape):
        try:
            out[(slice(None),) + idx] = evaluate(complex(zz[idx]))
        except (ValueError, ArithmeticError):
            pass
    return out

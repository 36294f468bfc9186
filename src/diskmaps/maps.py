"""Planar maps of the unit disk with uniform access to first-order jets.

A map is its `values` and `jets` over an array of points, with non-finite
entries where it fails, so grid scans can mask isolated failures.
`derivatives` is the jet without its value, for the scans and quadratures
that read only (f_z, f_zbar).  `PlanarMap.value` and `jet` are the one view
of them at a single point: they raise ValueError naming the point where any
part is not finite.
"""

from __future__ import annotations

import cmath
from typing import Callable, Optional, Sequence

import numpy as np

from .expr import jet_arrays, parse_expr, to_source, value_array
from .wirtinger import WirtingerJet, finite_difference_jet

__all__ = ["JetEvaluationError", "PlanarMap", "DslMap", "SeriesMap", "CallableMap",
           "at_point"]


class JetEvaluationError(ArithmeticError):
    """A map failed to evaluate where a quadrature or a circle FFT needs it.

    The arguments were valid; the map itself has a pole or branch point on
    the sampled path (a ray, a circle), so this is a numerical failure
    rather than a usage error.
    """


class PlanarMap:
    """Base class: a map of the open unit disk into the plane.

    Subclasses implement `values` and `jets` over an array of points z:
    the values, and the triple (value, d/dz, d/dzbar), as arrays shaped like
    z with non-finite entries where the map fails.  `derivatives` is the
    pair (d/dz, d/dzbar), bit for bit `jets(z)[1:]`; a subclass overrides
    it where the partials cost less without the value.  `laplacian_expr`
    optionally names the Laplacian of the map as expression source, for
    maps where it is known in closed form.
    """

    label: str = "map"
    laplacian_expr: Optional[str] = None

    def values(self, z):
        raise NotImplementedError

    def jets(self, z):
        raise NotImplementedError

    def derivatives(self, z):
        return self.jets(z)[1:]

    def value(self, z: complex) -> complex:
        """The value at one point; ValueError where it is not finite."""
        return at_point(z, self.values(np.array([complex(z)])))[0]

    def jet(self, z: complex) -> WirtingerJet:
        """The jet at one point; ValueError where a part is not finite."""
        parts = self.jets(np.array([complex(z)]))
        return WirtingerJet(*at_point(z, (part[0] for part in parts)))

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


def _horner(x: np.ndarray, c: np.ndarray):
    """sum_n c[n] x^n by Horner's rule, bit for bit `npoly.polyval(x, c)`.

    Each step is a new product `acc * x`: in numpy an in-place product
    (`np.multiply(acc, x, out=acc)`) can round a point differently alone
    than in a batch.  The in-place sum is exact either way.
    """
    acc = c[-1] + x * 0
    for ck in c[-2::-1]:
        acc = acc * x
        acc += ck
    return acc


class SeriesMap(PlanarMap):
    """f(z) = sum_n a[n] z^n + sum_n b[n] conj(z)^n with finite coefficients.

    The b coefficients multiply literal powers of conj(z).  Such maps are
    harmonic, so `laplacian_expr` is fixed to "0".  The four series of a
    jet are summed by `_horner`, numpy's `polyval` recurrence without its
    per-call reshaping; `derivatives` sums only the two derivative series.
    """

    laplacian_expr = "0"

    def __init__(self, a: Sequence[complex], b: Sequence[complex] = (), label: str = "series"):
        self.a = _as_coeffs(a)
        self.b = _as_coeffs(b)
        self.label = label
        # Bit for bit npoly.polyder, whose product by its scale 1 moves the
        # sign of some zeros; [0] for a constant.
        self._da, self._db = (np.arange(1, c.size) * (c[1:] * 1) if c.size > 1
                              else np.zeros(1, dtype=complex) for c in (self.a, self.b))

    def values(self, z):
        z = np.asarray(z, dtype=complex)
        return _horner(z, self.a) + _horner(np.conj(z), self.b)

    def jets(self, z):
        z = np.asarray(z, dtype=complex)
        return (_horner(z, self.a) + _horner(np.conj(z), self.b), *self.derivatives(z))

    def derivatives(self, z):
        z = np.asarray(z, dtype=complex)
        return _horner(z, self._da), _horner(np.conj(z), self._db)

    def analytic_parts(self):
        h1 = SeriesMap(self.a, label=f"{self.label}:h1")
        h2 = SeriesMap(np.conj(self.b), label=f"{self.label}:h2")
        return h1, h2


class CallableMap(PlanarMap):
    """Wrap a plain python function of one point.

    Arrays are evaluated point by point, with jets from central
    differences, and nan where the function or its stencil fails.
    """

    def __init__(self, fn: Callable[[complex], complex], label: str = "callable"):
        self.fn = fn
        self.label = label

    def values(self, z):
        return _pointwise(lambda p: [self.fn(p)], z, 1)[0]

    def jets(self, z):
        return tuple(_pointwise(lambda p: list(finite_difference_jet(self.fn, p)), z, 3))


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


def at_point(z, parts) -> list:
    """The parts (value, or value and partials) of a map at the point z, as
    complex numbers; ValueError naming z where one of them is not finite."""
    out = [complex(part) for part in parts]
    if not all(map(cmath.isfinite, out)):
        raise ValueError(f"the map is not finite at z = {complex(z)}")
    return out

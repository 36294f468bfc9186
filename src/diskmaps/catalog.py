"""Named constructors for the maps exercised throughout the suite.

Catalog entries pair a constructor with the metadata the analyses need:
parameter values and any exactly-known context (distortion constant K,
boundary radius R, radial length sup) that measurement would only
approximate.  Exact context matters for equality-case bound checks, where
a polyline underestimate of R (relative error ~1e-6) would turn a sharp
equality into a phantom violation.  Every name is declared once, in
_CATALOG, with its parameter schema, defaults and constructor.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .expr import jet_arrays, parse_expr, value_array
from .maps import DslMap, PlanarMap, SeriesMap

__all__ = [
    "MapDefinition",
    "Example13Map",
    "builtin_map",
    "parse_params",
    "kalaj_extremal",
    "harmonic_catalog",
    "catalog_names",
]

EXAMPLE15_SOURCE = "3*z*abs(z)^2 - z*abs(z)^8"
EXAMPLE15_LAPLACIAN = "24*z - 80*z^4*conj(z)^3"


@dataclass(frozen=True)
class MapDefinition:
    """A named, parametrized map plus analysis metadata.

    diagnostics may carry exact context values ("exact_K", "exact_R",
    "exact_radial_sup") and the series truncation bound of kalaj_extremal.
    build() returns a fresh PlanarMap.
    """

    name: str
    parameters: Dict[str, object]
    diagnostics: Dict[str, object] = field(default_factory=dict)
    _builder: Callable[[], PlanarMap] = field(default=None, repr=False, compare=False)

    def build(self) -> PlanarMap:
        return self._builder()


class _AnalyticDslMap(DslMap):
    """A DSL map known to be analytic: its analytic pair is (f, 0)."""

    def analytic_parts(self) -> Tuple[PlanarMap, PlanarMap]:
        return self, SeriesMap([0], label="zero")


class Example13Map(PlanarMap):
    """z * (log(e / |z|^2))^alpha, extended by 0 at the origin.

    Continuous on the closed disk for alpha in (0, 1/2), sense-preserving,
    but not Lipschitz at 0: the derivative norm grows like
    (1 - 2 log |z|)^alpha, so the derivatives at exactly 0 are nan rather
    than faked with a large finite number (and `jet(0)` raises).
    """

    def __init__(self, alpha: float):
        if not 0.0 < alpha < 0.5:
            raise ValueError("alpha must lie in (0, 1/2)")
        self.alpha = float(alpha)
        self.label = f"example13(alpha={self.alpha})"
        self._ast = parse_expr(f"z * pow(log(e / abs(z)^2), {self.alpha!r})")

    def values(self, z):
        return np.where(np.equal(z, 0), 0j, value_array(self._ast, z))

    def jets(self, z):
        at0 = np.equal(z, 0)
        value, dz, dzbar = jet_arrays(self._ast, z)
        return (np.where(at0, 0j, value), np.where(at0, complex("nan+nanj"), dz),
                np.where(at0, complex("nan+nanj"), dzbar))


def _complex_literal(c: complex) -> str:
    c = complex(c)
    if c.imag == 0.0:
        return repr(c.real)
    return f"({c.real!r} + {c.imag!r}*i)"


def _identity(name: str, params) -> MapDefinition:
    return MapDefinition(
        name=name, parameters={},
        diagnostics={"exact_K": 1.0, "exact_R": 1.0, "exact_radial_sup": 1.0},
        _builder=lambda: SeriesMap([0, 1], label=name),
    )


_KINDS = {int: "an integer", float: "a real number", complex: "a complex number"}


def _finite(kind, value, name: str, many: bool = False):
    """A catalog parameter converted by `kind` (int, float or complex).

    With `many` it is a list: a tuple of numbers, one value making a
    one-element tuple.  Otherwise it is one number.  ValueError naming the
    parameter where a number parameter gets a list, a value `kind` cannot
    read, or a number that is nan or infinite.
    """
    if many:
        items = value if np.ndim(value) else (value,)
        return tuple(_finite(kind, item, name) for item in items)
    if np.ndim(value):
        raise ValueError(f"catalog parameter {name} takes one number, got {value!r}")
    try:
        number = kind(value)
    except (TypeError, ValueError):
        raise ValueError(f"catalog parameter {name} must be {_KINDS[kind]}, "
                         f"got {value!r}") from None
    if not cmath.isfinite(number):
        raise ValueError(f"catalog parameter {name} must be finite, got {value!r}")
    return number


def _scale(name: str, params) -> MapDefinition:
    c = _finite(complex, params["c"], "c")
    if c == 0:
        raise ValueError("scale factor must be nonzero")
    return MapDefinition(
        name=name, parameters={"c": c},
        diagnostics={"exact_K": 1.0, "exact_R": abs(c), "exact_radial_sup": abs(c)},
        _builder=lambda: SeriesMap([0, c], label=f"{name}({c})"),
    )


def _moebius(name: str, params) -> MapDefinition:
    a = _finite(complex, params["a"], "a")
    t = _finite(float, params["t"], "t")
    if not abs(a) < 1.0:
        raise ValueError("moebius parameter a must satisfy |a| < 1")
    rot = cmath.exp(1j * t)
    src = (f"{_complex_literal(rot)} * (z - {_complex_literal(a)}) "
           f"/ (1 - {_complex_literal(a.conjugate())}*z)")
    return MapDefinition(
        name=name, parameters={"a": a, "t": t},
        diagnostics={"exact_K": 1.0, "exact_R": 1.0},
        _builder=lambda: _AnalyticDslMap(src, label=f"{name}(a={a}, t={t})",
                                         laplacian_expr="0"),
    )


def _example13(name: str, params) -> MapDefinition:
    alpha = _finite(float, params["alpha"], "alpha")
    return MapDefinition(name=name, parameters={"alpha": alpha},
                         _builder=lambda: Example13Map(alpha))


def _example15(name: str, params) -> MapDefinition:
    return MapDefinition(
        name=name, parameters={},
        _builder=lambda: DslMap(EXAMPLE15_SOURCE, label=name,
                                laplacian_expr=EXAMPLE15_LAPLACIAN),
    )


def _polyharmonic(name: str, params) -> MapDefinition:
    a = _finite(complex, params["a"], "a", many=True)
    b = _finite(complex, params["b"], "b", many=True)
    return MapDefinition(name=name, parameters={"a": a, "b": b},
                         _builder=lambda: SeriesMap(a, b, label=name))


def _kalaj(name: str, params) -> MapDefinition:
    return kalaj_extremal(_finite(float, params["R"], "R"),
                          _finite(complex, params["mu"], "mu", many=True),
                          _finite(int, params["series_degree"], "series_degree"))


class _Entry(NamedTuple):
    schema: str  # parameter description listed by the catalog subcommand
    params: Tuple[str, ...]  # accepted parameters, each required once defaults fill in
    defaults: Dict[str, object]
    build: Callable[[str, Dict[str, object]], MapDefinition]


_CATALOG: Dict[str, _Entry] = {
    "identity": _Entry("", (), {}, _identity),
    "scale": _Entry("c", ("c",), {}, _scale),
    "moebius": _Entry("a, t (default 0)", ("a", "t"), {"t": 0.0}, _moebius),
    "example13": _Entry("alpha in (0, 1/2)", ("alpha",), {}, _example13),
    "example15": _Entry("", (), {}, _example15),
    "polyharmonic": _Entry("a (comma list), b (comma list)", ("a", "b"), {}, _polyharmonic),
    "kalaj_extremal": _Entry("R, mu (comma list), series_degree (default 24)",
                             ("R", "mu", "series_degree"),
                             {"R": 1.0, "mu": (0.0,), "series_degree": 24}, _kalaj),
}


def builtin_map(name: str, params: Optional[Dict[str, object]] = None) -> MapDefinition:
    """Construct a catalog map by name, with defaults filled in.

    Names and parameters:
      identity
      scale          c (nonzero scalar)
      moebius        a (|a| < 1), t (rotation angle, default 0)
      example13      alpha in (0, 1/2)
      example15
      polyharmonic   a (z-power coefficients), b (zbar-power coefficients)
      kalaj_extremal R (default 1), mu (polynomial coefficients, default 0),
                     series_degree (default 24); see kalaj_extremal()
    """
    entry = _CATALOG.get(name)
    if entry is None:
        raise ValueError(f"unknown catalog map {name!r}")
    params = {**entry.defaults, **(params or {})}
    missing = [k for k in entry.params if k not in params]
    if missing:
        raise ValueError(f"catalog map {name!r} needs parameters {missing}")
    extra = [k for k in params if k not in entry.params]
    if extra:
        raise ValueError(f"catalog map {name!r} got unknown parameters {extra}")
    return entry.build(name, params)


def parse_params(entries: Optional[Sequence[str]]) -> Dict[str, object]:
    """Catalog parameters from "key=value" strings, as `--param` gives them.

    Keys and values are stripped of whitespace; a value with commas becomes
    a tuple of its stripped items.  builtin_map converts them.
    """
    params: Dict[str, object] = {}
    for entry in entries or ():
        if "=" not in entry:
            raise ValueError(f"--param needs key=value, got {entry!r}")
        key, _, value = entry.partition("=")
        items = tuple(v.strip() for v in value.split(","))
        params[key.strip()] = items if len(items) > 1 else items[0]
    return params


def _invert_unit_leading(q: np.ndarray, degree: int) -> np.ndarray:
    """Coefficients of 1/(1 + q(z)) through z^degree, q with q(0) = 0."""
    c = np.zeros(degree + 1, dtype=complex)
    c[0] = 1.0
    for n in range(1, degree + 1):
        jmax = min(n, len(q) - 1)
        c[n] = -np.sum(q[1 : jmax + 1] * c[n - jmax : n][::-1])
    return c


def kalaj_extremal(R: float, mu: Sequence[complex], series_degree: int = 24) -> MapDefinition:
    """Harmonic map with h1' = R / (1 + z^2 mu(z)), h2' = mu(z) h1'(z).

    mu is a polynomial (ascending coefficients) with sup |mu| <= 1 on the
    circle, checked by a dense scan.  The reciprocal is expanded as a power
    series to series_degree and integrated termwise; the geometric tail
    bound of the truncation is recorded in diagnostics.  With mu = 0 the
    construction reduces to scale(R) exactly.
    """
    if not R > 0.0:
        raise ValueError("R must be positive")
    if series_degree < 8:
        raise ValueError("series_degree must be >= 8")
    mu = np.atleast_1d(np.asarray(mu, dtype=complex))
    if mu.size == 0:
        mu = np.zeros(1, dtype=complex)

    theta = 2.0 * np.pi * np.arange(4096) / 4096
    ring = np.exp(1j * theta)
    mu_ring = np.polynomial.polynomial.polyval(ring, mu)
    sup_mu = float(np.max(np.abs(mu_ring)))
    if not sup_mu <= 1.0 + 1e-12:
        raise ValueError(f"sup |mu| on the circle is {sup_mu:.6f} > 1")

    q = np.concatenate([[0.0, 0.0], mu])  # q(z) = z^2 mu(z)
    c = _invert_unit_leading(q, series_degree)
    h1p = R * c
    h2p = R * np.convolve(mu, c)[: series_degree + 1]
    n = np.arange(1, series_degree + 2)
    h1 = np.concatenate([[0.0], h1p / n])
    h2 = np.concatenate([[0.0], h2p / n])

    # |z^2 mu(z)| = |mu(z)| on the circle, so the tail is geometric in sup_mu.
    tail = math.inf
    if sup_mu < 1.0 - 1e-9:
        tail = sup_mu ** (series_degree + 1) / (1.0 - sup_mu)

    return MapDefinition(
        name="kalaj_extremal",
        parameters={"R": float(R), "mu": tuple(complex(v) for v in mu),
                    "series_degree": int(series_degree)},
        diagnostics={
            "truncation_tail_bound": tail,
            "exact_R": float(R),
            "exact_K": (1.0 + sup_mu) / (1.0 - sup_mu) if sup_mu < 1.0 else math.inf,
            # mu = 0 collapses to scale(R), whose radial lengths are R r;
            # measured sups stop short of the boundary and would flip the
            # equality displays.
            **({"exact_radial_sup": float(R)} if sup_mu == 0.0 else {}),
        },
        _builder=lambda: SeriesMap(h1, np.conj(h2),
                                   label=f"kalaj_extremal(R={R}, degree={series_degree})"),
    )


def harmonic_catalog() -> List[MapDefinition]:
    """The harmonic sense-preserving maps used for bound-suite regression."""
    return [
        builtin_map("identity"),
        builtin_map("scale", {"c": 1.5}),
        builtin_map("moebius", {"a": 0.5, "t": 0.0}),
        builtin_map("moebius", {"a": 0.3 + 0.2j, "t": 0.7}),
        builtin_map("polyharmonic", {"a": [0, 1], "b": [0, 0, 0.3]}),
        builtin_map("polyharmonic", {"a": [0, 1, 0, 0.1], "b": [0, 0, 0.25]}),
        kalaj_extremal(1.0, [0.0], series_degree=12),
        kalaj_extremal(1.0, [0.5], series_degree=24),
    ]


def catalog_names() -> Dict[str, str]:
    """name -> parameter schema, for the CLI listing."""
    return {name: entry.schema for name, entry in _CATALOG.items()}

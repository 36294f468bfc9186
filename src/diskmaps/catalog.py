"""Named constructors for the maps exercised throughout the suite.

Catalog entries pair a constructor with the metadata the analyses need:
parameter values, the representation kind, and any exactly-known context
(distortion constant K, boundary radius R, radial length sup) that
measurement would only approximate.  Exact context matters for
equality-case bound checks, where a polyline underestimate of R (relative
error ~1e-6) would turn a sharp equality into a phantom violation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .expr import eval_jet, eval_value, jet_arrays, parse_expr, value_array
from .maps import DslMap, PlanarMap, SeriesMap
from .wirtinger import WirtingerJet

__all__ = [
    "MapDefinition",
    "Example13Map",
    "builtin_map",
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
    "exact_radial_sup") and construction-quality indicators (truncation
    bounds, convexity diagnostics).  build() returns a fresh PlanarMap.
    """

    name: str
    parameters: Dict[str, object]
    representation: str  # "dsl" | "series" | "custom"
    source: Optional[str]
    provenance: str
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
    (1 - 2 log |z|)^alpha, so jets at exactly 0 are refused rather than
    faked with a large finite number.
    """

    def __init__(self, alpha: float):
        if not 0.0 < alpha < 0.5:
            raise ValueError("alpha must lie in (0, 1/2)")
        self.alpha = float(alpha)
        self.label = f"example13(alpha={self.alpha})"
        self._ast = parse_expr(f"z * pow(log(e / abs(z)^2), {self.alpha!r})")

    def value(self, z: complex) -> complex:
        z = complex(z)
        if z == 0:
            return 0j
        return eval_value(self._ast, z)

    def jet(self, z: complex) -> WirtingerJet:
        z = complex(z)
        if z == 0:
            raise ValueError(
                "jet at the origin is undefined: the derivative norm "
                "diverges like (1 - 2 log|z|)^alpha as z -> 0"
            )
        return eval_jet(self._ast, z)

    def values(self, zs) -> np.ndarray:
        zs = np.asarray(zs, dtype=complex)
        out = value_array(self._ast, zs)
        return np.where(zs == 0, 0j, out)

    def jets(self, zs):
        zs = np.asarray(zs, dtype=complex)
        value, dz, dzbar = jet_arrays(self._ast, zs)
        at0 = zs == 0
        if np.any(at0):
            value = np.where(at0, 0j, value)
            dz = np.where(at0, complex(np.nan, np.nan), dz)
            dzbar = np.where(at0, complex(np.nan, np.nan), dzbar)
        return value, dz, dzbar


def _complex_literal(c: complex) -> str:
    c = complex(c)
    if c.imag == 0.0:
        return repr(c.real)
    return f"({c.real!r} + {c.imag!r}*i)"


def _require_params(params: Dict[str, object], needed: Sequence[str], name: str) -> None:
    missing = [k for k in needed if k not in params]
    if missing:
        raise ValueError(f"catalog map {name!r} needs parameters {missing}")
    extra = [k for k in params if k not in needed]
    if extra:
        raise ValueError(f"catalog map {name!r} got unknown parameters {extra}")


def builtin_map(name: str, params: Optional[Dict[str, object]] = None) -> MapDefinition:
    """Construct a catalog map by name.

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
    params = dict(params or {})
    if name == "identity":
        _require_params(params, (), name)
        return MapDefinition(
            name=name, parameters={}, representation="series", source="z",
            provenance="the identity map, equality case of the coefficient bounds",
            diagnostics={"exact_K": 1.0, "exact_R": 1.0, "exact_radial_sup": 1.0},
            _builder=lambda: SeriesMap([0, 1], label="identity"),
        )
    if name == "scale":
        _require_params(params, ("c",), name)
        c = complex(params["c"])
        if c == 0:
            raise ValueError("scale factor must be nonzero")
        return MapDefinition(
            name=name, parameters={"c": c}, representation="series",
            source=f"{_complex_literal(c)} * z",
            provenance="linear scaling, radial-length equality case",
            diagnostics={"exact_K": 1.0, "exact_R": abs(c),
                         "exact_radial_sup": abs(c)},
            _builder=lambda: SeriesMap([0, c], label=f"scale({c})"),
        )
    if name == "moebius":
        defaults = {"t": 0.0}
        defaults.update(params)
        params = defaults
        _require_params(params, ("a", "t"), name)
        a = complex(params["a"])
        t = float(params["t"])
        if abs(a) >= 1.0:
            raise ValueError("moebius parameter a must satisfy |a| < 1")
        rot = cmath.exp(1j * t)
        src = (f"{_complex_literal(rot)} * (z - {_complex_literal(a)}) "
               f"/ (1 - {_complex_literal(a.conjugate())}*z)")
        return MapDefinition(
            name=name, parameters={"a": a, "t": t}, representation="dsl",
            source=src,
            provenance="disk automorphism, sharpness case of the derivative bounds",
            diagnostics={"exact_K": 1.0, "exact_R": 1.0},
            _builder=lambda: _AnalyticDslMap(src, label=f"moebius(a={a}, t={t})",
                                             laplacian_expr="0"),
        )
    if name == "example13":
        _require_params(params, ("alpha",), name)
        alpha = float(params["alpha"])
        return MapDefinition(
            name=name, parameters={"alpha": alpha}, representation="custom",
            source=f"z * pow(log(e / abs(z)^2), {alpha!r})",
            provenance="radial log-power map: quasiconformal but not "
                       "Lipschitz at the origin",
            _builder=lambda: Example13Map(alpha),
        )
    if name == "example15":
        _require_params(params, (), name)
        return MapDefinition(
            name=name, parameters={}, representation="dsl",
            source=EXAMPLE15_SOURCE,
            provenance="degree-9 radial polynomial map with unbounded "
                       "dilatation toward the boundary",
            _builder=lambda: DslMap(EXAMPLE15_SOURCE, label="example15",
                                    laplacian_expr=EXAMPLE15_LAPLACIAN),
        )
    if name == "polyharmonic":
        _require_params(params, ("a", "b"), name)
        a = [complex(v) for v in params["a"]]
        b = [complex(v) for v in params["b"]]
        return MapDefinition(
            name=name, parameters={"a": tuple(a), "b": tuple(b)},
            representation="series", source=None,
            provenance="polynomial harmonic map given by its coefficients",
            _builder=lambda: SeriesMap(a, b, label="polyharmonic"),
        )
    if name == "kalaj_extremal":
        defaults = {"R": 1.0, "mu": (0.0,), "series_degree": 24}
        defaults.update(params)
        params = defaults
        _require_params(params, ("R", "mu", "series_degree"), name)
        mu = params["mu"]
        if not isinstance(mu, (tuple, list)):
            mu = (mu,)
        return kalaj_extremal(float(params["R"]), [complex(v) for v in mu],
                              int(params["series_degree"]))
    raise ValueError(f"unknown catalog map {name!r}")


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
    bound of the truncation is recorded in diagnostics, along with a
    polyline turning-angle diagnostic for convexity of the boundary image
    (reported, not asserted).  With mu = 0 the construction reduces to
    scale(R) exactly.
    """
    if R <= 0.0:
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
    if sup_mu > 1.0 + 1e-12:
        raise ValueError(f"sup |mu| on the circle is {sup_mu:.6f} > 1")

    q = np.concatenate([[0.0, 0.0], mu])  # q(z) = z^2 mu(z)
    c = _invert_unit_leading(q, series_degree)
    h1p = R * c
    h2p = R * np.convolve(mu, c)[: series_degree + 1]
    n = np.arange(1, series_degree + 2)
    h1 = np.concatenate([[0.0], h1p / n])
    h2 = np.concatenate([[0.0], h2p / n])

    q_sup = sup_mu  # |z^2 mu(z)| = |mu(z)| on the circle
    if q_sup < 1.0 - 1e-9:
        tail = q_sup ** (series_degree + 1) / (1.0 - q_sup)
        convergence = "geometric"
    else:
        tail = math.inf
        convergence = "not bounded away from 1: series may not converge"

    def build() -> PlanarMap:
        return SeriesMap(h1, np.conj(h2),
                         label=f"kalaj_extremal(R={R}, degree={series_degree})")

    m = build()
    boundary = m.values((1.0 - 1e-3) * np.exp(1j * 2.0 * np.pi * np.arange(1024) / 1024))
    edges = np.diff(np.concatenate([boundary, boundary[:1]]))
    cross = np.imag(np.conj(edges[:-1]) * edges[1:])
    convex_fraction = float(np.mean(cross >= -1e-12 * np.abs(edges[:-1]) * np.abs(edges[1:])))

    return MapDefinition(
        name="kalaj_extremal",
        parameters={"R": float(R), "mu": tuple(complex(v) for v in mu),
                    "series_degree": int(series_degree)},
        representation="series",
        source=None,
        provenance="harmonic extremal with prescribed second dilatation, "
                   "built by power-series inversion",
        diagnostics={
            "sup_mu_circle": sup_mu,
            "truncation_tail_bound": tail,
            "convergence": convergence,
            "convex_fraction": convex_fraction,
            "exact_R": float(R),
            "exact_K": (1.0 + sup_mu) / (1.0 - sup_mu) if sup_mu < 1.0 else math.inf,
            # mu = 0 collapses to scale(R), whose radial lengths are R r;
            # measured sups stop short of the boundary and would flip the
            # equality displays.
            **({"exact_radial_sup": float(R)} if sup_mu == 0.0 else {}),
        },
        _builder=build,
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
    return {
        "identity": "",
        "scale": "c",
        "moebius": "a, t (default 0)",
        "example13": "alpha in (0, 1/2)",
        "example15": "",
        "polyharmonic": "a (comma list), b (comma list)",
        "kalaj_extremal": "R, mu (comma list), series_degree (default 24)",
    }

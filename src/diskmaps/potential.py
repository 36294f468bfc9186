"""Volume and boundary potentials on the unit disk.

The Green potential is

    G[g](z) = (1/2 pi) integral_D (log|1 - z conj(w)| - log|z - w|) g(w) dA(w),

normalized so Laplacian(G[g]) = -g and G[g] vanishes on the unit circle.
The Poisson solver returns f = P[psi] - G[g], the bounded solution of
Laplacian(f) = g with boundary values psi.

Quadrature design.  The image term log|1 - z conj(w)| is summed through the
moment series

    integral log|1 - z conj(w)| g dA
        = -(1/2) sum_{m>=1} (z^m mu_m + conj(z)^m nu_m) / m,

with moments mu_m = integral conj(w)^m g dA computed once per source by an
FFT in angle and Gauss-Legendre in radius, truncated at the angular Nyquist
mode.  Moments of a polynomial source vanish beyond its degree, so the
series is then exact.  The singular term log|z - w| is integrated in polar
coordinates centered at z, where the radial limit in direction phi is

    rho_max(phi) = -Re(conj(z) e^{i phi})
                   + sqrt(Re(conj(z) e^{i phi})^2 + 1 - |z|^2).

The weight log(rho) is handled near rho = 0 by product integration
(piecewise-quadratic data against exact log moments) and by plain
Gauss-Legendre beyond the patch.  First derivatives use
d/dz log|z - w| = 1/(2 (z - w)), whose 1/rho singularity cancels against
the polar area element, leaving smooth radial integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Sequence, Union

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import expr as _expr
from .maps import PlanarMap, SeriesMap
from .wirtinger import WirtingerJet

__all__ = [
    "QuadratureConfig",
    "QuadratureError",
    "GreenPotential",
    "PoissonMap",
    "GreenDerivativeSup",
    "green_potential",
    "poisson_coefficients",
    "poisson_extension",
    "poisson_integral",
    "solve_poisson",
    "laplacian_residual",
    "green_derivative_sup",
]

_AST_NODES = (
    _expr.Num,
    _expr.Var,
    _expr.Const,
    _expr.Neg,
    _expr.BinOp,
    _expr.IntPow,
    _expr.PowConst,
    _expr.Call,
)


class QuadratureError(RuntimeError):
    """Self-check detected quadrature disagreement beyond tolerance."""


@dataclass(frozen=True)
class QuadratureConfig:
    """Node counts for the disk quadrature.

    radial_nodes: Gauss-Legendre count for radial integrals.
    angular_nodes: uniform angular count; also the moment FFT size.
    singular_patch_radius: product-integration patch around the field point.
    patch_nodes: cells of the product rule (must be even).
    boundary_nodes: FFT size for boundary data.
    """

    radial_nodes: int = 128
    angular_nodes: int = 256
    singular_patch_radius: float = 0.05
    patch_nodes: int = 64
    boundary_nodes: int = 512

    def __post_init__(self):
        for name in ("radial_nodes", "angular_nodes", "patch_nodes", "boundary_nodes"):
            if getattr(self, name) < 8:
                raise ValueError(f"{name} must be at least 8")
        # The angular count is an FFT size and the patch rule works on node
        # pairs, so both must be even.
        if self.angular_nodes % 2:
            raise ValueError("angular_nodes must be even")
        if self.patch_nodes % 2:
            raise ValueError("patch_nodes must be even")
        if not 0.0 < self.singular_patch_radius < 0.5:
            raise ValueError("singular_patch_radius must lie in (0, 0.5)")

    def doubled(self) -> "QuadratureConfig":
        return QuadratureConfig(
            radial_nodes=2 * self.radial_nodes,
            angular_nodes=2 * self.angular_nodes,
            singular_patch_radius=self.singular_patch_radius,
            patch_nodes=2 * self.patch_nodes,
            boundary_nodes=self.boundary_nodes,
        )


@lru_cache(maxsize=None)
def _gauss01(n: int):
    # Cached, shared arrays; callers must treat them as read-only.
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


def _log_moment0(x: np.ndarray) -> np.ndarray:
    # integral of log(rho) d rho from 0, continuous at 0.
    out = np.zeros_like(x)
    m = x > 0
    out[m] = x[m] * (np.log(x[m]) - 1.0)
    return out


def _log_moment1(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    m = x > 0
    out[m] = 0.5 * x[m] ** 2 * np.log(x[m]) - 0.25 * x[m] ** 2
    return out


def _log_moment2(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    m = x > 0
    out[m] = x[m] ** 3 * np.log(x[m]) / 3.0 - x[m] ** 3 / 9.0
    return out


SourceLike = Union[str, PlanarMap, Callable, "_expr.ExprAst"]


def _coerce_source(source: SourceLike):
    """Normalize a source term to (array callable, expression text or None)."""
    if isinstance(source, (int, float, complex)) and not isinstance(source, bool):
        c = complex(source)
        text = repr(c.real) if c.imag == 0 else f"({c.real!r} + {c.imag!r}*i)"
        return (lambda w: np.full(np.shape(w), c, dtype=complex)), text
    if isinstance(source, str):
        ast = _expr.parse_expr(source)
        return (lambda w: _expr.value_array(ast, w)), source
    if isinstance(source, _AST_NODES):
        return (lambda w: _expr.value_array(source, w)), _expr.to_source(source)
    if isinstance(source, PlanarMap):
        expr_text = getattr(source, "source", None)
        return source.values, expr_text
    if callable(source):
        probe = np.array([0.1 + 0.2j, -0.3j])
        try:
            out = np.asarray(source(probe), dtype=complex)
            if out.shape == probe.shape:
                return (lambda w: np.asarray(source(w), dtype=complex)), None
        except Exception:
            pass
        vec = np.vectorize(source, otypes=[complex])
        return (lambda w: vec(w)), None
    raise TypeError(f"cannot interpret {source!r} as a source term")


class GreenPotential(PlanarMap):
    """The map z -> G[g](z) for a fixed source g, with exact-split quadrature.

    Moments are precomputed at construction; point evaluation then costs one
    local polar quadrature.  Set `check=True` to compare a probe value
    against a doubled-node rule and fail loudly on disagreement.
    """

    _CHUNK_BUDGET = 2_000_000  # grid points per evaluation chunk

    def __init__(
        self,
        source: SourceLike,
        config: Optional[QuadratureConfig] = None,
        label: Optional[str] = None,
        check: bool = False,
    ):
        self.config = config if config is not None else QuadratureConfig()
        self._g, self.source_expr = _coerce_source(source)
        self.label = label if label is not None else (
            f"green[{self.source_expr}]" if self.source_expr else "green[source]"
        )
        self._prepare_moments()
        if check:
            self.self_check()

    @property
    def laplacian_expr(self) -> Optional[str]:
        if self.source_expr is None:
            return None
        return f"-({self.source_expr})"

    def laplacian_value(self, z: complex) -> complex:
        return -complex(self._g(np.array([complex(z)]))[0])

    # --- moment series for the image term ---------------------------------

    def _prepare_moments(self) -> None:
        cfg = self.config
        nphi = cfg.angular_nodes
        rho, wr = _gauss01(cfg.radial_nodes)
        phi = 2.0 * np.pi * np.arange(nphi) / nphi
        grid = rho[:, None] * np.exp(1j * phi)[None, :]
        samples = self._g(grid)
        transform = np.fft.fft(samples, axis=1) * (2.0 * np.pi / nphi)

        m_count = nphi // 2 - 1
        m = np.arange(1, m_count + 1)
        # mu_m = sum_i wr_i rho_i^(m+1) * angular transform at mode m
        powers = rho[:, None] ** (m[None, :] + 1)
        weighted = wr[:, None] * powers
        mu = (weighted * transform[:, 1 : m_count + 1]).sum(axis=0)
        nu = (weighted * np.flip(transform[:, nphi - m_count :], axis=1)).sum(axis=0)

        self.moment_count = m_count
        self.mu = mu
        self.nu = nu
        # Closed-disk sup estimate: interior quadrature grid plus the r=1 ring
        # (Gauss nodes stop short of the boundary, where |g| often peaks).
        ring = self._g(np.exp(1j * phi))
        self._grid_sup = float(max(np.max(np.abs(samples)), np.max(np.abs(ring))))
        # Image series and its termwise derivatives as polynomial coefficients.
        self._img_a = np.concatenate([[0.0], -0.5 * mu / m])
        self._img_b = np.concatenate([[0.0], -0.5 * nu / m])
        self._dimg_a = -0.5 * mu
        self._dimg_b = -0.5 * nu

    def source_grid_sup(self) -> float:
        """Max |g| over the quadrature grid and the boundary circle."""
        return self._grid_sup

    # --- local polar quadrature for the singular term ---------------------

    def _singular_parts(self, zc: np.ndarray, want_value: bool, want_deriv: bool):
        cfg = self.config
        nphi = cfg.angular_nodes
        phi = 2.0 * np.pi * np.arange(nphi) / nphi
        unit = np.exp(1j * phi)
        z3 = zc[:, None, None]

        s = np.real(np.conj(zc)[:, None] * unit[None, :])
        delta = (1.0 - np.abs(zc) ** 2)[:, None]
        root = np.sqrt(s * s + delta)
        rho_max = np.where(s > 0.0, delta / (s + root), root - s)

        value = deriv_dz = deriv_db = None
        if want_value:
            c = np.minimum(cfg.singular_patch_radius, 0.5 * rho_max)
            t = np.linspace(0.0, 1.0, cfg.patch_nodes + 1)
            rho_p = c[:, :, None] * t
            bracket = rho_p * self._g(z3 + rho_p * unit[None, :, None])
            bracket[..., 0] = 0.0

            x0 = rho_p[..., 0:-1:2]
            x1 = rho_p[..., 1::2]
            x2 = rho_p[..., 2::2]
            b0 = bracket[..., 0:-1:2]
            b1 = bracket[..., 1::2]
            b2 = bracket[..., 2::2]
            h = x1 - x0
            m0 = _log_moment0(x2) - _log_moment0(x0)
            m1 = _log_moment1(x2) - _log_moment1(x0)
            m2 = _log_moment2(x2) - _log_moment2(x0)
            gamma = (b0 - 2.0 * b1 + b2) / (2.0 * h * h)
            beta = (b2 - b0) / (2.0 * h) - 2.0 * gamma * x1
            alpha = b1 - beta * x1 - gamma * x1 * x1
            patch = (alpha * m0 + beta * m1 + gamma * m2).sum(axis=-1)

            u, wu = _gauss01(cfg.radial_nodes)
            span = rho_max - c
            rho_t = c[:, :, None] + span[:, :, None] * u
            tail_vals = np.log(rho_t) * rho_t * self._g(z3 + rho_t * unit[None, :, None])
            tail = span * (tail_vals @ wu)
            value = (2.0 * np.pi / nphi) * (patch + tail).sum(axis=-1)

        if want_deriv:
            ud, wd = _gauss01(cfg.radial_nodes + cfg.patch_nodes)
            rho_d = rho_max[:, :, None] * ud
            radial = rho_max * (self._g(z3 + rho_d * unit[None, :, None]) @ wd)
            pref = -np.pi / nphi
            deriv_dz = pref * (radial * np.conj(unit)[None, :]).sum(axis=-1)
            deriv_db = pref * (radial * unit[None, :]).sum(axis=-1)

        return value, deriv_dz, deriv_db

    def _chunked(self, z: np.ndarray, want_value: bool = True, want_deriv: bool = False):
        cfg = self.config
        flat = np.asarray(z, dtype=complex).ravel()
        out_v = np.empty(flat.shape, dtype=complex) if want_value else None
        out_dz = np.empty(flat.shape, dtype=complex) if want_deriv else None
        out_db = np.empty(flat.shape, dtype=complex) if want_deriv else None

        inside = np.abs(flat) < 1.0
        per_point = cfg.angular_nodes * (cfg.radial_nodes + cfg.patch_nodes + 1)
        chunk = max(1, self._CHUNK_BUDGET // per_point)
        idx = np.flatnonzero(inside)
        for start in range(0, idx.size, chunk):
            sel = idx[start : start + chunk]
            zc = flat[sel]
            i_sing, is_dz, is_db = self._singular_parts(zc, want_value, want_deriv)
            if want_value:
                i_img = npoly.polyval(zc, self._img_a) + npoly.polyval(np.conj(zc), self._img_b)
                out_v[sel] = (i_img - i_sing) / (2.0 * np.pi)
            if want_deriv:
                ii_dz = npoly.polyval(zc, self._dimg_a)
                ii_db = npoly.polyval(np.conj(zc), self._dimg_b)
                out_dz[sel] = (ii_dz - is_dz) / (2.0 * np.pi)
                out_db[sel] = (ii_db - is_db) / (2.0 * np.pi)
        bad = complex("nan+nanj")
        shape = np.shape(z)
        parts = []
        for arr in (out_v, out_dz, out_db):
            if arr is not None:
                arr[~inside] = bad
                parts.append(arr.reshape(shape))
        return parts[0] if len(parts) == 1 else tuple(parts)

    # --- PlanarMap interface ----------------------------------------------

    def value(self, z: complex) -> complex:
        z = complex(z)
        if abs(z) >= 1.0:
            raise ValueError(f"point must be interior, got |z| = {abs(z)}")
        return complex(self._chunked(np.array([z]))[0])

    def jet(self, z: complex) -> WirtingerJet:
        z = complex(z)
        if abs(z) >= 1.0:
            raise ValueError(f"point must be interior, got |z| = {abs(z)}")
        v, dz, db = self._chunked(np.array([z]), want_deriv=True)
        return WirtingerJet(value=complex(v[0]), dz=complex(dz[0]), dzbar=complex(db[0]))

    def values(self, z) -> np.ndarray:
        return self._chunked(np.asarray(z, dtype=complex))

    def jets(self, z):
        return self._chunked(np.asarray(z, dtype=complex), want_deriv=True)

    def derivatives(self, z):
        """Just (dz, dzbar) arrays; skips the costlier value quadrature."""
        return self._chunked(np.asarray(z, dtype=complex), want_value=False, want_deriv=True)

    # --- verification ------------------------------------------------------

    def self_check(self, points: Sequence[complex] = (0.0, 0.37 + 0.21j, -0.52 + 0.44j),
                   tolerance: float = 1e-4) -> float:
        """Compare values against a doubled-node rule; raise on disagreement."""
        fine = GreenPotential(self._g, self.config.doubled(), label=self.label)
        pts = np.asarray(points, dtype=complex)
        dev = float(np.max(np.abs(self.values(pts) - fine.values(pts))))
        if dev > tolerance:
            raise QuadratureError(
                f"quadrature self-check failed: doubled-node deviation {dev:.3e} "
                f"exceeds {tolerance:.1e}"
            )
        return dev


def green_potential(
    source: SourceLike,
    z,
    order: int = 0,
    config: Optional[QuadratureConfig] = None,
    check: bool = False,
):
    """Evaluate G[source] at a point or array of points.

    order 0 returns values; order 1 returns a jet (scalar z) or a
    (value, dz, dzbar) triple of arrays.  `check` runs the doubled-node
    self-check before evaluating.
    """
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")
    pot = GreenPotential(source, config, check=check)
    if np.ndim(z) == 0:
        return pot.value(complex(z)) if order == 0 else pot.jet(complex(z))
    return pot.values(z) if order == 0 else pot.jets(z)


# --- boundary data ----------------------------------------------------------


def _boundary_samples(psi, theta: np.ndarray) -> np.ndarray:
    if isinstance(psi, str):
        ast = _expr.parse_expr(psi)
        return _expr.value_array(ast, np.exp(1j * theta))
    if isinstance(psi, _AST_NODES):
        return _expr.value_array(psi, np.exp(1j * theta))
    if isinstance(psi, PlanarMap):
        return psi.values(np.exp(1j * theta))
    if callable(psi):
        try:
            out = np.asarray(psi(theta), dtype=complex)
            if out.shape == theta.shape:
                return out
        except Exception:
            pass
        return np.array([complex(psi(float(t))) for t in theta])
    raise TypeError(f"cannot interpret {psi!r} as boundary data")


def poisson_coefficients(psi, boundary_nodes: int = 512):
    """Fourier coefficients of boundary data, split into (a, b) power parts.

    Returns arrays (a, b) such that the harmonic extension of psi is
    sum a[n] z^n + sum b[n] conj(z)^n, keeping modes below the Nyquist
    frequency of the sample grid.
    """
    n = int(boundary_nodes)
    if n < 16:
        raise ValueError("boundary_nodes must be at least 16")
    theta = 2.0 * np.pi * np.arange(n) / n
    samples = _boundary_samples(psi, theta)
    coeff = np.fft.fft(samples) / n
    keep = n // 2 - 1
    a = coeff[: keep + 1].copy()
    b = np.concatenate([[0.0], coeff[-1 : -(keep + 1) : -1]])
    return a, b


def poisson_extension(psi, config: Optional[QuadratureConfig] = None) -> SeriesMap:
    """Harmonic extension of boundary data psi as a finite power series.

    The kernel integral against sampled data is summed in Fourier form:
    uniform boundary samples are transformed and the kernel collapses each
    mode m to z^m (m >= 0) or conj(z)^|m| (m < 0).  This equals the
    trapezoid rule with all above-Nyquist aliases dropped, which keeps the
    evaluation uniformly accurate up to the boundary for smooth data.
    """
    cfg = config if config is not None else QuadratureConfig()
    a, b = poisson_coefficients(psi, cfg.boundary_nodes)
    return SeriesMap(a, b, label="poisson-extension")


def poisson_integral(psi, z, order: int = 0, config: Optional[QuadratureConfig] = None):
    """Evaluate the Poisson integral P[psi] at a point or array of points.

    order 0 returns values; order 1 returns a jet (scalar z) or a
    (value, dz, dzbar) triple of arrays.
    """
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")
    ext = poisson_extension(psi, config)
    if np.ndim(z) == 0:
        return ext.value(complex(z)) if order == 0 else ext.jet(complex(z))
    return ext.values(z) if order == 0 else ext.jets(z)


class PoissonMap(PlanarMap):
    """Solution f = P[psi] - G[g] of Laplacian(f) = g with boundary data psi."""

    def __init__(
        self,
        boundary_series: SeriesMap,
        potential: Optional[GreenPotential],
        label: str = "poisson-solution",
    ):
        self.series = boundary_series
        self.potential = potential
        self.label = label

    @property
    def laplacian_expr(self) -> Optional[str]:
        if self.potential is None:
            return "0"
        return self.potential.source_expr

    def laplacian_value(self, z: complex) -> complex:
        if self.potential is None:
            return 0j
        return -self.potential.laplacian_value(z)

    def value(self, z: complex) -> complex:
        v = self.series.value(z)
        if self.potential is not None:
            v -= self.potential.value(z)
        return v

    def jet(self, z: complex) -> WirtingerJet:
        sj = self.series.jet(z)
        if self.potential is None:
            return sj
        pj = self.potential.jet(z)
        return WirtingerJet(sj.value - pj.value, sj.dz - pj.dz, sj.dzbar - pj.dzbar)

    def values(self, z) -> np.ndarray:
        out = self.series.values(z)
        if self.potential is not None:
            out = out - self.potential.values(z)
        return out

    def jets(self, z):
        v, dz, db = self.series.jets(z)
        if self.potential is not None:
            pv, pdz, pdb = self.potential.jets(z)
            v, dz, db = v - pv, dz - pdz, db - pdb
        return v, dz, db

    def analytic_parts(self):
        return self.series.analytic_parts()


def solve_poisson(
    psi,
    g: Optional[SourceLike] = None,
    config: Optional[QuadratureConfig] = None,
    label: str = "poisson-solution",
    check: bool = False,
) -> PoissonMap:
    """Solve Laplacian(f) = g on the disk with boundary values psi.

    Pass g=None for the Laplace problem; then the result is the plain
    harmonic extension of psi.
    """
    cfg = config if config is not None else QuadratureConfig()
    series = poisson_extension(psi, cfg)
    potential = None if g is None else GreenPotential(g, cfg, check=check)
    return PoissonMap(series, potential, label=label)


def laplacian_residual(
    m: PlanarMap,
    g: Optional[SourceLike],
    z: complex,
    h: float = 1e-3,
) -> float:
    """|five-point finite-difference Laplacian of m at z  -  g(z)|.

    Pass g=None to check against the map's own declared Laplacian.
    Requires 1 - |z| >= 2h so the stencil stays inside the disk.
    """
    z = complex(z)
    if h <= 0:
        raise ValueError("h must be positive")
    if 1.0 - abs(z) < 2.0 * h:
        raise ValueError("stencil too close to the boundary: need 1 - |z| >= 2h")
    if g is None:
        ref = _declared_laplacian(m, z)
        if ref is None:
            raise ValueError("map declares no Laplacian; pass a source term g")
    else:
        g_fn, _ = _coerce_source(g)
        ref = complex(g_fn(np.array([z]))[0])
    stencil = np.array([z + h, z - h, z + 1j * h, z - 1j * h, z], dtype=complex)
    vals = m.values(stencil)
    fd = (vals[:4].sum() - 4.0 * vals[4]) / (h * h)
    return float(abs(fd - ref))


@lru_cache(maxsize=256)
def _parse_cached(source: str):
    return _expr.parse_expr(source)


def _declared_laplacian(m: PlanarMap, z: complex) -> Optional[complex]:
    direct = getattr(m, "laplacian_value", None)
    if callable(direct):
        try:
            val = direct(z)
        except NotImplementedError:
            val = None
        if val is not None:
            return complex(val)
    if m.laplacian_expr is None:
        return None
    return _expr.eval_value(_parse_cached(m.laplacian_expr), z)


# --- derivative supremum -----------------------------------------------------


@dataclass(frozen=True)
class GreenDerivativeSup:
    """Estimated sup over the disk of max(|dG/dz|, |dG/dzbar|)."""

    sup: float
    interior_sup: float
    boundary_limit: float
    shell_radii: tuple = field(default=())
    shell_sups: tuple = field(default=())


def green_derivative_sup(
    source: SourceLike,
    config: Optional[QuadratureConfig] = None,
    interior_radial: int = 24,
    interior_angular: int = 96,
    shell_count: int = 6,
    shell_angular: int = 192,
) -> GreenDerivativeSup:
    """Estimate sup_D max(|G[g]_z|, |G[g]_zbar|).

    Interior behavior is scanned on a polar grid; the boundary limit is
    taken along shells r_k = 1 - 2^{-k} (radii where the local quadrature
    is still trustworthy) with linear extrapolation to r = 1 from the last
    two shells.  The reported sup is the larger of the two estimates.
    """
    pot = source if isinstance(source, GreenPotential) else GreenPotential(source, config)
    if shell_count < 2:
        raise ValueError("shell_count must be at least 2")

    ks = np.arange(3, 3 + shell_count)
    shell_radii = 1.0 - 2.0 ** (-ks.astype(float))
    phi = 2.0 * np.pi * np.arange(shell_angular) / shell_angular
    ring = np.exp(1j * phi)

    shell_sups = []
    for r in shell_radii:
        dz, db = pot.derivatives(r * ring)
        shell_sups.append(float(np.maximum(np.abs(dz), np.abs(db)).max()))

    # Shell spacing halves each step, so the last gap equals the distance
    # to the boundary and the linear extrapolation is simply 2 v1 - v0.
    boundary_limit = 2.0 * shell_sups[-1] - shell_sups[-2]

    radii = shell_radii[0] * np.arange(1, interior_radial + 1) / interior_radial
    grid = radii[:, None] * np.exp(1j * 2.0 * np.pi * np.arange(interior_angular) / interior_angular)
    dz, db = pot.derivatives(np.concatenate([[0j], grid.ravel()]))
    interior_sup = float(np.maximum(np.abs(dz), np.abs(db)).max())

    sup = max(interior_sup, max(shell_sups), boundary_limit)
    return GreenDerivativeSup(
        sup=sup,
        interior_sup=interior_sup,
        boundary_limit=boundary_limit,
        shell_radii=tuple(float(r) for r in shell_radii),
        shell_sups=tuple(shell_sups),
    )

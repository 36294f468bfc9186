"""Volume and boundary potentials on the unit disk.

The Green potential is

    G[g](z) = (1/2 pi) integral_D (log|1 - z conj(w)| - log|z - w|) g(w) dA(w),

normalized so Laplacian(G[g]) = -g and G[g] vanishes on the unit circle.
The Poisson solver returns f = P[psi] - G[g], the bounded solution of
Laplacian(f) = g with boundary values psi.

Green solver.  In polar coordinates z = r e^{i theta}, w = s e^{i phi} the
kernel separates into angular Fourier modes (Borges & Daripa, "A fast
parallel algorithm for the Poisson equation on a disk", J. Comput. Phys.
169 (2001); Trefethen, Spectral Methods in MATLAB, ch. 11).  With
g(s e^{i phi}) = sum_m g_m(s) e^{i m phi},

    G[g](r e^{i theta}) = sum_m u_m(r) e^{i m theta},
    u_m(r) = integral_0^1 K_m(r, s) g_m(s) s ds,
    K_0 = -log max(r, s),
    K_m = ((r_< / r_>)^|m| - (r s)^|m|) / (2 |m|),

where r_< = min(r, s) and r_> = max(r, s).  The kernel has a kink at
s = r, so each field radius gets its own rule split there: Gauss nodes
s = r u on [0, r] and graded nodes s = r + (1 - r) u^3 on [r, 1], each
side holding half of `radial_nodes`.  An FFT of the samples in angle gives
g_m at every node, with the Nyquist mode dropped, and each mode is
contracted with its exact kernel.  First derivatives come from the same
modes through d/dz = e^{-i theta}/2 (d/dr - (i/r) d/dtheta): the
combinations u_m' +- (|m|/r) u_m have closed-form kernels with no division
by r, so z = 0 is exact.

Query points are grouped by radius (rounded to 1e-14), so the cost scales
with the number of distinct radii: a circle or a ring of a polar grid
costs one radial solve.

Sources g and boundary data psi are either DSL strings in z or array
callables w -> g(w) over complex arrays; anything else is a TypeError.
Constructing a potential samples nothing: the source is sampled by radial
solves, and by `source_grid_sup` on its own grid when that is called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import expr as _expr
from .maps import PlanarMap, SeriesMap
from .wirtinger import WirtingerJet

__all__ = [
    "QuadratureConfig",
    "QuadratureError",
    "GreenPotential",
    "PoissonMap",
    "GreenDerivativeSup",
    "poisson_coefficients",
    "poisson_extension",
    "solve_poisson",
    "laplacian_residual",
    "green_derivative_sup",
]

# Radial solves kept per potential, so that repeat visits to a radius (Newton
# steps, stencils around a point, a circle scanned twice) reuse the modes.
# Each entry holds 3 x angular_nodes complex numbers (12 KB by default).
_SOLVED_RADII = 512


class QuadratureError(RuntimeError):
    """Self-check detected quadrature disagreement beyond tolerance."""


@dataclass(frozen=True)
class QuadratureConfig:
    """Node counts for the disk quadrature.

    radial_nodes: Gauss nodes per radial solve, half on each side of the
        field radius; also the radial count of the source sup grid.
    angular_nodes: uniform angular count, the FFT size in angle.
    boundary_nodes: FFT size for boundary data.
    """

    radial_nodes: int = 128
    angular_nodes: int = 256
    boundary_nodes: int = 512

    def __post_init__(self):
        for name in ("radial_nodes", "angular_nodes", "boundary_nodes"):
            if getattr(self, name) < 8:
                raise ValueError(f"{name} must be at least 8")
        # The angular count is an FFT size whose Nyquist mode is dropped.
        if self.angular_nodes % 2:
            raise ValueError("angular_nodes must be even")

    def doubled(self) -> "QuadratureConfig":
        return QuadratureConfig(
            radial_nodes=2 * self.radial_nodes,
            angular_nodes=2 * self.angular_nodes,
            boundary_nodes=self.boundary_nodes,
        )


@lru_cache(maxsize=None)
def _gauss01(n: int):
    # Cached, shared arrays; callers must treat them as read-only.
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


@lru_cache(maxsize=None)
def _spectral_tables(n: int, nphi: int):
    """Per-config tables in FFT column order, cached and read-only.

    Returns the signed mode m of each FFT column, the per-mode scale (1/nphi,
    0 for the dropped Nyquist mode), the unit circle at the nphi angles, and
    the inner-side weights w_j u_j^(|m|+1) for Gauss nodes u_j on [0, 1].
    """
    freq = np.rint(np.fft.fftfreq(nphi, 1.0 / nphi)).astype(int)
    scale = np.where(np.abs(freq) < nphi // 2, 1.0 / nphi, 0.0)
    unit = np.exp(2j * np.pi * np.arange(nphi) / nphi)
    u, w = _gauss01(n)
    inner = w[:, None] * u[:, None] ** (np.abs(freq) + 1)
    for arr in (freq, scale, unit, inner):
        arr.flags.writeable = False
    return freq, scale, unit, inner


def _powers(x: np.ndarray, top: int) -> np.ndarray:
    """Columns x^0..x^top by running products; no overflow while |x| <= 1."""
    table = np.ones((x.size, top + 1))
    table[:, 1:] = x[:, None]
    return np.cumprod(table, axis=1)


def _sampler(source: Union[str, Callable]) -> Callable[[np.ndarray], np.ndarray]:
    """Array callable w -> g(w) for a DSL string or an array callable."""
    if isinstance(source, str):
        ast = _expr.parse_expr(source)
        return lambda w: _expr.value_array(ast, w)
    if callable(source):
        return lambda w: np.asarray(source(w), dtype=complex)
    raise TypeError(f"cannot interpret {source!r} as a source term: "
                    "pass a DSL string or an array callable")


class GreenPotential(PlanarMap):
    """The map z -> G[g](z) for a fixed source g, by a polar-spectral solve.

    Each distinct radius among the query points costs one radial solve:
    `radial_nodes` x `angular_nodes` source samples, an FFT in angle, and
    the exact radial kernel K_m applied to every mode (see the module
    docstring).  The modes of the last 512 radii are kept, so a radius
    visited again costs only the angular sum.  Values and both Wirtinger
    derivatives come from the same modes; points with |z| >= 1 evaluate
    to nan.  `source` is a DSL string or an array callable w -> g(w);
    construction only parses it and samples nothing.  The doubled-node
    comparison runs only when `self_check` is called.
    """

    def __init__(self, source: Union[str, Callable],
                 config: Optional[QuadratureConfig] = None):
        self.config = config if config is not None else QuadratureConfig()
        self._g = _sampler(source)
        self.source_expr = source if isinstance(source, str) else None
        self.label = f"green[{self.source_expr or 'source'}]"
        self._solved = {}  # radius -> stacked _radial_modes, oldest first

    @property
    def laplacian_expr(self) -> Optional[str]:
        if self.source_expr is None:
            return None
        return f"-({self.source_expr})"

    def source_grid_sup(self) -> float:
        """Max |g| over the quadrature grid and the boundary circle.

        Each call samples the source on Gauss radii times the angular grid,
        plus the r = 1 ring (Gauss nodes stop short of the boundary, where
        |g| often peaks).
        """
        cfg = self.config
        rho, _ = _gauss01(cfg.radial_nodes)
        phi = 2.0 * np.pi * np.arange(cfg.angular_nodes) / cfg.angular_nodes
        samples = self._g(rho[:, None] * np.exp(1j * phi)[None, :])
        ring = self._g(np.exp(1j * phi))
        return float(max(np.max(np.abs(samples)), np.max(np.abs(ring))))

    # --- radial solve ------------------------------------------------------

    def _radial_modes(self, r: float):
        """Per mode m at radius r: u_m, u_m' + (m/r) u_m and u_m' - (m/r) u_m.

        The second feeds d/dz and the third d/dzbar.  With k = |m| and the
        moment M_m = sum_j w_j u_j^(k+1) g_m(r u_j), the inner side s = r u
        contributes r^2 (1 - r^2k)/(2k) M_m (-r^2 log r M_0 for k = 0),
        -r^(2k+1) M_m and -r M_m; the outer side contributes K_k,
        r^(k-1) (s^-k - s^k) and 0 integrated against g_m(s) s ds.  Outer
        nodes s = r + (1 - r) u^3 are graded toward the kink at s = r; the
        cube (rather than a square) also resolves the s log s endpoint at
        r = 0.
        """
        cfg = self.config
        n = cfg.radial_nodes // 2
        top = cfg.angular_nodes // 2
        freq, scale, unit, inner = _spectral_tables(n, cfg.angular_nodes)
        kabs = np.abs(freq)
        u, w = _gauss01(n)
        s = r + (1.0 - r) * u**3
        # At r = 0 the inner side is empty.  Not sampling it there also keeps
        # a source with an integrable singularity at 0 (log|z|) finite.
        nodes = np.concatenate([r * u, s]) if r > 0.0 else s
        modes = np.fft.fft(self._g(nodes[:, None] * unit), axis=1)
        moment = (np.einsum("jm,jm->m", inner, modes[:n]) if r > 0.0
                  else np.zeros(cfg.angular_nodes, dtype=complex))

        k = np.arange(1, top + 1)
        r2k = (r * r) ** k
        v_in = np.empty(top + 1)
        v_in[0] = -r * r * math.log(r) if r > 0.0 else 0.0
        v_in[1:] = r * r * (1.0 - r2k) / (2.0 * k)
        p_in = np.concatenate([[0.0], -r * r2k])

        # Outer kernels, weighted by the measure s ds.  Powers of r/s <= 1
        # and r s <= 1 cannot overflow, even where r^k underflows.
        ratio = _powers(r / s, top)
        product = _powers(r * s, top)
        v_out = np.empty((n, top + 1))
        v_out[:, 0] = -np.log(s)
        v_out[:, 1:] = (ratio[:, 1:] - product[:, 1:]) / (2.0 * k)
        p_out = np.zeros((n, top + 1))
        p_out[:, 1:] = ratio[:, :-1] / s[:, None] - product[:, :-1] * s[:, None]
        measure = (3.0 * (1.0 - r) * w * u * u * s)[:, None]
        outer = modes[-n:]

        value = v_in[kabs] * moment + np.einsum("jm,jm->m", (measure * v_out)[:, kabs], outer)
        plus = p_in[kabs] * moment + np.einsum("jm,jm->m", (measure * p_out)[:, kabs], outer)
        minus = -r * moment
        return (scale * value,
                scale * np.where(freq > 0, plus, minus),
                scale * np.where(freq < 0, plus, minus))

    def _evaluate(self, z):
        """(value, dz, dzbar) arrays shaped like z; nan where |z| >= 1."""
        z = np.asarray(z, dtype=complex)
        flat = z.ravel()
        out = np.full((3, flat.size), complex("nan+nanj"))
        inside = np.flatnonzero(np.abs(flat) < 1.0)
        # |z| of points built as r e^{i theta} scatters by a few ulps; rounding
        # lets the whole circle share one radial solve.
        radii, group, counts = np.unique(np.round(np.abs(flat[inside]), 14),
                                         return_inverse=True, return_counts=True)
        freq = _spectral_tables(self.config.radial_nodes // 2, self.config.angular_nodes)[0]
        members = np.split(inside[np.argsort(group, kind="stable")], np.cumsum(counts)[:-1])
        for r, idx in zip(radii, members):
            theta = np.angle(flat[idx])
            modes = self._solved.get(r)
            if modes is None:
                modes = np.stack(self._radial_modes(float(r)), axis=1)
                if len(self._solved) >= _SOLVED_RADII:
                    del self._solved[next(iter(self._solved))]
                self._solved[r] = modes
            value, plus, minus = (np.exp(1j * np.outer(theta, freq)) @ modes).T
            out[0, idx] = value
            out[1, idx] = 0.5 * np.exp(-1j * theta) * plus
            out[2, idx] = 0.5 * np.exp(1j * theta) * minus
        return tuple(part.reshape(z.shape) for part in out)

    # --- PlanarMap interface ----------------------------------------------

    def _interior(self, z: complex) -> np.ndarray:
        z = complex(z)
        if abs(z) >= 1.0:
            raise ValueError(f"point must be interior, got |z| = {abs(z)}")
        return np.array([z])

    def value(self, z: complex) -> complex:
        return complex(self._evaluate(self._interior(z))[0][0])

    def jet(self, z: complex) -> WirtingerJet:
        v, dz, db = self._evaluate(self._interior(z))
        return WirtingerJet(value=complex(v[0]), dz=complex(dz[0]), dzbar=complex(db[0]))

    def values(self, z) -> np.ndarray:
        return self._evaluate(z)[0]

    def jets(self, z):
        return self._evaluate(z)

    def derivatives(self, z):
        """Just the (dz, dzbar) arrays."""
        return self._evaluate(z)[1:]

    # --- verification ------------------------------------------------------

    def self_check(self, points: Sequence[complex] = (0.0, 0.37 + 0.21j, -0.52 + 0.44j),
                   tolerance: float = 1e-4) -> float:
        """Compare values against a doubled-node rule; raise on disagreement."""
        fine = GreenPotential(self._g, self.config.doubled())
        pts = np.asarray(points, dtype=complex)
        dev = float(np.max(np.abs(self.values(pts) - fine.values(pts))))
        if dev > tolerance:
            raise QuadratureError(
                f"quadrature self-check failed: doubled-node deviation {dev:.3e} "
                f"exceeds {tolerance:.1e}"
            )
        return dev


# --- boundary data ----------------------------------------------------------


def poisson_coefficients(psi, boundary_nodes: int = 512):
    """Fourier coefficients of boundary data, split into (a, b) power parts.

    psi is a DSL string or an array callable, sampled at e^{i theta}.
    Returns arrays (a, b) such that the harmonic extension of psi is
    sum a[n] z^n + sum b[n] conj(z)^n, keeping modes below the Nyquist
    frequency of the sample grid.
    """
    n = int(boundary_nodes)
    if n < 16:
        raise ValueError("boundary_nodes must be at least 16")
    theta = 2.0 * np.pi * np.arange(n) / n
    samples = _sampler(psi)(np.exp(1j * theta))
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


class PoissonMap(PlanarMap):
    """Solution f = P[psi] - G[g] of Laplacian(f) = g with boundary data psi."""

    label = "poisson-solution"

    def __init__(self, boundary_series: SeriesMap, potential: GreenPotential):
        self.series = boundary_series
        self.potential = potential

    @property
    def laplacian_expr(self) -> Optional[str]:
        return self.potential.source_expr

    def value(self, z: complex) -> complex:
        return self.series.value(z) - self.potential.value(z)

    def jet(self, z: complex) -> WirtingerJet:
        sj = self.series.jet(z)
        pj = self.potential.jet(z)
        return WirtingerJet(sj.value - pj.value, sj.dz - pj.dz, sj.dzbar - pj.dzbar)

    def values(self, z) -> np.ndarray:
        return self.series.values(z) - self.potential.values(z)

    def jets(self, z):
        v, dz, db = self.series.jets(z)
        pv, pdz, pdb = self.potential.jets(z)
        return v - pv, dz - pdz, db - pdb

    def analytic_parts(self):
        return self.series.analytic_parts()


def solve_poisson(
    psi,
    g: Union[str, Callable, None] = None,
    config: Optional[QuadratureConfig] = None,
) -> PlanarMap:
    """Solve Laplacian(f) = g on the disk with boundary values psi.

    psi and g are DSL strings or array callables.  With g=None (the
    Laplace problem) the result is the harmonic extension of psi, a
    `SeriesMap`; otherwise a `PoissonMap`.
    """
    cfg = config if config is not None else QuadratureConfig()
    series = poisson_extension(psi, cfg)
    if g is None:
        return series
    return PoissonMap(series, GreenPotential(g, cfg))


def laplacian_residual(
    m: PlanarMap,
    g: Union[str, Callable],
    z: complex,
    h: float = 1e-3,
) -> float:
    """|five-point finite-difference Laplacian of m at z  -  g(z)|.

    g is the expected Laplacian, a DSL string or an array callable.
    Requires 1 - |z| >= 2h so the stencil stays inside the disk.
    """
    z = complex(z)
    if h <= 0:
        raise ValueError("h must be positive")
    if 1.0 - abs(z) < 2.0 * h:
        raise ValueError("stencil too close to the boundary: need 1 - |z| >= 2h")
    ref = complex(_sampler(g)(np.array([z]))[0])
    stencil = np.array([z + h, z - h, z + 1j * h, z - 1j * h, z], dtype=complex)
    vals = m.values(stencil)
    fd = (vals[:4].sum() - 4.0 * vals[4]) / (h * h)
    return float(abs(fd - ref))


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
    source: Union[GreenPotential, str, Callable],
    config: Optional[QuadratureConfig] = None,
    interior_radial: int = 24,
    interior_angular: int = 96,
    shell_count: int = 6,
    shell_angular: int = 192,
) -> GreenDerivativeSup:
    """Estimate sup_D max(|G[g]_z|, |G[g]_zbar|).

    Interior behavior is scanned on a polar grid inside r = 7/8; the
    boundary limit is taken along the shells r_k = 1 - 2^{-k}, k = 3, 4, ...,
    with linear extrapolation to r = 1 from the last two shells.  Every ring
    costs one radial solve of the potential.  The reported sup is the
    largest of the interior, shell and extrapolated estimates.
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

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

where r_< = min(r, s) and r_> = max(r, s).  The radial interval is split
into fixed panels, `radial_nodes // 16` uniform panels of 16 Gauss nodes
(one panel of `radial_nodes` nodes below 16); panel 0 is graded toward
s = 0 as s = h u^3 for the s log s endpoint.  The source is sampled on
this panel grid once per potential, at its first evaluation, and an FFT
in angle gives g_m at every node (Nyquist mode dropped).  Off the
diagonal the kernel separates, so each panel keeps three scaled moments
per mode, with k = |m| and panel [a, b] (Greengard & Lee, "A direct
adaptive Poisson solver of arbitrary order accuracy", J. Comput. Phys.
125 (1996)):

    A = integral (s/b)^k g_m s ds,   B = integral (a/s)^k g_m s ds,
    L = integral -log(s) g_0 s ds.

A field radius r in panel p then costs the moments of the other panels,
contracted with ratios (b/r, r/a, r b) that never exceed 1, plus one
directly sampled split panel: Gauss nodes on [a_p, r] and nodes
s = r + (b_p - r) u^4 graded toward the kink on [r, b_p].  On panel 0 the
log kernel's singularity at s = 0 lies only r below the outer side, so
there s^(1/4) is spaced linearly instead, and the inner side is graded
toward 0 as panel 0 is.  First derivatives come from the same moments
through d/dz = e^{-i theta}/2 (d/dr - (i/r) d/dtheta): the combinations
u_m' +- (|m|/r) u_m have closed-form kernels with no division by r, so
z = 0 is exact.

Query points are grouped by radius (rounded to 1e-14), so the cost scales
with the number of distinct radii: a circle or a ring of a polar grid
costs one split panel.

Sources g and boundary data psi are either DSL strings in z or array
callables w -> g(w) over complex arrays; anything else is a TypeError.
Constructing a potential samples nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import expr as _expr
from .maps import PlanarMap, SeriesMap, is_array

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

# Gauss nodes per radial panel.
_PANEL_NODES = 16


class QuadratureError(RuntimeError):
    """Self-check detected quadrature disagreement beyond tolerance."""


@dataclass(frozen=True)
class QuadratureConfig:
    """Node counts for the disk quadrature.

    radial_nodes: panel nodes over the radial interval [0, 1], in
        `radial_nodes // 16` panels of 16 Gauss nodes (one panel below 16);
        the source is sampled on these radii once per potential.  Each
        field radius adds one split panel of 2 x 16 nodes.
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
def _spectral_tables(nphi: int):
    """Per-config tables in FFT column order, cached and read-only.

    Returns the signed mode m of each FFT column, the per-mode scale (1/nphi,
    0 for the dropped Nyquist mode) and the unit circle at the nphi angles.
    """
    freq = np.rint(np.fft.fftfreq(nphi, 1.0 / nphi)).astype(int)
    scale = np.where(np.abs(freq) < nphi // 2, 1.0 / nphi, 0.0)
    unit = np.exp(2j * np.pi * np.arange(nphi) / nphi)
    for arr in (freq, scale, unit):
        arr.flags.writeable = False
    return freq, scale, unit


@lru_cache(maxsize=None)
def _panel_rule(n: int, nphi: int):
    """The radial panel grid and its moment weights, cached and read-only.

    `n // 16` uniform panels of 16 Gauss nodes, or one panel of n nodes
    when n < 16; panel 0 is graded as s = h u^3.  Returns the panel edges,
    the nodes s as a (panels, nodes per panel) array, and the weights that
    turn g_m at the nodes into the moments: (s/b)^k s ds and (a/s)^k s ds
    per node and FFT column, and -log(s) s ds per node.
    """
    q = min(n, _PANEL_NODES)
    count = n // q
    edges = np.arange(count + 1) / count
    u, w = _gauss01(q)
    h = 1.0 / count
    s = edges[:-1, None] + h * u
    ds = np.tile(h * w, (count, 1))
    s[0] = h * u**3
    ds[0] = 3.0 * h * w * u * u
    weight = (ds * s)[:, :, None]
    kabs = np.abs(_spectral_tables(nphi)[0])
    below = _powers((s / edges[1:, None]).ravel(), nphi // 2)[:, kabs]
    above = _powers((edges[:-1, None] / s).ravel(), nphi // 2)[:, kabs]
    below = below.reshape(count, q, nphi) * weight
    above = above.reshape(count, q, nphi) * weight
    log_weight = -np.log(s) * weight[:, :, 0]
    for arr in (edges, s, below, above, log_weight):
        arr.flags.writeable = False
    return edges, s, below, above, log_weight


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

    The first evaluation samples the source once on the panel grid
    (`radial_nodes` x `angular_nodes` points), FFTs it in angle and keeps
    per-panel moments of every mode.  Each distinct radius among the query
    points then costs one split panel, 2 x 16 x `angular_nodes` samples,
    plus a contraction with the moments of the other panels (see the module
    docstring).  The modes of the last 512 radii are kept, so a radius
    visited again costs only the angular sum.  Values and both Wirtinger
    derivatives come from the same modes; points with |z| >= 1 evaluate
    to nan in an array and raise ValueError alone.  `source` is a DSL
    string or an array callable w -> g(w); construction only parses it and
    samples nothing.  The doubled-node comparison runs only when
    `self_check` is called.
    """

    def __init__(self, source: Union[str, Callable],
                 config: Optional[QuadratureConfig] = None):
        self.config = config if config is not None else QuadratureConfig()
        self._g = _sampler(source)
        self.source_expr = source if isinstance(source, str) else None
        self.label = f"green[{self.source_expr or 'source'}]"
        self._moments = None  # (A; B) panel moments, built at first use
        self._grid_sup = math.nan  # max |g| over the panel grid
        self._solved = {}  # radius -> stacked _radial_modes, oldest first

    @property
    def laplacian_expr(self) -> Optional[str]:
        if self.source_expr is None:
            return None
        return f"-({self.source_expr})"

    def source_grid_sup(self) -> float:
        """Max |g| over the panel grid and the boundary circle.

        A sampled lower estimate of sup |g|.  The panel grid is the one the
        radial solves sample (built here if nothing was evaluated yet); the
        r = 1 ring is added because Gauss nodes stop short of the boundary,
        where |g| often peaks.
        """
        self._panel_moments()
        ring = self._g(_spectral_tables(self.config.angular_nodes)[2])
        return float(max(self._grid_sup, np.max(np.abs(ring))))

    # --- radial solve ------------------------------------------------------

    def _angular_modes(self, s: np.ndarray):
        """Samples of g on the circles of radii s, FFT'd in angle and scaled."""
        _, scale, unit = _spectral_tables(self.config.angular_nodes)
        samples = self._g(s[:, None] * unit)
        return samples, np.fft.fft(samples, axis=1) * scale

    def _panel_moments(self) -> np.ndarray:
        """Rows A of every panel, then rows B; B's m = 0 column holds L.

        B_0 would repeat A_0, and an outer panel needs L in its place.
        """
        if self._moments is None:
            cfg = self.config
            _, s, below, above, log_weight = _panel_rule(cfg.radial_nodes, cfg.angular_nodes)
            samples, modes = self._angular_modes(s.ravel())
            self._grid_sup = float(np.max(np.abs(samples)))
            modes = modes.reshape(below.shape)
            moments = np.concatenate([np.einsum("qjm,qjm->qm", below, modes),
                                      np.einsum("qjm,qjm->qm", above, modes)])
            moments[s.shape[0]:, 0] = np.einsum("qj,qj->q", log_weight, modes[:, :, 0])
            self._moments = moments
        return self._moments

    def _radial_modes(self, r: float):
        """Per mode m at radius r: u_m, u_m' + (m/r) u_m and u_m' - (m/r) u_m.

        The second feeds d/dz and the third d/dzbar.  With k = |m|, a panel
        [a, b] inside r contributes ((b/r)^k - (r b)^k)/2k A (-log r A for
        k = 0), -(r b)^(k-1) b A and -(b/r)^k A / r; a panel outside r
        contributes ((r/a)^k B - (r b)^k A)/2k (L for k = 0),
        (r/a)^(k-1) B / a - (r b)^(k-1) b A and 0.  The panel holding r is
        split there and sampled (see the module docstring); on it the same
        kernels act on g_m s ds directly.  At r = 0 the outer side is graded
        as s = b u^4, which resolves the s log s endpoint, and the empty
        inner side is not sampled, which also keeps a source with an
        integrable singularity at 0 (log|z|) finite.
        """
        cfg = self.config
        edges, nodes = _panel_rule(cfg.radial_nodes, cfg.angular_nodes)[:2]
        count, q = nodes.shape
        top = cfg.angular_nodes // 2
        freq = _spectral_tables(cfg.angular_nodes)[0]
        kabs = np.abs(freq)
        k2 = 2.0 * np.arange(1, top + 1)
        p = min(int(r * count), count - 1)
        a, b = edges[:-1], edges[1:]

        # The split panel's nodes.  With s = r + (hi - r) u^4 on panel 0,
        # G[1] erred by 2e-13 near r = 1e-4; spacing s^(1/4) keeps it 1e-16.
        u, w = _gauss01(q)
        lo, hi = a[p], b[p]
        if p > 0:
            s = np.concatenate([lo + (r - lo) * u, r + (hi - r) * u**4])
            weight = np.concatenate([(r - lo) * w, 4.0 * (hi - r) * w * u**3]) * s
        else:
            root = r**0.25 + (hi**0.25 - r**0.25) * u
            s = root**4
            weight = 4.0 * (hi**0.25 - r**0.25) * w * root**3 * s
            if r > 0.0:
                s = np.concatenate([r * u**3, s])
                weight = np.concatenate([3.0 * r * w * u * u * s[:q], weight])

        # Kernel rows per output (value, plus, minus) and per k: rows
        # [0, count) act on the A moments, [count, 2 count) on the B
        # moments, the rest on the split panel's modes.  Every power ratio
        # is <= 1, so nothing overflows even where r^k underflows.
        kernel = np.zeros((3, 2 * count + s.size, top + 1))
        value, plus, minus = kernel
        # (r b)^k for every panel, (b/r)^k inside r and (r/a)^k outside.
        powers = _powers(np.concatenate([r * b, b[:p] / r, r / a[p + 1:]]), top)
        image, down, up = powers[:count], powers[count:count + p], powers[count + p:]
        image[p] = 0.0
        value[:count, 1:] = -image[:, 1:] / k2
        plus[:count, 1:] = -image[:, :-1] * b[:, None]
        if p > 0:
            value[:p, 0] = -math.log(r)
            value[:p, 1:] += down[:, 1:] / k2
            minus[:p] = -down / r
        outer = slice(count + p + 1, 2 * count)
        value[outer, 0] = 1.0  # the L moment
        value[outer, 1:] = up[:, 1:] / k2
        plus[outer, 1:] = up[:, :-1] / a[p + 1:, None]

        split = 2 * count
        inner = s.size - q
        powers = _powers(np.concatenate([np.minimum(s, r) / np.maximum(s, r), r * s]), top)
        ratio, product = powers[:s.size], powers[s.size:]
        value[split:, 0] = -np.log(np.maximum(s, r))
        value[split:, 1:] = (ratio[:, 1:] - product[:, 1:]) / k2
        plus[split:, 1:] = -product[:, :-1] * s[:, None]
        plus[split + inner:, 1:] += ratio[inner:, :-1] / s[inner:, None]
        minus[split:split + inner] = -ratio[:inner] / r
        kernel[:, split:] *= weight[:, None]

        data = np.concatenate([self._panel_moments(), self._angular_modes(s)[1]])
        value, plus, minus = np.einsum("tjm,jm->tm", kernel[:, :, kabs], data)
        return (value,
                np.where(freq > 0, plus, minus),
                np.where(freq < 0, plus, minus))

    def _evaluate(self, z):
        """(value, dz, dzbar) arrays shaped like z, nan where |z| >= 1; at one
        point, complex numbers, and |z| >= 1 raises ValueError."""
        if not is_array(z):
            z = complex(z)
            if abs(z) >= 1.0:
                raise ValueError(f"point must be interior, got |z| = {abs(z)}")
            return tuple(complex(part[0]) for part in self._evaluate(np.array([z])))
        z = np.asarray(z, dtype=complex)
        flat = z.ravel()
        out = np.full((3, flat.size), complex("nan+nanj"))
        inside = np.flatnonzero(np.abs(flat) < 1.0)
        # |z| of points built as r e^{i theta} scatters by a few ulps; rounding
        # lets the whole circle share one radial solve.
        radii, group, counts = np.unique(np.round(np.abs(flat[inside]), 14),
                                         return_inverse=True, return_counts=True)
        freq = _spectral_tables(self.config.angular_nodes)[0]
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

    def values(self, z):
        return self._evaluate(z)[0]

    def jets(self, z):
        return self._evaluate(z)

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

    def values(self, z):
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
) -> GreenDerivativeSup:
    """Estimate sup_D max(|G[g]_z|, |G[g]_zbar|).

    Interior behavior is scanned on a 24 x 96 polar grid inside r = 7/8; the
    boundary limit is taken along 192-point rings on the six shells
    r_k = 1 - 2^{-k}, k = 3..8, with linear extrapolation to r = 1 from the
    last two shells.  Every ring costs one radial solve of the potential.
    The reported sup is the largest of the interior, shell and extrapolated
    estimates.
    """
    pot = source if isinstance(source, GreenPotential) else GreenPotential(source, config)
    shell_radii = 1.0 - 2.0 ** (-np.arange(3, 9, dtype=float))
    phi = 2.0 * np.pi * np.arange(192) / 192
    ring = np.exp(1j * phi)

    shell_sups = []
    for r in shell_radii:
        dz, db = pot.jets(r * ring)[1:]
        shell_sups.append(float(np.maximum(np.abs(dz), np.abs(db)).max()))

    # Shell spacing halves each step, so the last gap equals the distance
    # to the boundary and the linear extrapolation is simply 2 v1 - v0.
    boundary_limit = 2.0 * shell_sups[-1] - shell_sups[-2]

    radii = shell_radii[0] * np.arange(1, 25) / 24
    grid = radii[:, None] * np.exp(1j * 2.0 * np.pi * np.arange(96) / 96)
    dz, db = pot.jets(np.concatenate([[0j], grid.ravel()]))[1:]
    interior_sup = float(np.maximum(np.abs(dz), np.abs(db)).max())

    sup = max(interior_sup, max(shell_sups), boundary_limit)
    return GreenDerivativeSup(
        sup=sup,
        interior_sup=interior_sup,
        boundary_limit=boundary_limit,
        shell_radii=tuple(float(r) for r in shell_radii),
        shell_sups=tuple(shell_sups),
    )

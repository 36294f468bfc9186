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

Angular band.  The FFT of the panel samples also fixes the modes that
carry the source.  Over the envelope max_s max(|g_k(s)|, |g_-k(s)|) at the
panel nodes, K + 1 is the chopped length (Aurentz & Trefethen, "Chopping a
Chebyshev series", ACM TOMS 43 (2017), at tolerance eps), raised where
needed so that every mode past K is below 4 eps times the largest (the
plateau test alone cuts an algebraic tail such as 1e-9 |re z| at ~1e-11).
Only the modes |m| <= K get moments, kernels and angular sums: K = 0 for
a radial source such as c |z|^(2k), 1 for c re(z), 26 for a bump of width
0.05.  A source whose modes reach no noise plateau keeps all of them,
K = angular_nodes/2 - 1.  The panel grid is sampled at all angular_nodes
angles, since that is where K is read, but a split panel only at
M = min(angular_nodes, 4(K + 1)) angles, FFT'd at size M and read at the
columns m mod M.  A mode |m| <= K then picks up aliases only from modes
|m'| >= M - K >= 3K + 4, which the panel grid's FFT measured at
roundoff, the content a full-size split panel would drop; once
K >= angular_nodes/4 - 1, M is angular_nodes.

The potential is evaluated on arrays of query points, nan outside the
open disk (so `value` and `jet` refuse such a point).  Query points are
grouped by radius (rounded to 1e-14), so the cost scales with the number
of distinct radii: a circle or a ring of a polar grid costs one split
panel.  The radii of a call are taken in blocks of consecutive radii, at
most `_BLOCK_MODES` // (2K + 1) of them, and the new radii of a block are
solved together with array operations over radii.  Each point
sums its 2K + 1 modes by itself, and a radius's modes do not depend on the
other radii of its block, so a value does not depend on the other points
of the call.

Boundary data psi is expanded in its Fourier series on the circle, each
half (powers of z, powers of conj(z)) chopped the same way, so a
polynomial psi gives a polynomial of its own degree.

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
from .maps import PlanarMap, SeriesMap

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
# Each entry holds 3 x (2K + 1) complex numbers for a source of angular band
# K: 48 bytes for c |z|^(2k), at most 12 KB at the default 256 angular nodes.
_SOLVED_RADII = 512

# Radii times band modes (2K + 1) per block of an evaluation: 384 radii of a
# radial source, 5 of a band K = 36, one from K = 96 up.  The block's
# kernels, split-panel samples and angular sums then stay near a few MB
# however many radii a call has; wider blocks of a wide band run slower.
_BLOCK_MODES = 384

# Gauss nodes per radial panel.
_PANEL_NODES = 16

# FFT roundoff of the source's angular modes, relative to the largest: 1e-17
# to 2e-16 on the panel grid for smooth sources.
_ROUNDOFF = 4.0 * np.finfo(float).eps


class QuadratureError(RuntimeError):
    """Self-check detected quadrature disagreement beyond tolerance."""


@dataclass(frozen=True)
class QuadratureConfig:
    """Node counts for the disk quadrature.

    radial_nodes: panel nodes over the radial interval [0, 1], in
        `radial_nodes // 16` panels of 16 Gauss nodes (one panel below 16);
        the source is sampled on these radii once per potential.  Each
        field radius adds one split panel of 2 x 16 nodes.
    angular_nodes: uniform angular count, the FFT size in angle on the
        panel grid.  A split panel takes M = min(angular_nodes, 4(K + 1))
        of them for a source of angular band K.
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


def _chop_length(magnitudes: np.ndarray, scale: float = 0.0) -> int:
    """Length of a coefficient sequence up to its noise plateau.

    The plateau test of Aurentz & Trefethen, "Chopping a Chebyshev series"
    (ACM TOMS 43, 2017), at tolerance eps relative to max(scale, largest
    magnitude); below that level the sequence counts as zero and the length
    is 1.  The monotone envelope (running maximum from the right) must
    first fall below tol^(2/3) and then level off; rough data whose
    coefficients still decay at the end (abs(re(z)) on a 512-point circle)
    has no plateau and keeps its full length, as does any sequence shorter
    than 17.
    """
    n = magnitudes.size
    envelope = np.maximum.accumulate(magnitudes[::-1])[::-1]
    peak = envelope[0]
    tol = np.finfo(float).eps * max(1.0, scale / peak) if peak > 0.0 else 1.0
    if tol >= 1.0:
        return 1
    if n < 17:
        return n
    envelope = envelope / peak
    # 1-based indices as in the paper: is the envelope at j2 = 1.25 j + 5
    # no longer much below its value at j?
    j = np.arange(2, n + 1)
    j2 = np.floor(1.25 * j + 5.5).astype(int)
    j, j2 = j[j2 <= n], j2[j2 <= n]
    e1, e2 = envelope[j - 1], envelope[j2 - 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        plateau = (e1 == 0.0) | (e2 / e1 > 3.0 * (1.0 - np.log(e1) / np.log(tol)))
    if not plateau.any():
        return n
    first = int(np.argmax(plateau))
    start, j2 = int(j[first]) - 1, int(j2[first])
    if envelope[start - 1] == 0.0:
        return start
    # The cut is the lowest point of the envelope tilted up by a ramp of a
    # third of the tolerance's decades, clipped at tol^(7/6).
    floor = tol ** (7.0 / 6.0)
    above = int(np.count_nonzero(envelope >= floor))
    if above < j2:
        j2 = above + 1
        envelope[j2 - 1] = floor
    tilted = np.log10(envelope[:j2]) + np.linspace(0.0, -np.log10(tol) / 3.0, j2)
    return max(int(np.argmin(tilted)), 1)


def _powers(x: np.ndarray, top: int, mask=True) -> np.ndarray:
    """x^0..x^top along a new last axis by running products, 0 where `mask`
    is false; no overflow where |x| <= 1 or the mask is false."""
    table = np.empty(x.shape + (top + 1,))
    table[..., 0] = mask
    table[..., 1:] = x[..., None]
    return np.cumprod(table, axis=-1)


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
    (`radial_nodes` x `angular_nodes` points), FFTs it in angle, reads the
    source's angular band K from those modes and keeps per-panel moments of
    the 2K + 1 modes |m| <= K.  Each distinct radius among the query points
    then costs one split panel, 2 x 16 x M samples with
    M = min(`angular_nodes`, 4(K + 1)), plus a contraction of its band with
    the moments of the other panels (see the module docstring); the new
    radii of a call are solved together, in blocks.  The modes of the last
    512 radii are kept, so a radius visited again costs only the angular sum
    of 2K + 1 terms.
    Values and both Wirtinger derivatives come from the same modes; points
    with |z| >= 1 evaluate to nan in an array and raise ValueError alone.
    `source` is a DSL string or an array callable w -> g(w); construction
    only parses it and samples nothing.  The doubled-node comparison runs
    only when `self_check` is called.
    """

    def __init__(self, source: Union[str, Callable],
                 config: Optional[QuadratureConfig] = None):
        self.config = config if config is not None else QuadratureConfig()
        self._g = _sampler(source)
        self.source_expr = source if isinstance(source, str) else None
        self.label = f"green[{self.source_expr or 'source'}]"
        self._moments = None  # (A; B) panel moments, built at first use
        self._band = None  # FFT columns of the source's angular band, likewise
        self._split_angles = None  # angles M of a split panel, likewise
        self._grid_sup = math.nan  # max |g| over the panel grid
        # The kept radial solves: radii (nan in an empty slot), their stacked
        # _radial_modes once the band is known, and the slot written next,
        # which holds the oldest entry.
        self._solved_radii = np.full(_SOLVED_RADII, np.nan)
        self._solved = None
        self._next_slot = 0

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

        B_0 would repeat A_0, and an outer panel needs L in its place.  Only
        the FFT columns of the source's angular band are kept, listed in
        `self._band`: |m| <= K, where K + 1 is the chopped length of the
        envelope max_s max(|g_k(s)|, |g_-k(s)|) over the panel nodes, or
        more where a later mode is above roundoff (see the module
        docstring).  Also fixes the split panel's angle count M.
        """
        if self._moments is None:
            cfg = self.config
            _, s, below, above, log_weight = _panel_rule(cfg.radial_nodes, cfg.angular_nodes)
            samples, modes = self._angular_modes(s.ravel())
            self._grid_sup = float(np.max(np.abs(samples)))
            peak = np.max(np.abs(modes), axis=0)
            half = cfg.angular_nodes // 2
            # Entry k of the envelope covers the FFT columns of m = k and -k.
            envelope = np.maximum(peak[:half], peak[-np.arange(half)])
            # Past the chopped length, modes above FFT roundoff stay in the
            # band too (the chop's plateau test cuts algebraic tails such as
            # 1e-9 |re z| at ~1e-11), so every mode left out, and every mode
            # a split panel folds onto the band, is roundoff.
            loud = np.flatnonzero(envelope > _ROUNDOFF * envelope.max())
            top = max(_chop_length(envelope) - 1, int(loud[-1]) if loud.size else 0)
            band = np.flatnonzero(np.abs(_spectral_tables(cfg.angular_nodes)[0]) <= top)
            modes = modes[:, band].reshape(s.shape + band.shape)
            moments = np.concatenate([np.einsum("qjm,qjm->qm", below[:, :, band], modes),
                                      np.einsum("qjm,qjm->qm", above[:, :, band], modes)])
            moments[s.shape[0]:, 0] = np.einsum("qj,qj->q", log_weight, modes[:, :, 0])
            self._moments, self._band = moments, band
            self._split_angles = min(cfg.angular_nodes, 4 * (top + 1))
        return self._moments

    def _radial_modes(self, r: np.ndarray) -> np.ndarray:
        """Per radius r and mode m: u_m, u_m' + (m/r) u_m and u_m' - (m/r) u_m.

        `r` is an array of radii in [0, 1); the result is stacked as
        (radius, output, mode), the modes |m| <= K of the source's band in the
        FFT column order of `self._band`, and kernels and power tables stop
        at k = K.  The second output feeds d/dz and the third d/dzbar.  With
        k = |m|, a panel [a, b] inside r contributes ((b/r)^k - (r b)^k)/2k A
        (-log r A for k = 0), -(r b)^(k-1) b A and -(b/r)^k A / r; a panel
        outside r contributes ((r/a)^k B - (r b)^k A)/2k (L for k = 0),
        (r/a)^(k-1) B / a - (r b)^(k-1) b A and 0.  The panel holding r is
        split there and sampled at M = min(angular_nodes, 4(K + 1)) angles
        (see the module docstring); on it the same kernels act on g_m s ds
        directly.  Every radius gets the same arrays: at r = 0 the outer side
        is graded as s = b u^4, which resolves the s log s endpoint, and the
        empty inner side has zero weight at the outer side's nodes, where the
        source is finite, so a source with an integrable singularity at 0
        (log|z|) stays finite.
        """
        cfg = self.config
        edges, nodes = _panel_rule(cfg.radial_nodes, cfg.angular_nodes)[:2]
        count, q = nodes.shape
        moments = self._panel_moments()
        freq = _spectral_tables(cfg.angular_nodes)[0][self._band]
        kabs = np.abs(freq)
        top = int(kabs.max())
        k2 = 2.0 * np.arange(1, top + 1)
        r = np.asarray(r, dtype=float)[:, None]
        p = np.minimum((r * count).astype(int), count - 1)
        panel = np.arange(count)
        inside, outside = panel < p, panel > p
        # Nothing lies inside r = 0, so there r only needs to be finite where
        # it divides or takes a log.
        rs = np.where(r > 0.0, r, 1.0)
        a, b = edges[:-1], edges[1:]
        # Panel 0 is never outside r; its edge 0 would only divide by zero.
        outer_a = np.concatenate([[1.0], a[1:]])

        # Kernel rows per output (value, plus, minus), radius and k: rows
        # [0, count) act on the A moments, [count, 2 count) on the B
        # moments, the rest on the split panel's modes.  (r b)^k for every
        # panel but the split one, (b/r)^k inside r and (r/a)^k outside, 0
        # elsewhere: every power ratio used is <= 1, so nothing overflows
        # even where r^k underflows.
        kernel = np.zeros((3, r.shape[0], 2 * count + 2 * q, top + 1))
        value, plus, minus = kernel[:, :, :count]
        ratios = np.broadcast_arrays(r * b, b / rs, r / outer_a)
        image, down, up = _powers(np.stack(ratios), top, np.stack([panel != p, inside, outside]))
        value[:, :, 0] = -np.log(rs) * inside
        value[:, :, 1:] = down[:, :, 1:] / k2 - image[:, :, 1:] / k2
        plus[:, :, 1:] = -image[:, :, :-1] * b[:, None]
        minus[:] = -down / rs[:, :, None]
        value, plus = kernel[:2, :, count:2 * count]
        value[:, :, 0] = outside  # the L moment
        value[:, :, 1:] = up[:, :, 1:] / k2
        plus[:, :, 1:] = up[:, :, :-1] / outer_a[:, None]

        # The split panel's nodes.  With s = r + (hi - r) u^4 on panel 0,
        # G[1] erred by 2e-13 near r = 1e-4; spacing s^(1/4) keeps it 1e-16.
        # At r = 0 the empty inner side sits on the outer side's nodes.
        u, w = _gauss01(q)
        lo, hi = a[p], b[p]
        first = p == 0
        root = r**0.25 + (hi**0.25 - r**0.25) * u
        s_out = np.where(first, root**4, r + (hi - r) * u**4)
        w_out = np.where(first, 4.0 * (hi**0.25 - r**0.25) * w * root**3,
                         4.0 * (hi - r) * w * u**3) * s_out
        s_in = np.where(first, r * u**3, lo + (r - lo) * u)
        w_in = np.where(first, 3.0 * r * w * u * u, (r - lo) * w) * s_in
        s_in = np.where(r > 0.0, s_in, s_out)
        s = np.concatenate([s_in, s_out], axis=1)

        # Split-panel rows, inner side [lo, r] first.
        value, plus, minus = kernel[:, :, 2 * count:]
        ratio, product = _powers(np.stack([np.concatenate([s_in / rs, r / s_out], axis=1),
                                           r * s]), top)
        value[:, :q, 0] = -np.log(rs)
        value[:, q:, 0] = -np.log(s_out)
        value[:, :, 1:] = (ratio[:, :, 1:] - product[:, :, 1:]) / k2
        plus[:, :, 1:] = -product[:, :, :-1] * s[:, :, None]
        plus[:, q:, 1:] += ratio[:, q:, :-1] / s_out[:, :, None]
        minus[:, :q] = -ratio[:, :q] / rs[:, :, None]
        size = self._split_angles
        kernel[:, :, 2 * count:] *= np.concatenate([w_in, w_out], axis=1)[:, :, None] / size

        # The moments, then the split panel's modes, sampled at the band's M
        # angles: a mode |m| <= K aliases only modes |m'| >= M - K > 3K,
        # which the panel grid's FFT showed at roundoff.
        data = np.empty((r.shape[0], 2 * count + 2 * q, freq.size), dtype=complex)
        data[:, :2 * count] = moments
        data[:, 2 * count:] = np.fft.fft(self._g(s[:, :, None] * _spectral_tables(size)[2]),
                                         axis=2)[:, :, freq % size]
        value, plus, minus = np.einsum("trjm,rjm->trm", kernel[..., kabs], data)
        return np.stack([value, np.where(freq > 0, plus, minus),
                         np.where(freq < 0, plus, minus)], axis=1)

    def _modes_at(self, radii: np.ndarray) -> np.ndarray:
        """Stacked `_radial_modes` of distinct radii, through the kept solves.

        Kept radii are looked up at once; the others are solved in one call
        and written over the oldest kept entries.  Their modes come from that
        call, not from the cache, which they may already have overwritten.
        """
        keys = self._solved_radii
        order = np.argsort(keys)
        slot = order[np.minimum(np.searchsorted(keys[order], radii), keys.size - 1)]
        kept = keys[slot] == radii
        if kept.all():
            return self._solved[slot]
        new = radii[~kept]
        solved = self._radial_modes(new)
        if self._solved is None:
            self._solved = np.empty((_SOLVED_RADII,) + solved.shape[1:], dtype=complex)
        modes = np.empty((radii.size,) + solved.shape[1:], dtype=complex)
        modes[kept] = self._solved[slot[kept]]
        modes[~kept] = solved
        last = min(new.size, _SOLVED_RADII)
        slots = (self._next_slot + np.arange(last)) % _SOLVED_RADII
        keys[slots] = new[-last:]
        self._solved[slots] = solved[-last:]
        self._next_slot = int(slots[-1] + 1) % _SOLVED_RADII
        return modes

    def _evaluate(self, z):
        """(value, dz, dzbar) arrays shaped like z, nan where |z| >= 1."""
        z = np.asarray(z, dtype=complex)
        flat = z.ravel()
        out = np.full((3, flat.size), complex("nan+nanj"))
        inside = np.flatnonzero(np.abs(flat) < 1.0)
        if inside.size == 0:  # nothing to sample the source for
            return tuple(part.reshape(z.shape) for part in out)
        # |z| of points built as r e^{i theta} scatters by a few ulps; rounding
        # lets the whole circle share one radial solve.
        radii, group = np.unique(np.round(np.abs(flat[inside]), 14), return_inverse=True)
        order = np.argsort(group, kind="stable")
        inside, group = inside[order], group[order]
        self._panel_moments()
        freq = _spectral_tables(self.config.angular_nodes)[0][self._band]
        # Blocks of consecutive radii, each with the points on them.
        size = max(1, _BLOCK_MODES // freq.size)
        starts = np.searchsorted(group, np.arange(0, radii.size + size, size))
        for block, (i, j) in enumerate(zip(starts[:-1], starts[1:])):
            modes = self._modes_at(radii[block * size:(block + 1) * size])
            idx = inside[i:j]
            theta = np.angle(flat[idx])
            # A product and a sum over the contiguous mode axis: each point's
            # sum is the same however many points share its block (a matrix
            # product switches between gemv and gemm, which round differently).
            phase = np.exp(1j * np.outer(theta, freq))
            rows = group[i:j] - block * size
            value, plus, minus = ((phase * modes[rows, part]).sum(axis=1) for part in range(3))
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
    frequency of the sample grid, each array cut to its numerical degree:
    where its coefficients reach the noise plateau at eps times the largest
    coefficient of either (Aurentz & Trefethen's chop).  So
    z + 0.3 z^2 + 0.25 conj(z) gives arrays of lengths 3 and 2, and data
    whose coefficients still decay at Nyquist (abs(re(z))) keeps them all.
    b[0] is always 0.
    """
    n = int(boundary_nodes)
    if n < 16:
        raise ValueError("boundary_nodes must be at least 16")
    theta = 2.0 * np.pi * np.arange(n) / n
    samples = _sampler(psi)(np.exp(1j * theta))
    coeff = np.fft.fft(samples) / n
    keep = n // 2 - 1
    a = coeff[: keep + 1]
    b = np.concatenate([[0.0], coeff[-1 : -(keep + 1) : -1]])
    size_a, size_b = np.abs(a), np.abs(b)
    scale = max(size_a.max(), size_b.max())
    return a[:_chop_length(size_a, scale)].copy(), b[:_chop_length(size_b, scale)]


def poisson_extension(psi, config: Optional[QuadratureConfig] = None) -> SeriesMap:
    """Harmonic extension of boundary data psi as a finite power series.

    The kernel integral against sampled data is summed in Fourier form:
    uniform boundary samples are transformed and the kernel collapses each
    mode m to z^m (m >= 0) or conj(z)^|m| (m < 0).  This equals the
    trapezoid rule with all above-Nyquist aliases dropped, which keeps the
    evaluation uniformly accurate up to the boundary for smooth data.  The
    series stops at its numerical degree (see `poisson_coefficients`).
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
    z,
    h: float = 1e-3,
) -> np.ndarray:
    """|five-point finite-difference Laplacian of m  -  g| at each point of z.

    g is the expected Laplacian, a DSL string or an array callable.  Returns
    residuals shaped like z, from one `values` call on every stencil.
    Requires 1 - |z| >= 2h at every point so the stencils stay inside the
    disk.
    """
    z = np.asarray(z, dtype=complex)
    if h <= 0:
        raise ValueError("h must be positive")
    if np.any(1.0 - np.abs(z) < 2.0 * h):
        raise ValueError("stencil too close to the boundary: need 1 - |z| >= 2h")
    flat = z.ravel()
    ref = _sampler(g)(flat)
    stencil = np.stack([flat + h, flat - h, flat + 1j * h, flat - 1j * h, flat], axis=1)
    vals = m.values(stencil)
    fd = (vals[:, :4].sum(axis=1) - 4.0 * vals[:, 4]) / (h * h)
    return np.abs(fd - ref).reshape(z.shape)


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

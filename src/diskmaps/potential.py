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

where r_< = min(r, s) and r_> = max(r, s).  First derivatives come from
d/dz = e^{-i theta}/2 (d/dr - (i/r) d/dtheta): the combinations
u_m' +- (|m|/r) u_m have closed-form kernels with no division by r, so
z = 0 is exact.

The radial equations are solved as Greengard & Rokhlin ("On the numerical
solution of two-point boundary value problems", CPAM 44 (1991)) and
Greengard & Lee ("A direct adaptive Poisson solver of arbitrary order
accuracy", J. Comput. Phys. 125 (1996)) solve them: once per potential,
at the nodes of adaptive radial panels, and by interpolation everywhere
else.

Panels.  The radial interval starts as `radial_nodes // 16` uniform panels
of 16 Gauss nodes (one panel of `radial_nodes` nodes below 16).  The
source is sampled on this grid at the angles its band needs (below), and
an FFT in angle gives g_m at every node (Nyquist mode dropped).  The
panels are then refined by `quadrature.refine_panels`, the whole grid one
owner: the samples are the band's g_m at the nodes, taken for new halves
at the same angles, and the mass density is max_m |g_m| s.  So a source
that the 16-node panels resolve keeps them and takes no sample beyond
them; a bump of width 0.05 gets panels of 1/32 around it; and an
integrable singularity at 0 such as log|z| is refined dyadically toward 0
until its innermost panel holds less than eps of the mass.  A panel is
split at most `_MAX_SPLITS` times, and the panels stay within
`_MAX_PANEL_MODES` // (K + 1), which bounds the work a source with a pole
on the disk can ask for.  A potential whose panels a limit left unresolved
records `resolved` false, and the operators of its grid, which no other
source meets, are built outside the caches.

Node solve.  Off the diagonal the kernel separates, so each panel keeps
three scaled moments per mode, with k = |m| and panel [a, b]:

    A = integral (s/b)^k g_m s ds,   B = integral (a/s)^k g_m s ds,
    L = integral -log(s) g_0 s ds.

At a node r of panel p the other panels contribute through these moments,
summed over the panels inside and outside p with ratios (b_q/a_p, b_p/a_q,
a_p/r, r/b_p) that never exceed 1; the image term (r s)^k takes every
panel's A.  The panel itself contributes one integration matrix per k
applied to the g_m at its 16 nodes: the kernel's kink parts, integrated
against the panel's Lagrange basis on either side of each node
(`_panel_block`).  Both the moment weights and the matrices are exact
for a g_m of degree < 16 on the panel, and are cached per panel and block
of modes k.

Interpolation.  At any radius the three outputs u_m, u_m' + (|m|/r) u_m and
u_m' - (|m|/r) u_m come from the 16 node values of its panel by
barycentric interpolation in s, and the source is not sampled again.  The
outputs are as smooth as the g_m that the panels resolve, so the
interpolation errs about as little as they do: ~1e-15 for the closed-form
test sources, up to the circle and at z = 0.  The decay (a/r)^k that a
mode k carries outward from panels inside r is resolved only where the
panel is narrow beside a/k: the default panels are for the tested sources,
but the one panel that `radial_nodes` = 12 starts with, once split down to
[0.5, 1], errs 5e-12 for the bump of width 0.05.

Angular band.  The FFT of the panel samples also fixes the modes that
carry the source.  Over the envelope max_s max(|g_k(s)|, |g_-k(s)|) at the
starting panel nodes, K + 1 is the chopped length (Aurentz & Trefethen,
"Chopping a Chebyshev series", ACM TOMS 43 (2017), at tolerance eps),
raised where needed so that every mode past K is below 4 eps times the
largest (the plateau test alone cuts an algebraic tail such as
1e-9 |re z| at ~1e-11).  Only the modes |m| <= K get moments, node values
and angular sums: K = 0 for a radial source such as c |z|^(2k), 1 for
c re(z), 26 for a bump of width 0.05.  A source whose modes reach no noise
plateau keeps all of them, K = angular_nodes/2 - 1.  K is read the way
Chebfun builds a function: the starting grid is sampled at N = 64 angles
(`_start_angles`) and N is doubled, up to the cap angular_nodes, until K
read at N has 4(K + 1) <= N and the band's sum matches g at four check
angles that lie on no power-of-two grid, on every panel radius, to 32 eps
of max |g|.  The check sees modes that N folds onto the band or onto the
dropped Nyquist column (1 + re(z^64) reads K = 0 at 64 angles), at their
own size.  The angles at 2N are those at N and the odd ones, so a
doubling samples only the odd ones, and a source that ends at the cap
takes the same samples and values as a grid sampled there at once.  Split
panels are sampled at the N angles accepted there.

The potential is evaluated on arrays of query points, nan outside the
open disk (so `value` and `jet` refuse such a point).  Query points are
grouped by radius (rounded to 1e-14), each distinct radius is interpolated
once, and each point sums its 2K + 1 modes; the points of a call are taken
in blocks of at most `_BLOCK_MODES` // (2K + 1), which bounds the memory a
call takes.  A radius's interpolation and a point's sum are elementwise
products in a fixed operand order, each summed along its own contiguous
axis, so a value does not depend on the other points of the call.

Boundary data psi is expanded in its Fourier series on the circle, each
half (powers of z, powers of conj(z)) chopped the same way, so a
polynomial psi gives a polynomial of its own degree.

Sources g and boundary data psi are either DSL strings in z or array
callables w -> g(w) over complex arrays; anything else is a TypeError.
Constructing a potential samples nothing.  A sample of psi on the circle,
or of g on the starting panel grid, that is not finite raises
JetEvaluationError naming the first such angle or point; finite samples
whose Fourier transform overflows (`1e308*z`) raise it naming psi or g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from . import expr as _expr
from .grids import Scan, sup_scan
from .maps import JetEvaluationError, PlanarMap, SeriesMap
from .quadrature import gauss, gauss01, read_only, refine_panels
from .wirtinger import Stretch

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
    "laplacian_stencils",
    "stencil_residual",
    "green_derivative_sup",
]

# Points times band modes (2K + 1) per block of an evaluation: 1,365 points
# of a band K = 1, 16 of K = 127.  A block's interpolation products stay
# within 3 MiB however many points a call has.
_BLOCK_MODES = 4096

# Gauss nodes per radial panel.
_PANEL_NODES = 16

# FFT roundoff of the source's angular modes, relative to the largest: 1e-17
# to 2e-16 on the panel grid for smooth sources.
_ROUNDOFF = 4.0 * np.finfo(float).eps
_EPS = np.finfo(float).eps

# Angles of the first panel grid.  At 32 angles (16 envelope entries) the
# chop finds no plateau, so a radial source would read K = 15.
_START_ANGLES = 64

# Off-grid check angles, 2 pi frac(j / golden ratio) for j = 1..4: no uniform
# grid of a power-of-two size holds one, so a mode that a coarse grid folds
# onto the band shows there at its own size.
_CHECK_ANGLES = 2.0 * np.pi * np.modf(np.arange(1, 5) * (math.sqrt(5.0) - 1.0) / 2.0)[0]

# Largest deviation of the band's sum from g at the check angles, relative to
# max |g|, that a grid accepts: bands that hold deviate by <= 4 eps.
_CHECK_TOL = 32.0 * np.finfo(float).eps

# Halvings of a starting panel: 1/8 becomes 1.2e-10 at most.  log|z| stops
# by its mass after 26.
_MAX_SPLITS = 30

# Panels times the band's K + 1: 32 panels of a band K = 127, 4,096 of a
# radial source.
_MAX_PANEL_MODES = 8192


class QuadratureError(RuntimeError):
    """Self-check detected quadrature disagreement beyond tolerance."""


@dataclass(frozen=True)
class QuadratureConfig:
    """Node counts for the disk quadrature.

    radial_nodes: the starting panel grid over the radial interval [0, 1],
        `radial_nodes // 16` uniform panels of 16 Gauss nodes (one panel
        below 16).  Panels that do not resolve the source are split in
        halves (see the module docstring); the radial equations are solved
        once at the nodes and interpolated everywhere else.
    angular_nodes: the cap on the uniform angular count N of the panel
        grid, which starts at 64 (`_start_angles`) and doubles until it
        holds the source's angular band K.  A band with no noise plateau is
        sampled at all angular_nodes.
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
def _barycentric(q: int) -> np.ndarray:
    """Barycentric weights of the q Gauss nodes, cached and read-only; they
    serve the nodes of any panel, whose affine scale cancels."""
    u = gauss01(q)[0]
    diff = u[:, None] - u
    np.fill_diagonal(diff, 1.0)
    weights = 1.0 / diff.prod(axis=1)
    weights /= np.abs(weights).max()
    return read_only(weights)


@lru_cache(maxsize=None)
def _spectral_tables(nphi: int):
    """Per-config tables in FFT column order, cached and read-only.

    Returns the signed mode m of each FFT column, the per-mode scale (1/nphi,
    0 for the dropped Nyquist mode), the unit circle at the nphi angles, the
    column of -k for k = 0..nphi/2 - 1, and e^{i m phi} at the check angles
    (column, angle).
    """
    freq = np.rint(np.fft.fftfreq(nphi, 1.0 / nphi)).astype(int)
    scale = np.where(np.abs(freq) < nphi // 2, 1.0 / nphi, 0.0)
    unit = np.exp(2j * np.pi * np.arange(nphi) / nphi)
    return read_only(freq, scale, unit, -np.arange(nphi // 2) % nphi,
                     np.exp(1j * np.outer(freq, _CHECK_ANGLES)))


@lru_cache(maxsize=None)
def _panel_nodes(n: int):
    """The starting panel grid, cached and read-only: `n // 16` uniform
    panels of 16 Gauss nodes, or one panel of n nodes when n < 16.  Returns
    the panel edges and the nodes as a (panels, nodes per panel) array."""
    q = min(n, _PANEL_NODES)
    edges = np.arange(n // q + 1) / (n // q)
    return read_only(edges, gauss(edges[:-1], edges[1:], q)[0])


@lru_cache(maxsize=8)
def _panel_grid(n: int, nphi: int):
    """`_panel_nodes(n)` at nphi and at the check angles, (node, angle); cached, read-only."""
    radii = _panel_nodes(n)[1].reshape(-1, 1)
    return read_only(radii * _spectral_tables(nphi)[2], radii * np.exp(1j * _CHECK_ANGLES))


@lru_cache(maxsize=None)
def _circle(n: int) -> np.ndarray:
    """The n-th roots of unity e^{2 pi i k / n}, cached and read-only."""
    return read_only(np.exp(1j * (2.0 * np.pi * np.arange(n) / n)))


def _graded(lo, hi, n: int):
    """n-point Gauss rules on [lo, hi] split at lo 2^j, for lo > 0: on each
    piece the singularity at 0 of s^-k and log s lies at least the piece's
    length away.  Nodes and weights along a new last axis; pieces past hi
    have zero length."""
    lo = np.asarray(lo, dtype=float)
    count = max(1, math.ceil(math.log2(hi / lo.min())))
    ends = np.minimum(lo[..., None] * 2.0 ** np.arange(count + 1), hi)
    t, w = gauss(ends[..., :-1], ends[..., 1:], n)
    return t.reshape(lo.shape + (-1,)), w.reshape(lo.shape + (-1,))


def _lagrange(t: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """The Lagrange basis on `nodes` (last axis) at the points t, by the
    barycentric formula: shape t.shape + (q,), a point on a node getting that
    node's unit row.  Each row is its own elementwise products and sum."""
    diff = t[..., None] - nodes
    hit = diff == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        basis = _barycentric(nodes.shape[-1]) / diff
        basis /= basis.sum(axis=-1, keepdims=True)
    np.copyto(basis, hit, where=hit.any(axis=-1, keepdims=True))
    return basis


def _block_columns(block: int):
    """The modes k of a block of `_panel_block`: 0-1, 2-7, 8-15, 16-31, then
    32 at a time."""
    if block < 4:
        return (0, 2, 8, 16)[block], (2, 8, 16, 32)[block]
    return 32 * (block - 3), 32 * (block - 2)


@lru_cache(maxsize=256)
def _panel_block(a: float, b: float, q: int, block: int):
    """Moment weights and integration matrices of the panel [a, b] for the
    modes k of `_block_columns(block)`, cached and read-only (256 blocks of
    at most 0.2 MB).

    Returns `moments` (2, q, k), the weights that turn g_m at the q nodes
    into A and B (B's k = 0 column holds L; panel 0, never outside a radius,
    has none), and `matrices` (3, q, q, k): row i turns g_m at the nodes into
    the panel's own part of u_m, u_m' + (k/r) u_m and u_m' - (k/r) u_m at
    node r = s_i.  That part is the kernel's kink: with
    I = integral_a^r (s/r)^k g s ds and O = integral_r^b (r/s)^k g s ds, it
    is (I + O)/2k, O/r and -I/r (k = 0: -log(r) I - integral_r^b log(s) g s ds,
    and -I/r twice); the image term (r s)^k enters through A.  g_m is its
    Lagrange interpolant on the nodes, integrated by Gauss rules of
    20 + k/2 points for the block's top k: exact for the polynomial
    (s/r)^k s l_j(s), and on [r, b], split at r 2^j (`_graded`), they
    resolve (r/s)^k to roundoff.  A column's bits do not depend on how many
    blocks a band takes.
    """
    s = a + (b - a) * gauss01(q)[0]
    first, stop = _block_columns(block)
    n = 20 + (stop - 1) // 2

    def basis(t, w):  # l_j(t) t dt, with the point axis before j
        return _lagrange(t, s) * (w * t)[..., None]

    def integrate(weights, x):  # sum of weights times x^k over the point axis
        powers = np.empty(x.shape + (stop - first,))
        powers[..., 0] = x**first
        powers[..., 1:] = x[..., None]
        return np.swapaxes(weights, -1, -2) @ np.cumprod(powers, axis=-1)

    t, w = gauss(a, b, n)
    moments = np.zeros((2, q, stop - first))
    moments[0] = integrate(basis(t, w), t / b)
    if a > 0.0:
        t, w = _graded(a, b, n)
        outer = basis(t, w)
        moments[1] = integrate(outer, a / t)
        if block == 0:
            moments[1, :, 0] = -np.log(t) @ outer

    t, w = gauss(a, s, n)
    inner = integrate(basis(t, w), t / s[:, None])
    t, w = _graded(s, b, n)
    outside = basis(t, w)
    outer = integrate(outside, s[:, None] / t)
    r = s[:, None, None]
    matrices = np.empty((3, q, q, stop - first))
    with np.errstate(divide="ignore", invalid="ignore"):
        matrices[0] = (inner + outer) / (2.0 * np.arange(first, stop))
    matrices[1] = outer / r
    matrices[2] = -inner / r
    if block == 0:
        matrices[0, :, :, 0] = (-np.log(s)[:, None] * inner[..., 0]
                                - np.einsum("itj,it->ij", outside, np.log(t)))
        matrices[1, :, :, 0] = matrices[2, :, :, 0]
    return read_only(moments, matrices)


def _start_angles(cap: int) -> int:
    """First angle count of the panel grid: cap / 2^j for the largest j that
    keeps it even and at least `_START_ANGLES`, or cap when that is smaller,
    so that every doubling up to the cap lands on the cap's own angles."""
    size = cap
    while size % 4 == 0 and size // 2 >= _START_ANGLES:
        size //= 2
    return size


def _band_top(modes: np.ndarray) -> Tuple[int, float]:
    """The angular band K of scaled FFT modes (radius, FFT column), and the
    crest (largest entry) of their envelope, not finite where a mode is not.

    Over the envelope max_s max(|g_k(s)|, |g_-k(s)|), K + 1 is the chopped
    length, or more where a later mode is above roundoff: the chop's plateau
    test cuts algebraic tails such as 1e-9 |re z| at ~1e-11, so this keeps
    every mode left out at roundoff.
    """
    peak = np.abs(modes).max(axis=0)
    # Entry k of the envelope covers the FFT columns of m = k and -k.
    envelope = np.maximum(peak[:modes.shape[1] // 2], peak[_spectral_tables(modes.shape[1])[3]])
    crest = envelope.max()
    loud = np.flatnonzero(envelope > _ROUNDOFF * crest)
    return max(_chop_length(envelope) - 1, int(loud[-1]) if loud.size else 0), crest


@lru_cache(maxsize=None)
def _plateau_ends(n: int) -> np.ndarray:
    """The chop's j2 - 1 for j = 2, 3, ... while j2 = floor(1.25 j + 5.5) <= n; cached."""
    ends = np.floor(1.25 * np.arange(2, n + 1) + 5.5).astype(int) - 1
    return read_only(ends[ends < n])


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
    tol = _EPS * max(1.0, scale / peak) if peak > 0.0 else 1.0
    if tol >= 1.0:
        return 1
    if n < 17:
        return n
    envelope = envelope / peak
    # 1-based indices as in the paper: is the envelope at j2 = 1.25 j + 5
    # no longer much below its value at j?  Entry j - 2 of `ends` is j2 - 1.
    ends = _plateau_ends(n)
    e1, e2 = envelope[1:ends.size + 1], envelope[ends]
    with np.errstate(divide="ignore", invalid="ignore"):
        plateau = (e1 == 0.0) | (e2 / e1 > 3.0 * (1.0 - np.log(e1) / np.log(tol)))
    first = int(np.argmax(plateau))
    if not plateau[first]:
        return n
    start, j2 = first + 1, int(ends[first]) + 1
    if envelope[start - 1] == 0.0:
        return start
    # The cut is the lowest point of the envelope tilted up by a ramp of a
    # third of the tolerance's decades, clipped at tol^(7/6).
    floor = tol ** (7.0 / 6.0)
    above = int(np.count_nonzero(envelope >= floor))
    if above < j2:
        j2 = above + 1
        envelope[j2 - 1] = floor
    # np.linspace(0, top, j2) bit for bit (j2 >= 2).
    top = -np.log10(tol) / 3.0
    ramp = np.arange(j2) * (top / (j2 - 1))
    ramp[-1] = top
    return max(int(np.argmin(np.log10(envelope[:j2]) + ramp)), 1)


def _powers(x: np.ndarray, top: int, mask=True) -> np.ndarray:
    """x^0..x^top along a new last axis by running products, 0 where `mask`
    is false; no overflow where |x| <= 1 or the mask is false."""
    table = np.empty(np.shape(x) + (top + 1,))
    table[..., 0] = mask
    table[..., 1:] = np.asarray(x)[..., None]
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


def _refuse_transform(samples: np.ndarray, name: str, source, where):
    """For a Fourier transform that is not finite: JetEvaluationError naming
    `name`, a DSL `source` and where(k) of a first bad sample k, or saying
    that the transform of the finite samples overflows."""
    finite = np.isfinite(samples)
    name += f" = {source!r}" if isinstance(source, str) else ""
    if not finite.all():
        raise JetEvaluationError(f"{name} is not finite at {where(int(np.argmin(finite)))}")
    raise JetEvaluationError(f"the Fourier transform of {name} overflows")


@lru_cache(maxsize=4)
def _grid_operators(edges: tuple, q: int, top: int, panel_block=_panel_block):
    """Everything of the node solve that depends only on the panels and the
    band, cached and read-only, with k = 0..top along the second axis:
    0.2 MB for the default panels and K <= 15, 50 MB for 64 panels of
    K = 127.  `panel_block` builds the blocks of `_panel_block`; the
    uncached builder `_grid_operators.__wrapped__` with
    `_panel_block.__wrapped__` enters neither cache.

    Returns the moment weights (panel, k, 2, node) and integration matrices
    (panel, k, 3 x node, node) of `_panel_block`; the ratios (b_q/a_p)^k of
    panels q inside p and (b_p/a_q)^k of panels q outside p (k, panel p,
    panel q) and b_q^k (k, panel q); at the nodes r of panel p (panel, k,
    node, 1), (a_p/r)^k, (r/b_p)^k, r^k, (r/b_p)^(k-1)/b_p and r^(k-1);
    log r and 1/r (panel, 1, node, 1); and 1/2k (0 for k = 0).  Every power
    is <= 1.
    """
    edges = np.array(edges)
    a, b = edges[:-1], edges[1:]
    count = next(block for block in range(top + 2) if _block_columns(block)[0] > top)
    blocks = [[panel_block(lo, hi, q, block) for block in range(count)]
              for lo, hi in zip(a.tolist(), b.tolist())]
    moments, matrices = (np.stack([np.concatenate([op[part] for op in ops], axis=-1)[..., :top + 1]
                                   for ops in blocks]) for part in (0, 1))
    moments = np.moveaxis(moments, -1, 1)
    matrices = np.moveaxis(matrices, -1, 1).reshape(a.size, top + 1, 3 * q, q)
    panel = np.arange(a.size)
    inside, outside = panel < panel[:, None], panel > panel[:, None]
    a_safe = np.where(a > 0.0, a, 1.0)  # a = 0 only for panel 0, outside no panel
    into, out_of = np.moveaxis(_powers(np.stack([b / a_safe[:, None], b[:, None] / a_safe]), top,
                                       np.stack([inside, outside])), -1, 1)
    s = gauss(a, b, q)[0]
    down, up, power = np.moveaxis(
        _powers(np.stack(np.broadcast_arrays(a[:, None] / s, s / b[:, None], s)), top), -1, 2)
    zero = np.zeros((a.size, 1, q))
    up_less = np.concatenate([zero, up[:, :-1] / b[:, None, None]], axis=1)
    power_less = np.concatenate([zero, power[:, :-1]], axis=1)
    half = np.concatenate([[0.0], 0.5 / np.arange(1, top + 1)])[:, None, None]
    tables = [np.ascontiguousarray(arr) for arr in (moments, matrices, into, out_of)]
    tables += [_powers(b, top).T]
    tables += [arr[..., None] for arr in (down, up, power, up_less, power_less)]
    tables += [np.log(s)[:, None, :, None], 1.0 / s[:, None, :, None], half]
    return read_only(*tables)


def _node_solve(edges: np.ndarray, g: np.ndarray, cached: bool) -> np.ndarray:
    """u_m, then the outputs for d/dz and d/dzbar, at every panel node.

    `g` holds g_k and g_-k at the nodes, (panel, node, sign, k) for
    k = 0..K.  The result is (panel, output, mode, node) for the band's
    modes in FFT order (0..K, then -K..-1), contiguous along the nodes for
    the interpolation.  Output 1 is u_m' + (m/r) u_m and output 2
    u_m' - (m/r) u_m.  The arithmetic runs on the real and imaginary
    parts of g_k and g_-k as four real columns, in real matrix products.
    With `cached` false the operators are built without entering the
    `_grid_operators` or `_panel_block` cache.
    """
    count, q, _, width = g.shape
    key = (tuple(edges.tolist()), q, width - 1)
    (moments, matrices, into, out_of, image, down, up, power, up_less, power_less,
     log_r, inv_r, half) = (_grid_operators(*key) if cached else
                            _grid_operators.__wrapped__(*key, _panel_block.__wrapped__))
    columns = np.ascontiguousarray(g.transpose(0, 3, 1, 2)).view(float)  # (panel, k, node, 4)
    A, B = (moments @ columns).transpose(2, 0, 1, 3)  # (panel, k, 4) each
    # Panel q inside p enters through (b_q/a_p)^k A_q, panel q outside p
    # through (b_p/a_q)^k B_q, and every panel through b_q^k A_q.
    inner = (into @ A.transpose(1, 0, 2)).transpose(1, 0, 2)[:, :, None]
    outer = (out_of @ B.transpose(1, 0, 2)).transpose(1, 0, 2)[:, :, None]
    whole = (image[:, :, None] * A.transpose(1, 0, 2)).sum(axis=1)[:, None]
    value = (down * inner + up * outer - power * whole) * half
    value[:, 0] = outer[:, 0] - log_r[:, 0] * inner[:, 0]
    plus = up_less * outer - power_less * whole
    minus = -down * inner * inv_r
    plus[:, 0] = minus[:, 0]
    out = np.stack([value, plus, minus], axis=2)
    out += (matrices @ columns).reshape(out.shape)
    out = out.view(complex)  # (panel, k, output, node, sign)
    # m = k takes (value, plus, minus), m = -k (value, minus, plus).
    modes = np.concatenate([out[..., 0], out[:, :0:-1][:, :, [0, 2, 1]][..., 1]], axis=1)
    return np.ascontiguousarray(modes.transpose(0, 2, 1, 3))


class GreenPotential(PlanarMap):
    """The map z -> G[g](z) for a fixed source g, by a polar-spectral solve.

    The first evaluation samples the source once on the starting panel grid
    (`radial_nodes` x N points), FFTs it in angle and reads the source's
    angular band K from those modes.  N starts at 64 and doubles, up to
    `angular_nodes`, until it holds the band (see `_node_solution`), so a
    smooth source of band K <= 15 takes 64 angles plus 4 check angles.
    Panels that do not resolve the 2K + 1 modes |m| <= K are split and
    their halves sampled at the same N angles; then the radial equations
    are solved once at the panel nodes (see the module docstring).  Each
    distinct radius among the query points then costs a barycentric
    interpolation within its panel, and samples nothing.
    Values and both Wirtinger derivatives come from the same modes; points
    with |z| >= 1 evaluate to nan in an array and raise ValueError alone.
    `source` is a DSL string or an array callable w -> g(w); construction
    only parses it and samples nothing.  The doubled-node comparison runs
    only when `self_check` is called.  `resolved` is None until the first
    evaluation, then whether the refined panels resolve the source (false
    when `_MAX_SPLITS` or `_MAX_PANEL_MODES` stopped a split).
    """

    def __init__(self, source: Union[str, Callable],
                 config: Optional[QuadratureConfig] = None):
        self.config = config if config is not None else QuadratureConfig()
        self._g = _sampler(source)
        self.source_expr = source if isinstance(source, str) else None
        self.label = f"green[{self.source_expr or 'source'}]"
        self._solution = None  # node values, built at first use
        self._band = None  # signed modes m of the source's angular band, likewise
        self._angles = None  # angle count N of the panel grid, likewise
        self._edges = None  # panel edges, likewise
        self._nodes = None  # panel nodes, likewise
        self.resolved = None  # whether the panels resolve the source, likewise

    @property
    def laplacian_expr(self) -> Optional[str]:
        if self.source_expr is None:
            return None
        return f"-({self.source_expr})"

    def source_grid_sup(self) -> float:
        """Max |g| over the full starting panel grid and the boundary circle.

        A sampled lower estimate of sup |g|.  The source is sampled here, at
        all `radial_nodes` x `angular_nodes` starting panel nodes whatever
        angles the radial solve needs, plus the r = 1 ring, because Gauss
        nodes stop short of the boundary, where |g| often peaks.  It is +inf
        once a sample is not finite: a sup that skipped one bounds nothing.
        Rings are sampled in blocks of at most `expr._BLOCK` points.
        """
        cfg = self.config
        unit = _spectral_tables(cfg.angular_nodes)[2]
        radii = np.append(_panel_nodes(cfg.radial_nodes)[1].ravel(), 1.0)[:, None]
        step = max(1, _expr._BLOCK // unit.size)
        scans = (sup_scan(np.abs(self._g(pts)), pts, base=False)
                 for pts in (radii[i:i + step] * unit for i in range(0, radii.size, step)))
        scan = reduce(Scan.join, scans).as_base()
        return math.inf if scan.masked else scan.value

    # --- radial solve ------------------------------------------------------

    def _node_solution(self) -> np.ndarray:
        """The node values of `_node_solve` on the refined panels.

        The starting grid is sampled at N angles, from `_start_angles` up: N
        is accepted once the band K read there (`_band_top`) has
        4(K + 1) <= N and the band's sum matches g at the off-grid check
        angles on every panel radius, and otherwise doubled, sampling only
        the new odd angles; at N = `angular_nodes` it is accepted as is.
        Only the modes |m| <= K are kept, listed in `self._band`.  Then the
        panels are refined (`quadrature.refine_panels`) and solved.
        """
        if self._solution is None:
            cfg = self.config
            edges, nodes = _panel_nodes(cfg.radial_nodes)
            radii = nodes.reshape(-1, 1)
            size = _start_angles(cfg.angular_nodes)
            grid, check_grid = _panel_grid(cfg.radial_nodes, size)
            with np.errstate(all="ignore"):  # a sample that is not finite is refused below
                samples = self._g(grid)
                check = None
                while True:
                    freq, scale, unit = _spectral_tables(size)[:3]
                    modes = np.fft.fft(samples, axis=1) * scale
                    top, crest = _band_top(modes)
                    band = np.flatnonzero(np.abs(freq) <= top)
                    if size == cfg.angular_nodes:
                        break
                    if 4 * (top + 1) <= size:
                        if check is None:
                            check = self._g(check_grid)
                        fit = modes[:, band] @ _spectral_tables(size)[4][band]
                        peak = max(np.abs(samples).max(), np.abs(check).max())
                        if np.max(np.abs(fit - check)) <= _CHECK_TOL * peak:
                            break
                    # The angles at 2N are those at N, bit for bit, and the odd ones.
                    finer = np.empty((radii.size, 2 * size), dtype=complex)
                    finer[:, ::2] = samples
                    size *= 2
                    finer[:, 1::2] = self._g(radii * _spectral_tables(size)[2][1::2])
                    samples = finer
            if not np.isfinite(crest):  # a bad sample spoils its row's modes
                _refuse_transform(samples, "source g", self.source_expr,
                                  lambda k: f"w = {radii[k // size, 0] * unit[k % size]}")
            self._band, self._angles = freq[band], size
            # Columns of g_k and g_-k, k = 0..K.
            signed = np.arange(top + 1) * np.array([[1], [-1]]) % size
            q = nodes.shape[1]

            def sample(_, lo, hi):  # the band's modes at the nodes of panels [lo, hi]
                s = gauss(lo, hi, q)[0]
                modes = np.fft.fft(self._g(s.ravel()[:, None] * unit), axis=1) * scale
                return modes[:, signed].reshape(s.shape + signed.shape)

            # The mass density is max_m |g_m| s.
            _, lo, hi, g, _, unresolved = refine_panels(
                sample, np.zeros(edges.size - 1, dtype=int), edges[:-1], edges[1:],
                lambda lo, hi, owner, depth: depth < _MAX_SPLITS, _MAX_PANEL_MODES // (top + 1),
                samples=modes[:, signed].reshape(nodes.shape + signed.shape), density=np.multiply)
            if lo.size > nodes.shape[0]:  # else the starting panels, bit for bit
                edges, nodes = np.append(lo, hi[-1]), gauss(lo, hi, q)[0]
            self._edges, self._nodes = edges, nodes
            self.resolved = not unresolved.any()
            self._solution = _node_solve(self._edges, g, cached=self.resolved)
        return self._solution

    def _evaluate(self, z, rows: slice):
        """The `rows` of (value, dz, dzbar) as arrays shaped like z, nan where
        |z| >= 1; the other rows are neither interpolated nor summed."""
        z = np.asarray(z, dtype=complex)
        flat = z.ravel()
        first, stop, _ = rows.indices(3)
        out = np.full((stop - first, flat.size), complex("nan+nanj"))
        inside = np.flatnonzero(np.abs(flat) < 1.0)
        if inside.size == 0:  # nothing to sample the source for
            return tuple(part.reshape(z.shape) for part in out)
        # |z| of points built as r e^{i theta} scatters by a few ulps; rounding
        # lets the whole circle share one interpolation; `group` numbers the radii.
        modulus = np.round(np.abs(flat[inside]), 14)
        order = np.argsort(modulus, kind="stable")
        inside, modulus = inside[order], modulus[order]
        new = np.concatenate(([True], modulus[1:] != modulus[:-1]))
        radii, group = modulus[new], np.cumsum(new) - 1
        solution = self._node_solution()
        freq, edges, nodes = self._band, self._edges, self._nodes
        panel = np.minimum(np.searchsorted(edges, radii, side="right") - 1, edges.size - 2)
        size = max(1, _BLOCK_MODES // freq.size)
        for i in range(0, inside.size, size):
            idx, members = inside[i:i + size], group[i:i + size]
            lo, hi = members[0], members[-1] + 1
            p = panel[lo:hi]
            # Products in a fixed operand order, each summed along its own
            # contiguous axis: a radius's modes and a point's sums do not
            # depend on the other points of the block (a matrix product
            # switches between gemv and gemm, which round differently, and
            # numpy may reuse a temporary operand and swap the order of a
            # complex product, which is not bit-commutative).
            terms = solution[p, rows]
            np.multiply(terms, _lagrange(radii[lo:hi], nodes[p])[:, None, None, :], out=terms)
            modes = terms.sum(axis=-1)[members - lo]
            theta = np.arctan2(flat[idx].imag, flat[idx].real)  # np.angle
            np.multiply(np.exp(1j * np.outer(theta, freq))[:, None, :], modes, out=modes)
            sums = modes.sum(axis=-1).T
            for row, part in enumerate(sums, first):
                if row:  # u_m' +- (|m|/r) u_m to d/dz and d/dzbar
                    part = 0.5 * np.exp((-1j if row == 1 else 1j) * theta) * part
                out[row - first, idx] = part
        return tuple(part.reshape(z.shape) for part in out)

    # --- PlanarMap interface ----------------------------------------------

    def values(self, z):
        return self._evaluate(z, slice(0, 1))[0]

    def jets(self, z):
        return self._evaluate(z, slice(0, 3))

    def derivatives(self, z):
        return self._evaluate(z, slice(1, 3))

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
    with np.errstate(all="ignore"):
        samples = _sampler(psi)(_circle(n))
        coeff = np.fft.fft(samples) / n
    keep = n // 2 - 1
    a = coeff[: keep + 1]
    b = np.concatenate([[0.0], coeff[-1 : -(keep + 1) : -1]])
    size_a, size_b = np.abs(a), np.abs(b)
    scale = np.maximum(size_a.max(), size_b.max())
    if not np.isfinite(scale):  # a bad sample spoils every coefficient
        _refuse_transform(samples, "boundary data psi", psi,
                          lambda k: f"theta = {2.0 * np.pi * k / n}")
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

    def derivatives(self, z):
        dz, db = self.series.derivatives(z)
        pdz, pdb = self.potential.derivatives(z)
        return dz - pdz, db - pdb

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


def laplacian_stencils(z, h: float = 1e-3) -> np.ndarray:
    """The five-point stencils of the points z: shape z.shape + (5,), with
    z + h, z - h, z + ih, z - ih and last z itself.

    Requires h > 0 and 1 - |z| >= 2h at every point, so the stencils stay
    inside the disk; ValueError otherwise.
    """
    z = np.asarray(z, dtype=complex)
    if not h > 0:
        raise ValueError("h must be positive")
    if np.any(1.0 - np.abs(z) < 2.0 * h):
        raise ValueError("stencil too close to the boundary: need 1 - |z| >= 2h")
    return np.stack([z + h, z - h, z + 1j * h, z - 1j * h, z], axis=-1)


def stencil_residual(values, g: Union[str, Callable], z, h: float = 1e-3) -> np.ndarray:
    """|five-point finite-difference Laplacian - g| at each point of z, from a
    map's `values` at `laplacian_stencils(z, h)`; shaped like z."""
    z = np.asarray(z, dtype=complex)
    ref = _sampler(g)(z.ravel())
    values = np.asarray(values).reshape(-1, 5)
    fd = (values[:, :4].sum(axis=1) - 4.0 * values[:, 4]) / (h * h)
    return np.abs(fd - ref).reshape(z.shape)


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
    return stencil_residual(m.values(laplacian_stencils(z, h)), g, z, h)


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
    last two shells.  Every ring costs one radial solve of the potential,
    and the shells and the grid come from one `derivatives` call.
    The reported sup is the largest of the interior, shell and extrapolated
    estimates.  The grid (with z = 0) and each shell skip up to 1% failures.
    """
    pot = source if isinstance(source, GreenPotential) else GreenPotential(source, config)
    shell_radii = 1.0 - 2.0 ** (-np.arange(3, 9, dtype=float))
    phi = 2.0 * np.pi * np.arange(192) / 192
    ring = np.exp(1j * phi)

    radii = shell_radii[0] * np.arange(1, 25) / 24
    grid = radii[:, None] * np.exp(1j * 2.0 * np.pi * np.arange(96) / 96)
    shells = shell_radii[:, None] * ring
    pts = np.concatenate([shells.ravel(), [0j], grid.ravel()])
    s = Stretch(*pot.derivatives(pts))
    norms = np.maximum(s.abs_dz, s.abs_dzbar)
    rows = norms[:shells.size].reshape(shells.shape)
    shell_sups = [sup_scan(v, z).value for v, z in zip(rows, shells)]
    interior_sup = sup_scan(norms[shells.size:], pts[shells.size:]).value

    # Shell spacing halves each step, so the last gap equals the distance
    # to the boundary and the linear extrapolation is simply 2 v1 - v0.
    boundary_limit = 2.0 * shell_sups[-1] - shell_sups[-2]

    sup = max(interior_sup, max(shell_sups), boundary_limit)
    return GreenDerivativeSup(
        sup=sup,
        interior_sup=interior_sup,
        boundary_limit=boundary_limit,
        shell_radii=tuple(float(r) for r in shell_radii),
        shell_sups=tuple(shell_sups),
    )

"""Image-curve lengths: circle perimeters, radial lengths, their suprema,
boundary length by polyline extrapolation, and the radial-integral bound
for subharmonic densities.

For a map with jet (f_z, f_zbar), the image of the circle |z| = r has
length integrand r |f_z - e^{-2 i theta} f_zbar| d theta, and the image of
the ray segment [0, r e^{i theta}] has integrand
|f_z + e^{-2 i theta} f_zbar| d rho.

A perimeter is a trapezoid rule, checked against itself at half the nodes
to 1e-6 relative.  Every radial length (`radial_length`, the scan of
`length_sup`, `radial_length_limit`) is one Gauss-Legendre panel rule on
[0, r], r capped at 1 - 1e-6, refined by `quadrature.refine_panels` with
each ray an owner: a ray starts as panels of 32 nodes, its integrand is
both its samples and its mass density, and a panel is split only while
wider than `_RAY_FLOOR` of its ray, into at most `_RAY_PANELS` per ray.  A
ray is converged when no panel of it is left unresolved; log(1 - z) at
theta = 0, whose radial length diverges, is not.  Gauss nodes never land
on r = 0, where a map may have no jet.

Both integrands read only the partials, so a perimeter or a ray takes
`derivatives` calls, and several rays or circles are evaluated in one
call (a round), one row per ray panel or circle, each row summed on its
own: a radial supremum scan is one call of 33 x angular_count points
(6,336 at the default grid, each panel's far end included) and one for
its 8 refinement rays, plus one per round of splits.  A point's partials
do not depend on the other points of a call, for every map here, so this
gives the same bytes as one call per ray.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .bounds import BoundReport
from .expr import ExprAst, parse_expr, value_array
from .grids import GridSpec, shell_ladder
from .maps import JetEvaluationError
from .quadrature import gauss, refine_panels

__all__ = [
    "LengthReport",
    "perimeter",
    "radial_length",
    "length_sup",
    "boundary_length",
    "radial_length_limit",
    "radial_integral_profile",
    "subharmonic_radial_check",
]

_RADIAL_CAP = 1.0 - 1e-6
_POLYLINE_SEGMENTS = 4096

# Gauss nodes per ray panel.
_RAY_NODES = 32

# Narrowest ray panel, as a share of its ray: log(1 - z) at theta = 0 would
# need ~2e-6 beside the cap.
_RAY_FLOOR = 2.0**-16

# Most panels of one ray: 2,112 jets.
_RAY_PANELS = 64


@dataclass(frozen=True)
class LengthReport:
    """A length quadrature result.

    kind is "perimeter", "radial", or "boundary"; theta is set only for
    radial reports.  node_count is the number of jets the value took (for a
    boundary, the segments of each polyline).  converged means, for a
    perimeter or a boundary, that doubling the node count (the last
    extrapolation step) moved the value by at most 1e-6 relative (the
    reported value is the finer one); for a radial report, that every Gauss
    panel of the ray resolves its integrand to roundoff.
    """

    kind: str
    radius: float
    theta: Optional[float]
    value: float
    node_count: int
    converged: bool

    def __post_init__(self):
        if self.kind not in ("perimeter", "radial", "boundary"):
            raise ValueError(f"unknown length kind {self.kind!r}")
        if self.value < 0.0:
            raise ValueError("length must be nonnegative")


def _circle_integrands(m, radii, nodes: int) -> np.ndarray:
    """Length integrands r |f_z - e^{-2 i theta} f_zbar| on the circles
    |z| = r, r in radii, at `nodes` uniform angles each.

    One derivatives call on a (circles, nodes) array, one row per circle; a
    circle with a non-finite jet raises JetEvaluationError, the first in
    order.
    """
    radii = np.asarray(radii, dtype=float)
    theta = 2.0 * np.pi * np.arange(nodes) / nodes
    dz, db = m.derivatives(radii[:, None] * np.exp(1j * theta))
    integrand = radii[:, None] * np.abs(dz - np.exp(-2j * theta) * db)
    for r, row in zip(radii.tolist(), integrand):
        if not np.all(np.isfinite(row)):
            raise JetEvaluationError(f"jet evaluation failed on the circle |z| = {r}")
    return integrand


def _trapezoid(integrand: np.ndarray) -> List[float]:
    """Trapezoid lengths (uniform Riemann sums), one per contiguous row."""
    return [float(row.mean() * 2.0 * np.pi) for row in integrand]


def perimeter(m, r: float, nodes: int = 512) -> LengthReport:
    """Length of the image of |z| = r, by trapezoid quadrature at 2 nodes
    angles, checked against the rule on its even-indexed samples (the
    `nodes` angles bit for bit), all from one derivatives call."""
    if not 0.0 < r < 1.0:
        raise ValueError("r must lie in (0, 1)")
    if nodes < 8:
        raise ValueError("nodes must be >= 8")
    integrand = _circle_integrands(m, [r], 2 * nodes)
    # A contiguous copy sums in the order of an n-node row.
    [coarse] = _trapezoid(np.ascontiguousarray(integrand[:, ::2]))
    [fine] = _trapezoid(integrand)
    converged = abs(fine - coarse) <= 1e-6 * max(abs(fine), 1e-300)
    return LengthReport(kind="perimeter", radius=r, theta=None, value=fine,
                        node_count=2 * nodes, converged=converged)


def _ray_integrands(m, thetas, lo, hi, q: int) -> np.ndarray:
    """Length integrands |f_z + e^{-2 i theta} f_zbar| at the q Gauss nodes of
    the ray panels [lo, hi] at the angles thetas, (panels, q), from one
    derivatives call that also takes each far end hi: a non-finite value at
    a node or there (a pole on a panel edge) raises JetEvaluationError naming
    its ray, the first in order."""
    rho = np.concatenate([gauss(lo, hi, q)[0], hi[:, None]], axis=1)
    dz, db = m.derivatives(rho * np.exp(1j * thetas)[:, None])
    integrand = np.abs(dz + np.exp(-2j * thetas)[:, None] * db)
    bad = ~np.isfinite(integrand).all(axis=1)
    if bad.any():
        raise JetEvaluationError(
            f"jet evaluation failed on the ray theta = {float(thetas[np.argmax(bad)])}")
    return integrand[:, :q]


def _ray_lengths(m, radii, thetas, nodes: int = _RAY_NODES):
    """(lengths, converged flags, jets used) of the images of the segments
    [0, min(r, 1 - 1e-6) e^{i theta}], one per pair of the broadcast 1-D
    radii and thetas (see the module docstring).  Each ray starts as
    nodes // 32 uniform panels of 32 nodes (one panel of `nodes` below 32);
    each round of splits is one derivatives call, rays in order.
    """
    upper, thetas = np.broadcast_arrays(np.minimum(np.asarray(radii, dtype=float), _RADIAL_CAP),
                                        np.asarray(thetas, dtype=float))
    q = min(nodes, _RAY_NODES)
    start = nodes // q
    ray = np.repeat(np.arange(upper.size), start)
    share = np.tile(np.arange(start), upper.size)
    ray, _, _, _, mass, unresolved = refine_panels(
        lambda ray, lo, hi: _ray_integrands(m, thetas[ray], lo, hi, q),
        ray, upper[ray] * share / start, upper[ray] * (share + 1) / start,
        lambda lo, hi, ray, depth: hi - lo > _RAY_FLOOR * upper[ray], _RAY_PANELS)
    first = np.searchsorted(ray, np.arange(upper.size))  # each ray's first panel
    # A split panel and both its halves were sampled.
    jets = (2 * ray.size - upper.size * start) * (q + 1)
    return (np.add.reduceat(mass, first).tolist(),
            (~np.logical_or.reduceat(unresolved, first)).tolist(), jets)


def radial_length(m, r: float, theta: float, nodes: int = _RAY_NODES) -> LengthReport:
    """Length of the image of the ray segment [0, r e^{i theta}].

    r = 1 is accepted; the upper limit is then capped at 1 - 1e-6 to keep
    all jets strictly interior.  `nodes` is the Gauss node count of the
    starting panels (`_ray_lengths`); node_count is the jets used.
    """
    if not 0.0 < r <= 1.0:
        raise ValueError("r must lie in (0, 1]")
    if nodes < 9:
        raise ValueError("nodes must be >= 9")
    [value], [converged], jets = _ray_lengths(m, r, [theta], nodes)
    return LengthReport(kind="radial", radius=r, theta=float(theta), value=value,
                        node_count=jets, converged=converged)


def length_sup(m, kind: str,
               cfg: Optional[GridSpec] = None) -> Tuple[float, Dict[str, object]]:
    """(supremum estimate, how it was found) for perimeters or radial lengths.

    perimeter: max over the shell ladder r = 1 - 2^{-k} capped at
    cfg.max_radius (a lower estimate of the sup over r < 1, which the
    ladder approaches from below for maps with rectifiable image); each
    rung is the fine rule of perimeter(), without its convergence check.
    The detail lists the rungs and their values.
    radial: max over an angle grid of the radial length at r -> 1, with one
    local refinement round around the argmax; the detail gives its angle
    and whether every ray was converged.

    The ladder is one derivatives call of (rungs) x 2 max(angular_count,
    256) points; the radial scan's calls are in the module docstring.
    """
    cfg = cfg or GridSpec()
    if kind == "perimeter":
        radii = shell_ladder(cfg.max_radius)
        values = _trapezoid(_circle_integrands(m, radii, 2 * max(cfg.angular_count, 256)))
        diffs = np.diff(values)
        monotone = bool(np.all(diffs >= -1e-9 * np.maximum(1.0, np.abs(values[:-1]))))
        note = ("ladder supremum up to max_radius; a lower estimate of the "
                "full supremum over r < 1")
        if not monotone:
            note += "; ladder values are not monotone"
        return max(values), {"radii": [float(r) for r in radii],
                             "values": values, "monotone": monotone, "note": note}
    if kind == "radial":
        thetas = 2.0 * np.pi * np.arange(cfg.angular_count) / cfg.angular_count
        values, converged, _ = _ray_lengths(m, _RADIAL_CAP, thetas)
        best = int(np.argmax(values))
        sup, sup_theta = values[best], float(thetas[best])
        # One local refinement round around the argmax, whose own ray (offset
        # 0) is already evaluated.
        dt = 2.0 * np.pi / cfg.angular_count / 4.0
        local = [float(thetas[best] + j * dt) for j in (-4, -3, -2, -1, 1, 2, 3, 4)]
        local_values, local_converged, _ = _ray_lengths(m, _RADIAL_CAP, local)
        for t, v in zip(local, local_values):
            if v > sup:
                sup, sup_theta = v, t
        return sup, {"theta": sup_theta, "converged": all(converged + local_converged),
                     "note": "angle-grid supremum of the radial length at r -> 1"}
    raise ValueError("kind must be 'perimeter' or 'radial'")


def boundary_length(m) -> LengthReport:
    """Boundary image length by inscribed polylines with extrapolation.

    4096-segment polyline lengths are computed at r = 1 - 2^{-k} for
    k = 8..11, all four from one values call; since the last gap (2^{-11})
    equals the remaining distance to the boundary, the linear extrapolation
    2 L_last - L_prev cancels the leading error term for lengths with a C^1
    radial profile.  converged reflects the last two extrapolations
    agreeing to 1e-6 relative.
    """
    radii = [1.0 - 0.5**k for k in (8, 9, 10, 11)]
    theta = 2.0 * np.pi * np.arange(_POLYLINE_SEGMENTS + 1) / _POLYLINE_SEGMENTS
    vals = m.values(np.asarray(radii)[:, None] * np.exp(1j * theta))
    lengths = []
    for r, row in zip(radii, vals):
        if not np.all(np.isfinite(row)):
            raise JetEvaluationError(f"map evaluation failed on the circle |z| = {r}")
        lengths.append(float(np.sum(np.abs(np.diff(row)))))
    value = 2.0 * lengths[-1] - lengths[-2]
    previous = 2.0 * lengths[-2] - lengths[-3]
    converged = abs(value - previous) <= 1e-6 * max(abs(value), 1e-300)
    return LengthReport(kind="boundary", radius=radii[-1], theta=None,
                        value=value, node_count=_POLYLINE_SEGMENTS, converged=converged)


def radial_length_limit(m, theta: float) -> Tuple[float, bool]:
    """(extrapolated limit of the radial length as r -> 1, converged).

    Evaluates at r = 1 - 4e-6 and 1 - 2e-6 (`_ray_lengths`, one derivatives
    call per round) and extrapolates linearly (again the gap equals the
    distance to the boundary).  Exact for maps whose radial length is
    linear in r near the boundary, e.g. f = c z.  converged holds when both
    rays are converged; log(1 - z) at theta = 0, whose radial length
    diverges, gives a finite value that is not.
    """
    (v0, v1), converged, _ = _ray_lengths(m, [1.0 - 4e-6, 1.0 - 2e-6], [theta])
    return 2.0 * v1 - v0, all(converged)


def radial_integral_profile(
    phi: Union[str, ExprAst], cfg: Optional[GridSpec] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """(radii, A) with A(r) = sup_theta integral_0^r phi(rho e^{i theta}) d rho.

    phi must evaluate real on the disk.  The radial prefix integrals are
    computed by cumulative composite Simpson on a doubled radial grid
    (2 * radial_count + 1 nodes), giving prefix values at the radial_count
    ladder radii with h^4 accuracy; trapezoid prefixes would lose more
    accuracy than the conclusion margin near r = 1 leaves to spare.
    """
    cfg = cfg or GridSpec()
    ast = parse_expr(phi) if isinstance(phi, str) else phi
    n = 2 * cfg.radial_count + 1
    rho = np.linspace(0.0, cfg.max_radius, n)
    theta = 2.0 * np.pi * np.arange(cfg.angular_count) / cfg.angular_count
    pts = rho[:, None] * np.exp(1j * theta)[None, :]
    vals = value_array(ast, pts)
    if not np.all(np.isfinite(vals)):
        raise ValueError("phi failed to evaluate on the grid")
    if np.max(np.abs(vals.imag)) > 1e-12 * (1.0 + np.max(np.abs(vals.real))):
        raise ValueError("phi must be real-valued on the disk")
    f = vals.real
    h = cfg.max_radius / (n - 1)
    # Cumulative Simpson over consecutive node pairs: prefix integrals at
    # every even index, i.e. at the radial_count ladder radii.
    pair = (f[0:-2:2] + 4.0 * f[1:-1:2] + f[2::2]) * (h / 3.0)
    prefix = np.cumsum(pair, axis=0)
    sups = prefix.max(axis=1)
    radii = rho[2::2]
    return radii, sups


def subharmonic_radial_check(
    phi: Union[str, ExprAst], cfg: Optional[GridSpec] = None
) -> BoundReport:
    """Check A(r) <= r on the ladder, under the hypothesis A(r) <= 1.

    A is the angular sup of radial prefix integrals of phi (see
    radial_integral_profile); subharmonicity of phi is an input assertion,
    not verified.  The hypothesis is checked at the outermost ladder
    radius; if it fails, the report is indeterminate with lhs = A(max)
    against rhs = 1.  Otherwise the report carries the worst conclusion
    margin r - A(r), with the witness radius as index.
    """
    cfg = cfg or GridSpec()
    radii, sups = radial_integral_profile(phi, cfg)
    if sups[-1] > 1.0 + 1e-9:
        return BoundReport.evaluated("radial-subharmonic", float(radii[-1]),
                                     float(sups[-1]), 1.0, undecided=True)
    margins = radii - sups
    idx = int(np.argmin(margins))
    return BoundReport.evaluated("radial-subharmonic", float(radii[idx]),
                                 float(sups[idx]), float(radii[idx]))

"""Green potentials, Poisson extensions, and the disk Poisson solver."""

import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from diskmaps import (
    GreenPotential,
    GridScanError,
    JetEvaluationError,
    QuadratureConfig,
    QuadratureError,
    SeriesMap,
    green_derivative_sup,
    laplacian_residual,
    poisson_extension,
    solve_poisson,
)
from diskmaps.catalog import EXAMPLE15_LAPLACIAN
from diskmaps.expr import parse_expr, value_array
from diskmaps.grids import sup_scan
from diskmaps.potential import (_CHECK_ANGLES, _MAX_SPLITS, _ROUNDOFF, _chop_length,
                                _grid_operators, _lagrange, _panel_block, _panel_nodes,
                                _spectral_tables, poisson_coefficients)


def test_constant_source_matches_closed_form(quad_fast, rng):
    # Laplacian((|z|^2 - 1)/4) = 1 with zero boundary values, so G[1] is
    # exactly that profile.
    m = solve_poisson("0", "1", config=quad_fast)
    pts = 0.9 * np.sqrt(rng.uniform(0, 1, 40)) * np.exp(2j * np.pi * rng.uniform(0, 1, 40))
    ref = (np.abs(pts) ** 2 - 1.0) / 4.0
    assert np.max(np.abs(m.values(pts) - ref)) < 1e-5


def test_harmonic_extension_reproduces_re_z(quad_fast, rng):
    ext = poisson_extension("re(z)", quad_fast)
    pts = 0.95 * rng.uniform(0, 1, 30) * np.exp(2j * np.pi * rng.uniform(0, 1, 30))
    assert np.max(np.abs(ext.values(pts) - pts.real)) < 1e-12
    # The Laplace problem is the harmonic extension itself.
    laplace = solve_poisson("re(z)", None, config=quad_fast)
    assert isinstance(laplace, SeriesMap)
    assert np.array_equal(laplace.values(pts), ext.values(pts))


def test_poisson_map_jets_match_finite_differences(quad_fast):
    from diskmaps import finite_difference_jet

    m = solve_poisson("re(z)", "abs(z)^2", config=quad_fast)
    for z in (0.2 + 0.1j, -0.4 + 0.3j, 0.55j):
        jet = m.jet(z)
        fd = finite_difference_jet(m.value, z, h=1e-5)
        assert abs(jet.dz - fd.dz) < 2e-5
        assert abs(jet.dzbar - fd.dzbar) < 2e-5


def test_solution_residual_matches_source(quad_fast, rng):
    m = solve_poisson("0", "z", config=quad_fast)
    pts = 0.6 * np.sqrt(rng.uniform(0, 1, 10)) * np.exp(2j * np.pi * rng.uniform(0, 1, 10))
    for z in pts:
        assert laplacian_residual(m, "z", complex(z), h=1e-3) < 1e-4


def test_residual_guards_boundary_and_step(quad_fast):
    m = solve_poisson("0", "1", config=quad_fast)
    with pytest.raises(ValueError):
        laplacian_residual(m, "1", 0.999, h=1e-3)
    with pytest.raises(ValueError):
        laplacian_residual(m, "1", 0.0, h=0.0)
    with pytest.raises(ValueError, match="h must be positive"):
        laplacian_residual(m, "1", 0.0, h=float("nan"))


def test_residuals_of_an_array_equal_per_point_calls(quad_fast, rng):
    m = solve_poisson("z + 0.1*conj(z)^2", "exp(re(z))", config=quad_fast)
    pts = 0.9 * np.sqrt(rng.uniform(0, 1, 12)) * np.exp(2j * np.pi * rng.uniform(0, 1, 12))
    together = laplacian_residual(m, "exp(re(z))", pts.reshape(3, 4), h=1e-3)
    assert together.shape == (3, 4)
    alone = [laplacian_residual(m, "exp(re(z))", z, h=1e-3) for z in pts]
    assert np.array_equal(together.ravel(), alone)
    assert np.all(together < 1e-4)
    # One stencil within 2h of the circle refuses the whole array.
    with pytest.raises(ValueError, match="too close to the boundary"):
        laplacian_residual(m, "exp(re(z))", np.append(pts, 0.9985j), h=1e-3)


def test_quadrature_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(radial_nodes=0)
    with pytest.raises(ValueError):
        QuadratureConfig(angular_nodes=-4)
    with pytest.raises(ValueError):
        QuadratureConfig(boundary_nodes=4)
    with pytest.raises(ValueError):
        QuadratureConfig(angular_nodes=9)  # FFT size must be even
    doubled = QuadratureConfig(radial_nodes=64).doubled()
    assert doubled.radial_nodes == 128


def test_green_potential_scalar_and_array_paths_agree(quad_fast):
    pot = GreenPotential("re(z)", quad_fast)
    pts = np.array([0.1 + 0.2j, -0.3j, 0.45])
    vals = pot.values(pts)
    for z, v in zip(pts, vals):
        assert abs(pot.value(complex(z)) - v) < 1e-13


def test_green_potential_order_one_returns_jet(quad_fast):
    z = 0.3 + 0.1j
    jet = GreenPotential("1", quad_fast).jet(z)
    # The positive-kernel potential of a unit source is (1 - |z|^2)/4,
    # so dz = -conj(z)/4 and dzbar = -z/4.
    assert abs(jet.value - (1.0 - abs(z) ** 2) / 4.0) < 1e-5
    assert abs(jet.dz + z.conjugate() / 4.0) < 1e-5
    assert abs(jet.dzbar + z / 4.0) < 1e-5


def test_sources_are_dsl_strings_or_array_callables(quad_fast):
    pts = np.array([0.1 + 0.2j, -0.3j, 0.45])
    text = GreenPotential("abs(z)^2 + re(z)", quad_fast)
    array = GreenPotential(lambda w: np.abs(w) ** 2 + np.real(w), quad_fast)
    assert np.max(np.abs(text.values(pts) - array.values(pts))) < 1e-15
    for other in (1.0, poisson_extension("z", quad_fast)):
        with pytest.raises(TypeError):
            GreenPotential(other)
        with pytest.raises(TypeError):
            solve_poisson(other)


def test_source_grid_sup_on_polynomial_source(quad_fast):
    # sup over the closed disk of |24 z - 80 z^4 conj(z)^3| is attained on
    # the boundary where the moduli add along theta = pi: 24 + 80 at r = 1
    # minus cross terms; the radial profile 24 r + 80 r^7 peaks at 104, and
    # the true sup with signs is 56 at z = 1 (24 - 80 flips sign; the max of
    # |24 z - 80 z^4 conj(z)^3| = |z| |24 - 80 z^3 conj(z)^3| = r |24 - 80 r^6|
    # on r in [0, 1] is 56).
    pot = GreenPotential("24*z - 80*z^4*conj(z)^3", quad_fast)
    assert pot.source_grid_sup() == pytest.approx(56.0, abs=1e-3)


def test_self_check_flags_inconsistent_quadrature(quad_fast):
    pot = GreenPotential("1", quad_fast)
    pot.self_check()  # smooth source: doubling the nodes must agree
    coarse = QuadratureConfig(radial_nodes=8, angular_nodes=8, boundary_nodes=16)
    rough = GreenPotential("exp(4*re(z)) * im(z)", coarse)
    with pytest.raises(QuadratureError):
        rough.self_check(tolerance=1e-12)
    # The doubled rule of a doubled rule: 16 panels against 32.
    GreenPotential("abs(z)^2 + re(z)", QuadratureConfig().doubled()).self_check()


def test_derivative_sup_reports_interior_and_boundary(quad_fast):
    est = green_derivative_sup("1", config=quad_fast)
    # |dG/dz| = |conj(z)|/4 <= 1/4, attained in the boundary limit.
    assert est.sup == pytest.approx(0.25, abs=1e-5)
    assert est.boundary_limit == pytest.approx(0.25, abs=1e-5)
    assert est.interior_sup <= est.sup + 1e-12
    assert len(est.shell_radii) == len(est.shell_sups) == 6


def test_derivative_sup_is_one_derivatives_call(quad_fast):
    pot = GreenPotential("abs(z)^2 + 0.3*re(z)", quad_fast)
    with mock.patch.object(pot, "derivatives", wraps=pot.derivatives) as derivatives, \
            mock.patch.object(pot, "jets", wraps=pot.jets) as jets:
        est = green_derivative_sup(pot)
    # Six 192-point shells, the origin and the 24 x 96 interior grid.
    assert [np.size(call.args[0]) for call in derivatives.call_args_list] == [
        6 * 192 + 1 + 24 * 96]
    assert not jets.called
    ring = np.exp(2j * np.pi * np.arange(192) / 192)
    for r, sup in zip(est.shell_radii, est.shell_sups):
        _, dz, db = pot.jets(r * ring)
        assert sup == np.maximum(np.abs(dz), np.abs(db)).max()


def test_derivative_sup_skips_a_nan_derivative(quad_fast):
    # One nan derivative on the grid, or on a shell, is skipped: a plain
    # max would make that sup, and the grid's the reported sup, nan.
    pot = GreenPotential("abs(z)^2 + 0.3*re(z)", quad_fast)
    clean = green_derivative_sup(pot)
    for index in (6 * 192 + 500, 3 * 192 + 7):
        def derivatives(z, index=index):
            dz, db = GreenPotential.derivatives(pot, z)
            dz[index] = np.nan
            return dz, db

        with mock.patch.object(pot, "derivatives", side_effect=derivatives):
            est = green_derivative_sup(pot)
        assert np.isfinite([est.sup, est.interior_sup, *est.shell_sups]).all()
        assert est.sup == clean.sup


def test_source_sup_is_infinite_once_a_sample_fails():
    # 0*log(abs(z) - re(z)) is nan on the ray theta = 0 (129 of the 33,024
    # samples), and 1/(z - 1) infinite at the sample z = 1: a sup that
    # skipped either bounds nothing.
    assert GreenPotential("1 + 0*log(abs(z) - re(z))").source_grid_sup() == math.inf
    assert GreenPotential("1/(z-1)").source_grid_sup() == math.inf
    assert GreenPotential("1 + 0.5*re(z)").source_grid_sup() == 1.5


# --- closed-form oracles ------------------------------------------------------

# Panel edges of the default rule (8 panels) and their neighbours, and
# 1e-4, where the log kernel's singularity sits just below a split panel.
ORACLE_RADII = (0.0, 1e-8, 1e-4, 1.0 / 16, 0.125, 0.5 - 1e-12, 0.5, 0.875,
                1.0 - 1e-6, 1.0 - 1e-9)
ORACLE_POINTS = np.array([r * np.exp(1j * t) for r in ORACLE_RADII
                          for t in (0.0, 0.9, -2.3)])


def _assert_jets_close(jets, value, dz, dzbar, tol=1e-13):
    for got, want in zip(jets, (value, dz, dzbar)):
        assert np.max(np.abs(got - want)) <= tol


@pytest.mark.parametrize("p", range(5))
def test_green_of_radial_powers_matches_closed_form(p):
    # G[|z|^p] = (1 - r^(p+2)) / (p+2)^2, so d/dr = -r^(p+1)/(p+2) and
    # d/dz = conj(z) r^p d/dr / (2 r).
    pot = GreenPotential("1" if p == 0 else f"abs(z)^{p}")
    z = ORACLE_POINTS
    r = np.abs(z)
    _assert_jets_close(pot.jets(z), (1.0 - r ** (p + 2)) / (p + 2) ** 2,
                       -np.conj(z) * r**p / (2 * (p + 2)), -z * r**p / (2 * (p + 2)))


def test_green_of_re_z_matches_closed_form():
    # G[c re z] = (c/16) (z + conj(z)) (1 - |z|^2).
    c = 0.3
    pot = GreenPotential(f"{c}*re(z)")
    z = ORACLE_POINTS
    zb = np.conj(z)
    _assert_jets_close(pot.jets(z), c * z.real * (1.0 - np.abs(z) ** 2) / 8.0,
                       c / 16.0 * ((1.0 - z * zb) - (z + zb) * zb),
                       c / 16.0 * ((1.0 - z * zb) - (z + zb) * z))


def _green_of_monomial(j, k, z):
    """Jets of G[z^j conj(z)^k] = (z^(j-k) - z^(j+1) conj(z)^(k+1)) / 4(j+1)(k+1),
    with conj(z)^(k-j) in place of z^(j-k) when j < k."""
    zb = np.conj(z)
    c = 4.0 * (j + 1) * (k + 1)
    d = abs(j - k)
    lead = (z if j >= k else zb) ** d
    dlead = d * (z if j >= k else zb) ** max(d - 1, 0)
    return ((lead - z ** (j + 1) * zb ** (k + 1)) / c,
            ((dlead if j > k else 0.0) - (j + 1) * z**j * zb ** (k + 1)) / c,
            ((dlead if j < k else 0.0) - (k + 1) * z ** (j + 1) * zb**k) / c)


MONOMIALS = ((5, 2), (1, 4), (7, 0), (3, 3))


def _scattered_points(n, seed):
    """n points at distinct radii up to 0.995, with 0 and radii in panel 0."""
    rng = np.random.default_rng(seed)
    r = np.concatenate([[0.0, 1e-8, 1e-4, 0.01, 0.06, 0.1, 0.995],
                        rng.uniform(0.0, 0.995, n - 7)])
    return r * np.exp(2j * np.pi * rng.uniform(size=n))


def _monomial_source(j, k):
    return "*".join(f"{base}^{n}" for base, n in (("z", j), ("conj(z)", k)) if n)


@pytest.mark.parametrize("terms", [[jk] for jk in MONOMIALS] + [list(MONOMIALS)],
                         ids=[_monomial_source(*jk) for jk in MONOMIALS] + ["sum"])
def test_green_of_monomial_sources_matches_closed_form(terms):
    # ~200 scattered points in one call: split panels at the source's band.
    z = _scattered_points(200, 14)
    pot = GreenPotential(" + ".join(_monomial_source(j, k) for j, k in terms))
    want = sum(np.array(_green_of_monomial(j, k, z)) for j, k in terms)
    _assert_jets_close(pot.jets(z), *want, tol=1e-14)


def test_green_of_a_band_past_a_quarter_of_the_angles_matches_closed_form():
    # re(z^70) has band K >= 70 >= 256/4 - 1, so its panel grid takes all
    # 256 angles.  s^70 needs panels narrower than 1/8 near the circle.
    z = _scattered_points(200, 14)
    pot = GreenPotential("re((z^35)^2)")
    value, dz, dzbar = (np.array(_green_of_monomial(70, 0, z))
                        + np.array(_green_of_monomial(0, 70, z))) / 2.0
    got = pot.jets(z)
    assert pot._band.size >= 2 * 70 + 1
    assert pot._angles == 256
    assert pot._edges.size - 1 > 8
    assert np.max(np.abs(got[0] - value)) <= 1e-14
    assert np.max(np.abs(got[1] - dz)) <= 1e-14
    assert np.max(np.abs(got[2] - dzbar)) <= 1e-14


def test_green_of_log_source_is_finite_at_the_origin():
    # G[log|z|] = (r^2 - 1)/4 - (r^2/4) log r: -1/4 at z = 0.  The source
    # is singular there, so away from 0 the rule converges more slowly.
    pot = GreenPotential("log(abs(z))")
    assert abs(pot.value(0.0) + 0.25) <= 1e-13
    r = 0.3
    assert abs(pot.value(r) - ((r * r - 1.0) / 4.0 - r * r * np.log(r) / 4.0)) <= 1e-8


def test_green_of_unit_source_is_nonnegative_at_the_boundary():
    assert GreenPotential("1").value(1.0 - 1e-9).real >= 0.0


def test_green_is_nan_outside_the_disk():
    pot = GreenPotential("1")
    for part in pot.jets(np.array([1.0, 1.5j, 0.5])):
        assert np.isnan(part[:2]).all() and np.isfinite(part[2])
    with pytest.raises(ValueError):
        pot.value(1.0)


def test_rings_sample_only_the_panel_grid():
    cfg = QuadratureConfig()
    sampled = []

    def source(w):
        sampled.append(np.size(w))
        return np.abs(w) ** 2 + np.real(w)

    pot = GreenPotential(source, cfg)
    assert sum(sampled) == 0  # construction samples nothing
    ring = 0.6 * np.exp(2j * np.pi * np.arange(1024) / 1024)
    pot.jets(ring)
    # The panel grid once, at the first 64 angles, which its check angles
    # accept; the 16-node panels resolve the source, so none is split.
    assert sum(sampled) == cfg.radial_nodes * (64 + _CHECK_ANGLES.size)
    assert np.array_equal(pot._edges, np.arange(9) / 8) and pot.resolved is True
    # Radii are interpolated from the node solve and sample nothing.
    before = sum(sampled)
    pot.jets(0.3 * ring)
    pot.values(ring[::7])
    pot.jets(_scattered_points(300, 2))
    assert sum(sampled) == before


# --- node solve and interpolation ------------------------------------------------


def _grid_radii():
    """0, every node and inner edge of the default panels, and 1 - 1e-12."""
    edges, nodes = _panel_nodes(128)
    return np.concatenate([[0.0], nodes.ravel(), edges[1:-1], [1.0 - 1e-12]])


@pytest.mark.parametrize("terms", [[jk] for jk in MONOMIALS + ((0, 0), (2, 2))],
                         ids=lambda terms: _monomial_source(*terms[0]) or "1")
def test_interpolation_matches_closed_form_at_nodes_edges_and_ends(terms):
    z = _grid_radii() * np.exp(0.4j)
    pot = GreenPotential(_monomial_source(*terms[0]) or "1")
    want = sum(np.array(_green_of_monomial(j, k, z)) for j, k in terms)
    _assert_jets_close(pot.jets(z), *want, tol=1e-14)


def test_a_node_radius_gets_its_node_values():
    # The barycentric basis is the unit row at a node, so a point at a node
    # radius and angle 0 gets the node solve's values, up to the rounding of
    # radii to 1e-14, which moves them by a few ulps.
    nodes = _panel_nodes(128)[1]
    assert np.array_equal(_lagrange(nodes[3], nodes[3]), np.eye(16))
    pot = GreenPotential("0.3*abs(z)^4 + 1")
    values = pot.values(nodes.ravel())
    want = pot._node_solution()[:, 0, 0, :].ravel()
    assert np.max(np.abs(values - want)) <= 1e-14


@pytest.mark.parametrize("source", ["1", "0.3*abs(z)^8", "-0.6*re(z)", "exp(z*conj(z)+0.3*z)",
                                    "exp(re(z))*im(z) + z", "z + 0.1*conj(z)^2"])
def test_smooth_sources_keep_the_starting_panels(source):
    g, sampled = _counting(source)
    pot = GreenPotential(g)
    pot.jets(_scattered_points(50, 4))
    assert np.array_equal(pot._edges, np.arange(9) / 8) and pot.resolved is True
    assert sum(np.prod(shape) for shape in sampled) == 128 * (pot._angles + _CHECK_ANGLES.size)


def test_a_narrow_source_splits_the_panels_around_it():
    pot = GreenPotential("exp(-400*abs(z-0.06)^2)")
    pot._node_solution()
    widths = np.diff(pot._edges)
    assert pot._edges.size - 1 > 8 and pot.resolved is True
    assert widths.min() <= 1.0 / 32
    # The bump is 1e-40 of its peak past r = 0.6: those panels stay whole.
    assert np.all(widths[pot._edges[:-1] >= 0.625] == 0.125)


def test_a_log_source_refines_toward_zero_and_stops():
    pot = GreenPotential("log(abs(z))")
    pot._node_solution()
    edges = pot._edges
    # Dyadic panels toward 0 until the innermost holds less than eps of the
    # mass, integral |log s| s ds = r^2 (1 - 2 log r) / 4, of the total 1/4,
    # and well before the split limit.
    inner = edges[1]
    assert pot.resolved is True
    assert inner**2 * (1.0 - 2.0 * np.log(inner)) <= np.finfo(float).eps
    assert inner > 0.125 * 2.0 ** -_MAX_SPLITS
    assert np.all(np.diff(edges[1:]) <= edges[1:-1])  # each panel within a factor 2
    # G = (r^2 - 1)/4 - (r^2/4) log r, so d/dz = conj(z) (1/2 - log r)/4.
    # The derivatives err by ~1e-13 only inside the innermost panel.
    r = np.array([0.0, 1e-9, 1e-6, 1e-3, 0.3, 0.9, 1.0 - 1e-12])
    z = r * np.exp(0.3j)
    log_r = np.log(r, where=r > 0, out=np.zeros_like(r))
    value, dz, dzbar = pot.jets(z)
    assert np.max(np.abs(value - ((r * r - 1.0) / 4.0 - r * r * log_r / 4.0))) <= 1e-15
    for got, want in ((dz, np.conj(z) * (0.5 - log_r) / 4.0), (dzbar, z * (0.5 - log_r) / 4.0)):
        assert np.max(np.abs(got - want)[r < inner]) <= 1e-12
        assert np.max(np.abs(got - want)[r >= inner]) <= 1e-15


def test_a_pole_stays_unresolved_and_out_of_the_operator_caches():
    # The pole's angular aliasing splits panels toward 0.5 until
    # _MAX_PANEL_MODES stops it: 64 panels of K = 127, a grid no other
    # source meets, whose operators would fill both caches.
    before = (_grid_operators.cache_info(), _panel_block.cache_info())
    pot = GreenPotential("1/(z-0.5)")
    assert pot.resolved is None
    assert np.isfinite(pot.values(np.array([0.1 + 0.2j, -0.7j]))).all()
    assert pot.resolved is False
    assert (_grid_operators.cache_info(), _panel_block.cache_info()) == before


def test_a_points_jets_do_not_depend_on_the_size_of_its_call():
    # K = 15: a 1,024-point circle multiplies more than 256 KiB of modes and
    # phases, where numpy may reuse a temporary operand and swap the order of
    # a complex product; the even points still get the 512-point circle's bits.
    m = solve_poisson("z + 0.2*z^2", "exp(-abs(z-0.3)^2)",
                      config=QuadratureConfig(angular_nodes=32))
    big = m.jets(0.6 * np.exp(2j * np.pi * np.arange(1024) / 1024))
    small = m.jets(0.6 * np.exp(2j * np.pi * np.arange(512) / 512))
    assert np.abs(m.potential._band).max() == 15
    for b, s in zip(big, small):
        assert np.array_equal(b[::2], s)


# One ulp per angular mode kept by the default rule (255 of them): the
# roundoff allowed when two evaluations sum the same modes differently.
MODE_ROUNDOFF = 255 * np.finfo(float).eps

_disk_points = st.builds(
    lambda r, t: complex(r * np.exp(1j * t)),
    st.floats(0.0, 1.0 - 1e-9), st.floats(-np.pi, np.pi),
)


@given(a=st.floats(0.0, 2.0), b=st.floats(0.0, 2.0), c=st.floats(0.0, 2.0),
       w0=_disk_points, pts=st.lists(_disk_points, min_size=1, max_size=6))
def test_green_of_nonnegative_source_is_nonnegative(a, b, c, w0, pts):
    # Maximum principle: -Laplacian(G) = g >= 0 with G = 0 on the circle.
    g = f"{a!r} + {b!r}*abs(z - ({w0.real!r} + {w0.imag!r}*i))^2 + {c!r}*(1 + re(z))"
    values = GreenPotential(g).values(np.array(pts))
    assert np.all(values.real >= -1e-15)


@given(a=st.floats(-2.0, 2.0), b=st.floats(-2.0, 2.0), z=_disk_points,
       alpha=st.floats(-np.pi, np.pi))
def test_green_of_radial_source_is_rotation_invariant(a, b, z, alpha):
    # |w| of rotated sample points varies in the last bit, which leaks
    # roundoff into the non-radial modes.
    pot = GreenPotential(f"{a!r} + {b!r}*abs(z)^3")
    values = pot.values(np.array([z, z * np.exp(1j * alpha)]))
    assert abs(values[0] - values[1]) <= MODE_ROUNDOFF


@given(pts=st.lists(_disk_points, min_size=1, max_size=8))
def test_green_scalar_jet_equals_array_jets(pts):
    pot = GreenPotential("exp(re(z))*im(z) + z")
    arrays = pot.jets(np.array(pts))
    for i, z in enumerate(pts):
        jet = pot.jet(z)
        for got, want in zip((jet.value, jet.dz, jet.dzbar), arrays):
            assert got == want[i]


# --- chopping to the numerical bandwidth ----------------------------------------


def test_chop_keeps_exact_degree_and_rough_tails():
    rng = np.random.default_rng(3)
    noise = 1e-17 * rng.uniform(size=253)
    assert _chop_length(np.concatenate([[0.7, 1.0, 0.36], noise])) == 3
    # abs(re(z)): even coefficients decaying like n^-2 up to Nyquist.
    a, b = poisson_coefficients("abs(re(z))")
    assert a.size == b.size == 256
    assert _chop_length(np.abs(a)) == 256
    assert _chop_length(np.zeros(256)) == 1
    # Below eps times the scale, a whole sequence is noise.
    assert _chop_length(noise, scale=1.0) == 1


def test_poisson_coefficients_are_cut_to_their_degree():
    a, b = poisson_coefficients("z + (0.3-0.2*i)*z^2 + 0.25*conj(z)")
    assert (a.size, b.size) == (3, 2)
    assert abs(a[1] - 1.0) < 1e-15 and abs(a[2] - (0.3 - 0.2j)) < 1e-15
    assert b[0] == 0.0 and abs(b[1] - 0.25) < 1e-15


@pytest.mark.parametrize("source,band", [("0.3*abs(z)^4", 0), ("0.4*re(z)", 1),
                                         ("abs(re(z))", 127)])
def test_green_moments_keep_the_sources_angular_band(source, band):
    # One column of node values per mode m with |m| <= band.
    assert GreenPotential(source)._node_solution().shape[2] == 2 * band + 1


def _full_band():
    """Patch that turns the chop off, as for data with no plateau."""
    return mock.patch("diskmaps.potential._chop_length",
                      lambda magnitudes, scale=0.0: magnitudes.size)


_SOURCE_TERMS = st.sampled_from(["1", "z", "conj(z)^2", "abs(z)^2", "re(z)^3", "exp(z)",
                                 "z^3*conj(z)", "exp(-30*abs(z - 0.2 - 0.3*i)^2)",
                                 "abs(re(z))", "log(abs(z))"])
_SOURCES = st.lists(st.tuples(st.floats(-2.0, 2.0), _SOURCE_TERMS), min_size=1, max_size=4).map(
    lambda terms: " + ".join(f"({c!r})*{term}" for c, term in terms))


@given(source=_SOURCES, pts=st.lists(_disk_points, min_size=1, max_size=6))
def test_chopped_green_equals_a_full_band_solve(source, pts):
    z = np.array(pts)
    chopped = np.array(GreenPotential(source).jets(z))
    with _full_band():
        full = np.array(GreenPotential(source).jets(z))
    assert np.all(np.abs(chopped - full) <= 1e-15 * np.maximum(1.0, np.abs(full)))


def test_narrow_source_keeps_its_doubled_rule_gap():
    # A bump of width ~0.05 in panel 0: the split panels resolve it, and the
    # chop to its 26 modes loses nothing measurable.
    source = "exp(-400*abs(z-0.06)^2)"
    radii = np.concatenate([np.linspace(0.001, 0.124, 9), np.linspace(0.13, 0.95, 8)])
    z = radii * np.exp(0.7j)
    pot = GreenPotential(source)
    fine = GreenPotential(source, QuadratureConfig().doubled())
    assert pot._node_solution().shape[2] == 2 * 26 + 1
    assert np.max(np.abs(np.array(pot.jets(z)) - np.array(fine.jets(z)))) <= 1e-14


def test_ring_points_get_the_same_jets_alone_and_together():
    # The angular sum of a point does not depend on how many points share
    # its radius.
    solution = solve_poisson("z + 0.2*z^2", "exp(-abs(z-0.3)^2)")
    ring = 0.83 * np.exp(2j * np.pi * np.arange(48) / 48)
    together = solution.jets(ring)
    green = solution.potential.jets(ring)
    for k, z in enumerate(ring):
        alone = solution.jets(np.array([z]))
        assert all(a[0] == t[k] for a, t in zip(alone, together))
        assert tuple(solution.potential.jet(z)) == tuple(t[k] for t in green)


def test_scattered_points_get_the_same_jets_alone_and_together():
    # 300 points at distinct radii share one call; each point's jet is its
    # entry bit for bit.
    solution = solve_poisson("z + 0.2*z^2", "exp(-abs(z-0.3)^2)")
    z = _scattered_points(300, 3)
    together = solution.jets(z)
    for k in range(z.size):
        assert tuple(solution.jet(z[k])) == tuple(t[k] for t in together)


@pytest.mark.parametrize("source", ["0.4*re(z)", "exp(-400*abs(z-0.06)^2)", "log(abs(z))"])
def test_a_call_of_many_radii_equals_calls_of_ten(source):
    # 612 distinct radii span several blocks in one call; each point's jets
    # equal those of calls of ten points, bit for bit.
    z = _scattered_points(612, 5)
    together = np.array(GreenPotential(source).jets(z))
    pot = GreenPotential(source)
    tens = np.concatenate([np.array(pot.jets(z[i:i + 10])) for i in range(0, z.size, 10)], axis=1)
    assert np.isfinite(together).all()
    assert np.array_equal(together, tens)


# --- the panel grid's angles ----------------------------------------------------


def _full_angles():
    """Patch that samples the panel grid at all angular_nodes angles at once."""
    return mock.patch("diskmaps.potential._START_ANGLES", 256)


def _counting(source):
    """An array callable of a DSL source, and the sizes of the arrays it got."""
    sampled = []
    ast = parse_expr(source)

    def g(w):
        sampled.append(np.shape(w))
        return value_array(ast, w)

    return g, sampled


@given(source=_SOURCES, pts=st.lists(_disk_points, min_size=1, max_size=6))
def test_doubled_angles_read_the_band_of_all_angles(source, pts):
    z = np.array(pts)
    pot = GreenPotential(source)
    got = np.array(pot.jets(z))
    with _full_angles():
        full = GreenPotential(source)
        want = np.array(full.jets(z))
    assert np.all(np.abs(got - want) <= 1e-15 * np.maximum(1.0, np.abs(want)))
    # The chop's cut among modes at roundoff follows the FFT size's rounding
    # ((1.0)*exp(z) reads K = 18 at 128 angles and 17 at 256, where
    # |g_18| = 1/18! = 1.6e-16), so the bands may differ only there.
    envelope = _angular_envelope(source)
    differ = np.setxor1d(np.abs(pot._band), np.abs(full._band))
    assert np.all(envelope[differ] <= 2 * _ROUNDOFF * envelope.max())
    # Each grid holds its band: 4(K + 1) <= N, or N is the cap.
    for p in (pot, full):
        assert 4 * (np.abs(p._band).max() + 1) <= p._angles or p._angles == 256


def _angular_envelope(source, nphi=256):
    """max_s max(|g_k(s)|, |g_-k(s)|) per k at the panel nodes, as the band's read."""
    freq, scale, unit = _spectral_tables(nphi)[:3]
    samples = value_array(parse_expr(source), _panel_nodes(128)[1].ravel()[:, None] * unit)
    peak = np.max(np.abs(np.fft.fft(samples, axis=1) * scale), axis=0)
    return np.maximum(peak[:nphi // 2], peak[-np.arange(nphi // 2)])


@pytest.mark.parametrize("source", ["re((z^40)^3)", "1 + 1e-10*re((z^35)^2)", "1 + re(z^64)"])
def test_aliased_modes_double_to_the_full_grid_bit_for_bit(source):
    # Modes +-120 (+-70, +-64) fold onto low modes at 64 and at 128 angles;
    # each grid below the cap is rejected, and the cap's samples are those of
    # a potential sampled at 256 angles only.
    z = _scattered_points(50, 16)
    pot = GreenPotential(source)
    got = pot.jets(z)
    assert pot._angles == 256
    with _full_angles():
        full = GreenPotential(source)
        want = full.jets(z)
    assert np.array_equal(pot._band, full._band)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("source,blind_band", [("1 + 1e-10*re((z^35)^2)", 6),
                                               ("1 + re(z^64)", 0)])
def test_check_angles_reject_what_the_band_rule_accepts(source, blind_band):
    # At 64 angles these read a band with 4(K + 1) <= 64; only the check
    # angles see the folded modes.
    with mock.patch("diskmaps.potential._CHECK_TOL", np.inf):
        blind = GreenPotential(source)
        blind._node_solution()
    assert np.abs(blind._band).max() == blind_band
    pot = GreenPotential(source)
    pot._node_solution()
    assert np.abs(pot._band).max() >= 64


def test_a_band_with_no_plateau_samples_the_full_grid_once():
    # K reads the full length at 64 and 128 angles, so no check angle is
    # sampled, and each doubling samples only the new odd angles.
    cfg = QuadratureConfig()
    g, sampled = _counting("abs(re(z))")
    GreenPotential(g)._node_solution()
    assert sampled == [(cfg.radial_nodes, 64), (cfg.radial_nodes, 64), (cfg.radial_nodes, 128)]
    assert sum(a * b for a, b in sampled) == cfg.radial_nodes * cfg.angular_nodes


def test_a_constant_source_never_samples_all_angles():
    g, sampled = _counting("1")
    pot = GreenPotential(g)
    pot._node_solution()
    assert pot._band.tolist() == [0]
    assert max(shape[-1] for shape in sampled) < pot.config.angular_nodes


# --- the set-up's rewritten pieces, pinned to the plain forms -------------------


def _chop_length_reference(magnitudes, scale=0.0):
    """The chop as first written, with its index tables and np.linspace built
    on every call: `_chop_length` must return the same length."""
    n = magnitudes.size
    envelope = np.maximum.accumulate(magnitudes[::-1])[::-1]
    peak = envelope[0]
    tol = np.finfo(float).eps * max(1.0, scale / peak) if peak > 0.0 else 1.0
    if tol >= 1.0:
        return 1
    if n < 17:
        return n
    envelope = envelope / peak
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
    floor = tol ** (7.0 / 6.0)
    above = int(np.count_nonzero(envelope >= floor))
    if above < j2:
        j2 = above + 1
        envelope[j2 - 1] = floor
    tilted = np.log10(envelope[:j2]) + np.linspace(0.0, -np.log10(tol) / 3.0, j2)
    return max(int(np.argmin(tilted)), 1)


@st.composite
def _magnitudes(draw):
    """Coefficient magnitudes: a head decaying to a noise plateau, algebraic
    decay, or random decades, with exact zeros sprinkled or as a tail."""
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["plateau", "algebraic", "decades"]))
    if kind == "plateau":
        head = draw(st.integers(1, n))
        x = np.abs(rng.normal(size=n)) * 10.0 ** draw(st.floats(-18.0, -13.0))
        x[:head] = 10.0 ** -rng.uniform(0.0, 15.0, head)
    elif kind == "algebraic":
        x = (np.arange(n) + 1.0) ** -draw(st.floats(0.5, 8.0))
    else:
        x = 10.0 ** -rng.uniform(0.0, 20.0, n)
    zeros = draw(st.sampled_from(["none", "scattered", "tail"]))
    if zeros == "scattered":
        x[rng.random(n) < 0.3] = 0.0
    elif zeros == "tail":
        x[draw(st.integers(0, n - 1)):] = 0.0
    return x * 10.0 ** draw(st.floats(-5.0, 5.0))


@given(magnitudes=_magnitudes(), scale=st.sampled_from([0.0, 1.0, 1e3]))
# Algebraic decay that the floor tol^(7/6) clips, cut at the last entry the
# ramp covers, and one with no plateau.
@example(magnitudes=(np.arange(60) + 1.0) ** -7.5, scale=1e3)
@example(magnitudes=(np.arange(300) + 1.0) ** -4.0, scale=1.0)
def test_chop_length_equals_the_plain_chop(magnitudes, scale):
    assert _chop_length(magnitudes.copy(), scale) == _chop_length_reference(magnitudes, scale)


@pytest.mark.parametrize("source", ["0.329*abs(z)^2", "0.4878*abs(z)^4", "0.3685*re(z)",
                                    EXAMPLE15_LAPLACIAN])
def test_a_smooth_build_samples_the_starting_grid_and_the_check_angles(source):
    # 128 radii at 64 angles, and at the 4 check angles: 8,192 + 512 points,
    # on the 8 starting panels.
    g, sampled = _counting(source)
    pot = GreenPotential(g)
    pot.derivatives(np.array([0.3 + 0.2j]))
    assert sampled == [(128, 64), (128, 4)]
    assert pot._edges.size - 1 == 8 and pot.resolved is True


def _whole_grid_source_sup(pot):
    """source_grid_sup as one sample of the whole grid and circle."""
    cfg = pot.config
    unit = _spectral_tables(cfg.angular_nodes)[2]
    pts = np.append(_panel_nodes(cfg.radial_nodes)[1].ravel(), 1.0)[:, None] * unit
    scan = sup_scan(np.abs(pot._g(pts)), pts)
    return math.inf if scan.masked else scan.value


@pytest.mark.parametrize("source,config", [
    (EXAMPLE15_LAPLACIAN, QuadratureConfig()),
    ("exp(-400*abs(z-0.06)^2)", QuadratureConfig()),
    ("exp(-400*abs(z-0.06)^2)", QuadratureConfig(radial_nodes=48, angular_nodes=96)),
    ("0.3*re(z) + abs(z)^3", QuadratureConfig(radial_nodes=16, angular_nodes=5000)),
    ("1/(z-1)", QuadratureConfig()),
    ("1 + 0*log(abs(z) - re(z))", QuadratureConfig()),
])
def test_blocked_source_sup_equals_one_whole_grid_sample(source, config):
    pot = GreenPotential(source, config)
    want = _whole_grid_source_sup(pot)
    assert pot.source_grid_sup() == want
    assert want == math.inf if "z-1" in source or "log" in source else math.isfinite(want)


def test_blocked_source_sup_refuses_a_failing_region_as_one_grid():
    pot = GreenPotential("z + 0*exp(exp(exp(40*re(z))))")
    with pytest.raises(GridScanError) as whole, np.errstate(all="ignore"):
        _whole_grid_source_sup(pot)
    with pytest.raises(GridScanError) as blocked:
        pot.source_grid_sup()
    assert str(blocked.value) == str(whole.value)


@pytest.mark.parametrize("psi", ["1/(z-1)", lambda w: 1.0 / (w - 1.0)])
def test_boundary_data_that_is_not_finite_raises(psi):
    name = "psi = '1/(z-1)'" if isinstance(psi, str) else "psi"
    message = f"boundary data {name} is not finite at theta = 0.0"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no numpy warning leaks
        with pytest.raises(JetEvaluationError, match=re.escape(message)):
            poisson_coefficients(psi)
    with pytest.raises(JetEvaluationError, match=re.escape(message)):
        solve_poisson(psi, "1")
    # The first failing angle: sin(2 pi k / 512) > 1/2 from k = 43 on.
    with pytest.raises(JetEvaluationError, match=re.escape(f"theta = {2.0 * np.pi * 43 / 512}")):
        poisson_coefficients(lambda w: np.where(w.imag > 0.5, np.inf, w))


@pytest.mark.parametrize("bad, message", [
    (1e308, "the Fourier transform of source g overflows"),
    (np.nan, "source g is not finite at w = "),
])
def test_a_source_that_fails_only_on_split_panels_raises(bad, message):
    # The bump splits to 15 panels; this source leaves it as it is at the
    # starting nodes' radii and is bad at every other radius, so only the
    # halves' modes are not finite.  They were solved unchecked, and the
    # overflow leaked numpy's warning.
    start = _panel_nodes(128)[1].ravel()

    def g(w):
        out = np.exp(-400 * np.abs(w - 0.06) ** 2).astype(complex)
        out[np.abs(np.abs(w)[..., None] - start).min(axis=-1) > 1e-12] = bad
        return out

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(JetEvaluationError, match=f"^{re.escape(message)}"):
            GreenPotential(g).values(np.array([0.3]))


def test_a_source_that_is_not_finite_on_the_panel_grid_raises():
    # nan on the ray theta = 0: the first sample is the innermost node there.
    pot = GreenPotential("1 + 0*log(abs(z) - re(z))")
    with pytest.raises(JetEvaluationError) as exc:
        pot.values(np.array([0.5]))
    w = _panel_nodes(128)[1][0, 0]
    assert str(exc.value) == (f"source g = '1 + 0*log(abs(z) - re(z))' is not finite "
                              f"at w = {w * _spectral_tables(64)[2][0]}")
    with pytest.raises(JetEvaluationError, match=r"^source g is not finite at w = "):
        GreenPotential(lambda w: np.where(np.abs(w) > 0.9, np.nan, 1.0)).values(np.array([0.1]))

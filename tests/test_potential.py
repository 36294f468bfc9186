"""Green potentials, Poisson extensions, and the disk Poisson solver."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diskmaps import (
    GreenPotential,
    QuadratureConfig,
    QuadratureError,
    SeriesMap,
    green_derivative_sup,
    laplacian_residual,
    poisson_extension,
    solve_poisson,
)
from diskmaps.potential import _SOLVED_RADII


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


def test_ring_jets_cost_one_radial_solve():
    cfg = QuadratureConfig()
    split = 2 * 16 * cfg.angular_nodes
    sampled = []

    def source(w):
        sampled.append(np.size(w))
        return np.abs(w) ** 2 + np.real(w)

    pot = GreenPotential(source, cfg)
    assert sum(sampled) == 0  # construction samples nothing
    ring = 0.6 * np.exp(2j * np.pi * np.arange(1024) / 1024)
    pot.jets(ring)
    # The panel grid once, then one split panel per radius.
    assert sum(sampled) == cfg.radial_nodes * cfg.angular_nodes + split
    before = sum(sampled)
    pot.jets(0.3 * ring)
    assert sum(sampled) == before + split
    # A radius visited again reuses its modes.
    before = sum(sampled)
    pot.values(ring[::7])
    assert sum(sampled) == before


def test_kept_radial_solves_are_bounded():
    sampled = []

    def source(w):
        sampled.append(np.size(w))
        return np.ones(np.shape(w), dtype=complex)

    pot = GreenPotential(source, QuadratureConfig(radial_nodes=8, angular_nodes=8))
    radii = np.linspace(0.0, 0.9, _SOLVED_RADII + 88)
    pot.values(radii)
    before = sum(sampled)
    pot.values(radii[-_SOLVED_RADII:])  # the most recent solves are kept ...
    assert sum(sampled) == before
    pot.values(radii[:1])  # ... and the oldest were dropped
    assert sum(sampled) > before


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
            assert abs(got - want[i]) <= MODE_ROUNDOFF

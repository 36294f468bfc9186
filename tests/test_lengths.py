"""Image lengths of circles and rays, and radial-integral conclusions."""

import numpy as np
import pytest

from diskmaps import (
    GridSpec,
    LengthReport,
    SeriesMap,
    boundary_length,
    length_sup,
    perimeter,
    radial_integral_profile,
    radial_length,
    radial_length_limit,
    subharmonic_radial_check,
)


def test_perimeter_identity_circles():
    for r in (0.25, 0.5, 0.9):
        rep = perimeter(SeriesMap([0, 1]), r)
        assert rep.value == pytest.approx(2 * np.pi * r, rel=1e-12)
        assert rep.converged
        assert rep.kind == "perimeter"


def test_perimeter_of_square_map():
    # f = z^2 doubles the winding: the image of |z| = r is the circle
    # |w| = r^2 traversed twice, so its length is 4 pi r^2.
    rep = perimeter(SeriesMap([0, 0, 1]), 0.7)
    assert rep.value == pytest.approx(4 * np.pi * 0.49, rel=1e-10)


def test_radial_length_of_linear_map():
    m = SeriesMap([0, 3.0 - 4.0j])  # |c| = 5
    rep = radial_length(m, 0.8, theta=0.3)
    assert rep.value == pytest.approx(5 * 0.8, rel=1e-9)
    assert rep.theta == pytest.approx(0.3)
    limit = radial_length_limit(m, theta=1.1)
    assert limit == pytest.approx(5.0, rel=1e-9)


def test_length_argument_validation():
    m = SeriesMap([0, 1])
    with pytest.raises(ValueError):
        perimeter(m, 1.0)
    with pytest.raises(ValueError):
        perimeter(m, 0.5, nodes=4)
    with pytest.raises(ValueError):
        radial_length(m, 1.5, theta=0.0)
    with pytest.raises(ValueError):
        LengthReport(kind="diagonal", radius=0.5, theta=None, value=1.0,
                     node_count=8, converged=True)
    with pytest.raises(ValueError):
        length_sup(m, "girth")


def test_boundary_length_identity_converges_to_2pi():
    rep = boundary_length(SeriesMap([0, 1]))
    assert rep.kind == "boundary"
    assert rep.converged
    assert rep.value == pytest.approx(2 * np.pi, rel=1e-7)


def test_length_sup_kinds(quad_fast):
    cfg = GridSpec(radial_count=48, angular_count=96, max_radius=1 - 1e-4)
    m = SeriesMap([0, 2.0])
    value, detail = length_sup(m, "perimeter", cfg)
    assert value == pytest.approx(2 * np.pi * 2.0 * cfg.max_radius, rel=1e-9)
    assert detail["radii"][-1] == cfg.max_radius and detail["monotone"]
    assert max(detail["values"]) == value
    value, detail = length_sup(m, "radial", cfg)
    assert value == pytest.approx(2.0, rel=1e-4)
    assert isinstance(detail["theta"], float)


def test_radial_profile_is_exact_for_power_integrands():
    # integral_0^r (p+1) rho^p d rho = r^{p+1}; Simpson is exact through
    # cubics and h^4-accurate above.
    for p in (1, 2, 3):
        radii, sups = radial_integral_profile(f"{p + 1} * abs(z)^{p}")
        assert np.max(np.abs(sups - radii ** (p + 1))) < 1e-9


def test_radial_profile_rejects_complex_integrands():
    with pytest.raises(ValueError):
        radial_integral_profile("i * abs(z)")


def test_subharmonic_check_unit_integrand_has_zero_margin():
    # phi = 1 integrates to exactly r, so the conclusion margin vanishes
    # at every ladder radius.
    rep = subharmonic_radial_check("1")
    assert rep.inequality_id == "radial-subharmonic"
    assert rep.status == "holds"
    assert rep.margin == pytest.approx(0.0, abs=1e-12)


def test_subharmonic_check_flags_failed_hypothesis():
    # phi = 1.2 gives A(r) = 1.2 r: the hypothesis A <= 1 fails at the
    # outer radius, so no conclusion is drawn.
    rep = subharmonic_radial_check("1.2")
    assert rep.status == "indeterminate"
    assert rep.rhs == 1.0
    assert rep.lhs > 1.0


def test_subharmonic_check_strict_integrand_passes_with_slack():
    rep = subharmonic_radial_check("abs(z)")  # A(r) = r^2 / 2 <= r
    assert rep.status == "holds"
    # r - r^2/2 is increasing on (0, 1), so the witness is the innermost
    # ladder radius and the margin there is roughly that radius itself.
    assert 0.0 < rep.margin < 0.02
    assert rep.lhs == pytest.approx(rep.index ** 2 / 2, rel=1e-6)


def test_perimeter_polyline_agrees_with_quadrature():
    # Independent check of the circle-image length: inscribed polyline on
    # the image of |z| = r under a shear.
    m = SeriesMap([0, 1], [0, 0.3])
    r = 0.6
    theta = 2.0 * np.pi * np.arange(8192) / 8192
    pts = r * np.exp(1j * theta)
    vals = m.values(pts)
    poly = float(np.abs(np.diff(np.append(vals, vals[0]))).sum())
    assert perimeter(m, r).value == pytest.approx(poly, rel=1e-6)

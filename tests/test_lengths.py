"""Image lengths of circles and rays, and radial-integral conclusions."""

import numpy as np
import pytest

from diskmaps import (
    CallableMap,
    DslMap,
    GridSpec,
    JetEvaluationError,
    LengthReport,
    QuadratureConfig,
    SeriesMap,
    boundary_length,
    length_sup,
    perimeter,
    radial_integral_profile,
    radial_length,
    radial_length_limit,
    shell_ladder,
    solve_poisson,
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


# The scans evaluate every ray (circle) of a scan in one jets call; these
# loops are the same quadratures with one jets call per ray (circle).
SCAN_GRID = GridSpec(radial_count=12, angular_count=16)


def _loop_radial_sup(m, cfg):
    nodes = 2 * cfg.radial_count + 1
    w = np.ones(nodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    upper = 1.0 - 1e-6

    def ray(theta):
        rho = np.linspace(0.0, upper, nodes)
        _, dz, db = m.jets(rho * complex(np.exp(1j * theta)))
        f = np.abs(dz + np.exp(-2j * theta) * db)
        if not np.isfinite(f[0]):
            f[0] = f[1]  # the endpoint rule for maps singular at 0
        return float((w @ f) * (upper / (nodes - 1)) / 3.0)

    thetas = 2.0 * np.pi * np.arange(cfg.angular_count) / cfg.angular_count
    values = [ray(float(t)) for t in thetas]
    best = int(np.argmax(values))
    sup, sup_theta = values[best], float(thetas[best])
    dt = 2.0 * np.pi / cfg.angular_count / 4.0
    for j in range(-4, 5):
        t = float(thetas[best] + j * dt)
        v = ray(t)
        if v > sup:
            sup, sup_theta = v, t
    return sup, sup_theta


def _loop_perimeters(m, cfg):
    nodes = 2 * max(cfg.angular_count, 256)
    theta = 2.0 * np.pi * np.arange(nodes) / nodes
    values = []
    for r in shell_ladder(cfg.max_radius):
        r = float(r)
        _, dz, db = m.jets(r * np.exp(1j * theta))
        values.append(float((r * np.abs(dz - np.exp(-2j * theta) * db)).mean() * 2.0 * np.pi))
    return values


def _scan_maps():
    small = QuadratureConfig(radial_nodes=32, angular_nodes=32, boundary_nodes=64)
    return {
        "dsl": DslMap("z + 0.3*conj(z)^2 + 0.1*z*abs(z)^2"),
        "series": SeriesMap([0, 1, 0, 0.1], [0, 0, 0.25]),
        "callable": CallableMap(lambda z: z + 0.2 * z.conjugate() ** 2),
        "poisson": solve_poisson("z + 0.2*z^2", "exp(-abs(z-0.3)^2)", small),
    }


@pytest.mark.parametrize("name", ["dsl", "series", "callable", "poisson", "example13"])
def test_batched_scans_equal_one_call_per_ray(name, example13_quarter):
    m = example13_quarter if name == "example13" else _scan_maps()[name]
    values = _loop_perimeters(m, SCAN_GRID)
    sup, detail = length_sup(m, "perimeter", SCAN_GRID)
    assert detail["values"] == values and sup == max(values)
    sup, detail = length_sup(m, "radial", SCAN_GRID)
    expected, theta = _loop_radial_sup(m, SCAN_GRID)
    assert sup == expected
    assert detail["theta"] == theta


def test_batched_scans_name_the_first_failing_ray_and_circle():
    # Overflows near the boundary in the directions within 0.26 of 1.4:
    # rays 3 and 4 of 16 fail, and the scan names ray 3.
    sector = DslMap("z + 0*exp(exp(exp(100*(re(z*exp(-1.4*i)) - 0.9))))")
    with np.errstate(all="ignore"), \
            pytest.raises(JetEvaluationError, match=r"ray theta = 1\.1780972450961724$"):
        length_sup(sector, "radial", SCAN_GRID)
    # Poles at 0.75 and 0.875 lie on rungs 2 and 3 of the ladder.
    poles = DslMap("1/(z - 0.875) + 1/(z - 0.75)")
    with np.errstate(all="ignore"), \
            pytest.raises(JetEvaluationError, match=r"circle \|z\| = 0\.75$"):
        length_sup(poles, "perimeter", SCAN_GRID)

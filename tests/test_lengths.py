"""Image lengths of circles and rays, and radial-integral conclusions."""

import mpmath
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
from diskmaps.catalog import builtin_map, kalaj_extremal
from diskmaps.lengths import _circle_integrands, _trapezoid

CAP = 1.0 - 1e-6


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
    limit, converged = radial_length_limit(m, theta=1.1)
    assert limit == pytest.approx(5.0, rel=1e-9) and converged


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
    assert value == pytest.approx(2.0 * CAP, rel=1e-14)
    assert isinstance(detail["theta"], float) and detail["converged"]


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


# The scans evaluate every ray (circle) of a scan in one jets call a round;
# these loops are the same quadratures with one ray (circle) per call.
SCAN_GRID = GridSpec(radial_count=12, angular_count=16)


def _loop_radial_sup(m, cfg):
    def ray(theta):
        return radial_length(m, 1.0, theta).value

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


@pytest.mark.parametrize("name,r,nodes", [
    ("dsl", 0.7, 512), ("dsl", 0.95, 8), ("series", 0.5, 16), ("callable", 0.3, 64),
    ("poisson", 0.9, 32), ("poisson", 0.6, 128),
])
def test_perimeter_is_one_jets_call_of_both_rules(counting, name, r, nodes):
    # The coarse rule reads the even samples of the fine one: the same bits as
    # its own n-node circle, so `converged` compares the same two sums.
    m = counting(_scan_maps()[name])
    rep = perimeter(m, r, nodes=nodes)
    assert m.calls == [("jets", 2 * nodes)]
    [coarse] = _trapezoid(_circle_integrands(m.inner, [r], nodes))
    [fine] = _trapezoid(_circle_integrands(m.inner, [r], 2 * nodes))
    even = np.ascontiguousarray(_circle_integrands(m.inner, [r], 2 * nodes)[:, ::2])
    assert np.array_equal(even, _circle_integrands(m.inner, [r], nodes))
    assert _trapezoid(even) == [coarse]
    assert rep.value == fine
    assert rep.converged == (abs(fine - coarse) <= 1e-6 * abs(fine))


# Oracles for the ray rule: closed forms and mpmath.quad.


@pytest.mark.parametrize("A,B", [(3 - 4j, 0), (1.2 + 0.3j, 0.4 - 0.5j), (0.5j, -0.45)])
def test_radial_length_of_affine_maps_is_exact(A, B):
    # f = A z + B conj(z) maps the ray to a segment of length r |A + B e^{-2 i theta}|.
    m = SeriesMap([0, A], [0, B])
    for r, theta in ((0.3, 0.0), (0.8, 1.1), (1.0, 4.0)):
        rep = radial_length(m, r, theta)
        assert rep.value == pytest.approx(min(r, CAP) * abs(A + B * np.exp(-2j * theta)),
                                          rel=1e-14)
        assert rep.converged


def _moebius_ray_length(a, r, theta):
    # |phi'| = (1 - |a|^2) / |1 - conj(a) z|^2.  With conj(a) e^{i theta} =
    # k e^{i psi}, the ray integrand is (1 - k^2) / (1 - 2 k cos(psi) rho +
    # k^2 rho^2), whose antiderivative is an arctangent (r / (1 - k r) at
    # psi = 0).
    b = np.conj(a) * np.exp(1j * theta)
    k, c, s = abs(b), np.cos(np.angle(b)), np.sin(np.angle(b))
    if abs(s) < 1e-12:
        return (1 - k * k) * r / (1 - k * r)
    return (1 - k * k) * (np.arctan((k * r - c) / s) + np.arctan(c / s)) / (k * s)


@pytest.mark.parametrize("a", [0.5, 0.3 + 0.2j, -0.6 + 0.7j, 0.95j])
def test_radial_length_of_moebius_maps_matches_closed_form(a):
    m = builtin_map("moebius", {"a": a, "t": 0.7}).build()
    # The last ray points at the pole 1/conj(a), where panels split.
    for r, theta in ((0.5, 0.4), (0.9, 2.0), (1.0, 3.5), (1.0, 5.9), (1.0, np.angle(a))):
        rep = radial_length(m, r, theta)
        assert rep.converged
        assert rep.value == pytest.approx(_moebius_ray_length(a, min(r, CAP), theta), rel=1e-13)


def _mpmath_ray_length(fz, fzbar, r, theta):
    """mpmath.quad of |f_z + e^{-2 i theta} f_zbar| along [0, r e^{i theta}]."""
    with mpmath.workdps(30):
        u, turn = mpmath.expj(theta), mpmath.expj(-2 * theta)
        return float(mpmath.quad(lambda rho: abs(fz(rho * u) + turn * fzbar(rho * u)),
                                 [0, r]))


def _series_jet(m):
    """mpmath f_z and f_zbar of a SeriesMap sum a_n z^n + b_n conj(z)^n."""
    def derivative(coeffs, w):
        return mpmath.fsum(n * mpmath.mpc(complex(c)) * w ** (n - 1)
                           for n, c in enumerate(coeffs) if n)

    return (lambda z: derivative(m.a, z)), (lambda z: derivative(m.b, mpmath.conj(z)))


def test_radial_lengths_match_mpmath_on_random_rays(rng):
    poly = DslMap("z + 0.3*conj(z)^2 + 0.1*z*abs(z)^2")
    kalaj = kalaj_extremal(1.0, [0.5], series_degree=24).build()
    maps = {
        # f_z = 1 + 0.2 |z|^2, f_zbar = 0.6 conj(z) + 0.1 z^2.
        "poly": (poly, lambda z: 1 + 0.2 * abs(z) ** 2,
                 lambda z: 0.6 * mpmath.conj(z) + 0.1 * z ** 2),
        "kalaj": (kalaj, *_series_jet(kalaj)),
    }
    for m, fz, fzbar in maps.values():
        for r, theta in zip(rng.uniform(0.2, 1.0, 4), rng.uniform(0.0, 2.0 * np.pi, 4)):
            rep = radial_length(m, float(r), float(theta))
            assert rep.converged
            expected = _mpmath_ray_length(fz, fzbar, min(float(r), CAP), float(theta))
            assert rep.value == pytest.approx(expected, rel=1e-12)


def test_divergent_radial_length_is_not_converged():
    # log(1-z) has radial length -log(1 - r) at theta = 0, infinite as r -> 1.
    # At the cap its integrand 1/(1 - rho) needs panels narrower than the
    # floor, so the ray is not converged, though the capped value is close.
    m = DslMap("log(1-z)")
    rep = radial_length(m, 1.0, 0.0)
    assert not rep.converged
    assert rep.value == pytest.approx(-np.log(1e-6), rel=1e-9)
    inner = radial_length(m, 0.5, 0.0)
    assert inner.converged and inner.value == pytest.approx(np.log(2.0), rel=1e-14)
    value, detail = length_sup(m, "radial")
    assert (value, detail["theta"], detail["converged"]) == (rep.value, 0.0, False)


@pytest.mark.parametrize("m,r,nodes,calls", [
    # nodes // 32 panels of 32 Gauss nodes, each with its far end.
    (SeriesMap([0, 1]), 0.5, 257, [("jets", 8 * 33)]),
    (SeriesMap([0, 1]), 0.5, 9, [("jets", 10)]),
    # Split rounds toward the pole past the cap take a call each.
    (DslMap("log(1-z)"), 1.0, 32, None),
    (DslMap("log(1-z)"), 0.99, 512, None),
])
def test_node_count_is_the_jets_a_radial_report_used(counting, m, r, nodes, calls):
    m = counting(m)
    rep = radial_length(m, r, 0.0, nodes=nodes)
    assert rep.node_count == sum(n for _, n in m.calls)
    if calls is not None:
        assert m.calls == calls
    else:
        assert len(m.calls) > 1


@pytest.mark.parametrize("source, params", [
    ("moebius", {"a": 0.5, "t": 0.0}),
    ("moebius", {"a": 0.3 + 0.2j, "t": 0.7}),
    ("polyharmonic", {"a": (0, 1, 0, 0.1), "b": (0, 0, 0.25)}),
    ("kalaj_extremal", {"R": 1.0, "mu": (0.5,), "series_degree": 24}),
])
def test_radial_sup_scan_takes_at_most_8000_jets(counting, source, params):
    # 192 rays of one 33-point panel, then the 8 refinement rays: no ray of
    # these maps needs a split.
    m = counting(builtin_map(source, params).build())
    _, detail = length_sup(m, "radial")
    assert detail["converged"]
    assert sum(n for _, n in m.calls) <= 8000
    assert m.calls == [("jets", 192 * 33), ("jets", 8 * 33)]

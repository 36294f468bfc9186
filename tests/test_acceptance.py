"""Acceptance suite: one test per numbered criterion.

Each test prints a single "criterion NN: PASS/FAIL" line with the measured
quantities, then asserts.  Oracles are computed in-test by independent
routes (closed forms, 1-D optimization of radial profiles, high-precision
special functions) rather than frozen from a previous run of the same code.
"""

import json
import math

import mpmath
import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from diskmaps import (
    BoundContext,
    EllipticityParams,
    GridSpec,
    SeriesMap,
    beta_constant,
    boundary_length,
    builtin_map,
    check_prop14,
    check_theorem11,
    coefficient_bounds_report,
    derivative_bounds_report,
    extract_coeffs,
    green_derivative_sup,
    grid_supremum,
    harmonic_catalog,
    jet_metrics,
    laplacian_residual,
    lemma24_convert,
    min_kprime,
    polar_grid,
    qc_constant,
    radial_length_limit,
    solve_poisson,
    subharmonic_radial_check,
)
from diskmaps.ellipticity import CauchyPair
from diskmaps.potential import QuadratureConfig


@pytest.fixture
def line(capsys):
    """Emit a criterion verdict on the real stdout, then assert it."""

    def emit(n, ok, detail):
        verdict = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"criterion {n:>2}: {verdict} - {detail}")
        assert ok, f"criterion {n}: {detail}"

    return emit


FINE_GRID = GridSpec(radial_count=96, angular_count=192,
                     max_radius=1.0 - 1e-4, refine_rounds=5)


def test_c01_degree_nine_sup_and_min_kprime(example15, line):
    # Radial profiles in u = r^6 (theta-free since |dz| and |dzbar| depend
    # only on r):  ||D||^2 = u^{2/3} (9 - 9u)^2 on u <= 3/4, maximized at
    # u = 1/4 with value 729 / 2^{16/3};  the K = 1 defect is
    # u^{2/3} (9 - 9u)(6 - 8u) there, maximized by a bounded 1-D search.
    target = 729.0 / 2.0 ** (16.0 / 3.0)

    def op_sq(z):
        _, dz, db = example15.jets(z)
        return (np.abs(dz) + np.abs(db)) ** 2

    scan = grid_supremum(op_sq, FINE_GRID)
    sup, witness = scan.value, scan.witness
    oracle = minimize_scalar(
        lambda u: -(u ** (2.0 / 3.0) * (9 - 9 * u) * (6 - 8 * u)),
        bounds=(0.0, 0.75), method="bounded", options={"xatol": 1e-12})
    defect_oracle = float(-oracle.fun)
    kp, kp_witness = min_kprime(example15, 1.0, FINE_GRID)

    ok = (abs(sup - target) <= 1e-6
          and abs(abs(witness) - 2.0 ** (-1.0 / 3.0)) < 1e-3
          and 10.5 < kp < 11.2
          and kp <= 18.08153
          and abs(kp - defect_oracle) <= 1e-6)
    line(1, ok, f"sup ||D||^2 = {sup!r} vs 729/2^(16/3) = {target!r}; "
                 f"min K' at K=1 is {kp!r} vs 1-D oracle {defect_oracle!r}")


def test_c02_degree_nine_dilatation_blowup(example15, line):
    # The exact dilatation is |3 - 4u| / (6 - 5u) with u = r^6: 0.99462 at
    # r = 1 - 1e-4 and 0.99995 at r = 1 - 1e-6, increasing toward 1.  The
    # threshold 0.999 is therefore crossed between those radii; the checks
    # below pin the measured values to the closed form and require the
    # blow-up flag on a grid that reaches r = 1 - 1e-6.
    def dil(r):
        m = jet_metrics(example15.jet(complex(r)))
        return m.dilatation

    def exact(r):
        u = r ** 6
        return abs(3 - 4 * u) / (6 - 5 * u)

    d4, d6 = dil(1 - 1e-4), dil(1 - 1e-6)
    grid = GridSpec(radial_count=96, angular_count=192,
                    max_radius=1.0 - 1e-6, refine_rounds=3)
    res = qc_constant(example15, grid)
    tail = res.shell_dilatations[-3:]

    ok = (abs(d4 - exact(1 - 1e-4)) < 1e-12
          and abs(d6 - exact(1 - 1e-6)) < 1e-12
          and d6 > 0.999
          and tail[0] < tail[1] < tail[2]
          and res.flag == "unbounded")
    line(2, ok, f"dilatation {d4!r} at 1-1e-4 and {d6!r} at 1-1e-6 "
                 f"(closed form match), last shells {tail}, flag {res.flag}")


def test_c03_potential_derivative_bound(quad_fast, line):
    # max(|dG/dz|, |dG/dzbar|) <= ||g||_inf / 3, with value exactly 1/4
    # for g = 1 (the potential is (1 - |z|^2)/4).
    sups = {}
    for source in ("1", "z", "re(z)", "abs(z)^2"):
        est = green_derivative_sup(source, config=quad_fast)
        sups[source] = est.sup
    ok = all(v <= 1.0 / 3.0 + 1e-6 for v in sups.values()) \
        and abs(sups["1"] - 0.25) <= 1e-5
    line(3, ok, "derivative sups " +
          ", ".join(f"{k}: {v!r}" for k, v in sups.items()) +
          " all within ||g||/3 + 1e-6; g=1 equals 1/4 +- 1e-5")


def test_c04_poisson_solver_matches_quadratic(rng, line):
    m = solve_poisson("0", "1")
    pts = 0.9 * np.sqrt(rng.uniform(0, 1, 200)) \
        * np.exp(2j * np.pi * rng.uniform(0, 1, 200))
    ref = (np.abs(pts) ** 2 - 1.0) / 4.0
    sol_err = float(np.max(np.abs(m.values(pts) - ref)))
    inner = 0.99 * np.sqrt(rng.uniform(0, 1, 100)) \
        * np.exp(2j * np.pi * rng.uniform(0, 1, 100))
    res_max = max(laplacian_residual(m, "1", complex(z), h=1e-3) for z in inner)
    ok = sol_err <= 1e-5 and res_max <= 1e-4
    line(4, ok, f"max |solution - (|z|^2-1)/4| = {sol_err!r} on |z| <= 0.9; "
                 f"max Laplacian residual {res_max!r} at 100 points")


def test_c05_coefficient_recovery(rng, line):
    worst = 0.0
    for _ in range(20):
        deg = int(rng.integers(1, 9))
        a = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        b = np.concatenate([[0], rng.normal(size=deg) + 1j * rng.normal(size=deg)])
        table = extract_coeffs(SeriesMap(a, b), count=8)
        for n in range(9):
            got_a = table.a[n]
            want_a = a[n] if n <= deg else 0.0
            worst = max(worst, abs(got_a - want_a))
            if n >= 1:
                want_b = b[n] if n <= deg else 0.0
                worst = max(worst, abs(table.b[n - 1] - want_b))
    worst = float(worst)
    moeb = builtin_map("moebius", {"a": 0.5}).build()
    table = extract_coeffs(moeb, count=8)
    moeb_err = max(abs(table.a[n] - 3.0 / 2 ** (n + 1)) for n in range(1, 7))
    ok = worst <= 1e-10 and moeb_err <= 1e-9
    line(5, ok, f"random-polynomial recovery error {worst!r} (20 maps, "
                 f"degree <= 8); moebius(0.5) coefficient error {moeb_err!r}")


def test_c06_sharpness_rows(line):
    # (a) identity: |a_1| + |b_1| = 1 meets (sqrt(K') + K R)/1 with
    #     K = 1, K' = 0, R = 1.
    ident = SeriesMap([0, 1], label="identity")
    ctx = BoundContext(params=EllipticityParams(1.0, 0.0), R=1.0,
                       coeffs=extract_coeffs(ident, count=8))
    rows = coefficient_bounds_report(ctx, n_max=1)
    chen10 = next(r for r in rows if r.inequality_id == "chen-1.0")
    m_a = chen10.margin

    # (b) f = c z: the radial-length limit measures |c| exactly (linear
    #     radial profile, so the two-point extrapolation is exact), and
    #     chen-1.2 reads |a_1| + |b_1| <= sqrt(K') + K * radial_sup.
    c = 1.7 * np.exp(0.3j)
    linear = SeriesMap([0, c])
    measured_radial, converged = radial_length_limit(linear, theta=0.7)
    assert converged
    ctx = BoundContext(params=EllipticityParams(1.0, 0.0),
                       radial_sup=measured_radial,
                       coeffs=extract_coeffs(linear, count=8))
    chen12 = next(r for r in coefficient_bounds_report(ctx, n_max=1)
                  if r.inequality_id == "chen-1.2")
    m_b = chen12.margin

    # (c) moebius(a = 0.5): the boundary polyline limit certifies
    #     2 pi R to 1e-3 (so R to 2e-4); the kalaj-1 equality at z = a is
    #     then probed with the certified R = 1, since a margin computed
    #     from the measured R inherits the full measurement error
    #     (~1e-6 here), orders above the 1e-8 equality resolution.
    moeb = builtin_map("moebius", {"a": 0.5}).build()
    L = boundary_length(moeb).value
    poly_ok = abs(L - 2 * math.pi) <= 1e-3
    R_poly = L / (2 * math.pi)
    ctx = BoundContext(params=EllipticityParams(1.0, 0.0), R=1.0)
    kalaj = next(r for r in derivative_bounds_report(
        ctx, moeb, points=[0.5], per_point=True)
        if r.inequality_id == "kalaj-1")
    m_c = abs(kalaj.margin)

    ok = (abs(m_a) <= 1e-12 and abs(m_b) <= 1e-12
          and poly_ok and abs(R_poly - 1.0) <= 2e-4 and m_c <= 1e-8)
    line(6, ok, f"equality margins: chen-1.0 {m_a!r}, chen-1.2 {m_b!r} "
                 f"(measured radial sup {measured_radial!r}), kalaj-1 at z=a "
                 f"{m_c!r} with polyline R = {R_poly!r}")


def test_c07_parameter_conversion_invariants(line):
    pair = lemma24_convert(EllipticityParams(3.0, 4.0))
    params = lemma24_convert(CauchyPair(0.5, 0.5))
    exact = (pair.k1 == 0.5 and pair.k2 == 0.5
             and params.K == 6.0 and params.Kprime == 4.0)

    # Pointwise consistency on every catalog map, K = 1.5: the (K, K')
    # estimate implies the Cauchy form b <= k1 a + k2 at each grid point,
    # and that form in turn caps the defect at K2 = 2(1+k1)/(1-k1) by
    # 4 k2^2 / (1-k1)^2.
    worst_fwd = math.inf
    worst_bwd = math.inf
    maps = [d.build() for d in harmonic_catalog()]
    maps.append(builtin_map("example13", {"alpha": 0.25}).build())
    maps.append(builtin_map("example15").build())
    pts = polar_grid(GridSpec())
    for m in maps:
        kp, _ = min_kprime(m, 1.5)
        conv = lemma24_convert(EllipticityParams(1.5, kp))
        _, dz, db = m.jets(pts)
        a, b = np.abs(dz), np.abs(db)
        worst_fwd = min(worst_fwd, float(np.min(conv.k1 * a + conv.k2 - b)))
        K2 = 2.0 * (1.0 + conv.k1) / (1.0 - conv.k1)
        cap = 4.0 * conv.k2 ** 2 / (1.0 - conv.k1) ** 2
        defect2 = (a + b) ** 2 - K2 * (a ** 2 - b ** 2)
        worst_bwd = min(worst_bwd, float(np.min(cap - defect2)))

    ok = exact and worst_fwd >= -1e-9 and worst_bwd >= -1e-9
    line(7, ok, f"(3,4)->(0.5,0.5) and (0.5,0.5)->(6,4) exact; forward "
                 f"margin {worst_fwd!r}, backward margin {worst_bwd!r} "
                 f"over {len(maps)} catalog maps")


def test_c08_log_power_map_constants(example13_quarter, line):
    # Oracle for the distortion constant: ||D|| / l(D) at radius r is
    # (L^a) / (L^a - 2a L^{a-1}) -> 1 / (1 - 2a/L) evaluated as r -> 0,
    # i.e. 1/(1 - 2a) = 2 at a = 1/4.  The derivative norm itself is
    # L^a with L = 1 - 2 log r: large L (28.6 at r = 1e-6) but L^a only
    # 2.313; the Lipschitz failure shows as monotone growth of L^a along
    # r = 1e-3, 1e-6, 1e-9 together with the refused jet at exactly 0.
    qc = qc_constant(example13_quarter)
    qc_err = abs(qc.value - 2.0)

    norms = {}
    for r in (1e-3, 1e-6, 1e-9):
        L = 1.0 - 2.0 * math.log(r)
        got = jet_metrics(example13_quarter.jet(complex(r))).op_norm
        norms[r] = (got, L ** 0.25)
    closed_form_err = max(abs(g - w) for g, w in norms.values())
    L6 = 1.0 - 2.0 * math.log(1e-6)
    growing = norms[1e-3][0] < norms[1e-6][0] < norms[1e-9][0]
    refused = False
    try:
        example13_quarter.jet(0.0)
    except ValueError:
        refused = True

    ok = (qc_err <= 1e-2 and closed_form_err <= 1e-9 and L6 > 10.0
          and growing and refused)
    line(8, ok, f"qc constant {qc.value!r} vs oracle 2 (err {qc_err!r}); "
                 f"||D||(1e-6) = {norms[1e-6][0]!r} = (1 - 2 log r)^0.25 with "
                 f"L = {L6!r} > 10, norms grow toward 0, jet(0) refused")


def test_c09_gamma_ratio_constant(line):
    mpmath.mp.dps = 30
    oracle = float(mpmath.gamma(0.75) ** 2 / mpmath.gamma(1.5))
    e1 = abs(beta_constant(1.0) - 1.0)
    e0 = abs(beta_constant(0.0) - math.pi)
    eh = abs(beta_constant(0.5) - oracle)
    ok = e1 <= 1e-12 and e0 <= 1e-12 and eh <= 1e-10
    line(9, ok, f"beta(1) err {e1!r}, beta(0) err {e0!r}, "
                 f"beta(0.5) = {beta_constant(0.5)!r} vs mpmath {oracle!r}")


def test_c10_radial_length_limit(example15, line):
    # Antiderivative of |d/drho (3 rho^3 - rho^9)| along theta = 0 is
    # 3r^3 - r^9 (the integrand 9 rho^2 - 9 rho^8 is nonnegative), so the
    # boundary limit is 2.
    got, converged = radial_length_limit(example15, theta=0.0)
    ok = converged and abs(got - 2.0) <= 1e-6
    line(10, ok, f"radial length limit along theta = 0 is {got!r} vs 2")


def test_c11_radial_integral_conclusion(line):
    margins = {}
    for p in (1, 2, 3):
        rep = subharmonic_radial_check(f"{p + 1} * abs(z)^{p}")
        margins[p] = (rep.status, rep.margin)
    unit = subharmonic_radial_check("1")
    ok = all(status == "holds" and margin >= -1e-12
             for status, margin in margins.values()) \
        and unit.status == "holds" and abs(unit.margin) <= 1e-12
    line(11, ok, f"(p+1)|z|^p margins {margins}; phi = 1 margin "
                  f"{unit.margin!r} (exact zero)")


def test_c12_bounds_regression_over_catalog(bounds_regression_run, line):
    # scripts/bounds_regression.py pairs every harmonic catalog entry with
    # the least K for which it is K-quasiregular; it runs once in-process.
    run = bounds_regression_run
    code, err, reports = run.code, run.err, run.reports
    violated = []
    worst = math.inf
    for path in reports:
        doc = json.loads(path.read_text())
        violated += [(path.stem, row["inequality_id"]) for row in doc["reports"]
                     if row["status"] == "violated"]
        if doc["summary"]["worst_margin"] is not None:
            worst = min(worst, doc["summary"]["worst_margin"])
    ok = (code == 0 and "violation" not in err
          and len(reports) == len(run.cases) == 8
          and not violated and worst >= -1e-9)
    line(12, ok, f"bounds over {len(reports)} catalog contexts (exit {code}): "
                  f"{len(violated)} violated rows, worst margin {worst!r}")


def test_hypothesis_checkers_on_documented_examples(example15, line):
    # Not a numbered criterion: the growth/domination checkers only promise
    # verdicts with witnesses.  The identity passes both; a boundary-hugging
    # chord breaks the alpha = 0 integral clause, and the degree-nine map
    # breaks analytic-part domination for every admissible constant.
    ident = SeriesMap([0, 1])
    good = check_theorem11(ident, "t", alpha=1.0, C1=1.0, C2=10.0,
                           pairs=[(0.3, -0.4j), (0.5 + 0.1j, -0.2 + 0.2j)])
    bad = check_theorem11(ident, "t", alpha=0.0, C1=10.0, C2=1.0,
                          pairs=[(0.98, 0.98j)])
    p_good = check_prop14(ident, C3=1.0, pairs=[(0.3, -0.4j), (0.5, 0.2j)])
    p_bad = check_prop14(example15, C3=1.9)

    ok = (good.holds_on_sample and abs(good.worst_margin) <= 1e-9
          and not bad.holds_on_sample and bad.witness == (0.98, 0.98j)
          and bad.derived_constants["max_chord_integral"] > 1.0
          and p_good.holds_on_sample
          and not p_bad.holds_on_sample and p_bad.witness is not None)
    line("HC", ok, f"thm11 identity margin {good.worst_margin!r}; alpha=0 "
                    f"chord integral {bad.derived_constants['max_chord_integral']!r} > C2; "
                    f"prop14 identity holds, degree-nine map fails at "
                    f"{p_bad.witness} with margin {p_bad.worst_margin!r}")

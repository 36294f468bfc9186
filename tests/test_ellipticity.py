"""Distortion-pair analysis, Newton inversion, and hypothesis checkers."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import gamma

from diskmaps import (
    CauchyPair,
    DslMap,
    EllipticityParams,
    GridSpec,
    JetEvaluationError,
    PlanarMap,
    QuadratureConfig,
    QuadratureError,
    SeriesMap,
    Stretch,
    beta_constant,
    builtin_map,
    check_prop14,
    check_theorem11,
    frontier,
    invert_map,
    lemma22_check,
    lemma24_convert,
    min_kprime,
    qc_constant,
    solve_poisson,
)
from diskmaps.ellipticity import _default_prop14_pairs


def shear(k: float) -> SeriesMap:
    return SeriesMap([0, 1], [0, k], label=f"shear({k})")


def test_min_kprime_is_exact_on_constant_coefficient_maps():
    # z + k conj(z): the defect (1+k)^2 - K (1-k^2) is spatially constant,
    # so the grid minimum needs no refinement.
    for k in (0.1, 0.3, 0.6):
        val, witness = min_kprime(shear(k), 1.0)
        assert val == pytest.approx(2 * k * (1 + k), abs=1e-12)
        assert abs(witness) < 1.0
    val, _ = min_kprime(shear(0.5), 3.0)
    assert val == pytest.approx((1.5) ** 2 - 3.0 * 0.75, abs=1e-12)


def test_min_kprime_never_negative():
    # The identity satisfies ||D||^2 = J, so no additive term is needed.
    val, _ = min_kprime(SeriesMap([0, 1]), 2.0)
    assert val == 0.0


def test_qc_constant_identity_and_shear():
    res = qc_constant(SeriesMap([0, 1]))
    assert res.value == pytest.approx(1.0, abs=1e-12)
    assert res.flag == "finite"
    res = qc_constant(shear(1 / 3))
    assert res.value == pytest.approx(2.0, abs=1e-10)


def test_qc_constant_flags_sense_reversal():
    res = qc_constant(SeriesMap([0], [0, 1]))  # f = conj(z)
    assert res.flag == "not-sense-preserving"


def test_frontier_is_nonincreasing_in_K(example15):
    rep = frontier(example15, [1.0, 1.5, 2.0, 4.0])
    values = [kp for _, kp in rep.samples]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    assert len(rep.witnesses) == 4
    assert rep.sup_dilatation < 1.0


class _CountingMap(PlanarMap):
    """Delegates to a map and counts the points its jets are asked for."""

    def __init__(self, inner: PlanarMap):
        self.inner = inner
        self.jet_points = 0

    def jet(self, z):
        return self.inner.jet(z)

    def jets(self, z):
        self.jet_points += np.size(z)
        return self.inner.jets(z)


def test_frontier_and_qc_sample_the_base_grid_once():
    grid = GridSpec(radial_count=4, angular_count=8, refine_rounds=0)
    m = _CountingMap(shear(0.3))
    frontier(m, [1.0, 2.0, 3.0], grid)
    assert m.jet_points == 32
    m.jet_points = 0
    qc_constant(m, grid)
    assert m.jet_points == 32


@pytest.mark.parametrize("name", ["example15", "shear"])
def test_frontier_matches_min_kprime_per_K(name, example15):
    m = example15 if name == "example15" else shear(0.4)
    grid = GridSpec(radial_count=24, angular_count=48, refine_rounds=2)
    Ks = [1.0, 1.5, 2.5, 4.0]
    rep = frontier(m, Ks, grid)
    for K, (K_rep, kprime), witness in zip(Ks, rep.samples, rep.witnesses):
        assert (K_rep, kprime, witness) == (K, *min_kprime(m, K, grid))


def test_pointwise_defect_sign_convention():
    # |f_z| = 2, |f_zbar| = 0.5: ||D||^2 = 6.25, J = 3.75.
    assert Stretch(2.0, 0.5).defect(1.0) == pytest.approx(2.5)
    # Swapped, J = -3.75 < 0: the defect grows, and the point is degenerate.
    s = Stretch(np.array([2.0, 0.5]), np.array([0.5, 2.0]))
    np.testing.assert_array_equal(s.defect(1.0), [2.5, 10.0])
    np.testing.assert_array_equal(s.degenerate, [False, True])
    with pytest.raises(ValueError):
        min_kprime(shear(0.25), 0.5)


def test_parameter_conversions_are_the_stated_maps():
    pair = lemma24_convert(EllipticityParams(K=3.0, Kprime=4.0))
    assert isinstance(pair, CauchyPair)
    assert pair.k1 == pytest.approx(0.5, abs=1e-15)
    assert pair.k2 == pytest.approx(0.5, abs=1e-15)
    back = lemma24_convert(pair)
    assert isinstance(back, EllipticityParams)
    # The two directions are not mutual inverses.
    assert back.K == pytest.approx(6.0, abs=1e-15)
    assert back.Kprime == pytest.approx(4.0, abs=1e-15)
    with pytest.raises(TypeError):
        lemma24_convert((3.0, 4.0))


def test_parameter_validation():
    with pytest.raises(ValueError):
        EllipticityParams(K=0.5, Kprime=0.0)
    with pytest.raises(ValueError):
        EllipticityParams(K=2.0, Kprime=-1.0)
    with pytest.raises(ValueError):
        CauchyPair(k1=1.0, k2=0.0)
    with pytest.raises(ValueError):
        CauchyPair(k1=0.2, k2=-0.1)


@pytest.mark.parametrize("call", [
    lambda: EllipticityParams(K=math.nan, Kprime=0.0),
    lambda: EllipticityParams(K=2.0, Kprime=math.nan),
    lambda: CauchyPair(k1=0.2, k2=math.nan),
    lambda: min_kprime(SeriesMap([0, 1]), math.nan),
    lambda: frontier(SeriesMap([0, 1]), [2.0, math.nan, 1.5]),
    lambda: check_theorem11(SeriesMap([0, 1]), "t", 0.5, math.nan, 10.0, [(0.1, 0.2)]),
    lambda: lemma22_check(SeriesMap([0, 1]), "t", 0.5, 1.0, math.nan, [(0.1, 0.2)]),
], ids=["K", "Kprime", "k2", "min_kprime", "frontier", "C1", "C5"])
def test_nan_fails_every_validator(call):
    # Written as "x < bound", a check lets nan through.
    with pytest.raises(ValueError):
        call()


@given(st.complex_numbers(max_magnitude=0.6, allow_nan=False, allow_infinity=False))
def test_invert_map_recovers_moebius_preimages(w0):
    defn = builtin_map("moebius", {"a": 0.4})
    m = defn.build()
    targets = m.values(np.array([complex(w0) * 0.9, -0.5j, 0.3]))
    z = invert_map(m, targets, guess=0.0)
    assert np.all(np.abs(m.values(z) - targets) < 1e-11)


def test_invert_map_gives_nan_where_a_target_fails():
    square = SeriesMap([0, 0, 1])  # dz = 2z vanishes at 0
    z = invert_map(square, np.array([0.25, 0.25, 0.09]), np.array([0.0, 0.4, 0.3]))
    assert np.isnan(z[0])  # a degenerate Jacobian at its guess
    assert abs(z[1] - 0.5) < 1e-12
    assert z[2] == 0.3  # solved by its guess: no step taken
    with pytest.raises(ValueError, match="open unit disk"):
        invert_map(square, np.array([0.25, 0.25]), np.array([0.1, 1.5]))


def _invert_by_values(m, w, guess, tol=1e-12, max_iter=100):
    """Reference Newton: residuals from `values` calls, partials from a
    separate `jets` call at each accepted iterate."""
    w = np.asarray(w, dtype=complex)
    z = np.array(np.broadcast_to(np.asarray(guess, dtype=complex), w.shape))
    r = m.values(z) - w
    out = np.full(z.shape, complex("nan+nanj"))
    unsolved = np.flatnonzero(np.isfinite(r))
    for _ in range(max_iter):
        done = np.abs(r[unsolved]) <= tol
        out[unsolved[done]] = z[unsolved[done]]
        unsolved = unsolved[~done]
        if not unsolved.size:
            break
        _, dz, db = m.jets(z[unsolved])
        jac = np.abs(dz) ** 2 - np.abs(db) ** 2
        steady = jac > 1e-12
        unsolved = unsolved[steady]
        res = r[unsolved]
        step = (np.conj(dz[steady]) * res - db[steady] * np.conj(res)) / jac[steady]
        pending, lam = np.arange(unsolved.size), 1.0
        for _ in range(20):
            idx = unsolved[pending]
            cand = z[idx] - lam * step[pending]
            inside = np.abs(cand) < 1.0
            r_cand = np.full(cand.shape, complex("nan+nanj"))
            r_cand[inside] = m.values(cand[inside]) - w[idx[inside]]
            better = np.abs(r_cand) < np.abs(r[idx])
            z[idx[better]], r[idx[better]] = cand[better], r_cand[better]
            pending = pending[~better]
            if not pending.size:
                break
            lam *= 0.5
        unsolved = np.delete(unsolved, pending)
    return out


_SMALL_QUAD = QuadratureConfig(radial_nodes=32, angular_nodes=32, boundary_nodes=64)


@pytest.mark.parametrize("build", [
    lambda: DslMap("z + 0.3*conj(z)^2 + 0.1*z^3"),
    lambda: DslMap("z*exp(0.5*z) + 0.2*conj(z)"),
    # Degenerate Jacobians at 0, halved steps and trials outside the disk.
    lambda: DslMap("z^2"),
    lambda: solve_poisson("z + 0.2*z^2", "exp(-abs(z-0.3)^2)", _SMALL_QUAD),
], ids=["cubic", "exp", "square", "poisson"])
def test_invert_map_takes_only_jets_and_keeps_its_iterates(counting, build):
    targets = build().values(np.array([0.6j, 0.4 + 0.3j, -0.7, 0.05, 0.3 - 0.5j]))
    guess = np.array([0.0, 0.1, 0.0, 0.2j, 0.0])
    m = counting(build())
    z = invert_map(m, targets, guess)
    assert m.calls[0] == ("jets", targets.size)
    assert {name for name, _ in m.calls} == {"jets"}
    # Bit for bit the iterates of values-then-jets steps: jets(z)[0] is values(z).
    assert np.array_equal(z, _invert_by_values(build(), targets, guess), equal_nan=True)
    assert np.isfinite(z).any()


def test_invert_map_calls_nothing_for_a_trial_with_no_point_in_the_disk(counting):
    # z^2 from these guesses has rounds whose every trial point leaves the
    # disk; each once made a jets call on an empty array.
    targets = DslMap("z^2").values(np.array([0.6j, 0.4 + 0.3j, -0.7, 0.05, 0.3 - 0.5j]))
    guess = np.array([0.0, 0.1, 0.0, 0.2j, 0.0])
    m = counting(DslMap("z^2"))
    z = invert_map(m, targets, guess)
    assert all(size > 0 for _, size in m.calls)
    assert np.array_equal(z, _invert_by_values(DslMap("z^2"), targets, guess), equal_nan=True)


def _marched_chord_integral(m, alpha, z1, z2, nodes=129):
    """check_theorem11's chord integral for omega = t, with each node's
    preimage found by scalar Newton steps from the preimage of the node
    before it (a march along the image segment)."""
    ts = np.linspace(0.0, 1.0, nodes)
    w1, w2 = m.value(z1), m.value(z2)
    weights = np.ones(nodes)
    weights[1:-1:2], weights[2:-1:2] = 4.0, 2.0
    z, integrand = z1, []
    for t in ts:
        target = (1.0 - t) * w1 + t * w2
        r = m.value(z) - target
        while abs(r) > 1e-10:
            jet = m.jet(z)
            jac = abs(jet.dz) ** 2 - abs(jet.dzbar) ** 2
            z -= (jet.dz.conjugate() * r - jet.dzbar * r.conjugate()) / jac
            r = m.value(z) - target
        integrand.append(1.0 / (1.0 - abs(z)) ** (1.0 - alpha))
    return float(weights @ integrand) / (3.0 * (nodes - 1))


@pytest.mark.parametrize("pair", [(0.1, 0.6j), (-0.5, 0.4 + 0.3j), (0.7, -0.7)])
def test_chord_preimages_from_the_straight_chord_match_a_march(pair):
    m = DslMap("z + 0.3*conj(z)^2 + 0.1*z^3")
    rep = check_theorem11(m, "t", alpha=0.5, C1=10.0, C2=100.0, pairs=[pair])
    assert rep.notes == ""
    got = rep.derived_constants["max_chord_integral"]
    assert abs(got - _marched_chord_integral(m, 0.5, *pair)) <= 1e-9


def test_theorem11_identity_holds_with_zero_margin():
    m = SeriesMap([0, 1])
    pairs = [(0.3, -0.4j), (0.5 + 0.1j, -0.2 + 0.2j)]
    rep = check_theorem11(m, "t", alpha=1.0, C1=1.0, C2=10.0, pairs=pairs)
    assert rep.holds_on_sample
    assert rep.worst_margin == pytest.approx(0.0, abs=1e-9)
    assert rep.derived_constants["max_chord_integral"] == pytest.approx(1.0, rel=1e-6)


def test_theorem11_rejects_noninjective_sample():
    square = SeriesMap([0, 0, 1])
    with pytest.raises(ValueError):
        check_theorem11(square, "t", alpha=1.0, C1=1.0, C2=10.0,
                        pairs=[(0.5, -0.5)])


def test_theorem11_argument_validation():
    m = SeriesMap([0, 1])
    pairs = [(0.1, 0.2)]
    with pytest.raises(ValueError):
        check_theorem11(m, "t", alpha=1.5, C1=1.0, C2=1.0, pairs=pairs)
    with pytest.raises(ValueError):
        check_theorem11(m, "t", alpha=0.5, C1=0.0, C2=1.0, pairs=pairs)
    with pytest.raises(ValueError):
        check_theorem11(m, "t", alpha=0.5, C1=1.0, C2=1.0, pairs=[])


def test_prop14_shear_has_sharp_constant():
    # |f(z1)-f(z2)| = |d + 0.3 conj(d)| <= 1.3 |d| with equality on real
    # chords, and h1 = z, so C3 = 1.3 holds with zero worst margin while
    # any smaller constant fails.
    m = shear(0.3)
    pairs = [(0.5, 0.1), (0.4j, -0.2j), (0.3 + 0.3j, -0.1 - 0.2j)]
    rep = check_prop14(m, C3=1.3, pairs=pairs)
    assert rep.holds_on_sample
    assert rep.worst_margin == pytest.approx(0.0, abs=1e-12)
    cp = rep.derived_constants["cauchy_pair"]
    assert cp.k1 == pytest.approx(0.3)
    assert cp.k2 == 0.0
    params = rep.derived_constants["ellipticity_params"]
    assert params.K == pytest.approx(2 * 1.3 / 0.7)
    failing = check_prop14(m, C3=1.2, pairs=pairs)
    assert not failing.holds_on_sample
    assert failing.worst_margin < -1e-3


def test_prop14_constant_range():
    m = shear(0.1)
    with pytest.raises(ValueError):
        check_prop14(m, C3=0.9, pairs=[(0.1, 0.2)])
    with pytest.raises(ValueError):
        check_prop14(m, C3=2.0, pairs=[(0.1, 0.2)])


def test_prop14_pairs_let_a_non_scan_error_through():
    # Only a failed scan (GridScanError) falls back to the uniform pairs;
    # any other error of the stretch field, here a Green quadrature's,
    # propagates.
    class Failing(SeriesMap):
        def derivatives(self, z):
            raise QuadratureError("panels unresolved")

    with pytest.raises(QuadratureError, match="panels unresolved"):
        _default_prop14_pairs(Failing([0, 1]), SeriesMap([0, 1]))


def test_prop14_samples_a_callable_source_like_its_dsl_twin(quad_fast):
    pairs = [(0.1, 0.3j), (0.5, -0.2)]
    dsl, array = (check_prop14(solve_poisson("z", g, quad_fast), 1.5, pairs)
                  for g in ("1", lambda w: np.ones_like(w)))
    assert dsl.derived_constants["source_sup"] == 1.0
    assert array.derived_constants == dsl.derived_constants


def test_lemma22_nan_pair_margin_names_the_pair():
    # exp(exp(10 z)) overflows at 0.9 and 0.95, so that chord ratio is nan;
    # it used to drop out of the minimum and leave the check holding.
    m = DslMap("exp(exp(10*z))")
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(JetEvaluationError, match=r"pair \(\(0\.9\+0j\), \(0\.95\+0j\)\)"):
            lemma22_check(m, "t", alpha=0.5, C4=10.0, C5=10.0,
                          pairs=[(0.1, 0.2), (0.9, 0.95)])


def test_lemma22_identity_is_tight():
    m = SeriesMap([0, 1])
    rep = lemma22_check(m, "t", alpha=1.0, C4=1.0, C5=1.0,
                        pairs=[(0.2, -0.3j), (0.6, 0.1 + 0.1j)])
    assert rep.holds_on_sample
    assert rep.worst_margin == pytest.approx(0.0, abs=1e-9)
    assert rep.derived_constants["pointwise_to_pair_constant"] == pytest.approx(
        beta_constant(1.0), abs=1e-15)


def test_beta_constant_endpoint_and_interior_values():
    assert beta_constant(1.0) == pytest.approx(1.0, abs=1e-12)
    assert beta_constant(0.0) == pytest.approx(math.pi, abs=1e-12)
    ref = gamma(0.75) ** 2 / gamma(1.5)
    assert beta_constant(0.5) == pytest.approx(ref, abs=1e-12)
    with pytest.raises(ValueError):
        beta_constant(-0.1)
    with pytest.raises(ValueError):
        beta_constant(1.1)


def test_beta_constant_matches_mpmath_across_the_alpha_range():
    # 200 interior points and both endpoints, against 40-digit Gamma values.
    with mpmath.workdps(40):
        for alpha in np.linspace(0.0, 1.0, 202):
            a = mpmath.mpf(float(alpha))
            oracle = mpmath.gamma((1 + a) / 2) ** 2 / mpmath.gamma(1 + a)
            rel = abs((mpmath.mpf(beta_constant(float(alpha))) - oracle) / oracle)
            assert rel <= 1e-14, (alpha, float(rel))


def test_frontier_reports_sense_preservation(example15):
    grid = GridSpec(radial_count=8, angular_count=16, refine_rounds=0)
    assert frontier(example15, [1.0, 2.0], grid).sense_preserving
    assert not frontier(SeriesMap([0], [0, 1]), [1.0, 2.0], grid).sense_preserving
    # Sense reversal on part of the disk only: f = z + 2 conj(z)^2 has J < 0
    # for |z| > 1/4.
    assert not frontier(SeriesMap([0, 1], [0, 0, 2]), [1.0], grid).sense_preserving


PAIR_CHECKERS = {
    "thm11": lambda pairs: check_theorem11(SeriesMap([0, 1]), "t", alpha=0.5,
                                           C1=10.0, C2=100.0, pairs=pairs),
    "prop14": lambda pairs: check_prop14(SeriesMap([0, 1]), C3=1.5, pairs=pairs),
    "lemma22": lambda pairs: lemma22_check(SeriesMap([0, 1]), "t", alpha=0.5,
                                           C4=10.0, C5=10.0, pairs=pairs),
}


@pytest.mark.parametrize("checker", sorted(PAIR_CHECKERS))
@pytest.mark.parametrize("pairs,message", [
    ([], "pairs must be nonempty"),
    ([(0.1, 0.2), (0.1, 1.2)], "open unit disk"),
    ([(0.1, 0.1), (0.2, 0.3)], "pairs must consist of distinct points"),
])
def test_pair_checkers_share_one_validation(checker, pairs, message):
    with pytest.raises(ValueError, match=message):
        PAIR_CHECKERS[checker](pairs)
    # The valid pair alone passes every checker.
    assert PAIR_CHECKERS[checker]([(0.2, 0.3)]).holds_on_sample

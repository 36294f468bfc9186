import cmath

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diskmaps.catalog import Example13Map
from diskmaps.maps import CallableMap, DslMap, SeriesMap
from diskmaps.potential import GreenPotential, QuadratureConfig, solve_poisson

small_coeffs = st.lists(
    st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=6,
)
interior = st.complex_numbers(max_magnitude=0.9, allow_nan=False,
                              allow_infinity=False)


@given(small_coeffs, small_coeffs, interior)
def test_series_value_and_jet_consistency(a, b, z):
    m = SeriesMap(a, b)
    val = sum(c * z**n for n, c in enumerate(a))
    val += sum(c * z.conjugate() ** n for n, c in enumerate(b))
    assert cmath.isclose(m.value(z), val, rel_tol=1e-10, abs_tol=1e-10)
    jet = m.jet(z)
    dz = sum(n * c * z ** (n - 1) for n, c in enumerate(a) if n)
    db = sum(n * c * z.conjugate() ** (n - 1) for n, c in enumerate(b) if n)
    assert cmath.isclose(jet.dz, dz, rel_tol=1e-10, abs_tol=1e-10)
    assert cmath.isclose(jet.dzbar, db, rel_tol=1e-10, abs_tol=1e-10)


@given(small_coeffs, small_coeffs)
def test_series_array_paths_match_scalar(a, b):
    m = SeriesMap(a, b)
    z = np.array([0.1, 0.5j, -0.3 + 0.2j, 0.8], dtype=complex)
    vals = m.values(z)
    v, dz, db = m.jets(z)
    for i, zi in enumerate(z):
        jet = m.jet(complex(zi))
        assert cmath.isclose(vals[i], jet.value, rel_tol=1e-12, abs_tol=1e-12)
        assert cmath.isclose(v[i], jet.value, rel_tol=1e-12, abs_tol=1e-12)
        assert cmath.isclose(dz[i], jet.dz, rel_tol=1e-12, abs_tol=1e-12)
        assert cmath.isclose(db[i], jet.dzbar, rel_tol=1e-12, abs_tol=1e-12)


def test_series_analytic_parts_reconstruct_map():
    m = SeriesMap([0, 1, 0.2j], [0, 0.5, 0, -0.1])
    h1, h2 = m.analytic_parts()
    for z in (0.3 + 0.4j, -0.6j, 0.75):
        recon = h1.value(z) + h2.value(z).conjugate()
        assert cmath.isclose(recon, m.value(z), rel_tol=1e-13, abs_tol=1e-13)
    assert m.laplacian_expr == "0"


def test_dsl_map_equals_series_for_polynomials():
    dsl = DslMap("z^2 + 0.5*conj(z) - i")
    ser = SeriesMap([-1j, 0, 1], [0, 0.5])
    for z in (0.2, 0.5j, -0.4 + 0.3j):
        assert cmath.isclose(dsl.value(z), ser.value(z), rel_tol=1e-13)
        jd, js = dsl.jet(z), ser.jet(z)
        assert cmath.isclose(jd.dz, js.dz, rel_tol=1e-13, abs_tol=1e-13)
        assert cmath.isclose(jd.dzbar, js.dzbar, rel_tol=1e-13, abs_tol=1e-13)


def test_dsl_map_has_no_default_decomposition():
    m = DslMap("z + 0.5*conj(z)")
    assert m.analytic_parts() is None
    assert m.laplacian_expr is None


def test_callable_map_loop_fallbacks_mark_failures_as_nan():
    def f(z: complex) -> complex:
        if abs(z) < 0.1:
            raise ValueError("hole")
        return z * z

    m = CallableMap(f)
    vals = m.values(np.array([0j, 0.5 + 0j]))
    assert not np.isfinite(vals[0])
    assert vals[1] == pytest.approx(0.25)
    v, dz, db = m.jets(np.array([0.5 + 0j]))
    assert dz[0] == pytest.approx(1.0, abs=1e-6)
    assert abs(db[0]) < 1e-6


def test_series_empty_b_defaults_to_zero():
    m = SeriesMap([0, 2.0])
    assert m.value(0.5j) == pytest.approx(1j)
    assert m.jet(0.5j).dzbar == 0


_QUAD = QuadratureConfig(radial_nodes=64, angular_nodes=128, boundary_nodes=256)

# (map, whether scalar and array calls run the same arithmetic, a point where
# the scalar jet raises and the array jet is not finite, or None).
PROTOCOL_CASES = {
    "dsl": (lambda: DslMap("log(z) + z^2*conj(z) - 0.5*abs(z)"), False, 0.0),
    "series": (lambda: SeriesMap([0, 1, 0.2j, 0.1], [0, 0.5, 0, -0.1]), False, None),
    "callable": (lambda: CallableMap(lambda z: z * z + 0.3 * z.conjugate()), True, None),
    "example13": (lambda: Example13Map(0.25), False, 0.0),
    "green": (lambda: GreenPotential("abs(z)^2 + re(z)", _QUAD), True, 1.2),
    "poisson": (lambda: solve_poisson("re(z) + z^3", "abs(z)^2", _QUAD), False, 1.2),
}


@pytest.mark.parametrize("name", list(PROTOCOL_CASES))
def test_scalar_value_and_jet_are_values_and_jets_at_a_point(name):
    build, exact, singular = PROTOCOL_CASES[name]
    m = build()
    # Distinct radii: each point is its own radial solve in both calls.
    pts = np.array([0.3 + 0.4j, -0.55j, 0.7, -0.2 + 0.1j, 0.05 - 0.8j])
    vals = m.values(pts)
    arrays = m.jets(pts)
    for i, z in enumerate(pts):
        jet = m.jet(z)
        got = [m.value(z), jet.value, jet.dz, jet.dzbar]
        want = [vals[i]] + [part[i] for part in arrays]
        if exact:
            assert got == want
        else:
            assert all(cmath.isclose(g, w, rel_tol=1e-12, abs_tol=1e-12)
                       for g, w in zip(got, want))
    if singular is None:
        return
    with pytest.raises(ValueError):
        m.jet(singular)
    assert not all(np.isfinite(part[0]) for part in m.jets(np.array([singular])))


def test_scalar_values_raise_where_arrays_give_nan():
    with pytest.raises(ValueError):
        DslMap("log(z)").value(0)
    assert not np.isfinite(DslMap("log(z)").values(np.array([0j]))[0])
    for m in (GreenPotential("1", _QUAD), PROTOCOL_CASES["poisson"][0]()):
        with pytest.raises(ValueError, match=r"point must be interior, got \|z\| = 1.2"):
            m.value(1.2)
        assert np.isnan(m.values(np.array([1.2, 0.5]))[0])
    m = Example13Map(0.25)
    assert m.value(0) == 0 and m.values(np.array([0j]))[0] == 0
    assert np.isnan(m.jets(np.array([0j]))[1][0])

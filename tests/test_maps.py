import cmath

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from diskmaps.catalog import Example13Map
from numpy.polynomial import polynomial as npoly

from diskmaps.maps import CallableMap, DslMap, SeriesMap, _horner
from diskmaps.potential import GreenPotential, QuadratureConfig, solve_poisson
from test_expr import GRID, SOURCES, same_bits

small_coeffs = st.lists(
    st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=6,
)
interior = st.complex_numbers(max_magnitude=0.9, allow_nan=False,
                              allow_infinity=False)


horner_coeffs = st.lists(
    st.one_of(st.just(0j), st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                              allow_infinity=False)),
    min_size=1, max_size=30,
)


@given(horner_coeffs)
@example([0j])
@example([1.5, 0, 0, 0, -2j, 0])
def test_horner_equals_polyval_bit_for_bit(c):
    c = np.array(c, dtype=complex)
    z = np.array([0.1, 0.5j, -0.3 + 0.2j, 0.8, 0.61 - 0.47j, 0.0], dtype=complex)
    batch = _horner(z, c)
    assert same_bits(batch, npoly.polyval(z, c))
    grid = np.stack([z, z[::-1]])
    assert same_bits(_horner(grid, c), npoly.polyval(grid, c))
    for k in range(z.size):
        assert same_bits(_horner(z[k:k + 1], c), batch[k:k + 1])
        point = np.asarray(z[k])  # 0-d, as one point
        alone = _horner(point, c)
        assert np.ndim(alone) == 0
        assert same_bits(np.atleast_1d(alone), np.atleast_1d(npoly.polyval(point, c)))
        assert same_bits(np.atleast_1d(alone), batch[k:k + 1])


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
        assert (m.value(zi), *m.jet(zi)) == (vals[i], v[i], dz[i], db[i])


def test_poisson_series_jets_at_a_point_equal_their_ring_entries():
    # 28 of these 48 jets once differed from the ring's in the last bit.
    series = solve_poisson("z + 0.2*z^2", "exp(-abs(z-0.3)^2)").series
    ring = 0.83 * np.exp(2j * np.pi * np.arange(48) / 48)
    batch = series.jets(ring)
    for k, z in enumerate(ring):
        assert tuple(series.jet(z)) == tuple(part[k] for part in batch)


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

# (map, a point where the jet is not finite and one point raises, or None).
PROTOCOL_CASES = {
    "dsl": (lambda: DslMap("log(z) + z^2*conj(z) - 0.5*abs(z)"), 0.0),
    "series": (lambda: SeriesMap([0, 1, 0.2j, 0.1], [0, 0.5, 0, -0.1]), None),
    "callable": (lambda: CallableMap(lambda z: z * z + 0.3 * z.conjugate()), None),
    "example13": (lambda: Example13Map(0.25), 0.0),
    "green": (lambda: GreenPotential("abs(z)^2 + re(z)", _QUAD), 1.2),
    "poisson": (lambda: solve_poisson("re(z) + z^3", "abs(z)^2", _QUAD), 1.2),
}


@pytest.mark.parametrize("name", list(PROTOCOL_CASES))
def test_scalar_value_and_jet_are_values_and_jets_at_a_point(name):
    build, singular = PROTOCOL_CASES[name]
    m = build()
    # Distinct radii: each point is its own radial solve in both calls.
    pts = np.array([0.3 + 0.4j, -0.55j, 0.7, -0.2 + 0.1j, 0.05 - 0.8j])
    vals = m.values(pts)
    arrays = m.jets(pts)
    for i, z in enumerate(pts):
        jet = m.jet(z)
        got = [m.value(z), jet.value, jet.dz, jet.dzbar]
        want = [vals[i]] + [part[i] for part in arrays]
        assert got == want
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
        with pytest.raises(ValueError, match=r"not finite at z = \(1.2\+0j\)"):
            m.value(1.2)
        assert np.isnan(m.values(np.array([1.2, 0.5]))[0])
    m = Example13Map(0.25)
    assert m.value(0) == 0 and m.values(np.array([0j]))[0] == 0
    assert np.isnan(m.jets(np.array([0j]))[1][0])


def _same_bits(a, b) -> bool:
    """Equal bit for bit (signed zeros included), any nan matching any nan."""
    x, y = np.asarray(a).view(float), np.asarray(b).view(float)
    return bool(np.all((x.view(np.int64) == y.view(np.int64)) | (np.isnan(x) & np.isnan(y))))


@pytest.mark.parametrize("name", list(PROTOCOL_CASES))
def test_the_value_part_of_jets_is_values_bit_for_bit(name):
    # invert_map reads its residuals from jets calls alone, so its iterates
    # are those of values-then-jets steps only if this holds.
    m = PROTOCOL_CASES[name][0]()
    # Inside the disk, where invert_map evaluates (a callable map has no
    # difference stencil past the circle, so there its jets are nan).
    pts = np.array([0.3 + 0.4j, -0.55j, 0.7, -0.2 + 0.1j, 0.0, 0.999, 0.05 - 0.8j])
    assert _same_bits(m.jets(pts)[0], m.values(pts))


@given(source=SOURCES)
# Broadcast constants in the jet path once gave 1-0j where values gave 1+0j.
@example(source="(i^0)^-1")
def test_the_value_part_of_dsl_jets_is_values_bit_for_bit(source):
    m = DslMap(source)
    pts = np.concatenate([GRID, [0.0, -0.9 + 0.1j]])
    with np.errstate(all="ignore"):
        assert _same_bits(m.jets(pts)[0], m.values(pts))

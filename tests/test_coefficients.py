"""Circle-FFT coefficient extraction, majorant validation, weighted norms."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diskmaps import (
    DslMap,
    GridScanError,
    GridSpec,
    MajorantSpec,
    SeriesMap,
    bloch_norm,
    builtin_map,
    extract_coeffs,
)

small_complex = st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                                   allow_infinity=False)


@given(st.lists(small_complex, min_size=1, max_size=6),
       st.lists(small_complex, min_size=1, max_size=5))
def test_extraction_recovers_series_coefficients(a, b):
    m = SeriesMap(a, [0] + b)
    table = extract_coeffs(m, count=8)
    assert table.valid
    assert table.disagreement < 1e-10
    for n, coeff in enumerate(a):
        assert abs(table.a[n] - coeff) < 1e-9
    for n, coeff in enumerate(b, start=1):
        assert abs(table.b[n - 1] - coeff) < 1e-9
    for n in range(len(a), table.count + 1):
        assert abs(table.a[n]) < 1e-9


def test_moebius_coefficients_follow_the_geometric_law():
    m = builtin_map("moebius", {"a": 0.5}).build()
    table = extract_coeffs(m, count=8)
    assert table.valid
    assert abs(table.a[0] - (-0.5)) < 1e-10
    for n in range(1, 7):
        assert abs(table.a[n] - 3.0 / 2 ** (n + 1)) < 1e-9
    assert max(abs(c) for c in table.b) < 1e-10


def test_non_harmonic_map_yields_invalid_table():
    table = extract_coeffs(DslMap("abs(z)^2"), count=4)
    # |z|^2 restricted to a circle is the constant r^2, which no single
    # power-series pair reproduces across radii.
    assert not table.valid
    assert table.disagreement > 1e-3


def test_extraction_argument_validation():
    m = SeriesMap([0, 1])
    with pytest.raises(ValueError):
        extract_coeffs(m, count=0)
    with pytest.raises(ValueError):
        extract_coeffs(m, radii=())
    with pytest.raises(ValueError):
        extract_coeffs(m, radii=(0.5, 1.0))
    with pytest.raises(ValueError):
        extract_coeffs(m, radii=(0.5, 0.5))


def test_table_count_property():
    table = extract_coeffs(SeriesMap([1, 2, 3]), count=5)
    assert table.count == 5
    assert len(table.a) == 6
    assert len(table.b) == 5


def test_majorant_accepts_standard_shapes():
    for source in ("t", "pow(t, 0.5)", "t / (1 + t)", "z"):
        spec = MajorantSpec(source)
        assert spec.eval(1.0) > 0.0
    arr = MajorantSpec("t").eval(np.array([0.5, 1.0, 2.0]))
    assert np.allclose(arr, [0.5, 1.0, 2.0])


@pytest.mark.parametrize("bad", [
    "t + 1",        # does not vanish at 0
    "t^2",          # omega(t)/t increases
    "-t",           # negative
    "2 - t",        # decreasing (and positive at 0)
    "3.5",          # no variable at all
])
def test_majorant_rejects_invalid_shapes(bad):
    with pytest.raises(ValueError):
        MajorantSpec(bad)


def test_majorant_t_is_a_whole_word_substitution():
    # Only standalone t is rewritten; the t inside sqrt-like identifiers or
    # adjacent to parentheses must not be touched.
    spec = MajorantSpec("log(1 + t)")
    assert spec.eval(0.5) == pytest.approx(np.log1p(0.5), abs=1e-14)


def test_bloch_norm_identity_is_one():
    # For f = z the weighted sup is omega(d)^1 -> 1 at the origin sample.
    val = bloch_norm(SeriesMap([0, 1]), "t", alpha=1.0)
    assert val == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        bloch_norm(SeriesMap([0, 1]), "t", alpha=0.0)
    with pytest.raises(ValueError):
        bloch_norm(SeriesMap([0, 1]), "t", alpha=float("nan"))


def test_bloch_norm_includes_value_at_origin():
    offset = SeriesMap([2.0, 1.0])
    assert bloch_norm(offset, "t", alpha=1.0) == pytest.approx(3.0, abs=1e-12)


def test_bloch_norm_refuses_a_failing_grid():
    # It used to take the max over the 56% of points that evaluate: 1.0.
    m = DslMap("z + 0*exp(exp(exp(40*re(z))))")
    grid = GridSpec(radial_count=8, angular_count=16)
    with np.errstate(all="ignore"):
        with pytest.raises(GridScanError, match="43.8% of grid points"):
            bloch_norm(m, "t", alpha=0.5, grid=grid)


def test_extraction_is_one_values_call(counting):
    m = counting(SeriesMap([0.1, 1, 0.2j], [0, 0.3]))
    table = extract_coeffs(m, count=4, radii=(0.3, 0.5, 0.7, 0.9))
    assert m.calls == [("values", 4 * 256)]
    # The reference circle's row gives the table a call on it alone gives.
    assert table.a == extract_coeffs(m.inner, count=4, radii=(0.9,)).a and table.valid


def test_bloch_norm_takes_f0_from_its_jets_call(counting):
    m = counting(SeriesMap([2.0, 1.0]))
    grid = GridSpec(radial_count=4, angular_count=8)
    assert bloch_norm(m, "t", alpha=1.0, grid=grid) == bloch_norm(m.inner, "t", alpha=1.0,
                                                                    grid=grid)
    assert {name for name, _ in m.calls} == {"jets"}
    with pytest.raises(ValueError, match="not finite at z = 0j"):
        bloch_norm(DslMap("z + 0*log(z)"), "t", alpha=1.0, grid=grid)

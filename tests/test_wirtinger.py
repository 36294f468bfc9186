import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diskmaps import cli
from diskmaps.wirtinger import Stretch, disk_distance, finite_difference_jet

finite_complex = st.complex_numbers(max_magnitude=5.0, allow_nan=False,
                                    allow_infinity=False)


@given(finite_complex, finite_complex)
def test_metrics_match_directional_stretch_extremes(dz, dzbar):
    # ||D|| and l(D) are the max/min over directions e^{it} of
    # |dz e^{it} + dzbar e^{-it}|.  A dense scan brackets them one-sidedly:
    # the sampled max/min always sit inside [lower_norm, op_norm], and the
    # quantization error is at most (step) * (slope bound |dz| + |dzbar|).
    m = Stretch(dz, dzbar)
    n = 4096
    t = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    stretch = np.abs(dz * np.exp(1j * t) + dzbar * np.exp(-1j * t))
    slack = 2.0 * np.pi / n * m.op_norm + 1e-12
    assert stretch.max() <= m.op_norm + 1e-12
    assert stretch.max() >= m.op_norm - slack
    assert stretch.min() >= m.lower_norm - 1e-12
    assert stretch.min() <= m.lower_norm + slack


@given(finite_complex, finite_complex)
def test_jacobian_factors_as_norm_product_with_sign(dz, dzbar):
    m = Stretch(dz, dzbar)
    signed = m.op_norm * m.lower_norm
    if abs(dzbar) > abs(dz):
        signed = -signed
    assert m.jacobian == pytest.approx(signed, rel=1e-12, abs=1e-12)


def test_dilatation_none_when_dz_vanishes(capsys):
    # The kernel leaves nan where |f_z| = 0, and analyze prints null there.
    np.testing.assert_array_equal(Stretch(np.array([0, 2]), np.array([1, 1])).dilatation,
                                  [np.nan, 0.5])
    assert cli.main(["analyze", "--map", "conj(z)", "--points", "0.3"]) == 0
    assert json.loads(capsys.readouterr().out)["reports"][0]["dilatation"] is None


def test_disk_distance_interior_and_boundary():
    assert disk_distance(0.25j) == pytest.approx(0.75)
    with pytest.raises(ValueError):
        disk_distance(1.0)
    with pytest.raises(ValueError):
        disk_distance(-1.2)
    with pytest.raises(ValueError):
        disk_distance(complex("nan"))


@given(st.complex_numbers(max_magnitude=0.8, allow_nan=False, allow_infinity=False))
def test_finite_difference_recovers_polynomial_jets(z):
    # f(z) = z^2 + 0.3 conj(z): dz = 2z, dzbar = 0.3 everywhere.
    jet = finite_difference_jet(lambda w: w * w + 0.3 * w.conjugate(), z)
    assert cmath.isclose(jet.dz, 2 * z, abs_tol=1e-7)
    assert cmath.isclose(jet.dzbar, 0.3, abs_tol=1e-7)
    assert cmath.isclose(jet.value, z * z + 0.3 * z.conjugate(), abs_tol=1e-12)


def test_finite_difference_requires_interior_stencil():
    with pytest.raises(ValueError):
        finite_difference_jet(lambda w: w, 1.0 - 1e-9, h=1e-5)


def test_metrics_on_pure_rotation_are_isometric():
    m = Stretch(cmath.exp(0.7j), 0)
    assert m.op_norm == pytest.approx(1.0)
    assert m.lower_norm == pytest.approx(1.0)
    assert m.jacobian == pytest.approx(1.0)
    assert math.isclose(m.dilatation, 0.0, abs_tol=0)

import numpy as np
import pytest

from diskmaps.grids import (GridScanError, GridSpec, grid_supremum, polar_grid,
                            shell_ladder)


def test_polar_grid_shape_and_range():
    spec = GridSpec(radial_count=10, angular_count=16, max_radius=0.5)
    pts = polar_grid(spec)
    assert pts.shape == (10, 16)
    r = np.abs(pts)
    assert r.max() == pytest.approx(0.5)
    assert r.min() == pytest.approx(0.05)  # no sample at the origin


@pytest.mark.parametrize("kwargs", [
    {"radial_count": 0}, {"angular_count": 0},
    {"max_radius": 0.0}, {"max_radius": 1.0}, {"refine_rounds": -1},
])
def test_spec_validation(kwargs):
    with pytest.raises(ValueError):
        GridSpec(**kwargs)


def test_supremum_refines_toward_smooth_peak():
    target = 0.31 + 0.42j

    def field(z):
        return -np.abs(z - target) ** 2

    spec = GridSpec(radial_count=48, angular_count=96, refine_rounds=6)
    value, witness = grid_supremum(field, spec)
    # Each round divides the window spacing by 4, so 6 rounds pin the
    # maximizer to ~1e-5 and the quadratic peak value to ~1e-10.
    assert value == pytest.approx(0.0, abs=1e-9)
    assert abs(witness - target) < 1e-4


def test_supremum_is_deterministic_and_tie_stable():
    spec = GridSpec(radial_count=8, angular_count=8, refine_rounds=0)

    def flat(z):
        return np.ones_like(np.abs(z))

    v1, w1 = grid_supremum(flat, spec)
    v2, w2 = grid_supremum(flat, spec)
    assert (v1, w1) == (v2, w2)
    first = polar_grid(spec).ravel()[0]
    assert w1 == pytest.approx(first)  # ties resolve to the first grid index


def test_supremum_tolerates_sparse_nan_but_rejects_widespread():
    spec = GridSpec(radial_count=32, angular_count=32, refine_rounds=0)

    def sparse(z):
        vals = np.abs(z)
        vals = np.where(np.abs(z - polar_grid(spec).ravel()[0]) < 1e-15,
                        np.nan, vals)
        return vals

    value, _ = grid_supremum(sparse, spec)
    assert value == pytest.approx(spec.max_radius)

    def broken(z):
        vals = np.abs(z)
        return np.where(np.abs(z) > 0.5, np.nan, vals)

    with pytest.raises(GridScanError):
        grid_supremum(broken, spec)


def test_refinement_never_decreases_the_estimate():
    def field(z):
        return np.abs(np.sin(3 * z)).astype(float)

    base = GridSpec(radial_count=24, angular_count=48, refine_rounds=0)
    refined = GridSpec(radial_count=24, angular_count=48, refine_rounds=4)
    v0, _ = grid_supremum(field, base)
    v4, _ = grid_supremum(field, refined)
    assert v4 >= v0


def test_supremum_on_caller_sampled_base_values():
    def field(z):
        return np.abs(np.sin(3 * z)).astype(float)

    spec = GridSpec(radial_count=24, angular_count=48, refine_rounds=3)
    pts = polar_grid(spec)
    assert grid_supremum(field, spec, base_values=field(pts)) == grid_supremum(field, spec)
    # Tie-break and failure checks run on the given values too.
    flat = np.ones(pts.shape)
    _, witness = grid_supremum(field, GridSpec(radial_count=24, angular_count=48,
                                               refine_rounds=0), base_values=flat)
    assert witness == pts.ravel()[0]
    with pytest.raises(GridScanError):
        grid_supremum(field, spec, base_values=np.where(np.abs(pts) > 0.5, np.nan, flat))
    with pytest.raises(ValueError, match="shape"):
        grid_supremum(field, spec, base_values=flat.ravel())


def test_shell_ladder_caps_at_max_radius():
    ladder = shell_ladder(1 - 1e-4)
    assert ladder[-1] == pytest.approx(1 - 1e-4)
    assert np.all(np.diff(ladder) > 0)
    assert ladder[0] == pytest.approx(0.5)
    short = shell_ladder(0.7)
    assert short[-1] == pytest.approx(0.7)
    assert np.all(short <= 0.7 + 1e-15)

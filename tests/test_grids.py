import numpy as np
import pytest

from diskmaps.ellipticity import frontier
from diskmaps.grids import (GridScanError, GridSpec, grid_supremum, polar_grid,
                            ring_radii, shell_ladder)
from diskmaps.maps import DslMap


def test_polar_grid_shape_and_range():
    spec = GridSpec(radial_count=10, angular_count=16, max_radius=0.5)
    pts = polar_grid(spec)
    assert pts.shape == (10, 16)
    r = np.abs(pts)
    assert r.max() == pytest.approx(0.5)
    assert r.min() == pytest.approx(0.05)  # no sample at the origin
    # Ring i lies at ring_radii(spec)[i]: the first ray is the real axis.
    assert np.array_equal(pts[:, 0], ring_radii(spec))


def test_polar_grid_is_built_once_per_spec_and_read_only():
    spec = GridSpec(radial_count=7, angular_count=9, max_radius=0.8)
    before = polar_grid.cache_info().misses
    pts = polar_grid(spec)
    assert polar_grid(GridSpec(radial_count=7, angular_count=9, max_radius=0.8)) is pts
    with pytest.raises(ValueError, match="read-only"):
        pts[0, 0] = 0.0
    # A sweep over K scans the one grid: every K refines from the same base.
    frontier(DslMap("z + 0.2*conj(z)^2"), [1.0, 2.0, 3.0], spec)
    assert polar_grid(spec) is pts and polar_grid.cache_info().misses == before + 1


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
    scan = grid_supremum(field, spec)
    value, witness = scan.value, scan.witness
    # Each round divides the window spacing by 4, so 6 rounds pin the
    # maximizer to ~1e-5 and the quadratic peak value to ~1e-10.
    assert value == pytest.approx(0.0, abs=1e-9)
    assert abs(witness - target) < 1e-4


def test_supremum_is_deterministic_and_tie_stable():
    spec = GridSpec(radial_count=8, angular_count=8, refine_rounds=0)

    def flat(z):
        return np.ones_like(np.abs(z))

    first = grid_supremum(flat, spec)
    assert grid_supremum(flat, spec) == first
    # Ties resolve to the first grid index.
    assert first.witness == pytest.approx(polar_grid(spec).ravel()[0])


def test_supremum_tolerates_sparse_nan_but_rejects_widespread():
    spec = GridSpec(radial_count=32, angular_count=32, refine_rounds=0)

    def sparse(z):
        vals = np.abs(z)
        vals = np.where(np.abs(z - polar_grid(spec).ravel()[0]) < 1e-15,
                        np.nan, vals)
        return vals

    scan = grid_supremum(sparse, spec)
    assert scan.value == pytest.approx(spec.max_radius)
    assert (scan.masked, scan.points) == (1, 32 * 32)

    def broken(z):
        vals = np.abs(z)
        return np.where(np.abs(z) > 0.5, np.nan, vals)

    with pytest.raises(GridScanError):
        grid_supremum(broken, spec)


def test_refinement_windows_only_skip_and_count_failures():
    # A window takes no 1% rule: here almost all of both 9 x 9 windows fail.
    spec = GridSpec(radial_count=8, angular_count=8, refine_rounds=2)
    base = polar_grid(spec)

    def field(z):
        return np.where(np.isin(z, base), np.abs(z), np.nan)

    scan = grid_supremum(field, spec)
    assert scan.value == np.abs(base).max()
    assert scan.points == 64 + 2 * 81 and scan.masked >= 2 * 80


def test_refinement_never_decreases_the_estimate():
    def field(z):
        return np.abs(np.sin(3 * z)).astype(float)

    base = GridSpec(radial_count=24, angular_count=48, refine_rounds=0)
    refined = GridSpec(radial_count=24, angular_count=48, refine_rounds=4)
    assert grid_supremum(field, refined).value >= grid_supremum(field, base).value


def test_supremum_on_caller_sampled_base_values():
    def field(z):
        return np.abs(np.sin(3 * z)).astype(float)

    spec = GridSpec(radial_count=24, angular_count=48, refine_rounds=3)
    pts = polar_grid(spec)
    assert grid_supremum(field, spec, base_values=field(pts)) == grid_supremum(field, spec)
    # Tie-break and failure checks run on the given values too.
    flat = np.ones(pts.shape)
    scan = grid_supremum(field, GridSpec(radial_count=24, angular_count=48,
                                         refine_rounds=0), base_values=flat)
    assert scan.witness == pts.ravel()[0]
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

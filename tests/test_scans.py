"""Every grid scan follows grids.sup_scan's one failure rule: a failed base
point is skipped and counted, and more than 1% of them raise GridScanError."""

import math

import numpy as np
import pytest

from diskmaps import (BoundContext, DslMap, EllipticityParams, GreenPotential, GridScanError,
                      GridSpec, SeriesMap, bloch_norm, bounds, coefficients,
                      derivative_bounds_report, ellipticity, grids, green_derivative_sup,
                      lemma22_check, min_kprime, potential, polar_grid)
from diskmaps.ellipticity import _default_prop14_pairs

GRID = GridSpec(radial_count=8, angular_count=16)
# The prop14 stretch scan samples its own grid.
STRETCH_GRID = GridSpec(radial_count=64, angular_count=128, max_radius=0.999, refine_rounds=2)
# Overflows where re(z) > 0.047: on 43.8% of GRID.
REGION = "z + 0*exp(exp(exp(40*re(z))))"


class Holed(SeriesMap):
    """z + 0.2 conj(z)^2, whose partials are nan at one point."""

    def __init__(self, hole):
        super().__init__([0, 1], [0, 0, 0.2])
        self.hole = hole

    def derivatives(self, z):
        bad = np.asarray(z) == self.hole
        return tuple(np.where(bad, complex("nan"), d) for d in super().derivatives(z))


def _planar(failure, grid=GRID):
    return Holed(polar_grid(grid)[3, 5]) if failure == "point" else DslMap(REGION)


def _kprime(failure):
    return min_kprime(_planar(failure), 1.5, GRID)[0]


def _bounds(failure):
    ctx = BoundContext(params=EllipticityParams(K=1.5, Kprime=0.5), R=1.0,
                       perimeter_sup=2.0 * math.pi)
    return min(r.margin for r in derivative_bounds_report(ctx, _planar(failure), GRID))


def _lemma22(failure):
    rep = lemma22_check(_planar(failure), "t", alpha=0.5, C4=2.0, C5=2.0,
                        pairs=[(-0.5, -0.2)], grid=GRID)
    return rep.derived_constants["pointwise_margin"]


def _bloch(failure):
    return bloch_norm(_planar(failure), "t", alpha=0.5, grid=GRID)


def _stretch(failure):
    # A failed scan falls back to the 400 uniform pairs alone.
    return len(_default_prop14_pairs(_planar(failure, STRETCH_GRID), SeriesMap([0, 1])))


def _green(failure):
    pot = GreenPotential("1")
    clean = pot.derivatives
    n = 6 * 192 + 1  # the shells and the origin come first, then the grid

    def derivatives(z):
        bad = np.zeros(z.shape, bool)
        bad[n + 40: n + 41 if failure == "point" else n + 240] = True
        return tuple(np.where(bad, complex("nan"), d) for d in clean(z))

    pot.derivatives = derivatives
    return green_derivative_sup(pot).sup


def _source(failure):
    # The unit circle's ray theta = 0 holds the sample w = 1.
    bad = (lambda w: w == 1.0) if failure == "point" else (lambda w: np.abs(w) > 0.95)
    return GreenPotential(lambda w: np.where(bad(w), np.nan, 1.0)).source_grid_sup()


# site: (runner, base points, its result with one failed point, the > 1% fraction)
SITES = {
    "grid_supremum": (_kprime, 128, None, "43.8%"),
    "bounds": (_bounds, 128, None, "43.8%"),
    "lemma22_check": (_lemma22, 128, None, "43.8%"),
    "bloch_norm": (_bloch, 128, None, "43.8%"),
    "prop14 stretch": (_stretch, 64 * 128, 402, "43.1%"),
    "green_derivative_sup": (_green, 1 + 24 * 96, None, "8.7%"),
    "source_grid_sup": (_source, 129 * 256, math.inf, "6.2%"),
}


@pytest.fixture
def scans(monkeypatch):
    """Every base-grid scan of the run, which `Scan.as_base` checks: its Scan
    or its GridScanError."""
    seen, real = [], grids.Scan.as_base

    def spy(scan):
        try:
            real(scan)
        except GridScanError as exc:
            seen.append(exc)
            raise
        seen.append(scan)
        return scan

    monkeypatch.setattr(grids.Scan, "as_base", spy)
    return seen


@pytest.mark.parametrize("site", SITES)
def test_one_failed_base_point_is_skipped_and_counted(site, scans):
    run, points, want, _ = SITES[site]
    with np.errstate(all="ignore"):
        got = run("point")
    assert got == want if want is not None else math.isfinite(got)
    assert [(s.masked, s.points) for s in scans if s.masked] == [(1, points)]


@pytest.mark.parametrize("site", SITES)
def test_a_failing_region_raises_one_message(site, scans):
    run, _, _, fraction = SITES[site]
    message = f"{fraction} of grid points failed to evaluate (limit 1%)"
    with np.errstate(all="ignore"):
        if site == "prop14 stretch":
            assert run("region") == 400
        else:
            with pytest.raises(GridScanError) as exc:
                run("region")
            assert str(exc.value) == message
    assert [str(e) for e in scans if isinstance(e, GridScanError)] == [message]

"""Coefficient and derivative bound displays with provenance-aware context."""

import math
import os
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diskmaps import (
    HOLD_TOLERANCE,
    INEQUALITY_IDS,
    BoundContext,
    BoundReport,
    EllipticityParams,
    JetEvaluationError,
    SeriesMap,
    coefficient_bounds_report,
    derivative_bounds_report,
    extract_coeffs,
)
from diskmaps import cli
from diskmaps.grids import GridSpec, polar_grid, ring_radii


def identity_context() -> BoundContext:
    table = extract_coeffs(SeriesMap([0, 1]), count=8)
    return BoundContext(
        params=EllipticityParams(K=1.0, Kprime=0.0),
        R=1.0,
        perimeter_sup=2.0 * math.pi,
        radial_sup=1.0,
        coeffs=table,
    )


def test_report_rejects_unknown_inequality_id():
    with pytest.raises(ValueError):
        BoundReport(inequality_id="made-up", index=1, lhs=0.0, rhs=1.0,
                    margin=1.0, status="holds")
    assert "chen-1.0" in INEQUALITY_IDS
    assert "radial-subharmonic" in INEQUALITY_IDS


def test_status_tolerance_edges():
    assert BoundReport.evaluated("Mat-1", 1, 1.0, 1.0).status == "holds"
    exact_edge = BoundReport.evaluated("Mat-1", 1, 1.0, 1.0 - 0.5 * HOLD_TOLERANCE)
    assert exact_edge.status == "holds"
    violated = BoundReport.evaluated("Mat-1", 1, 1.0, 1.0 - 3.0 * HOLD_TOLERANCE)
    assert violated.status == "violated"
    assert BoundReport.indeterminate("Mat-1").status == "indeterminate"
    assert math.isnan(BoundReport.indeterminate("Mat-1").margin)


def test_context_validation():
    with pytest.raises(ValueError):
        BoundContext(R=-1.0)
    with pytest.raises(ValueError):
        BoundContext(perimeter_sup=-0.1)
    with pytest.raises(ValueError):
        BoundContext(radial_sup=-0.1)
    for name in ("R", "perimeter_sup", "radial_sup"):
        with pytest.raises(ValueError):
            BoundContext(**{name: math.nan})


def test_missing_context_yields_indeterminate_rows():
    rows = coefficient_bounds_report(BoundContext(), n_max=3)
    assert rows
    assert all(r.status == "indeterminate" for r in rows)
    rows = derivative_bounds_report(BoundContext(), SeriesMap([0, 1]))
    ids = {r.inequality_id for r in rows}
    assert ids == {"kalaj-1", "CP-K", "CRP-2c"}
    assert all(r.status == "indeterminate" for r in rows)


def test_identity_context_is_tight_where_expected():
    rows = coefficient_bounds_report(identity_context(), n_max=4)
    by_key = {(r.inequality_id, r.index): r for r in rows}
    # |a_1| + |b_1| = 1 meets (sqrt(K') + K R)/1 = 1 exactly.
    assert by_key[("chen-1.0", 1)].margin == pytest.approx(0.0, abs=1e-10)
    # K P / (2 pi) = 1 as well.
    assert by_key[("CRP-1c", 1)].margin == pytest.approx(0.0, abs=1e-10)
    # P / pi = 2 leaves a full unit of slack.
    assert by_key[("Mat-1", 1)].margin == pytest.approx(1.0, abs=1e-10)
    assert by_key[("eq-2017", 1)].margin == pytest.approx(0.0, abs=1e-10)
    assert by_key[("chen-1.2", 1)].margin == pytest.approx(0.0, abs=1e-10)
    # Higher indices only gain slack for the 1/n families and the lhs
    # drops to 0, so everything holds.
    assert all(r.status == "holds" for r in rows)


def test_identity_derivative_rows_hold_on_grid():
    rows = derivative_bounds_report(identity_context(), SeriesMap([0, 1]))
    assert {r.inequality_id for r in rows} == {"kalaj-1", "CP-K", "CRP-2c"}
    for r in rows:
        assert r.status == "holds"
        assert isinstance(r.index, complex)


def test_explicit_points_and_per_point_rows():
    ctx = identity_context()
    rows = derivative_bounds_report(ctx, SeriesMap([0, 1]),
                                    points=[0.0, 0.5, 0.5j], per_point=True)
    kalaj = [r for r in rows if r.inequality_id == "kalaj-1"]
    assert len(kalaj) == 3
    # At z = 0 the display reads 1 <= R exactly.
    at0 = next(r for r in kalaj if r.index == 0.0)
    assert at0.margin == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        derivative_bounds_report(ctx, SeriesMap([0, 1]), points=[])
    with pytest.raises(ValueError):
        derivative_bounds_report(ctx, SeriesMap([0, 1]), points=[1.2])


def test_nmax_validation_and_row_count():
    with pytest.raises(ValueError):
        coefficient_bounds_report(identity_context(), n_max=0)
    rows = coefficient_bounds_report(identity_context(), n_max=6)
    # Five coefficient families, one row per index.
    assert len(rows) == 5 * 6


def test_derivative_rows_skip_nan_jets():
    # A map with a jet failure at some points still reports on the rest.
    class Spotty(SeriesMap):
        def derivatives(self, z):
            dz, db = super().derivatives(z)
            mask = np.abs(z) < 0.05
            dz = np.where(mask, complex("nan"), dz)
            return dz, db

    rows = derivative_bounds_report(identity_context(), Spotty([0, 1]),
                                    points=[0.01, 0.5], per_point=True)
    kalaj = {r.index: r for r in rows if r.inequality_id == "kalaj-1"}
    assert kalaj[0.01 + 0j].status == "indeterminate"
    assert kalaj[0.5 + 0j].status == "holds"


def test_worst_row_refuses_explicit_points_with_nan_jets():
    # The worst row cannot skip a point it was asked about: it names the
    # first failing one, as a pair check does.
    class Spotty(SeriesMap):
        def derivatives(self, z):
            dz, db = super().derivatives(z)
            return np.where(np.abs(z) < 0.05, complex("nan"), dz), db

    with pytest.raises(JetEvaluationError, match=r"at the point \(0\.02\+0j\)"):
        derivative_bounds_report(identity_context(), Spotty([0, 1]),
                                 points=[0.5, 0.02, 0.01])


COEFFICIENT_IDS = ("chen-1.0", "CRP-1c", "Mat-1", "eq-2017", "chen-1.2")
DERIVATIVE_IDS = ("kalaj-1", "CP-K", "CRP-2c")

# Written out from the displays in the module docstring, not from the tables.
READERS = {
    "params": {"chen-1.0", "CRP-1c", "eq-2017", "chen-1.2", "CP-K", "CRP-2c"},
    "R": {"chen-1.0", "kalaj-1", "CP-K"},
    "perimeter_sup": {"CRP-1c", "Mat-1", "CRP-2c"},
    "radial_sup": {"eq-2017", "chen-1.2"},
    "coeffs": set(COEFFICIENT_IDS),
}


def all_rows(ctx, n_max=3):
    return (coefficient_bounds_report(ctx, n_max=n_max)
            + derivative_bounds_report(ctx, SeriesMap([0, 1]),
                                       points=[0.0, 0.5, 0.5j]))


def test_every_display_reports_with_a_full_context():
    assert set(INEQUALITY_IDS) == {*COEFFICIENT_IDS, *DERIVATIVE_IDS, "radial-subharmonic"}
    rows = all_rows(identity_context(), n_max=3)
    for ineq in COEFFICIENT_IDS:
        mine = [r for r in rows if r.inequality_id == ineq]
        assert [r.index for r in mine] == [1, 2, 3]
        assert all(r.status == "holds" for r in mine)
    for ineq in DERIVATIVE_IDS:
        mine = [r for r in rows if r.inequality_id == ineq]
        assert len(mine) == 1 and mine[0].status == "holds"


@pytest.mark.parametrize("field", sorted(READERS))
def test_clearing_a_field_blanks_exactly_its_readers(field):
    rows = all_rows(replace(identity_context(), **{field: None}))
    blank = {r.inequality_id for r in rows if r.status == "indeterminate"}
    assert blank == READERS[field]
    assert all(r.status == "indeterminate" for r in rows if r.inequality_id in blank)


# --- grid rows: one row per display, found ring by ring ----------------------

# The derivative displays as the module docstring writes them: rhs(ctx, r)
# and which lhs they read.
DISPLAYS = {
    "kalaj-1": ("dz", lambda c, r: c.R / (1.0 - r**2)),
    "CP-K": ("op", lambda c, r: (c.R + (-c.R + math.sqrt(
        c.params.Kprime + c.params.K * c.params.Kprime + (c.params.K * c.R) ** 2))
        / (1.0 + c.params.K)) / (1.0 - r**2)),
    "CRP-2c": ("op", lambda c, r: c.perimeter_sup * math.sqrt(c.params.K)
               / (2.0 * math.pi * (1.0 - r))),
}


class Holed(SeriesMap):
    """A series map whose f_z is nan at the given points (its jets too)."""

    def __init__(self, a, b, holes):
        super().__init__(a, b)
        self.holes = np.asarray(holes, dtype=complex)

    def derivatives(self, z):
        dz, db = super().derivatives(z)
        return np.where(np.isin(z, self.holes), complex("nan"), dz), db


def brute_force_rows(ctx, m, spec):
    """The worst row of each display, point by point in Python: the least
    margin against the rhs at the point's ring radius; among equal margins
    the first ring, then the largest lhs, then the first angle."""
    pts = polar_grid(spec)
    _, dz, db = m.jets(pts)
    # numpy's abs of an array and of one complex scalar can differ in the
    # last bit; the lhs is the array's.
    lhs_of = {"dz": np.abs(dz), "op": np.abs(dz) + np.abs(db)}
    rows = {}
    for ineq, (kind, rhs_of) in DISPLAYS.items():
        best = None
        for i, r in enumerate(ring_radii(spec).tolist()):
            rhs = rhs_of(ctx, r)
            for j in range(spec.angular_count):
                lhs = float(lhs_of[kind][i, j])
                if math.isfinite(lhs):
                    key = (rhs - lhs, i, -lhs, j)
                    best = min(best, key) if best else key
        margin, i, lhs, j = best
        rows[ineq] = (complex(pts[i, j]), -lhs, rhs_of(ctx, ring_radii(spec)[i]))
    return rows


coeff = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


@given(a=st.lists(coeff, min_size=2, max_size=6), b=st.lists(coeff, min_size=1, max_size=5),
       holes=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 23)), max_size=2),
       K=st.floats(1.0, 4.0), R=st.floats(0.1, 4.0))
def test_grid_rows_match_a_brute_force_reference(a, b, holes, K, R):
    spec = GridSpec(radial_count=10, angular_count=24, max_radius=0.99)
    m = Holed(a, b, [polar_grid(spec)[h] for h in holes])
    ctx = BoundContext(params=EllipticityParams(K=K, Kprime=0.5), R=R,
                       perimeter_sup=2.0 * math.pi * R)
    with np.errstate(all="ignore"):
        if not np.isfinite(m.jets(polar_grid(spec))[1]).any():
            return
        rows = derivative_bounds_report(ctx, m, spec)
    want = brute_force_rows(ctx, m, spec)
    assert [r.inequality_id for r in rows] == list(DISPLAYS)
    for r in rows:
        assert (r.index, r.lhs, r.rhs) == want[r.inequality_id]
        assert r.margin == r.rhs - r.lhs


def test_grid_witness_of_a_rotationally_symmetric_map_is_the_first_ring_and_angle():
    # |f_z| = 1 and f_zbar = 0 everywhere: every point of a ring ties, and the
    # rhs grows with r, so each display's witness is the innermost ring's
    # first point, with the rhs at that ring's radius.
    spec = GridSpec()
    r = spec.max_radius / spec.radial_count
    rows = {row.inequality_id: row for row in
            derivative_bounds_report(identity_context(), SeriesMap([0, 1]), spec)}
    assert {k: (row.index, row.lhs, row.rhs) for k, row in rows.items()} == {
        "kalaj-1": (complex(r), 1.0, 1.0 / (1.0 - r**2)),
        "CP-K": (complex(r), 1.0, 1.0 / (1.0 - r**2)),
        "CRP-2c": (complex(r), 1.0, 2.0 * math.pi / (2.0 * math.pi * (1.0 - r))),
    }


def test_grid_rows_of_a_series_map_take_no_jets_call():
    m = SeriesMap([0, 1, 0, 0.1], [0, 0, 0.25])
    with mock.patch.object(SeriesMap, "jets", autospec=True,
                           side_effect=SeriesMap.jets) as jets:
        rows = derivative_bounds_report(identity_context(), m)
        assert cli.main(["bounds", "--catalog", "polyharmonic", "--param", "a=0,1,0,0.1",
                         "--param", "b=0,0,0.25", "--K", "2", "--out", os.devnull]) == 0
    assert not jets.called
    assert [r.inequality_id for r in rows] == list(DISPLAYS)

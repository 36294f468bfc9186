"""Coefficient and derivative bound displays with provenance-aware context."""

import math
from dataclasses import replace

import numpy as np
import pytest

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
        def jets(self, z):
            v, dz, db = super().jets(z)
            mask = np.abs(z) < 0.05
            dz = np.where(mask, complex("nan"), dz)
            return v, dz, db

    rows = derivative_bounds_report(identity_context(), Spotty([0, 1]),
                                    points=[0.01, 0.5], per_point=True)
    kalaj = {r.index: r for r in rows if r.inequality_id == "kalaj-1"}
    assert kalaj[0.01 + 0j].status == "indeterminate"
    assert kalaj[0.5 + 0j].status == "holds"


def test_worst_row_refuses_explicit_points_with_nan_jets():
    # The worst row cannot skip a point it was asked about: it names the
    # first failing one, as a pair check does.
    class Spotty(SeriesMap):
        def jets(self, z):
            v, dz, db = super().jets(z)
            return v, np.where(np.abs(z) < 0.05, complex("nan"), dz), db

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

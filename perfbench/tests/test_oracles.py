"""Closed-form Green oracles and the report comparison."""

import numpy as np
import pytest

from diskmaps.expr import parse_expr, value_array
from oracles import Check, compare_docs, green_closed_form
from workloads import green_dsl, source_dsl

C = 0.37
SOURCES = (("abs", 0), ("abs", 1), ("abs", 2), ("re", 1))


def _interior_points(n=40, r_max=0.95):
    rng = np.random.default_rng(5)
    return r_max * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))


@pytest.mark.parametrize("source", SOURCES)
def test_green_potential_has_laplacian_minus_source(source):
    S, G = green_closed_form(source[0], source[1], C)
    z = _interior_points()
    h = 1e-3
    lap = (G(z + h) + G(z - h) + G(z + 1j * h) + G(z - 1j * h) - 4 * G(z)) / h**2
    assert np.max(np.abs(lap + S(z))) < 1e-5


@pytest.mark.parametrize("source", SOURCES)
def test_green_potential_vanishes_on_the_circle(source):
    _, G = green_closed_form(source[0], source[1], C)
    ring = np.exp(2j * np.pi * np.arange(64) / 64)
    assert np.max(np.abs(G(ring))) < 1e-15


@pytest.mark.parametrize("source", SOURCES)
def test_dsl_twins_match_the_closed_forms(source):
    S, G = green_closed_form(source[0], source[1], C)
    z = _interior_points()
    for text, fn in ((green_dsl(source[0], source[1], C), G),
                     (source_dsl(source[0], source[1], C), S)):
        assert np.max(np.abs(value_array(parse_expr(text), z) - fn(z))) < 1e-14


def test_compare_docs_flags_a_moved_number_and_skips_witnesses():
    want = {"config": {"map": "a"}, "reports": [{"value": 1.0, "witness": [0.5],
                                                 "z": {"re": 0.1, "im": 0.2}}]}
    same = {"config": {"psi": "b"}, "reports": [{"value": 1.0 + 1e-12, "witness": [0.7],
                                                 "z": {"re": 0.1, "im": 0.2}}]}
    moved = {"config": {}, "reports": [{"value": 1.0 + 1e-6, "witness": [0.5],
                                        "z": {"re": 0.1, "im": 0.2}}]}
    ok, bad = Check(), Check()
    compare_docs(ok, same, want)
    compare_docs(bad, moved, want)
    assert ok.ok and ok.dev == pytest.approx(1e-12, rel=1e-3)
    assert not bad.ok and bad.dev == pytest.approx(1e-6, rel=1e-6)


def test_check_deviation_is_relative_above_one():
    ck = Check()
    ck.close("big", 1000.001, 1000.0, 1e-5)
    ck.close("small", 1e-3 + 1e-9, 1e-3, 1e-5)
    assert ck.ok
    assert ck.dev == pytest.approx(1e-6, rel=1e-6)

"""Span self-time arithmetic and the install/uninstall round trip."""

import contextlib
import io

import pytest

from diskmaps import cli
from tracing import Span, Tracer, layer_metrics, self_times


def _span(start, end, parent=-1, pre=0.0, post=0.0):
    s = Span("s", "maps", "call", parent, 0)
    s.start, s.end, s.pre, s.post = start, end, pre, post
    return s


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0.0, 10.0),
        _span(1.0, 3.0, parent=0, pre=0.5),    # covers [0.5, 3]
        _span(2.0, 4.0, parent=0),             # overlaps: union [0.5, 4]
        _span(9.0, 12.0, parent=0),            # clipped to [9, 10]
        _span(2.5, 3.5, parent=2),             # grandchild: only its parent sees it
    ]
    assert self_times(spans) == pytest.approx([10.0 - 4.5, 2.0, 1.0, 3.0, 1.0])


def test_self_time_of_a_leaf_and_of_nested_chains():
    spans = [_span(0.0, 4.0), _span(1.0, 3.0, parent=0, post=0.5),
             _span(1.5, 2.0, parent=1)]
    assert self_times(spans) == pytest.approx([1.5, 1.5, 0.5])


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _attributes(tracer):
    return {(name, attr): value for name, mod in tracer.modules.items()
            for attr, value in vars(mod).items() if callable(value)}


def test_tracing_keeps_output_and_restores_every_name():
    argv = ["frontier", "--map", "z + 0.2*conj(z)^2", "--K", "1.5",
            "--radial-count", "8", "--angular-count", "16"]
    plain = _run(argv)
    tracer = Tracer()
    before = _attributes(tracer)
    methods = dict(vars(tracer.modules["maps"].DslMap))
    tracer.install()
    tracer.begin_report(0)
    try:
        traced = _run(argv)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert _attributes(tracer) == before
    assert dict(vars(tracer.modules["maps"].DslMap)) == methods

    root = tracer.spans[0]
    assert root.name == "cli.main" and root.parent == -1 and root.report == 0
    assert all(s.report == 0 for s in tracer.spans)
    m = layer_metrics(tracer.spans, rounds=1)
    # min_kprime and the final sample each scan the 8 x 16 grid.
    assert m["grids.scans"] == 1 and m["grids.points"] >= 128
    assert m["maps.points"] >= 2 * 128
    assert m["potential.points"] == 0
    assert m["reports.bytes"] == len(plain[1])


def test_newton_solves_count_jets():
    argv = ["check-thm11", "--map", "1.2*z + 0.1*conj(z)", "--omega", "t",
            "--alpha", "0.5", "--C1", "5", "--C2", "5", "--pairs", "0.1:0.3j",
            "--line-nodes", "5"]
    tracer = Tracer()
    tracer.install()
    tracer.begin_report(0)
    try:
        _run(argv)
    finally:
        tracer.uninstall()
    m = layer_metrics(tracer.spans, rounds=1)
    assert m["ellipticity.newton_solves"] == 5
    assert m["ellipticity.newton_failures"] == 0
    assert 0 < m["ellipticity.jets_per_solve"] <= 2

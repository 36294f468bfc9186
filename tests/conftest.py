import contextlib
import io
import runpy
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from diskmaps.catalog import builtin_map
from diskmaps.maps import PlanarMap
from diskmaps.potential import QuadratureConfig

# Grid scans and quadrature make individual examples slow but deterministic;
# a modest example budget with no deadline keeps the suite under the runtime
# target without flaky timeouts.
settings.register_profile(
    "diskmaps",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("diskmaps")


class CountingMap(PlanarMap):
    """A map that records each of its calls as (method, number of points)."""

    def __init__(self, inner: PlanarMap):
        self.inner, self.calls = inner, []

    def values(self, z):
        self.calls.append(("values", np.size(z)))
        return self.inner.values(z)

    def jets(self, z):
        self.calls.append(("jets", np.size(z)))
        return self.inner.jets(z)


@pytest.fixture
def counting():
    return CountingMap


@pytest.fixture(scope="session")
def example15():
    return builtin_map("example15").build()


@pytest.fixture(scope="session")
def example13_quarter():
    return builtin_map("example13", {"alpha": 0.25}).build()


@pytest.fixture(scope="session")
def quad_fast():
    """Cheaper quadrature for tests that only need ~1e-6 accuracy."""
    return QuadratureConfig(radial_nodes=64, angular_nodes=128, boundary_nodes=256)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20250814)


@pytest.fixture(scope="session")
def bounds_regression_run(tmp_path_factory):
    """One in-process run of scripts/bounds_regression.py --keep DIR.

    c12 and the script test both read it, so the eight (catalog entry,
    least K) reports are computed once per session.
    """
    script = Path(__file__).resolve().parent.parent / "scripts" / "bounds_regression.py"
    namespace = runpy.run_path(str(script))
    keep = tmp_path_factory.mktemp("bounds_regression")
    out, err = io.StringIO(), io.StringIO()
    argv = sys.argv
    sys.argv = [script.name, "--keep", str(keep)]
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = namespace["main"]()
    finally:
        sys.argv = argv
    return SimpleNamespace(code=code, out=out.getvalue(), err=err.getvalue(),
                           reports=sorted(keep.glob("*.json")),
                           cases=namespace["CASES"])

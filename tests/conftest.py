import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from diskmaps.catalog import builtin_map
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

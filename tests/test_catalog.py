"""Named example maps: construction, diagnostics, and known exact facts."""

import numpy as np
import pytest

from diskmaps import SeriesMap, builtin_map, catalog_names, extract_coeffs, harmonic_catalog
from diskmaps.catalog import kalaj_extremal


def test_every_catalog_entry_builds_and_evaluates(rng):
    entries = harmonic_catalog()
    assert len(entries) == 8
    pts = 0.8 * np.sqrt(rng.uniform(0, 1, 16)) * np.exp(2j * np.pi * rng.uniform(0, 1, 16))
    for defn in entries:
        m = defn.build()
        vals = m.values(pts)
        assert np.all(np.isfinite(vals)), defn.name
        assert np.isfinite(m.value(0.1 + 0.1j))
        # build() hands out fresh instances.
        assert defn.build() is not m


def test_catalog_names_cover_the_constructors():
    names = catalog_names()
    assert set(names) == {"identity", "scale", "moebius", "example13",
                          "example15", "polyharmonic", "kalaj_extremal"}
    for name in names:
        assert isinstance(names[name], str)


def test_exact_diagnostics_of_rigid_maps():
    ident = builtin_map("identity")
    assert ident.diagnostics["exact_K"] == 1.0
    assert ident.diagnostics["exact_R"] == 1.0
    scale = builtin_map("scale", {"c": 1.5})
    assert scale.diagnostics["exact_R"] == 1.5
    assert scale.diagnostics["exact_radial_sup"] == 1.5
    moeb = builtin_map("moebius", {"a": 0.3 + 0.2j, "t": 0.7})
    assert moeb.diagnostics["exact_K"] == 1.0
    assert moeb.diagnostics["exact_R"] == 1.0
    assert "exact_radial_sup" not in moeb.diagnostics


def test_parameter_schema_is_enforced():
    with pytest.raises(ValueError):
        builtin_map("scale")
    with pytest.raises(ValueError):
        builtin_map("scale", {"c": 0.5, "bogus": 1})
    with pytest.raises(ValueError):
        builtin_map("scale", {"c": 0})
    with pytest.raises(ValueError):
        builtin_map("moebius", {"a": 1.0})
    with pytest.raises(ValueError):
        builtin_map("no-such-map")


@pytest.mark.parametrize("name,params", [
    ("scale", {"c": "nan"}),
    ("scale", {"c": float("inf")}),
    ("moebius", {"a": "nan"}),
    ("moebius", {"a": 0.5, "t": "inf"}),
    ("example13", {"alpha": "nan"}),
    ("polyharmonic", {"a": ("0", "1"), "b": ("0", "nan")}),
    ("kalaj_extremal", {"R": "nan"}),
    ("kalaj_extremal", {"mu": ("nan",)}),
])
def test_non_finite_parameters_are_refused(name, params):
    with pytest.raises(ValueError, match="must be finite"):
        builtin_map(name, params)


def test_kalaj_extremal_refuses_nan_arguments():
    with pytest.raises(ValueError, match="R must be positive"):
        kalaj_extremal(float("nan"), [0.0])
    with pytest.raises(ValueError, match=r"sup \|mu\|"):
        kalaj_extremal(1.0, [float("nan")])


def test_moebius_is_a_disk_automorphism(rng):
    m = builtin_map("moebius", {"a": 0.3 + 0.2j, "t": 0.7}).build()
    pts = 0.999 * np.exp(2j * np.pi * rng.uniform(0, 1, 64))
    assert np.all(np.abs(m.values(pts)) < 1.0)
    _, dz, db = m.jets(0.99 * pts)
    assert np.max(np.abs(db)) < 1e-14  # analytic


def test_example13_origin_behavior():
    defn = builtin_map("example13", {"alpha": 0.25})
    m = defn.build()
    assert m.value(0.0) == 0.0
    with pytest.raises(ValueError):
        m.jet(0.0)
    _, dz, db = m.jets(np.array([0.0, 0.3 + 0.1j]))
    assert np.isnan(dz[0].real) and np.isfinite(dz[1])
    with pytest.raises(ValueError):
        builtin_map("example13", {"alpha": 0.5}).build()


@pytest.mark.parametrize("alpha", [0.1, 0.25, 0.4])
def test_example13_is_sense_preserving(alpha, rng):
    m = builtin_map("example13", {"alpha": alpha}).build()
    pts = (1e-5 + 0.9999 * np.sqrt(rng.uniform(0, 1, 48))) / 1.0001 \
        * np.exp(2j * np.pi * rng.uniform(0, 1, 48))
    _, dz, db = m.jets(pts)
    jac = np.abs(dz) ** 2 - np.abs(db) ** 2
    assert np.all(jac > 0.0)


def test_example15_closed_form_derivatives(rng):
    # f = 3 z |z|^2 - z |z|^8 has dz = 6 r^2 - 5 r^8 and
    # |dzbar| = |3 r^2 - 4 r^8| by direct differentiation of
    # 3 z^2 zbar - z^5 zbar^4.
    m = builtin_map("example15").build()
    radii = rng.uniform(0.05, 0.95, 24)
    angles = np.exp(2j * np.pi * rng.uniform(0, 1, 24))
    pts = radii * angles
    _, dz, db = m.jets(pts)
    r = np.abs(pts)
    assert np.max(np.abs(dz - (6 * r**2 - 5 * r**8))) < 1e-12
    assert np.max(np.abs(np.abs(db) - np.abs(3 * r**2 - 4 * r**8))) < 1e-12


def test_example15_is_injective_on_sample(rng):
    m = builtin_map("example15").build()
    pts = np.sqrt(rng.uniform(0.01, 0.98, 40)) * np.exp(2j * np.pi * rng.uniform(0, 1, 40))
    vals = m.values(pts)
    gaps_z = np.abs(pts[:, None] - pts[None, :])
    gaps_v = np.abs(vals[:, None] - vals[None, :])
    clash = (gaps_z > 1e-6) & (gaps_v < 1e-9)
    assert not clash.any()


def test_kalaj_with_zero_dilatation_reduces_to_scaling():
    defn = kalaj_extremal(2.5, [0.0], series_degree=12)
    table = extract_coeffs(defn.build(), count=6)
    assert abs(table.a[1] - 2.5) < 1e-12
    others = list(table.a[:1]) + list(table.a[2:]) + list(table.b)
    assert max(abs(c) for c in others) < 1e-12
    assert defn.diagnostics["exact_K"] == 1.0


def test_kalaj_constant_mu_has_constant_dilatation(rng):
    defn = kalaj_extremal(1.0, [0.5], series_degree=40)
    m = defn.build()
    assert defn.diagnostics["exact_K"] == pytest.approx(3.0)
    assert m.jet(0.0).dz == pytest.approx(1.0, abs=1e-12)
    pts = 0.7 * np.sqrt(rng.uniform(0, 1, 12)) * np.exp(2j * np.pi * rng.uniform(0, 1, 12))
    _, dz, db = m.jets(pts)
    ratio = np.abs(db) / np.abs(dz)
    # Constant second dilatation 0.5 up to series truncation.
    assert np.max(np.abs(ratio - 0.5)) < 1e-6
    assert defn.diagnostics["truncation_tail_bound"] < 1e-9


def test_kalaj_rejects_oversized_dilatation():
    with pytest.raises(ValueError):
        kalaj_extremal(1.0, [1.2])
    with pytest.raises(ValueError):
        kalaj_extremal(0.0, [0.1])
    with pytest.raises(ValueError):
        kalaj_extremal(1.0, [0.1], series_degree=4)


@pytest.mark.parametrize("params,args", [
    ({}, (1.0, [0.0], 24)),
    ({"mu": "0.5"}, (1.0, [0.5], 24)),
    ({"R": "2.0", "mu": ("0.3", "0.1j"), "series_degree": "16"}, (2.0, [0.3, 0.1j], 16)),
    ({"R": 1.5, "mu": [0.2], "series_degree": 12}, (1.5, [0.2], 12)),
])
def test_builtin_kalaj_matches_the_constructor(params, args):
    got = builtin_map("kalaj_extremal", params)
    want = kalaj_extremal(*args)
    assert got.name == want.name == "kalaj_extremal"
    assert got.parameters == want.parameters
    assert got.diagnostics == want.diagnostics
    z = 0.9 * np.exp(2j * np.pi * np.arange(16) / 16) * np.linspace(0.1, 1.0, 16)
    for a, b in zip(got.build().jets(z), want.build().jets(z)):
        assert np.array_equal(a, b)


def test_polyharmonic_entry_matches_series():
    defn = builtin_map("polyharmonic", {"a": [0, 1], "b": [0, 0, 0.3]})
    m = defn.build()
    ref = SeriesMap([0, 1], [0, 0, 0.3])
    z = 0.4 + 0.3j
    assert m.value(z) == ref.value(z)

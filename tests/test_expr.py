import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from diskmaps import expr
from diskmaps.expr import (ParseError, contains_var, jet_arrays, parse_expr, to_source,
                           value_array)
from diskmaps.maps import DslMap
from diskmaps.wirtinger import finite_difference_jet

points = st.complex_numbers(min_magnitude=0.05, max_magnitude=0.9,
                            allow_nan=False, allow_infinity=False)

CASES = [
    ("z^2 + 3*z - 1", lambda z: z**2 + 3 * z - 1),
    ("conj(z)^3 - 2*i*z", lambda z: z.conjugate() ** 3 - 2j * z),
    ("abs(z)^2 * z", lambda z: abs(z) ** 2 * z),
    ("re(z) + i*im(z)", lambda z: complex(z.real, z.imag)),
    ("exp(z) / (1 + z^2)", lambda z: cmath.exp(z) / (1 + z**2)),
    ("log(1 - 2*log(abs(z)))", lambda z: cmath.log(1 - 2 * cmath.log(abs(z)))),
    ("pow(1 + abs(z)^2, 0.5)", lambda z: cmath.sqrt(1 + abs(z) ** 2)),
    ("(3*z*abs(z)^2 - z*abs(z)^8)", lambda z: 3 * z * abs(z) ** 2 - z * abs(z) ** 8),
]


@pytest.mark.parametrize("source,ref", CASES, ids=[c[0] for c in CASES])
@given(z=points)
def test_eval_value_matches_reference(source, ref, z):
    got = DslMap(source).value(z)
    assert cmath.isclose(got, ref(z), rel_tol=1e-12, abs_tol=1e-12)


@pytest.mark.parametrize("source,ref", CASES, ids=[c[0] for c in CASES])
@given(z=points)
def test_jets_match_finite_differences(source, ref, z):
    jet = DslMap(source).jet(z)
    fd = finite_difference_jet(ref, z, h=1e-6)
    scale = 1.0 + abs(jet.dz) + abs(jet.dzbar)
    assert cmath.isclose(jet.dz, fd.dz, abs_tol=2e-5 * scale)
    assert cmath.isclose(jet.dzbar, fd.dzbar, abs_tol=2e-5 * scale)


@pytest.mark.parametrize("source,ref", CASES, ids=[c[0] for c in CASES])
def test_array_paths_agree_with_scalar(source, ref):
    # A point's value and jet are its entries in a batch, bit for bit.
    m = DslMap(source)
    rng = np.random.default_rng(7)
    z = (rng.uniform(0.05, 0.9, 40) *
         np.exp(2j * np.pi * rng.uniform(size=40))).astype(complex)
    vals = value_array(m.ast, z)
    v, dz, db = jet_arrays(m.ast, z)
    for i, zi in enumerate(z):
        jet = m.jet(zi)
        assert (m.value(zi), *jet) == (vals[i], v[i], dz[i], db[i])


def test_abs_jet_rule_exact():
    # d|z|/dz = conj(z)/(2|z|), d|z|/dzbar = z/(2|z|): check on abs(z)^3.
    jet = DslMap("abs(z)^3").jet(0.3 + 0.4j)
    r = 0.5
    z = 0.3 + 0.4j
    assert cmath.isclose(jet.dz, 3 * r * z.conjugate() / 2, rel_tol=1e-14)
    assert cmath.isclose(jet.dzbar, 3 * r * z / 2, rel_tol=1e-14)


def test_integer_power_jets_are_exact():
    jet = DslMap("z^3").jet(0.5j)
    assert cmath.isclose(jet.dz, 3 * (0.5j) ** 2, rel_tol=1e-14)
    assert jet.dzbar == 0
    jet = DslMap("conj(z)^-2").jet(0.5 + 0.25j)
    assert jet.dz == 0
    assert cmath.isclose(jet.dzbar, -2 * (0.5 - 0.25j) ** -3, rel_tol=1e-13)


@pytest.mark.parametrize("bad", ["z +* 2", "conj(z", "2 ** z", "z @ 1", "",
                                 "foo(z)", "z^z^", "1e999", "2*z + 1e400",
                                 "pow(z, 1e200*1e200)",
                                 pytest.param("+".join(["z"] * 3000), id="3000-term-sum")])
def test_parse_errors_carry_position(bad):
    with pytest.raises(ParseError) as exc:
        parse_expr(bad)
    assert exc.value.position >= 0


def test_operator_chains_count_toward_the_depth_limit():
    # A 200-term sum is a tree 200 levels deep, inside the limit of 256.
    assert DslMap("+".join(["z"] * 200)).value(0.5) == 100
    with pytest.raises(ParseError, match="nested deeper than 256"):
        parse_expr("*".join(["z"] * 300))
    with pytest.raises(ParseError, match="nested deeper than 256"):
        parse_expr("pow(z, " + "+".join(["1"] * 300) + ")")


# Every parse error the parser raises, with its message and source offset.
PARSE_ERRORS = [
    ("z +* 2", "unexpected token '*'", 3),
    ("conj(z", "expected ')'", 6),
    ("2 ** z", "unexpected token '*'", 3),
    ("z @ 1", "unexpected character '@'", 2),
    ("", "unexpected token ''", 0),
    ("   ", "unexpected token ''", 3),
    ("foo(z)", "unknown identifier 'foo'", 0),
    ("z^z^", "expected an integer exponent after '^'", 2),
    ("1e999", "numeric literal '1e999' overflows", 0),
    ("2*z + 1e400", "numeric literal '1e400' overflows", 6),
    ("pow(z, 1e200*1e200)", "pow exponent must be finite", 12),
    ("pow(z, z)", "pow exponent must be a constant expression", 7),
    ("pow(z, i)", "pow exponent must be real", 7),
    ("pow(z)", "pow takes exactly two arguments", 0),
    ("pow(z, 1, 2)", "pow takes exactly two arguments", 0),
    ("conj(z, z)", "conj takes exactly one argument", 0),
    ("re()", "unexpected token ')'", 3),
    ("z^2.5", "exponent after '^' must be an integer; use pow(u, c) for real powers", 2),
    ("z^1e3", "exponent after '^' must be an integer; use pow(u, c) for real powers", 2),
    ("abs(z)^64.0", "exponent after '^' must be an integer; use pow(u, c) for real powers", 7),
    ("z^65", "|exponent| must be <= 64", 2),
    ("z^-65", "|exponent| must be <= 64", 3),
    ("z^-", "expected an integer exponent after '^'", 3),
    ("z^(2)", "expected an integer exponent after '^'", 2),
    ("pi^", "expected an integer exponent after '^'", 3),
    ("(z", "expected ')'", 2),
    ("z)", "unexpected trailing input ')'", 1),
    ("z z", "unexpected trailing input 'z'", 2),
    ("i i", "unexpected trailing input 'i'", 2),
    ("e(z)", "unexpected trailing input '('", 1),
    ("z^-64^2", "unexpected trailing input '^'", 5),
    ("1.2.3", "unexpected trailing input '.3'", 3),
    ("1e", "unexpected trailing input 'e'", 1),
    ("abs(z))", "unexpected trailing input ')'", 6),
    ("- -z", "unexpected token '-'", 2),
    ("-" * 300 + "z", "unexpected token '-'", 1),
    ("-", "unexpected token ''", 1),
    ("conj z", "expected '('", 5),
    ("log", "expected '('", 3),
    ("log(", "unexpected token ''", 4),
    ("exp(z,)", "unexpected token ')'", 6),
    (",z", "unexpected token ','", 0),
    ("z +", "unexpected token ''", 3),
    ("z − ", "unexpected token ''", 4),
    ("3 + 4 +", "unexpected token ''", 7),
    ("z^ 3 . 4", "unexpected character '.'", 5),
    (".", "unexpected character '.'", 0),
    ("z $", "unexpected character '$'", 2),
    ("é", "unexpected character 'é'", 0),
    ("z\t+  @", "unexpected character '@'", 5),
    ("(" * 300 + "z" + ")" * 300, "expression nested deeper than 256", 128),
    ("*".join(["z"] * 300), "expression nested deeper than 256", 88),
    ("pow(z, " + "+".join(["1"] * 300) + ")", "expression nested deeper than 256", 95),
    ("+".join(["z"] * 3000), "expression nested deeper than 256", 5488),
]


@pytest.mark.parametrize("source,message,position", PARSE_ERRORS,
                         ids=[repr(case[0][:24]) for case in PARSE_ERRORS])
def test_parse_errors_keep_their_message_and_position(source, message, position):
    with pytest.raises(ParseError) as exc:
        parse_expr(source)
    assert (exc.value.message, exc.value.position) == (message, position)
    assert str(exc.value) == f"{message} (at position {position})"


def test_scalar_eval_is_strict_about_domain():
    # A singular argument gives a non-finite entry, which one point refuses.
    with pytest.raises(ValueError, match=r"not finite at z = 0j"):
        DslMap("1/z").value(0j)
    with pytest.raises(ValueError, match=r"not finite at z = 0j"):
        DslMap("log(z)").jet(0j)
    # abs is finite at 0 but its derivatives are not.
    assert DslMap("abs(z)").value(0j) == 0
    with pytest.raises(ValueError):
        DslMap("abs(z)").jet(0j)


def test_zero_power_is_one_at_a_zero_base():
    m = DslMap("z + z^0")
    assert m.value(0j) == 1
    assert m.jet(0j).value == 1
    assert value_array(m.ast, np.array([0j]))[0] == 1
    assert jet_arrays(m.ast, np.array([0j]))[0][0] == 1
    with pytest.raises(ValueError):
        DslMap("z^-1").value(0j)


def test_array_eval_propagates_nan_instead_of_raising():
    vals = value_array(parse_expr("1/z"), np.array([0j, 0.5 + 0j]))
    assert not np.isfinite(vals[0])
    assert vals[1] == pytest.approx(2.0)


def test_to_source_round_trips_evaluation():
    for source, _ in CASES:
        ast = parse_expr(source)
        again = parse_expr(to_source(ast))
        z = np.array([0.3 + 0.1j, -0.2 + 0.5j, 0.7])
        assert np.allclose(value_array(ast, z), value_array(again, z), rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("source,z,expected", [
    ("-z^2", 1.5, -2.25),
    ("-2^2", 0.0, -4.0),
    ("z*-z^2", 1.5, -3.375),
])
def test_power_binds_tighter_than_unary_minus(source, z, expected):
    m = DslMap(source)
    assert m.value(z) == expected
    assert parse_expr(to_source(m.ast)) == m.ast


# Random sources over every operation.  Each compound piece is bracketed or
# a call, so any piece can stand where an atom is expected.
_LEAVES = st.one_of(st.sampled_from(["z", "i", "e", "pi"]),
                    st.integers(0, 20).map(str),
                    st.floats(0.001, 100.0).map(repr))
_POW_EXPONENTS = st.sampled_from(["0.5", "-1.5", "2", "1/3", "pi - 3", "-e"])


def _compound(pieces):
    return st.one_of(
        st.tuples(pieces, st.sampled_from("+-*/"), pieces).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"),
        pieces.map(lambda a: f"(-{a})"),
        st.tuples(pieces, st.integers(-3, 3)).map(lambda t: f"({t[0]}^{t[1]})"),
        st.tuples(pieces, st.integers(-3, 3)).map(lambda t: f"(-{t[0]}^{t[1]})"),
        st.tuples(pieces, _POW_EXPONENTS).map(lambda t: f"pow({t[0]}, {t[1]})"),
        st.tuples(st.sampled_from(["conj", "re", "im", "abs", "log", "exp"]), pieces).map(
            lambda t: f"{t[0]}({t[1]})"),
    )


SOURCES = st.recursive(_LEAVES, _compound, max_leaves=10)
GRID = np.array([0.3 + 0.1j, -0.2 + 0.5j, 0.7, -0.45j])


@given(source=SOURCES)
def test_to_source_reparses_to_an_equal_tree(source):
    ast = parse_expr(source)
    assert parse_expr(to_source(ast)) == ast


@given(source=SOURCES)
def test_contains_var_exactly_when_z_appears(source):
    # No function, constant or number spells the letter z.
    assert contains_var(parse_expr(source)) == ("z" in source)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal bit for bit (signed zeros included), any nan matching any nan."""
    x, y = a.view(float), b.view(float)
    return bool(np.all((x.view(np.int64) == y.view(np.int64)) | (np.isnan(x) & np.isnan(y))))


@given(source=SOURCES)
# Python's complex power at a point once gave (-z^2)^2 at -0.45i the other
# signed zero, and so log the other side of its cut.
@example(source="log(-((-z^2)^2))")
def test_scalar_jets_match_array_jets_where_finite(source):
    # A point's jet is its entry in a batch, bit for bit, finite or not.
    ast = parse_expr(source)
    batch = jet_arrays(ast, GRID)
    for k in range(GRID.size):
        alone = jet_arrays(ast, GRID[k:k + 1])
        assert all(same_bits(a, b[k:k + 1]) for a, b in zip(alone, batch))


def test_negative_power_takes_the_array_paths_signed_zero():
    # z^-1 at 0.7 is numpy's reciprocal 1/0.7 - 0i, so -log(-z^-1) takes -pi.
    m = DslMap("-log(-z^-1)")
    assert m.jet(0.7).value.imag == -math.pi
    # Where the power overflows, the entry is inf and one point refuses it.
    assert np.isinf(value_array(parse_expr("z^-2"), np.array([1e-200]))[0])
    with pytest.raises(ValueError):
        DslMap("z^-2").jet(1e-200)


@pytest.mark.parametrize("source", ["z", "2", "conj(z)", "z + 0*conj(z)", "abs(z)"])
def test_results_share_no_memory_with_the_input_or_each_other(source):
    # z alone used to come back as the caller's own array, and a constant's
    # dz and dzbar as one shared zeros array.
    z = np.array([0.3 + 0.1j, -0.2j])
    saved = z.copy()
    ast = parse_expr(source)
    value = value_array(ast, z)
    value[:] = 7.0
    jets = jet_arrays(ast, z)
    for k, part in enumerate(jets):
        part[:] = 9.0 + k
    assert [part.tolist() for part in jets] == [[9.0 + k] * 2 for k in range(3)]
    assert np.array_equal(z, saved)


def _dense_jet(ast, z):
    """The jet rules on the dense env (z, ones, zeros): full arithmetic on
    every partial, as before the markers (only z^0 still gives the zero
    marker, here made an array)."""
    with np.errstate(all="ignore"):
        parts = expr._jet(ast, (z, np.ones(z.shape, complex), np.zeros(z.shape, complex)))
    return [np.broadcast_to(np.asarray(0j if part is expr._ZERO else part, dtype=complex),
                            z.shape).copy() for part in parts]


def _singular_constant(ast) -> bool:
    """True where a z-free subtree's own jet rule fails, as abs(0) and
    pow(0, 0.5) do: its dense partials are nan, its marker partials 0."""
    stack = [ast]
    while stack:
        node = stack.pop()
        if not contains_var(node):
            if not all(np.isfinite(part).all() for part in _dense_jet(node, GRID[:1])[1:]):
                return True
        else:
            stack.extend(node.args)
    return False


def _finite_points(parts) -> np.ndarray:
    return np.all([np.isfinite(part) for part in parts], axis=0)


@given(source=SOURCES)
@example(source="z + abs(0)")
@example(source="pow(0/z, 1/3)")
@example(source="(z - z)^-1")
# Each helper's marker branches, and products of two full partials.
@example(source="(3 - z) * (conj(z) - 2) - (z - conj(z))")
@example(source="(2*z + i)^3 * exp(z) / (1 + 0.5*conj(z)^2)")
@example(source="re(z)*im(z) - abs(z)^3 + pow(1 + z, 0.5)*log(2 - conj(z))")
@example(source="exp(z*z)*exp(conj(z)*z) + (-z)*(-conj(z)^-2)")
def test_marker_jets_equal_dense_jets(source):
    ast = parse_expr(source)
    marked, dense = jet_arrays(ast, GRID), _dense_jet(ast, GRID)
    assert same_bits(marked[0], dense[0])
    for part, reference in zip(marked[1:], dense[1:]):
        # Equal where the dense partial is finite (a zero's sign may differ),
        # so a marker never makes a partial non-finite.
        finite = np.isfinite(reference)
        assert np.array_equal(part[finite], reference[finite])
    # A point's jet fails with markers exactly where it fails dense, except
    # below a singular constant, whose derivative the markers keep exactly 0.
    if not _singular_constant(ast):
        assert np.array_equal(_finite_points(marked), _finite_points(dense))


def test_a_constant_with_a_singular_rule_has_zero_partials():
    # Dense arithmetic gives d abs(u) = (conj(u) du + u conj(du bar)) / (2|u|),
    # 0/0 at u = 0 even where du = 0; the zero marker skips it.
    value, dz, dzbar = jet_arrays(parse_expr("z + abs(0)"), GRID)
    assert np.array_equal(value, GRID)
    assert dz.tolist() == [1] * GRID.size and dzbar.tolist() == [0] * GRID.size
    assert np.isnan(_dense_jet(parse_expr("z + abs(0)"), GRID)[1]).all()


@pytest.mark.parametrize("source,analytic", [
    ("(1 + 2*i)*z + 3", True), ("z*exp(z)/(1 - 0.5*z)^2", True), ("log(2 + z)", True),
    ("conj(z)^3 - 2*i*conj(z)", False), ("exp(conj(z))", False),
])
def test_holomorphic_subtrees_carry_the_zero_marker(source, analytic):
    # An analytic source does no d/dzbar arithmetic, an anti-analytic one no
    # d/dz arithmetic: that partial stays the marker to the end.
    _, dz, dzbar = expr._jet(parse_expr(source), (GRID, expr._ONE, expr._ZERO))
    assert (dzbar if analytic else dz) is expr._ZERO
    assert (dz if analytic else dzbar) is not expr._ZERO
    assert dz is not expr._ONE and dzbar is not expr._ONE
    _, dz, dzbar = expr._jet(parse_expr("z"), (GRID, expr._ONE, expr._ZERO))
    assert (dz, dzbar) == (expr._ONE, expr._ZERO)


# --- blocked evaluation -----------------------------------------------------


def _whole_array(ast, z):
    """value_array and jet_arrays as one pass over the whole array, as before
    blocking: the value, then the jet with its markers made arrays."""
    with np.errstate(all="ignore"):
        value = expr._value(ast, z)
        jet = expr._jet(ast, (z, expr._ONE, expr._ZERO))
    parts = [0j if part is expr._ZERO else 1 + 0j if part is expr._ONE else part
             for part in jet]
    return [np.broadcast_to(np.asarray(part, dtype=complex), z.shape).copy()
            for part in (value, *parts)]


def _assert_blocked_equals_whole_array(ast, z):
    want = _whole_array(ast, z)
    got = [value_array(ast, z), *jet_arrays(ast, z)]
    for a, b in zip(got, want):
        assert a.shape == z.shape and same_bits(a.reshape(-1), b.reshape(-1))


_BLOCK_SIZES = [0, 1, expr._BLOCK - 1, expr._BLOCK, expr._BLOCK + 1, 3 * expr._BLOCK + 5]


def _block_points(n: int) -> np.ndarray:
    """n points of the disk, every 97th at 0, where 1/z and log are infinite
    and the abs and pow jets nan."""
    rng = np.random.default_rng(n)
    z = rng.uniform(0.0, 0.95, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    z[::97] = 0.0
    return z


# Marker partials (z, conj(z), z^0), constants only (broadcast) and points
# that give nan or inf.
@pytest.mark.parametrize("source", ["z", "conj(z)", "z^0", "7 - 2*i", "abs(-3)*pi", "1/z",
                                    "exp(z)*conj(z)^2 + log(abs(z)) - pow(z, 0.5)"])
def test_blocked_evaluation_equals_one_whole_array_pass(source):
    ast = parse_expr(source)
    for n in _BLOCK_SIZES:
        _assert_blocked_equals_whole_array(ast, _block_points(n))
    # A 2-D input with rows across block boundaries, and a 0-d one.
    _assert_blocked_equals_whole_array(ast, _block_points(3 * 2000).reshape(3, 2000))
    _assert_blocked_equals_whole_array(ast, np.asarray(0.3 - 0.4j))
    _assert_blocked_equals_whole_array(ast, np.asarray(0j))


_ACROSS_BLOCKS = np.resize(np.concatenate([GRID, [0j]]), expr._BLOCK + 3)


@given(source=SOURCES)
def test_blocked_evaluation_equals_one_whole_array_pass_for_any_source(source):
    _assert_blocked_equals_whole_array(parse_expr(source), _ACROSS_BLOCKS)

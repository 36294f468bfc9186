import cmath

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diskmaps.expr import (EvalDomainError, ParseError, contains_var, eval_jet,
                           eval_value, jet_arrays, parse_expr, to_source, value_array)
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
    got = eval_value(parse_expr(source), z)
    assert cmath.isclose(got, ref(z), rel_tol=1e-12, abs_tol=1e-12)


@pytest.mark.parametrize("source,ref", CASES, ids=[c[0] for c in CASES])
@given(z=points)
def test_jets_match_finite_differences(source, ref, z):
    jet = eval_jet(parse_expr(source), z)
    fd = finite_difference_jet(ref, z, h=1e-6)
    scale = 1.0 + abs(jet.dz) + abs(jet.dzbar)
    assert cmath.isclose(jet.dz, fd.dz, abs_tol=2e-5 * scale)
    assert cmath.isclose(jet.dzbar, fd.dzbar, abs_tol=2e-5 * scale)


@pytest.mark.parametrize("source,ref", CASES, ids=[c[0] for c in CASES])
def test_array_paths_agree_with_scalar(source, ref):
    ast = parse_expr(source)
    rng = np.random.default_rng(7)
    z = (rng.uniform(0.05, 0.9, 40) *
         np.exp(2j * np.pi * rng.uniform(size=40))).astype(complex)
    vals = value_array(ast, z)
    v, dz, db = jet_arrays(ast, z)
    for i, zi in enumerate(z):
        assert cmath.isclose(vals[i], eval_value(ast, complex(zi)),
                             rel_tol=1e-12, abs_tol=1e-12)
        jet = eval_jet(ast, complex(zi))
        assert cmath.isclose(v[i], jet.value, rel_tol=1e-12, abs_tol=1e-12)
        assert cmath.isclose(dz[i], jet.dz, rel_tol=1e-12, abs_tol=1e-12)
        assert cmath.isclose(db[i], jet.dzbar, rel_tol=1e-12, abs_tol=1e-12)


def test_abs_jet_rule_exact():
    # d|z|/dz = conj(z)/(2|z|), d|z|/dzbar = z/(2|z|): check on abs(z)^3.
    jet = eval_jet(parse_expr("abs(z)^3"), 0.3 + 0.4j)
    r = 0.5
    z = 0.3 + 0.4j
    assert cmath.isclose(jet.dz, 3 * r * z.conjugate() / 2, rel_tol=1e-14)
    assert cmath.isclose(jet.dzbar, 3 * r * z / 2, rel_tol=1e-14)


def test_integer_power_jets_are_exact():
    jet = eval_jet(parse_expr("z^3"), 0.5j)
    assert cmath.isclose(jet.dz, 3 * (0.5j) ** 2, rel_tol=1e-14)
    assert jet.dzbar == 0
    jet = eval_jet(parse_expr("conj(z)^-2"), 0.5 + 0.25j)
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
    assert eval_value(parse_expr("+".join(["z"] * 200)), 0.5) == 100
    with pytest.raises(ParseError, match="nested deeper than 256"):
        parse_expr("*".join(["z"] * 300))
    with pytest.raises(ParseError, match="nested deeper than 256"):
        parse_expr("pow(z, " + "+".join(["1"] * 300) + ")")


def test_scalar_eval_is_strict_about_domain():
    with pytest.raises(EvalDomainError):
        eval_value(parse_expr("1/z"), 0j)
    with pytest.raises(EvalDomainError):
        eval_jet(parse_expr("log(z)"), 0j)


def test_zero_power_is_one_at_a_zero_base():
    ast = parse_expr("z + z^0")
    assert eval_value(ast, 0j) == 1
    assert eval_jet(ast, 0j).value == 1
    assert value_array(ast, np.array([0j]))[0] == 1
    assert jet_arrays(ast, np.array([0j]))[0][0] == 1
    with pytest.raises(EvalDomainError):
        eval_value(parse_expr("z^-1"), 0j)


def test_array_eval_propagates_nan_instead_of_raising():
    vals = value_array(parse_expr("1/z"), np.array([0j, 0.5 + 0j]))
    assert not np.isfinite(vals[0])
    assert vals[1] == pytest.approx(2.0)


def test_to_source_round_trips_evaluation():
    for source, _ in CASES:
        ast = parse_expr(source)
        again = parse_expr(to_source(ast))
        for z in (0.3 + 0.1j, -0.2 + 0.5j, 0.7):
            assert cmath.isclose(eval_value(ast, z), eval_value(again, z),
                                 rel_tol=1e-14, abs_tol=1e-14)


@pytest.mark.parametrize("source,z,expected", [
    ("-z^2", 1.5, -2.25),
    ("-2^2", 0.0, -4.0),
    ("z*-z^2", 1.5, -3.375),
])
def test_power_binds_tighter_than_unary_minus(source, z, expected):
    ast = parse_expr(source)
    assert eval_value(ast, z) == expected
    assert parse_expr(to_source(ast)) == ast


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


def _near_branch_cut(ast, z):
    """True if a log or pow argument is (nearly) a negative real at z.

    There the scalar path (Python complex arithmetic on the leaves) and the
    array path (numpy) may land on opposite sides of the cut, for instance
    through the sign of a zero imaginary part of z^-1.
    """
    stack = [ast]
    while stack:
        node = stack.pop()
        stack.extend(node.args)
        if node.op in ("log", "pow"):
            u = eval_value(node.args[0], z)
            if u.real < 0 and abs(u.imag) <= 1e-9 * abs(u):
                return True
    return False


@given(source=SOURCES)
def test_scalar_jets_match_array_jets_where_finite(source):
    ast = parse_expr(source)
    arrays = jet_arrays(ast, GRID)
    for k, z in enumerate(GRID):
        try:
            with np.errstate(all="ignore"):
                jet = eval_jet(ast, complex(z))
                if _near_branch_cut(ast, complex(z)):
                    continue
        except EvalDomainError:
            continue
        for got, ref in zip((arrays[0][k], arrays[1][k], arrays[2][k]),
                            (jet.value, jet.dz, jet.dzbar)):
            if cmath.isfinite(ref):
                assert cmath.isclose(got, ref, rel_tol=1e-12, abs_tol=1e-12)

"""A small complex-expression language with exact forward-mode Wirtinger jets.

Grammar (binary operators left-associative; `^` binds tighter than unary
minus, so -z^2 is -(z^2), as in Python):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-'? power
    power   := atom ('^' integer)?
    atom    := number | 'z' | 'i' | 'e' | 'pi'
             | func '(' expr (',' expr)* ')'
             | '(' expr ')'

Functions: conj, re, im, abs, log, exp take one argument; pow(u, c) takes a
constant real exponent (any z-free expression).  `abs` is a primitive with
its own derivative rule, so non-analytic maps carry exact jets.  The unicode
minus sign is accepted wherever '-' is.  Integer exponents are limited to
|n| <= 64, and both bracket nesting and the depth of the expression tree
(where an operator chain z + z + ... + z counts one level per operator) to
256.  The exponent of pow must be finite.

Every operation is declared once, in `_OPS`: how it prints, its value rule,
its Wirtinger derivative rule, and the zero argument at which scalar
evaluation raises.  An expression is a tree of one node type, `ExprAst`,
and the walkers (`_value`, `_jet`, `contains_var`, `to_source`) recurse over
it generically, looking each operation up in that table.

Evaluation is numpy-aware: `z` may be a scalar or an ndarray.  Scalar
evaluation raises `EvalDomainError` at singular arguments; array evaluation
lets non-finite values propagate so grid scans can mask them.
"""

from __future__ import annotations

import cmath
import math
import operator
import re as _re
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Optional, Tuple, Union

import numpy as np

from .wirtinger import WirtingerJet

__all__ = [
    "ExprAst",
    "ParseError",
    "EvalDomainError",
    "parse_expr",
    "eval_value",
    "eval_jet",
    "value_array",
    "jet_arrays",
    "contains_var",
    "to_source",
]


class ParseError(ValueError):
    """Syntax or structural error in an expression, with source position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


class EvalDomainError(ValueError):
    """Evaluation hit a singular argument (log/abs/pow/division at zero)."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (expression position {position})")
        self.message = message
        self.position = position


# --- AST ------------------------------------------------------------------


@dataclass(frozen=True)
class ExprAst:
    """One expression node.

    `op` is a key of `_OPS`, or a leaf: 'z', 'num' or a named constant
    ('i', 'e', 'pi').  `args` are the argument nodes.  `param` is the value
    of a number or constant leaf, the integer exponent of '^' and the real
    exponent of 'pow', and None otherwise.  `pos` is the source offset
    reported in errors; it takes no part in equality.
    """

    op: str
    args: Tuple["ExprAst", ...] = ()
    param: Union[int, float, complex, None] = None
    pos: int = field(default=0, compare=False)


# A jet triple (value, d/dz, d/dzbar); entries are numpy scalars or arrays.
_Triple = tuple


class _Op(NamedTuple):
    """The single declaration of one operation.

    source: `str.format` template; {0}, {1} are the printed arguments and
        {p} the printed parameter.
    value: (*argument values, param if not None) -> value.
    jet: (param, value, zero, *argument jets) -> (d/dz, d/dzbar), where each
        argument jet is a triple (value, d/dz, d/dzbar) and `zero` is the
        evaluation's shared zero derivative.
    singular: (param, value of the last argument) -> True where scalar
        evaluation raises EvalDomainError(message); None if never.
    jet_only: the singular check applies to jet evaluation only.
    """

    source: str
    value: Callable
    jet: Callable
    singular: Optional[Callable] = None
    message: str = ""
    jet_only: bool = False


def _at_zero(param, x) -> bool:
    return x == 0


def _quotient_jet(p, w, zero, a: _Triple, b: _Triple):
    den = b[0] * b[0]
    return (a[1] * b[0] - a[0] * b[1]) / den, (a[2] * b[0] - a[0] * b[2]) / den


def _int_power_jet(n: int, w, zero, u: _Triple):
    if n == 0:
        return zero, zero
    dfactor = n * u[0] ** (n - 1) if n != 1 else 1.0
    return dfactor * u[1], dfactor * u[2]


def _real_power_jet(c: float, w, zero, u: _Triple):
    dfactor = c * np.power(u[0], c - 1.0)
    return dfactor * u[1], dfactor * u[2]


def _abs_jet(p, w, zero, u: _Triple):
    cu, m2 = np.conj(u[0]), 2.0 * w.real  # w = |u| + 0j
    return (cu * u[1] + u[0] * np.conj(u[2])) / m2, (cu * u[2] + u[0] * np.conj(u[1])) / m2


_OPS = {
    "neg": _Op("-({0})", operator.neg, lambda p, w, zero, u: (-u[1], -u[2])),
    "+": _Op("({0} + {1})", operator.add,
             lambda p, w, zero, a, b: (a[1] + b[1], a[2] + b[2])),
    "-": _Op("({0} - {1})", operator.sub,
             lambda p, w, zero, a, b: (a[1] - b[1], a[2] - b[2])),
    "*": _Op("({0} * {1})", operator.mul,
             lambda p, w, zero, a, b: (a[1] * b[0] + a[0] * b[1], a[2] * b[0] + a[0] * b[2])),
    "/": _Op("({0} / {1})", operator.truediv, _quotient_jet, _at_zero, "division by zero"),
    "^": _Op("({0})^{p}", operator.pow, _int_power_jet, lambda n, x: n < 0 and x == 0,
             "zero base with non-positive exponent"),
    "pow": _Op("pow({0}, {p})", np.power, _real_power_jet, _at_zero, "pow at zero base"),
    "conj": _Op("conj({0})", np.conj, lambda p, w, zero, u: (np.conj(u[2]), np.conj(u[1]))),
    "re": _Op("re({0})", lambda u: (u + np.conj(u)) / 2.0,
              lambda p, w, zero, u: ((u[1] + np.conj(u[2])) / 2.0,
                                     (u[2] + np.conj(u[1])) / 2.0)),
    "im": _Op("im({0})", lambda u: (u - np.conj(u)) / 2j,
              lambda p, w, zero, u: ((u[1] - np.conj(u[2])) / 2j,
                                     (u[2] - np.conj(u[1])) / 2j)),
    "abs": _Op("abs({0})", lambda u: np.abs(u) + 0j, _abs_jet, _at_zero,
               "abs jet at zero argument", jet_only=True),
    "log": _Op("log({0})", np.log, lambda p, w, zero, u: (u[1] / u[0], u[2] / u[0]),
               _at_zero, "log at zero argument"),
    "exp": _Op("exp({0})", np.exp, lambda p, w, zero, u: (w * u[1], w * u[2])),
}

# Operations written as calls, name(args); the rest are operators.
_FUNCTIONS = frozenset(op for op, rule in _OPS.items() if rule.source.startswith(op + "("))
_CONSTS = {"i": 1j, "e": math.e, "pi": math.pi}
_MAX_EXPONENT = 64
_MAX_DEPTH = 256


def contains_var(node: ExprAst) -> bool:
    """True if the expression references the variable z anywhere."""
    if not node.args:
        return node.op == "z"
    return any(contains_var(arg) for arg in node.args)


# --- tokenizer --------------------------------------------------------------

_TOKEN_RE = _re.compile(
    r"\s*(?:(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<sym>[-+*/^(),]))"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # 'number', 'ident', 'sym', 'end'
    text: str
    pos: int


def _tokenize(source: str) -> Iterator[_Token]:
    # U+2212 is normalized to ASCII '-' (both are one code point, offsets hold).
    text = source.replace("−", "-")
    pos = 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = pos + (len(text[pos:]) - len(stripped))
            raise ParseError(f"unexpected character {stripped[0]!r}", bad_at)
        kind = m.lastgroup
        assert kind is not None
        yield _Token(kind, m.group(kind), m.start(kind))
        pos = m.end()
    yield _Token("end", "", n)


# --- parser -----------------------------------------------------------------


class _Parser:
    def __init__(self, source: str):
        self.tokens = list(_tokenize(source))
        self.index = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def take(self) -> _Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect_sym(self, sym: str) -> _Token:
        tok = self.peek()
        if tok.kind != "sym" or tok.text != sym:
            raise ParseError(f"expected {sym!r}", tok.pos)
        return self.take()

    def _enter(self, pos: int) -> None:
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {_MAX_DEPTH}", pos)

    def parse(self) -> ExprAst:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
        _check_depth(node)
        return node

    def expr(self) -> ExprAst:
        self._enter(self.peek().pos)
        try:
            node = self.term()
            while self.peek().kind == "sym" and self.peek().text in "+-":
                op = self.take()
                node = ExprAst(op.text, (node, self.term()), pos=op.pos)
            return node
        finally:
            self.depth -= 1

    def term(self) -> ExprAst:
        node = self.unary()
        while self.peek().kind == "sym" and self.peek().text in "*/":
            op = self.take()
            node = ExprAst(op.text, (node, self.unary()), pos=op.pos)
        return node

    def unary(self) -> ExprAst:
        tok = self.peek()
        if tok.kind == "sym" and tok.text == "-":
            self.take()
            return ExprAst("neg", (self.power(),), pos=tok.pos)
        return self.power()

    def power(self) -> ExprAst:
        node = self.atom()
        if self.peek().kind == "sym" and self.peek().text == "^":
            caret = self.take()
            node = ExprAst("^", (node,), self._integer_exponent(), pos=caret.pos)
        return node

    def _integer_exponent(self) -> int:
        sign = 1
        tok = self.peek()
        if tok.kind == "sym" and tok.text == "-":
            self.take()
            sign = -1
            tok = self.peek()
        if tok.kind != "number":
            raise ParseError("expected an integer exponent after '^'", tok.pos)
        self.take()
        if any(c in tok.text for c in ".eE"):
            raise ParseError(
                "exponent after '^' must be an integer; use pow(u, c) for real powers",
                tok.pos,
            )
        n = sign * int(tok.text)
        if abs(n) > _MAX_EXPONENT:
            raise ParseError(f"|exponent| must be <= {_MAX_EXPONENT}", tok.pos)
        return n

    def atom(self) -> ExprAst:
        tok = self.take()
        self._enter(tok.pos)
        try:
            if tok.kind == "number":
                value = float(tok.text)
                if not math.isfinite(value):
                    raise ParseError(f"numeric literal {tok.text!r} overflows", tok.pos)
                return ExprAst("num", param=value, pos=tok.pos)
            if tok.kind == "ident":
                return self._ident(tok)
            if tok.kind == "sym" and tok.text == "(":
                node = self.expr()
                self.expect_sym(")")
                return node
            raise ParseError(f"unexpected token {tok.text!r}", tok.pos)
        finally:
            self.depth -= 1

    def _ident(self, tok: _Token) -> ExprAst:
        name = tok.text
        if name == "z":
            return ExprAst("z", pos=tok.pos)
        if name in _CONSTS:
            return ExprAst(name, param=_CONSTS[name], pos=tok.pos)
        if name in _FUNCTIONS:
            self.expect_sym("(")
            args = [self.expr()]
            while self.peek().kind == "sym" and self.peek().text == ",":
                self.take()
                args.append(self.expr())
            self.expect_sym(")")
            return self._call(name, args, tok.pos)
        raise ParseError(f"unknown identifier {name!r}", tok.pos)

    def _call(self, name: str, args: list[ExprAst], pos: int) -> ExprAst:
        if name == "pow":
            if len(args) != 2:
                raise ParseError("pow takes exactly two arguments", pos)
            base, exp_node = args
            _check_depth(exp_node)
            if contains_var(exp_node):
                raise ParseError(
                    "pow exponent must be a constant expression", exp_node.pos
                )
            try:
                with np.errstate(all="ignore"):  # an overflow is reported below
                    value = eval_value(exp_node, 0j)
            except EvalDomainError as err:
                raise ParseError(
                    f"pow exponent is singular: {err.message}", exp_node.pos
                ) from err
            if not cmath.isfinite(value):
                raise ParseError("pow exponent must be finite", exp_node.pos)
            if abs(value.imag) > 1e-12 * max(1.0, abs(value)):
                raise ParseError("pow exponent must be real", exp_node.pos)
            return ExprAst("pow", (base,), float(value.real), pos=pos)
        if len(args) != 1:
            raise ParseError(f"{name} takes exactly one argument", pos)
        return ExprAst(name, (args[0],), pos=pos)


def _check_depth(root: ExprAst) -> None:
    """Raise ParseError if the tree is more than _MAX_DEPTH levels deep.

    The evaluators and the printer recurse once per level, so this also
    bounds operator chains (z + z + ... + z), which nest no brackets.
    """
    stack = [(root, 1)]
    while stack:
        node, depth = stack.pop()
        if depth > _MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {_MAX_DEPTH}", node.pos)
        stack.extend((arg, depth + 1) for arg in node.args)


def parse_expr(source: str) -> ExprAst:
    """Parse an expression in the variable z into an immutable AST."""
    return _Parser(source).parse()


# --- evaluation -------------------------------------------------------------


def _value(node: ExprAst, z, strict: bool):
    args, p = node.args, node.param
    if not args:
        return z if node.op == "z" else np.asarray(p, dtype=complex)
    _, value, _, singular, message, jet_only = _OPS[node.op]
    x = _value(args[0], z, strict)
    xs = (x,) if len(args) == 1 else (x, _value(args[1], z, strict))
    if strict and singular is not None and not jet_only and singular(p, xs[-1]):
        raise EvalDomainError(message, node.pos)
    return value(*xs) if p is None else value(*xs, p)


def _jet(node: ExprAst, env: tuple) -> _Triple:
    # env = (z, one, zero, shape, strict); shape is None for scalar z.
    args, p = node.args, node.param
    if not args:
        if node.op == "z":
            return env[0], env[1], env[2]
        shape = env[3]
        c = complex(p) if shape is None else np.broadcast_to(np.asarray(p, dtype=complex), shape)
        return c, env[2], env[2]
    _, value, jet, singular, message, _ = _OPS[node.op]
    u = _jet(args[0], env)
    if len(args) == 1:
        jets, xs = (u,), (u[0],)
    else:
        v = _jet(args[1], env)
        jets, xs = (u, v), (u[0], v[0])
    if env[4] and singular is not None and singular(p, xs[-1]):
        raise EvalDomainError(message, node.pos)
    w = value(*xs) if p is None else value(*xs, p)
    return (w, *jet(p, w, env[2], *jets))


def _jet_env(z, strict: bool) -> tuple:
    """The shared state of one jet evaluation: z, its unit and zero jets."""
    if np.ndim(z):
        shape = np.shape(z)
        return z, np.ones(shape, dtype=complex), np.zeros(shape, dtype=complex), shape, strict
    return z, 1. + 0j, 0j, None, strict


def eval_value(ast: ExprAst, z: complex) -> complex:
    """Evaluate the expression at a scalar point, raising on singular input."""
    return complex(_value(ast, complex(z), strict=True))


def eval_jet(ast: ExprAst, z: complex) -> WirtingerJet:
    """Evaluate value and Wirtinger partials at a scalar point."""
    v, dz, db = _jet(ast, _jet_env(complex(z), strict=True))
    return WirtingerJet(value=complex(v), dz=complex(dz), dzbar=complex(db))


def value_array(ast: ExprAst, z: np.ndarray) -> np.ndarray:
    """Vectorized evaluation; non-finite values propagate instead of raising."""
    zz = np.asarray(z, dtype=complex)
    with np.errstate(all="ignore"):
        out = np.asarray(_value(ast, zz, strict=False), dtype=complex)
    if out.shape != zz.shape:
        out = np.broadcast_to(out, zz.shape).copy()
    return out


def jet_arrays(ast: ExprAst, z: np.ndarray):
    """Vectorized jet evaluation returning (value, dz, dzbar) arrays."""
    zz = np.asarray(z, dtype=complex)
    with np.errstate(all="ignore"):
        v, dz, db = _jet(ast, _jet_env(zz, strict=False))
    out = []
    for a in (v, dz, db):
        arr = np.asarray(a, dtype=complex)
        out.append(np.broadcast_to(arr, zz.shape).copy() if arr.shape != zz.shape else arr)
    return tuple(out)


# --- printing ---------------------------------------------------------------


def _fmt_number(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def to_source(node: ExprAst) -> str:
    """Render an AST to source that reparses to a structurally equal AST."""
    if not node.args:
        return _fmt_number(node.param) if node.op == "num" else node.op
    p = None if node.param is None else _fmt_number(node.param)
    return _OPS[node.op].source.format(*map(to_source, node.args), p=p)

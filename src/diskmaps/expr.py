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

Every operation is declared once, in `_OPS`: how it prints, its value rule
and its Wirtinger derivative rule.  An expression is a tree of one node
type, `ExprAst`, and the walkers (`_value`, `_jet`, `contains_var`,
`to_source`) recurse over it generically, looking each operation up in that
table.

Evaluation runs on arrays only (`value_array`, `jet_arrays`): numpy's
arithmetic elementwise, so a point gets the same bits alone as in a batch.
Jets carry a partial known to be identically 0 or 1 as a marker, not an
array, and skip the arithmetic it makes known.
Singular arguments (log, abs, pow or division at zero) give non-finite
entries instead of raising; `maps.PlanarMap.value` and `jet` turn them into
a ValueError at one point.
"""

from __future__ import annotations

import cmath
import math
import operator
import re as _re
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Tuple, Union

import numpy as np

__all__ = [
    "ExprAst",
    "ParseError",
    "parse_expr",
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


# A jet triple (value, d/dz, d/dzbar).
_Triple = tuple


# Markers for a partial known before evaluation to be identically 0 or 1:
# z's jet is (z, _ONE, _ZERO) and a constant's (c, _ZERO, _ZERO).  The jet
# rules combine partials only through the helpers below, which skip the
# arithmetic a marker makes known: an analytic subtree does no d/dzbar work.
_ZERO, _ONE = object(), object()
_UNIT = np.complex128(1.0)


def _dense(d):
    """The partial d as a number or array: the one marker becomes 1."""
    return _UNIT if d is _ONE else d


def _mul(a, b):
    # Kept in the order a * b: complex products are not bit-commutative.
    if a is _ZERO or b is _ZERO:
        return _ZERO
    if a is _ONE:
        return b
    return a if b is _ONE else a * b


def _add(a, b):
    if a is _ZERO:
        return b
    return a if b is _ZERO else _dense(a) + _dense(b)


def _sub(a, b):
    if b is _ZERO:
        return a
    return _neg(b) if a is _ZERO else _dense(a) - _dense(b)


def _neg(a):
    return a if a is _ZERO else -_dense(a)


def _conj(a):
    return a if a is _ZERO or a is _ONE else np.conj(a)


def _div(a, b):
    return a if a is _ZERO else _dense(a) / b


class _Op(NamedTuple):
    """The single declaration of one operation.

    source: `str.format` template; {0}, {1} are the printed arguments and
        {p} the printed parameter.
    value: (*argument values, param if not None) -> value.
    jet: (param, value, *argument jets) -> (d/dz, d/dzbar), where each
        argument jet is a triple (value, d/dz, d/dzbar).  A partial may be
        the marker _ZERO or _ONE, so the rules combine partials only through
        _mul, _add, _sub, _neg, _conj and _div.
    """

    source: str
    value: Callable
    jet: Callable


def _quotient_jet(p, w, a: _Triple, b: _Triple):
    den = b[0] * b[0]
    return (_div(_sub(_mul(a[1], b[0]), _mul(a[0], b[1])), den),
            _div(_sub(_mul(a[2], b[0]), _mul(a[0], b[2])), den))


def _int_power_jet(n: int, w, u: _Triple):
    if n == 0:
        return _ZERO, _ZERO
    if n == 1:
        return u[1], u[2]
    dfactor = n * u[0] ** (n - 1)
    return _mul(dfactor, u[1]), _mul(dfactor, u[2])


def _real_power_jet(c: float, w, u: _Triple):
    dfactor = c * np.power(u[0], c - 1.0)
    return _mul(dfactor, u[1]), _mul(dfactor, u[2])


def _abs_jet(p, w, u: _Triple):
    cu, m2 = np.conj(u[0]), 2.0 * w.real  # w = |u| + 0j
    return (_div(_add(_mul(cu, u[1]), _mul(u[0], _conj(u[2]))), m2),
            _div(_add(_mul(cu, u[2]), _mul(u[0], _conj(u[1]))), m2))


_OPS = {
    "neg": _Op("-({0})", operator.neg, lambda p, w, u: (_neg(u[1]), _neg(u[2]))),
    "+": _Op("({0} + {1})", operator.add,
             lambda p, w, a, b: (_add(a[1], b[1]), _add(a[2], b[2]))),
    "-": _Op("({0} - {1})", operator.sub,
             lambda p, w, a, b: (_sub(a[1], b[1]), _sub(a[2], b[2]))),
    "*": _Op("({0} * {1})", operator.mul,
             lambda p, w, a, b: (_add(_mul(a[1], b[0]), _mul(a[0], b[1])),
                                 _add(_mul(a[2], b[0]), _mul(a[0], b[2])))),
    "/": _Op("({0} / {1})", operator.truediv, _quotient_jet),
    "^": _Op("({0})^{p}", operator.pow, _int_power_jet),
    "pow": _Op("pow({0}, {p})", np.power, _real_power_jet),
    "conj": _Op("conj({0})", np.conj, lambda p, w, u: (_conj(u[2]), _conj(u[1]))),
    "re": _Op("re({0})", lambda u: (u + np.conj(u)) / 2.0,
              lambda p, w, u: (_div(_add(u[1], _conj(u[2])), 2.0),
                               _div(_add(u[2], _conj(u[1])), 2.0))),
    "im": _Op("im({0})", lambda u: (u - np.conj(u)) / 2j,
              lambda p, w, u: (_div(_sub(u[1], _conj(u[2])), 2j),
                               _div(_sub(u[2], _conj(u[1])), 2j))),
    "abs": _Op("abs({0})", lambda u: np.abs(u) + 0j, _abs_jet),
    "log": _Op("log({0})", np.log, lambda p, w, u: (_div(u[1], u[0]), _div(u[2], u[0]))),
    "exp": _Op("exp({0})", np.exp, lambda p, w, u: (_mul(w, u[1]), _mul(w, u[2]))),
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
            value = complex(value_array(exp_node, 0j))
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


def _value(node: ExprAst, z: np.ndarray):
    args, p = node.args, node.param
    if not args:
        return z if node.op == "z" else np.asarray(p, dtype=complex)
    value = _OPS[node.op].value
    xs = [_value(arg, z) for arg in args]
    return value(*xs) if p is None else value(*xs, p)


def _jet(node: ExprAst, env: tuple) -> _Triple:
    # env = (z, one, zero) is z's jet, and zero is also each partial of a
    # constant.  jet_arrays passes the markers (z, _ONE, _ZERO); a dense env
    # of ones and zeros arrays takes the same rules through full arithmetic.
    args, p = node.args, node.param
    if not args:
        if node.op == "z":
            return env
        # A 0-d constant, as in _value: constant subtrees then take the
        # same scalar arithmetic, so the value part equals value_array's.
        return np.asarray(p, dtype=complex), env[2], env[2]
    _, value, jet = _OPS[node.op]
    jets = [_jet(arg, env) for arg in args]
    xs = [u[0] for u in jets]
    w = value(*xs) if p is None else value(*xs, p)
    return (w, *jet(p, w, *jets))


def _own(arr, shape, taken) -> np.ndarray:
    """arr as a writable array of the given shape that shares no memory with
    the arrays in `taken`; copied only where it would."""
    arr = np.asarray(arr, dtype=complex)
    if (arr.shape != shape or not arr.flags.writeable
            or any(np.may_share_memory(arr, other) for other in taken)):
        arr = np.broadcast_to(arr, shape).copy()
    return arr


def value_array(ast: ExprAst, z) -> np.ndarray:
    """Values shaped like z, in a new array; non-finite where singular."""
    zz = np.asarray(z, dtype=complex)
    with np.errstate(all="ignore"):
        return _own(_value(ast, zz), zz.shape, (zz,))


def jet_arrays(ast: ExprAst, z):
    """(value, dz, dzbar) arrays shaped like z; non-finite where singular.

    The three are new arrays: none shares memory with z or with another.
    A partial known to be identically 0 or 1 is built only here, so its
    exact zeros may carry another sign than full arithmetic would give.
    """
    zz = np.asarray(z, dtype=complex)
    with np.errstate(all="ignore"):
        jet = _jet(ast, (zz, _ONE, _ZERO))
    out = []
    for part in jet:
        if part is _ZERO or part is _ONE:
            part = (np.zeros if part is _ZERO else np.ones)(zz.shape, dtype=complex)
        out.append(_own(part, zz.shape, [zz, *out]))
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

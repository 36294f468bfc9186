"""A small complex-expression language with exact forward-mode Wirtinger jets.

Grammar (binary operators left-associative, `^` applies to the possibly
negated atom and binds tightest):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := unary ('^' integer)?
    unary   := '-'? atom
    atom    := number | 'z' | 'i' | 'e' | 'pi'
             | func '(' expr (',' expr)* ')'
             | '(' expr ')'

Functions: conj, re, im, abs, log, exp take one argument; pow(u, c) takes a
constant real exponent (any z-free expression).  `abs` is a primitive with
its own derivative rule, so non-analytic maps carry exact jets.  The unicode
minus sign is accepted wherever '-' is.  Integer exponents are limited to
|n| <= 64 and nesting depth to 256.

Evaluation is numpy-aware: `z` may be a scalar or an ndarray.  Scalar
evaluation raises `EvalDomainError` at singular arguments; array evaluation
lets non-finite values propagate so grid scans can mask them.
"""

from __future__ import annotations

import math
import re as _re
from dataclasses import dataclass, field
from typing import Iterator, Union

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
class Num:
    value: float
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Var:
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Const:
    name: str  # 'i', 'e' or 'pi'
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Neg:
    arg: "ExprAst"
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '-', '*', '/'
    left: "ExprAst"
    right: "ExprAst"
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class IntPow:
    base: "ExprAst"
    exponent: int
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class PowConst:
    base: "ExprAst"
    exponent: float
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Call:
    func: str  # 'conj', 're', 'im', 'abs', 'log', 'exp'
    arg: "ExprAst"
    pos: int = field(default=0, compare=False)


ExprAst = Union[Num, Var, Const, Neg, BinOp, IntPow, PowConst, Call]

_UNARY_FUNCS = ("conj", "re", "im", "abs", "log", "exp")
_CONSTS = {"i": 1j, "e": math.e, "pi": math.pi}
_MAX_EXPONENT = 64
_MAX_DEPTH = 256


def contains_var(node: ExprAst) -> bool:
    """True if the expression references the variable z anywhere."""
    if isinstance(node, Var):
        return True
    if isinstance(node, (Num, Const)):
        return False
    if isinstance(node, Neg):
        return contains_var(node.arg)
    if isinstance(node, BinOp):
        return contains_var(node.left) or contains_var(node.right)
    if isinstance(node, (IntPow, PowConst)):
        return contains_var(node.base)
    if isinstance(node, Call):
        return contains_var(node.arg)
    raise TypeError(f"not an expression node: {node!r}")


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
        return node

    def expr(self) -> ExprAst:
        self._enter(self.peek().pos)
        try:
            node = self.term()
            while self.peek().kind == "sym" and self.peek().text in "+-":
                op = self.take()
                node = BinOp(op.text, node, self.term(), pos=op.pos)
            return node
        finally:
            self.depth -= 1

    def term(self) -> ExprAst:
        node = self.factor()
        while self.peek().kind == "sym" and self.peek().text in "*/":
            op = self.take()
            node = BinOp(op.text, node, self.factor(), pos=op.pos)
        return node

    def factor(self) -> ExprAst:
        node = self.unary()
        if self.peek().kind == "sym" and self.peek().text == "^":
            caret = self.take()
            node = IntPow(node, self._integer_exponent(), pos=caret.pos)
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

    def unary(self) -> ExprAst:
        tok = self.peek()
        if tok.kind == "sym" and tok.text == "-":
            self.take()
            return Neg(self.atom(), pos=tok.pos)
        return self.atom()

    def atom(self) -> ExprAst:
        tok = self.take()
        self._enter(tok.pos)
        try:
            if tok.kind == "number":
                value = float(tok.text)
                if not math.isfinite(value):
                    raise ParseError(f"numeric literal {tok.text!r} overflows", tok.pos)
                return Num(value, pos=tok.pos)
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
            return Var(pos=tok.pos)
        if name in _CONSTS:
            return Const(name, pos=tok.pos)
        if name in _UNARY_FUNCS or name == "pow":
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
            if contains_var(exp_node):
                raise ParseError(
                    "pow exponent must be a constant expression", exp_node.pos
                )
            try:
                value = eval_value(exp_node, 0j)
            except EvalDomainError as err:
                raise ParseError(
                    f"pow exponent is singular: {err.message}", exp_node.pos
                ) from err
            if abs(value.imag) > 1e-12 * max(1.0, abs(value)):
                raise ParseError("pow exponent must be real", exp_node.pos)
            return PowConst(base, float(value.real), pos=pos)
        if len(args) != 1:
            raise ParseError(f"{name} takes exactly one argument", pos)
        return Call(name, args[0], pos=pos)


def parse_expr(source: str) -> ExprAst:
    """Parse an expression in the variable z into an immutable AST."""
    return _Parser(source).parse()


# --- evaluation -------------------------------------------------------------

# A jet triple (value, d/dz, d/dzbar); entries are numpy scalars or arrays.
_Triple = tuple


def _fail(strict: bool, message: str, pos: int) -> None:
    if strict:
        raise EvalDomainError(message, pos)


def _any_zero(x) -> bool:
    return bool(np.any(x == 0))


def _value(node: ExprAst, z, strict: bool):
    if isinstance(node, Num):
        return np.asarray(node.value, dtype=complex)
    if isinstance(node, Const):
        return np.asarray(_CONSTS[node.name], dtype=complex)
    if isinstance(node, Var):
        return z
    if isinstance(node, Neg):
        return -_value(node.arg, z, strict)
    if isinstance(node, BinOp):
        a = _value(node.left, z, strict)
        b = _value(node.right, z, strict)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if _any_zero(b):
            _fail(strict, "division by zero", node.pos)
        return a / b
    if isinstance(node, IntPow):
        base = _value(node.base, z, strict)
        if node.exponent < 0 and _any_zero(base):
            _fail(strict, "zero base with non-positive exponent", node.pos)
        return base ** node.exponent
    if isinstance(node, PowConst):
        base = _value(node.base, z, strict)
        if _any_zero(base):
            _fail(strict, "pow at zero base", node.pos)
        return np.power(base, node.exponent)
    if isinstance(node, Call):
        u = _value(node.arg, z, strict)
        if node.func == "conj":
            return np.conj(u)
        if node.func == "re":
            return (u + np.conj(u)) / 2.0
        if node.func == "im":
            return (u - np.conj(u)) / 2j
        if node.func == "abs":
            return np.abs(u) + 0j
        if node.func == "log":
            if _any_zero(u):
                _fail(strict, "log at zero argument", node.pos)
            return np.log(u)
        if node.func == "exp":
            return np.exp(u)
    raise TypeError(f"not an expression node: {node!r}")


def _jet(node: ExprAst, z, strict: bool) -> _Triple:
    zero = np.zeros(np.shape(z), dtype=complex) if np.ndim(z) else 0j
    if isinstance(node, (Num, Const)):
        c = _CONSTS[node.name] if isinstance(node, Const) else node.value
        return (np.broadcast_to(np.asarray(c, dtype=complex), np.shape(z)) if np.ndim(z)
                else complex(c), zero, zero)
    if isinstance(node, Var):
        one = np.ones(np.shape(z), dtype=complex) if np.ndim(z) else 1. + 0j
        return (z, one, zero)
    if isinstance(node, Neg):
        v, dz, db = _jet(node.arg, z, strict)
        return (-v, -dz, -db)
    if isinstance(node, BinOp):
        av, adz, adb = _jet(node.left, z, strict)
        bv, bdz, bdb = _jet(node.right, z, strict)
        if node.op == "+":
            return (av + bv, adz + bdz, adb + bdb)
        if node.op == "-":
            return (av - bv, adz - bdz, adb - bdb)
        if node.op == "*":
            return (av * bv, adz * bv + av * bdz, adb * bv + av * bdb)
        if _any_zero(bv):
            _fail(strict, "division by zero", node.pos)
        den = bv * bv
        return (
            av / bv,
            (adz * bv - av * bdz) / den,
            (adb * bv - av * bdb) / den,
        )
    if isinstance(node, IntPow):
        uv, udz, udb = _jet(node.base, z, strict)
        n = node.exponent
        if n == 0:
            one = np.ones_like(uv) if np.ndim(uv) else 1. + 0j
            return (one, zero, zero)
        if n < 0 and _any_zero(uv):
            _fail(strict, "zero base with non-positive exponent", node.pos)
        w = uv ** n
        dfactor = n * uv ** (n - 1) if n != 1 else 1.0
        return (w, dfactor * udz, dfactor * udb)
    if isinstance(node, PowConst):
        uv, udz, udb = _jet(node.base, z, strict)
        if _any_zero(uv):
            _fail(strict, "pow at zero base", node.pos)
        c = node.exponent
        w = np.power(uv, c)
        dfactor = c * np.power(uv, c - 1.0)
        return (w, dfactor * udz, dfactor * udb)
    if isinstance(node, Call):
        uv, udz, udb = _jet(node.arg, z, strict)
        if node.func == "conj":
            return (np.conj(uv), np.conj(udb), np.conj(udz))
        if node.func == "re":
            return (
                (uv + np.conj(uv)) / 2.0,
                (udz + np.conj(udb)) / 2.0,
                (udb + np.conj(udz)) / 2.0,
            )
        if node.func == "im":
            return (
                (uv - np.conj(uv)) / 2j,
                (udz - np.conj(udb)) / 2j,
                (udb - np.conj(udz)) / 2j,
            )
        if node.func == "abs":
            m = np.abs(uv)
            if _any_zero(m):
                _fail(strict, "abs jet at zero argument", node.pos)
            cu = np.conj(uv)
            return (
                m + 0j,
                (cu * udz + uv * np.conj(udb)) / (2.0 * m),
                (cu * udb + uv * np.conj(udz)) / (2.0 * m),
            )
        if node.func == "log":
            if _any_zero(uv):
                _fail(strict, "log at zero argument", node.pos)
            return (np.log(uv), udz / uv, udb / uv)
        if node.func == "exp":
            w = np.exp(uv)
            return (w, w * udz, w * udb)
    raise TypeError(f"not an expression node: {node!r}")


def eval_value(ast: ExprAst, z: complex) -> complex:
    """Evaluate the expression at a scalar point, raising on singular input."""
    return complex(_value(ast, complex(z), strict=True))


def eval_jet(ast: ExprAst, z: complex) -> WirtingerJet:
    """Evaluate value and Wirtinger partials at a scalar point."""
    v, dz, db = _jet(ast, complex(z), strict=True)
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
        v, dz, db = _jet(ast, zz, strict=False)
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
    if isinstance(node, Num):
        return _fmt_number(node.value)
    if isinstance(node, Var):
        return "z"
    if isinstance(node, Const):
        return node.name
    if isinstance(node, Neg):
        return f"-({to_source(node.arg)})"
    if isinstance(node, BinOp):
        return f"({to_source(node.left)} {node.op} {to_source(node.right)})"
    if isinstance(node, IntPow):
        return f"({to_source(node.base)})^{node.exponent}"
    if isinstance(node, PowConst):
        return f"pow({to_source(node.base)}, {_fmt_number(node.exponent)})"
    if isinstance(node, Call):
        return f"{node.func}({to_source(node.arg)})"
    raise TypeError(f"not an expression node: {node!r}")

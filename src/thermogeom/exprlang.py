"""A small, total-by-construction expression language for scalar fields.

Hosts user definitions of metric coefficients, connection components,
state-function extensions and path coordinates.  Precedence, low to high:
``+ -``  <  ``* /``  <  unary ``-``  <  ``^`` (right-associative), so
``-l1^2`` means ``-(l1^2)``.  Functions: exp, log, sqrt, sin, cos, sinh,
cosh, tanh, abs (unary) and min, max, pow (binary).  The variable alphabet
is fixed by the parameter count n at parse time: {t, S, a1..an, l1..ln}.
The parser refuses a literal that is not a finite double and a text that
nests deeper than `MAX_DEPTH` levels.

`Program` is the one evaluator.  It compiles a tuple of expressions once
into straight-line code whose instructions apply numpy ufuncs to whole
arrays, in IEEE doubles per element, with domain violations checked as
masks; equal subtrees share one register and are evaluated once per run,
and a register is dropped after its last use.  Values come out in order,
each computed when asked for, so the first error raised is the one the
first failing expression raises alone.

`compile_fields` is the one route from expression text to a program: every
holder of user fields (connection, g_M metric, mu extension) and every
config path builds its program there, once, parsing each slot against the
variables that slot may read, and `numbered` names the slots of a list of
texts.  `eval_expr` runs a program over one expression.
"""

from __future__ import annotations

import math
import operator
import re
import struct
from dataclasses import dataclass
from typing import Collection, Iterator, Mapping, Sequence, Union

import numpy as np

from .errors import (
    ExprArityError,
    ExprDomainError,
    ExprNameError,
    ExprSyntaxError,
    ValidationError,
)
from .inputs import count

__all__ = [
    "Expr",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "allowed_variables",
    "parse",
    "numbered",
    "compile_fields",
    "Program",
    "eval_expr",
    "pretty",
]


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple["Expr", ...]


Expr = Union[Num, Var, Neg, BinOp, Call]

_FUNCTIONS = {
    "exp": 1,
    "log": 1,
    "sqrt": 1,
    "sin": 1,
    "cos": 1,
    "sinh": 1,
    "cosh": 1,
    "tanh": 1,
    "abs": 1,
    "min": 2,
    "max": 2,
    "pow": 2,
}

_NUM_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_OPS = "+-*/^(),"
# binding power of each binary operator; a unary minus binds between * and ^,
# so -l1^2 is -(l1^2) and -l1*2 is (-l1)*2
_POWER = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_NEG = 3

# The deepest level a token may sit at.  The whole text is level 1; each
# bracket, unary minus and operator right-hand side opens a level, and each
# operator of a chain pushes its left operand a level down, so a sum has at
# most MAX_DEPTH terms.  Parsing, `Program` and `pretty` recurse at most
# twice a level, well inside Python's default recursion limit of 1000.
MAX_DEPTH = 300


def allowed_variables(n: int) -> tuple[str, ...]:
    """Variable alphabet for a family with n intensive parameters."""
    n = count(n, "n", 1)
    return ("t", "S") + tuple(f"a{i}" for i in range(1, n + 1)) + tuple(
        f"l{i}" for i in range(1, n + 1)
    )


@dataclass(frozen=True)
class _Token:
    kind: str  # num | name | op | end
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "−":  # unicode minus, accepted as '-'
            tokens.append(_Token("op", "-", i))
            i += 1
            continue
        m = _NUM_RE.match(text, i)
        if m:
            tokens.append(_Token("num", m.group(), i))
            i = m.end()
            continue
        m = _NAME_RE.match(text, i)
        if m:
            tokens.append(_Token("name", m.group(), i))
            i = m.end()
            continue
        if ch in _OPS:
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", len(text)))
    return tokens


def _too_deep(pos: int) -> ExprSyntaxError:
    return ExprSyntaxError(f"expression nests deeper than {MAX_DEPTH} levels", pos)


class _Parser:
    """Precedence climbing that tracks the level of each token (see `MAX_DEPTH`)."""

    def __init__(self, tokens: list[_Token], variables: tuple[str, ...]):
        self.tokens = tokens
        self.variables = variables
        self.i = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, text: str) -> None:
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            raise ExprSyntaxError(f"expected {text!r}, found {tok.text!r}", tok.pos)
        self.advance()

    def parse(self) -> Expr:
        e, _ = self.expr(1, 0)
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"trailing input {tok.text!r}", tok.pos)
        return e

    def expr(self, floor: int, pos: int) -> tuple[Expr, int]:
        """The operand one level below the caller's, with the operators after it of power >= floor.

        pos is the offset of what opened the level; returns the expression
        and the deepest level in it.  No other token has an operator's text,
        so an operator is known by its text alone.
        """
        self.depth = level = self.depth + 1
        if level > MAX_DEPTH:
            raise _too_deep(pos)
        tok = self.advance()
        if tok.kind == "num":
            value = float(tok.text)
            if not math.isfinite(value):
                raise ExprSyntaxError(f"number {tok.text!r} is not a finite double", tok.pos)
            left, deepest = Num(value), level
        elif tok.kind == "name" and self.peek().text == "(":
            left, deepest = self.call(tok)
        elif tok.kind == "name":
            if tok.text not in self.variables:
                raise ExprNameError(
                    f"unknown identifier {tok.text!r} at offset {tok.pos}; "
                    f"allowed variables: {', '.join(self.variables)}"
                )
            left, deepest = Var(tok.text), level
        elif tok.text == "(":
            left, deepest = self.expr(1, tok.pos)
            self.expect_op(")")
        elif tok.text == "-":
            arg, deepest = self.expr(_NEG, tok.pos)
            left = Neg(arg)
        else:
            raise ExprSyntaxError(f"unexpected token {tok.text!r}", tok.pos)
        while (power := _POWER.get((op := self.peek()).text, 0)) >= floor:
            self.advance()
            # ^ is right-associative: its right-hand side takes the rest of the chain
            right, right_deepest = self.expr(power if op.text == "^" else power + 1, op.pos)
            deepest = max(deepest + 1, right_deepest)
            if deepest > MAX_DEPTH:
                raise _too_deep(op.pos)
            left = BinOp(op.text, left, right)
        self.depth = level - 1
        return left, deepest

    def call(self, name_tok: _Token) -> tuple[Expr, int]:
        func = name_tok.text
        if func not in _FUNCTIONS:
            raise ExprNameError(
                f"unknown function {func!r} at offset {name_tok.pos}; "
                f"allowed functions: {', '.join(sorted(_FUNCTIONS))}"
            )
        opener = self.advance()  # the "(" after the name
        parsed = [self.expr(1, opener.pos)]
        while self.peek().text == ",":
            parsed.append(self.expr(1, self.advance().pos))
        self.expect_op(")")
        arity = _FUNCTIONS[func]
        if len(parsed) != arity:
            raise ExprArityError(f"{func} takes {arity} argument(s), got {len(parsed)}")
        return Call(func, tuple(e for e, _ in parsed)), max(deepest for _, deepest in parsed)


def _parse(text: object, variables: tuple[str, ...]) -> Expr:
    """Parse expression text that may read only the given variables."""
    if not isinstance(text, str):
        raise ValidationError(f"an expression must be a string, got {text!r}")
    if not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(_tokenize(text), variables).parse()


def parse(text: str, n: int) -> Expr:
    """Parse expression text against the variable alphabet fixed by n."""
    return _parse(text, allowed_variables(n))


def _env_shape(values: tuple) -> tuple[int, ...]:
    """Broadcast shape of the env values; np.broadcast takes 64 operands at most."""
    shape: tuple[int, ...] = ()
    for i in range(0, len(values), 63):
        shape = np.broadcast(np.empty(shape, dtype=bool), *values[i : i + 63]).shape
    return shape


def _domain(
    node: Expr, what: str, operand, bad, env: Mapping[str, float | np.ndarray]
) -> ExprDomainError:
    """The error for the first element in C order where `bad` holds."""
    shape = _env_shape((bad, *env.values()))
    at = np.unravel_index(int(np.argmax(np.broadcast_to(bad, shape))), shape)

    def value(x) -> float:
        return float(np.broadcast_to(np.asarray(x, dtype=float), shape)[at])

    where = ", ".join(f"{name}={value(x)!r}" for name, x in env.items())
    return ExprDomainError(
        f"{what} in {pretty(node)!r} (operand {value(operand)!r}"
        + (f" at {where})" if where else ")")
    )


def _check(bad, node: Expr, what: str, operand, env) -> None:
    # count_nonzero is the cheapest "any" on small arrays and plain bools
    if np.count_nonzero(bad):
        raise _domain(node, what, operand, bad, env)


def _check_overflow(out, node: Expr, operands, env) -> None:
    """A non-finite result from finite operands is an overflow."""
    bad = ~np.isfinite(out)
    if np.count_nonzero(bad):
        for x in operands:
            bad &= np.isfinite(x)
        _check(bad, node, "overflow", operands[0], env)


def _pow(node: Expr, env, base, expo):
    _check((base == 0.0) & (expo < 0.0), node, "zero raised to a negative power", base, env)
    # a negative base takes integer exponents only: (-2)^3 = -8
    _check(
        (base < 0.0) & (expo != np.floor(expo)),
        node,
        "negative base with non-integer exponent",
        base,
        env,
    )
    out = np.power(base, expo)
    _check_overflow(out, node, (base, expo), env)
    return out


def _var(node: Var, env):
    try:
        return np.asarray(env[node.name], dtype=float)
    except KeyError:
        raise ExprNameError(f"unbound variable {node.name!r}") from None


def _divide(node: Expr, env, a, b):
    _check(b == 0.0, node, "division by zero", b, env)
    return a / b


def _log(node: Expr, env, x):
    _check(x <= 0.0, node, "log of non-positive value", x, env)
    return np.log(x)


def _sqrt(node: Expr, env, x):
    _check(x < 0.0, node, "sqrt of negative value", x, env)
    return np.sqrt(x)


def _overflowing(ufunc):
    def apply(node: Expr, env, x):
        out = ufunc(x)
        _check_overflow(out, node, (x,), env)
        return out

    return apply


# operations that cannot fail, called on the argument values alone
_UNCHECKED = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "neg": operator.neg,
    "sin": np.sin,
    "cos": np.cos,
    "tanh": np.tanh,
    "abs": np.abs,
    "min": np.minimum,
    "max": np.maximum,
}
# operations with a domain check, called as (node, env, *argument values)
_CHECKED = {
    "/": _divide,
    "^": _pow,
    "pow": _pow,
    "log": _log,
    "sqrt": _sqrt,
    "exp": _overflowing(np.exp),
    "sinh": _overflowing(np.sinh),
    "cosh": _overflowing(np.cosh),
}


class Program:
    """One straight-line program computing a tuple of expressions.

    An instruction is keyed by its operation, payload and argument registers
    (a constant by its float bits, so 0.0 and -0.0 stay apart): equal
    subtrees share one register.  Instructions follow the post-order of each
    expression in turn, and a register is dropped after its last reader.
    """

    __slots__ = ("_registers", "_segments")

    def __init__(self, exprs: Sequence[Expr]) -> None:
        registers: list = []  # a constant's value; None where an instruction writes
        numbering: dict[tuple, int] = {}
        # [function, node (None if unchecked), argument registers a and b (or
        # None), register written, registers dropped after it]
        code: list[list] = []
        last: dict[int, list] = {}  # register -> the drop list of its last reader

        def number(e: Expr) -> int:
            kind = type(e)
            if kind is Num:
                key = (Num, type(e.value), struct.pack("<d", e.value))
            elif kind is Var:
                key = (Var, e.name)
            elif kind is Neg:
                key = ("neg", number(e.arg))
            elif kind is BinOp:
                key = (e.op, number(e.left), number(e.right))
            else:
                key = (e.func, *map(number, e.args))
            reg = numbering.get(key)
            if reg is not None:
                return reg
            reg = numbering[key] = len(registers)
            registers.append(e.value if kind is Num else None)
            if kind is Var:
                code.append([_var, e, None, None, reg, []])
            elif kind is not Num:
                op, a, b = (*key, None)[:3]
                fn = _UNCHECKED.get(op)
                code.append([fn, None, a, b, reg, []] if fn else [_CHECKED[op], e, a, b, reg, []])
                last[a] = last[b] = code[-1][5]
            return reg

        segments = []  # (instructions, output register, dropped after the output)
        for e in exprs:
            start = len(code)
            out = number(e)
            segments.append((code[start:], out, []))
            last[out] = segments[-1][2]
        for reg, dropped in last.items():
            if reg is not None and registers[reg] is None:
                dropped.append(reg)
        self._registers = tuple(registers)
        self._segments = tuple(segments)

    def __len__(self) -> int:
        """The number of instructions; constants take none."""
        return sum(len(steps) for steps, _, _ in self._segments)

    def run(self, env: Mapping[str, float | np.ndarray]) -> Iterator[float | np.ndarray]:
        """Yield each expression's value in order, as `eval_expr` gives it alone.

        Expression k runs only when its value is asked for, so a caller can
        check it before a later one runs.  Values may share memory with each
        other and with the env arrays.
        """
        regs = list(self._registers)
        shape = None
        for steps, out, dropped in self._segments:
            with np.errstate(all="ignore"):
                for fn, node, a, b, reg, done in steps:
                    if a is None:
                        regs[reg] = fn(node, env)
                    elif b is None:
                        regs[reg] = fn(regs[a]) if node is None else fn(node, env, regs[a])
                    elif node is None:
                        regs[reg] = fn(regs[a], regs[b])
                    else:
                        regs[reg] = fn(node, env, regs[a], regs[b])
                    for r in done:
                        regs[r] = None
            value = regs[out]
            for r in dropped:
                regs[r] = None
            if shape is None:
                shape = _env_shape(tuple(env.values()))
            if not shape:
                yield float(value)
            else:
                yield value if np.shape(value) == shape else np.broadcast_to(value, shape).copy()


def numbered(what: str, texts: object, k: int) -> dict[str, object]:
    """A list or tuple of exactly k texts as the slots what1..whatk; a bare string is not one."""
    if not isinstance(texts, (list, tuple)) or len(texts) != k:
        raise ValidationError(
            f"{what} must be a list of expression strings, one per parameter ({k})"
        )
    return {f"{what}{i}": text for i, text in enumerate(texts, 1)}


def compile_fields(named_texts: Mapping[str, object], n: int, allowed: Collection[str]) -> Program:
    """One program over the slots' texts, each a string over n's alphabet reading only `allowed`.

    Each slot parses against n's alphabet filtered to `allowed`, so a
    slot whose text is not a string or does not parse, reading another
    variable included, raises `ValidationError` (an `Expr*Error` where
    parsing fails) with the slot's name in front of the message.
    """
    variables = tuple(v for v in allowed_variables(n) if v in allowed)
    exprs = []
    for slot, text in named_texts.items():
        try:
            exprs.append(_parse(text, variables))
        except ValidationError as exc:
            exc.args = (f"{slot}: {exc}",)
            raise
    return Program(exprs)


def eval_expr(e: Expr, env: Mapping[str, float | np.ndarray]) -> float | np.ndarray:
    """Evaluate elementwise in IEEE doubles over the broadcast of the env values.

    Each variable value is a float or an array, and the arrays must
    broadcast together.  `Program((e,))` applies numpy ufuncs to whole
    arrays, one per distinct subtree.  The result has the broadcast shape
    of all env values; it is a float when every value is a scalar, so a
    single point is the one-element case of the same program.  A domain
    violation at any element (division by zero, log or sqrt outside its
    domain, zero to a negative power, a negative base with a non-integer
    exponent, overflow in exp, sinh, cosh or pow) raises ExprDomainError
    naming the node, the operand at the first offending element in C
    order, and the variable values there.
    """
    return next(Program((e,)).run(env))


# precedence levels for printing
_LVL_ADD, _LVL_MUL, _LVL_NEG, _LVL_POW, _LVL_ATOM = 1, 2, 3, 4, 5


def _level(e: Expr) -> int:
    if isinstance(e, BinOp):
        if e.op in "+-":
            return _LVL_ADD
        if e.op in "*/":
            return _LVL_MUL
        return _LVL_POW
    if isinstance(e, Neg):
        return _LVL_NEG
    return _LVL_ATOM


def _wrap(e: Expr, need_parens: bool) -> str:
    s = pretty(e)
    return f"({s})" if need_parens else s


def pretty(e: Expr) -> str:
    """Render with minimal grouping; a fixed point of parse . pretty."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        return "-" + _wrap(e.arg, _level(e.arg) < _LVL_NEG)
    if isinstance(e, BinOp):
        if e.op == "^":
            left = _wrap(e.left, _level(e.left) <= _LVL_POW)
            right = _wrap(e.right, _level(e.right) < _LVL_NEG)
            return f"{left}^{right}"
        lvl = _LVL_ADD if e.op in "+-" else _LVL_MUL
        left = _wrap(e.left, _level(e.left) < lvl)
        right = _wrap(e.right, _level(e.right) <= lvl)
        return f"{left}{e.op}{right}"
    return f"{e.func}({', '.join(map(pretty, e.args))})"

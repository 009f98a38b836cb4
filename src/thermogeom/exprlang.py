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
arrays, in IEEE doubles per element, or at one point to float64 scalars
(+ - * / and negation in numpy's scalar math: the same bits at a fraction
of a ufunc call's cost); equal subtrees share one register and are
evaluated once per run.  A batch drops a register after its last use; a
one-point run's steps carry no release lists, since its registers hold
float64 scalars, and a variable's step reads the float64 env by name.
Its one failure rule is IEEE 754's: each expression runs with numpy's
floating-point exceptions raised (underflow aside), and an operation that
raises fails where its finite arguments give a non-finite value, so
overflow in any operation, + - * / included, is an error.  Values come out
in order, each computed when asked for, so the first error raised is the
one the first failing expression raises alone.

`compile_fields` is the one route from expression text to a program: every
holder of user fields (g_M metric, mu extension) and every config path
builds its program there, once, parsing each slot against the variables
that slot may read, and `numbered` names the slots of a list of texts.
The connection takes the same parse without the compile and compiles
[g_S, h_k / g_S] as its one program.  A program keeps its expressions as
`Program.exprs`, and `derivative` differentiates one symbolically; its
result reuses the expression's own subtrees, so a program over both shares
their registers.  A derivative fails where its rule does, as any operation
fails: d|a| = da a/|a| divides by zero at a = 0, and so do min and max,
read as (a + b -/+ |a - b|)/2, at a tie.  `eval_expr` runs a program over
one expression.
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
    "derivative",
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
# most MAX_DEPTH terms.  Parsing recurses at most twice a level, and
# `derivative`, `Program` and `pretty` once a node; a derivative nests at
# most about twice as deep as its text (the product rule puts da two nodes
# down), so every walk stays inside Python's default recursion limit of 1000.
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
    shape = np.broadcast(*values[:64]).shape if values else ()
    for i in range(64, len(values), 63):
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


def _unbound(node: Var) -> ExprNameError:
    """The error for a variable the env does not bind, raised when it is read."""
    return ExprNameError(f"unbound variable {node.name!r}")


def _var(node: Var, env):
    try:
        return np.asarray(env[node.name], dtype=float)[()]
    except KeyError:
        raise _unbound(node) from None


# each operation is one numpy ufunc, called on its argument values
_UFUNCS = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
    "^": np.power,
    "neg": np.negative,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "sin": np.sin,
    "cos": np.cos,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "tanh": np.tanh,
    "abs": np.abs,
    "min": np.minimum,
    "max": np.maximum,
    "pow": np.power,
}


# a one-point run's twin of each arithmetic ufunc, rounding and raising as it
# does; ^ is not **, which rounds differently, and as np.power takes x*x, sqrt
# and 1/x at exponents 2, 0.5 and -1 only where the exponent has stride 0, an
# exponent that reads a variable goes in as a (1,) array, as in a batch, when
# the env's shape is (1,) or (1, 1) rather than ()
_SCALAR_OPS = {np.add: operator.add, np.subtract: operator.sub, np.multiply: operator.mul,
               np.divide: operator.truediv, np.negative: operator.neg,
               np.power: lambda a, b: np.power(a, np.array([b]))[0]}
# the named causes of a failure, tried in order: the ufunc, the elements it
# fails at for that cause, the name, and the argument the message prints
# (a negative base takes integer exponents only: (-2)^3 = -8)
_CAUSES = (
    (np.divide, lambda a, b: b == 0.0, "division by zero", 1),
    (np.power, lambda a, b: (a == 0.0) & (b < 0.0), "zero raised to a negative power", 0),
    (np.power, lambda a, b: (a < 0.0) & (b != np.floor(b)), "negative base with non-integer exponent", 0),
    (np.log, lambda x: x <= 0.0, "log of non-positive value", 0),
    (np.sqrt, lambda x: x < 0.0, "sqrt of negative value", 0),
)


def _failed(fn, node: Expr, env, args: tuple):
    """The value of an instruction that raised a floating-point exception, or its error.

    It fails where finite arguments give a non-finite value; a flag raised by
    a non-finite argument alone is no failure, and the value is kept.
    """
    with np.errstate(all="ignore"):
        out = fn(*args)
        bad = ~np.isfinite(out)
        for x in args:
            bad &= np.isfinite(x)
        if not np.any(bad):
            return out
        for ufunc, test, what, k in _CAUSES:
            if fn in (ufunc, _SCALAR_OPS.get(ufunc)) and np.any(cause := bad & test(*args)):
                raise _domain(node, what, args[k], cause, env)
        raise _domain(node, "overflow", args[0], bad, env)


class Program:
    """One straight-line program computing a tuple of expressions, kept as `exprs`.

    An instruction is keyed by its operation, payload and argument registers
    (a constant by its float bits, so 0.0 and -0.0 stay apart): equal
    subtrees share one register.  Instructions follow the post-order of each
    expression in turn, and a batched run drops a register after its last
    reader (see `_at_one_point` for the one-point steps).
    """

    __slots__ = ("exprs", "_registers", "_segments", "_one_point")

    def __init__(self, exprs: Sequence[Expr]) -> None:
        self.exprs = tuple(exprs)
        registers: list = []  # a constant's value; None where an instruction writes
        numbering: dict[tuple, int] = {}
        reg_of: dict[int, int] = {}  # id of a node numbered so far -> its register
        # [function, node, argument registers a and b (or None), register
        # written, registers dropped after it]
        code: list[list] = []
        last: dict[int, list] = {}  # register -> the drop list of its last reader

        def number(e: Expr) -> int:
            # a derivative reuses node objects: each is numbered once
            reg = reg_of.get(id(e))
            if reg is not None:
                return reg
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
            if reg is None:
                reg = numbering[key] = len(registers)
                registers.append(np.float64(e.value) if kind is Num else None)
                if kind is Var:
                    code.append([_var, e, None, None, reg, []])
                elif kind is not Num:
                    op, a, b = (*key, None)[:3]
                    code.append([_UFUNCS[op], e, a, b, reg, []])
                    last[a] = last[b] = code[-1][5]
            reg_of[id(e)] = reg
            return reg

        segments = []  # (instructions, output register, dropped after the output)
        for e in self.exprs:
            start = len(code)
            out = number(e)
            segments.append((code[start:], out, []))
            last[out] = segments[-1][2]
        for reg, dropped in last.items():
            if reg is not None and registers[reg] is None:
                dropped.append(reg)
        self._registers = tuple(registers)
        self._segments = tuple(segments)
        self._one_point: dict[bool, tuple] = {}

    def __len__(self) -> int:
        """The number of instructions; constants take none."""
        return sum(len(steps) for steps, _, _ in self._segments)

    def _at_one_point(self, shaped: bool) -> tuple:
        """The segments as one-point steps (fn, node, a, b, reg), built on first use.

        Each ufunc is swapped for its one-point twin, and a variable's step
        has fn None: it reads the float64 env by name.  A step carries no
        release list, as a one-point run holds float64 scalars only.
        """
        if shaped not in self._one_point:
            varies: set[int] = set()  # the registers that read a variable
            def twin(fn, node, a, b, reg, done):
                if a is None:
                    varies.add(reg)
                    return (None, node, None, None, reg)
                if a in varies or b in varies:
                    varies.add(reg)
                keep = fn is np.power and not (shaped and b in varies)
                return (fn if keep else _SCALAR_OPS.get(fn, fn), node, a, b, reg)
            self._one_point[shaped] = tuple(
                ([twin(*step) for step in steps], out) for steps, out, _ in self._segments
            )
        return self._one_point[shaped]

    def run(self, env: Mapping[str, float | np.ndarray]) -> Iterator[float | np.ndarray]:
        """Yield each expression's value in order, as `eval_expr` gives it alone.

        Expression k runs only when its value is asked for, so a caller can
        check it before a later one runs.  Values may share memory with each
        other and with the env arrays.  An env value that is not real
        numbers raises `ValidationError` naming its variable.  An env of one
        element, as in shape (), (1,) or (1, 1), runs on float64 scalars
        with the ufuncs' bits and errors (see `_SCALAR_OPS`), through
        one-point steps that carry no release lists.
        """
        env = {name: np.asarray(value) for name, value in env.items()}
        for name, value in env.items():
            if value.dtype.kind not in "iuf":
                raise ValidationError(f"variable {name!r} must be real numbers, got dtype {value.dtype}")
        shape = _env_shape(tuple(env.values()))
        regs = list(self._registers)
        if math.prod(shape) == 1:
            env = {name: np.float64(value.item()) for name, value in env.items()}
            for steps, out in self._at_one_point(bool(shape)):
                # held for one expression, never across a yield
                with np.errstate(all="raise", under="ignore"):
                    for fn, node, a, b, reg in steps:
                        try:
                            if b is not None:
                                regs[reg] = fn(regs[a], regs[b])
                            elif fn is not None:
                                regs[reg] = fn(regs[a])
                            else:
                                regs[reg] = env[node.name]
                        except FloatingPointError:
                            args = (regs[a],) if b is None else (regs[a], regs[b])
                            regs[reg] = _failed(fn, node, env, args)
                        except KeyError:
                            raise _unbound(node) from None
                yield float(regs[out]) if not shape else np.array(regs[out], ndmin=len(shape))
            return
        for steps, out, dropped in self._segments:
            # held for one expression, never across a yield
            with np.errstate(all="raise", under="ignore"):
                for fn, node, a, b, reg, done in steps:
                    try:
                        if a is None:
                            regs[reg] = fn(node, env)
                        elif b is None:
                            regs[reg] = fn(regs[a])
                        else:
                            regs[reg] = fn(regs[a], regs[b])
                    except FloatingPointError:
                        args = (regs[a],) if b is None else (regs[a], regs[b])
                        regs[reg] = _failed(fn, node, env, args)
                    for r in done:
                        regs[r] = None
            value = regs[out]
            for r in dropped:
                regs[r] = None
            yield value if np.shape(value) == shape else np.full(shape, value)


def numbered(what: str, texts: object, k: int) -> dict[str, object]:
    """A list or tuple of exactly k texts as the slots what1..whatk; a bare string is not one."""
    if not isinstance(texts, (list, tuple)) or len(texts) != k:
        raise ValidationError(
            f"{what} must be a list of expression strings, one per parameter ({k})"
        )
    return {f"{what}{i}": text for i, text in enumerate(texts, 1)}


def _parse_fields(named_texts: Mapping[str, object], n: int, allowed: Collection[str]) -> list[Expr]:
    """The slots' parsed expressions, in order: `compile_fields` before it compiles."""
    variables = tuple(v for v in allowed_variables(n) if v in allowed)
    exprs = []
    for slot, text in named_texts.items():
        try:
            exprs.append(_parse(text, variables))
        except ValidationError as exc:
            exc.args = (f"{slot}: {exc}",)
            raise
    return exprs


def compile_fields(named_texts: Mapping[str, object], n: int, allowed: Collection[str]) -> Program:
    """One program over the slots' texts, each a string over n's alphabet reading only `allowed`.

    Each slot parses against n's alphabet filtered to `allowed`, so a
    slot whose text is not a string or does not parse, reading another
    variable included, raises `ValidationError` (an `Expr*Error` where
    parsing fails) with the slot's name in front of the message.
    """
    return Program(_parse_fields(named_texts, n, allowed))


def eval_expr(e: Expr, env: Mapping[str, float | np.ndarray]) -> float | np.ndarray:
    """Evaluate elementwise in IEEE doubles over the broadcast of the env values.

    Each variable value is a real number or an array of them (else
    ValidationError), and the arrays must broadcast together.
    `Program((e,))` applies numpy ufuncs to whole arrays, one per distinct
    subtree, or their bitwise scalar twins where the env has one element.
    The result has the broadcast shape of all env values; it is a float
    when every value is a scalar, so a single point is the one-element
    case of the same program.  An operation whose finite arguments give a
    non-finite value at any element (division by zero, log or sqrt outside
    its domain, zero to a negative power, a negative base with a
    non-integer exponent, overflow in any operation) raises ExprDomainError
    naming the node, the operand at the first offending element in C
    order, and the variable values there.  A non-finite variable value is
    passed through: log(l1) at l1 = -inf is nan, not an error.
    """
    return next(Program((e,)).run(env))


def _is(e: Expr, value: float) -> bool:
    return type(e) is Num and e.value == value


def _add(a: Expr, b: Expr) -> Expr:
    return b if _is(a, 0.0) else a if _is(b, 0.0) else BinOp("+", a, b)


def _sub(a: Expr, b: Expr) -> Expr:
    if _is(b, 0.0):
        return a
    return Neg(b) if _is(a, 0.0) else BinOp("-", a, b)


def _mul(a: Expr, b: Expr) -> Expr:
    if _is(a, 0.0) or _is(b, 0.0):
        return Num(0.0)
    return b if _is(a, 1.0) else a if _is(b, 1.0) else BinOp("*", a, b)


def _div(a: Expr, b: Expr) -> Expr:
    return a if _is(a, 0.0) or _is(b, 1.0) else BinOp("/", a, b)


def _tie_weights(a: Expr, b: Expr) -> tuple[Expr, Expr]:
    """(1 + s)/2 and (1 - s)/2 for s = (a - b)/|a - b|, which divides by zero at a tie.

    They are max's partials in a and b, and min's in b and a.
    """
    gap = BinOp("-", a, b)
    s = BinOp("/", gap, Call("abs", (gap,)))
    return (
        BinOp("*", Num(0.5), BinOp("+", Num(1.0), s)),
        BinOp("*", Num(0.5), BinOp("-", Num(1.0), s)),
    )


def _sech_squared(x: Expr) -> Expr:
    """tanh' x = sech^2 x as 4 q / (1 + q)^2 with q = exp(-2|x|).

    It is exact to a few ulp at every x, where 1 - tanh^2 is 0.0 once tanh
    rounds to +-1 (|x| above about 19).  As q <= 1 it overflows only where
    2|x| leaves the float range, where 1/cosh^2 overflows past |x| = 355.
    """
    q = Call("exp", (BinOp("*", Num(-2.0), Call("abs", (x,))),))
    one_plus_q = BinOp("+", Num(1.0), q)
    return BinOp("/", BinOp("*", Num(4.0), q), BinOp("*", one_plus_q, one_plus_q))


# the partial derivatives of each function, one per argument, given the
# call itself and its arguments
_PARTIALS = {
    "exp": lambda e, x: (e,),
    "log": lambda e, x: (BinOp("/", Num(1.0), x),),
    "sqrt": lambda e, x: (BinOp("/", Num(0.5), e),),
    "sin": lambda e, x: (Call("cos", (x,)),),
    "cos": lambda e, x: (Neg(Call("sin", (x,))),),
    "sinh": lambda e, x: (Call("cosh", (x,)),),
    "cosh": lambda e, x: (Call("sinh", (x,)),),
    "tanh": lambda e, x: (_sech_squared(x),),
    "abs": lambda e, x: (BinOp("/", x, e),),
    "min": lambda e, a, b: _tie_weights(a, b)[::-1],
    "max": lambda e, a, b: _tie_weights(a, b),
    # the log term is dropped, by the zero it is multiplied by, where b is constant
    "pow": lambda e, a, b: (
        BinOp("*", b, BinOp("^", a, BinOp("-", b, Num(1.0)))),
        BinOp("*", e, Call("log", (a,))),
    ),
}


def derivative(e: Expr, var: str) -> Expr:
    """The symbolic partial derivative de/d(var), built from e's own subtrees.

    Only literal 0 and 1 are folded (0 + x, 1 * x, 0 * x, 0 / x, x / 1),
    so a variable e does not read differentiates to Num(0.0).  The quotient
    rule reuses the quotient, d(a/b) = (da - (a/b) db)/b, and a power a^b
    takes the log term b' a^b log(a) only where b varies.  Where a rule
    divides by zero or raises zero to a negative power (|a| at a = 0, min
    or max at a tie, sqrt(a) and a^b with b < 1 at a = 0) the program
    raises `ExprDomainError`, as it does for any other operation.
    """
    kind = type(e)
    if kind is Num:
        return Num(0.0)
    if kind is Var:
        return Num(1.0 if e.name == var else 0.0)
    if kind is Neg:
        return _sub(Num(0.0), derivative(e.arg, var))
    if kind is BinOp:
        a, b = e.left, e.right
        da, db = derivative(a, var), derivative(b, var)
        if e.op == "+":
            return _add(da, db)
        if e.op == "-":
            return _sub(da, db)
        if e.op == "*":
            return _add(_mul(da, b), _mul(a, db))
        if e.op == "/":
            return _div(_sub(da, _mul(e, db)), b)
        args, partials = (a, b), (da, db)
    else:
        args = e.args
        partials = tuple(derivative(x, var) for x in args)
    total: Expr = Num(0.0)
    for weight, d in zip(_PARTIALS["pow" if kind is BinOp else e.func](e, *args), partials):
        total = _add(total, _mul(weight, d))
    return total


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


def _paren(s: str, need_parens: bool) -> str:
    return f"({s})" if need_parens else s


def pretty(e: Expr) -> str:
    """Render with minimal grouping; a fixed point of parse . pretty."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        return "-" + _paren(pretty(e.arg), _level(e.arg) < _LVL_NEG)
    if isinstance(e, BinOp):
        if e.op == "^":
            left = _paren(pretty(e.left), _level(e.left) <= _LVL_POW)
            right = _paren(pretty(e.right), _level(e.right) < _LVL_NEG)
            return f"{left}^{right}"
        lvl = _LVL_ADD if e.op in "+-" else _LVL_MUL
        left = _paren(pretty(e.left), _level(e.left) < lvl)
        right = _paren(pretty(e.right), _level(e.right) <= lvl)
        return f"{left}{e.op}{right}"
    return f"{e.func}({', '.join(map(pretty, e.args))})"

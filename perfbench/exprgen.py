"""Seeded scalar fields from a fixed grammar, with the benchmark's own calculus.

A field is a tuple tree: ("num", c), ("var", k) for l{k+1}, ("neg", a),
binary ("+" | "-" | "*" | "/", a, b) and unary ("sin" | "cos" | "exp" |
"log" | "sqrt", a).  `render` gives the text the program parses,
`evaluate` computes it on numpy arrays and `diff` differentiates it, so
the curvature and holonomy oracles never call the program.

Every generated field has the same shape (polynomial, trig, exp, log and
sqrt-division terms), so its evaluation cost does not depend on the seed; the
seed picks coefficients, variables, signs and sin or cos.  A potential
uses every variable symmetrically, so each of its partial derivatives has
the same shape too.  Arguments of log and divisions are 1 + d l^2 with
d > 0, so no field leaves its domain.
"""

from __future__ import annotations

import numpy as np

Tree = tuple


def num(c: float) -> Tree:
    return ("num", float(c))


def var(k: int) -> Tree:
    return ("var", k)


def add(a: Tree, b: Tree) -> Tree:
    if a == ("num", 0.0):
        return b
    if b == ("num", 0.0):
        return a
    return ("+", a, b)


def sub(a: Tree, b: Tree) -> Tree:
    if b == ("num", 0.0):
        return a
    if a == ("num", 0.0):
        return ("neg", b)
    return ("-", a, b)


def mul(a: Tree, b: Tree) -> Tree:
    if ("num", 0.0) in (a, b):
        return ("num", 0.0)
    if a == ("num", 1.0):
        return b
    if b == ("num", 1.0):
        return a
    return ("*", a, b)


def div(a: Tree, b: Tree) -> Tree:
    if a == ("num", 0.0):
        return a
    return ("/", a, b)


def render(t: Tree) -> str:
    tag = t[0]
    if tag == "num":
        return repr(t[1])
    if tag == "var":
        return f"l{t[1] + 1}"
    if tag == "neg":
        return f"(-{render(t[1])})"
    if tag in "+-*/":
        return f"({render(t[1])}{tag}{render(t[2])})"
    return f"{tag}({render(t[1])})"


_UNARY = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log, "sqrt": np.sqrt}


def evaluate(t: Tree, lam: np.ndarray):
    """Value at lam, shape (n, ...) -> (...)."""
    tag = t[0]
    if tag == "num":
        return np.full(lam.shape[1:], t[1])
    if tag == "var":
        return lam[t[1]]
    if tag == "neg":
        return -evaluate(t[1], lam)
    if tag in _UNARY:
        return _UNARY[tag](evaluate(t[1], lam))
    a, b = evaluate(t[1], lam), evaluate(t[2], lam)
    return {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}[tag](a, b)


def diff(t: Tree, k: int) -> Tree:
    """d t / d l{k+1}."""
    tag = t[0]
    if tag == "num":
        return num(0.0)
    if tag == "var":
        return num(1.0 if t[1] == k else 0.0)
    if tag == "neg":
        return sub(num(0.0), diff(t[1], k))
    if tag in "+-":
        return (add if tag == "+" else sub)(diff(t[1], k), diff(t[2], k))
    if tag == "*":
        return add(mul(diff(t[1], k), t[2]), mul(t[1], diff(t[2], k)))
    if tag == "/":
        top = sub(mul(diff(t[1], k), t[2]), mul(t[1], diff(t[2], k)))
        return div(top, mul(t[2], t[2]))
    inner = diff(t[1], k)
    if tag == "sin":
        return mul(("cos", t[1]), inner)
    if tag == "cos":
        return sub(num(0.0), mul(("sin", t[1]), inner))
    if tag == "exp":
        return mul(t, inner)
    if tag == "log":
        return div(inner, t[1])
    return div(inner, mul(num(2.0), t))  # sqrt


# ---- the grammar ------------------------------------------------------------


def _c(rng, lo: float = 0.2, hi: float = 1.5) -> Tree:
    return num(round(float(rng.uniform(lo, hi)), 3))


def _v(rng, n: int) -> Tree:
    return var(int(rng.integers(n)))


def _bump(rng, n: int) -> Tree:
    """1 + d l_i^2, strictly positive."""
    v = _v(rng, n)
    return add(num(1.0), mul(mul(_c(rng), v), v))


def _signed_sum(rng, terms: list[Tree]) -> Tree:
    out = terms[0]
    for term in terms[1:]:
        out = ("+" if rng.random() < 0.5 else "-", out, term)
    return out


def _trig(rng) -> str:
    return str(rng.choice(["sin", "cos"]))


def field(rng, n: int) -> Tree:
    """c l_i l_j +- c trig(d l_i + e l_j) +- c exp(d sin l_i) +- c log(bump) +- c l_j / sqrt(bump)."""
    return _signed_sum(rng, [
        mul(mul(_c(rng), _v(rng, n)), _v(rng, n)),
        mul(_c(rng), (_trig(rng), add(mul(_c(rng), _v(rng, n)), mul(_c(rng), _v(rng, n))))),
        mul(_c(rng), ("exp", mul(_c(rng, 0.1, 0.8), ("sin", _v(rng, n))))),
        mul(_c(rng), ("log", _bump(rng, n))),
        mul(_c(rng), div(_v(rng, n), ("sqrt", _bump(rng, n)))),
    ])


def potential(rng, n: int) -> Tree:
    """A scalar whose n partial derivatives all have the same shape:
    c sum_k<l l_k l_l +- c trig(sum_k d_k l_k) +- c exp(sum_k d_k sin l_k)
    +- c log(1 + sum_k d_k l_k^2)."""
    def over_vars(term) -> Tree:
        out = term(0)
        for k in range(1, n):
            out = add(out, term(k))
        return out

    pairs = [mul(var(k), var(l)) for k in range(n) for l in range(k + 1, n)]
    poly = pairs[0]
    for p in pairs[1:]:
        poly = add(poly, p)
    return _signed_sum(rng, [
        mul(_c(rng), poly),
        mul(_c(rng), (_trig(rng), over_vars(lambda k: mul(_c(rng), var(k))))),
        mul(_c(rng), ("exp", over_vars(lambda k: mul(_c(rng, 0.1, 0.5), ("sin", var(k)))))),
        mul(_c(rng), ("log", add(num(1.0), over_vars(lambda k: mul(mul(_c(rng), var(k)), var(k)))))),
    ])


def positive_field(rng, n: int) -> Tree:
    """g_S = c0 + c1 l_i^2 + c2 exp(c3 sin l_j) >= c0 >= 1."""
    v = _v(rng, n)
    quad = mul(mul(_c(rng, 0.1, 0.5), v), v)
    wave = mul(_c(rng, 0.1, 0.5), ("exp", mul(_c(rng, 0.1, 0.8), ("sin", _v(rng, n)))))
    return add(add(_c(rng, 1.0, 2.0), quad), wave)

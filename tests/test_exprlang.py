import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermogeom.errors import (
    ExprArityError,
    ExprDomainError,
    ExprNameError,
    ExprSyntaxError,
    ThermoGeomError,
    ValidationError,
)
from thermogeom import exprlang
from thermogeom.exprlang import (
    BinOp,
    Call,
    Neg,
    Num,
    Program,
    Var,
    compile_fields,
    eval_expr,
    numbered,
    parse,
    pretty,
)


def ev(text, n=2, **env):
    return eval_expr(parse(text, n), env)


def test_precedence_mul_over_add():
    assert ev("2+3*4") == 14.0


def test_tanh_at_zero():
    assert ev("tanh(l1)", l1=0.0) == 0.0


def test_unary_minus_binds_looser_than_power():
    assert ev("-l1^2", l1=3.0) == -9.0
    assert ev("−l1^2", l1=3.0) == -9.0  # unicode minus accepted


def test_power_right_associative():
    assert ev("2^3^2") == 512.0


def test_negative_exponent():
    assert ev("2^-3") == 0.125


def test_eval_simple_product():
    assert ev("l1*l2+1", l1=0.5, l2=2.0) == 2.0


def test_eval_exp_of_negated_square():
    assert ev("exp(-(l1^2))", l1=1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_division_by_zero_is_domain_error():
    with pytest.raises(ExprDomainError) as err:
        ev("1/l1", l1=0.0)
    assert "/l1" in str(err.value)  # names the offending node
    assert "0.0" in str(err.value)  # and the operand value


def test_log_sqrt_domain_errors():
    with pytest.raises(ExprDomainError):
        ev("log(l1)", l1=0.0)
    with pytest.raises(ExprDomainError):
        ev("sqrt(l1)", l1=-4.0)


def test_negative_base_integer_power_ok():
    assert ev("(-2)^3") == -8.0
    assert ev("pow(-2, 3)") == -8.0


def test_negative_base_fractional_power_is_error():
    with pytest.raises(ExprDomainError):
        ev("(-2)^0.5")
    with pytest.raises(ExprDomainError):
        ev("pow(-8, 1/3)")


def test_overflow_is_loud():
    with pytest.raises(ExprDomainError):
        ev("exp(l1)", l1=1e4)


def test_min_max_pow():
    assert ev("min(l1, l2)", l1=3.0, l2=-1.0) == -1.0
    assert ev("max(l1, l2)", l1=3.0, l2=-1.0) == 3.0
    assert ev("pow(2, 10)") == 1024.0


def test_wrong_arity_rejected_at_parse_time():
    with pytest.raises(ExprArityError):
        parse("min(1)", 1)
    with pytest.raises(ExprArityError):
        parse("tanh(1, 2)", 1)


def test_unknown_identifier_lists_alphabet():
    with pytest.raises(ExprNameError) as err:
        parse("l3", 2)
    msg = str(err.value)
    assert "l3" in msg and "l2" in msg and "S" in msg


def test_variable_alphabet_scales_with_n():
    parse("l3 + a3", 3)
    with pytest.raises(ExprNameError):
        parse("a3", 2)


def test_syntax_error_carries_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse("1 + ?", 1)
    assert err.value.offset == 4


def test_unbalanced_parens():
    with pytest.raises(ExprSyntaxError):
        parse("(1+2", 1)
    with pytest.raises(ExprSyntaxError):
        parse("1+2)", 1)


def test_empty_input():
    with pytest.raises(ExprSyntaxError):
        parse("   ", 1)


def test_literal_must_be_a_finite_double():
    with pytest.raises(ExprSyntaxError, match="'1e400' is not a finite double") as err:
        parse("l1*1e400", 1)
    assert err.value.offset == 3
    assert ev("1e-400") == 0.0


def test_sum_of_300_terms_compiles_and_evaluates():
    program = compile_fields({"f": "+".join(["l1"] * 300)}, 1, {"l1"})
    assert next(program.run({"l1": 0.5})) == 150.0


# texts whose deepest token sits at level MAX_DEPTH, and a prefix that puts
# it one level deeper, crossing the bound at the given offset
_D = exprlang.MAX_DEPTH
AT_THE_BOUND = {
    "brackets": ("(" * (_D - 1) + "l1" + ")" * (_D - 1), "(", _D - 1),
    "calls": ("abs(" * (_D - 1) + "l1" + ")" * (_D - 1), "abs(", 4 * _D - 1),
    "minuses": ("-" * (_D - 1) + "l1", "-", _D - 1),
    "powers": ("l1^" * (_D - 1) + "l1", "l1^", 3 * _D - 1),
    "sum": ("l1+" * (_D - 1) + "l1", "l1+", 3 * _D - 1),
}
# at the bound too, with a domain error that prints the root of the whole tree
DOMAIN_ERROR_AT_THE_BOUND = {
    "log of minuses": ("log(" + "-" * (_D - 2) + "l1)", "-", _D + 2),
    "sqrt of a sum": ("sqrt(" + "l1+" * (_D - 2) + "l1)", "l1+", 3 * _D + 1),
}


@pytest.mark.parametrize("name", sorted(AT_THE_BOUND) + sorted(DOMAIN_ERROR_AT_THE_BOUND))
def test_nesting_is_bounded_by_max_depth(name):
    text, prefix, offset = {**AT_THE_BOUND, **DOMAIN_ERROR_AT_THE_BOUND}[name]
    e = parse(text, 1)
    assert pretty(parse(pretty(e), 1)) == pretty(e)
    if name in AT_THE_BOUND:
        eval_expr(e, {"l1": 0.5})
    else:
        with pytest.raises(ExprDomainError, match=re.escape(text[:4])):
            eval_expr(e, {"l1": -0.5})
    with pytest.raises(ExprSyntaxError, match=f"deeper than {_D} levels") as err:
        parse(prefix + text, 1)
    assert err.value.offset == offset


def test_compile_fields_names_slot_and_extras():
    program = compile_fields({"g_S": "l1*t + sin(a2)"}, 2, {"l1", "t", "a2"})
    assert next(program.run({"l1": 2.0, "t": 3.0, "a2": 0.0})) == 6.0
    message = "g_S: unknown identifier 't' at offset 3; allowed variables: l1"
    with pytest.raises(ExprNameError, match=f"^{re.escape(message)}$"):
        compile_fields({"g_S": "l1*t + sin(a2)"}, 2, {"l1"})


@pytest.mark.parametrize(
    "text, error",
    [(1, ValidationError), (None, ValidationError), ("l1*", ExprSyntaxError),
     ("q", ExprNameError), ("min(l1)", ExprArityError)],
    ids=["int", "None", "syntax", "name", "arity"],
)
def test_compile_fields_names_the_failing_slot(text, error):
    with pytest.raises(error, match=r"^h2: "):
        compile_fields({"h1": "l1", "h2": text}, 1, {"l1"})


def test_compile_fields_runs_the_slots_in_order():
    program = compile_fields(numbered("h", ["l1", "2*l1", "l1^2"], 3), 1, {"l1"})
    assert list(program.run({"l1": 3.0})) == [3.0, 6.0, 9.0]


@pytest.mark.parametrize("texts", ["01", ["0"], ["0", "1", "2"], None, {"h1": "0", "h2": "1"}], ids=repr)
def test_numbered_takes_exactly_k_texts(texts):
    assert numbered("h", ("0", "l1"), 2) == {"h1": "0", "h2": "l1"}
    with pytest.raises(ValidationError, match="h must be a list of expression strings"):
        numbered("h", texts, 2)


def test_eval_is_pure():
    e = parse("sin(l1)*exp(l2)+l1^3", 2)
    env = {"l1": 0.731, "l2": -1.25}
    first = eval_expr(e, env)
    assert all(eval_expr(e, env) == first for _ in range(5))


ROUND_TRIP_CORPUS = [
    "1",
    "2.5",
    "1e-3",
    "l1",
    "t",
    "S",
    "a1+a2",
    "l1-l2",
    "l1*l2",
    "l1/l2",
    "l1^l2",
    "-l1",
    "-l1^2",
    "(-l1)^2",
    "2^3^2",
    "(2^3)^2",
    "l1+l2+t",
    "l1-(l2-t)",
    "l1-l2-t",
    "l1*(l2+t)",
    "l1*l2+t",
    "l1/(l2*t)",
    "l1/l2*t",
    "l1/l2/t",
    "(l1+l2)/t",
    "exp(l1)",
    "log(l1+1)",
    "sqrt(l1^2+l2^2)",
    "sin(cos(l1))",
    "sinh(l1)*cosh(l2)",
    "tanh(l1*l2)",
    "abs(-l1)",
    "min(l1, l2)",
    "max(l1, min(l2, t))",
    "pow(l1, 2)",
    "1/(1+exp(-l1))",
    "l1^2+2*l1*l2+l2^2",
    "-(l1+l2)",
    "-l1*l2",
    "l1*-l2",
    "2*3.5",
    "0.5*(l1+l2)",
    "exp(-(l1^2)/2)",
    "S-log(2*cosh(l1))+l1*tanh(l1)",
    "a1+tanh(l1)",
    "l2*cos(l1*l2)",
    "1+l1^2",
    "sin(l1)*(1+l2^2)",
    "t^2-t",
    "l1^-2",
]


@pytest.mark.parametrize("text", ROUND_TRIP_CORPUS)
def test_pretty_parse_round_trip_is_fixed_point(text):
    once = pretty(parse(text, 2))
    twice = pretty(parse(once, 2))
    assert once == twice
    # printing must also preserve the tree itself
    assert parse(once, 2) == parse(twice, 2)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=40))
def test_parser_never_crashes_on_garbage(text):
    try:
        parse(text, 2)
    except ThermoGeomError:
        pass


@settings(max_examples=200, deadline=None)
@given(
    st.text(
        alphabet=list("0123456789.+-*/^()al, St"),
        max_size=30,
    )
)
def test_parser_never_crashes_on_near_misses(text):
    try:
        parse(text, 2)
    except ThermoGeomError:
        pass


# ---- array evaluation --------------------------------------------------------


def test_float_env_returns_float():
    assert type(ev("l1*l2", l1=0.5, l2=2.0)) is float


def test_array_env_broadcasts_every_value():
    e = parse("l1*l2 + 1", 2)
    l1 = np.array([1.0, 2.0, 3.0])
    l2 = np.array([[1.0], [-1.0]])
    out = eval_expr(e, {"l1": l1, "l2": l2})
    assert out.shape == (2, 3)
    assert np.array_equal(out, l1 * l2 + 1.0)
    # a constant takes the broadcast shape of the env too, as a writable array
    const = eval_expr(parse("2", 2), {"l1": l1, "l2": l2})
    assert const.shape == (2, 3) and np.all(const == 2.0)
    const[0, 0] = 5.0


@pytest.mark.parametrize(
    "text, values, node, operand",
    [
        ("l2 + log(l1)", [1.0, 0.5, 0.0, -0.5, -1.0], "log(l1)", "0.0"),
        ("l2 * (1/l1)", [2.0, 1.0, 0.0, -1.0, -2.0], "1.0/l1", "0.0"),
        ("l2 + sqrt(l1)", [4.0, 1.0, -1.0, 0.0, -4.0], "sqrt(l1)", "-1.0"),
        ("l2 + exp(l1)", [1.0, 10.0, 1000.0, 1e4, 1.0], "exp(l1)", "1000.0"),
        ("l2 + l1^0.5", [4.0, 1.0, -2.0, -3.0, 0.0], "l1^0.5", "-2.0"),
        ("l2 + pow(l1, -1)", [4.0, 1.0, 0.0, -3.0, 0.0], "pow(l1, -1.0)", "0.0"),
    ],
)
def test_array_domain_error_names_node_operand_and_element(text, values, node, operand):
    # the first offending element in C order is (row 0, column 2)
    l1 = np.array(values)
    l2 = np.array([[0.25], [0.75], [1.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ExprDomainError) as err:
            eval_expr(parse(text, 2), {"l1": l1, "l2": l2})
    msg = str(err.value)
    assert repr(node) in msg
    assert f"operand {operand}" in msg
    assert f"l1={values[2]!r}, l2=0.25" in msg


def _leaf():
    return st.one_of(
        st.sampled_from([Var("l1"), Var("l2")]),
        st.sampled_from([0.0, 1.0, 2.0, 0.5, 3.0]).map(Num),
        st.floats(0.0, 8.0, allow_nan=False).map(Num),
    )


def _node(children):
    unary = st.sampled_from(["exp", "log", "sqrt", "sin", "cos", "sinh", "cosh", "tanh", "abs"])
    return st.one_of(
        children.map(Neg),
        st.builds(BinOp, st.sampled_from(list("+-*/^")), children, children),
        st.builds(lambda f, x: Call(f, (x,)), unary, children),
        st.builds(
            lambda f, x, y: Call(f, (x, y)), st.sampled_from(["min", "max", "pow"]), children, children
        ),
    )


_EXPRS = st.recursive(_leaf(), _node, max_leaves=10)
_VALUES = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 2.0, -0.5, 700.0]),
    st.floats(-30.0, 30.0, allow_nan=False),
)


def _outcome(e, env):
    try:
        return eval_expr(e, env)
    except ExprDomainError:
        return None


@settings(max_examples=300, deadline=None)
@given(_EXPRS, st.lists(st.tuples(_VALUES, _VALUES), min_size=1, max_size=6))
def test_array_evaluation_matches_each_element_alone(e, points):
    l1, l2 = (np.array(column) for column in zip(*points))
    singles = [_outcome(e, {"l1": a, "l2": b}) for a, b in points]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if any(s is None for s in singles):
            with pytest.raises(ExprDomainError):
                eval_expr(e, {"l1": l1, "l2": l2})
            return
        out = eval_expr(e, {"l1": l1, "l2": l2})
    singles = np.array(singles)
    assert out.shape == singles.shape
    same = (out == singles) | (np.isnan(out) & np.isnan(singles))
    finite = np.isfinite(out) & np.isfinite(singles)
    scale = np.maximum(np.abs(out), np.abs(singles), where=finite, out=np.ones_like(out))
    # subtract only finite pairs: inf - inf on equal infinities would warn
    gap = np.abs(np.subtract(out, singles, where=finite, out=np.zeros_like(out)))
    assert np.all(same | (finite & (gap <= 4 * np.spacing(scale))))


# ---- compiled programs -------------------------------------------------------


def _walk(e, env):
    """The recursive tree walk the compiled program replaced, kept as its reference."""
    kind = type(e)
    if kind is Num:
        return e.value
    if kind is Var:
        return exprlang._var(e, env)
    if kind is Neg:
        op, args = "neg", (e.arg,)
    elif kind is BinOp:
        op, args = e.op, (e.left, e.right)
    else:
        op, args = e.func, e.args
    values = [_walk(a, env) for a in args]
    if op in exprlang._UNCHECKED:
        return exprlang._UNCHECKED[op](*values)
    return exprlang._CHECKED[op](e, env, *values)


def _walk_expr(e, env):
    with np.errstate(all="ignore"):
        out = _walk(e, env)
    shape = np.broadcast_shapes(*map(np.shape, env.values()))
    if not shape:
        return float(out)
    return np.broadcast_to(out, shape).copy() if np.shape(out) != shape else out


def _same_bits(x, y):
    return type(x) is type(y) and np.shape(x) == np.shape(y) and (
        np.asarray(x).tobytes() == np.asarray(y).tobytes()
    )


def _outcomes(values):
    """The values an iterator yields, then the ExprDomainError that ended it, if any."""
    out = []
    try:
        for value in values:
            out.append(value)
    except ExprDomainError as exc:
        out.append(exc)
    return out


# expressions built around one subtree e, so a program over them shares it
_AROUND = [
    lambda e: e,
    lambda e: BinOp("*", e, Var("l1")),
    lambda e: BinOp("+", Call("log", (e,)), e),
    lambda e: Call("max", (e, Neg(e))),
    lambda e: BinOp("/", Var("l2"), e),
]


@st.composite
def _sharing(draw):
    e = draw(_EXPRS)
    around = st.sampled_from(_AROUND).map(lambda wrap: wrap(e))
    return draw(st.lists(st.one_of(around, _EXPRS), min_size=1, max_size=4))


@settings(max_examples=300, deadline=None)
@given(_sharing(), st.lists(st.tuples(_VALUES, _VALUES), min_size=1, max_size=6), st.booleans())
def test_program_matches_each_expression_alone(exprs, points, scalar):
    if scalar:
        env = dict(zip(("l1", "l2"), points[0]))
    else:
        env = {name: np.array(column) for name, column in zip(("l1", "l2"), zip(*points))}
    alone = _outcomes(eval_expr(e, env) for e in exprs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        together = _outcomes(Program(exprs).run(env))
    # values up to the first expression that fails alone, then that error
    assert len(together) == len(alone)
    for got, expect, e in zip(together, alone, exprs):
        if isinstance(expect, ExprDomainError):
            assert type(got) is type(expect) and str(got) == str(expect)
            with pytest.raises(ExprDomainError, match=re.escape(str(expect))):
                _walk_expr(e, env)
        else:
            assert _same_bits(got, expect) and _same_bits(expect, _walk_expr(e, env))


def test_signed_zero_constants_keep_their_sign_bits():
    l1 = np.array([1.0, 2.0])
    program = Program([BinOp("*", Num(-0.0), Var("l1")), BinOp("*", Num(0.0), Var("l1"))])
    negative, positive = program.run({"l1": l1})
    assert np.all(np.signbit(negative)) and not np.any(np.signbit(positive))
    # one load of l1 and two products: the constants are not merged
    assert len(program) == 3


def test_shared_subtrees_are_computed_once():
    # h_k = g_S * l_k: 5 + 7 + 7 tree nodes, of which 13 are operations or loads
    g = parse("1+l1^2", 2)
    h = [parse(f"(1+l1^2)*l{k}", 2) for k in (1, 2)]
    program = Program([g, *h])
    # l1, l1^2, 1+l1^2, then g*l1, l2 and g*l2
    assert len(program) == 6
    env = {"l1": np.array([0.5, 2.0]), "l2": np.array([3.0, -1.0])}
    assert all(_same_bits(x, eval_expr(e, env)) for x, e in zip(program.run(env), [g, *h]))


def test_each_register_is_dropped_after_its_last_reader():
    program = Program([parse("exp(l1)*l2 + l1", 2), parse("l2", 2)])
    (steps, out, dropped), (steps2, out2, dropped2) = program._segments
    # an instruction is [function, node, a, b, register, registers dropped after it]
    l1, exp, l2, product, total = (step[4] for step in steps)
    assert [set(step[5]) for step in steps] == [set(), set(), set(), {exp}, {l1, product}]
    assert (out, dropped) == (total, [total])
    # the second expression only reads l2, which lives until it is output
    assert (steps2, out2, dropped2) == ([], l2, [l2])

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from moser_transport import (
    EvaluationDomainError,
    ExpressionAst,
    ExpressionSyntaxError,
    parse_density_expression,
)
from moser_transport.diagnostics import central_difference, richardson_stable
from moser_transport.expressions import BinOp, Call, Neg, Num, Var


def test_example_formula_value():
    ast = parse_density_expression("2*x^2*m + 5*(1-x^2)*m^4")
    assert ast.evaluate(x=1.0, m=1.0) == pytest.approx(2.0)


def test_identity_expression():
    ast = parse_density_expression("m")
    assert ast.evaluate(x=0.0, m=0.5) == 0.5


def test_singular_point_raises():
    ast = parse_density_expression("sin(1/m)")
    with pytest.raises(EvaluationDomainError):
        ast.evaluate(x=0.0, m=0.0)


def test_precedence_and_associativity():
    assert parse_density_expression("2+3*4^2", variables=()).evaluate() == 50.0
    assert parse_density_expression("-2^2", variables=()).evaluate() == -4.0
    # ^ is right-associative
    assert parse_density_expression("2^3^2", variables=()).evaluate() == 512.0
    assert parse_density_expression("2-3-4", variables=()).evaluate() == -5.0
    assert parse_density_expression("16/4/2", variables=()).evaluate() == 2.0


def test_constants_and_functions():
    assert parse_density_expression("cos(pi)", variables=()).evaluate() == pytest.approx(-1.0)
    assert parse_density_expression("log(e)", variables=()).evaluate() == pytest.approx(1.0)
    assert parse_density_expression("min(2, 3) + max(4, 1)", variables=()).evaluate() == 6.0


def test_syntax_error_carries_offset():
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_density_expression("2*x +* 3")
    assert err.value.offset == 5


def test_unknown_identifier():
    with pytest.raises(ExpressionSyntaxError):
        parse_density_expression("2*y", variables=("x", "m"))


def test_arity_mismatch():
    with pytest.raises(ExpressionSyntaxError):
        parse_density_expression("sin(x, m)")
    with pytest.raises(ExpressionSyntaxError):
        parse_density_expression("min(x)")


def test_domain_errors():
    with pytest.raises(EvaluationDomainError):
        parse_density_expression("log(0-1)", variables=()).evaluate()
    with pytest.raises(EvaluationDomainError):
        parse_density_expression("sqrt(0-1)", variables=()).evaluate()
    with pytest.raises(EvaluationDomainError):
        parse_density_expression("0^(0-1)", variables=()).evaluate()


@pytest.mark.parametrize("text", ["1/0", "0^(0-1)", "log(0)", "log(0-1)", "sqrt(0-1)",
                                  "(0-8)^(1/3)"])
def test_domain_errors_come_from_the_floating_point_flags(text):
    # Python-float operands get numpy semantics too: no ZeroDivisionError, no complex power
    with pytest.raises(EvaluationDomainError):
        parse_density_expression(text, variables=()).evaluate()
    with pytest.raises(EvaluationDomainError):
        parse_density_expression(text.replace("0", "(0*m)", 1)).evaluate(x=0.0, m=np.ones(3))


def test_integer_power_of_a_negative_is_in_the_domain():
    assert parse_density_expression("(0-8)^2", variables=()).evaluate() == 64.0


def test_nan_from_finite_input_raises():
    # m^-2 overflows to inf and exp(-1/m) underflows to 0: their product was a NaN
    ast = parse_density_expression("m^(-2)*exp(-1/m)")
    with np.errstate(over="ignore"), pytest.raises(EvaluationDomainError, match="invalid"):
        ast.evaluate(x=0.0, m=np.array([0.5, 1e-200]))


def test_domain_errors_raise_inside_worker_threads():
    # np.errstate is per thread: a worker starts from numpy's default (warn)
    # state, and evaluate sets the raising flags in whichever thread runs it
    ast = parse_density_expression("log(m)")

    def run(m):
        try:
            return float(ast.evaluate(x=0.0, m=np.full(4, m))[0])
        except EvaluationDomainError as exc:
            return str(exc)

    with ThreadPoolExecutor(max_workers=2) as pool:
        got = list(pool.map(run, [0.0, 1.0, -1.0, math.e]))
    assert got == ["divide by zero encountered in log", 0.0,
                   "invalid value encountered in log", 1.0]


def test_array_evaluation_matches_scalar():
    ast = parse_density_expression("2*x^2*m + 5*(1-x^2)*m^4")
    ms = np.linspace(0.0, 1.0, 7)
    arr = ast.evaluate(x=0.3, m=ms)
    for i, m in enumerate(ms):
        assert arr[i] == pytest.approx(ast.evaluate(x=0.3, m=float(m)))


_leaves = st.one_of(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False).map(Num),
    st.sampled_from(["x", "m", "pi"]).map(Var),
)


def _nodes(children):
    return st.one_of(
        st.tuples(st.sampled_from("+-*/"), children, children).map(
            lambda t: BinOp(t[0], t[1], t[2])
        ),
        children.map(Neg),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "abs"]), children).map(
            lambda t: Call(t[0], (t[1],))
        ),
        st.tuples(st.sampled_from(["min", "max"]), children, children).map(
            lambda t: Call(t[0], (t[1], t[2]))
        ),
    )


ast_strategy = st.recursive(_leaves, _nodes, max_leaves=12)


@given(root=ast_strategy)
def test_pretty_print_reparses_to_same_ast(root):
    text = str(root)
    reparsed = parse_density_expression(text, variables=("x", "m"))
    assert reparsed.root == root


@given(root=ast_strategy, x=st.floats(0.1, 2.0), m=st.floats(0.1, 1.0))
def test_pretty_print_preserves_value(root, x, m):
    env = {"x": x, "m": m}
    try:
        expected = ExpressionAst(root=root, variables=("x", "m"), source="").evaluate(**env)
    except EvaluationDomainError:
        return
    if not math.isfinite(float(np.asarray(expected))):
        return
    got = parse_density_expression(str(root), variables=("x", "m")).evaluate(**env)
    assert float(got) == pytest.approx(float(expected), rel=1e-12, abs=1e-12)


def _in_domain(children):
    # every operator and function of the grammar, with arguments kept inside
    # their domains: log of 1 + u^2, sqrt and powers of 2 + sin(u) > 0
    lift = lambda u: BinOp("+", Num(2.0), Call("sin", (u,)))
    return st.one_of(
        st.tuples(st.sampled_from("+-*"), children, children).map(
            lambda t: BinOp(t[0], t[1], t[2])),
        st.tuples(children, children).map(lambda t: BinOp("/", t[0], lift(t[1]))),
        st.tuples(children, st.sampled_from([2.0, 3.0, -1.5])).map(
            lambda t: BinOp("^", lift(t[0]), Num(t[1]))),
        st.tuples(children, st.sampled_from([2.0, 3.0])).map(
            lambda t: BinOp("^", t[0], Num(t[1]))),
        st.tuples(children, children).map(lambda t: BinOp("^", lift(t[0]), t[1])),
        children.map(Neg),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "abs"]), children).map(
            lambda t: Call(t[0], (t[1],))),
        children.map(lambda u: Call("log", (BinOp("+", Num(1.0), BinOp("^", u, Num(2.0))),))),
        children.map(lambda u: Call("sqrt", (lift(u),))),
        st.tuples(st.sampled_from(["min", "max"]), children, children).map(
            lambda t: Call(t[0], (t[1], t[2]))),
    )


_smooth_leaves = st.one_of(st.sampled_from([0.5, 2.0, 3.0]).map(Num),
                           st.sampled_from(["x", "m", "pi"]).map(Var))
_domain_ast = st.recursive(_smooth_leaves, _in_domain, max_leaves=6)


def _subtrees(node):
    yield node
    parts = {Neg: lambda n: (n.operand,), BinOp: lambda n: (n.left, n.right),
             Call: lambda n: n.args}.get(type(node), lambda n: ())(node)
    for part in parts:
        yield from _subtrees(part)


@settings(max_examples=150, deadline=None)
@given(root=_domain_ast, var=st.sampled_from(["x", "m"]), j=st.sampled_from([1, 2]),
       x0=st.floats(-1.0, 1.0), m0=st.floats(0.1, 0.9))
def test_diff_matches_richardson_checked_difference(root, var, j, x0, m0):
    ast = parse_density_expression(str(root))
    env = {"x": x0, "m": m0}
    h = 1e-3
    span = np.linspace(env[var] - j * h / 2, env[var] + j * h / 2, 9)
    for part in _subtrees(ast.root):
        # parts of moderate size keep every oscillation slow on the scale of h
        assume(abs(part.evaluate(env)) < 10)
        if isinstance(part, Call) and part.func in ("abs", "min", "max"):
            # the difference reads one piece of every abs, min and max
            kink = part.args[0] if part.func == "abs" else BinOp("-", *part.args)
            signs = np.sign([kink.evaluate({**env, var: v}) for v in span])
            assume(np.all(signs == signs[0]) and signs[0] != 0)
    values = np.array([ast.evaluate(**{**env, var: v}) for v in span], dtype=float)
    deriv = ast
    for _ in range(j):
        deriv = deriv.diff(var)
    exact = float(deriv.evaluate(**env))
    f = lambda v: float(ast.evaluate(**{**env, var: v}))
    d_h, d_h2 = central_difference(f, env[var], j, h), central_difference(f, env[var], j, h / 2)
    scale = max(1.0, np.max(np.abs(values)), abs(exact))
    assume(richardson_stable(d_h, d_h2, 1e-6 * scale))
    assert abs(exact - (4 * d_h2 - d_h) / 3) <= 1e-6 * scale


@given(root=st.recursive(st.one_of(st.sampled_from([0.5, 2.0, 3.0]).map(Num),
                                   st.just(Var("pi"))), _in_domain, max_leaves=6))
def test_diff_of_a_variable_free_tree_is_an_array_of_zeros(root):
    ast = parse_density_expression(str(root))
    m = np.linspace(0.0, 1.0, 5)
    for var in ("x", "m"):
        out = ast.diff(var).evaluate(x=0.3, m=m)
        assert isinstance(out, np.ndarray) and out.shape == m.shape
        assert np.all(out == 0.0)


def test_derivative_functions_are_internal():
    # sign and where exist only inside derivative trees
    for text in ("sign(m)", "where(m, 1, 0)"):
        with pytest.raises(ExpressionSyntaxError):
            parse_density_expression(text)
    d = parse_density_expression("abs(m - 0.5) + min(m, x) + max(m, 2*x)").diff("m")
    m = np.array([0.2, 0.7])
    assert d.evaluate(x=0.4, m=m).tolist() == [-1.0 + 1.0 + 0.0, 1.0 + 0.0 + 0.0]

import numpy as np
import pytest

from stshapeopt import AnalyticSource, Identity, Polynomial1D
from stshapeopt.errors import StshapeoptError
from stshapeopt.expressions import MAX_DEPTH, Expression, ExpressionError

VARS = ("t", "x", "xref")


def test_arithmetic_and_precedence():
    e = Expression("1 + 2*3 - 4/2 + 2^3", VARS)
    assert e(t=0, x=0, xref=0) == 1 + 6 - 2 + 8


def test_variables_and_pi():
    e = Expression("sin(pi*x) + t", VARS)
    assert abs(e(t=0.5, x=0.5, xref=0.0) - 1.5) < 1e-15


def test_vectorized_evaluation():
    e = Expression("(xref-0.4)*(xref-0.6)*sqrt(x)*(1+t-x)", VARS)
    x = np.linspace(0.1, 0.9, 7)
    vals = e(t=0.25, x=x, xref=x)
    expected = (x - 0.4) * (x - 0.6) * np.sqrt(x) * (1.25 - x)
    assert np.allclose(vals, expected, atol=1e-15)


def test_source_gradient_differentiates_through_the_preimage():
    # xref = phi_t^{-1}(x) moves with x, so the spatial gradient is
    # df/dx + (df/dxref) / phi_t'(xref); checked by central differences of
    # values(t, x +- h, phi_t^{-1}(x +- h)) at points inside phi_t([0, 1])
    motion = Polynomial1D()
    source = AnalyticSource("(xref-0.4)*(xref-0.6)*sqrt(x)*(1+t-x)", motion)
    t, xi = (a.ravel() for a in np.meshgrid(np.linspace(0.0, 1.0, 5),
                                            np.linspace(0.05, 0.95, 7)))
    x = motion.forward(t, xi[:, None])[:, 0]
    h = 1e-6

    def f(y):
        return source.values(t, y, motion.inverse(t, y[:, None])[:, 0])

    fd = (f(x + h) - f(x - h)) / (2.0 * h)
    assert np.max(np.abs(source.gradient(t, x, xi) - fd)) < 1e-8


@pytest.mark.parametrize("text", [
    "x*x*t", "sqrt(x)*(1+t-x)", "sin(2*x)+cos(x*t)", "x**3 - 2*x",
    "(x-0.4)*(x-0.6)/(1+x)",
])
def test_derivative_matches_finite_difference(text):
    e = Expression(text, VARS)
    d = e.derivative("x")
    h = 1e-6
    for x in (0.3, 0.7, 1.2):
        fd = (e(t=0.4, x=x + h, xref=0.0)
              - e(t=0.4, x=x - h, xref=0.0)) / (2 * h)
        assert abs(d(t=0.4, x=x, xref=0.0) - fd) < 1e-8 * (abs(fd) + 1.0)


def test_quotient_rule_does_not_square_a_tiny_constant_divisor():
    # 1e-200 ** 2 underflows to 0.0, a ZeroDivisionError in Python floats
    d = Expression("u/1e-200", ("u",)).derivative("u")
    assert np.all(d(u=np.ones(2)) == 1e200)


def test_derivative_of_unused_variable_is_zero():
    e = Expression("sin(pi*t)", VARS)
    d = e.derivative("x")
    assert d(t=0.3, x=99.0, xref=0.0) == 0.0


def test_unknown_variable_rejected():
    with pytest.raises(ExpressionError, match="unknown variable"):
        Expression("y + 1", VARS)


def test_unknown_token_rejected():
    with pytest.raises(ExpressionError):
        Expression("x $ 2", VARS)


def test_nonconstant_exponent_rejected():
    with pytest.raises(ExpressionError, match="exponent"):
        Expression("x**t", VARS)


@pytest.mark.parametrize("text", [
    "x + 1/0", "sin(x**(1/0))", "0**-1 * x", "(1-1)**-1", "x**(0**-1)",
    "10**400", "(-8)**0.5", "x/0", "sin(x)/(1-1)",
])
def test_constant_that_python_floats_cannot_evaluate_rejected(text):
    # a constant subtree evaluates in Python floats, which raise a builtin
    # error or give a complex number where numpy arrays give inf or nan;
    # the derivative of x/0 divides 0.0 by 0.0 ** 2
    with pytest.raises(ExpressionError, match="cannot evaluate"):
        Expression(text, VARS)


@pytest.mark.parametrize("text", ["1/sin(0)", "u/sqrt(0)", "sqrt(-1)",
                                  "1e309"])
def test_constant_part_is_checked_by_evaluating_it(text):
    # a function call evaluates in numpy, where a zero divisor gives inf
    # and sqrt(-1) nan; the literal 1e309 is inf already
    with pytest.raises(ExpressionError, match="cannot evaluate"):
        Expression(text, ("u",))


@pytest.mark.parametrize("text, value", [
    ("sin(1)*1e-310", np.sin(1.0) * 1e-310),
    ("u*cos(1)**2000", 0.0),
], ids=["sin(1)*1e-310", "u*cos(1)**2000"])
def test_constant_part_that_underflows_accepted(text, value):
    # a subnormal or zero constant part is still a finite real number
    e = Expression(text, ("u",))
    assert np.array_equal(e(u=np.ones(2)), np.full(2, value))


def test_exponent_may_be_any_constant_part():
    u = np.linspace(-2.0, 2.0, 9)
    e = Expression("u**sqrt(4)", ("u",))
    assert e.node == Expression("u**2", ("u",)).node
    assert np.array_equal(e(u=u), u**2)


@pytest.mark.parametrize("text", ["2", "x", "x*t"])
def test_value_is_a_new_float_array_of_the_variables_shape(text):
    value = Expression(text, ("t", "x"))(t=1, x=np.zeros((2, 3), dtype=int))
    assert value.dtype == float and value.shape == (2, 3)
    assert value.flags.writeable


@pytest.mark.parametrize("text, value, slope", [
    ("*".join(["x"] * MAX_DEPTH), lambda x: x**MAX_DEPTH,
     lambda x: MAX_DEPTH * x**(MAX_DEPTH - 1)),
    # x/(x/(...(x*x))) alternates x^2 and 1/x; its derivative nests three
    # levels per division, the deepest there is
    ("x/(" * (MAX_DEPTH - 2) + "x*x" + ")" * (MAX_DEPTH - 2),
     lambda x: x**2, lambda x: 2.0 * x),
], ids=["product", "nested_quotient"])
def test_expression_at_the_depth_cap_evaluates_and_differentiates(
        text, value, slope):
    x = np.array([0.9, 1.1])
    e = Expression(text, ("x",))
    assert np.allclose(e(x=x), value(x), rtol=1e-12)
    assert np.allclose(e.derivative("x")(x=x), slope(x), rtol=1e-12)


def test_expression_deeper_than_the_cap_rejected():
    with pytest.raises(ExpressionError, match="nested deeper"):
        Expression("*".join(["x"] * (MAX_DEPTH + 1)), ("x",))


def test_unbalanced_parentheses_rejected():
    with pytest.raises(ExpressionError):
        Expression("sin(x", VARS)


@pytest.mark.parametrize("text", [
    "2 3", "2x", "0x1F", "sin(x))", "x(2)", "pi(x)",
])
def test_text_after_a_complete_expression_rejected(text):
    # each of these starts with a valid expression; the rest must not be
    # dropped silently
    with pytest.raises(ExpressionError):
        Expression(text, VARS)


@pytest.mark.parametrize("text", [
    "+x", "True", "1j", "'x'", "x if t else 1", "sin(x, t)", "sin(x=1)",
    "x // 2", "x % 2", "x < 1", "sqrt(*x)", "x.real", "[x]", "",
])
def test_python_syntax_outside_the_grammar_rejected(text):
    with pytest.raises(ExpressionError):
        Expression(text, VARS)


@pytest.mark.parametrize("text, node", [
    ("-x**2", ("sub", ("num", 0.0), ("pow", ("var", "x"), 2.0))),
    ("2^3^2", ("pow", ("num", 2.0), 9.0)),
    ("x^-2", ("pow", ("var", "x"), -2.0)),
    ("x*-t", ("mul", ("var", "x"), ("sub", ("num", 0.0), ("var", "t")))),
    ("-2", ("sub", ("num", 0.0), ("num", 2.0))),
    ("0 + x", ("var", "x")),
    ("1*x", ("var", "x")),
    ("x/t/2", ("div", ("div", ("var", "x"), ("var", "t")), ("num", 2.0))),
])
def test_tree_shape(text, node):
    # unary minus binds looser than power, power is right-associative with
    # a folded constant exponent, and 0 + a, 1 * a simplify to a; the
    # symbolic derivative is built on exactly this tree
    assert Expression(text, VARS).node == node


def test_expression_error_is_a_package_error():
    with pytest.raises(StshapeoptError) as info:
        AnalyticSource("x $ 2", Identity(dim=1))
    assert isinstance(info.value, ExpressionError)
    assert isinstance(info.value, ValueError)


def test_missing_environment_variable():
    e = Expression("x*t", VARS)
    with pytest.raises(ExpressionError, match="missing"):
        e(x=1.0)

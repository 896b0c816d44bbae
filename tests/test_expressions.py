import numpy as np
import pytest

from darksol import compile_expression
from darksol.errors import ExpressionError


def test_arithmetic_matches_numpy():
    x = np.linspace(-2.0, 3.0, 101)
    expr = compile_expression("1 + 0.5*sin(2*pi*x) - x/4 + x*x*0.125")
    want = 1 + 0.5 * np.sin(2 * np.pi * x) - x / 4 + x * x * 0.125
    np.testing.assert_array_equal(expr(x=x), want)


def test_precedence_and_associativity():
    e = compile_expression("1 + 2*3", variables=())
    assert e() == 7.0
    assert compile_expression("(1 + 2)*3", variables=())() == 9.0
    # left-to-right for same precedence
    assert compile_expression("2 - 3 - 4", variables=())() == -5.0
    assert compile_expression("16/4/2", variables=())() == 2.0


def test_unary_minus():
    assert compile_expression("-2*3", variables=())() == -6.0
    assert compile_expression("2*-3", variables=())() == -6.0
    assert compile_expression("--2", variables=())() == 2.0
    x = np.array([1.0, -4.0])
    np.testing.assert_array_equal(compile_expression("-x")(x=x), -x)


def test_functions_and_pi():
    x = np.linspace(0.0, 1.0, 7)
    e = compile_expression("exp(-x) + cos(pi*x)")
    np.testing.assert_allclose(e(x=x), np.exp(-x) + np.cos(np.pi * x),
                               rtol=1e-15)


def test_extra_variable_binding():
    e = compile_expression("1 + a*sin(2*pi*x)", variables=("x", "a"))
    x = np.linspace(0.0, 1.0, 5)
    np.testing.assert_allclose(e(x=x, a=0.25), 1 + 0.25 * np.sin(2 * np.pi * x))


def test_unknown_name_rejected_at_parse_time():
    with pytest.raises(ExpressionError) as err:
        compile_expression("1 + y")
    assert err.value.position == 4


def test_unknown_function_rejected():
    with pytest.raises(ExpressionError):
        compile_expression("tan(x)")


def test_zero_divisor_is_an_expression_error():
    # Python floats raise on a zero divisor; the run must see bad input.
    with pytest.raises(ExpressionError, match="division by zero"):
        compile_expression("1 + 1/0", variables=())()
    expr = compile_expression("1 + 0.1/a", variables=("x", "a"))
    with pytest.raises(ExpressionError):
        expr(x=np.zeros(3), a=0.0)
    assert expr(x=0.0, a=1.0) == pytest.approx(1.1)


def test_syntax_errors_carry_position():
    with pytest.raises(ExpressionError) as err:
        compile_expression("1 + ")
    assert err.value.position == 4
    with pytest.raises(ExpressionError):
        compile_expression("(1 + x")
    with pytest.raises(ExpressionError):
        compile_expression("1 + x)")
    with pytest.raises(ExpressionError):
        compile_expression("x % 2")
    with pytest.raises(ExpressionError):
        compile_expression("")


def test_unbound_variable_at_evaluation():
    e = compile_expression("a*x", variables=("x", "a"))
    with pytest.raises(ExpressionError):
        e(x=np.zeros(3))


def test_compile_is_deterministic():
    x = np.linspace(-1.0, 1.0, 33)
    a = compile_expression("sin(3*x)*exp(-x*x)")(x=x)
    b = compile_expression("sin(3*x)*exp(-x*x)")(x=x)
    np.testing.assert_array_equal(a, b)


# Python reads all of these, but the language has none of them; the
# deep ones used to end in a RecursionError.
OUTSIDE_THE_LANGUAGE = [
    "0x10", "1_0", "1j", "True", "x**2", "x%2", "x//2", "sin(x, x)",
    "sin(x=1)", "x, 1", "x if x else 1", "x.real", "x[0]", "x)+(x",
    "1 # comment", "sin", "sin()", "sin(*x)", "pi(x)", "x(1)", "None",
    "not x", "x < 1",
    "+".join(["x"] * 5000), "(" * 1000 + "x" + ")" * 1000,
]


@pytest.mark.parametrize("text", OUTSIDE_THE_LANGUAGE,
                         ids=lambda text: text[:16])
def test_outside_the_language_is_rejected(text):
    with pytest.raises(ExpressionError) as err:
        compile_expression(text)
    assert 0 <= err.value.position <= len(text)


def test_repository_expressions_match_numpy():
    # every expression the README, the demos, the test problems and the
    # benchmark inputs write, against numpy in the same operation order
    x = np.linspace(-3.0, 3.0, 601)
    a, amp, phase = 0.4321, 0.6180339887498949, 0.7071067811865476
    cases = [
        ("1 + 0.5*sin(2*pi*x)", 1 + 0.5 * np.sin(2 * np.pi * x)),
        ("1 + a*sin(2*pi*x)", 1 + a * np.sin(2 * np.pi * x)),
        ("1 + a*cos(2*pi*x)", 1 + a * np.cos(2 * np.pi * x)),
        ("1 - a*cos(2*pi*x)", 1 - a * np.cos(2 * np.pi * x)),
        (f"1 + {amp!r}*cos(2*pi*(x - {phase!r}))",
         1 + amp * np.cos(2 * np.pi * (x - phase))),
        (f"{amp!r}*cos(2*pi*(x - {phase!r}))",
         amp * np.cos(2 * np.pi * (x - phase))),
        ("0.3*cos(2*pi*x)", 0.3 * np.cos(2 * np.pi * x)),
        ("1.0", np.full_like(x, 1.0)),
        ("1", np.full_like(x, 1.0)),
        ("0", np.zeros_like(x)),
    ]
    for text, want in cases:
        got = compile_expression(text, variables=("x", "a"))(x=x, a=a)
        np.testing.assert_array_equal(np.broadcast_to(got, x.shape), want,
                                      err_msg=text)

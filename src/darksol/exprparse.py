"""Small arithmetic expression language for coefficient profiles.

`ast.parse` reads the text and each node is checked against the language
(decimal numbers, pi, declared names, + - * /, unary + -, parentheses,
sin, cos and exp of one argument); anything else is reported with its
position. The checked tree runs as bytecode, so it does not recurse.
"""

import ast
import math
import string
from dataclasses import dataclass

import numpy as np

from .errors import ExpressionError

__all__ = ["CompiledExpression", "compile_expression"]

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_CONSTANTS = {"pi": math.pi, **_FUNCTIONS}
_ALPHABET = frozenset(string.ascii_letters + string.digits
                      + string.whitespace + "_.+-*/()")
_DECIMAL = frozenset(string.digits + ".eE+-")
_BLANKS = str.maketrans(string.whitespace, " " * len(string.whitespace))


@dataclass(frozen=True)
class CompiledExpression:
    """Parsed expression; evaluate with keyword bindings for its variables."""

    source: str
    variables: frozenset
    _code: object

    def __call__(self, **bindings):
        missing = self.variables - set(bindings)
        if missing:
            raise ExpressionError(
                f"unbound variable(s) {sorted(missing)} in {self.source!r}")
        try:
            return eval(self._code, {"__builtins__": {}},
                        {**bindings, **_CONSTANTS})
        except ZeroDivisionError:  # a scalar divisor; arrays give inf
            raise ExpressionError(
                f"division by zero in {self.source!r}") from None


def _fail(text, message, pos):
    raise ExpressionError(f"{message} at position {pos} in {text!r}",
                          position=pos)


def _check(tree, line, indent, allowed):
    """Free variables of `tree`, parsed from `line[indent:]`. Raises on any
    node outside the language; sets each literal to the float of its text."""
    seen, callees = set(), set()
    for node in ast.walk(tree.body):
        if isinstance(node, (ast.operator, ast.unaryop, ast.expr_context)):
            continue  # judged with the node that holds it
        pos = indent + node.col_offset
        segment = line[pos:indent + node.end_col_offset]
        ok = False
        if isinstance(node, ast.BinOp):
            ok = isinstance(node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div))
        elif isinstance(node, ast.UnaryOp):
            ok = isinstance(node.op, (ast.UAdd, ast.USub))
        elif isinstance(node, ast.Constant):
            ok = type(node.value) in (int, float) and set(segment) <= _DECIMAL
            node.value = float(segment) if ok else None
        elif isinstance(node, ast.Call):
            ok = (isinstance(node.func, ast.Name) and node.func.id in _FUNCTIONS
                  and len(node.args) == 1 and not node.keywords)
            callees.add(node.func)
        elif isinstance(node, ast.Name):
            ok = node in callees or node.id == "pi" or (
                node.id in allowed and node.id not in _FUNCTIONS)
            if ok and node.id not in _CONSTANTS:
                seen.add(node.id)
        if not ok:
            what = "unknown name" if isinstance(node, ast.Name) else "unsupported"
            _fail(line, f"{what} {segment!r}", pos)
    return frozenset(seen)


def compile_expression(text, variables=("x",)):
    """Compile `text` into a CompiledExpression over the given variable names."""
    if not isinstance(text, str) or not text.strip():
        raise ExpressionError("empty expression")
    for pos, char in enumerate(text):
        if char not in _ALPHABET:
            _fail(text, f"unexpected character {char!r}", pos)
    line = text.translate(_BLANKS)  # one line, even if continued in a config
    indent = len(line) - len(line.lstrip())  # Python refuses a leading blank
    try:
        tree = ast.parse(line[indent:], mode="eval")
        names = _check(tree, line, indent, set(variables))
        code = compile(tree, "<expression>", "eval")
    except SyntaxError as exc:  # offset 0: the text ends too early
        _fail(text, exc.msg,
              indent + exc.offset - 1 if exc.offset else len(text))
    except RecursionError:
        _fail(text, "expression nests too deeply", 0)
    return CompiledExpression(source=text, variables=names, _code=code)

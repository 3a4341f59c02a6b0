"""Small analytic expression grammar for run configurations.

The text must be one expression built from numbers, named variables, `pi`,
the operators + - * / ** (also ^, which means **), unary minus, parentheses
and the functions sqrt, sin, cos.  Exponents must be numeric constants.  It
is parsed with Python's `ast`; any other Python syntax is rejected.
Expressions evaluate over numpy arrays and carry exact symbolic derivatives
with respect to their variables.
"""

import ast

import numpy as np

from .errors import ExpressionError

FUNCTIONS = ("sqrt", "sin", "cos")


def _fold_constant(node):
    if node[0] in ("num", "var", "call"):
        return node
    if node[0] == "pow":
        base = _fold_constant(node[1])
        if base[0] == "num":
            return ("num", base[1] ** node[2])
        return node
    a = _fold_constant(node[1])
    b = _fold_constant(node[2])
    if a[0] == "num" and b[0] == "num":
        ops = {"add": lambda x, y: x + y, "sub": lambda x, y: x - y,
               "mul": lambda x, y: x * y, "div": lambda x, y: x / y}
        return ("num", ops[node[0]](a[1], b[1]))
    return (node[0], a, b)


def _checked(tree, node):
    """``tree``, once its constant subtrees fold to a real number and no
    divisor is a constant zero: Python floats raise on a zero divisor or an
    overflowing power where numpy arrays give inf, so the parser reports
    it, not the first evaluation or that of the symbolic derivative."""
    try:
        folded = _fold_constant(tree)
    except ArithmeticError as exc:
        raise ExpressionError(f"cannot evaluate {ast.unparse(node)!r}: "
                              f"{exc}") from None
    if folded[0] == "num" and isinstance(folded[1], complex) \
            or folded[0] == "div" and folded[2] == ("num", 0.0):
        raise ExpressionError(f"cannot evaluate {ast.unparse(node)!r}: "
                              f"it has no real value")
    return tree


def _is_zero(node):
    return node[0] == "num" and node[1] == 0.0


def _is_one(node):
    return node[0] == "num" and node[1] == 1.0


def _add(a, b):
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    return ("add", a, b)


def _sub(a, b):
    if _is_zero(b):
        return a
    return ("sub", a, b)


def _mul(a, b):
    if _is_zero(a) or _is_zero(b):
        return ("num", 0.0)
    if _is_one(a):
        return b
    if _is_one(b):
        return a
    return ("mul", a, b)


def _parse(text):
    # `^` binds more loosely than `+` in Python, so it becomes `**` first;
    # a leading blank would make ast report an indentation error.
    source = text.strip().replace("^", "**")
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse {text!r}: {exc.msg}") from None
    return _convert(tree.body, source.encode().splitlines())


_BINARY = {ast.Add: _add, ast.Sub: _sub, ast.Mult: _mul,
           ast.Div: lambda a, b: ("div", a, b)}


def _convert(node, lines):
    """Node tuple of an ast node, through the simplifying builders; ``lines``
    are the source lines as bytes, which ast's column offsets count."""
    op = type(getattr(node, "op", None))
    if isinstance(node, ast.Constant):
        # float() of the literal's text rejects 0x1F, 1j, True and strings
        literal = lines[node.lineno - 1][node.col_offset:node.end_col_offset]
        try:
            return ("num", float(literal))
        except ValueError:
            raise ExpressionError(
                f"unsupported literal {literal.decode()!r}") from None
    elif isinstance(node, ast.Name):
        return ("num", np.pi) if node.id == "pi" else ("var", node.id)
    elif op is ast.USub:
        return _sub(("num", 0.0), _convert(node.operand, lines))
    elif isinstance(node, ast.BinOp) and op in _BINARY:
        return _checked(_BINARY[op](_convert(node.left, lines),
                                    _convert(node.right, lines)), node)
    elif op is ast.Pow:
        base = _convert(node.left, lines)
        exponent = _fold_constant(_convert(node.right, lines))
        if exponent[0] != "num":
            raise ExpressionError("exponent must be a numeric constant")
        return _checked(("pow", base, exponent[1]), node)
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
          and node.func.id in FUNCTIONS and len(node.args) == 1
          and not node.keywords):
        return ("call", node.func.id, _convert(node.args[0], lines))
    raise ExpressionError(f"unsupported expression {ast.unparse(node)!r}")


def _evaluate(node, env):
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "var":
        return env[node[1]]
    if kind == "add":
        return _evaluate(node[1], env) + _evaluate(node[2], env)
    if kind == "sub":
        return _evaluate(node[1], env) - _evaluate(node[2], env)
    if kind == "mul":
        return _evaluate(node[1], env) * _evaluate(node[2], env)
    if kind == "div":
        return _evaluate(node[1], env) / _evaluate(node[2], env)
    if kind == "pow":
        return _evaluate(node[1], env) ** node[2]
    fn = {"sqrt": np.sqrt, "sin": np.sin, "cos": np.cos}[node[1]]
    return fn(_evaluate(node[2], env))


def _derivative(node, var):
    kind = node[0]
    if kind == "num":
        return ("num", 0.0)
    if kind == "var":
        return ("num", 1.0) if node[1] == var else ("num", 0.0)
    if kind == "add":
        return _add(_derivative(node[1], var), _derivative(node[2], var))
    if kind == "sub":
        return _sub(_derivative(node[1], var), _derivative(node[2], var))
    if kind == "mul":
        return _add(_mul(_derivative(node[1], var), node[2]),
                    _mul(node[1], _derivative(node[2], var)))
    if kind == "div":
        num = _sub(_mul(_derivative(node[1], var), node[2]),
                   _mul(node[1], _derivative(node[2], var)))
        return ("div", num, ("pow", node[2], 2.0))
    if kind == "pow":
        inner = _derivative(node[1], var)
        return _mul(_mul(("num", node[2]), ("pow", node[1], node[2] - 1.0)),
                    inner)
    fn, arg = node[1], node[2]
    inner = _derivative(arg, var)
    if fn == "sqrt":
        outer = ("div", ("num", 0.5), ("call", "sqrt", arg))
    elif fn == "sin":
        outer = ("call", "cos", arg)
    else:
        outer = _sub(("num", 0.0), ("call", "sin", arg))
    return _mul(outer, inner)


def _names(node, out):
    if node[0] == "var":
        out.add(node[1])
    elif node[0] in ("add", "sub", "mul", "div"):
        _names(node[1], out)
        _names(node[2], out)
    elif node[0] == "pow":
        _names(node[1], out)
    elif node[0] == "call":
        _names(node[2], out)


class Expression:
    """Parsed analytic expression over a fixed set of variable names."""

    def __init__(self, text, variables, _node=None):
        self.text = text
        self.variables = tuple(variables)
        if _node is not None:
            self.node = _node
        else:
            self.node = _parse(text)
        used = set()
        _names(self.node, used)
        unknown = used - set(self.variables)
        if unknown:
            raise ExpressionError(
                f"unknown variable(s) {sorted(unknown)} in {text!r}; "
                f"allowed: {list(self.variables)}")

    def __call__(self, **env):
        missing = set(self.variables) - set(env)
        if missing:
            raise ExpressionError(f"missing variable(s) {sorted(missing)}")
        return _evaluate(self.node, env)

    def derivative(self, var):
        if var not in self.variables:
            raise ExpressionError(f"cannot differentiate with respect to "
                                  f"unknown variable {var!r}")
        return Expression(f"d({self.text})/d{var}", self.variables,
                          _node=_derivative(self.node, var))

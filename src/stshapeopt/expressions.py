"""Small analytic expression grammar for run configurations.

The text must be one expression built from numbers, named variables, `pi`,
the operators + - * / ** (also ^, which means **), unary minus, parentheses
and the functions sqrt, sin, cos; it is parsed with Python's `ast`, and any
other Python syntax is rejected.  An exponent must be made of numbers alone,
every part made of numbers alone must be a finite real number, and none may
be a zero divisor.  Expressions evaluate over numpy arrays and carry exact
symbolic derivatives with respect to their variables.
"""

import ast

import numpy as np

from .errors import ExpressionError

FUNCTIONS = ("sqrt", "sin", "cos")
# Deepest nesting of operations and calls; at it the deepest first derivative
# (three levels per nested quotient) and ast.unparse of an error's text stay
# well within Python's default recursion limit of 1000.
MAX_DEPTH = 200


def _depth(node):
    """Nesting depth of an ast expression, counted without recursion."""
    depth, level = 0, [node]
    while level:
        depth += 1
        level = [child for parent in level
                 for child in ast.iter_child_nodes(parent)
                 if isinstance(child, ast.expr)]
    return depth


def _value(tree, node):
    """Value of ``tree`` if it is made of numbers alone, else None.  It is
    evaluated as at run time, under `_parse`'s errstate that raises every
    floating-point error but underflow, and must be a finite real number;
    a divisor made of numbers alone must not be zero.  An error names the
    ast ``node``."""
    try:
        value = _evaluate(tree, {})
    except KeyError:  # a variable
        if tree[0] != "div" or _value(tree[2], node) != 0.0:
            return None
        problem = "it divides by zero"
    except ArithmeticError as exc:
        problem = exc
    else:
        if not isinstance(value, complex) and abs(value) < np.inf:
            return float(value)
        problem = "it is not a finite real number"
    raise ExpressionError(f"cannot evaluate {ast.unparse(node)!r}: {problem}")


def _checked(tree, node):
    _value(tree, node)
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
    except RecursionError:
        tree = None
    if tree is None or _depth(tree.body) > MAX_DEPTH:
        raise ExpressionError(f"expression is nested deeper than {MAX_DEPTH} "
                              f"levels")
    with np.errstate(all="raise", under="ignore"):
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
            number = float(literal)
        except ValueError:
            raise ExpressionError(
                f"unsupported literal {literal.decode()!r}") from None
        return _checked(("num", number), node)
    elif isinstance(node, ast.Name):
        return ("num", np.pi) if node.id == "pi" else ("var", node.id)
    elif op is ast.USub:
        return _sub(("num", 0.0), _convert(node.operand, lines))
    elif isinstance(node, ast.BinOp) and op in _BINARY:
        return _checked(_BINARY[op](_convert(node.left, lines),
                                    _convert(node.right, lines)), node)
    elif op is ast.Pow:
        base = _convert(node.left, lines)
        exponent = _value(_convert(node.right, lines), node.right)
        if exponent is None:
            raise ExpressionError("exponent must be a numeric constant")
        return _checked(("pow", base, exponent), node)
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
          and node.func.id in FUNCTIONS and len(node.args) == 1
          and not node.keywords):
        return _checked(("call", node.func.id,
                         _convert(node.args[0], lines)), node)
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
        # (a' - (a/b) b') / b, so that b is never squared: the square of a
        # tiny constant divisor underflows to a zero Python float
        num = _sub(_derivative(node[1], var),
                   _mul(node, _derivative(node[2], var)))
        return ("div", num, node[2])
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
        """Value as a new float array of the variables' broadcast shape."""
        missing = set(self.variables) - set(env)
        if missing:
            raise ExpressionError(f"missing variable(s) {sorted(missing)}")
        shape = np.broadcast_shapes(*(np.shape(env[v])
                                      for v in self.variables))
        return np.broadcast_to(_evaluate(self.node, env), shape).astype(float)

    def derivative(self, var):
        if var not in self.variables:
            raise ExpressionError(f"cannot differentiate with respect to "
                                  f"unknown variable {var!r}")
        return Expression(f"d({self.text})/d{var}", self.variables,
                          _node=_derivative(self.node, var))

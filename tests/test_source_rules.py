"""Rules every module of the package follows, checked on its source."""

import ast
from pathlib import Path

import stshapeopt
from stshapeopt import derivative, errors, fem

PACKAGE = Path(stshapeopt.__file__).parent


def test_package_raises_named_errors_instead_of_asserting():
    # `python -O` strips assert statements, so a check written as one
    # silently disappears; failures must raise a package error instead.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_package_raises_only_package_errors():
    # callers and the CLI catch StshapeoptError; a builtin exception raised
    # by name would escape them as a traceback
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if not isinstance(exc, ast.Name):
                continue
            cls = getattr(errors, exc.id, None)
            if not (isinstance(cls, type)
                    and issubclass(cls, errors.StshapeoptError)):
                found.append(f"{path.name}:{node.lineno} {exc.id}")
    assert found == []


def test_package_never_calls_eval_exec_or_compile():
    # configuration text reaches `ast.parse` only; a call to one of these
    # builtins would run it as code.  Methods such as `law.eval` are fine.
    builtins = {"eval", "exec", "compile"}
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id in builtins]
    assert found == []


def test_matrices_are_assembled_only_through_the_fixed_pattern():
    # _scatter_matrix sums in the order COO-to-CSC conversion does; a
    # second assembly path (COO triplets, np.add.at) would fork it
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            func = node.func if isinstance(node, ast.Call) else None
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr in ("coo_matrix", "coo_array") \
                    or func.attr == "at" \
                    and isinstance(func.value, ast.Attribute) \
                    and func.value.attr == "add":
                found.append(f"{path.name}:{node.lineno} {func.attr}")
    assert found == []


def factorization_sites(tree):
    """(enclosing class, enclosing function) of every reference to a SuperLU
    factorization entry point."""
    names = {"splu", "factorized"}
    sites = []

    def visit(node, owner, function):
        if isinstance(node, ast.ClassDef):
            owner = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        hit = (isinstance(node, ast.Attribute) and node.attr in names
               or isinstance(node, ast.Name) and node.id in names
               or isinstance(node, ast.alias) and node.name in names)
        if hit:
            sites.append((owner, function))
        for child in ast.iter_child_nodes(node):
            visit(child, owner, function)

    visit(tree, None, None)
    return sites


def test_only_linear_system_factors():
    # One factorization path keeps the fill-reducing column ordering from
    # being forked; optimizer's tridiagonal spsolve is not a factor call.
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        sites = factorization_sites(tree)
        if sites:
            found[path.name] = sites
    assert found == {"fem.py": [("LinearSystem", "__init__")]}


def test_module_functions_read_every_parameter():
    # a parameter the body never names is an input that changes nothing;
    # methods are exempt, because the Motion subclasses share one signature
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args
                      + args.kwonlyargs + [args.vararg, args.kwarg]
                      if a is not None]
            names = {n.id for statement in node.body
                     for n in ast.walk(statement) if isinstance(n, ast.Name)}
            found += [f"{path.name}:{node.name}.{p}" for p in params
                      if p not in names]
    assert found == []


def test_fem_holds_no_shape_derivative_form():
    # fem holds the state, the adjoint, the objective and the linear
    # algebra; every shape-derivative form, and every use of the pullback
    # kernels, lives in derivative, with no re-exported name left in fem
    tree = ast.parse((PACKAGE / "fem.py").read_text())
    imported = [node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)]
    assert "kernels" not in imported
    forms = ("tangent_rhs", "volume_form_pairing", "solve_tangent",
             "_element_rule", "_derivative_integrand", "_integrand", "jet1d")
    assert [name for name in forms if hasattr(fem, name)] == []
    assert stshapeopt.solve_tangent is derivative.solve_tangent
    assert stshapeopt.volume_form_pairing is derivative.volume_form_pairing


def test_derivative_and_optimizer_take_the_solved_state():
    # a SolveResult carries its mesh, layout, field and source, so the
    # forms and the line search take it whole; only optimize, which makes
    # the first state, takes the layout and the source
    found = []
    for name in ("derivative.py", "optimizer.py"):
        tree = ast.parse((PACKAGE / name).read_text())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name != "optimize":
                args = node.args.posonlyargs + node.args.args \
                    + node.args.kwonlyargs
                found += [f"{name}:{node.name}.{a.arg}" for a in args
                          if a.arg in ("layout", "source")]
    assert found == []

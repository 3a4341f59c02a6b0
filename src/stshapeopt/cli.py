"""Command-line driver: solve, optimize and check-gradient subcommands.

Exit codes: 0 success, 2 configuration error, 3 i/o error, 4 solver or
verification failure.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import load_config, read_eps
from .derivative import fd_objective_derivative, volume_form_pairing
from .errors import ConfigError, StshapeoptError
from .fem import evaluate_objective, solve_adjoint, solve_state
from .optimizer import optimize, write_history_csv
from .vtkio import write_vtk


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="stshapeopt",
        description="Space-time shape optimization of a moving material "
                    "interface")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "optimize", "check-gradient"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="run configuration")
        p.add_argument("--out", help="override the output directory")
        p.add_argument("--vtk", action="store_true",
                       help="write VTK snapshots")
    sub.choices["check-gradient"].add_argument(
        "--eps", help="comma-separated perturbation sizes")
    return parser


def _prepare_output(cfg, args):
    out = Path(args.out if args.out else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    probe = out / ".write_probe"
    probe.write_text("")
    probe.unlink()
    return out


def _theta_nodes(cfg, spatial_mesh):
    theta = cfg.gradient_check_theta(x=spatial_mesh.nodes)
    theta[0] = 0.0
    theta[-1] = 0.0
    return theta


def cmd_solve(cfg, args):
    out = _prepare_output(cfg, args)
    mesh, layout, source, objective = cfg.build()
    result = solve_state(mesh, layout, source)
    j_value = evaluate_objective(mesh, result.u, objective)
    print(f"J = {j_value:.12e}  (newton iterations: {result.iterations})")
    if args.vtk or cfg.vtk:
        write_vtk(out / "solution.vtk", mesh,
                  point_data={"u": result.u.nodal()})
    return 0


def cmd_optimize(cfg, args):
    out = _prepare_output(cfg, args)
    mesh, layout, source, objective = cfg.build()
    want_vtk = args.vtk or cfg.vtk

    def snapshot(n, ls_result):
        write_vtk(out / f"iteration_{n:04d}.vtk", ls_result.state.mesh,
                  point_data={"u": ls_result.state.u.nodal()})

    report = optimize(mesh, layout, source, objective, cfg.descent,
                      callback=snapshot if want_vtk else None)
    write_history_csv(out / cfg.csv_name, report.records)
    if want_vtk:
        write_vtk(out / "final.vtk", report.mesh,
                  point_data={"u": report.state.u.nodal()})
    print(f"final J = {report.objective_value:.12e} after "
          f"{len(report.records) - 1} accepted steps "
          f"({report.termination})")
    return 0


def observed_order(eps_values, errors):
    """Largest consecutive convergence order of the error sequence."""
    eps_values = np.asarray(eps_values, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if np.all(errors <= 1e-14):
        return np.inf
    order = -np.inf
    for k in range(len(errors) - 1):
        if errors[k] <= 0 or errors[k + 1] <= 0:
            continue
        order = max(order, np.log(errors[k] / errors[k + 1])
                    / np.log(eps_values[k] / eps_values[k + 1]))
    return order


def cmd_check_gradient(cfg, args):
    eps_values = cfg.gradient_check_eps
    if args.eps is not None:
        eps_values = read_eps(args.eps.replace(",", " "))
    eps_values = sorted(eps_values, reverse=True)
    mesh, layout, source, objective = cfg.build()

    state = solve_state(mesh, layout, source)
    adjoint = solve_adjoint(state, objective)
    theta = _theta_nodes(cfg, mesh.spatial_mesh())
    adjoint_value = volume_form_pairing(state, adjoint, objective, theta)

    print(f"{'eps':>12} {'fd':>22} {'adjoint':>22} {'rel.error':>12}")
    errors = []
    scale = max(abs(adjoint_value), 1e-300)
    for eps in eps_values:
        fd = fd_objective_derivative(state, objective, theta, eps)
        rel = abs(fd - adjoint_value) / scale
        errors.append(rel)
        print(f"{eps:12.3e} {fd:22.12e} {adjoint_value:22.12e} {rel:12.3e}")
    order = observed_order(eps_values, errors)
    print(f"observed order: {order:.2f}" if order != np.inf else
          "observed order: infinite, every relative error is below 1e-14")
    return 0 if order >= 1.0 else 4


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        # non-finite results raise named errors; their warnings add nothing
        with np.errstate(all="ignore"):
            cfg = load_config(args.config)
            if args.command == "solve":
                return cmd_solve(cfg, args)
            if args.command == "optimize":
                return cmd_optimize(cfg, args)
            return cmd_check_gradient(cfg, args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except StshapeoptError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 4


def console_entry():
    sys.exit(main())

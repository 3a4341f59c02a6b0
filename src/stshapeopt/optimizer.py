"""Shape-gradient descent loop: Hilbertian direction extraction, step
halving line search, mesh update and history logging.

The direction solve inverts the 1d inner product

    b(theta, eta) = int_D alpha theta' eta' + beta theta eta dxi

with homogeneous Dirichlet values at the design boundary; the reported
direction norm is sqrt(b(theta, theta)), which is also the stopping
quantity.
"""

import csv
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .derivative import pde_volume_densities
from .errors import (AssemblyError, ConfigError, InvertedElementError,
                     SolverError)
from .fem import evaluate_objective, solve_adjoint, solve_state
from .mesh import deform_mesh

HISTORY_HEADER = ("iter", "J", "theta_norm", "tau", "newton_iters")


@dataclass(frozen=True)
class DescentConfig:
    alpha: float = 0.5
    beta: float = 0.0
    tau_init: float = 1.0
    tau_min: float = 1e-10
    theta_tol: float = 1e-9
    max_outer: int = 200
    max_halvings: int = 60

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is float and not math.isfinite(value):
                raise ConfigError(f"descent {f.name} must be finite, "
                                  f"got {value}")
            if f.type is int and not (isinstance(value, numbers.Integral)
                                      and value >= 0):
                raise ConfigError(f"descent {f.name} must be an integer "
                                  f">= 0, got {value}")
        if self.alpha <= 0.0:
            raise ConfigError(f"descent weight alpha must be positive, "
                              f"got {self.alpha}")
        for name in ("beta", "tau_min", "theta_tol"):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"descent {name} must be nonnegative, "
                                  f"got {getattr(self, name)}")
        if not self.tau_min < self.tau_init:
            raise ConfigError("descent needs tau_min < tau_init")


@dataclass
class IterationRecord:
    iteration: int
    objective: float
    theta_norm: float
    tau: float
    newton_iterations: int


@dataclass
class OptimizationReport:
    records: list
    termination: str
    state: object
    objective_value: float

    @property
    def mesh(self):
        return self.state.mesh


def _inner_product_matrix(spatial_mesh, config):
    h = spatial_mesh.widths
    main = np.zeros(len(spatial_mesh.nodes))
    main[:-1] += config.alpha / h + config.beta * h / 3.0
    main[1:] += config.alpha / h + config.beta * h / 3.0
    off = -config.alpha / h + config.beta * h / 6.0
    return sp.diags([off, main, off], offsets=[-1, 0, 1], format="csc")


def hilbertian_direction(densities, config):
    """Solve b(theta, eta) = J'(eta) on the densities' spatial mesh and
    return (-theta, sqrt(b(theta, theta))); the returned direction makes
    the pairing nonpositive by construction."""
    load = densities.load()
    matrix = _inner_product_matrix(densities.spatial_mesh, config)
    interior = slice(1, -1)
    theta = np.zeros_like(load)
    theta[interior] = spla.spsolve(matrix[interior, interior],
                                   load[interior])
    norm = float(np.sqrt(max(theta @ (matrix @ theta), 0.0)))
    return -theta, norm


@dataclass
class LineSearchResult:
    tau: float
    state: object
    objective_value: float
    trials: int


def line_search(state, objective, j_current, direction, tau0, config):
    """First step halving of tau0 that decreases the objective on a valid
    deformation of the state's mesh; every candidate re-solves the state
    from it.  A step that inverts an element, or whose state solve or
    objective fails, is rejected like one that does not decrease the
    objective.  Returns None
    when tau falls below tau_min or the halving budget is exhausted."""
    tau = tau0
    for trial_count in range(config.max_halvings):
        if tau < config.tau_min:
            return None
        try:
            trial_mesh = deform_mesh(state.mesh, direction, tau)
            trial = solve_state(trial_mesh, state.layout, state.source,
                                initial_guess=state.u)
            j_trial = evaluate_objective(trial_mesh, trial.u, objective)
        except (InvertedElementError, SolverError, AssemblyError):
            tau *= 0.5
            continue
        if j_trial < j_current:
            return LineSearchResult(tau=tau, state=trial,
                                    objective_value=j_trial,
                                    trials=trial_count + 1)
        # frees the rejected trial's factor before the next one is built
        del trial
        tau *= 0.5
    return None


def optimize(mesh, layout, source, objective, config, callback=None):
    """Run the descent loop from the given design.

    Each iteration solves state and adjoint, assembles the derivative
    densities, extracts the Hilbertian direction, line-searches a step and
    deforms the mesh; the state solve warm-starts from the previous
    iterate, and the adjoint reuses the accepted state's factorization
    when it has one.  Stops on the direction-norm tolerance, a failed line
    search, or the iteration cap; the accepted objective sequence is
    strictly decreasing by construction.
    """
    state = solve_state(mesh, layout, source)
    j_value = evaluate_objective(mesh, state.u, objective)
    records = []
    termination = "max_outer"
    tau_prev = config.tau_init

    for n in range(config.max_outer):
        adjoint = solve_adjoint(state, objective)
        densities = pde_volume_densities(state, adjoint, objective)
        direction, norm = hilbertian_direction(densities, config)
        # by construction the pairing equals -b(theta, theta)
        pairing = densities.pairing(direction)
        bound = 1e-12 * (abs(j_value) + 1.0)
        if not pairing <= bound:
            raise SolverError(f"direction is not a descent direction: "
                              f"pairing {pairing:.3e} exceeds {bound:.3e}")
        if norm <= config.theta_tol:
            termination = "theta_tolerance"
            break
        tau0 = min(2.0 * tau_prev, config.tau_init)
        result = line_search(state, objective, j_value, direction, tau0,
                             config)
        if result is None:
            termination = "line_search_failure"
            break
        records.append(IterationRecord(n, j_value, norm, result.tau,
                                       state.iterations))
        if callback is not None:
            callback(n, result)
        state = result.state
        j_value = result.objective_value
        tau_prev = result.tau
    else:
        norm = 0.0
    state.geom = state.system = None
    records.append(IterationRecord(len(records), j_value, norm, 0.0,
                                   state.iterations))

    return OptimizationReport(
        records=records, termination=termination, state=state,
        objective_value=j_value)


def write_history_csv(path, records):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(HISTORY_HEADER)
        for r in records:
            writer.writerow([r.iteration, f"{r.objective:.12e}",
                             f"{r.theta_norm:.12e}", f"{r.tau:.12e}",
                             r.newton_iterations])

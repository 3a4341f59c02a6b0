import csv
import weakref
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import stshapeopt.optimizer as opt_mod
from helpers import (moving_interface_problem, nonlinear_problem,
                     periodic_pairs)
from stshapeopt import fem
from stshapeopt import (DescentConfig, Objective, hilbertian_direction,
                        line_search, optimize, pde_volume_densities,
                        solve_adjoint, solve_state)
from stshapeopt.derivative import DerivativeDensities
from stshapeopt.errors import (ConfigError, NonconvergenceError,
                               SolverError)
from stshapeopt.mesh import SpatialMesh
from stshapeopt.optimizer import write_history_csv

RNG = np.random.default_rng(31)


def uniform_spatial(n):
    return SpatialMesh(nodes=np.linspace(0.0, 1.0, n + 1),
                       phases=np.full(n, 2))


def test_zero_densities_give_zero_direction():
    sm = uniform_spatial(16)
    dens = DerivativeDensities(g0=np.zeros(16), g1=np.zeros(16),
                               spatial_mesh=sm)
    direction, norm = hilbertian_direction(dens, DescentConfig())
    assert np.all(direction == 0.0) and norm == 0.0


def test_hilbertian_matches_dense_solve():
    n = 20
    sm = uniform_spatial(n)
    g0 = np.zeros(n)
    g0[7] = 1.0
    dens = DerivativeDensities(g0=g0, g1=np.zeros(n), spatial_mesh=sm)
    config = DescentConfig(alpha=0.5, beta=0.0)
    direction, norm = hilbertian_direction(dens, config)

    h = sm.widths
    k_dense = np.zeros((n + 1, n + 1))
    for e in range(n):
        k_loc = config.alpha / h[e] * np.array([[1.0, -1.0], [-1.0, 1.0]])
        k_dense[e:e + 2, e:e + 2] += k_loc
    load = np.zeros(n + 1)
    load[7] += 0.5 * h[7] * g0[7]
    load[8] += 0.5 * h[7] * g0[7]
    theta = np.zeros(n + 1)
    theta[1:-1] = np.linalg.solve(k_dense[1:-1, 1:-1], load[1:-1])
    assert np.max(np.abs(direction + theta)) < 1e-10
    assert abs(norm - np.sqrt(theta @ k_dense @ theta)) < 1e-10


def test_direction_pairing_is_nonpositive():
    mesh, layout, source, objective = moving_interface_problem(20)
    state = solve_state(mesh, layout, source)
    p = solve_adjoint(state, objective)
    dens = pde_volume_densities(state, p, objective)
    direction, norm = hilbertian_direction(dens, DescentConfig())
    assert norm > 0.0
    assert dens.pairing(direction) <= 0.0


def test_descent_config_validation():
    with pytest.raises(ConfigError):
        DescentConfig(alpha=0.0)
    with pytest.raises(ConfigError):
        DescentConfig(beta=-1.0)
    with pytest.raises(ConfigError):
        DescentConfig(tau_init=1e-12, tau_min=1e-10)
    with pytest.raises(ConfigError):
        DescentConfig(tau_init=-2000.0, tau_min=-4000.0)
    with pytest.raises(ConfigError):
        DescentConfig(theta_tol=-1e-9)


@pytest.mark.parametrize("cap", [{"max_outer": 2.5}, {"max_halvings": 1.5}],
                         ids=lambda cap: next(iter(cap)))
def test_descent_caps_must_be_integers(cap):
    with pytest.raises(ConfigError, match="must be an integer"):
        DescentConfig(**cap)


def descent_setup(n=24):
    mesh, layout, source, objective = moving_interface_problem(n)
    state = solve_state(mesh, layout, source)
    from stshapeopt import evaluate_objective
    j0 = evaluate_objective(mesh, state.u, objective)
    p = solve_adjoint(state, objective)
    dens = pde_volume_densities(state, p, objective)
    direction, norm = hilbertian_direction(dens, DescentConfig())
    return objective, state, j0, direction, dens


def test_line_search_accepts_descent_direction():
    objective, state, j0, direction, _ = descent_setup()
    config = DescentConfig(tau_init=100.0)
    result = line_search(state, objective, j0, direction,
                         config.tau_init, config)
    assert result is not None
    assert result.objective_value < j0


def test_line_search_rejects_ascent_direction():
    objective, state, j0, direction, _ = descent_setup()
    config = DescentConfig(tau_init=1.0, max_halvings=40)
    result = line_search(state, objective, j0, -direction,
                         config.tau_init, config)
    assert result is None


def test_line_search_halves_geometry_violations_before_solving(monkeypatch):
    objective, state, j0, direction, _ = descent_setup()
    # an enormous first step must be halved away without any state solve
    calls = []
    real_solve = opt_mod.solve_state

    def counting_solve(*args, **kwargs):
        calls.append(1)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(opt_mod, "solve_state", counting_solve)
    scale = np.max(np.abs(direction))
    tau0 = 64.0 / scale          # inverts elements for the first trials
    config = DescentConfig(tau_init=tau0, max_halvings=60)
    result = line_search(state, objective, j0, direction, tau0, config)
    assert result is not None
    assert result.tau < tau0 / 2.0
    assert len(calls) < 60


@pytest.mark.parametrize("error", [NonconvergenceError, SolverError])
def test_line_search_halves_failed_trial_solves(monkeypatch, error):
    objective, state, j0, direction, _ = descent_setup()
    calls = []
    real_solve = opt_mod.solve_state

    def failing_first_solve(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise error("trial state solve failed")
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(opt_mod, "solve_state", failing_first_solve)
    config = DescentConfig(tau_init=100.0)
    result = line_search(state, objective, j0, direction,
                         config.tau_init, config)
    assert result is not None
    assert result.trials >= 2
    assert result.objective_value < j0


def test_line_search_halves_trials_with_a_non_finite_objective(monkeypatch):
    objective, state, j0, direction, _ = descent_setup()
    real_evaluate = opt_mod.evaluate_objective
    overflowing = Objective(j=lambda u: np.full_like(u, 1e308),
                            jprime=objective.jprime)
    calls = []

    def overflowing_first_trial(mesh, u, objective_):
        calls.append(1)
        return real_evaluate(mesh, u,
                             overflowing if len(calls) == 1 else objective_)

    monkeypatch.setattr(opt_mod, "evaluate_objective",
                        overflowing_first_trial)
    config = DescentConfig(tau_init=100.0)
    result = line_search(state, objective, j0, direction,
                         config.tau_init, config)
    assert result is not None
    assert result.trials >= 2
    assert result.objective_value < j0


def test_no_halving_budget_fails_the_line_search_and_ends_the_descent():
    objective, state, j0, direction, _ = descent_setup(12)
    config = DescentConfig(max_halvings=0)
    assert line_search(state, objective, j0, direction, config.tau_init,
                       config) is None
    report = optimize(state.mesh, state.layout, state.source, objective,
                      config)
    assert report.termination == "line_search_failure"
    assert len(report.records) == 1


def test_optimize_calls_back_once_per_accepted_step():
    mesh, layout, source, objective = moving_interface_problem(12)
    seen = []
    report = optimize(mesh, layout, source, objective,
                      DescentConfig(tau_init=100.0, max_outer=3),
                      callback=lambda n, result: seen.append((n, result)))
    assert len(seen) == len(report.records) - 1 == 3
    assert [n for n, _ in seen] == [0, 1, 2]
    assert [result.objective_value for _, result in seen] \
        == [record.objective for record in report.records[1:]]
    assert seen[-1][1].state is report.state


def test_optimize_zero_source_stops_at_origin():
    mesh, layout, _, objective = moving_interface_problem(10)
    from stshapeopt import ZeroSource
    report = optimize(mesh, layout, ZeroSource(), objective, DescentConfig())
    assert report.termination == "theta_tolerance"
    assert len(report.records) == 1
    assert report.records[0].objective == 0.0
    assert report.records[0].theta_norm <= 1e-9


def test_optimize_zero_budget_reports_initial_row():
    mesh, layout, source, objective = moving_interface_problem(12)
    report = optimize(mesh, layout, source, objective,
                      DescentConfig(max_outer=0))
    assert len(report.records) == 1
    rec = report.records[0]
    assert rec.iteration == 0 and rec.tau == 0.0
    assert rec.objective == report.objective_value


def test_optimize_descends_strictly_and_preserves_mesh_invariants():
    mesh, layout, source, objective = moving_interface_problem(24)
    config = DescentConfig(tau_init=200.0, max_outer=6)
    report = optimize(mesh, layout, source, objective, config)
    objectives = [r.objective for r in report.records]
    assert all(b < a for a, b in zip(objectives[:-1], objectives[1:]))
    assert np.all(report.mesh.signed_areas > 0.0)
    assert np.array_equal(periodic_pairs(report.mesh), periodic_pairs(mesh))
    assert np.array_equal(report.mesh.phases, mesh.phases)


@pytest.mark.parametrize("spoil", [np.negative, lambda d: d * np.nan],
                         ids=["ascent", "nan"])
def test_optimize_raises_on_a_non_descent_direction(monkeypatch, spoil):
    mesh, layout, source, objective = moving_interface_problem(12)
    real_direction = opt_mod.hilbertian_direction

    def ascent(densities, config):
        direction, norm = real_direction(densities, config)
        return spoil(direction), norm

    monkeypatch.setattr(opt_mod, "hilbertian_direction", ascent)
    with pytest.raises(SolverError, match="pairing .* exceeds"):
        optimize(mesh, layout, source, objective, DescentConfig())


def test_optimize_is_deterministic():
    mesh, layout, source, objective = moving_interface_problem(16)
    config = DescentConfig(tau_init=100.0, max_outer=3)
    rep1 = optimize(mesh, layout, source, objective, config)
    rep2 = optimize(mesh, layout, source, objective, config)
    assert rep1.records == rep2.records
    assert np.array_equal(rep1.mesh.vertices, rep2.mesh.vertices)


def test_first_step_matches_linear_model():
    objective, state, j0, direction, dens = descent_setup(32)
    config = DescentConfig(tau_init=1.0)
    result = line_search(state, objective, j0, direction,
                         config.tau_init, config)
    predicted = result.tau * dens.pairing(direction)
    actual = result.objective_value - j0
    assert abs(actual - predicted) / abs(predicted) < 0.2


def test_history_csv_schema(tmp_path):
    mesh, layout, source, objective = moving_interface_problem(10)
    report = optimize(mesh, layout, source, objective,
                      DescentConfig(tau_init=100.0, max_outer=2))
    path = tmp_path / "history.csv"
    write_history_csv(path, report.records)
    with open(path) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["iter", "J", "theta_norm", "tau", "newton_iters"]
    assert len(rows) == len(report.records) + 1
    for row in rows[1:]:
        int(row[0])
        for cell in row[1:4]:
            assert "e" in cell     # %.12e formatting
            float(cell)
        int(row[4])


@contextmanager
def live_factors():
    """Yields (live, seen): the factor-holding LinearSystems alive now, and
    how many were alive at each splu call."""
    live, seen = weakref.WeakSet(), []
    init, factor = fem.LinearSystem.__init__, spla.splu

    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        live.add(self)

    def splu(*args, **kwargs):
        seen.append(len(live))
        return factor(*args, **kwargs)

    with mock.patch.object(fem.LinearSystem, "__init__", tracked), \
            mock.patch.object(fem.spla, "splu", splu):
        yield live, seen


def test_no_factor_outlives_its_use():
    # Each factor is a whole LU, the largest array of a descent, so one
    # kept past its use shows in the peak memory.
    mesh, layout, source, objective = moving_interface_problem(16)
    with live_factors() as (live, seen):
        report = optimize(mesh, layout, source, objective,
                          DescentConfig(tau_init=2000.0, max_outer=4))
    # more state solves than the first and the accepted ones: the descent
    # rejects solved trials, so a kept trial would show here
    accepted = sum(r.tau > 0.0 for r in report.records)
    assert len(seen) > 1 + accepted
    assert max(seen) == 0
    assert report.state.system is None

    mesh, layout, source, _ = nonlinear_problem(16)
    with live_factors() as (live, seen):
        result = solve_state(mesh, layout, source)
        assert len(live) == 0
    # at most the previous Newton step's, while the next one is built
    assert result.iterations > 1 and max(seen) <= 1


def test_one_element_geometry_per_state_solve_in_a_nonlinear_descent(
        monkeypatch):
    mesh, layout, source, objective = nonlinear_problem(12)
    geometries, states = [], []
    build, solve = fem.element_geometry, opt_mod.solve_state

    def built(mesh_, layout_):
        geometries.append(mesh_)
        return build(mesh_, layout_)

    def solved(mesh_, *args, **kwargs):
        states.append(mesh_)
        return solve(mesh_, *args, **kwargs)

    monkeypatch.setattr(fem, "element_geometry", built)
    monkeypatch.setattr(opt_mod, "solve_state", solved)
    report = optimize(mesh, layout, source, objective,
                      DescentConfig(tau_init=100.0))
    assert report.termination == "line_search_failure"
    assert len(report.records) > 3
    assert geometries == states
    assert report.state.geom is None


def test_newton_drops_each_factor_before_building_the_next():
    mesh, layout, source, _ = nonlinear_problem(16)
    with live_factors() as (live, seen):
        result = solve_state(mesh, layout, source)
    assert result.iterations > 1 and max(seen) == 0

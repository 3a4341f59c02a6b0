"""Property tests of the shape derivative on random design velocities and
mesh sizes.  Examples are derandomized, so every run draws the same cases."""

import numpy as np
from hypothesis import given, settings, strategies as st

from helpers import moving_interface_problem, nonlinear_problem
from stshapeopt.derivative import pde_volume_densities
from stshapeopt.fem import (objective_gradient_vector, solve_adjoint,
                            solve_state, solve_tangent, tangent_rhs,
                            volume_form_pairing)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=25)
PROBLEMS = st.sampled_from([moving_interface_problem, nonlinear_problem])
SIZES = st.integers(6, 16)
COEFFICIENTS = st.floats(-2.0, 2.0)


def design_velocity(data, n_x):
    """Nodal theta vanishing at the design boundary."""
    interior = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n_x - 1,
                                  max_size=n_x - 1))
    return np.concatenate([[0.0], interior, [0.0]])


def solved(data):
    n_x = data.draw(SIZES)
    mesh, layout, source, objective = data.draw(PROBLEMS)(n_x,
                                                          data.draw(SIZES))
    u = solve_state(mesh, layout, source).u
    p = solve_adjoint(mesh, layout, u, objective)
    return mesh, layout, source, objective, u, p


@PROPERTY
@given(st.data())
def test_adjoint_tangent_duality(data):
    mesh, layout, source, objective, u, p = solved(data)
    sm = mesh.spatial_mesh()
    theta = design_velocity(data, mesh.n_x)
    udot = solve_tangent(mesh, layout, u, source, sm, theta).values
    jprime = objective_gradient_vector(mesh, u, objective)
    lhs = jprime @ udot
    rhs = -(p.values @ tangent_rhs(mesh, layout, u, source, sm, theta))
    assert abs(lhs - rhs) <= 1e-8 * (np.abs(jprime) @ np.abs(udot)) + 1e-30


@PROPERTY
@given(st.data())
def test_derivative_pairings_are_linear_in_theta(data):
    mesh, layout, source, objective, u, p = solved(data)
    sm = mesh.spatial_mesh()
    t1 = design_velocity(data, mesh.n_x)
    t2 = design_velocity(data, mesh.n_x)
    a, b = data.draw(COEFFICIENTS), data.draw(COEFFICIENTS)
    densities = pde_volume_densities(mesh, layout, u, p, source, objective)

    def element_rule(theta):
        return volume_form_pairing(mesh, layout, u, p, source, objective, sm,
                                   theta)

    for pairing in (densities.pairing, element_rule):
        parts = (a * pairing(t1), b * pairing(t2))
        combined = pairing(a * t1 + b * t2)
        assert abs(combined - sum(parts)) \
            <= 1e-9 * (abs(parts[0]) + abs(parts[1])) + 1e-30

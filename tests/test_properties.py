"""Property tests of the motions, the mesh and the shape derivative on random
points, design velocities and mesh sizes.  Examples are derandomized, so
every run draws the same cases."""

import numpy as np
from hypothesis import given, settings, strategies as st

from helpers import (PAPER_INTERFACES, coo_jacobian, identity_problem,
                     moving_interface_problem, nonlinear_problem,
                     periodic_pairs, same_csc)
from stshapeopt import (CustomMotion, Polynomial1D, Rotation2D, deform_mesh,
                        generate_mesh)
from stshapeopt.derivative import (pde_volume_densities, solve_tangent,
                                   tangent_rhs, volume_form_pairing)
from stshapeopt.fem import (DofMap, Field, objective_gradient_vector,
                            solve_adjoint, solve_state)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=25)
PROBLEMS = st.sampled_from([moving_interface_problem, nonlinear_problem])
SIZES = st.integers(6, 16)
COEFFICIENTS = st.floats(-2.0, 2.0)
UNIT = st.floats(0.0, 1.0)


def wavy_motion():
    """phi_t(x) = x + 0.3 t sin(pi x), monotone for t in [0, 1]; it has no
    closed-form inverse, so inversion takes the generic Newton path."""
    return CustomMotion(
        1,
        forward=lambda t, x: x + 0.3 * t * np.sin(np.pi * x),
        grad=lambda t, x: (1.0 + 0.3 * np.pi * t
                           * np.cos(np.pi * x))[..., None],
        grad2=lambda t, x: (-0.3 * np.pi ** 2 * t
                            * np.sin(np.pi * x))[..., None, None],
        dt=lambda t, x: 0.3 * np.sin(np.pi * x),
        dt_grad=lambda t, x: (0.3 * np.pi * np.cos(np.pi * x))[..., None])


def image_points(data, motion, t):
    """A few points of the image of [0, 1]^dim under phi_t."""
    n = data.draw(st.integers(1, 8))
    x = np.array(data.draw(st.lists(UNIT, min_size=n * motion.dim,
                                    max_size=n * motion.dim)))
    return motion.forward(t, x.reshape(n, motion.dim))


def design_velocity(data, n_x):
    """Nodal theta vanishing at the design boundary."""
    interior = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n_x - 1,
                                  max_size=n_x - 1))
    return np.concatenate([[0.0], interior, [0.0]])


def solved(data):
    n_x = data.draw(SIZES)
    mesh, layout, source, objective = data.draw(PROBLEMS)(n_x,
                                                          data.draw(SIZES))
    state = solve_state(mesh, layout, source)
    p = solve_adjoint(state, objective)
    return objective, state, p


@PROPERTY
@given(st.data(), st.sampled_from([Polynomial1D, Rotation2D, wavy_motion]),
       UNIT)
def test_motion_inverse_round_trip(data, make_motion, t):
    motion = make_motion()
    y = image_points(data, motion, t)
    assert np.max(np.abs(motion.forward(t, motion.inverse(t, y)) - y)) \
        <= 1e-12 * max(1.0, np.max(np.abs(y)))


@PROPERTY
@given(st.data(), st.floats(-1.0, 1.0))
def test_deform_back_and_forth_returns_the_vertices(data, fraction):
    n_x = data.draw(SIZES)
    mesh = generate_mesh(n_x, data.draw(SIZES), PAPER_INTERFACES,
                         Polynomial1D())
    theta = design_velocity(data, n_x)
    # |theta| <= 1, so nodes move less than half the narrowest gap.
    tau = 0.25 * fraction * np.min(np.diff(mesh.xi_nodes))
    back = deform_mesh(deform_mesh(mesh, theta, tau), theta, -tau)
    assert np.max(np.abs(back.vertices - mesh.vertices)) <= 1e-14
    assert np.max(np.abs(back.xi_nodes - mesh.xi_nodes)) <= 1e-15


@PROPERTY
@given(st.integers(4, 16), st.integers(2, 16))
def test_periodic_dofmap_invariants(n_x, n_t):
    mesh = generate_mesh(n_x, n_t, PAPER_INTERFACES, Polynomial1D())
    dofmap = DofMap.from_mesh(mesh)
    dof = dofmap.vertex_dof
    lateral = mesh.lateral_vertex_mask()
    assert np.all(dof[lateral] == -1)
    bottom, top = periodic_pairs(mesh).T
    assert np.array_equal(dof[top], dof[bottom])
    assert np.array_equal(np.unique(dof[~lateral]), np.arange(dofmap.n_free))


@PROPERTY
@given(st.data(), st.sampled_from([moving_interface_problem,
                                   nonlinear_problem, identity_problem]),
       st.floats(-1.0, 1.0), st.integers(0, 2 ** 32 - 1))
def test_jacobian_equals_coo_assembly(data, problem, fraction, seed):
    n_x = data.draw(SIZES)
    mesh, layout, _, _ = problem(n_x, data.draw(SIZES))
    tau = 0.25 * fraction * np.min(np.diff(mesh.xi_nodes))
    mesh = deform_mesh(mesh, design_velocity(data, n_x), tau)
    dofmap = DofMap.from_mesh(mesh)
    u = Field(dofmap, 1e-3 * np.random.default_rng(seed).standard_normal(
        dofmap.n_free))
    matrix, oracle = coo_jacobian(mesh, layout, u)
    assert same_csc(matrix, oracle)


@PROPERTY
@given(st.data())
def test_adjoint_tangent_duality(data):
    objective, state, p = solved(data)
    theta = design_velocity(data, state.mesh.n_x)
    udot = solve_tangent(state, theta).values
    jprime = objective_gradient_vector(state.mesh, state.u, objective)
    lhs = jprime @ udot
    rhs = -(p.values @ tangent_rhs(state, theta))
    assert abs(lhs - rhs) <= 1e-8 * (np.abs(jprime) @ np.abs(udot)) + 1e-30


@PROPERTY
@given(st.data())
def test_derivative_pairings_are_linear_in_theta(data):
    objective, state, p = solved(data)
    t1 = design_velocity(data, state.mesh.n_x)
    t2 = design_velocity(data, state.mesh.n_x)
    a, b = data.draw(COEFFICIENTS), data.draw(COEFFICIENTS)
    densities = pde_volume_densities(state, p, objective)

    def element_rule(theta):
        return volume_form_pairing(state, p, objective, theta)

    for pairing in (densities.pairing, element_rule):
        parts = (a * pairing(t1), b * pairing(t2))
        combined = pairing(a * t1 + b * t2)
        assert abs(combined - sum(parts)) \
            <= 1e-9 * (abs(parts[0]) + abs(parts[1])) + 1e-30

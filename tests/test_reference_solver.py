"""The independent reference solver converges, at the expected order, to the
initial objective of the stated (flow-velocity) model, and the FEM shape
gradient converges to the reference solver's gradient."""

import numpy as np

from helpers import J0_LIMIT, moving_interface_problem, observed_orders
from reference_solver import BASE_INTERFACES, reference_limit, \
    reference_objective
from stshapeopt import pde_volume_densities, solve_adjoint, solve_state


def test_reference_converges_at_first_order_to_j0_limit():
    j80, j160, j320 = (reference_objective(n) for n in (80, 160, 320))
    order = np.log2((j160 - j80) / (j320 - j160))
    assert 0.8 <= order <= 1.2, order
    limit = 2.0 * j320 - j160
    assert abs(limit - J0_LIMIT) <= 1e-4 * J0_LIMIT, limit


def interface_gradient(n):
    """dJ/ds_k of the FEM at n^2: the volume-form densities paired with the
    P1 function psi_k that is 1 at interface node k and 0 at the other one
    and at the design boundary."""
    mesh, layout, source, objective = moving_interface_problem(n)
    state = solve_state(mesh, layout, source)
    densities = pde_volume_densities(state, solve_adjoint(state, objective),
                                     objective)
    spatial = mesh.spatial_mesh()
    a, b = spatial.nodes[spatial.interface_nodes()]
    return np.array([
        densities.pairing(np.interp(spatial.nodes, [0.0, a, b, 1.0], psi))
        for psi in ([0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0])])


def test_shape_gradient_converges_to_the_reference_gradient():
    # central differences of the reference limit in each interface; the
    # reference converges at first order, and so must the FEM gradient
    delta = 1e-4
    design = np.array(BASE_INTERFACES)
    reference = np.array([
        (reference_limit(design + step, n=80)
         - reference_limit(design - step, n=80)) / (2.0 * delta)
        for step in delta * np.eye(2)])
    errors = np.array([np.abs(interface_gradient(n) - reference)
                       for n in (40, 80, 160)]) / np.abs(reference)
    assert np.all(errors[1:] < errors[:-1]), errors
    orders = observed_orders(errors[:, 1])
    assert np.all((0.8 <= orders) & (orders <= 1.2)), orders

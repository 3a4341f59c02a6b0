"""Shape derivatives: academic volume/surface forms, PDE-constrained volume
densities and interface densities, and the magnetization supplement.

The volume form of every derivative here is a pairing

    J'(theta) = int_D g0 . theta + g1 : grad theta dxi

with piecewise-constant densities g0, g1 on the spatial design mesh.  Each
density is a time integral of pullback-kernel coefficients along the
trajectory t -> phi_t(xi) of the element centroid, evaluated with a composite
trapezoidal rule whose nodes are the slab boundaries and the diagonal
crossing times of the trajectory.
"""

from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedCaseError
from .fem import (_derivative_integrand, _reluctivity_arrays, _slope,
                  element_geometry, evaluate_objective, solve_state)
from .kernels import jet1d, m_prime, pullback_scalar_derivative
from .mesh import deform_mesh, mesh_geometry, trajectory_intervals


@dataclass
class DerivativeDensities:
    """P0 densities on the spatial design mesh; g1 pairs with theta'."""

    g0: np.ndarray
    g1: np.ndarray
    spatial_mesh: object
    metadata: dict

    def pairing(self, theta):
        """Exact integral of g0 . theta + g1 theta' for P1 nodal theta."""
        theta = np.asarray(theta, dtype=float)
        mean = 0.5 * (theta[:-1] + theta[1:])
        jump = np.diff(theta)
        return float(np.sum(self.spatial_mesh.widths * self.g0 * mean)
                     + np.sum(self.g1 * jump))


@dataclass
class InterfaceDensities:
    """Surface-form density per interface point: J'(theta) = sum v (theta.n)."""

    node_ids: np.ndarray
    values: np.ndarray
    normals: np.ndarray

    def pairing(self, theta):
        theta = np.asarray(theta, dtype=float)
        return float(np.sum(self.values * theta[self.node_ids] * self.normals))


def _element_planes(mesh, nodal):
    """Affine representation (value at vertex 0, dt-slope, dx-slope, anchor)
    of a P1 field on every element."""
    ue, geom = nodal[mesh.elements], mesh_geometry(mesh)
    anchor = mesh.elements[:, 0]
    return (ue[:, 0], _slope(ue, geom.grad_t), _slope(ue, geom.grad_x),
            mesh.vertices[anchor, 0], mesh.vertices[anchor, 1])


def _trajectory_samples(mesh, xi_c):
    """Both ends of every sub-interval of the trajectories of the reference
    points xi_c: times, covering elements, reference and physical points
    (each shaped (n_pts, 2 n_t, 2)), the kernel jets there, and the
    sub-interval lengths."""
    els, t_nodes = trajectory_intervals(mesh, xi_c)
    t_eval = np.stack([t_nodes[:, :-1], t_nodes[:, 1:]], axis=-1)
    e_eval = np.broadcast_to(els[:, :, None], t_eval.shape)
    xi_eval = np.broadcast_to(xi_c[:, None, None], t_eval.shape)
    x_eval = mesh.motion.forward(t_eval.ravel(),
                                 xi_eval.ravel()[:, None])[:, 0] \
        .reshape(t_eval.shape)
    jets = jet1d(mesh.motion, t_eval, xi_eval)
    return t_eval, e_eval, xi_eval, x_eval, jets, np.diff(t_nodes, axis=1)


def _trajectory_integral(jets, dt, s):
    """Trapezoid time integral of |G| s along each trajectory."""
    weighted = np.abs(jets.G) * s
    return np.sum(0.5 * dt * (weighted[..., 0] + weighted[..., 1]), axis=1)


def pde_volume_densities(mesh, layout, u, p, source, objective):
    """Volume-form densities of the PDE-constrained objective.

    Integrates the (theta, theta') coefficients of the shape-derivative
    integrand, nonlinear reluctivity correction included, along the
    centroid trajectories.
    """
    sm = mesh.spatial_mesh()
    u0, u_t, u_x, _, _ = _element_planes(mesh, u.nodal())
    p0, p_t, p_x, t0, x0 = _element_planes(mesh, p.nodal())
    geom = element_geometry(mesh, layout)
    nu_e, nu_prime_e = _reluctivity_arrays(geom, np.abs(u_x))

    t_eval, e_eval, xi_eval, x_eval, jets, dt = \
        _trajectory_samples(mesh, sm.centroids)

    u_pt = u0[e_eval] + u_t[e_eval] * (t_eval - t0[e_eval]) \
        + u_x[e_eval] * (x_eval - x0[e_eval])
    p_pt = p0[e_eval] + p_t[e_eval] * (t_eval - t0[e_eval]) \
        + p_x[e_eval] * (x_eval - x0[e_eval])
    s0, s1 = _derivative_integrand(
        jets, geom.sigma[e_eval], nu_e[e_eval], nu_prime_e[e_eval],
        u_t[e_eval], u_x[e_eval], objective.j(u_pt),
        source.values(t_eval, x_eval, xi_eval),
        source.gradient(t_eval, x_eval, xi_eval), p_pt, p_x[e_eval])

    return DerivativeDensities(
        g0=_trajectory_integral(jets, dt, s0),
        g1=_trajectory_integral(jets, dt, s1), spatial_mesh=sm,
        metadata={"functional": "pde_objective",
                  "time_rule": "trapezoid on slab boundaries and crossings"})


def pde_surface_derivative(mesh, layout, u, p):
    """Interface density of the derivative in the piecewise-constant
    reluctivity case; one-sided interface values are averaged."""
    if not layout.all_constant:
        raise UnsupportedCaseError(
            "surface form is only available for constant reluctivity laws")
    sm = mesh.spatial_mesh()
    nodes = sm.interface_nodes()
    _, u_t, u_x, _, _ = _element_planes(mesh, u.nodal())
    p0, p_t, p_x, t0, x0 = _element_planes(mesh, p.nodal())
    nu = _reluctivity_arrays(element_geometry(mesh, layout), np.abs(u_x))[0]
    mat_in, mat_out = layout.material(1), layout.material(2)
    sigma_jump = mat_out.sigma - mat_in.sigma
    inv_nu_jump = 1.0 / mat_out.nu.value - 1.0 / mat_in.nu.value

    # Arrays are shaped (interface, slab, time, side).  The vertical edge at
    # node a in slab j lies in cell i = a - 1 (minus side) and i = a (plus
    # side); a cell split on the rising diagonal holds its left edge in its
    # second element and its right edge in its first.
    j = np.arange(mesh.n_t)[:, None]
    i = nodes[:, None, None] + np.array([-1, 0])
    rising = (i + j) % 2 == 0
    e = (2 * (j * mesh.n_x + i) + (rising ^ [True, False]))[:, :, None]
    t, xi = np.broadcast_arrays(mesh.t_grid[j + [0, 1]],
                                sm.nodes[nodes][:, None, None])
    x = mesh.motion.forward(t.ravel(), xi.ravel()[:, None])[:, 0] \
        .reshape(t.shape)[..., None]
    jet = jet1d(mesh.motion, t, xi)

    p_val = p0[e] + p_t[e] * (t[..., None] - t0[e]) + p_x[e] * (x - x0[e])
    dudt = (u_t[e] + jet.vhat[..., None] * u_x[e]) * p_val
    fluxprod = (nu[e] * u_x[e]) * (nu[e] * p_x[e])
    contrib = np.abs(jet.G) * (-sigma_jump * np.mean(dudt, axis=-1)
                               + inv_nu_jump * np.mean(fluxprod, axis=-1))
    values = np.sum(0.5 * np.diff(mesh.t_grid) * np.sum(contrib, axis=-1),
                    axis=1)
    normals = np.where(sm.phases[nodes] == 1, -1.0, 1.0)
    return InterfaceDensities(node_ids=nodes, values=values, normals=normals)


def magnetization_supplement(mesh, magnetization_grad, p, element_mask):
    """Density increment from a smooth transported field supported on the
    masked spatial elements, given by the field's spatial derivative as a
    callable of (t, x): in one dimension the field itself does not enter."""
    sm = mesh.spatial_mesh()
    _, _, p_x, _, _ = _element_planes(mesh, p.nodal())

    mask = np.asarray(element_mask, dtype=bool)
    g0 = np.zeros(sm.n_elements)
    g1 = np.zeros(sm.n_elements)
    active = np.nonzero(mask)[0]
    if len(active) > 0:
        t_eval, e_eval, _, x_eval, jets, dt = \
            _trajectory_samples(mesh, sm.centroids[active])
        # -(m' L + L_1 - Fxx' L) . grad p with L_1 = (grad L) G theta; in 1d
        # m' = Fxx' = (H/G) theta + theta', so m' L and Fxx' L cancel and
        # theta' has no coefficient: g1 stays zero.
        s0 = -magnetization_grad(t_eval, x_eval) * jets.G * p_x[e_eval]
        g0[active] = _trajectory_integral(jets, dt, s0)
    return DerivativeDensities(
        g0=g0, g1=g1, spatial_mesh=sm,
        metadata={"functional": "magnetization_supplement"})


def academic_objective(mesh, f):
    """Quadrature of the fixed integrand f over the design phase of the
    space-time mesh."""
    geom = mesh_geometry(mesh)
    f_q = f.values(geom.qp_t, geom.qp_x, geom.qp_xi)
    inside = mesh.phases == 1
    return float(np.sum((geom.area[inside] / 3.0)
                        * np.sum(f_q[inside], axis=1)))


def academic_volume_derivative(mesh, f, theta):
    """Volume form of the derivative of the academic functional: quadrature
    of m'(theta) f + f_1(theta) over the design phase."""
    geom = mesh_geometry(mesh)
    sm = mesh.spatial_mesh()
    jets = jet1d(mesh.motion, geom.qp_t, geom.qp_xi)
    theta_q = sm.interpolate(theta, geom.qp_xi)
    theta_x_q = sm.interpolate_gradient(theta, geom.qp_xi)
    m_q = jets.h_over_g * theta_q + theta_x_q
    f_q = f.values(geom.qp_t, geom.qp_x, geom.qp_xi)
    grad_f_q = f.gradient(geom.qp_t, geom.qp_x, geom.qp_xi)
    f1_q = jets.G * grad_f_q * theta_q
    val = m_q * f_q + f1_q
    inside = mesh.phases == 1
    return float(np.sum((geom.area[inside] / 3.0)
                        * np.sum(val[inside], axis=1)))


def academic_surface_density(motion, f, x, t_nodes):
    """Time integral of |det grad phi_t| f(t, phi_t(x)) at a boundary point."""
    t_nodes = np.asarray(t_nodes, dtype=float)
    xi = np.full_like(t_nodes, float(x))
    jets = jet1d(motion, t_nodes, xi)
    y = motion.forward(t_nodes, xi[:, None])[:, 0]
    vals = np.abs(jets.G) * f.values(t_nodes, y, xi)
    return float(np.trapezoid(vals, t_nodes))


def academic_surface_derivative(mesh, f, theta, t_nodes=None):
    """Surface form on the 1d mesh: interface points carry normals +-1."""
    sm = mesh.spatial_mesh()
    nodes = sm.interface_nodes()
    if t_nodes is None:
        t_nodes = mesh.t_grid
    total = 0.0
    for a in nodes:
        normal = -1.0 if sm.phases[a] == 1 else 1.0
        v = academic_surface_density(mesh.motion, f, sm.nodes[a], t_nodes)
        total += v * theta[a] * normal
    return total


def academic_volume_derivative_sampled(motion, f_value, f_grad, theta_fn,
                                       points, weights, t_points, t_weights):
    """Dimension-generic volume form via a user-supplied spatial quadrature
    of the design region in reference coordinates.

    ``theta_fn(xi) -> (theta, grad_theta)`` and f_value/f_grad take a time
    and a physical point.  Intended for smooth benchmark domains; the meshed
    1d path is `academic_volume_derivative`.
    """
    total = 0.0
    for tq, wt in zip(t_points, t_weights):
        for xi, wx in zip(points, weights):
            xi = np.asarray(xi, dtype=float)
            y = motion.forward(tq, xi)
            det = abs(motion.det(tq, xi))
            theta_val, grad_theta = theta_fn(xi)
            m_form = m_prime(motion, tq, y)
            f1_form = pullback_scalar_derivative(motion, tq, y, f_grad)
            val = m_form.value(theta_val, grad_theta) * f_value(tq, y) \
                + f1_form.value(theta_val, grad_theta)
            total += wt * wx * det * val
    return total


def academic_surface_derivative_polyline(motion, f_value, theta_fn, vertices,
                                         t_points, t_weights):
    """Dimension-generic surface form over a closed, counterclockwise
    polygonal interface; midpoint rule per segment."""
    vertices = np.asarray(vertices, dtype=float)
    total = 0.0
    n_seg = len(vertices)
    for k in range(n_seg):
        a = vertices[k]
        b = vertices[(k + 1) % n_seg]
        edge = b - a
        length = np.hypot(edge[0], edge[1])
        normal = np.array([edge[1], -edge[0]]) / length
        mid = 0.5 * (a + b)
        dens = 0.0
        for tq, wt in zip(t_points, t_weights):
            y = motion.forward(tq, mid)
            dens += wt * abs(motion.det(tq, mid)) * f_value(tq, y)
        theta_val, _ = theta_fn(mid)
        total += length * dens * float(np.dot(theta_val, normal))
    return total


def fd_objective_derivative(mesh, layout, source, objective, theta, eps,
                            base_solution=None):
    """One-sided finite difference of the objective under the design
    deformation eps * theta, re-solving the state on the deformed mesh."""
    if base_solution is None:
        base_solution = solve_state(mesh, layout, source)
    j_base = evaluate_objective(mesh, base_solution.u, objective)
    trial_mesh = deform_mesh(mesh, theta, eps)
    trial = solve_state(trial_mesh, layout, source,
                        initial_guess=base_solution.u)
    j_trial = evaluate_objective(trial_mesh, trial.u, objective)
    return (j_trial - j_base) / eps

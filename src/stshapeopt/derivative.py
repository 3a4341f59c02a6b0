"""Shape derivatives: academic volume/surface forms, PDE-constrained volume
forms, interface densities, the tangent problem and the magnetization
supplement.

The volume form of every derivative here is a pairing

    J'(theta) = int_D g0 . theta + g1 : grad theta dxi

with piecewise-constant densities g0, g1 on the spatial design mesh.  Each
density is a time integral of pullback-kernel coefficients along the
trajectory t -> phi_t(xi) of the element centroid, evaluated with a composite
trapezoidal rule whose nodes are the slab boundaries and the diagonal
crossing times of the trajectory; the element rule samples the same
integrand at the space-time quadrature points.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, UnsupportedCaseError
from .fem import (Field, LinearSystem, _scatter_vector, _slope,
                  assemble_state_jacobian, evaluate_objective, solve_state)
from .kernels import jet1d, m_prime, pullback_scalar_derivative
from .mesh import (NQ, deform_mesh, mesh_geometry, nodal_values,
                   trajectory_intervals)


@dataclass
class DerivativeDensities:
    """P0 densities on the spatial design mesh; g1 pairs with theta'."""

    g0: np.ndarray
    g1: np.ndarray
    spatial_mesh: object

    def load(self):
        """Nodal load J'(psi_k) of every P1 hat function psi_k."""
        h = self.spatial_mesh.widths
        load = np.zeros(len(h) + 1)
        load[:-1] += 0.5 * h * self.g0 - self.g1
        load[1:] += 0.5 * h * self.g0 + self.g1
        return load

    def pairing(self, theta):
        """Exact integral of g0 . theta + g1 theta' for P1 nodal theta."""
        theta = nodal_values(theta, self.spatial_mesh.nodes)
        return float(self.load() @ theta)


@dataclass
class InterfaceDensities:
    """Surface-form density per interface point: J'(theta) = sum v (theta.n)."""

    node_ids: np.ndarray
    values: np.ndarray
    normals: np.ndarray
    spatial_mesh: object

    def pairing(self, theta):
        theta = nodal_values(theta, self.spatial_mesh.nodes)
        return float(np.sum(self.values * theta[self.node_ids] * self.normals))


def _element_planes(mesh, nodal):
    """Affine representation (value at vertex 0, dt-slope, dx-slope, anchor)
    of a P1 field on every element."""
    ue, geom = nodal[mesh.elements], mesh_geometry(mesh)
    anchor = mesh.elements[:, 0]
    return (ue[:, 0], _slope(ue, geom.grad_t), _slope(ue, geom.grad_x),
            mesh.vertices[anchor, 0], mesh.vertices[anchor, 1])


def _plane_value(planes, e, t, x):
    """Value at the points (t, x) of the planes of the elements e."""
    v0, v_t, v_x, t0, x0 = planes
    return v0[e] + v_t[e] * (t - t0[e]) + v_x[e] * (x - x0[e])


def _integrand(state, j, points, jets, p, p_x):
    """Coefficients (s0, s1) of theta and theta' in the shape-derivative
    integrand at the points (e, t, x, xi) of the elements e, with the kernel
    jets there: every term of the transported state form differentiated
    through the pullback kernels, tested with a function of value p and
    space slope p_x.  u enters through its P1 planes, j being the objective
    integrand, and nu, nu_prime are the reluctivity law at |u_x|."""
    e, t, x, xi = points
    mesh, layout, source = state.mesh, state.layout, state.source
    planes = _element_planes(mesh, state.u.nodal())
    _, u_t, u_x, _, _ = planes
    nu, nu_prime = layout.reluctivity(mesh.phases, np.abs(u_x))
    sigma, nu, nu_prime, u_t, u_x = (
        a[e] for a in (layout.sigma(mesh.phases), nu, nu_prime, u_t, u_x))
    f, grad_f = source.values(t, x, xi), source.gradient(t, x, xi)
    hog = jets.h_over_g
    du_dt = u_t + jets.vhat * u_x
    c_m = j(_plane_value(planes, e, t, x)) + sigma * du_dt * p - f * p
    s0 = c_m * hog
    s1 = c_m.copy()
    # transported convection of the state gradient
    s0 += -sigma * p * jets.vhat * u_x * hog
    s1 += -sigma * p * jets.vhat * u_x
    # derivative of the velocity pullback
    s0 += sigma * p * u_x * jets.W
    # derivative of the transported time direction
    s0 += -sigma * p * u_x * (jets.W + jets.H * jets.q)
    s1 += -sigma * p * u_x * jets.G * jets.q
    # diffusion tensor derivative, with the nonlinear correction
    flux = -(nu + nu_prime * np.abs(u_x)) * u_x * p_x
    s0 += flux * hog
    s1 += flux
    # derivative of the source pullback
    s0 += -p * jets.G * grad_f
    return s0, s1


def _element_rule(state, theta, j, test):
    """Weighted shape-derivative integrand at the element quadrature points
    (axis 1) for P1 test functions given by their vertex values test
    (n_e or 1, 3, k); j is the objective integrand."""
    mesh = state.mesh
    geom = mesh_geometry(mesh)
    spatial_mesh = mesh.spatial_mesh()
    e = np.arange(mesh.n_elements)[:, None, None]
    t, x, xi = (a[..., None] for a in (geom.qp_t, geom.qp_x, geom.qp_xi))
    s0, s1 = _integrand(
        state, j, (e, t, x, xi), jet1d(mesh.motion, t, xi),
        np.einsum("qi,eik->eqk", NQ, test),
        np.einsum("ei,eik->ek", geom.grad_x, test)[:, None, :])
    weight = (geom.area / 3.0)[:, None, None]
    return weight * (s0 * spatial_mesh.interpolate(theta, xi)
                     + s1 * spatial_mesh.interpolate_gradient(theta, xi))


def tangent_rhs(state, theta):
    """Right-hand side of the tangent (material-derivative) problem for the
    spatial design velocity theta: the derivative integrand without j(u),
    tested with every P1 basis function."""
    rule = _element_rule(state, theta, np.zeros_like, np.eye(3)[None])
    return _scatter_vector(state.mesh, state.u.dofmap, -np.sum(rule, axis=1))


def volume_form_pairing(state, p, objective, theta):
    """Shape derivative J'(theta) evaluated with the element quadrature:
    the derivative integrand tested with the adjoint p.  Same volume form
    as the trajectory densities, different quadrature."""
    test = p.nodal()[state.mesh.elements][..., None]
    return float(np.sum(_element_rule(state, theta, objective.j, test)))


def solve_tangent(state, theta):
    """Material derivative of the state with respect to the design velocity
    theta; the right side is linear in theta."""
    system = LinearSystem(assemble_state_jacobian(state.mesh, state.layout,
                                                  state.u))
    return Field(state.u.dofmap, system.solve(tangent_rhs(state, theta)))


def _trajectory_samples(mesh, xi_c):
    """Both ends of every sub-interval of the trajectories of the reference
    points xi_c as points (covering element, shaped (1, n_pts, 2 n_t) to be
    gathered once per sub-interval; time, physical and reference point,
    each shaped (2, n_pts, 2 n_t)), the jets there, and the lengths."""
    els, t_nodes = trajectory_intervals(mesh, xi_c)
    t_eval = np.stack([t_nodes[:, :-1], t_nodes[:, 1:]])
    xi_eval = np.broadcast_to(xi_c[:, None], t_eval.shape)
    x_eval = mesh.motion.forward(t_eval.ravel(),
                                 xi_eval.ravel()[:, None])[:, 0] \
        .reshape(t_eval.shape)
    jets = jet1d(mesh.motion, t_eval, xi_eval)
    return (els[None], t_eval, x_eval, xi_eval), jets, np.diff(t_nodes, axis=1)


def _trajectory_integral(jets, dt, s):
    """Trapezoid time integral of |G| s along each trajectory."""
    weighted = np.abs(jets.G) * s
    return np.sum(0.5 * dt * (weighted[0] + weighted[1]), axis=1)


def pde_volume_densities(state, p, objective):
    """Volume-form densities of the PDE-constrained objective.

    Integrates the (theta, theta') coefficients of the shape-derivative
    integrand, nonlinear reluctivity correction included, along the
    centroid trajectories.
    """
    mesh = state.mesh
    sm = mesh.spatial_mesh()
    p_planes = _element_planes(mesh, p.nodal())
    points, jets, dt = _trajectory_samples(mesh, sm.centroids)
    e, t, x, _ = points
    s0, s1 = _integrand(state, objective.j, points, jets,
                        _plane_value(p_planes, e, t, x), p_planes[2][e])
    return DerivativeDensities(
        g0=_trajectory_integral(jets, dt, s0),
        g1=_trajectory_integral(jets, dt, s1), spatial_mesh=sm)


def pde_surface_derivative(state, p):
    """Interface density of the derivative in the piecewise-constant
    reluctivity case; one-sided interface values are averaged."""
    mesh, layout = state.mesh, state.layout
    if not layout.all_constant:
        raise UnsupportedCaseError(
            "surface form is only available for constant reluctivity laws")
    sm = mesh.spatial_mesh()
    nodes = sm.interface_nodes()
    if len(nodes) == 0:
        return InterfaceDensities(nodes, np.zeros(0), np.zeros(0), sm)
    _, u_t, u_x, _, _ = _element_planes(mesh, state.u.nodal())
    p_planes = _element_planes(mesh, p.nodal())
    _, _, p_x, _, _ = p_planes
    nu = layout.reluctivity(mesh.phases, np.abs(u_x))[0]
    mat_in, mat_out = layout.materials[1], layout.materials[2]
    sigma_jump = mat_out.sigma - mat_in.sigma
    inv_nu_jump = 1.0 / mat_out.nu.value - 1.0 / mat_in.nu.value

    # Arrays are shaped (interface, slab, time, side).  The vertical edge at
    # node a in slab j lies in cell a - 1 (minus side) and cell a (plus
    # side), in the cell's lower element if that element's top vertex lies
    # over node a, and in its upper element otherwise.
    j = np.arange(mesh.n_t)[:, None]
    a = nodes[:, None, None]
    lower = mesh.cell_element(j, a + [-1, 0])
    e = (lower + (mesh.column[mesh.elements.T[1][lower]] != a))[:, :, None]
    t, xi = np.broadcast_arrays(mesh.t_grid[j + [0, 1]], sm.nodes[a])
    x = mesh.motion.forward(t.ravel(), xi.ravel()[:, None])[:, 0] \
        .reshape(t.shape)[..., None]
    jet = jet1d(mesh.motion, t, xi)

    p_val = _plane_value(p_planes, e, t[..., None], x)
    dudt = (u_t[e] + jet.vhat[..., None] * u_x[e]) * p_val
    fluxprod = (nu[e] * u_x[e]) * (nu[e] * p_x[e])
    contrib = np.abs(jet.G) * (-sigma_jump * np.mean(dudt, axis=-1)
                               + inv_nu_jump * np.mean(fluxprod, axis=-1))
    values = np.sum(0.5 * np.diff(mesh.t_grid) * np.sum(contrib, axis=-1),
                    axis=1)
    normals = np.where(sm.phases[nodes] == 1, -1.0, 1.0)
    return InterfaceDensities(nodes, values, normals, sm)


def magnetization_supplement(mesh, magnetization_grad, p, element_mask):
    """Density increment from a smooth transported field supported on the
    masked spatial elements, given by the field's spatial derivative as a
    callable of (t, x): in one dimension the field itself does not enter."""
    sm = mesh.spatial_mesh()
    _, _, p_x, _, _ = _element_planes(mesh, p.nodal())

    mask = np.asarray(element_mask, dtype=bool)
    if mask.shape != (sm.n_elements,):
        raise GeometryError(f"element mask has shape {mask.shape}, spatial "
                            f"elements have shape {(sm.n_elements,)}")
    g0, g1 = np.zeros(sm.n_elements), np.zeros(sm.n_elements)
    active = np.flatnonzero(mask)
    if len(active) > 0:
        (e, t, x, _), jets, dt = _trajectory_samples(mesh,
                                                     sm.centroids[active])
        # -(m' L + L_1 - Fxx' L) . grad p with L_1 = (grad L) G theta; in 1d
        # m' = Fxx' = (H/G) theta + theta', so m' L and Fxx' L cancel and
        # theta' has no coefficient: g1 stays zero.
        s0 = -magnetization_grad(t, x) * jets.G * p_x[e]
        g0[active] = _trajectory_integral(jets, dt, s0)
    return DerivativeDensities(g0=g0, g1=g1, spatial_mesh=sm)


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
    theta = nodal_values(theta, sm.nodes)
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


def fd_objective_derivative(state, objective, theta, eps):
    """One-sided finite difference of the objective under the design
    deformation eps * theta, re-solving the state on the deformed mesh."""
    trial_mesh = deform_mesh(state.mesh, theta, eps)
    trial = solve_state(trial_mesh, state.layout, state.source,
                        initial_guess=state.u)
    return (evaluate_objective(trial_mesh, trial.u, objective)
            - evaluate_objective(state.mesh, state.u, objective)) / eps

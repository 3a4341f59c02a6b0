"""Shared builders and independent oracles for the test suite."""

from unittest import mock

import numpy as np
import scipy.sparse as sp

from stshapeopt import (AnalyticSource, ConstantReluctivity, Objective,
                        PhaseLayout, PhaseMaterial, Polynomial1D,
                        ReluctivityCurve, Identity, assemble_state_jacobian,
                        generate_mesh)
from stshapeopt import fem
from stshapeopt import kernels as kn
from stshapeopt.derivative import _element_planes
from stshapeopt.errors import GeometryError
from stshapeopt.materials import arkkio_q
from stshapeopt.mesh import NQ, trajectory_intervals
from stshapeopt.vtkio import VTK_TRIANGLE

PAPER_INTERFACES = (0.4, 0.6)
# Independently computed limit of the initial objective for the moving
# interface benchmark, from the reference solver in reference_solver.py
# (checked by test_reference_solver.py).
J0_LIMIT = 5.4283e-4
# Minimizer and minimum of the reference solver's extrapolated objective
# reference_limit(design, n=80) over the two interfaces, found once offline
# by BFGS with central-difference gradients (step 1e-5) from (0.4, 0.6).
REFERENCE_OPTIMUM_80 = (0.333000, 0.727688)
REFERENCE_J_MIN_80 = 4.80369e-4


def objective_u():
    return Objective(j=lambda u: np.asarray(u, dtype=float),
                     jprime=lambda u: np.ones_like(np.asarray(u, float)))


def moving_interface_problem(n_x, n_t=None):
    """The linear benchmark: Polynomial1D motion, sigma (10, 0), nu (1, 10)."""
    motion = Polynomial1D()
    layout = PhaseLayout({1: PhaseMaterial(10.0, ConstantReluctivity(1.0)),
                          2: PhaseMaterial(0.0, ConstantReluctivity(10.0))})
    source = AnalyticSource("(xref-0.4)*(xref-0.6)*sqrt(x)*(1+t-x)", motion)
    mesh = generate_mesh(n_x, n_t or n_x, PAPER_INTERFACES, motion)
    return mesh, layout, source, objective_u()


def nonlinear_problem(n_x, n_t=None):
    """Saturating-reluctivity variant of the benchmark."""
    motion = Polynomial1D()
    curve = ReluctivityCurve(nu_a=10.0, c1=1.0, c2=4.0e4, c3=2.0)
    layout = PhaseLayout({1: PhaseMaterial(10.0, curve),
                          2: PhaseMaterial(0.0, ConstantReluctivity(10.0))})
    source = AnalyticSource("(xref-0.4)*(xref-0.6)*sqrt(x)*(1+t-x)", motion)
    mesh = generate_mesh(n_x, n_t or n_x, PAPER_INTERFACES, motion)
    return mesh, layout, source, objective_u()


def identity_problem(n_x, n_t=None):
    """Static-motion control problem with both conductivities positive; the
    source is deliberately asymmetric about the design midpoint."""
    motion = Identity(dim=1)
    layout = PhaseLayout({1: PhaseMaterial(2.0, ConstantReluctivity(1.0)),
                          2: PhaseMaterial(0.5, ConstantReluctivity(3.0))})
    source = AnalyticSource("sin(pi*x)*(1+sin(2*pi*t))*(1+0.5*x)", motion)
    mesh = generate_mesh(n_x, n_t or n_x, PAPER_INTERFACES, motion)
    return mesh, layout, source, objective_u()


def periodic_pairs(mesh):
    """(n_x + 1, 2) bottom and top vertex ids that share a reference node."""
    return np.column_stack([np.flatnonzero(mesh.row == 0),
                            np.flatnonzero(mesh.row == mesh.n_t)])


def theta_bump(spatial_mesh):
    """Smooth asymmetric design velocity vanishing at the design boundary."""
    x = spatial_mesh.nodes
    return np.sin(np.pi * x) * (0.5 + 0.3 * np.sin(2.0 * np.pi * x))


def coo_jacobian(mesh, layout, u):
    """The state Jacobian, and the same local 3x3 contributions assembled
    the plain way: COO triplets converted to CSC, which sums duplicates.
    Only coupled triplets are kept: all nine of a conducting element, and
    in a sigma = 0 element those between two vertices with a nonzero
    x-gradient.  Vertex i's x-gradient is zero when the other two vertices
    share a time level.  Every dropped triplet must be exactly 0.0.  The
    fixed-pattern assembly must equal the conversion bit for bit."""
    with mock.patch.object(fem, "_scatter_matrix",
                           wraps=fem._scatter_matrix) as scatter:
        matrix = assemble_state_jacobian(mesh, layout, u)
    dofmap, local = scatter.call_args.args[1:3]
    level = mesh.row[mesh.elements]
    moves = level[:, [1, 2, 0]] != level[:, [2, 0, 1]]
    coupled = (layout.sigma(mesh.phases) != 0)[:, None, None] \
        | (moves[:, :, None] & moves[:, None, :])
    local = local.reshape(-1, 9)
    coupled = coupled.reshape(-1, 9)
    assert np.all(local[~coupled] == 0.0)
    dofs = dofmap.vertex_dof[mesh.elements]
    rows = np.repeat(dofs, 3, axis=1)
    cols = np.tile(dofs, (1, 3))
    keep = (rows >= 0) & (cols >= 0) & coupled
    oracle = sp.coo_matrix(
        (local[keep], (rows[keep], cols[keep])),
        shape=(dofmap.n_free, dofmap.n_free)).tocsc()
    return matrix, oracle


def same_csc(a, b):
    return all(np.array_equal(getattr(a, name), getattr(b, name))
               for name in ("indptr", "indices", "data"))


# ---------------------------------------------------------------------------
# crossing-time oracles for trajectory_intervals


def _diagonal_gap(mesh, x0):
    """Gap between each trajectory t -> phi_t(x0[p]) and the diagonal of its
    cell in slab j, as a function of the (n_pts, n_t) times, and the slab
    ends.  The diagonal is the edge shared by the cell's two elements of
    the slab, lower (bottom) vertex first.  A point on an interior node is
    followed 1e-12 to its right, as trajectory_intervals does."""
    on_node = np.isclose(x0[:, None], mesh.xi_nodes[None, 1:-1], rtol=0.0,
                         atol=1e-12).any(axis=1)
    x0 = np.where(on_node, x0 + 1e-12, x0)
    cells = np.searchsorted(mesh.xi_nodes, x0) - 1
    first = 2 * (np.arange(mesh.n_t)[None, :] * mesh.n_x + cells[:, None])
    one, two = mesh.elements[first], mesh.elements[first + 1]
    shared = (one[..., :, None] == two[..., None, :]).any(axis=-1)
    edge = np.sort(one[shared].reshape(first.shape + (2,)), axis=-1)
    a, b = mesh.vertices[edge[..., 0]], mesh.vertices[edge[..., 1]]
    points = np.repeat(x0, mesh.n_t)[:, None]

    def gap(t):
        traj = mesh.motion.forward(t.ravel(), points)[:, 0].reshape(t.shape)
        frac = (t - a[..., 0]) / (b[..., 0] - a[..., 0])
        return traj - (a[..., 1] + frac * (b[..., 1] - a[..., 1]))
    return gap, a[..., 0], b[..., 0]


def chord_crossings(mesh, x0):
    """One regula-falsi step from the gaps at the slab ends."""
    gap, lo, hi = _diagonal_gap(mesh, x0)
    gap_lo, gap_hi = gap(lo), gap(hi)
    return lo + (hi - lo) * (gap_lo / (gap_lo - gap_hi))


def bisected_crossings(mesh, x0):
    """Midpoints after 50 bisections of each slab on the gap's sign."""
    gap, lo, hi = _diagonal_gap(mesh, x0)
    sign_lo = np.sign(gap(lo))
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        same = np.sign(gap(mid)) == sign_lo
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# finite-difference oracles for the pullback kernels


def transported_blocks(motion, t, x, theta_fn, eps):
    """F_xx, F_xt, m and A of the transported map at perturbation size eps."""
    x = np.asarray(x, dtype=float)
    xi = motion.inverse(t, x)
    th, gth = theta_fn(xi)
    y = xi + eps * th
    eye = np.eye(motion.dim)
    g_y = motion.grad(t, y)
    ginv_x = np.linalg.inv(motion.grad(t, xi))
    fxx = g_y @ (eye + eps * gth) @ ginv_x
    q = -np.linalg.inv(motion.grad(t, xi)) @ motion.dt(t, xi)
    fxt = motion.dt(t, y) + g_y @ (eye + eps * gth) @ q
    m = abs(np.linalg.det(fxx))
    fxx_inv = np.linalg.inv(fxx)
    a_mat = m * fxx_inv @ fxx_inv.T
    return m, fxx, fxt, a_mat


def kernel_fd(motion, t, x, theta_fn, eps, which, f_value=None, w_value=None):
    """Central difference quotient of one transported quantity."""
    def at(sign):
        if which in ("m", "Fxx", "Fxt", "A"):
            m, fxx, fxt, a_mat = transported_blocks(motion, t, x, theta_fn,
                                                    sign * eps)
            return {"m": m, "Fxx": fxx, "Fxt": fxt, "A": a_mat}[which]
        xi = motion.inverse(t, np.asarray(x, dtype=float))
        th, _ = theta_fn(xi)
        y = motion.forward(t, xi + sign * eps * th)
        return f_value(t, y) if which == "f" else w_value(t, y)
    return (at(+1.0) - at(-1.0)) / (2.0 * eps)


# ---------------------------------------------------------------------------
# direct term-by-term evaluation of the volume-form derivative along the
# same trajectory quadrature as the density assembly, through the generic
# (single-point) kernels


def direct_volume_pairing(mesh, layout, u, p, source, objective, theta):
    sm = mesh.spatial_mesh()
    motion = mesh.motion
    u_nodal, p_nodal = u.nodal(), p.nodal()
    u0, u_t, u_x, _, _ = _element_planes(mesh, u_nodal)
    p0, p_t, p_x, t0, x0 = _element_planes(mesh, p_nodal)
    sigma_e = layout.sigma(mesh.phases)

    def jac_v(t, y):
        return motion.velocity_grad(t, np.asarray(y, dtype=float))

    def grad_f(t, y):
        y = np.asarray(y, dtype=float)
        xi = motion.inverse(t, y)
        return np.atleast_1d(source.gradient(np.asarray(t), y[0], xi[0]))

    total = 0.0
    widths = sm.widths
    slopes = np.diff(theta) / widths
    for e, xi_c in enumerate(sm.centroids):
        th_c = np.array([np.interp(xi_c, sm.nodes, theta)])
        gth_c = np.array([[slopes[e]]])
        els, t_nodes = trajectory_intervals(mesh, np.array([xi_c]))
        track = 0.0
        for k in range(els.shape[1]):
            ta, tb = t_nodes[0, k], t_nodes[0, k + 1]
            elem = els[0, k]
            vals = []
            for t in (ta, tb):
                x_pt = motion.forward(t, np.array([xi_c]))
                det = abs(motion.det(t, np.array([xi_c])))
                mat = layout.materials[mesh.phases[elem]]
                nu, nu_prime = mat.nu.eval(abs(u_x[elem]))
                u_val = u0[elem] + u_t[elem] * (t - t0[elem]) \
                    + u_x[elem] * (x_pt[0] - x0[elem])
                p_val = p0[elem] + p_t[elem] * (t - t0[elem]) \
                    + p_x[elem] * (x_pt[0] - x0[elem])
                v_pt = motion.velocity(t, x_pt)[0]
                du_dt = u_t[elem] + v_pt * u_x[elem]

                m_val = kn.m_prime(motion, t, x_pt).value(th_c, gth_c)
                fxx_val = kn.Fxx_prime(motion, t, x_pt).value(th_c, gth_c)[0, 0]
                b_val = kn.b_prime(motion, t, x_pt).value(th_c, gth_c)[0]
                a_val = kn.A_prime(motion, t, x_pt).value(th_c, gth_c)[0, 0]
                v1_val = kn.pullback_vector_derivative(
                    motion, t, x_pt, jac_v).value(th_c, gth_c)[0]
                f1_val = kn.pullback_scalar_derivative(
                    motion, t, x_pt, grad_f).value(th_c, gth_c)
                f_val = float(source.values(np.asarray(t), x_pt[0], xi_c))
                ju = float(objective.j(u_val))

                integrand = (m_val * ju
                             + sigma_e[elem] * (m_val * du_dt
                                                - fxx_val * v_pt * u_x[elem]
                                                + v1_val * u_x[elem]
                                                + b_val * u_x[elem]) * p_val
                             + (nu * a_val
                                - nu_prime * abs(u_x[elem]) * fxx_val)
                             * u_x[elem] * p_x[elem]
                             - (m_val * f_val + f1_val) * p_val)
                vals.append(det * integrand)
            track += 0.5 * (tb - ta) * (vals[0] + vals[1])
        total += widths[e] * track
    return total


def direct_element_pairing(mesh, layout, u, p, source, objective, theta):
    """The integrand of direct_volume_pairing summed with the element rule:
    weights area/3 at the NQ points of every space-time element."""
    sm = mesh.spatial_mesh()
    motion = mesh.motion
    u0, u_t, u_x, _, _ = _element_planes(mesh, u.nodal())
    p0, p_t, p_x, t0, x0 = _element_planes(mesh, p.nodal())
    sigma_e = layout.sigma(mesh.phases)

    def jac_v(t, y):
        return motion.velocity_grad(t, np.asarray(y, dtype=float))

    def grad_f(t, y):
        y = np.asarray(y, dtype=float)
        xi = motion.inverse(t, y)
        return np.atleast_1d(source.gradient(np.asarray(t), y[0], xi[0]))

    slopes = np.diff(theta) / sm.widths
    total = 0.0
    for elem, corners in enumerate(mesh.vertices[mesh.elements]):
        d1, d2 = corners[1] - corners[0], corners[2] - corners[0]
        weight = 0.5 * (d1[0] * d2[1] - d1[1] * d2[0]) / 3.0
        mat = layout.materials[mesh.phases[elem]]
        nu, nu_prime = mat.nu.eval(abs(u_x[elem]))
        for t, x in NQ @ corners:
            x_pt = np.array([x])
            xi = motion.inverse(t, x_pt)[0]
            cell = min(np.searchsorted(sm.nodes, xi, side="right") - 1,
                       sm.n_elements - 1)
            th = np.array([np.interp(xi, sm.nodes, theta)])
            gth = np.array([[slopes[cell]]])
            u_val = u0[elem] + u_t[elem] * (t - t0[elem]) \
                + u_x[elem] * (x - x0[elem])
            p_val = p0[elem] + p_t[elem] * (t - t0[elem]) \
                + p_x[elem] * (x - x0[elem])
            v_pt = motion.velocity(t, x_pt)[0]
            du_dt = u_t[elem] + v_pt * u_x[elem]

            m_val = kn.m_prime(motion, t, x_pt).value(th, gth)
            fxx_val = kn.Fxx_prime(motion, t, x_pt).value(th, gth)[0, 0]
            b_val = kn.b_prime(motion, t, x_pt).value(th, gth)[0]
            a_val = kn.A_prime(motion, t, x_pt).value(th, gth)[0, 0]
            v1_val = kn.pullback_vector_derivative(
                motion, t, x_pt, jac_v).value(th, gth)[0]
            f1_val = kn.pullback_scalar_derivative(
                motion, t, x_pt, grad_f).value(th, gth)
            f_val = float(source.values(np.asarray(t), x, xi))
            ju = float(objective.j(u_val))

            integrand = (m_val * ju
                         + sigma_e[elem] * (m_val * du_dt
                                            - fxx_val * v_pt * u_x[elem]
                                            + v1_val * u_x[elem]
                                            + b_val * u_x[elem]) * p_val
                         + (nu * a_val - nu_prime * abs(u_x[elem]) * fxx_val)
                         * u_x[elem] * p_x[elem]
                         - (m_val * f_val + f1_val) * p_val)
            total += weight * integrand
    return total


def direct_magnetization_pairing(mesh, big_l, big_l_grad, p, element_mask,
                                 theta):
    sm = mesh.spatial_mesh()
    motion = mesh.motion
    _, _, p_x, _, _ = _element_planes(mesh, p.nodal())
    slopes = np.diff(theta) / sm.widths
    total = 0.0
    for e in np.nonzero(np.asarray(element_mask, dtype=bool))[0]:
        xi_c = sm.centroids[e]
        th_c = np.array([np.interp(xi_c, sm.nodes, theta)])
        gth_c = np.array([[slopes[e]]])
        els, t_nodes = trajectory_intervals(mesh, np.array([xi_c]))
        track = 0.0
        for k in range(els.shape[1]):
            ta, tb = t_nodes[0, k], t_nodes[0, k + 1]
            elem = els[0, k]
            vals = []
            for t in (ta, tb):
                x_pt = motion.forward(t, np.array([xi_c]))
                det = abs(motion.det(t, np.array([xi_c])))
                m_val = kn.m_prime(motion, t, x_pt).value(th_c, gth_c)
                fxx = kn.Fxx_prime(motion, t, x_pt).value(th_c, gth_c)[0, 0]
                l1 = kn.pullback_vector_derivative(
                    motion, t, x_pt,
                    lambda tt, yy: np.array([[big_l_grad(tt, yy[0])]])
                ).value(th_c, gth_c)[0]
                l_val = big_l(t, x_pt[0])
                integrand = -(m_val * l_val + l1 - fxx * l_val) * p_x[elem]
                vals.append(det * integrand)
            track += 0.5 * (tb - ta) * (vals[0] + vals[1])
        total += sm.widths[e] * track
    return total


# ---------------------------------------------------------------------------
# misc quadrature and meshing utilities


def gauss_rule(a, b, n):
    pts, wts = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * pts + 0.5 * (a + b), 0.5 * (b - a) * wts


def annulus_mesh(r_inner, r_outer, n_r, n_phi):
    """Structured polar triangulation of a full annulus."""
    radii = np.linspace(r_inner, r_outer, n_r + 1)
    phis = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    points = np.array([[r * np.cos(p), r * np.sin(p)]
                       for r in radii for p in phis])
    tris = []
    for i in range(n_r):
        for j in range(n_phi):
            jn = (j + 1) % n_phi
            a = i * n_phi + j
            b = i * n_phi + jn
            c = (i + 1) * n_phi + j
            d = (i + 1) * n_phi + jn
            tris.append((a, b, d))
            tris.append((a, d, c))
    return points, np.array(tris)


def observed_orders(values):
    """Pairwise log2 reduction rates of a halving-refinement sequence."""
    values = np.asarray(values, dtype=float)
    return np.log2(values[:-1] / values[1:])


# ---------------------------------------------------------------------------
# per-line and per-element oracles of the whole-array writers and integrals:
# the package's earlier loops, kept unchanged so that the new passes can be
# compared with them byte for byte and to roundoff


def write_vtk_per_line(path, mesh, point_data=None):
    """A field whose shape is not (n_vertices,) raises GeometryError before
    the file is opened."""
    point_data = {name: np.asarray(values, dtype=float)
                  for name, values in (point_data or {}).items()}
    for name, values in point_data.items():
        if values.shape != (mesh.n_vertices,):
            raise GeometryError(f"point field {name!r} has shape "
                                f"{values.shape}, mesh vertices have shape "
                                f"({mesh.n_vertices},)")
    with open(path, "w") as f:
        f.write("# vtk DataFile Version 3.0\n")
        f.write("space-time snapshot\n")
        f.write("ASCII\n")
        f.write("DATASET UNSTRUCTURED_GRID\n")
        f.write(f"POINTS {mesh.n_vertices} double\n")
        for t, x in mesh.vertices:
            f.write(f"{x:.12e} {t:.12e} 0.0\n")
        f.write(f"CELLS {mesh.n_elements} {4 * mesh.n_elements}\n")
        for tri in mesh.elements:
            f.write(f"3 {tri[0]} {tri[1]} {tri[2]}\n")
        f.write(f"CELL_TYPES {mesh.n_elements}\n")
        for _ in range(mesh.n_elements):
            f.write(f"{VTK_TRIANGLE}\n")
        if point_data:
            f.write(f"POINT_DATA {mesh.n_vertices}\n")
            for name, values in point_data.items():
                f.write(f"SCALARS {name} double 1\n")
                f.write("LOOKUP_TABLE default\n")
                for v in values:
                    f.write(f"{v:.12e}\n")
        f.write(f"CELL_DATA {mesh.n_elements}\n")
        f.write("SCALARS phase int 1\n")
        f.write("LOOKUP_TABLE default\n")
        for p in mesh.phases:
            f.write(f"{int(p)}\n")


def arkkio_torque_per_element(points, triangles, u, r_inner, r_outer, length,
                              nu_air):
    """Average torque from a steady potential on a 2d triangulated annulus.

    Integrates Q grad u . grad u over the elements whose centroid lies in the
    annulus r_inner < |x| < r_outer, with the edge-midpoint rule for the
    position-dependent weight; the time average over one period of a steady
    field cancels against the period length.
    """
    if not r_inner < r_outer:
        raise GeometryError(f"need r_inner < r_outer, got {r_inner}, {r_outer}")
    points = np.asarray(points, dtype=float)
    triangles = np.asarray(triangles, dtype=int)
    u = np.asarray(u, dtype=float)

    p0 = points[triangles[:, 0]]
    p1 = points[triangles[:, 1]]
    p2 = points[triangles[:, 2]]
    centroid = (p0 + p1 + p2) / 3.0
    radius = np.hypot(centroid[:, 0], centroid[:, 1])
    inside = (radius > r_inner) & (radius < r_outer)
    if not np.any(inside):
        raise GeometryError("annulus does not intersect the mesh")

    total = 0.0
    for e in np.nonzero(inside)[0]:
        tri = triangles[e]
        a, b, c = points[tri]
        d1, d2 = b - a, c - a
        area = 0.5 * abs(d1[0] * d2[1] - d1[1] * d2[0])
        if not area > 0.0:
            raise GeometryError(f"triangle {e} in the annulus has no area")
        mat = np.column_stack((d1, d2))
        grads_ref = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
        grads = grads_ref @ np.linalg.inv(mat)
        grad_u = u[tri] @ grads
        for qp in ((a + b) / 2, (b + c) / 2, (c + a) / 2):
            total += (area / 3.0) * float(arkkio_q(qp) @ grad_u @ grad_u)
    return length * nu_air / (r_outer - r_inner) * total

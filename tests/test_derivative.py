import numpy as np
import pytest

from helpers import (direct_magnetization_pairing, direct_volume_pairing,
                     gauss_rule, identity_problem, moving_interface_problem,
                     nonlinear_problem, objective_u, theta_bump)
from stshapeopt import (AnalyticSource, ConstantReluctivity, Identity,
                        Objective, PhaseLayout, PhaseMaterial, Polynomial1D,
                        Rotation2D, ZeroSource, academic_objective,
                        academic_surface_derivative,
                        academic_volume_derivative, deform_mesh,
                        generate_mesh, magnetization_supplement,
                        pde_surface_derivative, pde_volume_densities,
                        solve_adjoint, solve_state, volume_form_pairing)
from stshapeopt.derivative import (academic_surface_density,
                                   academic_surface_derivative_polyline,
                                   academic_volume_derivative_sampled,
                                   fd_objective_derivative)
from stshapeopt.errors import GeometryError, UnsupportedCaseError
from stshapeopt.fem import DofMap, ElementGeometry, Field, evaluate_objective
from stshapeopt.kernels import jet1d

RNG = np.random.default_rng(41)


def random_theta(n_nodes):
    theta = RNG.normal(size=n_nodes)
    theta[0] = theta[-1] = 0.0
    return theta


# ---------------------------------------------------------------------------
# academic functional


def test_academic_zero_deformation():
    mesh, _, _, _ = moving_interface_problem(12)
    f = AnalyticSource("x*(2-x)*(1+t)", mesh.motion)
    assert academic_volume_derivative(mesh, f, np.zeros(13)) == 0.0


def test_academic_surface_zero_integrand():
    mesh, _, _, _ = moving_interface_problem(12)
    assert academic_surface_derivative(mesh, ZeroSource(),
                                       random_theta(13)) == 0.0


def test_academic_surface_identity_endpoint_bookkeeping():
    # identity motion, f = 1: the density is T at both interface points, so
    # equal endpoint displacements cancel and a single one contributes T * c
    mesh, _, _, _ = identity_problem(10)
    one = AnalyticSource("1+0*x", mesh.motion)
    sm = mesh.spatial_mesh()
    nodes = sm.interface_nodes()
    theta = np.zeros(11)
    theta[nodes] = 0.25
    assert abs(academic_surface_derivative(mesh, one, theta)) < 1e-14
    theta = np.zeros(11)
    theta[nodes[1]] = 0.25   # only the right interface moves; normal is +1
    value = academic_surface_derivative(mesh, one, theta)
    assert abs(value - 1.0 * 0.25) < 1e-14


def test_academic_rotation_reduces_to_divergence():
    # unit integrand, rotating square design: the volume form collapses to
    # T * integral of div theta, i.e. the boundary flux of theta
    motion = Rotation2D(period=1.0)
    pts_x, wts_x = gauss_rule(0.25, 0.75, 8)
    points = [(a, b) for a in pts_x for b in pts_x]
    weights = [wa * wb for wa in wts_x for wb in wts_x]
    t_pts, t_wts = gauss_rule(0.0, 1.0, 6)

    def theta_fn(xi):
        x1, x2 = xi
        val = np.array([np.sin(np.pi * x1) * x2, x1 * x2 ** 2])
        grad = np.array([[np.pi * np.cos(np.pi * x1) * x2,
                          np.sin(np.pi * x1)],
                         [x2 ** 2, 2.0 * x1 * x2]])
        return val, grad

    value = academic_volume_derivative_sampled(
        motion, lambda t, y: 1.0, lambda t, y: np.zeros(2), theta_fn,
        points, weights, t_pts, t_wts)
    div_quad = sum(w * np.trace(theta_fn(np.asarray(p))[1])
                   for p, w in zip(points, weights))
    assert abs(value - 1.0 * div_quad) < 1e-12 * (abs(value) + 1.0)

    # cross-check against the boundary form on the square interface
    corners = np.array([[0.25, 0.25], [0.75, 0.25], [0.75, 0.75],
                        [0.25, 0.75]])
    refined = []
    for k in range(4):
        a, b = corners[k], corners[(k + 1) % 4]
        for s in np.linspace(0.0, 1.0, 60, endpoint=False):
            refined.append(a + s * (b - a))
    surface = academic_surface_derivative_polyline(
        motion, lambda t, y: 1.0, theta_fn, np.array(refined), t_pts, t_wts)
    assert abs(value - surface) / abs(value) < 1e-2


def test_academic_polynomial_matches_remesh_oracle():
    motion = Polynomial1D()
    f = AnalyticSource("x", motion)
    errors = []
    mesh = generate_mesh(64, 64, (0.4, 0.6), motion)
    theta = theta_bump(mesh.spatial_mesh())
    derivative = academic_volume_derivative(mesh, f, theta)
    base = academic_objective(mesh, f)
    for eps in (1e-2, 1e-3, 1e-4):
        trial = deform_mesh(mesh, theta, eps)
        fd = (academic_objective(trial, f) - base) / eps
        errors.append(abs(fd - derivative) / abs(derivative))
    orders = np.log10(np.array(errors[:-1]) / errors[1:])
    assert np.all(orders > 0.9)
    assert errors[2] < 1e-3


def test_academic_volume_and_surface_forms_agree_under_refinement():
    motion = Polynomial1D()
    f = AnalyticSource("x*(1+0.3*t)", motion)
    rel = []
    for n in (32, 64):
        mesh = generate_mesh(n, n, (0.4, 0.6), motion)
        theta = theta_bump(mesh.spatial_mesh())
        vol = academic_volume_derivative(mesh, f, theta)
        surf = academic_surface_derivative(
            mesh, f, theta, t_nodes=np.linspace(0.0, 1.0, 4 * n))
        rel.append(abs(vol - surf) / abs(surf))
    assert rel[1] < rel[0]
    assert rel[1] < 1e-2


def test_academic_surface_density_polynomial_value():
    # for f = x the density integrand is (1 + 2 t x)(x + t x^2); compare the
    # trapezoid evaluation against a dense Gauss quadrature
    motion = Polynomial1D()
    f = AnalyticSource("x", motion)
    x = 0.4
    got = academic_surface_density(motion, f, x,
                                   np.linspace(0.0, 1.0, 4000))
    ts, ws = gauss_rule(0.0, 1.0, 40)
    dense = np.sum(ws * (1.0 + 2.0 * ts * x) * (x + ts * x * x))
    assert abs(got - dense) < 1e-7


# ---------------------------------------------------------------------------
# PDE-constrained densities


def test_trivial_densities_vanish():
    mesh, layout, _, _ = moving_interface_problem(8)
    state = solve_state(mesh, layout, ZeroSource())
    p = Field.zeros(DofMap.from_mesh(mesh))
    zero_obj = Objective(j=lambda v: np.zeros_like(v),
                         jprime=lambda v: np.zeros_like(v))
    dens = pde_volume_densities(state, p, zero_obj)
    assert np.all(dens.g0 == 0.0) and np.all(dens.g1 == 0.0)


@pytest.mark.parametrize("builder", [moving_interface_problem,
                                     nonlinear_problem],
                         ids=["constant_nu", "curve_nu"])
def test_densities_match_direct_kernel_evaluation(builder):
    mesh, layout, source, objective = builder(12, 10)
    state = solve_state(mesh, layout, source)
    p = solve_adjoint(state, objective)
    dens = pde_volume_densities(state, p, objective)
    for _ in range(5):
        theta = random_theta(13)
        a = dens.pairing(theta)
        b = direct_volume_pairing(mesh, layout, state.u, p, source,
                                  objective, theta)
        assert abs(a - b) <= 1e-8 * (abs(a) + 1e-12)


def test_density_pairing_is_linear_in_theta():
    mesh, layout, source, objective = moving_interface_problem(10)
    state = solve_state(mesh, layout, source)
    p = solve_adjoint(state, objective)
    dens = pde_volume_densities(state, p, objective)
    t1, t2 = random_theta(11), random_theta(11)
    lhs = dens.pairing(2.5 * t1 - 1.5 * t2)
    rhs = 2.5 * dens.pairing(t1) - 1.5 * dens.pairing(t2)
    assert abs(lhs - rhs) < 1e-12 * (abs(lhs) + 1.0)


def test_densities_agree_with_element_rule_pairing_under_refinement():
    rel = []
    for n in (48, 96):
        mesh, layout, source, objective = moving_interface_problem(n)
        state = solve_state(mesh, layout, source)
        p = solve_adjoint(state, objective)
        sm = mesh.spatial_mesh()
        theta = theta_bump(sm)
        a = pde_volume_densities(state, p, objective).pairing(theta)
        b = volume_form_pairing(state, p, objective, theta)
        rel.append(abs(a - b) / abs(b))
    assert rel[1] < 0.35 * rel[0]    # second-order gap between quadratures
    assert rel[1] < 2e-2


@pytest.mark.parametrize("builder,n,best_tol", [
    (moving_interface_problem, 96, 1e-3),
    (nonlinear_problem, 96, 1e-3),
    (identity_problem, 96, 2e-4),
], ids=["linear", "curve_law", "static_control"])
def test_adjoint_derivative_matches_shape_fd(builder, n, best_tol):
    mesh, layout, source, objective = builder(n)
    state = solve_state(mesh, layout, source)
    p = solve_adjoint(state, objective)
    sm = mesh.spatial_mesh()
    theta = theta_bump(sm)
    adjoint_value = volume_form_pairing(state, p, objective, theta)
    eps_values = (1e-2, 1e-3, 1e-4, 1e-5)
    errors = []
    for eps in eps_values:
        fd = fd_objective_derivative(state, objective, theta, eps)
        errors.append(abs(fd - adjoint_value) / abs(adjoint_value))
    orders = [np.log10(errors[k] / errors[k + 1]) for k in range(3)]
    assert max(orders) >= 1.0
    assert min(errors) <= best_tol


def test_density_route_first_order_in_eps_before_floor():
    mesh, layout, source, objective = identity_problem(96)
    state = solve_state(mesh, layout, source)
    p = solve_adjoint(state, objective)
    theta = theta_bump(mesh.spatial_mesh())
    value = pde_volume_densities(state, p, objective).pairing(theta)
    errors = []
    for eps in (3e-2, 1e-2, 3e-3, 1e-3):
        fd = fd_objective_derivative(state, objective, theta, eps)
        errors.append(abs(fd - value) / abs(value))
    orders = np.log(np.array(errors[:-1]) / errors[1:]) / np.log(3.0)
    assert np.max(orders) >= 1.0
    assert errors[-1] < errors[0]


# ---------------------------------------------------------------------------
# surface form of the PDE-constrained derivative


def test_surface_density_zero_without_jumps():
    motion = Polynomial1D()
    mat = PhaseMaterial(2.0, ConstantReluctivity(3.0))
    layout = PhaseLayout({1: mat, 2: mat})
    mesh = generate_mesh(16, 16, (0.4, 0.6), motion)
    source = AnalyticSource("(xref-0.4)*(xref-0.6)*sqrt(x)*(1+t-x)", motion)
    state = solve_state(mesh, layout, source)
    p = solve_adjoint(state, objective_u())
    iface = pde_surface_derivative(state, p)
    assert np.max(np.abs(iface.values)) < 1e-12


def test_surface_form_without_interfaces_is_empty():
    # the layout holds only the phase the mesh has, so no interface
    # material is read
    motion = Polynomial1D()
    layout = PhaseLayout({2: PhaseMaterial(2.0, ConstantReluctivity(3.0))})
    mesh = generate_mesh(8, 8, (), motion)
    source = AnalyticSource("sqrt(x)*(1+t-x)", motion)
    state = solve_state(mesh, layout, source)
    p = solve_adjoint(state, objective_u())
    iface = pde_surface_derivative(state, p)
    assert iface.node_ids.size == iface.values.size == 0
    assert iface.pairing(theta_bump(mesh.spatial_mesh())) == 0.0


def test_surface_form_requires_constant_laws():
    mesh, layout, source, objective = nonlinear_problem(8)
    state = solve_state(mesh, layout, source)
    p = solve_adjoint(state, objective)
    with pytest.raises(UnsupportedCaseError):
        pde_surface_derivative(state, p)


def test_densities_build_no_element_geometry(monkeypatch):
    # sigma and nu come from the layout, so neither form builds the
    # assembly's per-element data
    mesh, layout, source, objective = moving_interface_problem(12)
    state = solve_state(mesh, layout, source)
    p = solve_adjoint(state, objective)
    built, init = [], ElementGeometry.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ElementGeometry, "__init__", counted)
    pde_volume_densities(state, p, objective)
    pde_surface_derivative(state, p)
    assert built == []


def test_surface_form_reads_the_elements_beside_each_interface_edge():
    # Oracle without the cell-numbering formula: the elements beside the
    # vertical edge at node a in slab j are the two triangles holding both
    # of its vertices, and the third vertex's column tells the side.
    mesh, layout, source, objective = moving_interface_problem(16)
    state = solve_state(mesh, layout, source)
    p = solve_adjoint(state, objective)
    iface = pde_surface_derivative(state, p)
    u_nodal, p_nodal = state.u.nodal(), p.nodal()
    mat_in, mat_out = layout.materials[1], layout.materials[2]
    sigma_jump = mat_out.sigma - mat_in.sigma
    inv_nu_jump = 1.0 / mat_out.nu.value - 1.0 / mat_in.nu.value

    def plane_slopes(element, nodal):
        corners = mesh.vertices[mesh.elements[element]]
        lhs = np.column_stack([np.ones(3), corners])
        return np.linalg.solve(lhs, nodal[mesh.elements[element]])[1:]

    assert len(iface.node_ids) == 2
    for a, value in zip(iface.node_ids, iface.values):
        total = 0.0
        for j in range(mesh.n_t):
            ends = (mesh.vertex_id(j, a), mesh.vertex_id(j + 1, a))
            holds = np.isin(mesh.elements, ends).sum(axis=1) == 2
            beside = np.nonzero(holds)[0]
            assert len(beside) == 2
            third = [mesh.elements[e][~np.isin(mesh.elements[e], ends)][0]
                     for e in beside]
            sides = sorted(zip(mesh.column[third], beside))
            assert [c - a for c, _ in sides] == [-1, 1]
            for v in ends:
                t = mesh.vertices[v, 0]
                jet = jet1d(mesh.motion, np.array([t]),
                            np.array([mesh.xi_nodes[mesh.column[v]]]))
                dudt, fluxprod = [], []
                for _, e in sides:
                    u_t, u_x = plane_slopes(e, u_nodal)
                    _, p_x = plane_slopes(e, p_nodal)
                    nu = layout.materials[mesh.phases[e]].nu.value
                    dudt.append((u_t + jet.vhat[0] * u_x) * p_nodal[v])
                    fluxprod.append(nu * u_x * nu * p_x)
                total += 0.5 * (mesh.t_grid[j + 1] - mesh.t_grid[j]) \
                    * abs(jet.G[0]) * (-sigma_jump * np.mean(dudt)
                                       + inv_nu_jump * np.mean(fluxprod))
        assert abs(value - total) <= 1e-13 * abs(total)


def periodic_wobble_motion():
    """Nontrivial time-periodic 1d motion: phi_t(x) = x + 0.3 sin(pi t)
    x (1 - x); phi_0 = phi_1 = Id and x -> phi_t(x) stays monotone."""
    from stshapeopt import CustomMotion

    def tb(t):
        return np.asarray(t, dtype=float)[..., None] if np.ndim(t) else t

    return CustomMotion(
        dim=1,
        forward=lambda t, x: x + 0.3 * np.sin(np.pi * tb(t)) * x * (1.0 - x),
        grad=lambda t, x: (1.0 + 0.3 * np.sin(np.pi * tb(t))
                           * (1.0 - 2.0 * x))[..., None],
        grad2=lambda t, x: np.broadcast_to(
            np.asarray(-0.6 * np.sin(np.pi * tb(t)))[..., None, None],
            np.shape(x) + (1, 1)).copy(),
        dt=lambda t, x: 0.3 * np.pi * np.cos(np.pi * tb(t)) * x * (1.0 - x),
        dt_grad=lambda t, x: (0.3 * np.pi * np.cos(np.pi * tb(t))
                              * (1.0 - 2.0 * x))[..., None])


@pytest.mark.parametrize("motion_builder",
                         [lambda: Identity(dim=1), periodic_wobble_motion],
                         ids=["static", "periodic_motion"])
def test_surface_and_volume_forms_agree_near_interface(motion_builder):
    # surface/volume equivalence needs trace regularity, which holds for
    # time-periodic data; the open benchmark motion is not time-periodic and
    # keeps a seam-induced kink at the interface trace
    rel = []
    for n in (80, 160):
        motion = motion_builder()
        mesh = generate_mesh(n, n, (0.4, 0.6), motion)
        layout = PhaseLayout({
            1: PhaseMaterial(2.0, ConstantReluctivity(1.0)),
            2: PhaseMaterial(0.5, ConstantReluctivity(3.0))})
        source = AnalyticSource("sin(pi*x)*(1+sin(2*pi*t))*(1+0.5*x)", motion)
        objective = objective_u()
        state = solve_state(mesh, layout, source)
        p = solve_adjoint(state, objective)
        sm = mesh.spatial_mesh()
        iface = pde_surface_derivative(state, p)
        dens = pde_volume_densities(state, p, objective)
        diffs = []
        for node in iface.node_ids:
            hat = np.zeros(len(sm.nodes))
            hat[node] = 1.0
            diffs.append((dens.pairing(hat), iface.pairing(hat)))
        worst = max(abs(a - b) / abs(b) for a, b in diffs)
        rel.append(worst)
    assert rel[1] < 0.5 * rel[0]
    assert rel[1] <= 2e-2


def test_interior_deformations_pair_to_zero_under_refinement():
    # volume densities concentrate on the interface: deformations supported
    # away from it pair to discretization-size values only
    vals = []
    for n in (40, 80, 160):
        mesh, layout, source, objective = moving_interface_problem(n)
        state = solve_state(mesh, layout, source)
        p = solve_adjoint(state, objective)
        sm = mesh.spatial_mesh()
        dens = pde_volume_densities(state, p, objective)
        theta = np.where((sm.nodes > 0.7) & (sm.nodes < 0.9),
                         np.sin(np.pi * (sm.nodes - 0.7) / 0.2) ** 2, 0.0)
        vals.append(abs(dens.pairing(theta)))
    assert vals[2] < vals[1] < vals[0]
    assert vals[2] < 5e-7


def test_surface_descent_direction_decreases_objective():
    mesh, layout, source, objective = moving_interface_problem(48)
    state = solve_state(mesh, layout, source)
    j_base = evaluate_objective(mesh, state.u, objective)
    p = solve_adjoint(state, objective)
    iface = pde_surface_derivative(state, p)
    sm = mesh.spatial_mesh()
    theta = np.zeros(len(sm.nodes))
    theta[iface.node_ids] = -iface.values * iface.normals
    trial = deform_mesh(mesh, theta, 1.0 / (np.max(np.abs(theta)) * 100.0))
    j_trial = evaluate_objective(
        trial, solve_state(trial, layout, source).u, objective)
    assert j_trial < j_base


# ---------------------------------------------------------------------------
# magnetization supplement


def magnetization_setup(n=12):
    mesh, layout, source, objective = moving_interface_problem(n, 10)
    state = solve_state(mesh, layout, source)
    p = solve_adjoint(state, objective)
    sm = mesh.spatial_mesh()
    mask = sm.phases == 1           # support on the conducting band
    return mesh, p, mask, sm


def test_magnetization_zero_field_zero_increment():
    mesh, p, mask, sm = magnetization_setup()
    inc = magnetization_supplement(mesh, lambda t, x: np.zeros_like(x), p,
                                   mask)
    assert np.all(inc.g0 == 0.0) and np.all(inc.g1 == 0.0)


@pytest.mark.parametrize("size", [5, 50])
def test_magnetization_mask_of_the_wrong_shape_names_both_shapes(size):
    mesh, p, _, sm = magnetization_setup()
    with pytest.raises(GeometryError, match=rf"\({size},\).*"
                       rf"\({sm.n_elements},\)"):
        magnetization_supplement(mesh, lambda t, x: np.zeros_like(x), p,
                                 np.ones(size, dtype=bool))


def test_magnetization_constant_field_cancels_exactly():
    mesh, p, mask, sm = magnetization_setup()
    # for the field 2.5 x the m' L and Fxx' L terms cancel exactly in 1d,
    # so theta' has no coefficient, while its derivative drives g0
    inc = magnetization_supplement(mesh, lambda t, x: np.full_like(x, 2.5),
                                   p, mask)
    assert np.all(inc.g1 == 0.0)
    assert np.all(inc.g0[mask] != 0.0) and np.all(inc.g0[~mask] == 0.0)


def test_magnetization_matches_direct_quadrature():
    mesh, p, mask, sm = magnetization_setup()

    def big_l(t, x):
        return np.sin(2.0 * x + 0.5 * t) + 0.3 * x * x

    def big_l_grad(t, x):
        return 2.0 * np.cos(2.0 * x + 0.5 * t) + 0.6 * x

    inc = magnetization_supplement(mesh, big_l_grad, p, mask)
    assert np.all(inc.g0[~mask] == 0.0)
    for _ in range(5):
        theta = random_theta(len(sm.nodes))
        a = inc.pairing(theta)
        b = direct_magnetization_pairing(mesh, big_l, big_l_grad, p, mask,
                                         theta)
        assert abs(a - b) <= 1e-8 * (abs(a) + 1e-12)

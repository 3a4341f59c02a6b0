"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 1 runs the moving-interface benchmark at nx = nt = 160 and checks
it against the independent reference solver in ``reference_solver.py``,
which solves the stated model (flow velocity V = dphi_t/dt at phi_t^-1(y))
and converges at first order; its limit is 2 J(320) - J(160).

- Initial objective: the reference J0 is 5.4284e-4.  The FEM gives
  J(160) = 5.4184e-4 (within 5%) and a Richardson limit of 5.4277e-4
  (within 0.5%; the physical-point convention's J0 is 4.5% lower, so this
  clause tells the two apart), and its refinement gaps shrink toward J0.
- Optimum: the reference minimum over the two interfaces is 4.8035e-4 near
  (0.335, 0.726).  The descent's J_final = 4.6935e-4 must lie within 10% of
  it; it lies 2.3% below, because late in the descent the discrete J falls
  by compressing elements.  Its final design (0.317, 0.738), re-meshed
  uniformly at 160^2, gives 4.8168e-4, which must lie within 1%.
- The accepted objectives decrease strictly and the descent takes under
  10 minutes.
- The published endpoints 5.091e-4 and 4.231e-4 follow the convention that
  takes dphi_t/dt at the physical point (V = x^2 instead of xi^2).  They
  must lie within 5% and 10% of the reference run with that convention:
  its J0 is 5.1847e-4 (1.8% off) and its optimum 4.2458e-4 near
  (0.324, 0.735) (0.35% off).
"""

import time

import numpy as np

from helpers import (gauss_rule, identity_problem, moving_interface_problem,
                     nonlinear_problem, objective_u, observed_orders,
                     periodic_pairs, theta_bump)
from reference_solver import reference_limit, reference_optimum
import test_kernels as kernel_checks
from test_derivative import periodic_wobble_motion
from test_fem import manufactured_linear_case, errors_against
from stshapeopt import (AnalyticSource, CallableSource, ConstantReluctivity,
                        DescentConfig, Identity, PhaseLayout, PhaseMaterial,
                        Polynomial1D, ReluctivityCurve, arkkio_q,
                        academic_surface_derivative,
                        academic_volume_derivative, evaluate_objective,
                        generate_mesh, magnetization_supplement, optimize,
                        pde_surface_derivative, pde_volume_densities,
                        solve_adjoint, solve_state, volume_form_pairing)
from stshapeopt.derivative import fd_objective_derivative
from stshapeopt.fem import NQ, DofMap, Field, element_geometry
from helpers import direct_magnetization_pairing

PAPER_J_INITIAL = 5.091e-4
PAPER_J_FINAL = 4.231e-4

RNG = np.random.default_rng(97)


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail}")
    return ok


def test_criterion_1_benchmark_reproduction():
    clauses = []
    ref_j0 = reference_limit(velocity="flow")
    ref_opt, ref_design = reference_optimum("flow")

    values = {}
    for n in (40, 80, 160):
        mesh, layout, source, objective = moving_interface_problem(n)
        state = solve_state(mesh, layout, source)
        values[n] = evaluate_objective(mesh, state.u, objective)

    rel_initial = abs(values[160] - ref_j0) / ref_j0
    clauses.append((f"initial J within 5% of the reference J0 {ref_j0:.4e} "
                    f"at nx=nt=160", rel_initial <= 0.05,
                    f"J(160)={values[160]:.6e}, deviation {rel_initial:.2%}"))

    order = np.log2((values[80] - values[40]) / (values[160] - values[80]))
    extrapolated = values[160] + (values[160] - values[80]) \
        / (2.0 ** order - 1.0)
    rel_limit = abs(extrapolated - ref_j0) / ref_j0
    clauses.append(("FEM Richardson limit within 0.5% of the reference J0",
                    rel_limit <= 0.005,
                    f"limit {extrapolated:.6e} at observed order "
                    f"{order:.2f}, deviation {rel_limit:.3%}"))

    gaps = [abs(values[n] - ref_j0) for n in (40, 80, 160)]
    toward = gaps[2] < gaps[1] < gaps[0]
    clauses.append(("refinement study converges toward the reference J0",
                    toward, f"|J(n)-J0| = {gaps[0]:.2e}, {gaps[1]:.2e}, "
                            f"{gaps[2]:.2e}"))

    mesh, layout, source, objective = moving_interface_problem(160)
    config = DescentConfig(alpha=0.5, beta=0.0, tau_init=2000.0,
                           theta_tol=1e-9, max_outer=300)
    t0 = time.time()
    outcome = optimize(mesh, layout, source, objective, config)
    elapsed = time.time() - t0

    objectives = [r.objective for r in outcome.records]
    strictly_decreasing = all(b < a for a, b in zip(objectives[:-1],
                                                    objectives[1:]))
    clauses.append(("accepted objective sequence strictly decreasing",
                    strictly_decreasing,
                    f"{len(outcome.records)} records, "
                    f"termination {outcome.termination}"))

    rel_final = abs(outcome.objective_value - ref_opt) / ref_opt
    clauses.append((f"final J within 10% of the reference optimum "
                    f"{ref_opt:.4e} at ({ref_design[0]:.3f}, "
                    f"{ref_design[1]:.3f})", rel_final <= 0.10,
                    f"J_final={outcome.objective_value:.6e}, "
                    f"deviation {rel_final:.2%}"))

    spatial = outcome.mesh.spatial_mesh()
    design = tuple(spatial.nodes[spatial.interface_nodes()])
    remeshed = generate_mesh(160, 160, design, mesh.motion)
    j_remeshed = evaluate_objective(
        remeshed, solve_state(remeshed, layout, source).u, objective)
    rel_remeshed = abs(j_remeshed - ref_opt) / ref_opt
    clauses.append(("final design re-meshed at nx=nt=160 within 1% of the "
                    "reference optimum", rel_remeshed <= 0.01,
                    f"design ({design[0]:.3f}, {design[1]:.3f}), "
                    f"J={j_remeshed:.6e}, deviation {rel_remeshed:.2%}"))

    clauses.append(("run completes in under 10 minutes", elapsed < 600.0,
                    f"{elapsed:.1f} s"))

    # The published endpoints follow the physical-point velocity convention.
    phys_j0 = reference_limit(velocity="physical")
    phys_opt, phys_design = reference_optimum("physical")
    rel_paper_initial = abs(PAPER_J_INITIAL - phys_j0) / PAPER_J_INITIAL
    clauses.append(("published initial J 5.091e-4 within 5% of the "
                    "physical-point reference J0", rel_paper_initial <= 0.05,
                    f"J0={phys_j0:.6e}, deviation {rel_paper_initial:.2%}"))
    rel_paper_final = abs(PAPER_J_FINAL - phys_opt) / PAPER_J_FINAL
    clauses.append(("published final J 4.231e-4 within 10% of the "
                    "physical-point reference optimum",
                    rel_paper_final <= 0.10,
                    f"J_min={phys_opt:.6e} at ({phys_design[0]:.3f}, "
                    f"{phys_design[1]:.3f}), deviation {rel_paper_final:.2%}"))

    ok = all(c[1] for c in clauses)
    detail = "; ".join(f"{name}: {'ok' if good else 'FAILED'} ({info})"
                       for name, good, info in clauses)
    report(1, ok, detail)
    assert ok, ("moving-interface benchmark not reproduced (README, "
                "'Install and test', says what criterion 1 checks): "
                + detail)


def test_criterion_2_gradient_correctness():
    summaries = []
    ok = True
    for name, builder in (("moving-linear", moving_interface_problem),
                          ("curve-law", nonlinear_problem),
                          ("static-control", identity_problem)):
        mesh, layout, source, objective = builder(96)
        state = solve_state(mesh, layout, source)
        adjoint = solve_adjoint(state, objective)
        sm = mesh.spatial_mesh()
        theta = theta_bump(sm)
        value = volume_form_pairing(state, adjoint, objective, theta)
        # Without motion the discrete derivative has no O(h) defect, so a
        # central difference converges at second order there.  A one-sided
        # order tends to exactly 1, where roundoff would decide the clause.
        # The moving cases' central differences level off at about 1e-3,
        # so they keep the one-sided first-order clause.
        central = name == "static-control"
        errors = []
        for eps in (1e-2, 1e-3, 1e-4, 1e-5):
            fd = fd_objective_derivative(state, objective, theta, eps)
            if central:
                fd = (fd + fd_objective_derivative(state, objective, theta,
                                                   -eps)) / 2.0
            errors.append(abs(fd - value) / abs(value))
        orders = [np.log10(errors[k] / errors[k + 1]) for k in range(3)]
        good = max(orders) >= (1.9 if central else 1.0) \
            and min(errors) <= 1e-3
        ok = ok and good
        summaries.append(f"{name}: order {max(orders):.2f}, "
                         f"best rel {min(errors):.1e}")
    assert report(2, ok, "; ".join(summaries))


def test_criterion_3_form_equivalence():
    motion = Polynomial1D()
    f = AnalyticSource("x*(1+0.3*t)", motion)
    mesh = generate_mesh(64, 64, (0.4, 0.6), motion)
    theta = theta_bump(mesh.spatial_mesh())
    vol = academic_volume_derivative(mesh, f, theta)
    surf = academic_surface_derivative(
        mesh, f, theta, t_nodes=np.linspace(0.0, 1.0, 256))
    academic_rel = abs(vol - surf) / abs(surf)

    pde_rel = 0.0
    for motion_builder in (lambda: Identity(dim=1), periodic_wobble_motion):
        motion = motion_builder()
        mesh = generate_mesh(160, 160, (0.4, 0.6), motion)
        layout = PhaseLayout({
            1: PhaseMaterial(2.0, ConstantReluctivity(1.0)),
            2: PhaseMaterial(0.5, ConstantReluctivity(3.0))})
        source = AnalyticSource("sin(pi*x)*(1+sin(2*pi*t))*(1+0.5*x)", motion)
        objective = objective_u()
        state = solve_state(mesh, layout, source)
        adjoint = solve_adjoint(state, objective)
        sm = mesh.spatial_mesh()
        iface = pde_surface_derivative(state, adjoint)
        dens = pde_volume_densities(state, adjoint, objective)
        for node in iface.node_ids:
            hat = np.zeros(len(sm.nodes))
            hat[node] = 1.0
            pde_rel = max(pde_rel, abs(dens.pairing(hat) - iface.pairing(hat))
                          / abs(dens.pairing(hat)))

    ok = academic_rel <= 1e-2 and pde_rel <= 2e-2
    assert report(3, ok, f"academic volume/surface rel {academic_rel:.2e} "
                         f"(<= 1%), time-periodic linear volume/surface rel "
                         f"{pde_rel:.2e} (<= 2%)")


def test_criterion_4_kernel_correctness():
    worst_order = np.inf
    worst_first = 0.0
    for motion, theta_fn, t, x in kernel_checks.cases():
        for which in ("m", "Fxx", "Fxt", "A", "f", "w"):
            exact = kernel_checks.kernel_values(motion, t, x, theta_fn)[which]
            errors = []
            for eps in (1e-3, 1e-4, 1e-5):
                fd = kernel_checks.kernel_fd(
                    motion, t, x, theta_fn, eps, which,
                    f_value=kernel_checks.f_scalar,
                    w_value=kernel_checks.w_vector)
                errors.append(np.max(np.abs(fd - exact))
                              / (np.max(np.abs(exact)) + 1e-14))
            worst_first = max(worst_first, errors[0])
            if errors[0] > 1e-12:
                worst_order = min(worst_order,
                                  np.log10(errors[0] / max(errors[1], 1e-16)))
    # Remark-style rotation closed forms agree with the generic path
    kernel_checks.test_rotation_closed_forms_match_generic_path()
    ok = worst_order >= 1.0 and worst_first < 1e-4
    assert report(4, ok, f"all kernels x all motions: first-rung rel error "
                         f"<= {worst_first:.1e}, weakest observed order "
                         f"{worst_order:.2f}; rotation closed forms match "
                         f"generic path to 1e-12")


def test_criterion_5_solver_verification():
    summaries = []
    ok = True
    for label, sigma_layout in (("parabolic", (1.0, 1.0)),
                                ("mixed-type", (1.0, 0.0))):
        u_star, source, layout = manufactured_linear_case(sigma_layout)

        def du_star(t, x):
            return (2 * np.pi * np.cos(2 * np.pi * t) * np.sin(np.pi * x),
                    np.pi * np.sin(2 * np.pi * t) * np.cos(np.pi * x))

        errs_l2, errs_h1 = [], []
        for n in (8, 16, 32):
            mesh = generate_mesh(n, n, (0.5,), Identity(dim=1))
            u = solve_state(mesh, layout, source).u
            e2, e1 = errors_against(mesh, u, u_star, du_star)
            errs_l2.append(e2)
            errs_h1.append(e1)
        l2 = observed_orders(errs_l2)
        h1 = observed_orders(errs_h1)
        good = np.all(l2 > 1.7) and np.all(l2 < 2.4) and np.all(h1 > 0.85)
        ok = ok and good
        summaries.append(f"{label}: L2 orders {np.round(l2, 2)}, "
                         f"H1 orders {np.round(h1, 2)}")

    curve = ReluctivityCurve(nu_a=2.0, c1=1.0, c2=0.5, c3=2.0)
    mat = PhaseMaterial(1.0, curve)
    layout = PhaseLayout({1: mat, 2: mat})

    def f(t, x, xi):
        ux = np.pi * np.sin(2 * np.pi * t) * np.cos(np.pi * x)
        uxx = -np.pi ** 2 * np.sin(2 * np.pi * t) * np.sin(np.pi * x)
        ut = 2 * np.pi * np.cos(2 * np.pi * t) * np.sin(np.pi * x)
        nu, nu_prime = curve.eval(np.abs(ux))
        return ut - (nu + nu_prime * np.abs(ux)) * uxx

    mesh = generate_mesh(32, 32, (0.5,), Identity(dim=1))
    result = solve_state(mesh, layout,
                         CallableSource(f, lambda t, x, xi: 0.0 * x))
    norms = np.array(result.residual_norms) / result.residual_norms[0]
    window = norms[(norms < 1e-1) & (norms > 1e-13)]
    contraction = window[1:] / window[:-1] ** 2
    quad = len(window) >= 2 and np.all(contraction < 50.0)
    ok = ok and quad
    summaries.append(f"Newton contraction ratios |r+|/|r|^2: "
                     f"{np.format_float_scientific(np.max(contraction), 2)}"
                     f" (bounded)")
    assert report(5, ok, "; ".join(summaries))


def test_criterion_6_structural_identities():
    # transport identity for analytic fields under the benchmark motion
    sigma_1 = 10.0

    def u_fn(t, x):
        return np.sin(x + 0.7 * t)

    def p_fn(t, x):
        return np.cos(0.5 * x - 1.3 * t)

    def weighted_integral(t):
        xi, w = gauss_rule(0.4, 0.6, 30)
        g = 1.0 + 2.0 * t * xi
        x = xi + t * xi ** 2
        return sigma_1 * np.sum(w * g * u_fn(t, x) * p_fn(t, x))

    def rhs(t):
        xi, w = gauss_rule(0.4, 0.6, 30)
        g = 1.0 + 2.0 * t * xi
        x = xi + t * xi ** 2
        du = 0.7 * np.cos(x + 0.7 * t) + xi ** 2 * np.cos(x + 0.7 * t)
        dp = 1.3 * np.sin(0.5 * x - 1.3 * t) \
            - xi ** 2 * 0.5 * np.sin(0.5 * x - 1.3 * t)
        div_v = 2.0 * xi / g
        return sigma_1 * np.sum(w * g * (du * p_fn(t, x) + u_fn(t, x) * dp
                                         + div_v * u_fn(t, x) * p_fn(t, x)))

    defects = []
    for delta in (2e-2, 1e-2, 5e-3):
        lhs = (weighted_integral(0.45 + delta)
               - weighted_integral(0.45 - delta)) / (2.0 * delta)
        defects.append(abs(lhs - rhs(0.45)))
    reynolds_orders = observed_orders(defects)
    reynolds_ok = np.all(reynolds_orders > 1.9)

    # discrete integration by parts for periodic fields, exact quadrature
    mesh = generate_mesh(8, 6, (0.4, 0.6), Identity(dim=1))
    layout = PhaseLayout({1: PhaseMaterial(2.0, ConstantReluctivity(1.0)),
                          2: PhaseMaterial(0.5, ConstantReluctivity(1.0))})
    dofmap = DofMap.from_mesh(mesh)
    geom = element_geometry(mesh, layout)
    ibp_worst = 0.0
    for _ in range(5):
        u = Field(dofmap, RNG.normal(size=dofmap.n_free)).nodal()
        p = Field(dofmap, RNG.normal(size=dofmap.n_free)).nodal()
        ue, pe = u[mesh.elements], p[mesh.elements]
        u_t = np.sum(ue * geom.grad_t, axis=1)
        p_t = np.sum(pe * geom.grad_t, axis=1)
        a_term = np.sum(geom.sigma * u_t * (geom.area / 3.0)
                        * np.sum(pe @ NQ.T, axis=1))
        b_term = np.sum(geom.sigma * p_t * (geom.area / 3.0)
                        * np.sum(ue @ NQ.T, axis=1))
        ibp_worst = max(ibp_worst, abs(a_term + b_term)
                        / (abs(a_term) + abs(b_term) + 1.0))
    ibp_ok = ibp_worst <= 1e-10

    # periodic identification invariants
    motion = Polynomial1D()
    mesh = generate_mesh(24, 24, (0.4, 0.6), motion)
    b, tops = periodic_pairs(mesh).T
    moved = motion.forward(np.ones(len(b)), mesh.vertices[b, 1][:, None])[:, 0]
    pairing_ok = np.max(np.abs(mesh.vertices[tops, 1] - moved)) < 1e-12
    layout = PhaseLayout({1: PhaseMaterial(10.0, ConstantReluctivity(1.0)),
                          2: PhaseMaterial(0.0, ConstantReluctivity(10.0))})
    src = AnalyticSource("(xref-0.4)*(xref-0.6)*sqrt(x)*(1+t-x)", motion)
    nodal = solve_state(mesh, layout, src).u.nodal()
    pairing_ok = pairing_ok and np.all(nodal[b] == nodal[tops])

    ok = reynolds_ok and ibp_ok and pairing_ok
    assert report(
        6, ok,
        f"transport-identity defect orders {np.round(reynolds_orders, 2)} "
        f"(>= 2); discrete integration-by-parts defect {ibp_worst:.1e} "
        f"(<= 1e-10); generalized periodic pairing exact on vertices and "
        f"solution values")


def test_criterion_7_materials_suite():
    nu_a = 1e7 / (4.0 * np.pi)
    curve = ReluctivityCurve(nu_a=nu_a, c1=200.0, c2=0.001, c3=6.0)
    s = RNG.uniform(0.0, 1e5, 20000).reshape(2, 10000)
    nu1, _ = curve.eval(s[0])
    nu2, _ = curve.eval(s[1])
    d_flux = nu1 * s[0] - nu2 * s[1]
    d_s = s[0] - s[1]
    monotone = np.all(d_flux * d_s >= 0.0)
    lipschitz = np.all(np.abs(d_flux) <= curve.lipschitz_bound
                       * np.abs(d_s) * (1.0 + 1e-12))

    grid = np.concatenate([[0.0], np.logspace(-8, 5, 9999)])
    nu, nu_prime = curve.eval(grid)
    slope_bound = np.all(grid * nu_prime + nu >= curve.nu_lower - 1e-9)

    n = 10000
    ss = RNG.uniform(0.0, 20.0, n)
    phi = RNG.uniform(0.0, 2.0 * np.pi, n)
    xi = np.column_stack([np.cos(phi), np.sin(phi)])
    psi = RNG.uniform(0.0, 2.0 * np.pi, n)
    g = ss[:, None] * np.column_stack([np.cos(psi), np.sin(psi)])
    nu_s, _ = curve.eval(ss)
    ratio = curve.prime_over_s(ss)
    elliptic = np.all(nu_s + ratio * np.sum(g * xi, axis=1) ** 2
                      >= curve.nu_lower - 1e-12)

    pts = RNG.normal(size=(1000, 2))
    pts = pts[np.hypot(pts[:, 0], pts[:, 1]) > 1e-3]
    q_ok = True
    for x in pts:
        q = arkkio_q(x)
        r = np.hypot(x[0], x[1])
        q_ok = q_ok and np.allclose(q, q.T) and abs(np.trace(q)) < 1e-12 \
            and abs(np.linalg.norm(q) - r / np.sqrt(2.0)) < 1e-12 * r

    ok = monotone and lipschitz and slope_bound and elliptic and q_ok
    assert report(
        7, ok,
        f"flux map monotone and Lipschitz (sharp constant "
        f"{curve.lipschitz_bound:.3e} = nu_a + (nu_a-c1) c3 e^-(1+1/c3); "
        f"nu_a alone is not a valid constant) on 1e4 pairs; s nu'+nu >= "
        f"nu_lower on 1e4 grid; linearized tensor elliptic on 1e4 samples; "
        f"torque weight identities on 1e3 points")


def test_criterion_8_motor_scale_exclusion():
    # The full rotating-machine optimization (320k-vertex space-time meshes,
    # parallel direct solvers, torque 522.94 -> 587.79 N m) is out of desk
    # scale and excluded; its formula-level ingredients are covered here.
    nu_a = 1e7 / (4.0 * np.pi)
    curve = ReluctivityCurve(nu_a=nu_a, c1=200.0, c2=0.001, c3=6.0)
    nu0, nup0 = curve.eval(0.0)
    curve_ok = nu0 == 200.0 and nup0 == 0.0

    q = arkkio_q((0.3, -1.2))
    q_ok = abs(np.trace(q)) < 1e-14 and np.allclose(q, q.T)

    mesh, layout, source, objective = moving_interface_problem(12, 10)
    state = solve_state(mesh, layout, source)
    adjoint = solve_adjoint(state, objective)
    sm = mesh.spatial_mesh()
    mask = sm.phases == 1

    def big_l(t, x):
        return np.sin(2.0 * x + 0.5 * t) + 0.3 * x * x

    def big_l_grad(t, x):
        return 2.0 * np.cos(2.0 * x + 0.5 * t) + 0.6 * x

    inc = magnetization_supplement(mesh, big_l_grad, adjoint, mask)
    worst = 0.0
    for _ in range(5):
        theta = RNG.normal(size=len(sm.nodes))
        theta[0] = theta[-1] = 0.0
        a = inc.pairing(theta)
        b = direct_magnetization_pairing(mesh, big_l, big_l_grad, adjoint,
                                         mask, theta)
        worst = max(worst, abs(a - b) / (abs(a) + 1e-12))
    supplement_ok = worst <= 1e-8

    ok = curve_ok and q_ok and supplement_ok
    assert report(
        8, ok,
        f"full motor case excluded at desk scale (not reproducible here); "
        f"formula-level ingredients verified: saturation curve at the "
        f"published parameters, torque-weight identities, magnetization "
        f"supplement vs direct quadrature (worst rel {worst:.1e} <= 1e-8)")

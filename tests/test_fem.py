import sys
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from helpers import (J0_LIMIT, coo_jacobian, direct_element_pairing,
                     gauss_rule, identity_problem, moving_interface_problem,
                     nonlinear_problem, objective_u, observed_orders,
                     periodic_pairs, same_csc, theta_bump)
from stshapeopt import (CallableSource, ConstantReluctivity, Identity,
                        Objective, PhaseLayout, PhaseMaterial, Polynomial1D,
                        ReluctivityCurve, assemble_state_jacobian,
                        assemble_state_residual, deform_mesh,
                        evaluate_objective, generate_mesh, solve_adjoint,
                        solve_state, solve_tangent)
from stshapeopt import fem
from stshapeopt.derivative import tangent_rhs, volume_form_pairing
from stshapeopt.errors import (AssemblyError, GeometryError,
                               NonconvergenceError, SolverError)
from stshapeopt.fem import (LU_PANEL_SIZE, LU_RELAX, NQ, DofMap, Field,
                            LinearSystem, NewtonOptions,
                            _residual_local, element_geometry,
                            objective_gradient_vector)
from stshapeopt.mesh import mesh_geometry

RNG = np.random.default_rng(23)


def uniform_layout(sigma=1.0, nu=1.0):
    mat = PhaseMaterial(sigma, ConstantReluctivity(nu))
    return PhaseLayout({1: mat, 2: mat})


def zero_source():
    return CallableSource(lambda t, x, xi: np.zeros_like(x),
                          lambda t, x, xi: np.zeros_like(x))


# ---------------------------------------------------------------------------
# assembly building blocks


def test_zero_state_zero_source_has_zero_residual():
    mesh, layout, _, _ = moving_interface_problem(8)
    u = Field.zeros(DofMap.from_mesh(mesh))
    res = assemble_state_residual(mesh, layout, u, zero_source())
    assert np.all(res == 0.0)


def test_single_triangle_stiffness_matches_hand_integration():
    mesh = generate_mesh(4, 2, (0.4, 0.6), Identity(dim=1))
    geom = element_geometry(mesh, uniform_layout(sigma=0.0, nu=1.0))
    # element 0 spans (0,0), (dt,dx), (0,dx): hand P1 gradients give the
    # x-stiffness (dt / (2 dx)) [[1,0,-1],[0,0,0],[-1,0,1]]
    dt, dx = 0.5, 0.25
    k_elem = geom.area[0] * np.outer(geom.grad_x[0], geom.grad_x[0])
    expected = dt / (2.0 * dx) * np.array([[1.0, 0.0, -1.0],
                                           [0.0, 0.0, 0.0],
                                           [-1.0, 0.0, 1.0]])
    assert np.allclose(k_elem, expected, atol=1e-14)


def test_sigma_block_on_time_affine_field_is_mass_times_slope():
    mesh = generate_mesh(6, 4, (0.4, 0.6), Identity(dim=1))
    layout = uniform_layout(sigma=3.0, nu=1.0)
    geom = element_geometry(mesh, layout)
    slope = 1.7
    u_nodal = slope * mesh.vertices[:, 0]
    local = _residual_local(mesh, geom, u_nodal)
    expected = 3.0 * slope * np.repeat(geom.area[:, None] / 3.0, 3, axis=1)
    assert np.allclose(local, expected, atol=1e-14)


def test_linear_matrix_action_equals_residual():
    mesh, layout, source, _ = moving_interface_problem(10)
    dofmap = DofMap.from_mesh(mesh)
    u = Field(dofmap, RNG.normal(size=dofmap.n_free))
    matrix = assemble_state_jacobian(mesh, layout, u)
    residual = assemble_state_residual(mesh, layout, u, source)
    load = residual - (matrix @ u.values - matrix @ np.zeros(dofmap.n_free))
    residual_zero = assemble_state_residual(
        mesh, layout, Field.zeros(dofmap), source)
    assert np.allclose(load, residual_zero, atol=1e-13)
    assert np.allclose(matrix @ u.values,
                       residual - residual_zero, atol=1e-12)


def test_jacobian_matches_residual_probes_for_curve_law():
    mesh, layout, source, _ = nonlinear_problem(6)
    dofmap = DofMap.from_mesh(mesh)
    u = Field(dofmap, 1e-3 * RNG.normal(size=dofmap.n_free))
    matrix = assemble_state_jacobian(mesh, layout, u).toarray()
    eps = 1e-6
    for j in RNG.choice(dofmap.n_free, size=6, replace=False):
        up = Field(dofmap, u.values.copy())
        dn = Field(dofmap, u.values.copy())
        up.values[j] += eps
        dn.values[j] -= eps
        fd = (assemble_state_residual(mesh, layout, up, source)
              - assemble_state_residual(mesh, layout, dn, source)) / (2 * eps)
        scale = np.max(np.abs(fd)) + 1e-12
        assert np.max(np.abs(matrix[:, j] - fd)) / scale < 1e-5


def small_state(mesh):
    dofmap = DofMap.from_mesh(mesh)
    return Field(dofmap, 1e-3 * RNG.normal(size=dofmap.n_free))


@pytest.mark.parametrize("problem, size", [
    (moving_interface_problem, (16, 12)), (nonlinear_problem, (16, 12)),
    (identity_problem, (16, 12)), (nonlinear_problem, (80,))],
    ids=["linear", "curve_law", "identity", "curve_law_80"])
def test_jacobian_equals_coo_assembly_bit_for_bit(problem, size):
    mesh, layout, _, _ = problem(*size)
    # np.add.reduceat and numpy's pairwise sums add 8-term runs as a tree,
    # not left to right; on these meshes stored entries sum up to 8 blocks
    dofs = DofMap.from_mesh(mesh).vertex_dof[mesh.elements]
    rows, cols = np.repeat(dofs, 3, axis=1), np.tile(dofs, 3)
    _, terms = np.unique((rows * mesh.n_vertices + cols)[(rows >= 0)
                                                         & (cols >= 0)],
                         return_counts=True)
    assert terms.max() == 8
    deformed = deform_mesh(mesh, theta_bump(mesh.spatial_mesh()), 0.03)
    for m in (mesh, deformed):
        matrix, oracle = coo_jacobian(m, layout, small_state(m))
        assert same_csc(matrix, oracle)


@pytest.mark.parametrize("problem", [moving_interface_problem,
                                     nonlinear_problem],
                         ids=["linear", "curve_law"])
def test_jacobian_stores_no_exact_zeros(problem):
    # sigma = 0 elements couple only within a time level; storing their
    # zero cross-level entries made SuperLU order and fill them
    mesh, layout, _, _ = problem(24, 16)
    deformed = deform_mesh(mesh, theta_bump(mesh.spatial_mesh()), 0.03)
    for m in (mesh, deformed):
        matrix = assemble_state_jacobian(m, layout, small_state(m))
        assert np.count_nonzero(matrix.data) == matrix.nnz


def test_per_element_arrays_are_vertex_major():
    # each (n_e, 3) or (n_e, 3, 3) array is the transpose of a C-contiguous
    # one whose last axis is the element, so numpy loops over the elements
    mesh, layout, _, _ = moving_interface_problem(12, 8)
    deformed = deform_mesh(mesh, theta_bump(mesh.spatial_mesh()), 0.03)
    for m in (mesh, deformed):
        base = [a for a in vars(mesh_geometry(m)).values() if a.ndim == 2]
        assert len(base) == 6
        geom = element_geometry(m, layout)
        for a in [m.elements, *base, geom.conv, geom.sigma_block,
                  geom.coupled]:
            assert a.shape[0] == m.n_elements
            assert a.flags.f_contiguous and not a.flags.c_contiguous


def test_jacobian_pattern_follows_the_connectivity():
    # A pattern kept from the previous mesh would not even fit the next.
    for n in (48, 24, 48):
        mesh, layout, _, _ = nonlinear_problem(n)
        matrix, oracle = coo_jacobian(mesh, layout, small_state(mesh))
        assert same_csc(matrix, oracle)


def test_assembly_reports_offending_element():
    mesh, layout, _, _ = moving_interface_problem(6)
    u = Field.zeros(DofMap.from_mesh(mesh))
    bad = CallableSource(lambda t, x, xi: np.full_like(x, np.nan),
                         lambda t, x, xi: np.zeros_like(x))
    with pytest.raises(AssemblyError, match="element"):
        assemble_state_residual(mesh, layout, u, bad)


def test_non_finite_residual_names_its_element():
    # nu = 1e300 is a valid law, but nu |u_x| overflows next to one vertex
    mesh, _, _, _ = moving_interface_problem(6)
    dofmap = DofMap.from_mesh(mesh)
    u = Field.zeros(dofmap)
    dof = dofmap.n_free // 2
    u.values[dof] = 1e10
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            AssemblyError, match="non-finite residual contribution in "
            r"element \d+$") as info:
        assemble_state_residual(mesh, uniform_layout(nu=1e300), u,
                                zero_source())
    bad = int(str(info.value).split()[-1])
    assert np.any(dofmap.vertex_dof[mesh.elements[bad]] == dof)


# ---------------------------------------------------------------------------
# state solves


def test_constant_reluctivity_converges_in_one_newton_step():
    mesh, layout, source, _ = moving_interface_problem(16)
    result = solve_state(mesh, layout, source)
    assert result.iterations == 1


def test_zero_source_terminates_immediately():
    mesh, layout, _, _ = moving_interface_problem(8)
    result = solve_state(mesh, layout, zero_source())
    assert result.iterations == 0
    assert np.all(result.u.values == 0.0)


def test_field_respects_periodic_and_dirichlet_invariants():
    mesh, layout, source, _ = moving_interface_problem(12)
    u = solve_state(mesh, layout, source).u
    nodal = u.nodal()
    assert np.all(nodal[mesh.lateral_vertex_mask()] == 0.0)
    b, t = periodic_pairs(mesh).T
    assert np.all(nodal[b] == nodal[t])


def test_newton_failure_raises_with_residual(monkeypatch):
    mesh, layout, source, _ = nonlinear_problem(8)
    monkeypatch.setattr(fem, "NewtonOptions",
                        lambda: NewtonOptions(tol=1e-14, max_iter=1))
    with pytest.raises(NonconvergenceError):
        solve_state(mesh, layout, source)


def test_newton_damping_underflow_raises(monkeypatch):
    # a negated Jacobian makes every Newton step an ascent direction
    mesh, layout, source, _ = nonlinear_problem(8)
    real_jacobian = fem._jacobian_matrix
    monkeypatch.setattr(fem, "_jacobian_matrix",
                        lambda *args: -real_jacobian(*args))
    with pytest.raises(NonconvergenceError, match="damping underflow") \
            as info:
        solve_state(mesh, layout, source)
    assert info.value.residual > 0.0


@pytest.mark.parametrize("size", [6, 10])
def test_initial_guess_from_another_mesh_is_rejected(size):
    mesh, layout, source, _ = moving_interface_problem(8)
    other = solve_state(*moving_interface_problem(size)[:3]).u
    n_free = DofMap.from_mesh(mesh).n_free
    with pytest.raises(GeometryError, match=rf"\({other.values.size},\)"
                       rf".*\({n_free},\)"):
        solve_state(mesh, layout, source, initial_guess=other)


# ---------------------------------------------------------------------------
# direct solves


def test_singular_matrix_is_a_factorization_failure():
    with pytest.raises(SolverError, match="factorization failed: "):
        LinearSystem(sp.csc_matrix((3, 3)))


@pytest.mark.parametrize("spoiled", [1, 2])
def test_refinement_rescues_a_perturbed_solve(monkeypatch, spoiled):
    # the first `spoiled` LU solves are off by 1e-3 relative; each
    # refinement step removes that factor once
    matrix = sp.csc_matrix(np.array([[4.0, 1.0, 0.0],
                                     [1.0, 3.0, 1.0],
                                     [0.0, 2.0, 5.0]]))
    system = LinearSystem(matrix)
    b = np.array([1.0, 2.0, 3.0])
    real_lu_solve = LinearSystem._lu_solve
    calls = []

    def perturbed(self, rhs, transpose):
        calls.append(1)
        x = real_lu_solve(self, rhs, transpose)
        return x * 1.001 if len(calls) <= spoiled else x

    monkeypatch.setattr(LinearSystem, "_lu_solve", perturbed)
    x = system.solve(b)
    assert len(calls) == spoiled + 1
    assert fem._backward_stable(matrix, x, b)


@pytest.mark.parametrize("method", ["solve", "solve_transpose"])
def test_linear_system_rejects_non_finite_right_hand_side(method):
    matrix = sp.csc_matrix(np.array([[4.0, 1.0, 0.0],
                                     [1.0, 3.0, 1.0],
                                     [0.0, 2.0, 5.0]]))
    system = LinearSystem(matrix)
    with pytest.raises(SolverError, match="residual contract"):
        getattr(system, method)(np.array([1.0, np.nan, 0.0]))


@pytest.mark.parametrize("method", ["solve", "solve_transpose"])
def test_linear_system_contract_is_scale_free(method):
    # cond(H_8) = 1.5e10, so x = H^-1 b is large and b - H x is far above
    # 1e-12 |b| although the backward error is at roundoff; the verdict
    # must not depend on the size of b
    system = LinearSystem(sp.csc_matrix(scipy.linalg.hilbert(8)))
    solve = getattr(system, method)
    b = np.ones(8)
    x = solve(b)
    # a power of two scales every rounding alike: same steps, same bits
    assert np.array_equal(solve(2.0 ** -20 * b), 2.0 ** -20 * x)
    assert np.allclose(solve(1e-6 * b), 1e-6 * x, rtol=1e-10, atol=0.0)


def test_linear_system_reuses_its_ordering_for_csr_input():
    # The ordering is kept per CSC pattern, so other formats must be
    # converted before it is looked up.
    mesh, layout, _, _ = moving_interface_problem(12)
    matrix = assemble_state_jacobian(mesh, layout,
                                     Field.zeros(DofMap.from_mesh(mesh)))
    b = RNG.standard_normal(matrix.shape[0])
    for _ in range(2):
        system = LinearSystem(matrix.tocsr())
        for x, mat in ((system.solve(b), matrix),
                       (system.solve_transpose(b), matrix.T)):
            assert np.linalg.norm(b - mat @ x) <= 1e-12 * np.linalg.norm(b)


def test_cached_column_order_keeps_no_factor_alive():
    # SuperLU's perm_c is a view whose base is the whole factor, so a
    # cache holding it keeps a factor alive (12 MB of peak RSS at 160^2).
    first = sp.csc_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
    second = sp.csc_matrix(np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0],
                                     [0.0, 2.0, 5.0]]))
    for matrix in (first, second, 2.0 * second):
        system = LinearSystem(matrix)
        # held by system and by getrefcount's argument, nothing else
        count = sys.getrefcount(system.lu)
        assert count == 2


def recorded(monkeypatch, owner, name, arg=0):
    """Patch owner.name to record argument `arg` of every call."""
    original = getattr(owner, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args[arg])
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def counted_splu():
    return mock.patch.object(fem.spla, "splu", wraps=spla.splu)


def test_linear_system_takes_over_the_factor_of_an_equal_matrix():
    mesh, layout, _, _ = moving_interface_problem(12)
    matrix = assemble_state_jacobian(mesh, layout,
                                     Field.zeros(DofMap.from_mesh(mesh)))
    first = LinearSystem(matrix)
    thinned = matrix.copy()
    thinned.data[0] = 0.0
    thinned.eliminate_zeros()
    with counted_splu() as splu:
        second = LinearSystem(matrix.copy(), factored=first)
        assert splu.call_count == 0 and second.lu is first.lu
        for other in (2.0 * matrix, thinned):
            system = LinearSystem(other, factored=first)
            assert system.lu is not first.lu
        matrix.data[0] += 1.0
        changed = LinearSystem(matrix, factored=first)
        assert splu.call_count == 3 and changed.lu is not first.lu
    b = RNG.standard_normal(matrix.shape[0])
    assert np.linalg.norm(b - matrix @ changed.solve(b)) \
        <= 1e-12 * np.linalg.norm(b)


def test_linear_adjoint_through_the_hand_off_equals_a_fresh_one(
        monkeypatch):
    mesh, layout, source, objective = moving_interface_problem(12)
    state = solve_state(mesh, layout, source)
    assert state.system is not None
    assembled = recorded(monkeypatch, fem, "_jacobian_matrix")
    with counted_splu() as splu:
        handed = solve_adjoint(state, objective)
        assert splu.call_count == 0 and assembled == []
        assert state.system is None
        # with the factor released, a second call assembles afresh
        fresh = solve_adjoint(state, objective)
        assert splu.call_count == 1 and len(assembled) == 1
    assert np.array_equal(handed.values, fresh.values)


def iterate_field(dofmap, nodal):
    values = np.zeros(dofmap.n_free)
    has = dofmap.vertex_dof >= 0
    values[dofmap.vertex_dof[has]] = nodal[has]
    return Field(dofmap, values)


def test_every_newton_jacobian_equals_a_fresh_assembly(monkeypatch):
    # the cached sigma block must not go stale between Newton steps
    mesh, layout, source, _ = nonlinear_problem(16)
    calls = []
    original = fem._jacobian_matrix

    def spy(mesh_, geom, dofmap, u_nodal):
        matrix = original(mesh_, geom, dofmap, u_nodal)
        calls.append((iterate_field(dofmap, u_nodal), matrix.copy()))
        return matrix

    monkeypatch.setattr(fem, "_jacobian_matrix", spy)
    result = solve_state(mesh, layout, source)
    monkeypatch.undo()
    assert result.iterations > 2 and len(calls) == result.iterations
    for u, matrix in calls:
        assert same_csc(matrix, assemble_state_jacobian(mesh, layout, u))


def test_sigma_block_is_built_once_per_element_geometry(monkeypatch):
    mesh, layout, source, _ = nonlinear_problem(16)
    block = vars(fem.ElementGeometry)["sigma_block"]
    original = block.func
    built = []
    monkeypatch.setattr(block, "func",
                        lambda geom: built.append(geom) or original(geom))
    geometries = recorded(monkeypatch, fem, "_jacobian_matrix", arg=1)
    result = solve_state(mesh, layout, source)
    assert result.iterations > 2 and len(geometries) == result.iterations
    assert len(built) == 1 and all(g is built[0] for g in geometries)
    assemble_state_jacobian(mesh, layout, result.u)
    assert len(built) == 2 and built[1] is not built[0]


def test_nonlinear_state_hands_over_no_factor():
    mesh, layout, source, _ = nonlinear_problem(8)
    result = solve_state(mesh, layout, source)
    assert result.iterations > 1 and result.system is None


def test_nonlinear_adjoint_reuses_the_state_geometry(monkeypatch):
    mesh, layout, source, objective = nonlinear_problem(12)
    state = solve_state(mesh, layout, source)
    geom = state.geom
    assert state.iterations > 1 and "sigma_block" in vars(geom)
    block = vars(fem.ElementGeometry)["sigma_block"]
    original = block.func
    built = []
    monkeypatch.setattr(block, "func",
                        lambda g: built.append(g) or original(g))
    geometries = recorded(monkeypatch, fem, "element_geometry")
    assembled = recorded(monkeypatch, fem, "_jacobian_matrix", arg=1)
    solve_adjoint(state, objective)
    assert geometries == [] and built == [] and assembled == [geom]
    assert state.geom is None and state.system is None


def test_factorization_uses_fill_reducing_ordering():
    mesh, layout, _, _ = moving_interface_problem(48)
    matrix = assemble_state_jacobian(mesh, layout,
                                     Field.zeros(DofMap.from_mesh(mesh)))
    ours, plain = LinearSystem(matrix).lu, spla.splu(matrix)
    assert ours.L.nnz + ours.U.nnz < plain.L.nnz + plain.U.nnz

    mesh, layout, source, _ = nonlinear_problem(48)
    u = solve_state(mesh, layout, source).u
    matrix = assemble_state_jacobian(mesh, layout, u)
    system = LinearSystem(matrix)
    b = RNG.standard_normal(u.dofmap.n_free)
    for x, mat in ((system.solve(b), matrix),
                   (system.solve_transpose(b), matrix.T)):
        assert np.linalg.norm(b - mat @ x) <= 1e-12 * np.linalg.norm(b)


def refined(lu_solve, matrix, b):
    """LinearSystem's refinement steps around a plain LU solve."""
    x = lu_solve(b)
    for _ in range(2):
        r = b - matrix @ x
        if np.linalg.norm(r) <= 1e-12 * max(np.linalg.norm(b), 1.0):
            break
        x = x + lu_solve(r)
    return x


@pytest.mark.parametrize("problem", [moving_interface_problem,
                                     nonlinear_problem],
                         ids=["linear", "curve_law"])
def test_reused_column_order_factors_like_a_fresh_ordering(problem):
    mesh, layout, source, _ = problem(48)
    u = solve_state(mesh, layout, source).u
    deformed = deform_mesh(mesh, theta_bump(mesh.spatial_mesh()), 0.03)
    LinearSystem(assemble_state_jacobian(mesh, layout, u))
    matrix = assemble_state_jacobian(deformed, layout, u)
    system = LinearSystem(matrix)
    fresh = spla.splu(matrix, permc_spec="MMD_AT_PLUS_A", relax=LU_RELAX,
                      panel_size=LU_PANEL_SIZE)
    assert system.lu.L.nnz + system.lu.U.nnz == fresh.L.nnz + fresh.U.nnz
    b = RNG.standard_normal(u.dofmap.n_free)
    assert np.array_equal(system.solve(b), refined(fresh.solve, matrix, b))
    assert np.array_equal(
        system.solve_transpose(b),
        refined(lambda r: fresh.solve(r, trans="T"), matrix.T, b))


def test_every_factorization_passes_the_supernode_settings(monkeypatch):
    mesh, layout, _, _ = moving_interface_problem(12)
    u = Field.zeros(DofMap.from_mesh(mesh))
    deformed = deform_mesh(mesh, theta_bump(mesh.spatial_mesh()), 0.03)
    monkeypatch.setattr(fem, "_COLUMN_ORDER", [None])
    with counted_splu() as splu:
        for m in (mesh, deformed):
            LinearSystem(assemble_state_jacobian(m, layout, u))
    calls = [call.kwargs for call in splu.call_args_list]
    assert [kw["permc_spec"] for kw in calls] == ["MMD_AT_PLUS_A", "NATURAL"]
    for kw in calls:
        assert kw["relax"] == LU_RELAX and kw["panel_size"] == LU_PANEL_SIZE
    # relaxed supernodes wider than a panel crashed SuperLU (relax=64)
    assert 1 <= LU_RELAX <= LU_PANEL_SIZE


def test_benchmark_objective_value_and_trend():
    values = {}
    for n in (40, 80):
        mesh, layout, source, objective = moving_interface_problem(n)
        result = solve_state(mesh, layout, source)
        values[n] = evaluate_objective(mesh, result.u, objective)
    # frozen regression value for the 40x40 mesh
    assert abs(values[40] - 5.383642264e-4) < 1e-9
    assert abs(values[80] - J0_LIMIT) < abs(values[40] - J0_LIMIT)


def test_non_finite_objective_raises():
    mesh, _, _, _ = moving_interface_problem(10)
    u = Field.zeros(DofMap.from_mesh(mesh))
    # each element's three quadrature values sum to 3e308, which overflows
    huge = Objective(j=lambda u: np.full_like(u, 1e308),
                     jprime=lambda u: np.zeros_like(u))
    with pytest.raises(AssemblyError, match="non-finite objective"):
        evaluate_objective(mesh, u, huge)


def test_objective_of_unit_field_is_spacetime_volume():
    mesh, _, _, objective = moving_interface_problem(10)

    class Ones:
        def nodal(self):
            return np.ones(mesh.n_vertices)

    assert abs(evaluate_objective(mesh, Ones(), objective) - 1.5) < 1e-13


# ---------------------------------------------------------------------------
# manufactured-solution convergence


def manufactured_linear_case(sigma_layout):
    def u_star(t, x):
        return np.sin(2 * np.pi * t) * np.sin(np.pi * x)

    def f(t, x, xi):
        sig = np.where((x > 0.5 - 1e-12), sigma_layout[1], sigma_layout[0])
        return sig * 2 * np.pi * np.cos(2 * np.pi * t) * np.sin(np.pi * x) \
            + np.pi ** 2 * np.sin(2 * np.pi * t) * np.sin(np.pi * x)

    layout = PhaseLayout({
        2: PhaseMaterial(sigma_layout[0], ConstantReluctivity(1.0)),
        1: PhaseMaterial(sigma_layout[1], ConstantReluctivity(1.0))})
    return u_star, CallableSource(f, lambda t, x, xi: np.zeros_like(x)), layout


def errors_against(mesh, u, u_star, du_star):
    geom_p = mesh.vertices[mesh.elements]
    d1 = geom_p[:, 1] - geom_p[:, 0]
    d2 = geom_p[:, 2] - geom_p[:, 0]
    area = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    qp = np.einsum("qi,eid->eqd", NQ, geom_p)
    u_nodal = u.nodal()
    u_q = u_nodal[mesh.elements] @ NQ.T
    err_l2 = np.sqrt(np.sum((area / 3.0)[:, None]
                            * (u_q - u_star(qp[:, :, 0], qp[:, :, 1])) ** 2))
    ue = u_nodal[mesh.elements]
    geom = element_geometry(mesh, uniform_layout())
    u_t = np.sum(ue * geom.grad_t, axis=1)[:, None]
    u_x = np.sum(ue * geom.grad_x, axis=1)[:, None]
    dt_ex, dx_ex = du_star(qp[:, :, 0], qp[:, :, 1])
    err_h1 = np.sqrt(np.sum((area / 3.0)[:, None]
                            * ((u_t - dt_ex) ** 2 + (u_x - dx_ex) ** 2)))
    return err_l2, err_h1


@pytest.mark.parametrize("sigma_layout", [(1.0, 1.0), (1.0, 0.0)],
                         ids=["parabolic", "mixed_type"])
def test_manufactured_convergence_orders(sigma_layout):
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
    orders_l2 = observed_orders(errs_l2)
    orders_h1 = observed_orders(errs_h1)
    assert np.all(orders_l2 > 1.7) and np.all(orders_l2 < 2.4)
    assert np.all(orders_h1 > 0.85)


def test_manufactured_nonlinear_convergence_and_newton_contraction():
    curve = ReluctivityCurve(nu_a=2.0, c1=1.0, c2=0.5, c3=2.0)
    mat = PhaseMaterial(1.0, curve)
    layout = PhaseLayout({1: mat, 2: mat})

    def u_star(t, x):
        return np.sin(2 * np.pi * t) * np.sin(np.pi * x)

    def f(t, x, xi):
        ux = np.pi * np.sin(2 * np.pi * t) * np.cos(np.pi * x)
        uxx = -np.pi ** 2 * np.sin(2 * np.pi * t) * np.sin(np.pi * x)
        ut = 2 * np.pi * np.cos(2 * np.pi * t) * np.sin(np.pi * x)
        nu, nu_prime = curve.eval(np.abs(ux))
        return ut - (nu + nu_prime * np.abs(ux)) * uxx

    source = CallableSource(f, lambda t, x, xi: np.zeros_like(x))

    errs = []
    for n in (8, 16, 32):
        mesh = generate_mesh(n, n, (0.5,), Identity(dim=1))
        result = solve_state(mesh, layout, source)
        e2, _ = errors_against(mesh, result.u, u_star,
                               lambda t, x: (0 * t, 0 * x))
        errs.append(e2)
    orders = observed_orders(errs)
    assert np.all(orders > 1.7)

    # quadratic contraction of the undamped tail of the Newton iteration
    norms = np.array(result.residual_norms) / result.residual_norms[0]
    window = norms[(norms < 1e-1) & (norms > 1e-13)]
    assert len(window) >= 2
    contraction = window[1:] / window[:-1] ** 2
    assert np.all(contraction < 50.0)


# ---------------------------------------------------------------------------
# adjoint and tangent solves


def test_zero_objective_derivative_gives_zero_adjoint():
    mesh, layout, source, _ = moving_interface_problem(10)
    state = solve_state(mesh, layout, source)
    objective = type(objective_u())(j=lambda u: u ** 2,
                                    jprime=lambda u: np.zeros_like(u))
    p = solve_adjoint(state, objective)
    assert np.all(p.values == 0.0)


def test_adjoint_equals_time_reflected_state():
    # constant coefficients, no motion: the adjoint of J = int u equals the
    # state driven by f = -1 reflected in time; reflection flips each cell
    # diagonal, so even n_t keeps the triangulation reflection-symmetric
    n_x, n_t = 12, 8
    mesh = generate_mesh(n_x, n_t, (0.5,), Identity(dim=1))
    layout = uniform_layout(sigma=1.0, nu=1.0)
    minus_one = CallableSource(lambda t, x, xi: -np.ones_like(x),
                               lambda t, x, xi: np.zeros_like(x))
    u_minus = solve_state(mesh, layout, minus_one).u
    any_state = solve_state(mesh, layout, zero_source())
    p = solve_adjoint(any_state, objective_u())
    p_nodal = p.nodal()
    u_nodal = u_minus.nodal()
    for j in range(n_t + 1):
        for i in range(n_x + 1):
            a = p_nodal[mesh.vertex_id(j, i)]
            b = u_nodal[mesh.vertex_id(n_t - j, i)]
            assert abs(a - b) < 1e-10 * (abs(b) + 1.0)


def test_tangent_zero_direction_and_linearity():
    mesh, layout, source, _ = moving_interface_problem(8)
    state = solve_state(mesh, layout, source)
    sm = mesh.spatial_mesh()
    zero = solve_tangent(state, np.zeros(9))
    assert np.all(zero.values == 0.0)
    theta = theta_bump(sm)
    one = solve_tangent(state, theta)
    three = solve_tangent(state, 3.0 * theta)
    assert np.max(np.abs(three.values - 3.0 * one.values)) \
        < 1e-12 * np.max(np.abs(one.values) + 1.0)


def test_tangent_matches_shape_finite_difference():
    mesh, layout, source, _ = identity_problem(24)
    base = solve_state(mesh, layout, source)
    sm = mesh.spatial_mesh()
    theta = theta_bump(sm)
    tangent = solve_tangent(base, theta)
    scale = np.linalg.norm(tangent.values)
    errors = []
    for eps in (1e-2, 1e-3):
        trial_mesh = deform_mesh(mesh, theta, eps)
        trial = solve_state(trial_mesh, layout, source,
                            initial_guess=base.u)
        fd = (trial.u.values - base.u.values) / eps
        errors.append(np.linalg.norm(fd - tangent.values) / scale)
    assert errors[1] < 0.5 * errors[0] or errors[1] < 5e-3
    assert errors[1] < 2e-2


@pytest.mark.parametrize("problem", [moving_interface_problem,
                                     nonlinear_problem],
                         ids=["linear", "curve_law"])
def test_adjoint_tangent_duality_is_exact(problem):
    mesh, layout, source, objective = problem(16)
    state = solve_state(mesh, layout, source)
    u = state.u
    p = solve_adjoint(state, objective)
    sm = mesh.spatial_mesh()
    theta = theta_bump(sm)
    udot = solve_tangent(state, theta)
    lhs = objective_gradient_vector(mesh, u, objective) @ udot.values
    rhs = -(p.values @ tangent_rhs(state, theta))
    assert abs(lhs - rhs) < 1e-8 * (abs(lhs) + 1e-12)


@pytest.mark.parametrize("problem", [moving_interface_problem,
                                     nonlinear_problem],
                         ids=["linear", "curve_law"])
def test_element_rule_matches_direct_kernel_evaluation(problem):
    mesh, layout, source, objective = problem(8, 6)
    state = solve_state(mesh, layout, source)
    u = state.u
    p = solve_adjoint(state, objective)
    sm = mesh.spatial_mesh()
    theta = theta_bump(sm)
    direct = direct_element_pairing(mesh, layout, u, p, source, objective,
                                    theta)
    m_term = direct_element_pairing(mesh, layout, u, Field.zeros(u.dofmap),
                                    source, objective, theta)
    pairing = volume_form_pairing(state, p, objective, theta)
    rhs = tangent_rhs(state, theta)
    assert abs(pairing - direct) <= 1e-10 * abs(direct)
    assert abs(m_term - p.values @ rhs - direct) <= 1e-10 * abs(direct)


# ---------------------------------------------------------------------------
# structural identities


def test_discrete_integration_by_parts_for_periodic_fields():
    mesh = generate_mesh(8, 6, (0.4, 0.6), Identity(dim=1))
    layout = PhaseLayout({1: PhaseMaterial(2.0, ConstantReluctivity(1.0)),
                          2: PhaseMaterial(0.5, ConstantReluctivity(1.0))})
    dofmap = DofMap.from_mesh(mesh)
    geom = element_geometry(mesh, layout)
    for _ in range(5):
        u = Field(dofmap, RNG.normal(size=dofmap.n_free)).nodal()
        p = Field(dofmap, RNG.normal(size=dofmap.n_free)).nodal()
        ue, pe = u[mesh.elements], p[mesh.elements]
        u_t = np.sum(ue * geom.grad_t, axis=1)
        p_t = np.sum(pe * geom.grad_t, axis=1)
        p_q = pe @ NQ.T
        u_q = ue @ NQ.T
        a_term = np.sum(geom.sigma * u_t * (geom.area / 3.0)
                        * np.sum(p_q, axis=1))
        b_term = np.sum(geom.sigma * p_t * (geom.area / 3.0)
                        * np.sum(u_q, axis=1))
        scale = abs(a_term) + abs(b_term) + 1.0
        assert abs(a_term + b_term) < 1e-10 * scale


def test_reynolds_identity_second_order_in_time_step():
    motion = Polynomial1D()
    sigma_1 = 10.0

    def u_fn(t, x):
        return np.sin(x + 0.7 * t)

    def p_fn(t, x):
        return np.cos(0.5 * x - 1.3 * t)

    def du_dt(t, x, xi):
        # total derivative along the motion: u_t + v u_x with v = xi^2
        return 0.7 * np.cos(x + 0.7 * t) + xi ** 2 * np.cos(x + 0.7 * t)

    def dp_dt(t, x, xi):
        return 1.3 * np.sin(0.5 * x - 1.3 * t) \
            - xi ** 2 * 0.5 * np.sin(0.5 * x - 1.3 * t)

    def weighted_integral(t):
        xi, w = gauss_rule(0.4, 0.6, 30)
        g = 1.0 + 2.0 * t * xi
        x = xi + t * xi ** 2
        return sigma_1 * np.sum(w * g * u_fn(t, x) * p_fn(t, x))

    def rhs(t):
        xi, w = gauss_rule(0.4, 0.6, 30)
        g = 1.0 + 2.0 * t * xi
        x = xi + t * xi ** 2
        div_v = 2.0 * xi / g
        val = du_dt(t, x, xi) * p_fn(t, x) + u_fn(t, x) * dp_dt(t, x, xi) \
            + div_v * u_fn(t, x) * p_fn(t, x)
        return sigma_1 * np.sum(w * g * val)

    t0 = 0.45
    defects = []
    for delta in (2e-2, 1e-2, 5e-3):
        lhs = (weighted_integral(t0 + delta)
               - weighted_integral(t0 - delta)) / (2.0 * delta)
        defects.append(abs(lhs - rhs(t0)))
    orders = observed_orders(defects)
    assert np.all(orders > 1.9)


def test_time_shift_relabels_solution():
    n_x, n_t = 10, 8
    mesh = generate_mesh(n_x, n_t, (0.4, 0.6), Identity(dim=1))
    layout = PhaseLayout({1: PhaseMaterial(1.0, ConstantReluctivity(1.0)),
                          2: PhaseMaterial(0.5, ConstantReluctivity(2.0))})

    def f_base(t, x):
        return np.sin(np.pi * x) * (1.0 + np.sin(2.0 * np.pi * t)) \
            + 0.3 * np.cos(2.0 * np.pi * t)

    shift = 0.5
    src1 = CallableSource(lambda t, x, xi: f_base(t, x),
                          lambda t, x, xi: np.zeros_like(x))
    src2 = CallableSource(lambda t, x, xi: f_base((t + shift) % 1.0, x),
                          lambda t, x, xi: np.zeros_like(x))
    u1 = solve_state(mesh, layout, src1).u.nodal()
    u2 = solve_state(mesh, layout, src2).u.nodal()
    rows = n_t // 2
    scale = np.max(np.abs(u1))
    for j in range(n_t):
        for i in range(n_x + 1):
            a = u2[mesh.vertex_id(j, i)]
            b = u1[mesh.vertex_id((j + rows) % n_t, i)]
            assert abs(a - b) < 1e-9 * scale


# ---------------------------------------------------------------------------
# constant-law shortcuts


def test_linear_state_residual_is_the_matrix_action(monkeypatch):
    mesh, layout, source, _ = moving_interface_problem(16)
    dofmap = DofMap.from_mesh(mesh)
    solved = solve_state(mesh, layout, source).u
    guess = Field(dofmap, solved.values
                  * (1.0 + 0.5 * RNG.standard_normal(dofmap.n_free)))
    load_norm = np.linalg.norm(assemble_state_residual(
        mesh, layout, Field.zeros(dofmap), source))
    element_passes = recorded(monkeypatch, fem, "_residual_local")
    newton_rhs = recorded(monkeypatch, LinearSystem, "solve", arg=1)
    result = solve_state(mesh, layout, source, initial_guess=guess)
    assert element_passes == [] and len(newton_rhs) == 1
    first = assemble_state_residual(mesh, layout, guess, source)
    assert np.linalg.norm(newton_rhs[0] + first) <= 1e-13 * load_norm
    last = assemble_state_residual(mesh, layout, result.u, source)
    assert abs(result.residual_norms[-1] - np.linalg.norm(last)) \
        <= 1e-13 * load_norm


@pytest.mark.parametrize("ratio, iterations", [(0.9, 0), (1.5, 1)])
def test_linear_state_near_the_tolerance_is_judged_by_the_element_pass(
        monkeypatch, ratio, iterations):
    # A u - load and the element pass differ in roundoff; a state whose
    # residual is near the tolerance must meet it in the public residual
    mesh, layout, source, _ = moving_interface_problem(16)
    dofmap = DofMap.from_mesh(mesh)
    solved = solve_state(mesh, layout, source).u
    matrix = assemble_state_jacobian(mesh, layout, solved)
    load_norm = np.linalg.norm(assemble_state_residual(
        mesh, layout, Field.zeros(dofmap), source))
    bound = NewtonOptions().tol * load_norm
    d = RNG.standard_normal(dofmap.n_free)
    guess = Field(dofmap, solved.values
                  + ratio * bound / np.linalg.norm(matrix @ d) * d)
    element_passes = recorded(monkeypatch, fem, "_residual_local")
    result = solve_state(mesh, layout, source, initial_guess=guess)
    assert len(element_passes) == 1 and result.iterations == iterations
    assert np.linalg.norm(assemble_state_residual(
        mesh, layout, result.u, source)) <= bound


def test_adjoint_assembles_for_another_mesh_or_a_nonlinear_layout(
        monkeypatch):
    # a nonlinear state hands over no factor: the adjoint assembles the
    # Jacobian at u on the state's own mesh, once
    mesh, layout, source, objective = nonlinear_problem(12)
    moved = deform_mesh(mesh, theta_bump(mesh.spatial_mesh()), 0.02)
    state = solve_state(moved, layout, source)
    assert state.system is None
    assembled = recorded(monkeypatch, fem, "_jacobian_matrix")
    geometries = recorded(monkeypatch, fem, "element_geometry")
    with counted_splu() as splu:
        curved = solve_adjoint(state, objective)
        assert assembled == [moved] and splu.call_count == 1
    # the first call took over the state's geometry; a second builds one
    assert geometries == [] and state.geom is None
    assert np.array_equal(curved.values,
                          solve_adjoint(state, objective).values)
    assert geometries == [moved]

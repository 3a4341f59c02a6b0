import dataclasses

import numpy as np
import pytest

from helpers import (bisected_crossings, chord_crossings,
                     moving_interface_problem, periodic_pairs, theta_bump)
from stshapeopt import (ConstantReluctivity, CustomMotion, Identity,
                        PhaseLayout, PhaseMaterial, Polynomial1D, deform_mesh,
                        generate_mesh, pde_volume_densities, solve_adjoint,
                        solve_state)
from stshapeopt.errors import GeometryError, InvertedElementError
from stshapeopt.fem import element_geometry
from stshapeopt.mesh import NQ, mesh_geometry, trajectory_intervals


def test_structured_counts_and_phases_identity():
    mesh = generate_mesh(10, 4, (0.4, 0.6), Identity(dim=1))
    assert mesh.n_vertices == 11 * 5
    assert mesh.n_elements == 2 * 10 * 4
    assert len(periodic_pairs(mesh)) == 11
    assert np.all(mesh.signed_areas > 0.0)
    sm = mesh.spatial_mesh()
    inside = (sm.centroids > 0.4) & (sm.centroids < 0.6)
    assert np.all(sm.phases[inside] == 1)
    assert np.all(sm.phases[~inside] == 2)
    # identity motion keeps the rectangle
    assert np.max(mesh.vertices[:, 1]) == 1.0


def test_polynomial_motion_moves_top_right_corner():
    mesh = generate_mesh(10, 4, (0.4, 0.6), Polynomial1D())
    top_right = mesh.vertex_id(4, 10)
    assert np.allclose(mesh.vertices[top_right], (1.0, 2.0))


def test_vertex_and_pair_invariants():
    motion = Polynomial1D()
    mesh = generate_mesh(12, 6, (0.4, 0.6), motion)
    # every vertex satisfies x = phi_t(xi)
    x = motion.forward(mesh.vertices[:, 0],
                       mesh.xi_nodes[mesh.column][:, None])[:, 0]
    assert np.max(np.abs(x - mesh.vertices[:, 1])) < 1e-12
    b, tup = periodic_pairs(mesh).T
    assert np.all(mesh.vertices[b, 0] == 0.0)
    assert np.all(mesh.vertices[tup, 0] == mesh.t_final)
    moved = motion.forward(np.full(len(b), mesh.t_final),
                           mesh.vertices[b, 1][:, None])[:, 0]
    assert np.max(np.abs(mesh.vertices[tup, 1] - moved)) < 1e-12


def test_interface_snapping_and_validation():
    mesh = generate_mesh(7, 3, (0.41, 0.63), Identity(dim=1))
    assert 0.41 in mesh.xi_nodes and 0.63 in mesh.xi_nodes
    with pytest.raises(GeometryError):
        generate_mesh(10, 4, (0.4, 0.4), Identity(dim=1))
    with pytest.raises(GeometryError):
        generate_mesh(10, 4, (1.2,), Identity(dim=1))
    with pytest.raises(GeometryError):
        generate_mesh(3, 4, (0.4, 0.6), Identity(dim=1))


@pytest.mark.parametrize("n_x, n_t", [(10.0, 10), (10, 10.0)],
                         ids=["n_x", "n_t"])
def test_non_integral_grid_size_is_a_geometry_error(n_x, n_t):
    with pytest.raises(GeometryError, match="integer"):
        generate_mesh(n_x, n_t, (0.4, 0.6), Polynomial1D())


def test_too_many_interfaces_for_the_grid_raise():
    with pytest.raises(GeometryError, match="too many interfaces"):
        generate_mesh(4, 2, (0.2, 0.3, 0.4, 0.5, 0.6), Identity(dim=1))


def test_generated_mesh_with_non_finite_areas_raises():
    # at t_final = 1e160 the vertices are finite, but 35 of the 128 areas
    # are nan and 85 inf; a nan area compares False with 0
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(GeometryError, match="non-finite or non-positive"):
        generate_mesh(8, 8, (0.4, 0.6), Polynomial1D(), t_final=1e160)


def test_deform_zero_step_is_identity():
    mesh = generate_mesh(8, 4, (0.4, 0.6), Polynomial1D())
    theta = np.sin(np.pi * mesh.xi_nodes)
    new = deform_mesh(mesh, theta, 0.0)
    assert np.array_equal(new.vertices, mesh.vertices)


def test_deform_constant_interior_shift_identity_motion():
    mesh = generate_mesh(8, 4, (0.4, 0.6), Identity(dim=1))
    theta = np.full(9, 0.3)
    theta[0] = theta[-1] = 0.0
    new = deform_mesh(mesh, theta, 0.1)
    interior = (mesh.column > 0) & (mesh.column < 8)
    assert np.allclose(new.vertices[interior, 1]
                       - mesh.vertices[interior, 1], 0.03)
    assert np.array_equal(new.phases, mesh.phases)
    assert np.array_equal(periodic_pairs(new), periodic_pairs(mesh))


def test_deform_polynomial_vertex_formula():
    motion = Polynomial1D()
    mesh = generate_mesh(8, 4, (0.4, 0.6), motion)
    theta = np.sin(np.pi * mesh.xi_nodes)
    tau = 0.05
    new = deform_mesh(mesh, theta, tau)
    v = mesh.vertex_id(3, 4)            # interior vertex, t = 3/4
    xi0 = mesh.xi_nodes[mesh.column[v]]
    expected = motion.forward(mesh.vertices[v, 0],
                              np.array([xi0 + tau * np.sin(np.pi * xi0)]))[0]
    assert abs(new.vertices[v, 1] - expected) < 1e-14


def test_deform_round_trip_restores_coordinates():
    mesh = generate_mesh(16, 8, (0.4, 0.6), Polynomial1D())
    rng = np.random.default_rng(5)
    theta = rng.uniform(-1.0, 1.0, 17)
    theta[0] = theta[-1] = 0.0
    tau = 0.1 / (np.max(np.abs(np.diff(theta))) * 16)
    there = deform_mesh(mesh, theta, tau)
    back = deform_mesh(there, theta, -tau)
    assert np.max(np.abs(back.vertices - mesh.vertices)) < 1e-10


def test_deform_inversion_raises():
    mesh = generate_mesh(8, 4, (0.4, 0.6), Identity(dim=1))
    theta = np.zeros(9)
    theta[4] = 1.0
    with pytest.raises(InvertedElementError):
        deform_mesh(mesh, theta, 1.0)


def test_deformation_to_a_nan_area_raises():
    # the motion has no value near 0.515, where the step moves node 4
    motion = CustomMotion(1, lambda t, x: np.where(
        np.abs(x - 0.515) < 1e-3, np.nan, x), None, None, None, None)
    mesh = generate_mesh(8, 4, (0.4, 0.6), motion)
    theta = np.zeros(9)
    theta[4] = 1.0
    with pytest.raises(InvertedElementError):
        deform_mesh(mesh, theta, 0.015)


@pytest.mark.parametrize("end", [0, -1], ids=["left", "right"])
def test_deformation_that_moves_the_design_boundary_raises(end):
    mesh = generate_mesh(8, 4, (0.4, 0.6), Polynomial1D())
    theta = np.zeros(9)
    theta[end] = 1.0
    with pytest.raises(GeometryError, match="design boundary"):
        deform_mesh(mesh, theta, 0.01)


def test_deformation_to_a_non_finite_node_raises():
    # a NaN node compares False with every bound, so no area check sees it
    mesh = generate_mesh(8, 6, (0.4, 0.6), Polynomial1D())
    theta = np.zeros(9)
    theta[4] = np.nan
    with pytest.raises(GeometryError, match="non-finite"):
        deform_mesh(mesh, theta, 0.01)


@pytest.mark.parametrize("theta", [0.5, np.zeros(8), np.zeros((9, 1))],
                         ids=["scalar", "short", "column"])
def test_deformation_of_the_wrong_shape_names_both_shapes(theta):
    mesh = generate_mesh(8, 6, (0.4, 0.6), Polynomial1D())
    with pytest.raises(GeometryError, match=r"shape \(9,\)"):
        deform_mesh(mesh, theta, 1.0)


def test_vertical_line_crosses_two_triangles_per_slab():
    mesh = generate_mesh(10, 6, (0.4, 0.6), Identity(dim=1))
    els, t_nodes = trajectory_intervals(mesh, np.array([0.512]))
    assert els.shape == (1, 2 * 6)
    assert t_nodes[0, 0] == 0.0 and t_nodes[0, -1] == mesh.t_final
    assert np.all(np.diff(t_nodes[0]) >= 0.0)


def test_vertical_line_polynomial_coverage_and_containment():
    motion = Polynomial1D()
    mesh = generate_mesh(10, 7, (0.4, 0.6), motion)
    x0 = 0.5
    els, t_nodes = trajectory_intervals(mesh, np.array([x0]))
    total = np.sum(np.diff(t_nodes[0]))
    assert abs(total - mesh.t_final) < 1e-12
    # midpoint of each interval lies in the stated element (barycentric)
    for elem, a, b in zip(els[0], t_nodes[0, :-1], t_nodes[0, 1:]):
        t_mid = 0.5 * (a + b)
        p = np.array([t_mid, motion.forward(t_mid, np.array([x0]))[0]])
        tri = mesh.vertices[mesh.elements[elem]]
        mat = np.column_stack([tri[1] - tri[0], tri[2] - tri[0]])
        lam = np.linalg.solve(mat, p - tri[0])
        assert lam[0] > -1e-9 and lam[1] > -1e-9 \
            and lam[0] + lam[1] < 1.0 + 1e-9


def test_vertical_line_boundary_nudge_and_exit():
    mesh = generate_mesh(10, 4, (0.4, 0.6), Identity(dim=1))
    left, _ = trajectory_intervals(mesh, np.array([0.0]))
    assert left.shape == (1, 8)
    right, _ = trajectory_intervals(mesh, np.array([1.0]))
    assert right.shape == (1, 8)
    with pytest.raises(GeometryError):
        trajectory_intervals(mesh, np.array([1.2]))


@pytest.mark.parametrize("x0", [[np.nan], [0.3, np.nan]],
                         ids=["nan", "nan_among_inside"])
def test_nan_trajectory_point_raises(x0):
    # a NaN fails every comparison, so a check written as "outside the
    # region" lets it through to the last column's cells
    mesh = generate_mesh(8, 8, (0.4, 0.6), Polynomial1D())
    with pytest.raises(GeometryError, match="leaves the meshed region"):
        trajectory_intervals(mesh, np.array(x0))


def quadratic_in_t():
    """phi_t(x) = x + t^2 x^2: monotone on [0, 1], not affine in t."""
    def tb(t):
        return np.asarray(t, dtype=float)[..., None] if np.ndim(t) else t
    return CustomMotion(
        dim=1, forward=lambda t, x: x + tb(t) ** 2 * x * x,
        grad=lambda t, x: (1.0 + 2.0 * tb(t) ** 2 * x)[..., None],
        grad2=lambda t, x: np.broadcast_to(
            np.asarray(2.0 * tb(t) ** 2)[..., None, None],
            x.shape + (1, 1)).copy(),
        dt=lambda t, x: 2.0 * tb(t) * x * x,
        dt_grad=lambda t, x: (4.0 * tb(t) * x)[..., None])


def test_trajectory_that_misses_the_diagonals_raises():
    # vertices placed by the identity motion, trajectories followed with a
    # moving one, affine in t or not: at xi = 0.9 some slab's diagonal is
    # not crossed
    for motion in (Polynomial1D(), quadratic_in_t()):
        mesh = dataclasses.replace(
            generate_mesh(8, 4, (0.4, 0.6), Identity(dim=1)), motion=motion)
        with pytest.raises(GeometryError, match="does not cross"):
            trajectory_intervals(mesh, np.array([0.9]))


def test_trajectory_intervals_batch_matches_single():
    mesh = generate_mesh(9, 5, (0.4, 0.6), Polynomial1D())
    pts = np.array([0.17, 0.52, 0.83])
    els, t_nodes = trajectory_intervals(mesh, pts)
    for k, x0 in enumerate(pts):
        single_els, single_t = trajectory_intervals(mesh, np.array([x0]))
        assert np.array_equal(single_els[0], els[k])
        assert np.allclose(single_t[0], t_nodes[k])


def test_spatial_mesh_interfaces_and_interp():
    mesh = generate_mesh(10, 4, (0.4, 0.6), Identity(dim=1))
    sm = mesh.spatial_mesh()
    nodes = sm.interface_nodes()
    assert np.allclose(sm.nodes[nodes], [0.4, 0.6])
    vals = sm.nodes ** 2
    assert abs(sm.interpolate(vals, 0.45) - 0.45 ** 2) < 3e-3
    grad = sm.interpolate_gradient(vals, np.array([0.45]))
    assert abs(grad[0] - 0.9) < 0.11


def loop_connectivity(xi, interfaces, n_t):
    """Reference connectivity: the cell-by-cell double loop that
    generate_mesh replaced with array indexing."""
    n_x = len(xi) - 1
    cell_phase = np.where(
        np.searchsorted(interfaces, 0.5 * (xi[:-1] + xi[1:])) % 2 == 1, 1, 2)
    elements = np.empty((2 * n_x * n_t, 3), dtype=int)
    phases = np.empty(2 * n_x * n_t, dtype=int)

    def vid(j, i):
        return j * (n_x + 1) + i

    for j in range(n_t):
        for i in range(n_x):
            base = 2 * (j * n_x + i)
            p00, p01 = vid(j, i), vid(j, i + 1)
            p10, p11 = vid(j + 1, i), vid(j + 1, i + 1)
            if (i + j) % 2 == 0:
                elements[base] = (p00, p11, p01)
                elements[base + 1] = (p00, p10, p11)
            else:
                elements[base] = (p00, p10, p01)
                elements[base + 1] = (p01, p10, p11)
            phases[base] = cell_phase[i]
            phases[base + 1] = cell_phase[i]
    return elements, phases


@pytest.mark.parametrize("n_x, n_t", [(8, 4), (9, 5), (10, 3), (7, 6)])
@pytest.mark.parametrize("interfaces", [(0.5,), (0.4, 0.6),
                                        (0.2, 0.45, 0.8)])
def test_generated_connectivity_matches_loop_reference(n_x, n_t, interfaces):
    mesh = generate_mesh(n_x, n_t, interfaces, Polynomial1D())
    elements, phases = loop_connectivity(mesh.xi_nodes, interfaces, n_t)
    assert mesh.elements.dtype == elements.dtype
    assert np.array_equal(mesh.elements, elements)
    assert np.array_equal(mesh.phases, phases)
    vid = np.arange(mesh.n_vertices)
    assert np.array_equal(mesh.row * (n_x + 1) + mesh.column, vid)


@pytest.mark.parametrize("n_x, n_t", [(8, 4), (9, 5)])
@pytest.mark.parametrize("deformed", [False, True],
                         ids=["generated", "deformed"])
def test_cell_elements_split_each_cell_along_a_shared_diagonal(n_x, n_t,
                                                               deformed):
    mesh = generate_mesh(n_x, n_t, (0.4, 0.6), Polynomial1D())
    if deformed:
        mesh = deform_mesh(mesh, theta_bump(mesh.spatial_mesh()), 0.03)
    for j in range(n_t):
        for i in range(n_x):
            lower = mesh.elements[mesh.cell_element(j, i)]
            upper = mesh.elements[mesh.cell_element(j, i) + 1]
            bottom = {mesh.vertex_id(j, i), mesh.vertex_id(j, i + 1)}
            top = {mesh.vertex_id(j + 1, i), mesh.vertex_id(j + 1, i + 1)}
            assert set(lower) | set(upper) == bottom | top
            assert bottom <= set(lower) and top <= set(upper)
            assert set(lower) & set(upper) == {upper[0], lower[1]}
            assert mesh.row[upper[0]] == j and mesh.row[lower[1]] == j + 1


def count_inversions(monkeypatch, motion):
    calls = []
    original = motion.inverse

    def counted(t, y):
        calls.append(np.size(y))
        return original(t, y)

    monkeypatch.setattr(motion, "inverse", counted)
    return calls


def test_geometry_is_computed_once_per_mesh(monkeypatch):
    mesh, layout, source, objective = moving_interface_problem(12)
    calls = count_inversions(monkeypatch, mesh.motion)
    state = solve_state(mesh, layout, source)
    p = solve_adjoint(state, objective)
    pde_volume_densities(state, p, objective)
    assert calls == [3 * mesh.n_elements]


def test_geometry_keeps_layout_data_per_layout():
    mesh, layout, _, _ = moving_interface_problem(12)
    other = PhaseLayout({1: PhaseMaterial(3.0, ConstantReluctivity(2.0)),
                         2: PhaseMaterial(1.0, ConstantReluctivity(5.0))})
    first = element_geometry(mesh, layout)
    second = element_geometry(mesh, other)
    assert first.qp_xi is second.qp_xi
    assert np.array_equal(first.sigma, layout.sigma(mesh.phases))
    assert np.array_equal(second.sigma, other.sigma(mesh.phases))
    assert not np.array_equal(first.sigma, second.sigma)
    assert second.layout is other


def test_deformed_mesh_gets_fresh_geometry(monkeypatch):
    mesh = generate_mesh(12, 6, (0.4, 0.6), Polynomial1D())
    calls = count_inversions(monkeypatch, mesh.motion)
    theta = np.sin(np.pi * mesh.xi_nodes)
    base = mesh_geometry(mesh)
    moved = deform_mesh(mesh, theta, 0.05)
    back = deform_mesh(moved, theta, -0.05)
    moved_geom = mesh_geometry(moved)
    back_geom = mesh_geometry(back)
    assert len(calls) == 3
    assert np.array_equal(moved_geom.area, moved.signed_areas)
    assert not np.allclose(moved_geom.area, base.area)
    assert back_geom is not base
    assert np.allclose(back_geom.qp_xi, base.qp_xi, rtol=0.0, atol=1e-14)
    assert not base.area.flags.writeable


def test_areas_are_computed_once_per_mesh():
    mesh = generate_mesh(12, 6, (0.4, 0.6), Polynomial1D())
    moved = deform_mesh(mesh, np.sin(np.pi * mesh.xi_nodes), 0.05)
    for m in (mesh, moved):
        assert m.signed_areas is mesh_geometry(m).area
        assert not m.signed_areas.flags.writeable
    assert not np.array_equal(moved.signed_areas, mesh.signed_areas)


@pytest.mark.parametrize("motion", [Polynomial1D(), Identity(dim=1)],
                         ids=["polynomial", "identity"])
def test_quadrature_points_equal_the_einsum_reference(motion):
    # mesh_geometry sums vertex by vertex in einsum's order; matmul and
    # optimized einsum are faster but round differently.
    mesh = generate_mesh(48, 48, (0.4, 0.6), motion)
    deformed = deform_mesh(mesh, theta_bump(mesh.spatial_mesh()), 0.03)
    for m in (mesh, deformed):
        qp = np.einsum("qi,eid->eqd", NQ, m.vertices[m.elements])
        geom = mesh_geometry(m)
        assert np.array_equal(geom.qp_t, qp[:, :, 0])
        assert np.array_equal(geom.qp_x, qp[:, :, 1])


@pytest.mark.parametrize("motion", [Polynomial1D(), Identity(dim=1)],
                         ids=["polynomial", "identity"])
def test_closed_form_crossings_match_the_bisection(motion):
    mesh = generate_mesh(40, 40, (0.4, 0.6), motion)
    deformed = deform_mesh(mesh, theta_bump(mesh.spatial_mesh()), 0.03)
    x0 = np.linspace(0.013, 0.987, 37)
    for m in (mesh, deformed):
        elements, t_nodes = trajectory_intervals(m, x0)
        # x0[18] = 0.5 is a node, followed in the cell to its right
        cells = np.searchsorted(m.xi_nodes, x0, side="right") - 1
        assert np.array_equal(elements[:, 0::2], 2 * (
            np.arange(m.n_t)[None, :] * m.n_x + cells[:, None]))
        # relative to the period: a crossing next to a slab end is ~0
        assert np.max(np.abs(t_nodes[:, 1::2] - bisected_crossings(m, x0))) \
            <= 1e-15 * m.t_final


def test_motion_not_affine_in_t_bisects_to_the_crossing():
    motion = quadratic_in_t()
    mesh = generate_mesh(12, 12, (0.4, 0.6), motion)
    x0 = np.array([0.11, 0.37, 0.52, 0.74])
    elements, t_nodes = trajectory_intervals(mesh, x0)
    t_star = t_nodes[:, 1::2]
    t_lo, t_hi = t_nodes[:, 0:-1:2], t_nodes[:, 2::2]
    assert np.all((t_lo < t_star) & (t_star < t_hi))
    # the crossing lies on the diagonal shared by the two elements
    shared = [np.intersect1d(*mesh.elements[pair])
              for pair in elements.reshape(len(x0), -1, 2).reshape(-1, 2)]
    a, b = mesh.vertices[np.array(shared)].transpose(1, 0, 2)
    x_star = motion.forward(t_star.ravel(), np.repeat(x0, mesh.n_t)[:, None])
    frac = (t_star.ravel() - a[:, 0]) / (b[:, 0] - a[:, 0])
    on_diag = a[:, 1] + frac * (b[:, 1] - a[:, 1])
    assert np.max(np.abs(x_star[:, 0] - on_diag)) <= 1e-14
    # found by bisection: the chord from the slab ends misses that root
    assert np.array_equal(t_star, bisected_crossings(mesh, x0))
    assert np.max(np.abs(chord_crossings(mesh, x0) - t_star)) > 1e-6


@pytest.mark.parametrize("motion", [Identity(dim=1), Polynomial1D()],
                         ids=lambda motion: type(motion).__name__)
def test_steep_diagonals_take_the_chord(motion):
    # at n_t / n_x = 500 the gap at the chord exceeds 1e-14 in roundoff;
    # the bound grows with the gap's slope, so affine motions keep the chord
    mesh = generate_mesh(4, 2000, (0.4, 0.6), motion)
    x0 = np.linspace(0.013, 0.987, 37)
    _, t_nodes = trajectory_intervals(mesh, x0)
    assert np.array_equal(t_nodes[:, 1::2], chord_crossings(mesh, x0))
    # a motion quadratic in t still bisects there
    mesh = generate_mesh(4, 2000, (0.4, 0.6), quadratic_in_t())
    _, t_nodes = trajectory_intervals(mesh, x0)
    assert np.array_equal(t_nodes[:, 1::2], bisected_crossings(mesh, x0))

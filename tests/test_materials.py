import numpy as np
import pytest

from helpers import annulus_mesh, arkkio_torque_per_element, gauss_rule
from stshapeopt import (ConstantReluctivity, PhaseLayout, PhaseMaterial,
                        ReluctivityCurve, arkkio_q, arkkio_torque)
from stshapeopt.errors import GeometryError, MaterialError

# ferromagnetic curve of the motor benchmark
NU_A = 1e7 / (4.0 * np.pi)
CURVE = ReluctivityCurve(nu_a=NU_A, c1=200.0, c2=0.001, c3=6.0)

RNG = np.random.default_rng(11)


def test_curve_at_zero():
    nu, nu_prime = CURVE.eval(0.0)
    assert nu == 200.0
    assert nu_prime == 0.0


def test_constant_law():
    nu, nu_prime = ConstantReluctivity(1.0).eval(37.5)
    assert nu == 1.0 and nu_prime == 0.0


def test_curve_derivative_matches_finite_difference():
    h = 1e-6
    # s = 2 sits in the transition region; s = 10 is fully saturated
    _, nu_prime = CURVE.eval(2.0)
    fd = (CURVE.eval(2.0 + h)[0][()] - CURVE.eval(2.0 - h)[0][()]) / (2.0 * h)
    assert abs(nu_prime - fd) / abs(fd) < 1e-6
    _, nu_prime = CURVE.eval(10.0)
    fd = (CURVE.eval(10.0 + h)[0][()] - CURVE.eval(10.0 - h)[0][()]) / (2.0 * h)
    assert abs(nu_prime - fd) <= 1e-6 * (abs(fd) + 1.0)


def test_flux_map_monotone_and_lipschitz():
    s = RNG.uniform(0.0, 1e5, 20000).reshape(2, 10000)
    nu1, _ = CURVE.eval(s[0])
    nu2, _ = CURVE.eval(s[1])
    d_flux = nu1 * s[0] - nu2 * s[1]
    d_s = s[0] - s[1]
    assert np.all(d_flux * d_s >= 0.0)
    # the sharpest valid constant; the flux slope exceeds nu_a in the
    # transition region, peaking at nu_a + (nu_a - c1) c3 exp(-(1 + 1/c3))
    assert np.all(np.abs(d_flux)
                  <= CURVE.lipschitz_bound * np.abs(d_s) * (1.0 + 1e-12))
    tight = RNG.uniform(2.0, 4.0, (2, 2000))
    nu1, _ = CURVE.eval(tight[0])
    nu2, _ = CURVE.eval(tight[1])
    secant = np.abs(nu1 * tight[0] - nu2 * tight[1]) \
        / np.abs(tight[0] - tight[1])
    assert np.max(secant) > NU_A  # nu_a alone is not a Lipschitz constant


def test_flux_slope_lower_bound():
    s = np.concatenate([[0.0], np.logspace(-8, 5, 10000)])
    nu, nu_prime = CURVE.eval(s)
    assert np.all(s * nu_prime + nu >= CURVE.nu_lower - 1e-9)


def test_linearized_tensor_ellipticity():
    n = 1000
    s = RNG.uniform(0.0, 20.0, n)
    phi = RNG.uniform(0.0, 2.0 * np.pi, n)
    xi = np.column_stack([np.cos(phi), np.sin(phi)])
    psi = RNG.uniform(0.0, 2.0 * np.pi, n)
    g = s[:, None] * np.column_stack([np.cos(psi), np.sin(psi)])
    nu, _ = CURVE.eval(s)
    ratio = CURVE.prime_over_s(s)
    quad = nu * np.sum(xi * xi, axis=1) + ratio * np.sum(g * xi, axis=1) ** 2
    assert np.all(quad >= CURVE.nu_lower - 1e-12)


def test_prime_over_s_guard_near_zero():
    assert CURVE.prime_over_s(0.0) == 0.0
    assert CURVE.prime_over_s(1e-13) == 0.0
    quadratic = ReluctivityCurve(nu_a=2.0, c1=1.0, c2=0.5, c3=2.0)
    assert abs(quadratic.prime_over_s(0.0) - 1.0 * 0.5 * 2.0) < 1e-15


def test_law_validation():
    with pytest.raises(ValueError):
        CURVE.eval(-1.0)
    with pytest.raises(ValueError):
        CURVE.eval(np.inf)
    with pytest.raises(ValueError):
        ReluctivityCurve(nu_a=1.0, c1=2.0, c2=0.1, c3=6.0)
    with pytest.raises(ValueError):
        ReluctivityCurve(nu_a=2.0, c1=1.0, c2=0.1, c3=1.5)
    with pytest.raises(ValueError):
        PhaseMaterial(sigma=-1.0, nu=ConstantReluctivity(1.0))


def test_laws_reject_non_finite_parameters():
    laws = (ConstantReluctivity,
            lambda v: ReluctivityCurve(nu_a=v, c1=1.0, c2=0.1, c3=6.0),
            lambda v: ReluctivityCurve(nu_a=2.0, c1=1.0, c2=v, c3=6.0),
            lambda v: ReluctivityCurve(nu_a=2.0, c1=1.0, c2=0.1, c3=v),
            lambda v: PhaseMaterial(v, ConstantReluctivity(1.0)))
    for law in laws:
        for value in (np.nan, np.inf):
            with pytest.raises(MaterialError):
                law(value)


def test_layout_lookup():
    layout = PhaseLayout({1: PhaseMaterial(2.0, ConstantReluctivity(1.0)),
                          2: PhaseMaterial(0.0, CURVE)})
    assert np.all(layout.sigma([1, 2, 1]) == [2.0, 0.0, 2.0])
    assert not layout.all_constant
    assert PhaseLayout({1: PhaseMaterial(2.0, ConstantReluctivity(1.0)),
                        2: PhaseMaterial(0.0, ConstantReluctivity(3.0))}
                       ).all_constant


@pytest.mark.parametrize("phases", [[1, 2, 2, 1, 2], [2, 2, 2]],
                         ids=["both", "empty_phase"])
def test_layout_reluctivity_is_each_phase_law(phases):
    constant = ConstantReluctivity(3.0)
    layout = PhaseLayout({1: PhaseMaterial(2.0, constant),
                          2: PhaseMaterial(0.0, CURVE)})
    phases = np.array(phases)
    s = RNG.uniform(0.0, 5.0, size=len(phases))
    nu, nu_prime = layout.reluctivity(phases, s)
    for pid, law in ((1, constant), (2, CURVE)):
        mask = phases == pid
        expected = law.eval(s[mask])
        assert np.array_equal(nu[mask], expected[0])
        assert np.array_equal(nu_prime[mask], expected[1])


def test_layout_raises_for_a_phase_without_material():
    # an element whose phase has no material must not read unset memory
    layout = PhaseLayout({2: PhaseMaterial(2.0, ConstantReluctivity(1.0))})
    phases = np.array([1, 2, 1, 2])
    with pytest.raises(MaterialError, match=r"phase \[1\]"):
        layout.sigma(phases)
    with pytest.raises(MaterialError, match=r"phase \[1\]"):
        layout.reluctivity(phases, np.ones(4))
    assert np.array_equal(layout.sigma(phases[1::2]), [2.0, 2.0])


def test_torque_weight_examples():
    assert np.allclose(arkkio_q((1.0, 0.0)),
                       [[0.0, -0.5], [-0.5, 0.0]], atol=1e-15)
    assert np.allclose(arkkio_q((0.0, 2.0)),
                       [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)
    with pytest.raises(GeometryError):
        arkkio_q((0.0, 0.0))


def test_torque_weight_identities():
    pts = RNG.normal(size=(1000, 2))
    pts = pts[np.hypot(pts[:, 0], pts[:, 1]) > 1e-3]
    for x in pts:
        q = arkkio_q(x)
        assert np.allclose(q, q.T)
        assert abs(np.trace(q)) < 1e-12
        norm = np.hypot(x[0], x[1])
        assert abs(np.linalg.norm(q) - norm / np.sqrt(2.0)) < 1e-12 * norm


def test_torque_of_constant_potential_is_zero():
    points, tris = annulus_mesh(0.5, 1.5, 6, 48)
    u = np.ones(len(points))
    assert abs(arkkio_torque(points, tris, u, 0.8, 1.2, 1.0, 1.0)) < 1e-14


def test_torque_linear_potential_matches_dense_quadrature():
    points, tris = annulus_mesh(0.5, 1.5, 8, 64)
    u = points[:, 0]
    val = arkkio_torque(points, tris, u, 0.75, 1.25, 2.0, 3.0)
    # dense polar quadrature of Q11 = x1*x2/|x| over the annulus band
    r_pts, r_wts = gauss_rule(0.75, 1.25, 40)
    p_pts, p_wts = gauss_rule(0.0, 2.0 * np.pi, 120)
    integral = 0.0
    for r, wr in zip(r_pts, r_wts):
        integral += wr * np.sum(p_wts * r * (r * np.cos(p_pts))
                                * (r * np.sin(p_pts)) / r)
    oracle = 2.0 * 3.0 / 0.5 * integral
    assert abs(val - oracle) < 1e-10


def test_torque_radial_potential_vanishes_under_refinement():
    # band edges on ring boundaries so the discrete annulus is exact
    vals = []
    for n_r, n_phi in ((8, 64), (16, 128)):
        points, tris = annulus_mesh(0.5, 1.5, n_r, n_phi)
        u = np.hypot(points[:, 0], points[:, 1]) ** 2
        vals.append(abs(arkkio_torque(points, tris, u, 0.75, 1.25, 1.0, 1.0)))
    assert vals[1] < 0.5 * vals[0]
    assert vals[1] < 1e-4


def test_torque_on_a_triangle_without_area_raises():
    points = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    with pytest.raises(GeometryError, match="no area"):
        arkkio_torque(points, np.array([[0, 1, 2]]), points[:, 0], 0.5, 3.5,
                      1.0, 1.0)


def test_torque_equals_the_per_element_loop():
    points, tris = annulus_mesh(0.5, 1.5, 16, 128)
    x, y = points.T
    u = sum(c * np.cos(k * x + m * y + phase) for c, k, m, phase in
            RNG.normal(size=(6, 4)))
    args = (points, tris, u, 0.75, 1.25, 2.0, 3.0)
    whole, oracle = arkkio_torque(*args), arkkio_torque_per_element(*args)
    assert abs(whole - oracle) <= 1e-13 * abs(oracle), (whole, oracle)


def test_torque_weight_of_a_batch_equals_per_point_calls():
    pts = RNG.normal(size=(5, 3, 2))
    batch = arkkio_q(pts)
    assert batch.shape == (5, 3, 2, 2)
    for index in np.ndindex(5, 3):
        assert np.array_equal(batch[index], arkkio_q(pts[index]))


def test_torque_weight_of_a_batch_with_the_origin_raises():
    pts = RNG.normal(size=(4, 2))
    pts[2] = 0.0
    with pytest.raises(GeometryError, match="origin"):
        arkkio_q(pts)


def test_torque_no_area_message_names_the_first_flat_annulus_triangle():
    points, tris = annulus_mesh(0.5, 1.5, 4, 32)
    # collapsed onto its first vertex, triangle 70 lies on the ring r = 0.75,
    # outside the band, and triangles 130 and 140 on r = 1, inside it
    flat = [70, 130, 140]
    tris[flat] = tris[flat, :1]
    args = (points, tris, points[:, 0], 0.9, 1.1, 1.0, 1.0)
    for torque in (arkkio_torque, arkkio_torque_per_element):
        with pytest.raises(GeometryError,
                           match="^triangle 130 in the annulus has no area$"):
            torque(*args)


@pytest.mark.parametrize("n_values", [10, 1000])
def test_torque_potential_of_the_wrong_length_raises(n_values):
    points, tris = annulus_mesh(0.5, 1.5, 4, 32)
    with pytest.raises(GeometryError, match="potential has shape"):
        arkkio_torque(points, tris, np.ones(n_values), 0.8, 1.2, 1.0, 1.0)


@pytest.mark.parametrize("index", [-1, 160])
def test_torque_triangle_index_outside_the_points_raises(index):
    points, tris = annulus_mesh(0.5, 1.5, 4, 32)
    tris[5, 1] = index
    with pytest.raises(GeometryError, match=r"indices in \[0, 160\)"):
        arkkio_torque(points, tris, points[:, 0], 0.8, 1.2, 1.0, 1.0)


@pytest.mark.parametrize("reshape", [np.ravel, lambda t: t[:, :2],
                                     lambda t: t[..., None]],
                         ids=["flat", "two_columns", "three_dims"])
def test_torque_triangles_not_in_rows_of_three_raise(reshape):
    points, tris = annulus_mesh(0.5, 1.5, 4, 32)
    with pytest.raises(GeometryError, match=r"an \(n, 3\) array"):
        arkkio_torque(points, reshape(tris), points[:, 0], 0.8, 1.2, 1.0, 1.0)


def test_torque_empty_annulus_raises():
    points, tris = annulus_mesh(0.5, 1.5, 4, 32)
    with pytest.raises(GeometryError):
        arkkio_torque(points, tris, points[:, 0], 5.0, 6.0, 1.0, 1.0)

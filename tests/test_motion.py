import numpy as np
import pytest

from helpers import chord_crossings, theta_bump
from stshapeopt import (CustomMotion, Identity, Polynomial1D, Rotation2D,
                        deform_mesh, generate_mesh)
from stshapeopt import kernels as kn
from stshapeopt import motion as motion_module
from stshapeopt.errors import GeometryError
from stshapeopt.mesh import trajectory_intervals
from stshapeopt.motion import Motion

RNG = np.random.default_rng(7)


def motions():
    return [Identity(dim=1), Identity(dim=2), Rotation2D(period=1.0),
            Polynomial1D()]


def sample_points(motion, n=40):
    t = RNG.uniform(0.0, 1.0, n)
    x = RNG.uniform(0.05, 0.95, (n, motion.dim))
    return t, x


@pytest.mark.parametrize("motion", motions(), ids=lambda m: type(m).__name__)
def test_inverse_roundtrip(motion):
    t, x = sample_points(motion)
    y = motion.forward(t, x)
    assert np.max(np.abs(motion.inverse(t, y) - x)) < 1e-12


@pytest.mark.parametrize("motion", motions(), ids=lambda m: type(m).__name__)
def test_velocity_matches_flow_derivative(motion):
    t, x = sample_points(motion)
    y = motion.forward(t, x)
    assert np.max(np.abs(motion.velocity(t, y) - motion.dt(t, x))) < 1e-12


def test_identity_is_trivial():
    motion = Identity(dim=2)
    t, x = sample_points(motion)
    assert np.all(motion.velocity(t, x) == 0.0)
    assert np.max(np.abs(motion.grad(t, x) - np.eye(2))) == 0.0


def test_rotation_unit_determinant_and_divergence_free():
    motion = Rotation2D(period=1.0)
    t, x = sample_points(motion)
    assert np.max(np.abs(motion.det(t, x) - 1.0)) == 0.0
    div_v = np.einsum("...ii->...", motion.velocity_grad(t, x))
    assert np.max(np.abs(div_v)) < 1e-12
    alpha = 2.0 * np.pi * t[0]
    rot = np.array([[np.cos(alpha), -np.sin(alpha)],
                    [np.sin(alpha), np.cos(alpha)]])
    assert np.max(np.abs(motion.grad(t[0], x[0]) - rot)) < 1e-15


def test_polynomial_forward_and_newton_inverse():
    motion = Polynomial1D()
    assert motion.forward(1.0, np.array([1.0]))[0] == 2.0
    y = np.linspace(0.01, 1.9, 25)[:, None]
    t = np.full(25, 0.7)
    xi = motion.inverse(t, y)
    closed = (-1.0 + np.sqrt(1.0 + 4.0 * 0.7 * y)) / (2.0 * 0.7)
    assert np.max(np.abs(xi - closed)) < 1e-12


def test_polynomial_closed_form_inverse_matches_newton():
    motion = Polynomial1D()
    t, x = np.meshgrid(np.linspace(0.0, 1.0, 41), np.linspace(0.0, 1.0, 41))
    t, y = t.ravel(), motion.forward(t.ravel(), x.ravel()[:, None])
    closed = motion.inverse(t, y)
    assert closed.shape == y.shape
    assert np.max(np.abs(closed - Motion.inverse(motion, t, y))) <= 1e-15
    for s in (0.0, 0.35, 1.0):
        assert np.max(np.abs(motion.inverse(s, y)
                             - Motion.inverse(motion, s, y))) <= 1e-15


def test_polynomial_inverse_outside_image_raises():
    motion = Polynomial1D()
    with pytest.raises(GeometryError):
        motion.inverse(0.5, np.array([-1.0]))


def sine_motion():
    return CustomMotion(
        dim=1,
        forward=lambda t, x: x + np.asarray(t)[..., None] * np.sin(x) * 0.2
        if np.ndim(t) else x + t * 0.2 * np.sin(x),
        grad=lambda t, x: (1.0 + (np.asarray(t)[..., None] if np.ndim(t)
                                  else t) * 0.2 * np.cos(x))[..., None],
        grad2=lambda t, x: (-(np.asarray(t)[..., None] if np.ndim(t) else t)
                            * 0.2 * np.sin(x))[..., None, None],
        dt=lambda t, x: 0.2 * np.sin(x),
        dt_grad=lambda t, x: (0.2 * np.cos(x))[..., None])


def test_custom_motion_with_default_inverse():
    motion = sine_motion()
    x = np.array([[0.3], [0.8]])
    y = motion.forward(0.6, x)
    assert np.max(np.abs(motion.inverse(0.6, y) - x)) < 1e-12
    assert np.max(np.abs(motion.velocity(0.6, y) - motion.dt(0.6, x))) < 1e-12


def test_custom_motion_inversion_outside_its_image_raises():
    # t x^2 + x = y has no real root for t = 1, y = -1; Newton cycles
    # between -1 and 0 without converging
    motion = CustomMotion(
        dim=1,
        forward=lambda t, x: x + t * x * x,
        grad=lambda t, x: (1.0 + 2.0 * t * x)[..., None],
        grad2=lambda t, x: np.full_like(x, 2.0 * t)[..., None, None],
        dt=lambda t, x: x * x,
        dt_grad=lambda t, x: (2.0 * x)[..., None])
    with pytest.raises(GeometryError, match="did not converge"):
        motion.inverse(1.0, np.array([[-1.0]]))


@pytest.mark.parametrize("motion", [Identity(dim=1), Polynomial1D()],
                         ids=lambda motion: type(motion).__name__)
def test_affine_motion_crossings_are_the_one_step_chord(motion):
    # affine in t, so the chord is the crossing and the mesh takes it
    # without bisecting
    mesh = generate_mesh(40, 40, (0.4, 0.6), motion)
    deformed = deform_mesh(mesh, theta_bump(mesh.spatial_mesh()), 0.03)
    x0 = np.linspace(0.013, 0.987, 37)
    for m in (mesh, deformed):
        _, t_nodes = trajectory_intervals(m, x0)
        assert np.array_equal(t_nodes[:, 1::2], chord_crossings(m, x0))


def test_subclasses_override_only_their_defining_maps():
    # the base class derives det, inverse and the velocities; only the
    # closed-form inverse and the exact unit determinant are kept
    defining = {"forward", "grad", "grad2", "dt", "dt_grad", "dim"}
    kept = {("Polynomial1D", "inverse"), ("Rotation2D", "det")}
    subclasses = [cls for cls in vars(motion_module).values()
                  if isinstance(cls, type) and issubclass(cls, Motion)
                  and cls is not Motion]
    assert len(subclasses) == 4
    for cls in subclasses:
        public = {name for name in vars(cls) if not name.startswith("_")}
        assert public - defining == {name for owner, name in kept
                                     if owner == cls.__name__}


def cubic_motion(shift):
    """phi_t(x) = ((1-t) x1 + t (x1^3 + shift), x2): at t = 1 its gradient
    is singular wherever x1 = 0."""
    def forward(t, x):
        return np.stack(((1.0 - t) * x[..., 0] + t * (x[..., 0] ** 3 + shift),
                         x[..., 1]), axis=-1)

    def grad(t, x):
        g = np.zeros(x.shape + (2,))
        g[..., 0, 0] = 1.0 - t + 3.0 * t * x[..., 0] ** 2
        g[..., 1, 1] = 1.0
        return g

    def grad2(t, x):
        h = np.zeros(x.shape + (2, 2))
        h[..., 0, 0, 0] = 6.0 * t * x[..., 0]
        return h

    def dt(t, x):
        return np.stack((x[..., 0] ** 3 + shift - x[..., 0],
                         np.zeros_like(x[..., 1])), axis=-1)

    def dt_grad(t, x):
        w = np.zeros(x.shape + (2,))
        w[..., 0, 0] = 3.0 * x[..., 0] ** 2 - 1.0
        return w

    return CustomMotion(2, forward, grad, grad2, dt, dt_grad)


@pytest.mark.parametrize("motion", [Identity(dim=1), Identity(dim=2),
                                    Rotation2D(), sine_motion()],
                         ids=lambda m: f"{type(m).__name__}{m.dim}")
def test_empty_batch_inverts_to_an_empty_batch(motion):
    xi = motion.inverse(0.4, np.zeros((0, motion.dim)))
    assert xi.shape == (0, motion.dim)


@pytest.mark.parametrize("radius", [1.0, 1e3, 1e6])
def test_rotation_inverts_at_any_radius(radius):
    # the Newton stop is relative to the point's size, so a far point
    # round-trips as well as a near one
    rotation = Rotation2D()
    custom = CustomMotion(2, rotation.forward, rotation.grad, rotation.grad2,
                          rotation.dt, rotation.dt_grad)
    angle = np.linspace(0.0, 2.0 * np.pi, 50, endpoint=False)
    x = radius * np.stack((np.cos(angle), np.sin(angle)), axis=-1)
    for motion in (rotation, custom):
        for t in (0.1, 0.3, 0.77):
            xi = motion.inverse(t, motion.forward(t, x))
            assert np.max(np.linalg.norm(xi - x, axis=-1)) <= 1e-15 * radius


def test_singular_newton_step_raises_geometry_error():
    with pytest.raises(GeometryError, match="singular"):
        cubic_motion(0.5).inverse(1.0, np.array([[0.0, 0.5]]))


@pytest.mark.parametrize("form", [
    lambda m, y: m.velocity_grad(1.0, y),
    lambda m, y: kn.m_prime(m, 1.0, y[0]),
    lambda m, y: kn.Fxx_prime(m, 1.0, y[0]),
    lambda m, y: kn.Fxt_prime(m, 1.0, y[0]),
    lambda m, y: kn.b_prime(m, 1.0, y[0]),
    lambda m, y: kn.A_prime(m, 1.0, y[0]),
    lambda m, y: kn.pullback_scalar_derivative(m, 1.0, y[0],
                                               lambda t, x: np.ones(2)),
    lambda m, y: kn.pullback_vector_derivative(m, 1.0, y[0],
                                               lambda t, x: np.eye(2)),
], ids=["velocity_grad", "m_prime", "Fxx_prime", "Fxt_prime", "b_prime",
        "A_prime", "pullback_scalar", "pullback_vector"])
def test_singular_motion_gradient_raises_geometry_error(form):
    # (0, 0.5) is its own image at t = 1, where d phi_1 / dx1 = 0
    motion = cubic_motion(0.0)
    y = np.array([[0.0, 0.5]])
    assert np.array_equal(motion.inverse(1.0, y), y)
    with pytest.raises(GeometryError, match="singular"):
        form(motion, y)

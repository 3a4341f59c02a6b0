import numpy as np
import pytest

from helpers import chord_crossings, theta_bump
from stshapeopt import (CustomMotion, Identity, Polynomial1D, Rotation2D,
                        deform_mesh, generate_mesh)
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


def test_custom_motion_with_default_inverse():
    motion = CustomMotion(
        dim=1,
        forward=lambda t, x: x + np.asarray(t)[..., None] * np.sin(x) * 0.2
        if np.ndim(t) else x + t * 0.2 * np.sin(x),
        grad=lambda t, x: (1.0 + (np.asarray(t)[..., None] if np.ndim(t)
                                  else t) * 0.2 * np.cos(x))[..., None],
        grad2=lambda t, x: (-(np.asarray(t)[..., None] if np.ndim(t) else t)
                            * 0.2 * np.sin(x))[..., None, None],
        dt=lambda t, x: 0.2 * np.sin(x),
        dt_grad=lambda t, x: (0.2 * np.cos(x))[..., None])
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

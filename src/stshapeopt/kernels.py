"""Derivative kernels of the space-time deformation at zero design velocity.

Every kernel evaluated at a space-time point (t, x) is a linear form in the
pair (theta(xi), grad theta(xi)) with xi = phi_t^{-1}(x), represented by
coefficients

    value = a . theta + B : grad theta,       B[k, l] pairs d theta_k / d xi_l.

Vector- and matrix-valued kernels carry one such pair per component, as
leading axes of a and B.  The forms are exact; finite differences of the
underlying transported maps belong in tests only.

``jet1d`` provides the same coefficients as vectorized closed forms for the
one-dimensional assembly paths.
"""

from dataclasses import dataclass

import numpy as np

from .motion import grad_inverse


@dataclass(frozen=True)
class PullbackLinearForm:
    """Linear form a . theta + B : grad theta; the leading axes of a[..., k]
    and B[..., k, l] index the components of a vector or matrix kernel."""

    a: np.ndarray
    B: np.ndarray

    def value(self, theta, grad_theta):
        return (np.tensordot(self.a, theta, 1)
                + np.tensordot(self.B, grad_theta, 2))


def _jet(motion, t, x):
    """Common point data: xi, grad phi, its inverse, grad2 phi, dt phi,
    d(dt phi)/dxi and the time derivative q of the inverse map."""
    x = np.asarray(x, dtype=float)
    xi = motion.inverse(t, x)
    g = motion.grad(t, xi)
    ginv = grad_inverse(g)
    h = motion.grad2(t, xi)
    vhat = motion.dt(t, xi)
    w = motion.dt_grad(t, xi)
    q = -ginv @ vhat
    return xi, g, ginv, h, vhat, w, q


def m_prime(motion, t, x):
    """Derivative of the space-time Jacobian determinant of the deformation."""
    _, _, ginv, h, _, _, _ = _jet(motion, t, x)
    a = np.einsum("ijk,ji->k", h, ginv)
    return PullbackLinearForm(a=a, B=np.eye(motion.dim))


def Fxx_prime(motion, t, x):
    """Derivative of the spatial block of the deformation gradient."""
    _, g, ginv, h, _, _, _ = _jet(motion, t, x)
    a = np.einsum("imk,mj->ijk", h, ginv)
    B = np.einsum("ik,lj->ijkl", g, ginv)
    return PullbackLinearForm(a=a, B=B)


def Fxt_prime(motion, t, x):
    """Derivative of the space-time mixed block of the deformation gradient."""
    _, g, _, h, _, w, q = _jet(motion, t, x)
    a = w + np.einsum("ijk,j->ik", h, q)
    B = np.einsum("ik,l->ikl", g, q)
    return PullbackLinearForm(a=a, B=B)


def b_prime(motion, t, x):
    """Derivative of the convective field of the transported time derivative;
    the negation of Fxt_prime."""
    f = Fxt_prime(motion, t, x)
    return PullbackLinearForm(a=-f.a, B=-f.B)


def A_prime(motion, t, x):
    """Derivative of the transported diffusion tensor:
    m'(theta) I - Fxx'(theta) - Fxx'(theta)^T."""
    m = m_prime(motion, t, x)
    f = Fxx_prime(motion, t, x)
    d = motion.dim
    eye = np.eye(d)
    a = (np.einsum("ij,k->ijk", eye, m.a) - f.a
         - np.transpose(f.a, (1, 0, 2)))
    B = (np.einsum("ij,kl->ijkl", eye, m.B) - f.B
         - np.transpose(f.B, (1, 0, 2, 3)))
    return PullbackLinearForm(a=a, B=B)


def pullback_scalar_derivative(motion, t, x, grad_f):
    """Derivative of theta -> f composed with the deformation, for a smooth
    scalar field with spatial gradient callable grad_f(t, x) -> (dim,)."""
    _, g, _, _, _, _, _ = _jet(motion, t, x)
    a = g.T @ np.asarray(grad_f(t, x), dtype=float)
    return PullbackLinearForm(a=a, B=np.zeros((motion.dim, motion.dim)))


def pullback_vector_derivative(motion, t, x, jac_w):
    """Derivative of theta -> w composed with the deformation, for a smooth
    vector field with spatial Jacobian callable jac_w(t, x) -> (dim, dim)."""
    _, g, _, _, _, _, _ = _jet(motion, t, x)
    a = np.asarray(jac_w(t, x), dtype=float) @ g
    d = motion.dim
    return PullbackLinearForm(a=a, B=np.zeros((d, d, d)))


@dataclass(frozen=True)
class Jet1D:
    """Vectorized one-dimensional kernel coefficients along arrays of
    reference points.  With G = phi', H = phi'', vhat = d phi/dt,
    W = d vhat/dxi and q = -vhat/G, the scalar forms collapse to

        m'(theta)   = (H/G) theta + theta'
        Fxx'(theta) = (H/G) theta + theta'
        A'(theta)   = -(H/G) theta - theta'
        Fxt'(theta) = (W + H q) theta + G q theta'
        v1(theta)   = W theta
        f1(theta)   = G (grad f) theta
    """

    G: np.ndarray
    H: np.ndarray
    vhat: np.ndarray
    W: np.ndarray
    q: np.ndarray

    @property
    def h_over_g(self):
        return self.H / self.G


def jet1d(motion, t, xi):
    """Closed-form kernel ingredients for 1d motions at reference points.

    ``t`` and ``xi`` are equal-shape arrays; the physical point is
    phi_t(xi) and the returned velocity entry vhat equals the Eulerian
    velocity along the trajectory of xi.
    """
    t = np.asarray(t, dtype=float)
    xi = np.asarray(xi, dtype=float)
    pts = xi[..., None]
    g = motion.grad(t, pts)[..., 0, 0]
    h = motion.grad2(t, pts)[..., 0, 0, 0]
    vhat = motion.dt(t, pts)[..., 0]
    w = motion.dt_grad(t, pts)[..., 0, 0]
    return Jet1D(G=g, H=h, vhat=vhat, W=w, q=-vhat / g)

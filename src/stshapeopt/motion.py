"""Analytic motion maps of the design region.

A motion is a time-dependent diffeomorphism ``phi_t`` with ``phi_0 = Id``,
together with its hand-coded derivatives: every subclass of ``Motion``
defines ``forward``, ``grad``, ``grad2``, ``dt`` and ``dt_grad``, from which
the base class derives ``det``, ``inverse`` and the velocities; only
``Polynomial1D.inverse`` (closed form) and ``Rotation2D.det`` (exactly 1)
override a derived method.  ``Motion.inverse`` is a Newton iteration that
stops when every residual component is below ``1e-14 max(1, |y|_inf)``, so
it holds at any scale.  All methods are numpy-batched: ``x`` has shape
``(..., dim)`` and ``t`` broadcasts against the batch shape.  Derivative
conventions:

    grad(t, x)[..., i, j]     = d phi_i / d x_j
    grad2(t, x)[..., i, j, k] = d^2 phi_i / d x_j d x_k
    dt(t, x)[..., i]          = d phi_i / d t
    dt_grad(t, x)[..., i, j]  = d (d phi_i / d t) / d x_j

``velocity(t, y)`` is the Eulerian velocity at a point of the deformed
configuration, i.e. ``dt(t, inverse(t, y))``.
"""

import numpy as np

from .errors import GeometryError

_NEWTON_TOL = 1e-14
_NEWTON_MAX_ITER = 50


def grad_inverse(g):
    """Inverse of a batch of motion gradients ``g[..., i, j]``; a singular one
    raises GeometryError."""
    try:
        return np.linalg.inv(g)
    except np.linalg.LinAlgError:
        raise GeometryError("motion gradient is singular") from None


class Motion:
    """Base class of the motions; see the module docstring."""

    dim = None

    def det(self, t, x):
        g = self.grad(t, x)
        if self.dim == 1:
            return g[..., 0, 0]
        return np.linalg.det(g)

    def inverse(self, t, y):
        """Newton inversion of ``x -> phi_t(x)``."""
        y = np.asarray(y, dtype=float)
        scale = np.maximum(1.0, np.abs(y).max(axis=-1, keepdims=True))
        xi = y.copy()
        for _ in range(_NEWTON_MAX_ITER):
            r = self.forward(t, xi) - y
            if not np.all(np.isfinite(r)):
                break
            if np.all(np.abs(r) < _NEWTON_TOL * scale):
                return xi
            xi = xi - (grad_inverse(self.grad(t, xi)) @ r[..., None])[..., 0]
            if not np.all(np.isfinite(xi)):
                break
        raise GeometryError("motion inversion did not converge; point may lie "
                            "outside the image of the map")

    def velocity(self, t, y):
        return self.dt(t, self.inverse(t, y))

    def velocity_grad(self, t, y):
        """Spatial Jacobian of the Eulerian velocity field."""
        xi = self.inverse(t, y)
        return self.dt_grad(t, xi) @ grad_inverse(self.grad(t, xi))


class Identity(Motion):
    def __init__(self, dim=1):
        self.dim = dim

    def forward(self, t, x):
        return np.array(x, dtype=float, copy=True)

    def grad(self, t, x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(np.eye(self.dim), x.shape + (self.dim,)).copy()

    def grad2(self, t, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape + (self.dim, self.dim))

    def dt(self, t, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def dt_grad(self, t, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape + (self.dim,))


class Rotation2D(Motion):
    """Rigid rotation about the origin with angle 2*pi*t/period."""

    dim = 2

    def __init__(self, period=1.0):
        self.period = float(period)

    def _alpha(self, t):
        return 2.0 * np.pi * np.asarray(t, dtype=float) / self.period

    def _rot(self, alpha):
        c, s = np.cos(alpha), np.sin(alpha)
        return np.moveaxis(np.array([[c, -s], [s, c]]), (0, 1), (-2, -1))

    def _rot_dalpha(self, alpha):
        return self._rot(alpha) @ np.array([[0.0, -1.0], [1.0, 0.0]])

    def forward(self, t, x):
        x = np.asarray(x, dtype=float)
        return np.einsum("...ij,...j->...i", self._rot(self._alpha(t)), x)

    def grad(self, t, x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(self._rot(self._alpha(t)),
                               x.shape + (2,)).copy()

    def grad2(self, t, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape + (2, 2))

    def dt(self, t, x):
        rate = 2.0 * np.pi / self.period
        rp = self._rot_dalpha(self._alpha(t))
        return rate * np.einsum("...ij,...j->...i", rp, np.asarray(x, float))

    def dt_grad(self, t, x):
        x = np.asarray(x, dtype=float)
        rate = 2.0 * np.pi / self.period
        rp = rate * self._rot_dalpha(self._alpha(t))
        return np.broadcast_to(rp, x.shape + (2,)).copy()

    def det(self, t, x):
        x = np.asarray(x, dtype=float)
        return np.ones(x.shape[:-1])


class Polynomial1D(Motion):
    """phi_t(x) = x + t*x**2, strictly monotone on [0, 1] for t in [0, 1]."""

    dim = 1

    def forward(self, t, x):
        x = np.asarray(x, dtype=float)
        tb = np.asarray(t, dtype=float)[..., None] if np.ndim(t) else t
        return x + tb * x * x

    def grad(self, t, x):
        x = np.asarray(x, dtype=float)
        tb = np.asarray(t, dtype=float)[..., None] if np.ndim(t) else t
        return (1.0 + 2.0 * tb * x)[..., None]

    def grad2(self, t, x):
        x = np.asarray(x, dtype=float)
        tb = np.asarray(t, dtype=float)[..., None] if np.ndim(t) else t
        return np.broadcast_to(np.asarray(2.0 * tb)[..., None, None],
                               x.shape + (1, 1)).copy()

    def dt(self, t, x):
        x = np.asarray(x, dtype=float)
        return x * x

    def dt_grad(self, t, x):
        x = np.asarray(x, dtype=float)
        return (2.0 * x)[..., None]

    def inverse(self, t, y):
        """Closed-form root of t x^2 + x = y, written without the
        cancellation of (sqrt(1 + 4ty) - 1) / 2t, so t = 0 needs no case."""
        y = np.asarray(y, dtype=float)
        tb = np.asarray(t, dtype=float)[..., None] if np.ndim(t) else t
        with np.errstate(invalid="ignore"):
            xi = 2.0 * y / (1.0 + np.sqrt(1.0 + 4.0 * tb * y))
        if not np.all(np.isfinite(xi)):
            raise GeometryError("point lies outside the image of the map")
        return xi


class CustomMotion(Motion):
    """User-supplied motion from closures that implement the batched shape
    conventions of this module and satisfy phi_0 = Id; it inverts through
    the base class's Newton iteration."""

    def __init__(self, dim, forward, grad, grad2, dt, dt_grad):
        self.dim = dim
        self._forward = forward
        self._grad = grad
        self._grad2 = grad2
        self._dt = dt
        self._dt_grad = dt_grad

    def forward(self, t, x):
        return self._forward(t, np.asarray(x, dtype=float))

    def grad(self, t, x):
        return self._grad(t, np.asarray(x, dtype=float))

    def grad2(self, t, x):
        return self._grad2(t, np.asarray(x, dtype=float))

    def dt(self, t, x):
        return self._dt(t, np.asarray(x, dtype=float))

    def dt_grad(self, t, x):
        return self._dt_grad(t, np.asarray(x, dtype=float))

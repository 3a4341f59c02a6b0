"""Per-phase material laws and the annulus torque weight.

Conductivity is a nonnegative constant per phase.  Reluctivity is either a
positive constant or a saturating curve

    nu(s) = nu_a - (nu_a - c1) * exp(-c2 * s**c3),

monotone increasing from c1 towards nu_a, with c1 the lower reluctivity
bound.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, MaterialError

# Below this gradient magnitude the nu'(s)/s quotient is replaced by its
# removable-singularity limit.
GRADIENT_GUARD = 1e-12


def _check_s(s):
    s = np.asarray(s, dtype=float)
    if not np.all(np.isfinite(s)):
        raise MaterialError("reluctivity argument must be finite")
    if np.any(s < 0):
        raise MaterialError("reluctivity argument must be nonnegative")
    return s


@dataclass(frozen=True)
class ConstantReluctivity:
    value: float

    def __post_init__(self):
        if not 0 < self.value < np.inf:
            raise MaterialError(f"reluctivity must be positive and finite, "
                                f"got {self.value}")

    def eval(self, s):
        s = _check_s(s)
        return np.full_like(s, self.value), np.zeros_like(s)


@dataclass(frozen=True)
class ReluctivityCurve:
    nu_a: float
    c1: float
    c2: float
    c3: float

    def __post_init__(self):
        if not 0 < self.c1 < self.nu_a < np.inf:
            raise MaterialError("curve requires 0 < c1 < nu_a < inf")
        if not 0 < self.c2 < np.inf:
            raise MaterialError("curve requires 0 < c2 < inf")
        if not 2 <= self.c3 < np.inf:
            raise MaterialError("curve exponent c3 must be finite and at "
                                "least 2")

    @property
    def nu_lower(self):
        return self.c1

    @property
    def lipschitz_bound(self):
        """Exact supremum of d(nu(s) s)/ds = nu_a + (nu_a - c1)
        exp(-z)(c3 z - 1) over z = c2 s**c3 >= 0, attained at z = 1 + 1/c3."""
        return self.nu_a + (self.nu_a - self.c1) * self.c3 \
            * np.exp(-(1.0 + 1.0 / self.c3))

    def eval(self, s):
        s = _check_s(s)
        e = np.exp(-self.c2 * s ** self.c3)
        nu = self.nu_a - (self.nu_a - self.c1) * e
        nu_prime = (self.nu_a - self.c1) * self.c2 * self.c3 \
            * s ** (self.c3 - 1.0) * e
        return nu, nu_prime

    def prime_over_s(self, s):
        """nu'(s)/s with its limit value at s -> 0 (zero for c3 > 2)."""
        s = _check_s(s)
        small = s < GRADIENT_GUARD
        safe = np.where(small, 1.0, s)
        _, nu_prime = self.eval(safe)
        ratio = nu_prime / safe
        limit = (self.nu_a - self.c1) * self.c2 * self.c3 \
            if self.c3 == 2 else 0.0
        return np.where(small, limit, ratio)


@dataclass(frozen=True)
class PhaseMaterial:
    sigma: float
    nu: object

    def __post_init__(self):
        if not 0 <= self.sigma < np.inf:
            raise MaterialError(f"conductivity must be finite and >= 0, "
                                f"got {self.sigma}")


@dataclass(frozen=True)
class PhaseLayout:
    """Immutable map from mesh phase label to material."""

    materials: dict

    def _masks(self, phases):
        """(material, element mask) of every phase some element has, in
        `materials` order; MaterialError if an element's phase has none."""
        phases = np.asarray(phases)
        masks = [(mat, phases == pid) for pid, mat in self.materials.items()]
        masks = [(mat, mask) for mat, mask in masks if np.any(mask)]
        if sum(np.count_nonzero(mask) for _, mask in masks) != phases.size:
            missing = np.setdiff1d(phases, list(self.materials))
            raise MaterialError(f"no material for phase {missing.tolist()}")
        return masks

    def sigma(self, phases):
        out = np.empty(len(phases))
        for mat, mask in self._masks(phases):
            out[mask] = mat.sigma
        return out

    def reluctivity(self, phases, s):
        """(nu, nu') per element: each phase's law at its elements' s."""
        nu, nu_prime = np.empty_like(s), np.empty_like(s)
        for mat, mask in self._masks(phases):
            nu[mask], nu_prime[mask] = mat.nu.eval(s[mask])
        return nu, nu_prime

    @property
    def all_constant(self):
        return all(isinstance(m.nu, ConstantReluctivity)
                   for m in self.materials.values())


def arkkio_q(x):
    """Torque weight matrix at a point, or (..., 2, 2) at a batch (..., 2);
    symmetric, trace-free, |Q|_F = |x|/sqrt(2)."""
    x = np.asarray(x, dtype=float)
    r = np.hypot(x[..., 0], x[..., 1])
    if np.any(r == 0.0):
        raise GeometryError("torque weight is singular at the origin")
    diag = x[..., 0] * x[..., 1] / r
    off = 0.5 * (x[..., 1] ** 2 - x[..., 0] ** 2) / r
    return np.stack((diag, off, off, -diag), axis=-1).reshape(x.shape + (2,))


def arkkio_torque(points, triangles, u, r_inner, r_outer, length, nu_air):
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
    if u.shape != (len(points),):
        raise GeometryError(f"potential has shape {u.shape}, points have "
                            f"({len(points)},)")
    if triangles.shape[1:] != (3,) or np.any((triangles < 0)
                                            | (triangles >= len(points))):
        raise GeometryError(f"triangles must be an (n, 3) array of indices "
                            f"in [0, {len(points)})")

    a, b, c = points[triangles].transpose(1, 0, 2)
    radius = np.hypot(*((a + b + c) / 3.0).T)
    inside = np.flatnonzero((radius > r_inner) & (radius < r_outer))
    if not inside.size:
        raise GeometryError("annulus does not intersect the mesh")

    a, b, c = a[inside], b[inside], c[inside]
    d1, d2 = b - a, c - a
    area = 0.5 * np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    if not np.all(area > 0.0):
        first = inside[np.argmin(area > 0.0)]
        raise GeometryError(f"triangle {first} in the annulus has no area")
    # grad u solves d1 . g = u_b - u_a and d2 . g = u_c - u_a
    du = u[triangles[inside, 1:]] - u[triangles[inside, :1]]
    grad_u = np.linalg.solve(np.stack((d1, d2), axis=1), du[..., None])[..., 0]
    weight = sum(np.einsum("eij,ei,ej->e", arkkio_q(qp), grad_u, grad_u)
                 for qp in ((a + b) / 2, (b + c) / 2, (c + a) / 2))
    return length * nu_air / (r_outer - r_inner) * (area / 3.0) @ weight

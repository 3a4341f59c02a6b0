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
    """Torque weight matrix; symmetric, trace-free, |Q|_F = |x|/sqrt(2)."""
    x = np.asarray(x, dtype=float)
    r = np.hypot(x[0], x[1])
    if r == 0.0:
        raise GeometryError("torque weight is singular at the origin")
    off = 0.5 * (x[1] ** 2 - x[0] ** 2)
    return np.array([[x[0] * x[1], off], [off, -x[0] * x[1]]]) / r


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

    p0 = points[triangles[:, 0]]
    p1 = points[triangles[:, 1]]
    p2 = points[triangles[:, 2]]
    centroid = (p0 + p1 + p2) / 3.0
    radius = np.hypot(centroid[:, 0], centroid[:, 1])
    inside = (radius > r_inner) & (radius < r_outer)
    if not np.any(inside):
        raise GeometryError("annulus does not intersect the mesh")

    total = 0.0
    for e in np.nonzero(inside)[0]:
        tri = triangles[e]
        a, b, c = points[tri]
        d1, d2 = b - a, c - a
        area = 0.5 * abs(d1[0] * d2[1] - d1[1] * d2[0])
        if not area > 0.0:
            raise GeometryError(f"triangle {e} in the annulus has no area")
        mat = np.column_stack((d1, d2))
        grads_ref = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
        grads = grads_ref @ np.linalg.inv(mat)
        grad_u = u[tri] @ grads
        for qp in ((a + b) / 2, (b + c) / 2, (c + a) / 2):
            total += (area / 3.0) * float(arkkio_q(qp) @ grad_u @ grad_u)
    return length * nu_air / (r_outer - r_inner) * total

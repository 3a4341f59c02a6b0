"""Continuous P1 space-time finite elements on the moving-interface mesh.

Solves the time-periodic evolution problem

    sigma (du/dt + v . grad u) - div( nu(|grad u|) grad u ) = f

in weak form on the space-time mesh, with homogeneous Dirichlet data on the
lateral boundary and the generalized periodic identification u(0, xi) =
u(T, phi_T(xi)) folded into the degree-of-freedom map (trial and test
functions alike, which keeps the system square).

The adjoint solve uses the transpose of the state Jacobian at the solved
state, so the tangent/adjoint duality holds in exact arithmetic on any mesh.
Quadrature is the second-order edge-midpoint rule; under P1 the reluctivity
argument |grad u| is constant per element.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import AssemblyError, NonconvergenceError, SolverError
from .kernels import jet1d
from .mesh import NQ, MeshGeometry, mesh_geometry

LINEAR_RESIDUAL_TOL = 1e-12
# SuperLU supernode settings for every factorization (see LinearSystem).
LU_RELAX = 1
LU_PANEL_SIZE = 2


@dataclass(frozen=True)
class DofMap:
    """Reduced index set: lateral vertices fixed to zero, top-row vertices
    aliased to their periodic bottom partner."""

    vertex_dof: np.ndarray
    n_free: int

    @classmethod
    def from_mesh(cls, mesh):
        lateral = mesh.lateral_vertex_mask()
        top = mesh.row == mesh.n_t
        own = ~lateral & ~top
        vertex_dof = np.full(mesh.n_vertices, -1, dtype=int)
        vertex_dof[own] = np.arange(np.count_nonzero(own))
        # Bottom-row vertex ids equal the column index.
        top_ids = np.nonzero(top & ~lateral)[0]
        vertex_dof[top_ids] = vertex_dof[mesh.column[top_ids]]
        return cls(vertex_dof=vertex_dof, n_free=int(np.count_nonzero(own)))


@dataclass
class Field:
    """Nodal coefficients over the free degrees of freedom."""

    dofmap: DofMap
    values: np.ndarray

    @classmethod
    def zeros(cls, dofmap):
        return cls(dofmap, np.zeros(dofmap.n_free))

    def nodal(self):
        """Full vertex vector; Dirichlet vertices are exactly zero and top
        vertices repeat their periodic partner."""
        out = np.zeros(len(self.dofmap.vertex_dof))
        has = self.dofmap.vertex_dof >= 0
        out[has] = self.values[self.dofmap.vertex_dof[has]]
        return out


@dataclass(frozen=True)
class Objective:
    """Integrand j and derivative j' of the space-time objective."""

    j: object
    jprime: object


@dataclass(frozen=True)
class ElementGeometry(MeshGeometry):
    """Mesh geometry, layout data and u-independent blocks built on use."""

    sigma: np.ndarray
    phase_groups: list

    @cached_property
    def conv(self):
        """Convection weights (area / 3) sum_q v_q N_i(q), (n_e, 3)."""
        return (self.area / 3.0)[:, None] * (self.qp_v @ NQ)

    @cached_property
    def sigma_block(self):
        """The Jacobian's u-independent blocks, (n_e, 3, 3)."""
        return (self.sigma * self.area / 3.0)[:, None, None] \
            * self.grad_t[:, None, :] + self.sigma[:, None, None] \
            * self.conv[:, :, None] * self.grad_x[:, None, :]


def element_geometry(mesh, layout):
    """Per-element data shared by the assembly routines."""
    groups = [(mesh.phases == pid, mat.nu)
              for pid, mat in layout.materials.items()]
    return ElementGeometry(**vars(mesh_geometry(mesh)),
                           sigma=layout.sigma(mesh.phases),
                           phase_groups=groups)


def _reluctivity_arrays(geom, grad_norm):
    nu, nu_prime = np.empty_like(grad_norm), np.empty_like(grad_norm)
    for mask, law in geom.phase_groups:
        if np.any(mask):
            nu[mask], nu_prime[mask] = law.eval(grad_norm[mask])
    return nu, nu_prime


def _slope(ue, grad):
    """Per-element sum_i ue_i grad_i, added as np.sum(axis=1) adds it."""
    return ue[:, 0] * grad[:, 0] + ue[:, 1] * grad[:, 1] \
        + ue[:, 2] * grad[:, 2]


def _scatter_vector(mesh, dofmap, local):
    rows = dofmap.vertex_dof[mesh.elements]
    valid = rows >= 0
    return np.bincount(rows[valid], local[valid], minlength=dofmap.n_free)


_ASSEMBLY_PLAN = [None]
_COLUMN_ORDER = [None]


def _held(cache, key):
    """Value of a one-entry [(key, value)] cache whose key equals ``key``."""
    entry = cache[0]
    if entry is not None and all(map(np.array_equal, entry[0], key)):
        return entry[1]


def _assembly_plan(dofs, n_free):
    """CSC pattern, and a CSR matrix S of boolean ones with one row per
    stored entry, holding the flat ids of the local 3x3 entries it sums in
    the order COO-to-CSC conversion adds them: a stable bucket by column,
    SciPy's per-column index sort, then left to right.  S @ local adds each
    row left to right from 0.0 as that conversion does, bit for bit."""
    dofs = dofs.astype(np.int32)
    rows = np.repeat(dofs, 3, axis=1).ravel()
    cols = np.tile(dofs, (1, 3)).ravel()
    ids = np.flatnonzero((rows >= 0) & (cols >= 0)).astype(np.int32)
    ids = ids[np.argsort(cols[ids], kind="stable")]
    cols = cols[ids]
    bounds = np.arange(n_free + 1)
    csc = sp.csc_matrix((ids, rows[ids], np.searchsorted(cols, bounds)))
    csc.sort_indices()
    first = np.r_[True, (csc.indices[1:] != csc.indices[:-1])
                  | (cols[1:] != cols[:-1])]
    starts = np.r_[np.flatnonzero(first), len(ids)].astype(np.int32)
    summation = sp.csr_matrix((np.ones(len(ids), bool), csc.data, starts),
                              shape=(len(starts) - 1, dofs.size * 3))
    return (np.searchsorted(cols[first], bounds).astype(np.int32),
            csc.indices[first], summation)


def _scatter_matrix(mesh, dofmap, local):
    key = (dofmap.vertex_dof[mesh.elements], dofmap.n_free)
    plan = _held(_ASSEMBLY_PLAN, key) or _assembly_plan(*key)
    _ASSEMBLY_PLAN[0] = (key, plan)
    indptr, indices, summation = plan
    # The cached pattern is copied, so no caller can alter it.
    return sp.csc_matrix((summation @ local.reshape(-1), indices.copy(),
                          indptr.copy()),
                         shape=(dofmap.n_free, dofmap.n_free))


def _load_vector(mesh, geom, dofmap, source):
    f_q = source.values(geom.qp_t, geom.qp_x, geom.qp_xi)
    local = (geom.area / 3.0)[:, None] * (f_q @ NQ)
    if not np.all(np.isfinite(local)):
        bad = int(np.nonzero(~np.isfinite(local).all(axis=1))[0][0])
        raise AssemblyError(f"non-finite load contribution in element {bad}")
    return _scatter_vector(mesh, dofmap, local)


def _residual_local(mesh, geom, u_nodal):
    ue = u_nodal[mesh.elements]
    u_t, u_x = _slope(ue, geom.grad_t), _slope(ue, geom.grad_x)
    nu, _ = _reluctivity_arrays(geom, np.abs(u_x))
    local = geom.sigma[:, None] * (u_t[:, None] * (geom.area / 3.0)[:, None]
                                   + u_x[:, None] * geom.conv)
    local += (nu * u_x * geom.area)[:, None] * geom.grad_x
    if not np.all(np.isfinite(local)):
        bad = int(np.nonzero(~np.isfinite(local).all(axis=1))[0][0])
        raise AssemblyError(f"non-finite residual contribution in element {bad}")
    return local


def _jacobian_matrix(mesh, geom, dofmap, u_nodal):
    u_x = _slope(u_nodal[mesh.elements], geom.grad_x)
    nu, nu_prime = _reluctivity_arrays(geom, np.abs(u_x))
    d_nu = nu + nu_prime * np.abs(u_x)
    # C order: a flat view of the column-major grad_x products would copy
    k = np.add(geom.sigma_block, (d_nu * geom.area)[:, None, None]
               * geom.grad_x[:, :, None] * geom.grad_x[:, None, :], order="C")
    return _scatter_matrix(mesh, dofmap, k)


def assemble_state_residual(mesh, layout, u, source):
    """Weak-form residual of the state equation at the field u."""
    geom = element_geometry(mesh, layout)
    dofmap = u.dofmap
    local = _residual_local(mesh, geom, u.nodal())
    return _scatter_vector(mesh, dofmap, local) \
        - _load_vector(mesh, geom, dofmap, source)


def assemble_state_jacobian(mesh, layout, u):
    """Gateaux derivative of the state residual; u-independent when all
    reluctivity laws are constant."""
    geom = element_geometry(mesh, layout)
    return _jacobian_matrix(mesh, geom, u.dofmap, u.nodal())


class LinearSystem:
    """Sparse direct solve with a relative-residual contract of 1e-12.

    The space-time Jacobian is structurally close to symmetric, so SuperLU
    orders its columns by minimum degree on A^T + A, which fills far less
    than the default COLAMD ordering (X. S. Li, ACM TOMS 31(3), 2005).
    The ordering depends only on the pattern, so it is computed once per
    pattern; later matrices factor A[:, order] in natural order.

    Both factorizations pass ``relax=LU_RELAX`` and
    ``panel_size=LU_PANEL_SIZE`` instead of SuperLU's defaults (10 and 20).
    With two-column panels and no relaxed supernodes, these Jacobians
    factor in 0.55-0.8 of the default time at 48^2-320^2 (0.85-0.9 at
    640^2), with the same row pivots and fill; only the order in which
    updates are summed changes.
    ``relax`` must not exceed ``panel_size``: with relax=64, panel sizes 8
    and 32 crashed the process.

    ``factored`` is an earlier LinearSystem whose factor is taken over when
    its matrix has the same CSC indptr, indices and data; any other matrix
    is factored afresh.  The matrix is copied, so changing the caller's
    array afterwards changes neither the solves nor that comparison.

    ``jacobian_of`` is the (mesh, layout) pair whose constant-law Jacobian
    the matrix is, as set by ``solve_state``; None for any other matrix."""

    jacobian_of = None

    def __init__(self, matrix, factored=None):
        self.matrix = matrix = sp.csc_matrix(matrix, copy=True)
        if factored is not None and all(
                np.array_equal(getattr(matrix, a), getattr(factored.matrix, a))
                for a in ("indptr", "indices", "data")):
            self.lu = factored.lu
            self.order, self.position = factored.order, factored.position
            return
        pattern = (matrix.indptr, matrix.indices)
        identity = np.arange(matrix.shape[1])
        self.order, self.position, ids = _held(_COLUMN_ORDER, pattern) \
            or (identity, identity, None)
        target = matrix if ids is None else sp.csc_matrix(
            (matrix.data[ids.data], ids.indices, ids.indptr), matrix.shape)
        try:
            self.lu = spla.splu(target, permc_spec="MMD_AT_PLUS_A"
                                if ids is None else "NATURAL",
                                relax=LU_RELAX, panel_size=LU_PANEL_SIZE)
        except RuntimeError as exc:
            raise SolverError(f"factorization failed: {exc}") from exc
        if ids is None:
            # perm_c[i] is the position that column i of A takes; it is a
            # view that would keep this factor alive, so no cache holds it.
            order = np.argsort(self.lu.perm_c)
            ids = sp.csc_matrix((np.arange(matrix.nnz, dtype=np.int32),
                                 matrix.indices, matrix.indptr))[:, order]
            _COLUMN_ORDER[0] = (tuple(map(np.copy, pattern)),
                                (order, np.argsort(order), ids))

    def _lu_solve(self, b, transpose):
        if transpose:
            return self.lu.solve(b[self.order], trans="T")
        return self.lu.solve(b)[self.position]

    def _refined(self, b, transpose):
        mat = self.matrix.T if transpose else self.matrix
        x = self._lu_solve(b, transpose)
        scale = max(np.linalg.norm(b), 1.0)
        for _ in range(2):
            r = b - mat @ x
            if np.linalg.norm(r) <= LINEAR_RESIDUAL_TOL * scale:
                return x
            x = x + self._lu_solve(r, transpose)
        r = b - mat @ x
        # Written so that a NaN residual fails the contract too.
        if not np.linalg.norm(r) <= LINEAR_RESIDUAL_TOL * scale:
            raise SolverError("direct solve missed the residual contract")
        return x

    def solve(self, b):
        return self._refined(b, transpose=False)

    def solve_transpose(self, b):
        return self._refined(b, transpose=True)


@dataclass(frozen=True)
class NewtonOptions:
    tol: float = 1e-10
    max_iter: int = 30
    min_damping: float = 1e-6


@dataclass
class SolveResult:
    """State field and Newton history.  ``system`` is the last Newton
    step's LinearSystem when every reluctivity law is constant, since only
    then is its matrix the Jacobian at ``u``; otherwise it is None.  It
    holds a whole LU factor, so drop it once the adjoint has used it."""

    u: Field
    iterations: int
    residual_norms: list = field(default_factory=list)
    system: LinearSystem = None


def solve_state(mesh, layout, source, newton=None, initial_guess=None):
    """Damped Newton solve of the state problem.

    Args:
        mesh, layout, source: problem data; the motion is carried by the mesh.
        newton: NewtonOptions; the tolerance is relative to the larger of the
            load norm and the initial residual norm.
        initial_guess: optional Field used to warm-start the iteration.

    Returns a SolveResult.  With constant reluctivity the Jacobian A does
    not depend on u: it is assembled once, each residual is A u - load
    instead of an element pass unless its norm lies within a factor 2 of
    the tolerance, and the factor of A is handed over as
    ``SolveResult.system``.
    """
    newton = newton or NewtonOptions()
    geom = element_geometry(mesh, layout)
    dofmap = DofMap.from_mesh(mesh)
    u = Field.zeros(dofmap) if initial_guess is None \
        else Field(dofmap, initial_guess.values.copy())

    load = _load_vector(mesh, geom, dofmap, source)
    if layout.all_constant:
        matrix = _jacobian_matrix(mesh, geom, dofmap, u.nodal())
    scale = np.linalg.norm(load)

    def residual(u_field):
        if layout.all_constant:
            res = matrix @ u_field.values - load
            # A u - load differs from the element pass in roundoff, so near
            # the tolerance the element pass decides: a converged state
            # then meets it in assemble_state_residual too
            bound = newton.tol * scale
            if not 0.5 * bound < np.linalg.norm(res) < 2.0 * bound:
                return res
        local = _residual_local(mesh, geom, u_field.nodal())
        return _scatter_vector(mesh, dofmap, local) - load

    res = residual(u)
    res_norm = np.linalg.norm(res)
    scale = max(scale, res_norm)
    if scale == 0.0:
        return SolveResult(u=u, iterations=0, residual_norms=[0.0])

    norms = [res_norm]
    system = None
    # Written so that a NaN residual never counts as converged.
    while not res_norm <= newton.tol * scale:
        if len(norms) > newton.max_iter:
            raise NonconvergenceError(
                f"Newton did not converge in {newton.max_iter} iterations "
                f"(residual {res_norm:.3e})", residual=res_norm)
        system = None  # so that two factors are never alive at once
        if layout.all_constant:
            system = LinearSystem(matrix)
            system.jacobian_of = (mesh, layout)
        else:
            system = LinearSystem(
                _jacobian_matrix(mesh, geom, dofmap, u.nodal()))
        delta = system.solve(-res)
        damping = 1.0
        while True:
            if damping < newton.min_damping:
                raise NonconvergenceError(
                    f"Newton damping underflow at residual {res_norm:.3e}",
                    residual=res_norm)
            trial = Field(dofmap, u.values + damping * delta)
            trial_res = residual(trial)
            trial_norm = np.linalg.norm(trial_res)
            if trial_norm < res_norm:
                u, res, res_norm = trial, trial_res, trial_norm
                norms.append(res_norm)
                break
            damping *= 0.5
    return SolveResult(u=u, iterations=len(norms) - 1, residual_norms=norms,
                       system=system if layout.all_constant else None)


def objective_gradient_vector(mesh, u, objective):
    """Exact derivative of the discrete objective with respect to the free
    coefficients of u."""
    area = mesh_geometry(mesh).area
    u_q = u.nodal()[mesh.elements] @ NQ.T
    local = (area / 3.0)[:, None] * (objective.jprime(u_q) @ NQ)
    return _scatter_vector(mesh, u.dofmap, local)


def solve_adjoint(mesh, layout, u, objective, factored=None):
    """Adjoint field from the transposed state Jacobian at u, loaded with
    the negative objective derivative.

    ``factored`` is an earlier LinearSystem, normally the ``system`` of the
    SolveResult that gave u.  If every law is constant and ``factored``
    comes from ``solve_state`` on this same mesh and layout object, its
    matrix is this u-independent Jacobian and nothing is assembled;
    otherwise the factor is reused only if the assembled Jacobian equals
    its matrix entry for entry."""
    origin = getattr(factored, "jacobian_of", None)
    if layout.all_constant and origin is not None \
            and origin[0] is mesh and origin[1] is layout:
        matrix = factored.matrix
    else:
        matrix = assemble_state_jacobian(mesh, layout, u)
    system = LinearSystem(matrix, factored=factored)
    b = -objective_gradient_vector(mesh, u, objective)
    return Field(u.dofmap, system.solve_transpose(b))


def _derivative_integrand(jets, sigma, nu, nu_prime, u_t, u_x, ju, f, grad_f,
                          p, p_x):
    """Coefficients (s0, s1) of theta and theta' in the shape-derivative
    integrand at arrays of points: every term of the transported state form
    differentiated through the pullback kernels, tested with a function of
    value p and space slope p_x.

    The state enters through its time and space slopes u_t, u_x and j(u);
    nu and nu_prime are the reluctivity and its derivative at |u_x|.
    """
    hog = jets.h_over_g
    du_dt = u_t + jets.vhat * u_x
    c_m = ju + sigma * du_dt * p - f * p
    s0 = c_m * hog
    s1 = c_m.copy()
    # transported convection of the state gradient
    s0 += -sigma * p * jets.vhat * u_x * hog
    s1 += -sigma * p * jets.vhat * u_x
    # derivative of the velocity pullback
    s0 += sigma * p * u_x * jets.W
    # derivative of the transported time direction
    s0 += -sigma * p * u_x * (jets.W + jets.H * jets.q)
    s1 += -sigma * p * u_x * jets.G * jets.q
    # diffusion tensor derivative, with the nonlinear correction
    flux = -(nu + nu_prime * np.abs(u_x)) * u_x * p_x
    s0 += flux * hog
    s1 += flux
    # derivative of the source pullback
    s0 += -p * jets.G * grad_f
    return s0, s1


def _element_rule(mesh, layout, u, source, spatial_mesh, theta, j, test):
    """Weighted shape-derivative integrand at the element quadrature points
    (axis 1) for P1 test functions given by their vertex values test
    (n_e or 1, 3, k); j is the objective integrand."""
    geom = element_geometry(mesh, layout)
    ue = u.nodal()[mesh.elements]
    u_t, u_x = _slope(ue, geom.grad_t), _slope(ue, geom.grad_x)
    nu, nu_prime = _reluctivity_arrays(geom, np.abs(u_x))
    t, x, xi = (a[..., None] for a in (geom.qp_t, geom.qp_x, geom.qp_xi))
    s0, s1 = _derivative_integrand(
        jet1d(mesh.motion, t, xi), geom.sigma[:, None, None],
        nu[:, None, None], nu_prime[:, None, None], u_t[:, None, None],
        u_x[:, None, None], j(ue @ NQ.T)[..., None], source.values(t, x, xi),
        source.gradient(t, x, xi), np.einsum("qi,eik->eqk", NQ, test),
        np.einsum("ei,eik->ek", geom.grad_x, test)[:, None, :])
    weight = (geom.area / 3.0)[:, None, None]
    return weight * (s0 * spatial_mesh.interpolate(theta, xi)
                     + s1 * spatial_mesh.interpolate_gradient(theta, xi))


def tangent_rhs(mesh, layout, u, source, spatial_mesh, theta):
    """Right-hand side of the tangent (material-derivative) problem for the
    spatial design velocity theta: the derivative integrand without j(u),
    tested with every P1 basis function."""
    rule = _element_rule(mesh, layout, u, source, spatial_mesh, theta,
                         np.zeros_like, np.eye(3)[None])
    return _scatter_vector(mesh, u.dofmap, -np.sum(rule, axis=1))


def volume_form_pairing(mesh, layout, u, p, source, objective, spatial_mesh,
                        theta):
    """Shape derivative J'(theta) evaluated with the element quadrature:
    the derivative integrand tested with the adjoint p.  Same volume form
    as the trajectory densities, different quadrature."""
    test = p.nodal()[mesh.elements][..., None]
    return float(np.sum(_element_rule(mesh, layout, u, source, spatial_mesh,
                                      theta, objective.j, test)))


def solve_tangent(mesh, layout, u, source, spatial_mesh, theta):
    """Material derivative of the state with respect to the design velocity
    theta; the right side is linear in theta."""
    system = LinearSystem(assemble_state_jacobian(mesh, layout, u))
    rhs = tangent_rhs(mesh, layout, u, source, spatial_mesh, theta)
    return Field(u.dofmap, system.solve(rhs))


def evaluate_objective(mesh, u, objective):
    """Element quadrature of j(u) over the space-time region."""
    area = mesh_geometry(mesh).area
    u_q = u.nodal()[mesh.elements] @ NQ.T
    return float(np.sum((area / 3.0) * np.sum(objective.j(u_q), axis=1)))

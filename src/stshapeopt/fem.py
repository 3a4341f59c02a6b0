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

from .errors import (AssemblyError, GeometryError, NonconvergenceError,
                     SolverError)
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
    """Mesh geometry, the layout with its sigma per element, and the
    u-independent blocks, built on first use; one per state solve.  The
    blocks are vertex-major too: (n_e, 3, 3) is the transpose of (3, 3,
    n_e)."""

    sigma: np.ndarray
    layout: object

    @cached_property
    def conv(self):
        """Convection weights (area / 3) sum_q v_q N_i(q), (n_e, 3)."""
        return ((self.area / 3.0) * (NQ.T @ self.qp_v.T)).T

    @cached_property
    def sigma_block(self):
        """The Jacobian's u-independent blocks, (n_e, 3, 3)."""
        grad_t, grad_x = self.grad_t.T[:, None], self.grad_x.T[:, None]
        return ((self.sigma * self.area / 3.0) * grad_t
                + self.sigma * self.conv.T * grad_x).T

    @cached_property
    def coupled(self):
        """Local Jacobian entries that can be nonzero, (n_e, 3, 3): all of a
        conducting element; in a sigma = 0 element only those between the
        two vertices of its time-level edge, as the third has grad_x = 0."""
        moves = self.grad_x.T != 0
        return ((self.sigma != 0) | (moves[:, None] & moves)).T


def element_geometry(mesh, layout):
    """Per-element data shared by the assembly routines."""
    return ElementGeometry(**vars(mesh_geometry(mesh)),
                           sigma=layout.sigma(mesh.phases), layout=layout)


def _slope(ue, grad):
    """Per-element sum_i ue_i grad_i, added as np.sum(axis=1) adds it."""
    return ue[:, 0] * grad[:, 0] + ue[:, 1] * grad[:, 1] \
        + ue[:, 2] * grad[:, 2]


def _scatter_vector(mesh, dofmap, local):
    """Sum of the local (n_e, 3) contributions per free dof.  bincount adds
    in input order, so its input is element-major, stacked one vertex column
    at a time; fixed vertices add into a spare last bin."""
    bins = np.where(dofmap.vertex_dof >= 0, dofmap.vertex_dof, dofmap.n_free)
    rows = np.stack(tuple(bins[mesh.elements.T]), axis=1)
    values = np.stack(tuple(local.T), axis=1)
    return np.bincount(rows.ravel(), values.ravel(),
                       minlength=dofmap.n_free + 1)[:-1]


_ASSEMBLY_PLAN = [None]
_COLUMN_ORDER = [None]


def _held(cache, key):
    """Value of a one-entry [(key, value)] cache whose key equals ``key``."""
    entry = cache[0]
    if entry is not None and all(map(np.array_equal, entry[0], key)):
        return entry[1]


def _assembly_plan(dofs, n_free, coupled):
    """CSC pattern of the ``coupled`` local entries, and a CSR matrix S of
    boolean ones with one row per stored entry, summing the coupled local
    3x3 entries in the order COO-to-CSC conversion of the element-major
    triplets adds them: a stable bucket by column, SciPy's per-column index
    sort, then left to right.  An entry's id is its position e + n_e (a +
    3 b) in the vertex-major local array, so S @ local.ravel(order="F")
    adds each row left to right from 0.0 as that conversion does, bit for
    bit."""
    dofs = dofs.astype(np.int32)
    rows = np.repeat(dofs, 3, axis=1).ravel()
    cols = np.tile(dofs, (1, 3)).ravel()
    ids = np.flatnonzero((rows >= 0) & (cols >= 0)
                         & coupled.ravel()).astype(np.int32)
    ids = ids[np.argsort(cols[ids], kind="stable")]
    cols = cols[ids]
    bounds = np.arange(n_free + 1)
    csc = sp.csc_matrix((ids, rows[ids], np.searchsorted(cols, bounds)))
    csc.sort_indices()
    first = np.r_[True, (csc.indices[1:] != csc.indices[:-1])
                  | (cols[1:] != cols[:-1])]
    starts = np.r_[np.flatnonzero(first), len(ids)].astype(np.int32)
    position = np.arange(dofs.size * 3, dtype=np.int32).reshape(3, 3, -1)
    summation = sp.csr_matrix((np.ones(len(ids), bool),
                               position.T.ravel()[csc.data], starts),
                              shape=(len(starts) - 1, dofs.size * 3))
    return (np.searchsorted(cols[first], bounds).astype(np.int32),
            csc.indices[first], summation)


def _scatter_matrix(mesh, dofmap, local, coupled):
    key = (dofmap.vertex_dof[mesh.elements], dofmap.n_free, coupled)
    plan = _held(_ASSEMBLY_PLAN, key) or _assembly_plan(*key)
    _ASSEMBLY_PLAN[0] = (key, plan)
    indptr, indices, summation = plan
    # The cached pattern is copied, so no caller can alter it.
    return sp.csc_matrix((summation @ local.ravel(order="F"), indices.copy(),
                          indptr.copy()),
                         shape=(dofmap.n_free, dofmap.n_free))


def _load_vector(mesh, geom, dofmap, source):
    f_q = source.values(geom.qp_t, geom.qp_x, geom.qp_xi)
    local = ((geom.area / 3.0) * (NQ.T @ f_q.T)).T
    if not np.all(np.isfinite(local)):
        bad = int(np.nonzero(~np.isfinite(local).all(axis=1))[0][0])
        raise AssemblyError(f"non-finite load contribution in element {bad}")
    return _scatter_vector(mesh, dofmap, local)


def _residual_local(mesh, geom, u_nodal):
    ue = u_nodal[mesh.elements]
    u_t, u_x = _slope(ue, geom.grad_t), _slope(ue, geom.grad_x)
    nu, _ = geom.layout.reluctivity(mesh.phases, np.abs(u_x))
    local = geom.sigma * (u_t * (geom.area / 3.0) + u_x * geom.conv.T)
    local += (nu * u_x * geom.area) * geom.grad_x.T
    if not np.all(np.isfinite(local)):
        bad = int(np.nonzero(~np.isfinite(local).all(axis=0))[0][0])
        raise AssemblyError(f"non-finite residual contribution in element {bad}")
    return local.T


def _jacobian_matrix(mesh, geom, dofmap, u_nodal):
    u_x = _slope(u_nodal[mesh.elements], geom.grad_x)
    nu, nu_prime = geom.layout.reluctivity(mesh.phases, np.abs(u_x))
    d_nu = nu + nu_prime * np.abs(u_x)
    # vertex-major (3, 3, n_e), entry [b, a, e] of local entry (a, b)
    grad_x = geom.grad_x.T
    k = geom.sigma_block.T + (d_nu * geom.area) * grad_x * grad_x[:, None]
    return _scatter_matrix(mesh, dofmap, k.T, geom.coupled)


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
    """Sparse direct solve whose normwise backward error is at most 1e-12.

    The space-time Jacobian is structurally close to symmetric, so SuperLU
    orders its columns by minimum degree on A^T + A, which fills far less
    than the default COLAMD ordering (X. S. Li, ACM TOMS 31(3), 2005).
    The ordering depends only on the pattern, so it is computed once per
    pattern; later matrices factor A[:, order] in natural order.

    The Jacobian stores only the entries that can be nonzero
    (ElementGeometry.coupled): a sigma = 0 element couples no two time
    levels, and storing those exact zeros made SuperLU order and fill them
    as nonzeros.  At 160^2 that is 96,800 entries instead of 177,440; MMD
    then fills 273,554 instead of 492,170, and one factorization takes
    9-14 ms instead of 44-63 ms (best of five, as the host drifts).

    Both factorizations pass ``relax=LU_RELAX`` and
    ``panel_size=LU_PANEL_SIZE`` instead of SuperLU's defaults (10 and 20).
    With two-column panels and no relaxed supernodes, these Jacobians
    factor in 0.55-0.8 of the default time at 48^2-320^2 (0.85-0.9 at
    640^2), with the same row pivots and fill; only the order in which
    updates are summed changes.  On the coupled-entry pattern, (1, 2)
    stays within 4% of the best of (1, 1), (1, 2), (2, 4), (4, 8) and
    (10, 20) at 48^2-320^2, and the defaults take 1.4-1.8 times as long.
    ``relax`` must not exceed ``panel_size``: with relax=64, panel sizes 8
    and 32 crashed the process.

    ``factored`` is an earlier LinearSystem whose factor is taken over when
    its matrix has the same CSC indptr, indices and data; any other matrix
    is factored afresh.  The matrix is copied, so changing the caller's
    array afterwards changes neither the solves nor that comparison."""

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
        for _ in range(2):
            if _backward_stable(mat, x, b):
                return x
            x = x + self._lu_solve(b - mat @ x, transpose)
        if not _backward_stable(mat, x, b):
            raise SolverError("direct solve missed the residual contract")
        return x

    def solve(self, b):
        return self._refined(b, transpose=False)

    def solve_transpose(self, b):
        return self._refined(b, transpose=True)


def _backward_stable(mat, x, b):
    """Normwise backward error test |b - A x| <= tol (|A| |x| + |b|) in the
    inf-norm (Rigal and Gaches, J. ACM 14, 1967); the cheaper |b - A x| <=
    tol |b| implies it and goes first.  A NaN residual fails both."""
    r = np.linalg.norm(b - mat @ x, np.inf)
    b_norm = np.linalg.norm(b, np.inf)
    return r <= LINEAR_RESIDUAL_TOL * b_norm or r <= LINEAR_RESIDUAL_TOL * (
        abs(mat).sum(axis=1).max() * np.linalg.norm(x, np.inf) + b_norm)


@dataclass(frozen=True)
class NewtonOptions:
    tol: float = 1e-10
    max_iter: int = 30
    min_damping: float = 1e-6


@dataclass
class SolveResult:
    """State field on ``mesh``, ``layout`` and ``source``; Newton history.
    ``geom`` is the ElementGeometry of the Newton loop; ``system`` is the
    last Newton step's LinearSystem when every reluctivity law is
    constant, since only then is its matrix the Jacobian at ``u``, and
    None otherwise.  ``solve_adjoint`` takes over and releases both."""

    u: Field
    mesh: object
    layout: object
    source: object
    iterations: int
    residual_norms: list = field(default_factory=list)
    geom: ElementGeometry = None
    system: LinearSystem = None


def solve_state(mesh, layout, source, initial_guess=None):
    """Damped Newton solve of the state problem under NewtonOptions(); the
    tolerance is relative to the larger of the load norm and the initial
    residual norm.  The motion is carried by the mesh.  ``initial_guess``
    is an optional Field of the same free values that warm-starts the
    iteration.

    Returns a SolveResult.  With constant reluctivity the Jacobian A does
    not depend on u: it is assembled once, each residual is A u - load
    instead of an element pass unless its norm lies within a factor 2 of
    the tolerance, and the factor of A is handed over as
    ``SolveResult.system``.
    """
    newton = NewtonOptions()
    geom = element_geometry(mesh, layout)
    dofmap = DofMap.from_mesh(mesh)
    u = Field.zeros(dofmap) if initial_guess is None \
        else Field(dofmap, initial_guess.values.copy())
    if u.values.shape != (dofmap.n_free,):
        raise GeometryError(f"initial guess has shape {u.values.shape}, "
                            f"expected ({dofmap.n_free},)")

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
    norms = [res_norm]
    system = None
    # Written so that a NaN residual never counts as converged.
    while not res_norm <= newton.tol * scale:
        if len(norms) > newton.max_iter:
            raise NonconvergenceError(
                f"Newton did not converge in {newton.max_iter} iterations "
                f"(residual {res_norm:.3e})", residual=res_norm)
        system = None  # so that two factors are never alive at once
        system = LinearSystem(matrix if layout.all_constant else
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
    return SolveResult(u=u, mesh=mesh, layout=layout, source=source,
                       iterations=len(norms) - 1, residual_norms=norms,
                       geom=geom,
                       system=system if layout.all_constant else None)


def objective_gradient_vector(mesh, u, objective):
    """Exact derivative of the discrete objective with respect to the free
    coefficients of u."""
    area = mesh_geometry(mesh).area
    u_q = (NQ @ u.nodal()[mesh.elements.T]).T
    local = (area / 3.0) * (NQ.T @ objective.jprime(u_q).T)
    return _scatter_vector(mesh, u.dofmap, local.T)


def solve_adjoint(state, objective):
    """Adjoint field from the transposed state Jacobian at the SolveResult
    ``state``, loaded with the negative objective derivative.

    The adjoint takes over ``state.geom`` and ``state.system`` and sets
    them to None, so neither outlives it: with a system, its matrix is the
    Jacobian and its factor is reused; without one (a nonlinear law) the
    Jacobian is assembled on the state's geometry, σ block included, and
    factored; a second call on the same state builds a fresh geometry."""
    mesh, u, system = state.mesh, state.u, state.system
    if system is None:
        matrix = _jacobian_matrix(
            mesh, state.geom or element_geometry(mesh, state.layout),
            u.dofmap, u.nodal())
    state.geom = state.system = None  # neither is held while solving
    system = LinearSystem(matrix) if system is None \
        else LinearSystem(system.matrix, factored=system)
    b = -objective_gradient_vector(mesh, u, objective)
    return Field(u.dofmap, system.solve_transpose(b))


def evaluate_objective(mesh, u, objective):
    """Element quadrature of j(u) over the space-time region; a non-finite
    value raises AssemblyError."""
    area = mesh_geometry(mesh).area
    u_q = (NQ @ u.nodal()[mesh.elements.T]).T
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        value = float(np.sum((area / 3.0)
                             * np.sum(objective.j(u_q), axis=1)))
    if not np.isfinite(value):
        raise AssemblyError(f"non-finite objective value {value}")
    return value

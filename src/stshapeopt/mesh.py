"""Space-time meshes of the moving one-dimensional design region.

The mesh is a structured triangulation of the reference rectangle
[0, T] x [0, 1] pushed through the motion vertex-wise, (t, xi) -> (t,
phi_t(xi)).  Spatial grid lines are placed exactly on the phase interfaces,
so every element lies in a single phase at all times.  Cells are split along
alternating diagonals; top and bottom rows share spatial reference nodes,
which makes the generalized time-periodic identification an index map.

Deformations move the spatial reference nodes only (per-node displacement),
so a deformation followed by its negation restores the mesh exactly.

Per-element arrays are vertex-major: an (n_e, 3) array is the transpose of
a C-contiguous (3, n_e) one, so each numpy operation runs one long loop.
"""

import numbers
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .errors import GeometryError, InvertedElementError

# Interior second-order triangle rule (barycentric 2/3, 1/6, 1/6; weights
# area/3): rows = points, cols = P1 basis.  Strictly interior points keep
# boundary-singular source gradients out of the quadrature.
NQ = np.array([[2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0],
               [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0],
               [1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0]])

_EDGE_NUDGE = 1e-12
_EXIT_TOL = 1e-10
# Largest gap, in x, at which a chord step is taken as the crossing, per
# unit of the gap's slope in t above 1: the gap's roundoff grows with it.
_CHORD_TOL = 1e-14


@dataclass(frozen=True)
class SpatialMesh:
    """Bottom trace of a space-time mesh: the 1d design mesh."""

    nodes: np.ndarray          # (n_x + 1,) reference abscissae
    phases: np.ndarray         # (n_x,) phase label per segment

    @property
    def n_elements(self):
        return len(self.nodes) - 1

    @property
    def widths(self):
        return np.diff(self.nodes)

    @property
    def centroids(self):
        return 0.5 * (self.nodes[:-1] + self.nodes[1:])

    def interface_nodes(self):
        """Indices of interior nodes where the phase label changes."""
        return np.nonzero(self.phases[1:] != self.phases[:-1])[0] + 1

    def interpolate(self, values, xi):
        """P1 interpolation of nodal values at points xi."""
        return np.interp(xi, self.nodes, nodal_values(values, self.nodes))

    def interpolate_gradient(self, values, xi):
        """Piecewise-constant derivative of the P1 interpolant at points xi."""
        seg = np.clip(np.searchsorted(self.nodes, xi, side="right") - 1,
                      0, self.n_elements - 1)
        slopes = np.diff(nodal_values(values, self.nodes)) / self.widths
        return slopes[seg]


# eq=False keeps identity hashing, which keys the geometry cache; the
# class has no slots, so cached_property can store into the frozen instance.
@dataclass(frozen=True, eq=False)
class SpaceTimeMesh:
    """Cell (j, i), from t_j to t_j+1 over nodes i and i + 1, holds the lower
    element cell_element(j, i), with the bottom edge, and the next, upper
    one, with the top edge; their diagonal runs from the upper's first vertex
    (t_j) to the lower's second (t_j+1).  Only generate_mesh picks it."""

    vertices: np.ndarray       # (n_v, 2) -> (t, x)
    elements: np.ndarray       # (n_e, 3) vertex indices, positive orientation
    phases: np.ndarray         # (n_e,) phase label
    column: np.ndarray         # (n_v,) spatial node index
    row: np.ndarray            # (n_v,) time level index
    xi_nodes: np.ndarray       # (n_x + 1,) reference spatial grid
    t_grid: np.ndarray         # (n_t + 1,)
    motion: object

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_elements(self):
        return len(self.elements)

    @property
    def n_x(self):
        return len(self.xi_nodes) - 1

    @property
    def n_t(self):
        return len(self.t_grid) - 1

    @property
    def t_final(self):
        return self.t_grid[-1]

    def vertex_id(self, j, i):
        return j * (self.n_x + 1) + i

    def cell_element(self, j, i):
        return 2 * (j * self.n_x + i)

    def lateral_vertex_mask(self):
        mask = np.zeros(self.n_vertices, dtype=bool)
        mask[self.column == 0] = True
        mask[self.column == self.n_x] = True
        return mask

    @cached_property
    def signed_areas(self):
        """Element areas, positive for the stored orientation; computed
        once per mesh and read-only."""
        t, x = _element_coordinates(self)
        area = 0.5 * ((t[1] - t[0]) * (x[2] - x[0])
                      - (x[1] - x[0]) * (t[2] - t[0]))
        area.setflags(write=False)
        return area

    def spatial_mesh(self):
        column_phase = self.phases[self.cell_element(0, np.arange(self.n_x))]
        return SpatialMesh(nodes=self.xi_nodes.copy(), phases=column_phase)


def _element_coordinates(mesh):
    """Vertex t and x per element, as C-contiguous (3, n_e) arrays."""
    return (mesh.vertices[:, 0][mesh.elements.T],
            mesh.vertices[:, 1][mesh.elements.T])


@dataclass(frozen=True)
class MeshGeometry:
    """Per-element geometry and quadrature of a space-time mesh: areas, P1
    basis gradients in (t, x), and the NQ points with their reference
    coordinate and flow velocity.  Arrays are shared, read-only and
    vertex-major."""

    area: np.ndarray           # (n_e,)
    grad_t: np.ndarray         # (n_e, 3)
    grad_x: np.ndarray         # (n_e, 3)
    qp_t: np.ndarray           # (n_e, 3)
    qp_x: np.ndarray           # (n_e, 3)
    qp_xi: np.ndarray          # (n_e, 3)
    qp_v: np.ndarray           # (n_e, 3)


@lru_cache(maxsize=1)
def mesh_geometry(mesh):
    """The MeshGeometry of ``mesh``, computed once per mesh object.

    One entry keeps the state, adjoint and density passes over a mesh on a
    single motion inversion without holding earlier meshes alive.  It
    works row by row on the (3, n_e) coordinates; the quadrature points sum
    vertex by vertex, left to right, as ``einsum("qi,eid->eqd", NQ, ...)``
    does.
    """
    area = mesh.signed_areas
    t, x = _element_coordinates(mesh)
    # grad N_i = rotate(v_{i+1} - v_{i+2}) / (2A) in (t, x) coordinates
    two_a = 2.0 * area
    grad_t = (x[[1, 2, 0]] - x[[2, 0, 1]]) / two_a
    grad_x = -(t[[1, 2, 0]] - t[[2, 0, 1]]) / two_a

    qp_t, qp_x = (NQ[:, :1] * c[0] + NQ[:, 1:2] * c[1] + NQ[:, 2:] * c[2]
                  for c in (t, x))
    flat_xi = mesh.motion.inverse(qp_t.ravel(), qp_x.ravel()[:, None])[:, 0]
    qp_v = mesh.motion.dt(qp_t.ravel(), flat_xi[:, None])[:, 0]
    geom = MeshGeometry(area=area, grad_t=grad_t.T, grad_x=grad_x.T,
                        qp_t=qp_t.T, qp_x=qp_x.T,
                        qp_xi=flat_xi.reshape(qp_t.shape).T,
                        qp_v=qp_v.reshape(qp_t.shape).T)
    for array in vars(geom).values():
        array.setflags(write=False)
    return geom


def check_mesh_args(n_x=4, n_t=2, interfaces=(), t_final=1.0):
    """Raise GeometryError unless `generate_mesh` accepts these arguments;
    the defaults are the smallest grid and the empty interface list.  Plain
    Python: the configuration parser calls it once per key."""
    for name, n in (("n_x", n_x), ("n_t", n_t)):
        if not isinstance(n, numbers.Integral):
            raise GeometryError(f"mesh needs an integer {name}, got {n!r}")
    if n_x < 4:
        raise GeometryError(f"mesh needs n_x >= 4, got {n_x}")
    if n_t < 2:
        raise GeometryError(f"mesh needs n_t >= 2, got {n_t}")
    if not all(0.0 < a < 1.0 for a in interfaces):
        raise GeometryError("interfaces must lie strictly inside (0, 1)")
    if any(b <= a for a, b in zip(interfaces, interfaces[1:])):
        raise GeometryError("interfaces must be strictly increasing")
    if not 0.0 < t_final < np.inf:
        raise GeometryError(f"the period t_final must be positive and "
                            f"finite, got {t_final}")


def generate_mesh(n_x, n_t, interfaces, motion, t_final=1.0):
    """Structured space-time mesh with grid lines on every interface.

    ``interfaces`` are strictly increasing abscissae in (0, 1); the nearest
    uniform grid line is snapped onto each of them.
    """
    interfaces = np.atleast_1d(np.asarray(interfaces, dtype=float))
    check_mesh_args(n_x, n_t, interfaces, t_final)

    xi = np.linspace(0.0, 1.0, n_x + 1)
    taken = set()
    for a in interfaces:
        k = int(np.clip(round(a * n_x), 1, n_x - 1))
        while k in taken:
            k += 1
        if k > n_x - 1:
            raise GeometryError("too many interfaces for the grid resolution")
        xi[k] = a
        taken.add(k)
    if np.any(np.diff(xi) <= 0.0):
        raise GeometryError("interface snapping produced a degenerate grid")

    t_grid = np.linspace(0.0, float(t_final), n_t + 1)

    row, column = np.divmod(np.arange((n_t + 1) * (n_x + 1)), n_x + 1)
    t_v = t_grid[row]
    x_v = motion.forward(t_v, xi[column][:, None])[:, 0]
    vertices = np.column_stack([t_v, x_v])

    centroids = 0.5 * (xi[:-1] + xi[1:])
    region = np.searchsorted(interfaces, centroids)
    cell_phase = np.where(region % 2 == 1, 1, 2)

    # Cells in row-major (slab j, column i) order, two elements per cell;
    # built as the C-contiguous elements.T.
    j, i = np.divmod(np.arange(n_t * n_x), n_x)
    p00 = j * (n_x + 1) + i
    p01, p10, p11 = p00 + 1, p00 + n_x + 1, p00 + n_x + 2
    rising = (i + j) % 2 == 0
    first = np.where(rising, [p00, p11, p01], [p00, p10, p01])
    second = np.where(rising, [p00, p10, p11], [p01, p10, p11])
    elements = np.stack([first, second], axis=2).reshape(3, -1).T
    phases = np.repeat(cell_phase[i], 2)

    mesh = SpaceTimeMesh(vertices=vertices, elements=elements, phases=phases,
                         column=column, row=row, xi_nodes=xi, t_grid=t_grid,
                         motion=motion)
    if not np.all((mesh.signed_areas > 0.0) & (mesh.signed_areas < np.inf)):
        raise GeometryError("mesh has non-finite or non-positive element areas")
    return mesh


def nodal_values(values, nodes):
    """``values`` as a float array; GeometryError unless it holds one value
    per spatial node."""
    values = np.asarray(values, dtype=float)
    if values.shape != nodes.shape:
        raise GeometryError(f"nodal values have shape {values.shape}, mesh "
                            f"nodes have shape {nodes.shape}")
    return values


def deform_mesh(mesh, theta, tau):
    """Move the spatial reference nodes by tau * theta and push forward.

    ``theta`` holds one displacement per spatial node; connectivity, phase
    labels and the periodic pairing are unchanged.  Raises GeometryError if it
    moves a node to a non-finite place or the design boundary, and
    InvertedElementError if it flips an element.
    """
    new_xi_nodes = mesh.xi_nodes + tau * nodal_values(theta, mesh.xi_nodes)
    if not np.all(np.isfinite(new_xi_nodes)):
        raise GeometryError("deformation gives a non-finite node")
    if np.any(new_xi_nodes[[0, -1]] != mesh.xi_nodes[[0, -1]]):
        raise GeometryError("deformation moves the design boundary")
    t_v = mesh.vertices[:, 0]
    x_v = mesh.motion.forward(t_v, new_xi_nodes[mesh.column][:, None])[:, 0]
    new = replace(mesh, vertices=np.column_stack([t_v, x_v]),
                  xi_nodes=new_xi_nodes)
    if not np.all(new.signed_areas > 0.0):
        raise InvertedElementError(
            f"deformation with step {tau} inverts an element")
    return new


def _diagonal_crossing_times(mesh, x0, lower):
    """The times where the trajectories t -> phi_t(x0[p]) cross the diagonal
    of the cell with lower element lower[p, j], one per (point, slab).  Raises
    GeometryError when a trajectory does not cross its slab's diagonal.

    One regula-falsi step from the gaps between trajectory and diagonal at
    the slab ends is the crossing when the gap at every step is within
    roundoff of zero, as for a motion affine in t; otherwise the gaps are
    bisected 50 times."""
    t_v, x_v = mesh.vertices.T
    start, end = mesh.elements.T[0][lower + 1], mesh.elements.T[1][lower]
    t_lo, t_hi, x_start, x_end = t_v[start], t_v[end], x_v[start], x_v[end]
    x0_grid = np.broadcast_to(x0[:, None], lower.shape)

    def gap(t):
        traj = mesh.motion.forward(t.ravel(), x0_grid.ravel()[:, None])[:, 0]
        frac = (t - t_lo) / (t_hi - t_lo)
        diag = x_start + frac * (x_end - x_start)
        return traj.reshape(t.shape) - diag

    lo, hi = t_lo, t_hi
    gap_lo, gap_hi = gap(lo), gap(hi)
    sign_lo = np.sign(gap_lo)
    if np.any(sign_lo * np.sign(gap_hi) > 0.0):
        raise GeometryError("trajectory does not cross a cell diagonal")
    # opposite signs, so the denominator does not cancel
    chord = lo + (hi - lo) * (gap_lo / (gap_lo - gap_hi))
    slope = np.abs(gap_lo - gap_hi) / (hi - lo)
    if np.all(np.abs(gap(chord)) <= _CHORD_TOL * np.maximum(1.0, slope)):
        return chord
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        gm = gap(mid)
        same = np.sign(gm) == sign_lo
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
    return 0.5 * (lo + hi)


def trajectory_intervals(mesh, x0_points):
    """For each reference point, the element covering each sub-interval of
    the vertical trajectory (t, phi_t(x0)).

    Returns (elements, t_nodes): elements has shape (n_pts, 2 * n_t) and
    t_nodes shape (n_pts, 2 * n_t + 1); interval k of point p spans
    t_nodes[p, k] .. t_nodes[p, k + 1] inside elements[p, k].
    """
    x0 = np.asarray(x0_points, dtype=float).copy()
    xi = mesh.xi_nodes
    if not np.all((x0 >= xi[0] - _EXIT_TOL) & (x0 <= xi[-1] + _EXIT_TOL)):
        raise GeometryError("trajectory leaves the meshed region")
    on_node = np.isclose(x0[:, None], xi[None, :], rtol=0.0,
                         atol=_EDGE_NUDGE).any(axis=1)
    x0[on_node & (x0 < xi[-1] - _EXIT_TOL)] += _EDGE_NUDGE
    x0[on_node & (x0 >= xi[-1] - _EXIT_TOL)] -= _EDGE_NUDGE

    cells = np.clip(np.searchsorted(xi, x0, side="right") - 1,
                    0, mesh.n_x - 1)
    lower = mesh.cell_element(np.arange(mesh.n_t)[None, :], cells[:, None])
    t_nodes = np.empty((len(x0), 2 * mesh.n_t + 1))
    t_nodes[:, 0::2] = mesh.t_grid[None, :]
    t_nodes[:, 1::2] = _diagonal_crossing_times(mesh, x0, lower)
    elements = np.stack([lower, lower + 1], axis=2)
    return elements.reshape(len(x0), 2 * mesh.n_t), t_nodes

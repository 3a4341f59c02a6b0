"""Legacy-VTK ASCII export of space-time meshes and nodal fields.

One UNSTRUCTURED_GRID file per snapshot; points are written as
(x, t, 0) so the time axis appears vertically in standard viewers.
"""

import numpy as np

from .errors import GeometryError

VTK_TRIANGLE = 5


def _rows(row, values):
    """`row` once per row of `values`, all formatted by one %."""
    return (row * len(values)) % tuple(np.ravel(values).tolist())


def write_vtk(path, mesh, point_data=None):
    """A field whose shape is not (n_vertices,) raises GeometryError before
    the file is opened."""
    point_data = {name: np.asarray(values, dtype=float)
                  for name, values in (point_data or {}).items()}
    for name, values in point_data.items():
        if values.shape != (mesh.n_vertices,):
            raise GeometryError(f"point field {name!r} has shape "
                                f"{values.shape}, mesh vertices have shape "
                                f"({mesh.n_vertices},)")
    with open(path, "w") as f:
        f.write("# vtk DataFile Version 3.0\nspace-time snapshot\nASCII\n"
                f"DATASET UNSTRUCTURED_GRID\nPOINTS {mesh.n_vertices} double\n")
        f.write(_rows("%.12e %.12e 0.0\n", mesh.vertices[:, ::-1]))
        f.write(f"CELLS {mesh.n_elements} {4 * mesh.n_elements}\n")
        f.write(_rows("3 %d %d %d\n", mesh.elements))
        f.write(f"CELL_TYPES {mesh.n_elements}\n")
        f.write(f"{VTK_TRIANGLE}\n" * mesh.n_elements)
        if point_data:
            f.write(f"POINT_DATA {mesh.n_vertices}\n")
            for name, values in point_data.items():
                f.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                f.write(_rows("%.12e\n", values))
        f.write(f"CELL_DATA {mesh.n_elements}\nSCALARS phase int 1\n"
                "LOOKUP_TABLE default\n")
        f.write(_rows("%d\n", mesh.phases))

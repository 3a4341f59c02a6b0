"""Legacy-VTK ASCII export of space-time meshes and nodal fields.

One UNSTRUCTURED_GRID file per snapshot; points are written as
(x, t, 0) so the time axis appears vertically in standard viewers.
"""

import numpy as np

from .errors import GeometryError

VTK_TRIANGLE = 5


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
        f.write("# vtk DataFile Version 3.0\n")
        f.write("space-time snapshot\n")
        f.write("ASCII\n")
        f.write("DATASET UNSTRUCTURED_GRID\n")
        f.write(f"POINTS {mesh.n_vertices} double\n")
        for t, x in mesh.vertices:
            f.write(f"{x:.12e} {t:.12e} 0.0\n")
        f.write(f"CELLS {mesh.n_elements} {4 * mesh.n_elements}\n")
        for tri in mesh.elements:
            f.write(f"3 {tri[0]} {tri[1]} {tri[2]}\n")
        f.write(f"CELL_TYPES {mesh.n_elements}\n")
        for _ in range(mesh.n_elements):
            f.write(f"{VTK_TRIANGLE}\n")
        if point_data:
            f.write(f"POINT_DATA {mesh.n_vertices}\n")
            for name, values in point_data.items():
                f.write(f"SCALARS {name} double 1\n")
                f.write("LOOKUP_TABLE default\n")
                for v in values:
                    f.write(f"{v:.12e}\n")
        f.write(f"CELL_DATA {mesh.n_elements}\n")
        f.write("SCALARS phase int 1\n")
        f.write("LOOKUP_TABLE default\n")
        for p in mesh.phases:
            f.write(f"{int(p)}\n")

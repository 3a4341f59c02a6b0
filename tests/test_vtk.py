import re

import numpy as np
import pytest

from helpers import write_vtk_per_line
from stshapeopt import Polynomial1D, generate_mesh
from stshapeopt.errors import GeometryError
from stshapeopt.vtkio import write_vtk


def read_legacy_vtk(path):
    """Minimal strict reader for the legacy ASCII UNSTRUCTURED_GRID format."""
    with open(path) as handle:
        lines = [ln.rstrip("\n") for ln in handle]
    assert lines[0] == "# vtk DataFile Version 3.0"
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET UNSTRUCTURED_GRID"
    k = 4
    tag, n_pts, dtype = lines[k].split()
    assert tag == "POINTS" and dtype == "double"
    n_pts = int(n_pts)
    k += 1
    points = np.array([[float(w) for w in lines[k + i].split()]
                       for i in range(n_pts)])
    k += n_pts
    tag, n_cells, n_ints = lines[k].split()
    assert tag == "CELLS"
    n_cells = int(n_cells)
    k += 1
    cells = []
    for i in range(n_cells):
        words = [int(w) for w in lines[k + i].split()]
        assert words[0] == 3
        cells.append(words[1:])
    k += n_cells
    assert lines[k].split()[0] == "CELL_TYPES"
    k += 1
    types = [int(lines[k + i]) for i in range(n_cells)]
    assert all(t == 5 for t in types)
    k += n_cells
    point_data, cell_data = {}, {}
    section, count = None, 0
    while k < len(lines):
        words = lines[k].split()
        if not words:
            k += 1
            continue
        if words[0] == "POINT_DATA":
            section, count = point_data, int(words[1])
            assert count == n_pts
            k += 1
        elif words[0] == "CELL_DATA":
            section, count = cell_data, int(words[1])
            assert count == n_cells
            k += 1
        elif words[0] == "SCALARS":
            name = words[1]
            assert lines[k + 1].startswith("LOOKUP_TABLE")
            vals = np.array([float(lines[k + 2 + i]) for i in range(count)])
            section[name] = vals
            k += 2 + count
        else:
            raise AssertionError(f"unexpected line: {lines[k]!r}")
    return points, np.array(cells), point_data, cell_data


def test_vtk_round_trip(tmp_path):
    mesh = generate_mesh(6, 4, (0.4, 0.6), Polynomial1D())
    u = np.sin(mesh.vertices[:, 1]) * mesh.vertices[:, 0]
    path = tmp_path / "snapshot.vtk"
    write_vtk(path, mesh, point_data={"u": u})
    assert path.read_text().splitlines()[1] == "space-time snapshot"
    points, cells, point_data, cell_data = read_legacy_vtk(path)
    assert len(points) == mesh.n_vertices
    # points are written as (x, t, 0)
    assert np.allclose(points[:, 0], mesh.vertices[:, 1], atol=1e-12)
    assert np.allclose(points[:, 1], mesh.vertices[:, 0], atol=1e-12)
    assert np.all(points[:, 2] == 0.0)
    assert np.array_equal(cells, mesh.elements)
    assert np.allclose(point_data["u"], u, atol=1e-12)
    assert np.allclose(cell_data["phase"], mesh.phases)


@pytest.mark.parametrize("shape", [lambda n: (3,), lambda n: (n, 2)],
                         ids=["length_3", "two_columns"])
def test_point_field_of_the_wrong_shape_raises_before_writing(tmp_path,
                                                              shape):
    mesh = generate_mesh(6, 4, (0.4, 0.6), Polynomial1D())
    shape = shape(mesh.n_vertices)
    path = tmp_path / "snapshot.vtk"
    with pytest.raises(GeometryError, match=re.escape(
            f"shape {shape}, mesh vertices have shape ({mesh.n_vertices},)")):
        write_vtk(path, mesh, point_data={"u": np.zeros(shape)})
    assert not path.exists()


def test_snapshot_bytes_equal_the_per_line_writer(tmp_path):
    mesh = generate_mesh(12, 8, (0.4, 0.6), Polynomial1D())
    t, x = mesh.vertices.T
    u = np.sin(3.0 * t) * x
    u[:4] = (-0.0, 1e-300, 1e300, np.nan)
    fields = {"u": u, "v": np.resize([np.nan, 1e300, -0.0, 1e-300, -2.5],
                                     mesh.n_vertices)}
    write_vtk(tmp_path / "whole.vtk", mesh, point_data=fields)
    write_vtk_per_line(tmp_path / "per_line.vtk", mesh, point_data=fields)
    whole = (tmp_path / "whole.vtk").read_bytes()
    assert whole == (tmp_path / "per_line.vtk").read_bytes()
    for token in (b"-0.000000000000e+00", b"1.000000000000e-300",
                  b"1.000000000000e+300", b"\nnan\n"):
        assert token in whole

"""Shape optimization of a moving material interface with space-time
finite elements and adjoint-based shape gradients."""

from .derivative import (DerivativeDensities, InterfaceDensities,
                         academic_objective, academic_surface_derivative,
                         academic_volume_derivative, fd_objective_derivative,
                         magnetization_supplement, pde_surface_derivative,
                         pde_volume_densities, solve_tangent,
                         volume_form_pairing)
from .fem import (DofMap, Field, NewtonOptions, Objective,
                  assemble_state_jacobian, assemble_state_residual,
                  evaluate_objective, solve_adjoint, solve_state)
from .materials import (ConstantReluctivity, PhaseLayout, PhaseMaterial,
                        ReluctivityCurve, arkkio_q, arkkio_torque)
from .mesh import SpaceTimeMesh, SpatialMesh, deform_mesh, generate_mesh
from .motion import CustomMotion, Identity, Polynomial1D, Rotation2D
from .optimizer import (DescentConfig, OptimizationReport,
                        hilbertian_direction, line_search, optimize)
from .sources import AnalyticSource, CallableSource, ZeroSource

__version__ = "0.1.0"

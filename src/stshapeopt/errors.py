"""Exception types shared across the package."""


class StshapeoptError(Exception):
    """Base class for all package errors."""


class GeometryError(StshapeoptError):
    """Invalid geometry: bad interface data, trajectory leaving the mesh, ..."""


class InvertedElementError(GeometryError):
    """A mesh update produced an element with non-positive volume."""


class AssemblyError(StshapeoptError):
    """Non-finite entries during finite element assembly."""


class SolverError(StshapeoptError):
    """A linear solve failed or did not meet its residual contract."""


class NonconvergenceError(SolverError):
    """Newton iteration failed; carries the last residual norm."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class UnsupportedCaseError(StshapeoptError):
    """The requested operation is outside the supported problem class."""


class ExpressionError(StshapeoptError, ValueError):
    """Analytic expression text outside the grammar of `expressions`."""


class MaterialError(StshapeoptError, ValueError):
    """Material parameters or reluctivity arguments outside a law's domain."""


class ConfigError(StshapeoptError):
    """Run-configuration parsing or validation failure."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line

"""Source-term wrappers used by the assembly and derivative routines.

A source provides ``values(t, x, xi)`` and ``gradient(t, x, xi)`` over
broadcastable arrays, where ``x`` is the physical coordinate and ``xi`` its
motion preimage at time t.  The gradient is the spatial derivative at fixed
time.
"""

import numpy as np

from .expressions import Expression
from .kernels import jet1d

SOURCE_VARIABLES = ("t", "x", "xref")


class CallableSource:
    """Source from plain callables f(t, x, xi) and df/dx(t, x, xi)."""

    def __init__(self, values, gradient):
        self._values = values
        self._gradient = gradient

    def values(self, t, x, xi):
        return self._values(t, x, xi)

    def gradient(self, t, x, xi):
        return self._gradient(t, x, xi)


class AnalyticSource:
    """Source from an expression in (t, x, xref).

    ``xref`` refers to the motion preimage of the evaluation point, so the
    spatial gradient picks up a chain-rule term through the inverse map:
    df/dx_total = df/dx + df/dxref / phi_t'(xref).
    """

    def __init__(self, expression, motion):
        if isinstance(expression, str):
            expression = Expression(expression, SOURCE_VARIABLES)
        self.expression = expression
        self.motion = motion
        self._dx = expression.derivative("x")
        self._dxref = expression.derivative("xref")

    def values(self, t, x, xi):
        return self.expression(t=t, x=x, xref=xi)

    def gradient(self, t, x, xi):
        g = jet1d(self.motion, np.asarray(t, dtype=float),
                  np.asarray(xi, dtype=float)).G
        return self._dx(t=t, x=x, xref=xi) + self._dxref(t=t, x=x, xref=xi) / g

"""Run-configuration parsing: a line-oriented section/key-value format.

Grammar (see docs/config_format.md for the full reference):

    file     := (blank | comment | section | entry)*
    section  := '[' NAME ']'
    entry    := KEY '=' VALUE          # KEY may contain spaces
    comment  := '#' ...

Values are parsed per key: scalars, word lists, analytic expressions in the
grammar of `expressions`, or material specs ``constant <v>`` and
``curve <nu_a> <c1> <c2> <c3>``.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .expressions import Expression, ExpressionError
from .materials import (ConstantReluctivity, PhaseLayout, PhaseMaterial,
                        ReluctivityCurve)
from .mesh import generate_mesh
from .motion import Identity, Polynomial1D
from .sources import SOURCE_VARIABLES, AnalyticSource, ZeroSource
from .fem import Objective
from .optimizer import DescentConfig

_KNOWN_SECTIONS = ("problem", "materials", "source", "discretization",
                   "objective", "descent", "output", "gradient_check")

MOTIONS = {"identity": Identity, "polynomial1d": Polynomial1D}


@dataclass
class RunConfig:
    domain: tuple
    t_final: float
    interfaces: list
    motion_name: str
    phase_sigma: dict
    phase_nu: dict
    source_expr: Expression     # None for the zero source "f = 0"
    n_x: int
    n_t: int
    quadrature: int
    objective_expr: Expression
    descent: DescentConfig
    output_dir: str
    vtk: bool
    csv_name: str
    gradient_check_theta: Expression = None
    gradient_check_eps: list = field(default_factory=lambda: [1e-2, 1e-3, 1e-4])

    def motion(self):
        return MOTIONS[self.motion_name]()

    def layout(self):
        materials = {}
        for pid in sorted(self.phase_sigma):
            materials[pid] = PhaseMaterial(sigma=self.phase_sigma[pid],
                                           nu=self.phase_nu[pid])
        return PhaseLayout(materials=materials)

    def build(self):
        """Instantiate (mesh, layout, source, objective) for this run."""
        motion = self.motion()
        mesh = generate_mesh(self.n_x, self.n_t, self.interfaces, motion,
                             t_final=self.t_final)
        layout = self.layout()
        if self.source_expr is None:
            source = ZeroSource()
        else:
            source = AnalyticSource(self.source_expr, motion)
        j_expr = self.objective_expr
        jp_expr = j_expr.derivative("u")
        objective = Objective(
            j=lambda u: np.broadcast_to(j_expr(u=u), np.shape(u)).astype(float),
            jprime=lambda u: np.broadcast_to(jp_expr(u=u),
                                             np.shape(u)).astype(float))
        return mesh, layout, source, objective


def _parse_lines(text):
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("unterminated section header", line=lineno)
            name = line[1:-1].strip()
            if name not in _KNOWN_SECTIONS:
                raise ConfigError(f"unknown section [{name}]", line=lineno)
            current = sections.setdefault(name, {})
            continue
        if current is None:
            raise ConfigError("entry before any section header", line=lineno)
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}",
                              line=lineno)
        key, value = line.split("=", 1)
        key = " ".join(key.split())
        if key in current:
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        current[key] = (value.strip(), lineno)
    return sections


def _get(sections, section, key, default=None, required=False):
    entry = sections.get(section, {}).get(key)
    if entry is None:
        if required:
            raise ConfigError(f"missing key {key!r} in section [{section}]")
        return default, None
    return entry


def _float(value, lineno, key):
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key!r} expects a number, got {value!r}",
                          line=lineno) from None


def _int(value, lineno, key):
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key!r} expects an integer, got {value!r}",
                          line=lineno) from None


def _bool(value, lineno, key):
    lowered = value.lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"{key!r} expects true/false, got {value!r}",
                      line=lineno)


def _nu_spec(value, lineno):
    words = value.split()
    try:
        if words[0] == "constant" and len(words) == 2:
            return ConstantReluctivity(float(words[1]))
        if words[0] == "curve" and len(words) == 5:
            return ReluctivityCurve(*[float(w) for w in words[1:]])
    except (ValueError, IndexError):
        pass
    raise ConfigError(
        f"reluctivity spec must be 'constant <v>' or "
        f"'curve <nu_a> <c1> <c2> <c3>', got {value!r}", line=lineno)


def _expression(text, variables, lineno, key):
    try:
        return Expression(text, variables)
    except ExpressionError as exc:
        raise ConfigError(f"{key!r}: {exc}", line=lineno) from None


def parse_config(text):
    """Parse and validate a run configuration."""
    sections = _parse_lines(text)

    value, lineno = _get(sections, "problem", "domain", default="0 1")
    words = value.split()
    if len(words) != 2 or [float(w) for w in words] != [0.0, 1.0]:
        raise ConfigError("only the unit design domain '0 1' is supported",
                          line=lineno)
    value, lineno = _get(sections, "problem", "t_final", default="1.0")
    t_final = _float(value, lineno, "t_final")
    if t_final <= 0:
        raise ConfigError("t_final must be positive", line=lineno)

    value, lineno = _get(sections, "problem", "interfaces", required=True)
    try:
        interfaces = [float(w) for w in value.split()]
    except ValueError:
        raise ConfigError(f"interfaces expects numbers, got {value!r}",
                          line=lineno) from None

    value, lineno = _get(sections, "problem", "motion", default="identity")
    motion_name = value.lower()
    if motion_name not in MOTIONS:
        raise ConfigError(
            f"motion must be one of {sorted(MOTIONS)}, got {value!r} "
            f"(rotations are a two-dimensional setting)", line=lineno)

    phase_sigma, phase_nu = {}, {}
    for key, (value, lineno) in sections.get("materials", {}).items():
        words = key.split()
        if len(words) != 3 or words[0] != "phase" or not words[1].isdigit():
            raise ConfigError(f"unknown materials key {key!r}", line=lineno)
        pid = int(words[1])
        if words[2] == "sigma":
            sigma = _float(value, lineno, key)
            if sigma < 0:
                raise ConfigError("conductivity must be >= 0", line=lineno)
            phase_sigma[pid] = sigma
        elif words[2] == "nu":
            phase_nu[pid] = _nu_spec(value, lineno)
        else:
            raise ConfigError(f"unknown materials key {key!r}", line=lineno)
    needed = {2} | ({1, 2} if interfaces else set())
    for pid in sorted(needed):
        if pid not in phase_sigma or pid not in phase_nu:
            raise ConfigError(f"phase {pid} needs both sigma and nu entries")

    value, lineno = _get(sections, "source", "f", default="0")
    source_expr = None if value.strip() == "0" else _expression(
        value, SOURCE_VARIABLES, lineno, "f")

    value, lineno = _get(sections, "discretization", "nx", required=True)
    n_x = _int(value, lineno, "nx")
    value, lineno = _get(sections, "discretization", "nt", required=True)
    n_t = _int(value, lineno, "nt")
    if n_x < 2 or n_t < 2:
        raise ConfigError("nx and nt must both be at least 2", line=lineno)
    value, lineno = _get(sections, "discretization", "quadrature", default="2")
    quadrature = _int(value, lineno, "quadrature")
    if quadrature != 2:
        raise ConfigError("only the second-order triangle rule "
                          "(quadrature = 2) is implemented", line=lineno)

    value, lineno = _get(sections, "objective", "j", default="u")
    objective_expr = _expression(value, ("u",), lineno, "j")

    descent_kwargs = {}
    spec = {"alpha": _float, "beta": _float, "tau_init": _float,
            "tau_min": _float, "theta_tol": _float, "max_outer": _int,
            "max_halvings": _int, "cauchy_riemann": _bool}
    for key, (value, lineno) in sections.get("descent", {}).items():
        if key not in spec:
            raise ConfigError(f"unknown descent key {key!r}", line=lineno)
        name = "include_cauchy_riemann" if key == "cauchy_riemann" else key
        descent_kwargs[name] = spec[key](value, lineno, key)
    descent = DescentConfig(**descent_kwargs)

    output_dir, _ = _get(sections, "output", "directory", default="out")
    value, lineno = _get(sections, "output", "vtk", default="false")
    vtk = _bool(value, lineno, "vtk")
    csv_name, _ = _get(sections, "output", "csv", default="history.csv")

    theta_expr = None
    value, lineno = _get(sections, "gradient_check", "theta")
    if value is not None:
        theta_expr = _expression(value, ("x",), lineno, "theta")
    eps = [1e-2, 1e-3, 1e-4]
    value, lineno = _get(sections, "gradient_check", "eps")
    if value is not None:
        try:
            eps = [float(w) for w in value.split()]
        except ValueError:
            raise ConfigError(f"eps expects numbers, got {value!r}",
                              line=lineno) from None

    return RunConfig(domain=(0.0, 1.0), t_final=t_final,
                     interfaces=interfaces, motion_name=motion_name,
                     phase_sigma=phase_sigma, phase_nu=phase_nu,
                     source_expr=source_expr, n_x=n_x, n_t=n_t,
                     quadrature=quadrature, objective_expr=objective_expr,
                     descent=descent, output_dir=output_dir, vtk=vtk,
                     csv_name=csv_name, gradient_check_theta=theta_expr,
                     gradient_check_eps=eps)


def load_config(path):
    with open(path, "r") as handle:
        return parse_config(handle.read())

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

from dataclasses import dataclass, fields, replace
from functools import partial

import numpy as np

from .errors import ConfigError, StshapeoptError
from .expressions import Expression
from .materials import (ConstantReluctivity, PhaseLayout, PhaseMaterial,
                        ReluctivityCurve)
from .mesh import check_mesh_args, generate_mesh
from .motion import Identity, Polynomial1D
from .sources import SOURCE_VARIABLES, AnalyticSource
from .fem import Objective
from .optimizer import DescentConfig

_KNOWN_SECTIONS = ("problem", "materials", "source", "discretization",
                   "objective", "descent", "output", "gradient_check")

MOTIONS = {"identity": Identity, "polynomial1d": Polynomial1D}


@dataclass
class RunConfig:
    t_final: float
    interfaces: list
    motion_name: str
    phase_sigma: dict
    phase_nu: dict
    source_expr: Expression
    n_x: int
    n_t: int
    objective_expr: Expression
    descent: DescentConfig
    output_dir: str
    vtk: bool
    csv_name: str
    gradient_check_theta: Expression
    gradient_check_eps: list

    def motion(self):
        return MOTIONS[self.motion_name]()

    def layout(self):
        return PhaseLayout(materials={
            pid: PhaseMaterial(sigma=self.phase_sigma[pid],
                               nu=self.phase_nu[pid])
            for pid in sorted(self.phase_sigma)})

    def build(self):
        """Instantiate (mesh, layout, source, objective) for this run."""
        motion = self.motion()
        mesh = generate_mesh(self.n_x, self.n_t, self.interfaces, motion,
                             t_final=self.t_final)
        layout = self.layout()
        source = AnalyticSource(self.source_expr, motion)
        j_expr = self.objective_expr
        jp_expr = j_expr.derivative("u")
        objective = Objective(j=lambda u: j_expr(u=u),
                              jprime=lambda u: jp_expr(u=u))
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


def _entry(sections, section, key, convert, default=None):
    """convert(text) of a key's value, or of `default` when the key is
    missing; a missing key without a default is an error.  A ValueError or
    package error from `convert` becomes a ConfigError at the key's line.
    The key is removed from `sections`, so that what is left once every
    key has been read is unknown."""
    text, line = sections.get(section, {}).pop(key, (default, None))
    if text is None:
        raise ConfigError(f"missing key {key!r} in section [{section}]")
    try:
        return convert(text)
    except (ValueError, StshapeoptError) as exc:
        raise ConfigError(f"{key!r} = {text!r}: {exc}", line=line) from None


def _checked(convert, valid, message):
    """Converter that rejects a converted value failing `valid`."""
    def read(text):
        value = convert(text)
        if not valid(value):
            raise ConfigError(message)
        return value
    return read


def _mesh_arg(name, convert):
    """Converter whose value `generate_mesh` must accept as argument `name`."""
    def read(text):
        value = convert(text)
        check_mesh_args(**{name: value})
        return value
    return read


def _floats(text):
    try:
        return [float(w) for w in text.split()]
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


# Gradient-check perturbation sizes, also read by `check-gradient --eps`.
read_eps = _checked(
    _floats, lambda eps: len(set(eps)) > 1
    and all(0.0 < e < np.inf for e in eps),
    "eps needs at least two distinct, finite, positive values")


def _bool(text):
    word = text.lower()
    if word not in ("true", "yes", "on", "1", "false", "no", "off", "0"):
        raise ConfigError("expects true/false")
    return word in ("true", "yes", "on", "1")


def _reluctivity(text):
    kind, *numbers = text.split() or [""]
    if kind == "constant" and len(numbers) == 1:
        return ConstantReluctivity(float(numbers[0]))
    if kind == "curve" and len(numbers) == 4:
        return ReluctivityCurve(*map(float, numbers))
    raise ConfigError("reluctivity spec must be 'constant <v>' or "
                      "'curve <nu_a> <c1> <c2> <c3>'")


# PhaseMaterial states the conductivity rule; nu is read by its own key.
_MATERIAL_KEYS = {"sigma": lambda text: PhaseMaterial(float(text), None).sigma,
                  "nu": _reluctivity}


def parse_config(text):
    """Parse and validate a run configuration."""
    sections = _parse_lines(text)
    entry = partial(_entry, sections)

    entry("problem", "domain", _checked(
        _floats, lambda d: d == [0.0, 1.0],
        "only the unit design domain '0 1' is supported"), default="0 1")
    t_final = entry("problem", "t_final", _mesh_arg("t_final", float),
                    default="1.0")
    interfaces = entry("problem", "interfaces",
                       _mesh_arg("interfaces", _floats))
    motion_name = entry("problem", "motion", _checked(
        str.lower, lambda m: m in MOTIONS,
        f"motion must be one of {sorted(MOTIONS)} (rotations are a "
        f"two-dimensional setting)"), default="identity")

    phase_laws = {"sigma": {}, "nu": {}}
    for key, (_, line) in list(sections.get("materials", {}).items()):
        words = key.split()
        if len(words) != 3 or words[0] != "phase" \
                or not words[1].isdigit() or words[2] not in _MATERIAL_KEYS:
            raise ConfigError(f"unknown materials key {key!r}", line=line)
        phase_laws[words[2]][int(words[1])] = entry(
            "materials", key, _MATERIAL_KEYS[words[2]])
    for pid in [1, 2] if interfaces else [2]:
        if not all(pid in laws for laws in phase_laws.values()):
            raise ConfigError(f"phase {pid} needs both sigma and nu entries")

    source_expr = entry("source", "f",
                        lambda t: Expression(t, SOURCE_VARIABLES), default="0")
    n_x = entry("discretization", "nx", _mesh_arg("n_x", int))
    n_t = entry("discretization", "nt", _mesh_arg("n_t", int))
    entry("discretization", "quadrature", _checked(
        int, lambda q: q == 2, "only the second-order triangle rule "
        "(quadrature = 2) is implemented"), default="2")
    objective_expr = entry("objective", "j", lambda t: Expression(t, ("u",)),
                           default="u")

    # each key is read by its field's type, and DescentConfig validates the
    # copy; in field order, so tau_min is checked against the run's tau_init
    descent = DescentConfig()
    for f in fields(DescentConfig):
        if f.name in sections.get("descent", {}):
            descent = entry("descent", f.name, lambda text: replace(
                descent, **{f.name: f.type(text)}))
    entry("descent", "cauchy_riemann", _checked(
        _bool, lambda on: not on, "the Cauchy-Riemann augmentation needs a "
        "two-dimensional design space"), default="false")

    config = RunConfig(
        t_final=t_final, interfaces=interfaces, motion_name=motion_name,
        phase_sigma=phase_laws["sigma"], phase_nu=phase_laws["nu"],
        source_expr=source_expr, n_x=n_x, n_t=n_t,
        objective_expr=objective_expr, descent=descent,
        output_dir=entry("output", "directory", str, default="out"),
        vtk=entry("output", "vtk", _bool, default="false"),
        csv_name=entry("output", "csv", str, default="history.csv"),
        gradient_check_theta=entry("gradient_check", "theta",
                                   lambda t: Expression(t, ("x",)),
                                   default="sin(pi*x)"),
        gradient_check_eps=entry("gradient_check", "eps", read_eps,
                                 default="1e-2 1e-3 1e-4"))
    unknown = [(line, section, key) for section, keys in sections.items()
               for key, (_, line) in keys.items()]
    if unknown:
        line, section, key = min(unknown)
        raise ConfigError(f"unknown {section} key {key!r}", line=line)
    return config


def load_config(path):
    with open(path, "r") as handle:
        return parse_config(handle.read())

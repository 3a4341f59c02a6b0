"""Fuzz of the configuration and command-line boundary.

The coarse benchmark configuration, shrunk to an 8 x 8 grid and two outer
iterations, gets one or two of its values replaced and goes through every
command of ``cli.main``.  Replacement values are drawn per key, and the
grid sizes and the iteration cap never grow, so every case stays small.
Examples are derandomized, so every run draws the same cases."""

import contextlib
import io
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from stshapeopt.cli import main

COARSE = (Path(__file__).resolve().parents[1] / "configs"
          / "moving_interface_coarse.cfg").read_text()
SMALL = {"nx = 48": "nx = 8", "nt = 48": "nt = 8",
         "max_outer = 60": "max_outer = 2"}
BASE = COARSE
for old, new in SMALL.items():
    assert old in BASE
    BASE = BASE.replace(old, new)
LINES = BASE.splitlines()
ENTRIES = [i for i, line in enumerate(LINES) if "=" in line
           and not line.lstrip().startswith("#")]

NUMBERS = ("0", "-1", "0.5", "2", "1e-300", "1e300", "nan", "inf", "", "x",
           "1 2")
EXPRESSIONS = ("0", "1", "u", "x", "t*xref", "1/0", "u/1e-200", "x/1e-200",
               "1e308*x", "1e308*u", "sqrt(-1)", "sqrt(x-2)", "10**400",
               "(-8)**0.5", "u**-1", "1/(x-x)", "u*u*u", "sin(", "y", "")
GRID = ("-1", "0", "3", "4", "7", "8.0", "x", "")
LAWS = ("constant 0", "constant -1", "constant nan", "constant 1e300",
        "curve 10 1 4e4 2", "curve 0 0 0 0", "curve 1 2", "linear 1")
VALUES = {
    "interfaces": ("", "0.5", "0.6 0.4", "0 1", "0.4 nan", "0.3 0.6 0.9",
                   "0.1 0.2 0.3 0.4 0.5 0.6 0.7"),
    "motion": ("identity", "polynomial1d", "rotation", ""),
    "nx": GRID, "nt": GRID,
    "max_outer": ("0", "1", "-1", "2.5"),
    "vtk": ("false", "maybe"),
    "csv": ("", ".", "missing/history.csv"),
    "eps": ("1e-2", "1e-2 1e-2", "0 1", "1e-300 1e-299", "1 2", "nan 1"),
    "phase 1 nu": LAWS, "phase 2 nu": LAWS,
    "f": EXPRESSIONS, "j": EXPRESSIONS, "theta": EXPRESSIONS,
}


@st.composite
def configs(draw):
    lines = list(LINES)
    for i in draw(st.lists(st.sampled_from(ENTRIES), min_size=1, max_size=2,
                           unique=True)):
        key = lines[i].split("=", 1)[0].strip()
        lines[i] = f"{key} = {draw(st.sampled_from(VALUES.get(key, NUMBERS)))}"
    return "\n".join(lines) + "\n"


def numbers_in(text):
    """Every whitespace-separated word of ``text`` that reads as a float."""
    for word in text.split():
        try:
            yield float(word.strip("():,"))
        except ValueError:
            pass


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(derandomize=True, deadline=None, max_examples=100)
@given(text=configs(),
       command=st.sampled_from(["solve", "optimize", "check-gradient"]),
       out_is_file=st.booleans())
def test_every_command_on_a_mutated_config_exits_with_a_documented_code(
        text, command, out_is_file):
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "run.cfg", Path(tmp) / "out"
        config.write_text(text)
        if out_is_file:
            out.write_text("")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = main([command, "--config", str(config), "--out", str(out)])
    assert code in (0, 2, 3, 4)
    if code == 2:
        assert re.match(r"configuration error: line \d+: ", stderr.getvalue())
    if code == 0:
        assert all(map(math.isfinite, numbers_in(stdout.getvalue())))

import csv
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from stshapeopt import cli, expressions, fem
from stshapeopt.cli import main, observed_order
from stshapeopt.config import load_config, parse_config
from stshapeopt.errors import ConfigError
from stshapeopt.fem import NewtonOptions
from stshapeopt.optimizer import DescentConfig

CONFIG_FORMAT = Path(__file__).resolve().parents[1] / "docs" \
    / "config_format.md"

BENCHMARK_CFG = """
# moving-interface benchmark
[problem]
domain = 0 1
t_final = 1.0
interfaces = 0.4 0.6
motion = polynomial1d

[materials]
phase 1 sigma = 10.0
phase 1 nu = constant 1.0
phase 2 sigma = 0.0
phase 2 nu = constant 10.0

[source]
f = (xref-0.4)*(xref-0.6)*sqrt(x)*(1+t-x)

[discretization]
nx = {nx}
nt = {nt}

[objective]
j = u

[descent]
alpha = 0.5
beta = 0.0
tau_init = {tau_init}
theta_tol = 1e-9
max_outer = {max_outer}

[output]
directory = {outdir}
vtk = false
csv = history.csv

[gradient_check]
theta = sin(pi*x)*(0.5+0.3*sin(2*pi*x))
eps = 1e-2 1e-3 1e-4
"""


def write_cfg(tmp_path, nx=20, nt=20, tau_init=100.0, max_outer=2,
              extra=None):
    text = BENCHMARK_CFG.format(nx=nx, nt=nt, tau_init=tau_init,
                                max_outer=max_outer,
                                outdir=tmp_path / "out")
    if extra:
        text += extra
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


def test_parse_round_trip(tmp_path):
    cfg = parse_config(write_cfg(tmp_path).read_text())
    assert cfg.interfaces == [0.4, 0.6]
    assert cfg.motion_name == "polynomial1d"
    assert cfg.phase_sigma == {1: 10.0, 2: 0.0}
    assert cfg.n_x == 20 and cfg.n_t == 20
    assert cfg.descent.alpha == 0.5
    assert cfg.gradient_check_eps == [1e-2, 1e-3, 1e-4]
    mesh, layout, source, objective = cfg.build()
    assert mesh.n_elements == 2 * 20 * 20
    assert layout.materials[1].sigma == 10.0


def test_parse_reports_line_numbers():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("[problem]\ninterfaces = 0.4 0.6\nbogus line\n")


MINIMAL_MATERIALS = ("[materials]\nphase 1 sigma = 1\n"
                     "phase 1 nu = constant 1\nphase 2 sigma = 0\n"
                     "phase 2 nu = constant 1\n"
                     "[discretization]\nnx = 8\nnt = 8\n")


@pytest.mark.parametrize("old, new", [
    ("# moving-interface benchmark", "nx = 20"),
    ("theta_tol = 1e-9", "alpha = 0.7"),
    ("domain = 0 1", "domain = a b"),
    ("t_final = 1.0", "t_final = inf"),
    ("t_final = 1.0", "t_final = nan"),
    ("nx = 20", "nx = 3"),
    ("nt = 20", "nt = 1"),
    ("interfaces = 0.4 0.6", "interfaces = 0.6 0.4"),
    ("interfaces = 0.4 0.6", "interfaces = 0.4 1.5"),
    ("interfaces = 0.4 0.6", "interfaces = 0.4 nan"),
    ("phase 1 sigma = 10.0", "phase 1 sigma = nan"),
    ("phase 1 sigma = 10.0", "phase 1 sigma = inf"),
    ("phase 1 nu = constant 1.0", "phase 1 nu = constant nan"),
    ("phase 1 nu = constant 1.0", "phase 1 nu = curve 10 1 inf 2"),
    ("phase 1 nu = constant 1.0", "phase 1 nu = linear 3"),
    ("alpha = 0.5", "alpha = 0"),
    ("alpha = 0.5", "alpha = nan"),
    ("alpha = 0.5", "alpha = inf"),
    ("beta = 0.0", "beta = -1"),
    ("max_outer = 2", "max_outer = -3"),
    ("theta_tol = 1e-9", "max_halvings = -1"),
    ("theta_tol = 1e-9", "tau_min = 1000"),
    ("theta_tol = 1e-9", "tau_min = -1"),
    ("theta_tol = 1e-9", "theta_tol = -1e-9"),
    ("theta_tol = 1e-9", "cauchy_riemann = true"),
    ("eps = 1e-2 1e-3 1e-4", "eps = 1e-2 0"),
    ("eps = 1e-2 1e-3 1e-4", "eps ="),
    ("eps = 1e-2 1e-3 1e-4", "eps = 1e-2 nan"),
    ("eps = 1e-2 1e-3 1e-4", "eps = 1e-2 inf"),
    ("eps = 1e-2 1e-3 1e-4", "eps = 1e-2 1e-2"),
    ("vtk = false", "vtk = maybe"),
])
def test_bad_value_is_a_config_error_at_its_line(tmp_path, old, new):
    path = write_cfg(tmp_path)
    text = path.read_text()
    line = text.splitlines().index(old) + 1
    path.write_text(text.replace(old, new))
    with pytest.raises(ConfigError, match=f"line {line}: ") as info:
        load_config(path)
    assert info.value.line == line
    assert main(["solve", "--config", str(path)]) == 2


def test_missing_required_key_is_a_config_error(tmp_path):
    path = write_cfg(tmp_path)
    path.write_text(path.read_text().replace("interfaces = 0.4 0.6\n", ""))
    with pytest.raises(ConfigError, match="missing key 'interfaces'"):
        load_config(path)
    assert main(["solve", "--config", str(path)]) == 2


def test_descent_tau_rule_holds_in_either_key_order():
    for keys in ("tau_min = 5\ntau_init = 100\n",
                 "tau_init = 100\ntau_min = 5\n"):
        descent = parse_config("[problem]\ninterfaces = 0.5\n"
                               + MINIMAL_MATERIALS + "[descent]\n"
                               + keys).descent
        assert (descent.tau_init, descent.tau_min) == (100.0, 5.0)


def test_documented_descent_keys_are_the_accepted_ones():
    table = CONFIG_FORMAT.read_text().split("### `[descent]`")[1] \
        .split("###")[0]
    rows = [[cell.strip().strip("`") for cell in line.split("|")[1:-1]]
            for line in table.splitlines() if line.startswith("| `")]
    documented = {row[0]: row[-1] for row in rows}
    assert set(documented) \
        == {f.name for f in fields(DescentConfig)} | {"cauchy_riemann"}
    # every documented default parses, to the defaults the code runs with
    cfg = parse_config("[problem]\ninterfaces = 0.5\n" + MINIMAL_MATERIALS
                       + "[descent]\n" + "".join(
                           f"{key} = {value}\n"
                           for key, value in documented.items()))
    assert cfg.descent == DescentConfig()


def test_unknown_section_and_key_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config("[nonsense]\nkey = 1\n")
    with pytest.raises(ConfigError, match="unknown descent key"):
        parse_config("[problem]\ninterfaces = 0.5\n" + MINIMAL_MATERIALS
                     + "[descent]\nwhatever = 1\n")


def test_materials_must_cover_phases():
    with pytest.raises(ConfigError, match="phase 1"):
        parse_config("[problem]\ninterfaces = 0.5\n"
                     "[materials]\nphase 2 sigma = 1\n"
                     "phase 2 nu = constant 1\n"
                     "[discretization]\nnx = 8\nnt = 8\n")


def test_rotation_motion_rejected_for_1d():
    with pytest.raises(ConfigError, match="motion"):
        parse_config("[problem]\ninterfaces = 0.5\nmotion = rotation2d\n")


def test_bad_expression_rejected_with_line():
    with pytest.raises(ConfigError, match="line"):
        parse_config("[problem]\ninterfaces = 0.5\n" + MINIMAL_MATERIALS
                     + "[source]\nf = sin(q)\n")


def assert_config_error_at_its_line(tmp_path, capsys, key, text):
    path = write_cfg(tmp_path, nx=8, nt=8)
    lines = path.read_text().splitlines()
    line = next(n for n, ln in enumerate(lines, 1)
                if ln.startswith(f"{key} = "))
    lines[line - 1] = f"{key} = {text}"
    path.write_text("\n".join(lines) + "\n")
    assert main(["solve", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(
        f"configuration error: line {line}: ")


@pytest.mark.parametrize("key, text", [
    ("f", "1/0"), ("j", "1/0"), ("f", "0**-1"), ("j", "0**-1"),
    ("j", "u/0")])
def test_constant_division_by_zero_is_a_config_error_at_its_line(
        tmp_path, capsys, key, text):
    assert_config_error_at_its_line(tmp_path, capsys, key, text)


@pytest.mark.parametrize("key, text", [
    ("f", "1/sin(0)"), ("j", "u/sqrt(0)"), ("f", "sqrt(-1)"),
    ("j", "1e309")])
def test_constant_part_without_a_finite_value_is_a_config_error_at_its_line(
        tmp_path, capsys, key, text):
    assert_config_error_at_its_line(tmp_path, capsys, key, text)


@pytest.mark.parametrize("terms", [1000, 5000])
def test_deeply_nested_expression_is_a_config_error_at_its_line(
        tmp_path, capsys, terms):
    # 1,000 terms overflow the evaluator's recursion, 5,000 ast.parse's
    assert_config_error_at_its_line(tmp_path, capsys, "f",
                                    "+".join(["x"] * terms))


def test_curve_material_spec():
    cfg = parse_config(
        "[problem]\ninterfaces = 0.5\n"
        "[materials]\nphase 1 sigma = 1\nphase 1 nu = curve 795774.7 200 0.001 6\n"
        "phase 2 sigma = 0\nphase 2 nu = constant 10\n"
        "[discretization]\nnx = 8\nnt = 8\n")
    assert cfg.phase_nu[1].c1 == 200.0


def test_cmd_solve_prints_objective(tmp_path, capsys):
    code = main(["solve", "--config", str(write_cfg(tmp_path, nx=40, nt=40))])
    assert code == 0
    out = capsys.readouterr().out
    assert "J = " in out
    value = float(out.split("J = ")[1].split()[0])
    assert abs(value - 5.3836e-4) < 1e-6


def test_cmd_solve_zero_source(tmp_path, capsys):
    path = write_cfg(tmp_path)
    text = path.read_text().replace(
        "f = (xref-0.4)*(xref-0.6)*sqrt(x)*(1+t-x)", "f = 0")
    path.write_text(text)
    assert main(["solve", "--config", str(path)]) == 0
    assert float(capsys.readouterr().out.split("J = ")[1].split()[0]) == 0.0


def test_cmd_solve_writes_vtk(tmp_path):
    cfg = write_cfg(tmp_path, nx=10, nt=10)
    assert main(["solve", "--config", str(cfg), "--vtk"]) == 0
    assert (tmp_path / "out" / "solution.vtk").exists()


def test_cmd_solve_non_finite_objective_exits_4(tmp_path, capsys):
    path = write_cfg(tmp_path, nx=8, nt=8)
    path.write_text(path.read_text().replace("j = u", "j = 1e308"))
    assert main(["solve", "--config", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("solver error: non-finite objective")
    assert captured.out == ""


def test_malformed_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("[problem\ninterfaces = 0.5\n")
    assert main(["solve", "--config", str(path)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_missing_config_exits_3(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.cfg")]) == 3


def test_unwritable_output_dir_exits_3(tmp_path):
    blocker = tmp_path / "out"
    blocker.write_text("a file, not a directory")
    assert main(["solve", "--config", str(write_cfg(tmp_path))]) == 3


def test_cmd_optimize_writes_history(tmp_path, capsys):
    cfg = write_cfg(tmp_path, nx=16, nt=16, max_outer=2)
    assert main(["optimize", "--config", str(cfg)]) == 0
    with open(tmp_path / "out" / "history.csv") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["iter", "J", "theta_norm", "tau", "newton_iters"]
    assert len(rows) == 4            # header + 2 accepted + final row
    objectives = [float(r[1]) for r in rows[1:]]
    assert objectives[-1] < objectives[0]
    assert "final J" in capsys.readouterr().out


def test_cmd_optimize_vtk_writes_each_accepted_step_and_the_final(tmp_path):
    cfg = write_cfg(tmp_path, nx=10, nt=10, max_outer=2)
    assert main(["optimize", "--config", str(cfg), "--vtk"]) == 0
    out = tmp_path / "out"
    with open(out / "history.csv") as handle:
        assert len(list(csv.reader(handle))) == 4
    assert sorted(p.name for p in out.glob("*.vtk")) == [
        "final.vtk", "iteration_0000.vtk", "iteration_0001.vtk"]


def test_solver_failure_exits_4(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(fem, "NewtonOptions",
                        lambda: NewtonOptions(max_iter=0))
    cfg = write_cfg(tmp_path, nx=8, nt=8)
    assert main(["solve", "--config", str(cfg)]) == 4
    assert capsys.readouterr().err.startswith(
        "solver error: Newton did not converge")


def test_cmd_optimize_zero_budget_history_has_initial_row_only(tmp_path):
    cfg = write_cfg(tmp_path, nx=10, nt=10, max_outer=0)
    assert main(["optimize", "--config", str(cfg)]) == 0
    with open(tmp_path / "out" / "history.csv") as handle:
        rows = list(csv.reader(handle))
    assert len(rows) == 2
    assert int(rows[1][0]) == 0


def test_cmd_check_gradient_passes_on_benchmark(tmp_path, capsys):
    cfg = write_cfg(tmp_path, nx=48, nt=48)
    code = main(["check-gradient", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "observed order" in out


def test_cmd_check_gradient_states_an_exact_match_in_words(tmp_path,
                                                          capsys):
    # J = 0 on every design: the difference quotients and the adjoint
    # pairing agree exactly, and a successful run prints no inf
    path = write_cfg(tmp_path, nx=8, nt=8)
    path.write_text(path.read_text().replace("j = u", "j = 0"))
    assert main(["check-gradient", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "observed order: infinite," in out
    assert not {"inf", "-inf", "nan"} & set(out.lower().split())


def test_cmd_check_gradient_prints_the_same_with_the_handed_factor(
        tmp_path, monkeypatch, capsys):
    cfg = write_cfg(tmp_path, nx=16, nt=16)
    real_solve = cli.solve_state
    outputs = []
    for keep in (True, False):
        handed = []

        def solve(*args, **kwargs):
            state = real_solve(*args, **kwargs)
            handed.append(state.system)
            if not keep:
                state.system = None
            return state

        monkeypatch.setattr(cli, "solve_state", solve)
        main(["check-gradient", "--config", str(cfg)])
        assert handed[0] is not None
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("eps", ["abc", "1e-2,0", "1e-2", "1e-2,nan", ""])
def test_check_gradient_bad_eps_option_is_a_config_error(tmp_path, capsys,
                                                         eps):
    cfg = write_cfg(tmp_path, nx=8, nt=8)
    assert main(["check-gradient", "--config", str(cfg), "--eps", eps]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error: ")
    assert captured.out == ""


def test_cmd_check_gradient_zero_theta_trivially_passes(tmp_path, capsys):
    cfg = write_cfg(tmp_path, nx=16, nt=16,
                    extra=None)
    text = cfg.read_text().replace(
        "theta = sin(pi*x)*(0.5+0.3*sin(2*pi*x))", "theta = 0*x")
    cfg.write_text(text)
    assert main(["check-gradient", "--config", str(cfg)]) == 0
    assert "inf" in capsys.readouterr().out


def test_observed_order_helper():
    assert observed_order([1e-2, 1e-3], [1e-3, 1e-4]) == pytest.approx(1.0)
    assert observed_order([1e-2, 1e-3], [0.0, 0.0]) == np.inf


def test_each_config_expression_is_parsed_once():
    path = Path(__file__).resolve().parents[1] / "configs" \
        / "moving_interface_coarse.cfg"
    with mock.patch.object(expressions, "_parse",
                           wraps=expressions._parse) as parse:
        load_config(path).build()
    # f, j and the gradient-check theta
    assert parse.call_count == 3


def test_shipped_configs_parse_and_build():
    for name in ("moving_interface.cfg", "moving_interface_coarse.cfg"):
        path = Path(__file__).resolve().parents[1] / "configs" / name
        cfg = parse_config(path.read_text())
        mesh, layout, source, objective = cfg.build()
        assert mesh.n_elements == 2 * cfg.n_x * cfg.n_t


@pytest.mark.parametrize("old, new", [
    ("t_final = 1.0", "t_finl = 3"),
    ("phase 1 nu = constant 1.0",
     "phase 1 nu = constant 1.0\nphase 1 mu = 2"),
    ("[source]", "[source]\nsource = 0"),
    ("nt = 20", "nt = 20\nquadratur = 2"),
    ("j = u", "j = u\nk = u"),
    ("vtk = false", "vtk = false\nvtkk = true"),
    ("eps = 1e-2 1e-3 1e-4", "eps = 1e-2 1e-3 1e-4\nepss = 1e-2"),
    ("theta_tol = 1e-9", "theta_tol = 1e-9\ntheta_tl = 1e-3"),
])
def test_unknown_key_is_a_config_error_at_its_line(tmp_path, old, new):
    path = write_cfg(tmp_path)
    text = path.read_text().replace(old, new)
    path.write_text(text)
    line = text.splitlines().index(new.splitlines()[-1]) + 1
    with pytest.raises(ConfigError, match=f"line {line}: unknown") as info:
        load_config(path)
    assert info.value.line == line
    assert main(["solve", "--config", str(path)]) == 2

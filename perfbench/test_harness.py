"""Self-tests of the benchmark harness: span arithmetic, wrapper restore,
the coverage identities on small traced descents, and the output checks.

    python3 -m pytest -q perfbench/test_harness.py
"""

import json
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from stshapeopt import fem  # noqa: E402


def _bindings():
    """Every name the instrumentation may replace, with its current value."""
    out = {}
    for module in tracing._package_modules():
        for attr, value in vars(module).items():
            out[(module.__name__, attr)] = value
    for module_name, cls_name, method, _ in tracing.METHODS:
        cls = getattr(sys.modules[f"stshapeopt.{module_name}"], cls_name)
        out[(cls_name, method)] = vars(cls)[method]
    return out


def test_self_time_subtracts_direct_children_only():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 5.0, 6.0, 7.0, 10.0])
    t = tracing.Tracer(clock=lambda: next(ticks))
    with t.span("a"):              # 0 .. 10
        with t.span("b"):          # 1 .. 5
            with t.span("c"):      # 2 .. 3
                pass
        with t.span("b"):          # 6 .. 7
            pass
    total, own = tracing.span_times(t.spans)
    assert dict(total) == {"a": 10.0, "b": 5.0, "c": 1.0}
    assert dict(own) == {"a": 5.0, "b": 4.0, "c": 1.0}
    assert [s[3] for s in t.spans] == [-1, 0, 1, 0]


def test_instrument_replaces_and_restores_every_binding():
    before = _bindings()
    with tracing.instrument(tracing.Tracer()):
        patched = _bindings()
        from stshapeopt import optimizer
        assert optimizer.solve_state is not before[("stshapeopt.fem",
                                                    "solve_state")]
        assert optimizer.solve_state is fem.solve_state
    assert _bindings() == before
    changed = {k for k in before if patched[k] is not before[k]}
    assert ("stshapeopt.derivative", "jet1d") in changed
    assert ("stshapeopt.sources", "jet1d") in changed
    assert ("LinearSystem", "__init__") in changed


def test_instrument_restores_after_a_raise():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracing.instrument(tracing.Tracer()):
            raise RuntimeError("boom")
    assert _bindings() == before


@pytest.mark.parametrize("nonlinear", [False, True])
def test_coverage_identities_hold_on_a_traced_descent(nonlinear):
    workload = workloads.Workload(workloads._paper_problem(
        12, nonlinear, workloads._descent(2000.0, 3)), 1)
    t = tracing.Tracer()
    instance = workloads.run_instance(workload, (0.4, 0.6), None, t)
    assert instance["errors"] == []
    counts = tracing.run_counts(t, 1)
    assert tracing.coverage_errors(counts) == []
    assert counts["fem.solve_state.calls"] > 1
    assert counts["materials.nu_eval.calls"] > 0
    # the adjoint refactors the matrix the accepted trial factored
    assert (counts["fem.factor.repeat"] > 0) != nonlinear
    metrics = tracing.layer_metrics(t)
    assert metrics["optimizer.outer_iters"][0] == 3


def test_coverage_check_reports_a_missed_call():
    counts = Counter({"fem.solve_state.calls": 4, "mesh.deform_mesh.calls": 4,
                      "mesh.deform_mesh.inverted": 1,
                      "fem.solve_state.newton_iters": 4,
                      "fem.solve_adjoint.calls": 2, "fem.factor.calls": 6})
    assert tracing.coverage_errors(counts) == []
    counts["fem.solve_state.calls"] -= 1
    counts["fem.factor.calls"] -= 1
    assert len(tracing.coverage_errors(counts)) == 2


def test_record_check_catches_a_perturbed_objective():
    reference = workloads.load_reference()["descent_coarse_48"]

    def report(js, termination=reference["termination"]):
        return SimpleNamespace(
            records=[SimpleNamespace(objective=j) for j in js],
            termination=termination)

    js = list(reference["J"])
    assert workloads.check_records(report(js), reference) == []
    perturbed = js[:5] + [js[5] * (1.0 + 1e-11)] + js[6:]
    assert workloads.check_records(report(perturbed), reference)
    assert workloads.check_records(report(js[:-1]), reference)
    assert workloads.check_records(report(js, "max_outer"), reference)


def test_solution_check_catches_a_perturbed_state():
    workload = workloads.Workload(workloads._paper_problem(
        12, False, workloads._descent(2000.0, 2)), 1)
    problem, report, *_ = workloads.execute(workload, (0.4, 0.6))
    assert workloads.check_solution(problem, report) == []
    u = report.state.u
    report.state.u = fem.Field(u.dofmap, u.values * (1.0 + 1e-6))
    assert workloads.check_solution(problem, report)


def test_designs_are_seeded():
    assert workloads.design(0, 3) == workloads.PAPER_INTERFACES
    a = workloads.design(7, 0)
    assert a == workloads.design(7, 0)
    assert a != workloads.design(7, 1) and a != workloads.design(8, 0)
    assert np.all(np.abs(np.subtract(a, workloads.PAPER_INTERFACES))
                  <= workloads.INTERFACE_SHIFT)


def test_workload_names_agree():
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)


@pytest.mark.parametrize("traced", [False, True])
def test_reported_metrics_match_benchmark_json(monkeypatch, traced):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer" if traced else "end_to_end"]}
    tiny = workloads.Workload(workloads._paper_problem(
        12, False, workloads._descent(2000.0, 2)), 2)
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", tiny)
    result = workloads.measure("tiny", 1, 0.0,
                               tracing.Tracer() if traced else None)
    assert result["correct"], result
    assert set(result["metrics"]) == names
    assert result["attempted"] == (3 if traced else 1)

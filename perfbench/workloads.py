"""Workloads of the descent benchmark, their seeded inputs and output checks.

Every workload is a closed loop with one client: it builds a problem, runs
``optimize`` on it and checks the result before the next one starts.  Seed
0 is the paper's setup, interfaces (0.4, 0.6); any other seed shifts each
interface by a seeded uniform amount in +-0.01.  Runs that rotate through
several designs average out the seed-to-seed spread in line-search work on
the descents whose trajectory depends most on the design.
"""

import json
import resource
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from stshapeopt import config as st_config
from stshapeopt import fem as st_fem
from stshapeopt import mesh as st_mesh
from stshapeopt import optimizer as st_optimizer
from stshapeopt.materials import (ConstantReluctivity, PhaseLayout,
                                  PhaseMaterial, ReluctivityCurve)
from stshapeopt.motion import Polynomial1D
from stshapeopt.sources import AnalyticSource

from tracer import coverage_errors, instrument, layer_metrics, run_counts

ROOT = Path(__file__).resolve().parent.parent
COARSE_CONFIG = ROOT / "configs" / "moving_interface_coarse.cfg"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

PAPER_INTERFACES = (0.4, 0.6)
INTERFACE_SHIFT = 0.01
SOURCE = "(xref-0.4)*(xref-0.6)*sqrt(x)*(1+t-x)"
# ROADMAP trajectory rule: J within 1e-12 relative at every record
REL_TOL = 1e-12
# Set-up is sampled in a window before every untraced instance and one
# after the last, each window until it has this many samples and this much
# time: pure-Python set-up speed drifts by up to 2x over seconds on a
# shared host, and windows spread over the run see more of that drift.
SETUP_MIN_SAMPLES = 3
SETUP_MAX_SAMPLES = 25
SETUP_MIN_SECONDS = 0.3


def design(seed, k):
    """Interfaces of design k of a seed."""
    if seed == 0:
        return PAPER_INTERFACES
    rng = np.random.default_rng([seed, k])
    shift = rng.uniform(-INTERFACE_SHIFT, INTERFACE_SHIFT, 2)
    return tuple(float(a) for a in np.add(PAPER_INTERFACES, shift))


@dataclass(frozen=True)
class Problem:
    mesh: object
    layout: object
    source: object
    objective: object
    descent: object


def _objective_u():
    return st_fem.Objective(
        j=lambda u: np.asarray(u, dtype=float),
        jprime=lambda u: np.ones_like(np.asarray(u, dtype=float)))


def _phase1_nu(nonlinear):
    if nonlinear:
        # nu(s) = 10 - 9 exp(-4e4 s^2)
        return ReluctivityCurve(nu_a=10.0, c1=1.0, c2=4.0e4, c3=2.0)
    return ConstantReluctivity(1.0)


def _paper_problem(n, nonlinear, descent):
    def build(interfaces):
        motion = Polynomial1D()
        layout = PhaseLayout({
            1: PhaseMaterial(10.0, _phase1_nu(nonlinear)),
            2: PhaseMaterial(0.0, ConstantReluctivity(10.0))})
        source = AnalyticSource(SOURCE, motion)
        mesh = st_mesh.generate_mesh(n, n, interfaces, motion)
        return Problem(mesh, layout, source, _objective_u(), descent)
    return build


def _coarse_problem(interfaces):
    cfg = st_config.load_config(COARSE_CONFIG)
    cfg.interfaces = list(interfaces)
    mesh, layout, source, objective = cfg.build()
    return Problem(mesh, layout, source, objective, cfg.descent)


@dataclass(frozen=True)
class Workload:
    build: object       # interfaces -> Problem
    designs: int        # designs an untraced run takes in turn


def _descent(tau_init, max_outer):
    return st_optimizer.DescentConfig(alpha=0.5, beta=0.0, tau_init=tau_init,
                                      theta_tol=1e-9, max_outer=max_outer)


# BENCHMARK.json says why each workload exists.  A 40 s run on a 2-core
# machine holds one or two descents at 160^2, three or four at 80^2 and
# about nine coarse ones.
WORKLOADS = {
    "descent_linear_160": Workload(
        _paper_problem(160, False, _descent(2000.0, 10)), 1),
    "descent_coarse_48": Workload(_coarse_problem, 5),
    "descent_nonlinear_80": Workload(
        _paper_problem(80, True, _descent(2000.0, 10)), 2),
}


def load_reference():
    with open(REFERENCE) as handle:
        return json.load(handle)


def check_records(report, reference):
    """Seed-0 trajectory against the recorded reference."""
    errors = []
    js = [r.objective for r in report.records]
    if len(js) != len(reference["J"]):
        errors.append(f"{len(js)} records, reference has "
                      f"{len(reference['J'])}")
    if report.termination != reference["termination"]:
        errors.append(f"termination {report.termination}, reference "
                      f"{reference['termination']}")
    for i, (j, ref) in enumerate(zip(js, reference["J"])):
        if not abs(j - ref) <= REL_TOL * abs(ref):
            errors.append(f"record {i}: J = {j!r}, reference {ref!r}")
    return errors


def check_solution(problem, report):
    """Seed-independent checks: finite, strictly decreasing accepted J, the
    reported J equals the final state's, and the final state meets the
    Newton tolerance through the public residual."""
    errors = []
    js = [r.objective for r in report.records]
    if not np.all(np.isfinite(js)):
        errors.append("non-finite objective in the records")
    if any(b >= a for a, b in zip(js[:-1], js[1:])):
        errors.append("accepted objective sequence is not strictly "
                      "decreasing")
    u = report.state.u
    j_final = st_fem.evaluate_objective(report.mesh, u, problem.objective)
    if j_final != report.objective_value:
        errors.append(f"final state has J = {j_final!r}, report says "
                      f"{report.objective_value!r}")
    residual = st_fem.assemble_state_residual(report.mesh, problem.layout, u,
                                              problem.source)
    load = st_fem.assemble_state_residual(
        report.mesh, problem.layout, st_fem.Field.zeros(u.dofmap),
        problem.source)
    tol = st_fem.NewtonOptions().tol
    if not np.linalg.norm(residual) <= tol * np.linalg.norm(load):
        errors.append(f"state residual {np.linalg.norm(residual):.3e} above "
                      f"{tol:g} x load norm {np.linalg.norm(load):.3e}")
    return errors


def execute(workload, interfaces):
    """Build, then time one descent from its start to the final
    objective; iteration samples are the gaps between callbacks."""
    t0 = time.perf_counter()
    problem = workload.build(interfaces)
    start = time.perf_counter()
    marks = [start]
    report = st_optimizer.optimize(
        problem.mesh, problem.layout, problem.source, problem.objective,
        problem.descent, callback=lambda n, r: marks.append(
            time.perf_counter()))
    wall = time.perf_counter() - start
    return problem, report, start - t0, wall, list(np.diff(marks))


def run_instance(workload, interfaces, reference, tracer=None):
    """One closed-loop request; a raise or a failed check marks it failed
    and it is never retried."""
    instance = {"interfaces": list(interfaces), "traced": tracer is not None}
    t0 = time.perf_counter()
    try:
        if tracer is None:
            problem, report, setup, wall, iters = execute(workload,
                                                          interfaces)
        else:
            tracer.run += 1
            instance["run"] = tracer.run
            with instrument(tracer):
                problem, report, setup, wall, iters = execute(workload,
                                                              interfaces)
        # records hold one row per outer iteration, plus the final J when
        # the iteration cap ends the descent
        outer = len(report.records) - (report.termination == "max_outer")
        if tracer is not None:
            tracer.count("optimizer.outer_iters", outer)
        errors = check_solution(problem, report)
        if reference is not None:
            errors += check_records(report, reference)
        instance.update(setup_s=setup, wall_s=wall, outer_iters=outer,
                        callback_gaps_s=iters, records=len(report.records),
                        termination=report.termination,
                        J=[r.objective for r in report.records])
    except Exception:  # a raising run is a failed request, never retried
        errors = [traceback.format_exc()]
        instance["wall_s"] = time.perf_counter() - t0
    instance["errors"] = errors
    return instance


def _setup_samples(workload, interfaces):
    samples = []
    while len(samples) < SETUP_MIN_SAMPLES or (
            sum(samples) < SETUP_MIN_SECONDS
            and len(samples) < SETUP_MAX_SAMPLES):
        t0 = time.perf_counter()
        workload.build(interfaces)
        samples.append(time.perf_counter() - t0)
    return samples


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(name, seed, seconds, tracer=None):
    """Run as many whole cycles of a workload as fit in ``seconds``, at
    least one.  Untraced, a cycle is one instance of the next design in
    turn; traced, it is an untraced and a traced instance of design 0, in
    alternating order, after one untraced warm-up instance that the
    overhead leaves out because the first descent in a process runs
    slower.

    Untraced metrics: ``setup_s``, the median problem build including
    ``generate_mesh``; ``wall_s``, the median descent time from set-up to
    the final objective; ``iter_s``, the run's total descent time over its
    total outer iterations, which does not grow with a design's record
    count and pools the host's speed changes over the whole run;
    ``peak_rss_mb``, the process's ``ru_maxrss``.  Traced metrics are the
    per-layer means over the traced instances and ``trace.overhead_frac``.
    """
    workload = WORKLOADS[name]
    reference = load_reference()[name] if seed == 0 else None
    designs = [design(seed, k) for k in range(workload.designs)]
    setup = []
    instances = []
    start = time.perf_counter()
    cycle = 0
    cycle_s = 0.0
    if tracer is not None:
        instances.append(run_instance(workload, designs[0], reference))
        instances[0]["warmup"] = True
    # a further cycle starts only if it should end within ``seconds``
    while cycle == 0 or time.perf_counter() - start + cycle_s <= seconds:
        cycle_start = time.perf_counter()
        if tracer is None:
            interfaces = designs[cycle % len(designs)]
            setup += _setup_samples(workload, interfaces)
            instances.append(run_instance(workload, interfaces, reference))
        else:
            for traced in ((False, True) if cycle % 2 == 0
                           else (True, False)):
                instances.append(run_instance(
                    workload, designs[0], reference,
                    tracer if traced else None))
        cycle_s = time.perf_counter() - cycle_start
        cycle += 1

    plain = [i for i in instances
             if not i["traced"] and "warmup" not in i]
    failed = sum(1 for i in instances if i["errors"])
    result = {"attempted": len(instances), "failed": failed,
              "instances": instances, "setup_samples": setup, "errors": []}
    if tracer is None:
        setup += _setup_samples(workload, designs[0])
        setup += [i["setup_s"] for i in plain if "setup_s" in i]
        gaps = [g for i in plain for g in i.get("callback_gaps_s", [])]
        result["callback_gap_s_p50"] = float(np.median(gaps)) if gaps \
            else None
        result["callback_gap_samples"] = len(gaps)
        result["metrics"] = {
            "setup_s": (float(np.median(setup)), "s"),
            "wall_s": (float(np.median([i["wall_s"] for i in plain])), "s"),
            "iter_s": (sum(i["wall_s"] for i in plain)
                       / sum(i.get("outer_iters", 1) for i in plain), "s"),
            "peak_rss_mb": (_peak_rss_mb(), "MB"),
        }
    else:
        traced = [i for i in instances if i["traced"]]
        for i in traced:
            if not i["errors"]:
                result["errors"] += coverage_errors(run_counts(tracer,
                                                               i["run"]))
        metrics = layer_metrics(tracer)
        metrics["trace.overhead_frac"] = (
            sum(i["wall_s"] for i in traced)
            / sum(i["wall_s"] for i in plain) - 1.0, "ratio")
        result["metrics"] = metrics
    result["correct"] = failed == 0 and not result["errors"]
    return result

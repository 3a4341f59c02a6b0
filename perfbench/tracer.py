"""Per-layer timing of stshapeopt from outside the package.

``instrument(tracer)`` replaces the public entry points of each layer with
timing wrappers for the duration of a ``with`` block and restores every
original afterwards.  Functions are replaced under every name a package
module binds them to, because ``optimizer`` and ``derivative`` import them
with ``from .x import name`` and look them up in their own namespace.
Methods are replaced on the class.

A span is ``[name, start, end, parent, run]``: ``parent`` is the index of
the enclosing span in ``Tracer.spans`` (-1 at top level) and ``run``
numbers the traced workload instance.  Spans stay in memory; the caller
writes them out when the benchmark ends.
"""

import functools
import hashlib
import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

from stshapeopt.errors import InvertedElementError

# (defining module, function, layer)
FUNCTIONS = (
    ("mesh", "generate_mesh", "mesh.generate_mesh"),
    ("mesh", "deform_mesh", "mesh.deform_mesh"),
    ("mesh", "trajectory_intervals", "mesh.trajectory_intervals"),
    ("kernels", "jet1d", "kernels.jet1d"),
    ("fem", "element_geometry", "fem.element_geometry"),
    ("fem", "solve_state", "fem.solve_state"),
    ("fem", "solve_adjoint", "fem.solve_adjoint"),
    ("fem", "evaluate_objective", "fem.evaluate_objective"),
    ("derivative", "pde_volume_densities", "derivative.pde_volume_densities"),
    ("optimizer", "hilbertian_direction", "optimizer.hilbertian_direction"),
    ("optimizer", "line_search", "optimizer.line_search"),
)

# (module, class, method, layer)
METHODS = (
    ("motion", "Motion", "inverse", "motion.inverse"),
    ("fem", "LinearSystem", "__init__", "fem.factor"),
    ("fem", "LinearSystem", "solve", "fem.lu_solve"),
    ("fem", "LinearSystem", "solve_transpose", "fem.lu_solve"),
    ("materials", "ConstantReluctivity", "eval", "materials.nu_eval"),
    ("materials", "ReluctivityCurve", "eval", "materials.nu_eval"),
)

# Package modules whose namespaces are searched for bindings to replace.
MODULES = ("mesh", "kernels", "motion", "materials", "sources", "fem",
           "derivative", "optimizer", "config")

LAYERS = tuple(dict.fromkeys(
    [layer for *_, layer in FUNCTIONS] + [layer for *_, layer in METHODS]))

# Layer metrics beyond calls, s and self_s; counted per traced instance.
EXTRA_COUNTS = ("fem.factor.repeat", "fem.solve_state.newton_iters",
                "motion.inverse.points", "mesh.deform_mesh.inverted",
                "optimizer.outer_iters")

# Which end-to-end metric each layer metric should move, on which workload.
LAYER_EFFECTS = {
    "fem.factor": "wall_s and iter_s on descent_linear_160; less of both "
                  "on descent_coarse_48; fill_nnz also drives peak_rss_mb",
    "fem.factor.repeat": "iter_s on descent_linear_160 and "
                         "descent_coarse_48; no change on "
                         "descent_nonlinear_80",
    "fem.lu_solve": "wall_s on descent_linear_160",
    "fem.solve_state": "newton_iters moves wall_s on descent_nonlinear_80",
    "fem.solve_adjoint": "iter_s on the descents",
    "fem.evaluate_objective": "iter_s on descent_coarse_48",
    "fem.element_geometry": "iter_s on descent_coarse_48 and wall_s on "
                            "descent_linear_160; per_mesh falls to 1 with "
                            "one geometry per mesh",
    "motion.inverse": "iter_s on descent_coarse_48 and wall_s on "
                      "descent_linear_160",
    "kernels.jet1d": "iter_s on descent_coarse_48 and wall_s on "
                     "descent_linear_160",
    "mesh.generate_mesh": "setup_s on descent_linear_160",
    "mesh.deform_mesh": "iter_s on descent_coarse_48",
    "mesh.trajectory_intervals": "iter_s on descent_coarse_48",
    "materials.nu_eval": "wall_s on descent_nonlinear_80 only",
    "derivative.pde_volume_densities": "iter_s on the descents",
    "optimizer.hilbertian_direction": "iter_s on the descents",
    "optimizer.line_search": "every rejected trial is one more state solve "
                             "inside iter_s",
    "trace.overhead_frac": "none; the ROADMAP asks for 2% or less",
}


class Tracer:
    """Spans and per-instance counters of one benchmark process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = Counter()      # (run, name) -> count
        self.run = 0
        self._stack = []
        self._last_factor = None
        self._meshes = defaultdict(set)

    def begin(self, name):
        record = [name, self.clock(), None,
                  self._stack[-1] if self._stack else -1, self.run]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def end(self, record):
        record[2] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        record = self.begin(name)
        try:
            yield
        finally:
            self.end(record)

    def count(self, name, n=1):
        self.counts[(self.run, name)] += n

    # hooks run outside the wrapped call's span, inside a trace.hook span
    # where they touch array contents, so no layer's self time absorbs them

    def before_factor(self, args):
        matrix = args[1]
        run, last = self._last_factor or (None, None)
        with self.span("trace.hook"):
            repeat = (run == self.run and last.shape == matrix.shape
                      and all(np.array_equal(getattr(last, a),
                                             getattr(matrix, a))
                              for a in ("indptr", "indices", "data")))
        if repeat:
            self.count("fem.factor.repeat")
        self._last_factor = (self.run, matrix)

    def after_factor(self, args, result):
        lu = args[0].lu
        fill = lu.L.nnz + lu.U.nnz
        slot = (self.run, "fem.factor.fill_nnz")
        self.counts[slot] = max(self.counts[slot], fill)

    def before_geometry(self, args):
        with self.span("trace.hook"):
            self._meshes[self.run].add(hashlib.blake2b(
                np.ascontiguousarray(args[0].vertices).data).digest())

    def before_inverse(self, args):
        self.count("motion.inverse.points", np.size(args[2]))

    def after_solve_state(self, args, result):
        self.count("fem.solve_state.newton_iters", result.iterations)

    def after_line_search(self, args, result):
        self.count("optimizer.line_search.accepted", result is not None)

    def on_deform_error(self, exc):
        if isinstance(exc, InvertedElementError):
            self.count("mesh.deform_mesh.inverted")

    def wrap(self, fn, layer):
        before = {"fem.factor": self.before_factor,
                  "fem.element_geometry": self.before_geometry,
                  "motion.inverse": self.before_inverse}.get(layer)
        after = {"fem.factor": self.after_factor,
                 "fem.solve_state": self.after_solve_state,
                 "optimizer.line_search": self.after_line_search}.get(layer)
        on_error = self.on_deform_error if layer == "mesh.deform_mesh" \
            else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            record = self.begin(layer)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                self.end(record)
            if after is not None:
                after(args, result)
            return result

        return wrapper


def _package_modules():
    for name in MODULES:
        importlib.import_module(f"stshapeopt.{name}")
    return [m for n, m in list(sys.modules.items())
            if n == "stshapeopt" or n.startswith("stshapeopt.")]


@contextmanager
def instrument(tracer):
    """Time every layer entry point into ``tracer`` inside the block."""
    saved = []
    try:
        modules = _package_modules()
        for module_name, fn_name, layer in FUNCTIONS:
            home = sys.modules[f"stshapeopt.{module_name}"]
            original = getattr(home, fn_name)
            wrapper = tracer.wrap(original, layer)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        saved.append((module, attr, original))
                        setattr(module, attr, wrapper)
        for module_name, cls_name, method, layer in METHODS:
            cls = getattr(sys.modules[f"stshapeopt.{module_name}"], cls_name)
            original = vars(cls)[method]
            saved.append((cls, method, original))
            setattr(cls, method, tracer.wrap(original, layer))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def span_times(spans):
    """Total and self time per span name; self time is a span's duration
    minus the durations of its direct children."""
    child = defaultdict(float)
    for name, start, end, parent, run in spans:
        if parent >= 0:
            child[parent] += end - start
    total = defaultdict(float)
    own = defaultdict(float)
    for index, (name, start, end, parent, run) in enumerate(spans):
        total[name] += end - start
        own[name] += end - start - child[index]
    return total, own


def run_counts(tracer, run):
    """Call counts and counters of one traced instance."""
    out = Counter()
    for name, start, end, parent, r in tracer.spans:
        if r == run:
            out[f"{name}.calls"] += 1
    for (r, name), value in tracer.counts.items():
        if r == run:
            out[name] += value
    out["fem.element_geometry.meshes"] = len(tracer._meshes[run])
    return out


def coverage_errors(counts):
    """Identities that hold for one optimize run when no wrapper missed a
    call; returns the violated ones."""
    errors = []
    trials = counts["mesh.deform_mesh.calls"] \
        - counts["mesh.deform_mesh.inverted"]
    if counts["fem.solve_state.calls"] != 1 + trials:
        errors.append(f"fem.solve_state.calls = "
                      f"{counts['fem.solve_state.calls']}, expected 1 + "
                      f"{trials} non-inverted line-search trials")
    factors = counts["fem.solve_state.newton_iters"] \
        + counts["fem.solve_adjoint.calls"]
    if counts["fem.factor.calls"] != factors:
        errors.append(f"fem.factor.calls = {counts['fem.factor.calls']}, "
                      f"expected {factors} Newton iterations plus adjoint "
                      f"solves")
    return errors


def layer_metrics(tracer):
    """Per-layer metrics averaged over the traced instances."""
    runs = range(1, tracer.run + 1)
    n = len(runs)
    total, own = span_times(tracer.spans)
    counts = Counter()
    for run in runs:
        counts.update(run_counts(tracer, run))
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (counts[f"{layer}.calls"] / n, "count")
        metrics[f"{layer}.s"] = (total[layer] / n, "s")
        metrics[f"{layer}.self_s"] = (own[layer] / n, "s")
    for name in EXTRA_COUNTS:
        metrics[name] = (counts[name] / n, "count")
    metrics["fem.factor.fill_nnz"] = (
        max(tracer.counts[(run, "fem.factor.fill_nnz")] for run in runs),
        "count")
    metrics["fem.element_geometry.per_mesh"] = (
        counts["fem.element_geometry.calls"]
        / max(counts["fem.element_geometry.meshes"], 1), "count")
    # the part of the tracing overhead that runs inside spans of its own
    metrics["trace.hook.s"] = (total["trace.hook"] / n, "s")
    trials = counts["mesh.deform_mesh.calls"]
    metrics["optimizer.line_search.trials"] = (trials / n, "count")
    metrics["optimizer.line_search.accept_ratio"] = (
        counts["optimizer.line_search.accepted"] / max(trials, 1), "ratio")
    return metrics

"""Benchmark of the stshapeopt space-time descent.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload in this process against the package under ``src/`` of the
checkout.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it times every layer in a separate traced instance and
reports the per-layer metrics.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; a readable summary goes to standard error and the full record,
with run metadata and spans, to ``perfbench/out/``.

``--workload all`` runs every workload, each in a fresh process, and prints
all metrics by name with their unit.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("descent_linear_160", "descent_coarse_48",
                  "descent_nonlinear_80")
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def cap_threads():
    """Cap BLAS and OpenMP pools at the usable cores; must run before
    numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for name in THREAD_VARIABLES:
        os.environ[name] = str(nproc)
    return nproc


def metadata(nproc):
    import numpy
    import scipy
    return {"nproc": nproc, "cpu_count": os.cpu_count(),
            "threads": {n: os.environ.get(n) for n in THREAD_VARIABLES},
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine(), "system": platform.platform()}


def load_package():
    """Import stshapeopt from this checkout's sources, never from an
    installed copy."""
    if not (SRC / "stshapeopt" / "__init__.py").is_file():
        sys.exit(f"no package sources at {SRC / 'stshapeopt'}")
    sys.path.insert(0, str(SRC))
    import stshapeopt
    if Path(stshapeopt.__file__).resolve().parent != SRC / "stshapeopt":
        sys.exit(f"stshapeopt imported from {stshapeopt.__file__}, "
                 f"not from {SRC}")


def run_one(args):
    nproc = cap_threads()
    load_package()
    import tracer as tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    result = workloads.measure(args.workload, args.seed, args.seconds,
                               tracer)
    meta = metadata(nproc)
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in result.pop("metrics").items()}
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    with open(record, "w") as handle:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "metadata": meta, "metrics": metrics,
                   "layer_effects": tracing.LAYER_EFFECTS if args.trace
                   else None,
                   "spans": tracer.spans if tracer else [], **result},
                  handle)

    print(f"{args.workload} seed {args.seed}: {result['attempted']} "
          f"attempted, {result['failed']} failed; nproc {meta['nproc']}, "
          f"python {meta['python']}, numpy {meta['numpy']}, scipy "
          f"{meta['scipy']}", file=sys.stderr)
    for instance in result["instances"]:
        for error in instance["errors"]:
            print(f"instance failed: {error}", file=sys.stderr)
    for error in result["errors"]:
        print(f"coverage check failed: {error}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


def run_all(args):
    """Every workload in its own fresh process; one table of all metrics."""
    rows = []
    correct, attempted, failed = True, 0, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            sys.exit(f"{name} exited with {proc.returncode}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        correct &= out["correct"]
        attempted += out["attempted"]
        failed += out["failed"]
        rows.append((name, out))
    for name, out in rows:
        print(f"{name}: failed_frac {out['failed']}/{out['attempted']} = "
              f"{out['failed'] / out['attempted']:g}")
        for metric, m in out["metrics"].items():
            print(f"  {metric:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {f"{name}.{metric}": m for name, out in rows
                    for metric, m in out["metrics"].items()}}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.workload == "all":
        run_all(args)
    else:
        run_one(args)


if __name__ == "__main__":
    main()

"""Record the seed-0 reference trajectory of every workload.

    python3 perfbench/record_reference.py

writes ``perfbench/reference.json``: per workload the J of every record and
the termination reason, which the benchmark checks at 1e-12 relative.  Run
it only at a commit whose trajectories are trusted.
"""

import json

from run import cap_threads, load_package


def main():
    cap_threads()
    load_package()
    import workloads

    reference = {}
    for name, workload in workloads.WORKLOADS.items():
        problem, report, *_ = workloads.execute(workload,
                                                workloads.design(0, 0))
        errors = workloads.check_solution(problem, report)
        if errors:
            raise SystemExit(f"{name}: {errors}")
        reference[name] = {"termination": report.termination,
                           "J": [r.objective for r in report.records]}
        print(f"{name}: {len(report.records)} records, "
              f"{report.termination}, J_final {report.objective_value!r}")
    with open(workloads.REFERENCE, "w") as handle:
        json.dump(reference, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()

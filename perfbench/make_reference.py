"""Regenerate the reference CSVs that the benchmark checks sweeps against.

    PYTHONPATH=src python3 perfbench/make_reference.py

Runs every sweep workload's operation once per reference master seed through
`fdsic.cli.main` and writes reference/<workload>/seed-<master seed>.csv.
Regenerate only when the simulator's results are meant to change; the
references pin the outputs of the commit that wrote them.
"""

import sys

from fdsic.cli import main

import workloads


def regenerate() -> int:
    bad = 0
    for workload in workloads.WORKLOADS.values():
        if not workload.is_sweep:
            continue
        for seed in range(workloads.REFERENCE_SEEDS):
            path = workloads.reference_path(workload, seed)
            path.parent.mkdir(parents=True, exist_ok=True)
            if main(workloads.op_argv(workload, seed, path)) != 0:
                raise SystemExit(f"{workload.name} seed {seed} failed")
            # Checked against itself, only the seed-independent rules can fail.
            for problem in workloads.check_sweep_csv(path, path):
                print(f"{path}: {problem}", file=sys.stderr)
                bad += 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(regenerate())

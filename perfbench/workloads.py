"""Workload definitions, seed mapping, output checks and kernel counts.

Each workload is one `fdsic` command line.  The benchmark seed chooses the
simulator's master seed from a fixed table, and every master seed in that
table has a committed reference CSV under `reference/`, so each sweep
operation can be checked against the output of the commit that defined the
benchmark.
"""

import math
from dataclasses import dataclass
from pathlib import Path

from fdsic.harness import read_csv

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# --seed n selects master seed BASE_MASTER_SEED + (n mod REFERENCE_SEEDS).
# Seed 0 is the package default seed.
BASE_MASTER_SEED = 20260818
REFERENCE_SEEDS = 16

# Largest allowed |g_emp_db - g_theo_db| on an optimal row (acceptance
# criterion 3 of the package).
THEORY_TOLERANCE_DB = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple[str, ...]
    warmup: tuple[str, ...]
    # (n_subcarriers, n_taps) of the simulated node; None when the workload
    # runs no trials.
    shape: tuple[int, int] | None

    @property
    def is_sweep(self) -> bool:
        return self.shape is not None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="inr-ref",
            # The paper's headline sweep. A trial's SI covariance is the same at
            # every INR point up to scale, so cross-point reuse shows here.
            command=("sweep-inr", "--values", "20,25,30,35,40,45,50",
                     "--trials", "8"),
            warmup=("sweep-inr", "--values", "20,25,30,35,40,45,50",
                    "--trials", "1"),
            shape=(128, 16),
        ),
        Workload(
            name="pn-ref",
            # Every point needs its own phase-noise table and covariance, so
            # cross-point reuse is bypassed.
            command=("sweep-pn", "--values", "1e-05,0.0001,0.001,0.01",
                     "--trials", "12"),
            warmup=("sweep-pn", "--values", "1e-05,0.0001,0.001,0.01",
                    "--trials", "1"),
            shape=(128, 16),
        ),
        Workload(
            name="snr-fast",
            # Sub-millisecond trials: Python per-call overhead dominates.
            command=("sweep-snr", "--fast", "--values", "0,5,10,15,20"),
            warmup=("sweep-snr", "--fast", "--values", "0,5,10,15,20",
                    "--trials", "10"),
            shape=(32, 16),
        ),
        Workload(
            name="validate",
            # Memory-bound oracle batches; the only user of fdsic.validation.
            command=("validate",),
            warmup=("validate", "--fast"),
            shape=None,
        ),
    )
}


def master_seed(seed: int) -> int:
    """Simulator master seed for a benchmark seed."""
    return BASE_MASTER_SEED + seed % REFERENCE_SEEDS


def op_argv(workload: Workload, seed: int, out: Path) -> list[str]:
    """Command line of one measured operation."""
    return _with_output(workload.command, workload, seed, out)


def warmup_argv(workload: Workload, seed: int, out: Path) -> list[str]:
    """Command line of the reduced warm-up operation run during set-up."""
    return _with_output(workload.warmup, workload, seed, out)


def _with_output(base, workload, seed, out) -> list[str]:
    argv = list(base)
    if workload.is_sweep:
        argv += ["--seed", str(master_seed(seed)), "--out", str(out)]
    return argv


def reference_path(workload: Workload, seed: int) -> Path:
    return REFERENCE_DIR / workload.name / f"seed-{master_seed(seed)}.csv"


def check_sweep_csv(out: Path, reference: Path) -> list[str]:
    """Problems found in a sweep CSV; an empty list means it passes.

    A cell fails when its g_emp_db is further from the reference than the
    reference cell's ci_db, a sweep point has optimal <= ls, or an optimal
    row's prediction misses the simulation by more than THEORY_TOLERANCE_DB.
    """
    try:
        records = read_csv(out)
    except (OSError, ValueError, IndexError) as exc:
        return [f"unreadable output {out}: {exc}"]
    expected = {(r.value, r.method): r for r in read_csv(reference)}
    got = {(r.value, r.method): r for r in records}
    if len(got) != len(records) or set(got) != set(expected):
        return [f"rows {sorted(got)} differ from reference {sorted(expected)}"]
    problems = []
    for key, ref in sorted(expected.items()):
        cell = got[key]
        if cell.trials != ref.trials:
            problems.append(f"{key}: {cell.trials} trials, reference {ref.trials}")
        if not abs(cell.g_empirical_db - ref.g_empirical_db) <= ref.ci_halfwidth_db:
            problems.append(
                f"{key}: g_emp_db {cell.g_empirical_db!r} is more than "
                f"{ref.ci_halfwidth_db:.4f} dB from reference "
                f"{ref.g_empirical_db!r}"
            )
        if cell.method == "optimal":
            theo = cell.g_theoretical_db
            if theo is None or not (
                abs(cell.g_empirical_db - theo) <= THEORY_TOLERANCE_DB
            ):
                problems.append(
                    f"{key}: g_emp_db {cell.g_empirical_db!r} vs g_theo_db "
                    f"{theo!r} exceeds {THEORY_TOLERANCE_DB} dB"
                )
    for value in sorted({value for value, _ in got}):
        optimal = got[(value, "optimal")].g_empirical_db
        ls = got[(value, "ls")].g_empirical_db
        if not optimal > ls:
            problems.append(f"value {value!r}: optimal {optimal!r} <= ls {ls!r}")
    return problems


def kernel_counts(workload: Workload) -> dict[str, float]:
    """Per-trial floating-point operations and bytes of the N x N operands of
    the three O(N^3)/O(L N^2) kernels, computed from array sizes.

    Conventions: a complex multiply-add is 8 flops, a length-N FFT
    5 N log2 N, a complex Cholesky 4/3 N^3, a complex triangular solve
    4 N^2 per right-hand side.  Operand bytes count the N x N arrays each
    kernel takes or returns (complex128 16 B, float64 8 B per entry).
    Zero for a workload that runs no trials.
    """
    names = (
        "estimator.si_covariance",
        "estimator.optimal_weights",
        "cancellation.expected_residual_power",
    )
    if workload.shape is None:
        return {
            f"{name}.computed_{kind}": 0.0
            for name in names
            for kind in ("flops_per_trial", "operand_bytes")
        }
    n, taps = workload.shape
    log_n = math.log2(n)
    flops = {
        # ifft of the symbols, the L-term sample correlation, the 2-D FFT.
        "estimator.si_covariance": 5 * n * log_n + 8 * taps * n * n
        + 10 * n * n * log_n,
        # Cholesky of C, two triangular solves with N right-hand sides, and
        # the diagonal of V B.
        "estimator.optimal_weights": 4 / 3 * n**3 + 8 * n**3 + 8 * n * n,
        # V C as a matrix product plus the two trace contractions.
        "cancellation.expected_residual_power": 8 * n**3 + 16 * n * n,
    }
    operand_bytes = {
        # Real phase kernel in, complex covariance A out.
        "estimator.si_covariance": (8 + 16) * n * n,
        # B and C in, V out.
        "estimator.optimal_weights": 3 * 16 * n * n,
        # A and V in.
        "cancellation.expected_residual_power": 2 * 16 * n * n,
    }
    counts = {}
    for name in names:
        counts[f"{name}.computed_flops_per_trial"] = float(flops[name])
        counts[f"{name}.computed_operand_bytes"] = float(operand_bytes[name])
    return counts

"""Acceptance gate: nine end-to-end checks of the full-scale scenario.

Each test prints one PASS/FAIL line carrying the measured values and the
pinned tolerances; run `pytest -v tests/test_acceptance.py` for the verdicts.
The two Monte Carlo sweeps (interference level and oscillator quality) are
computed once per session and shared by the tests that grade them.
"""

import time

import numpy as np
import pytest

from fdsic.cli import main
from fdsic.estimator import EstimatorStatistics
from fdsic.harness import SimConfig, sweep
from fdsic.impairments import pn_covariance_table
from fdsic.ofdm import gen_bpsk_symbols
from fdsic.validation import (
    check_model_equivalence,
    check_pn_covariance,
    check_qp_oracle,
    check_si_covariance,
    expected_residual_power,
    ls_weight_matrix,
    optimal_weights,
    subcarrier_si_covariance,
)

INR_VALUES = [20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0]
PN_VALUES = [1e-5, 1e-4, 1e-3, 1e-2]

FULL_SWEEP_BUDGET_S = 1800.0
FAST_SWEEP_BUDGET_S = 180.0
COVARIANCE_BUDGET_S = 120.0

# Worst errors of the full-size Monte Carlo oracles, as `fdsic validate`
# runs them: pn-covariance at delta_f 1e-4 and 1e-3, then si-covariance.
# Like FAST_WORST_ERRORS in test_cli.py, they hold the draws fixed: each
# oracle's normals are one full-size draw whose row holds all of a
# sample's normals, so any change to the seeds, that row layout or the
# sizes moves them far beyond rel 1e-6, and the block size does not.
FULL_WORST_ERRORS = (
    5.3437912219417846e-05,
    1.691342846261091e-04,
    3.4379731330803384e-03,
)


# Largest |predicted - simulated| cancellation ability, in dB, that
# criterion 3 allows on any row of either method.
THEORY_TOLERANCE_DB = 1.0


def theory_misses(records) -> tuple[bool, dict[str, float]]:
    """Criterion 3's gate over sweep records: whether every row's
    prediction is within THEORY_TOLERANCE_DB of its simulation, and the
    worst |g_theoretical_db - g_empirical_db| of each method."""
    worst = {
        method: max(
            abs(record.g_theoretical_db - record.g_empirical_db)
            for record in records
            if record.method == method
        )
        for method in ("optimal", "ls")
    }
    return max(worst.values()) <= THEORY_TOLERANCE_DB, worst


def _verdict(name: str, passed: bool, detail: str) -> None:
    print(f"{name} {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"{name}: {detail}"


def _cell(records, value, method):
    for record in records:
        if record.method == method and np.isclose(record.value, value):
            return record
    raise AssertionError(f"missing record {method}@{value}")


@pytest.fixture(scope="module")
def inr_sweep():
    start = time.perf_counter()
    records = sweep(SimConfig(), "inr", INR_VALUES)
    return records, time.perf_counter() - start


@pytest.fixture(scope="module")
def pn_sweep():
    start = time.perf_counter()
    records = sweep(SimConfig(), "delta_f", PN_VALUES)
    return records, time.perf_counter() - start


def test_criterion_1_interference_sweep(inr_sweep):
    records, elapsed = inr_sweep
    ls_high = _cell(records, 50.0, "ls").g_empirical_db
    opt_high = _cell(records, 50.0, "optimal").g_empirical_db
    gaps = [
        _cell(records, v, "optimal").g_empirical_db
        - _cell(records, v, "ls").g_empirical_db
        for v in INR_VALUES
    ]
    fast_start = time.perf_counter()
    fast_records = sweep(SimConfig().fast(), "inr", INR_VALUES)
    fast_elapsed = time.perf_counter() - fast_start
    fast_gaps = [
        _cell(fast_records, v, "optimal").g_empirical_db
        - _cell(fast_records, v, "ls").g_empirical_db
        for v in INR_VALUES
    ]
    passed = (
        22.0 <= ls_high <= 28.0
        and 37.0 <= opt_high <= 43.0
        and min(gaps) >= -1e-9
        and elapsed <= FULL_SWEEP_BUDGET_S
        and min(fast_gaps) >= -1e-9
        and fast_elapsed <= FAST_SWEEP_BUDGET_S
    )
    _verdict(
        "criterion 1",
        passed,
        f"ls@50dB={ls_high:.2f} (want 25+-3), "
        f"optimal@50dB={opt_high:.2f} (want 40+-3), "
        f"min optimal-ls gap {min(gaps):.2f} dB >= 0 over {len(INR_VALUES)} "
        f"points, full sweep {elapsed:.0f}s <= {FULL_SWEEP_BUDGET_S:.0f}s, "
        f"fast profile ordered (min gap {min(fast_gaps):.2f} dB) in "
        f"{fast_elapsed:.0f}s <= {FAST_SWEEP_BUDGET_S:.0f}s",
    )


def test_criterion_2_oscillator_quality_sweep(pn_sweep):
    records, _ = pn_sweep
    ls_drop = (
        _cell(records, 1e-5, "ls").g_empirical_db
        - _cell(records, 1e-2, "ls").g_empirical_db
    )
    opt_drop = (
        _cell(records, 1e-5, "optimal").g_empirical_db
        - _cell(records, 1e-2, "optimal").g_empirical_db
    )
    passed = 16.0 <= ls_drop <= 24.0 and 2.0 <= opt_drop <= 8.0
    _verdict(
        "criterion 2",
        passed,
        f"ls degradation {ls_drop:.2f} dB (want 20+-4), "
        f"optimal degradation {opt_drop:.2f} dB (want 5+-3) over "
        f"bandwidths 1e-5..1e-2",
    )


def test_criterion_3_theory_tracks_simulation(inr_sweep, pn_sweep):
    # both methods: the optimal closed form and the LS prediction
    # (N - L)*noise + L*soi + s*tr{(I - P) A0}
    records = inr_sweep[0] + pn_sweep[0]
    passed, worst = theory_misses(records)
    points = len(records) // 2
    _verdict(
        "criterion 3",
        passed,
        f"max |predicted - simulated| ability {worst['optimal']:.3f} dB "
        f"(optimal) and {worst['ls']:.3f} dB (ls) <= "
        f"{THEORY_TOLERANCE_DB} dB over {points} sweep points each",
    )


def test_criterion_4_si_covariance_oracle():
    start = time.perf_counter()
    result = check_si_covariance()
    elapsed = time.perf_counter() - start
    passed = result.passed and elapsed <= COVARIANCE_BUDGET_S
    _verdict(
        "criterion 4",
        passed,
        f"{result.line()} in {elapsed:.0f}s <= {COVARIANCE_BUDGET_S:.0f}s",
    )
    assert result.worst_error == pytest.approx(FULL_WORST_ERRORS[2], rel=1e-6)


def test_criterion_5_mixing_covariance_oracle():
    # one draw of traces serves both bandwidths
    results = check_pn_covariance()
    passed = len(results) == 2 and all(result.passed for result in results)
    _verdict(
        "criterion 5", passed, "; ".join(result.line() for result in results)
    )
    worst = [result.worst_error for result in results]
    assert worst == pytest.approx(FULL_WORST_ERRORS[:2], rel=1e-6)


def test_criterion_6_real_program_equals_complex_solve():
    result = check_qp_oracle()
    _verdict("criterion 6", result.passed, result.line())


def test_criterion_7_synthesis_matches_sample_domain_oracle():
    result = check_model_equivalence()
    _verdict("criterion 7", result.passed, result.line())


def test_criterion_8_optimality_and_closed_form():
    rng = np.random.default_rng(8008)
    worst_rel = 0.0
    worst_margin = -np.inf
    instances = 0
    for index in range(100):
        n = (4, 8, 16)[index % 3]
        n_taps = int(rng.integers(1, min(6, n) + 1))
        n_tx = int(rng.integers(1, 5))
        delta_f = float(10.0 ** rng.uniform(-5, -2))
        soi_power = float(10.0 ** rng.uniform(-1, 1))
        symbols = gen_bpsk_symbols(n, rng)
        pdp = rng.uniform(0.2, 1.0, n_taps)
        stats = EstimatorStatistics(symbols=symbols[None], pdp=pdp, n_tx=n_tx)
        kernel = pn_covariance_table(delta_f, n)
        cov = subcarrier_si_covariance(stats, kernel)[0]
        si_noise = cov + 1.0 * np.eye(n)
        weights, opt_values = optimal_weights(
            si_noise + soi_power * np.eye(n), si_noise
        )
        best = expected_residual_power(cov, weights, soi_power)
        closed = n * 1.0 + np.trace(cov).real + opt_values.sum()
        # np.maximum, unlike the builtin max, propagates a NaN, so it fails
        worst_rel = np.maximum(worst_rel, abs(best - closed) / closed)
        for competitor in (
            np.zeros((n, n)),
            np.eye(n),
            ls_weight_matrix(symbols, n_taps),
        ):
            other = expected_residual_power(cov, competitor, soi_power)
            worst_margin = np.maximum(
                worst_margin, (best - other) / max(other, 1e-300)
            )
        instances += 1
    passed = worst_rel <= 1e-6 and worst_margin <= 1e-9
    _verdict(
        "criterion 8",
        passed,
        f"optimum vs direct evaluation rel error {worst_rel:.2e} <= 1e-6, "
        f"worst optimality margin {worst_margin:.2e} <= 1e-9 against "
        f"{{zero, identity, least-squares}} on {instances} instances",
    )


def test_criterion_9_fast_profile_is_byte_deterministic(tmp_path):
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert main(["sweep-inr", "--fast", "--out", str(first)]) == 0
    assert main(["sweep-inr", "--fast", "--out", str(second)]) == 0
    identical = first.read_bytes() == second.read_bytes()
    _verdict(
        "criterion 9",
        identical,
        f"two fast interference sweeps, {first.stat().st_size} bytes each, "
        f"byte-identical={identical}",
    )

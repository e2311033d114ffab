"""Reduced-size runs of the self-check suites and their reporting."""

import numpy as np
import pytest

from fdsic.impairments import gen_si_channel, gen_wiener_phase
from fdsic.ofdm import gen_bpsk_symbols
from fdsic.validation import (
    CheckResult,
    check_model_equivalence,
    check_pn_covariance,
    check_qp_oracle,
    check_si_covariance,
    time_domain_si_reference,
)


def test_check_result_line_format():
    result = CheckResult(
        name="demo", passed=True, worst_error=1.5e-4, tolerance=2e-3,
        detail="small",
    )
    assert result.line() == (
        "PASS demo: worst error 1.500e-04 (tolerance 2.000e-03) small"
    )
    failed = CheckResult("demo", False, 1.0, 0.5, "big")
    assert failed.line().startswith("FAIL demo")


def test_pn_covariance_check_small():
    result = check_pn_covariance(
        delta_f=1e-3, n_subcarriers=16, n_traces=20_000, tolerance=5e-3
    )
    assert result.passed, result.line()


def test_si_covariance_check_small():
    result = check_si_covariance(n_trials=20_000, tolerance=0.06)
    assert result.passed, result.line()


def test_qp_oracle_check_small():
    result = check_qp_oracle(sizes=(4, 8), n_instances=10)
    assert result.passed, result.line()


def test_model_equivalence_check_small():
    result = check_model_equivalence(n_trials=20)
    assert result.passed, result.line()


def test_time_domain_reference_needs_full_prefix():
    rng = np.random.default_rng(81)
    n = 16
    symbols = gen_bpsk_symbols(n, 1.0, rng)
    taps = gen_si_channel(1, 6, np.ones(6), rng)
    trace = gen_wiener_phase(n, 1e-3, rng)
    with pytest.raises(ValueError, match="prefix"):
        time_domain_si_reference(symbols, taps, [trace], trace, 4)

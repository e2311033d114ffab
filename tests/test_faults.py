"""A catalogue of seeded faults, each with the check that must catch it.

Each case injects one fault by monkeypatch, never by editing the sources,
runs the named check and asserts that it fails.  A check that still passes
under its fault cannot see that defect.  Where a check reads Monte Carlo
sweeps, a fault-free case shows that it passes on working code."""

import numpy as np
import pytest

from fdsic import harness, validation
from fdsic.harness import SimConfig, sweep

from test_acceptance import theory_misses


def _poisoned(route):
    """route with every array it returns filled with NaN."""

    def poisoned(*args):
        result = route(*args)
        if isinstance(result, tuple):
            return tuple(np.full_like(part, np.nan) for part in result)
        return np.full_like(result, np.nan)

    return poisoned


def test_qp_oracle_fails_on_nan_real_program_weights(monkeypatch):
    monkeypatch.setattr(
        validation, "real_qp_weights", _poisoned(validation.real_qp_weights)
    )
    result = validation.check_qp_oracle(fast=True)
    assert result.line().startswith(
        "FAIL qp-oracle: worst error nan"
    ), result.line()


def test_model_equivalence_fails_on_nan_synthesis(monkeypatch):
    monkeypatch.setattr(
        validation,
        "synthesize_received",
        _poisoned(validation.synthesize_received),
    )
    result = validation.check_model_equivalence()
    assert result.line().startswith(
        "FAIL model-equivalence: worst error nan"
    ), result.line()


@pytest.mark.parametrize(
    "receive, worst",
    [(np.zeros_like, "1.868e-01"), (np.negative, "3.710e-01")],
    ids=["dropped", "sign-flipped"],
)
def test_model_equivalence_fails_on_a_wrong_receive_walk(
    monkeypatch, receive, worst
):
    # the simulator's synthesis without the receive oscillator's rotation,
    # or with its phase negated, against the sample-domain reference
    synthesize = validation.synthesize_received

    def faulty(outputs, tx_phases, rx_phases):
        return synthesize(outputs, tx_phases, receive(rx_phases))

    monkeypatch.setattr(validation, "synthesize_received", faulty)
    result = validation.check_model_equivalence()
    assert result.line().startswith(
        f"FAIL model-equivalence: worst error {worst}"
    ), result.line()


def test_pn_covariance_fails_on_a_kernel_at_twice_the_bandwidth(monkeypatch):
    # the closed form built at 2 x delta_f: the Delta f = 1e-3 line sees it
    # (4.14e-3 against 2e-3), the 1e-4 line does not (4.2e-4).  At 1.3 x
    # delta_f every check passes (ROADMAP item 14).
    table = validation.pn_covariance_table

    def doubled(delta_f, n_subcarriers):
        return table(2.0 * delta_f, n_subcarriers)

    monkeypatch.setattr(validation, "pn_covariance_table", doubled)
    narrow, wide = validation.check_pn_covariance()
    assert narrow.passed, narrow.line()
    assert wide.line().startswith(
        "FAIL pn-covariance: worst error 4.143e-03 (tolerance 2.000e-03) "
        "delta_f=0.001"
    ), wide.line()


def _fewer_ls_taps(monkeypatch):
    # least squares fitted with one tap fewer than the channel has
    estimate = harness.ls_estimate

    def faulty(received, symbols, n_taps):
        return estimate(received, symbols, n_taps - 1)

    monkeypatch.setattr(harness, "ls_estimate", faulty)


def _no_receive_walk(monkeypatch):
    # the harness's synthesis without the receive oscillator's rotation
    synthesize = harness.synthesize_received

    def faulty(outputs, tx_phases, rx_phases):
        return synthesize(outputs, tx_phases, np.zeros_like(rx_phases))

    monkeypatch.setattr(harness, "synthesize_received", faulty)


@pytest.mark.parametrize(
    "inject, passed, ls_miss",
    [(None, True, 0.033), (_fewer_ls_taps, False, -5.601),
     (_no_receive_walk, False, 2.810)],
    ids=["no-fault", "fewer-ls-taps", "no-receive-walk"],
)
def test_criterion_3_catches_a_harness_fault(
    monkeypatch, inject, passed, ls_miss
):
    # criterion 3's gate on a fast-profile INR sweep at 20 and 50 dB over
    # 200 trials: the LS row at 50 dB misses its prediction by ls_miss dB
    # (simulated - predicted), while the optimal rows stay within 0.1 dB of
    # theirs, fault or not
    if inject is not None:
        inject(monkeypatch)
    records = sweep(SimConfig().fast(), "inr", [20.0, 50.0])
    cells = {(r.value, r.method): r for r in records}
    ls = cells[(50.0, "ls")]
    assert ls.g_empirical_db - ls.g_theoretical_db == pytest.approx(
        ls_miss, abs=1e-3
    )
    verdict, worst = theory_misses(records)
    assert verdict is passed, worst
    assert worst["optimal"] <= 0.1, worst

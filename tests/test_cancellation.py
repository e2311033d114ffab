"""Residual accounting: reconstruction, the split of the residual, the
expected-power functional and the ability metric."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fdsic.cancellation import cancellation_ability, reconstruct_si
from fdsic.estimator import EstimatorStatistics
from fdsic.impairments import (
    channel_outputs,
    gen_awgn,
    gen_si_channel,
    gen_wiener_phase,
    phase_increment_variance,
    pn_covariance_table,
    synthesize_received,
)
from fdsic.ofdm import gen_bpsk_symbols
from fdsic.validation import (
    dft_matrix,
    expected_residual_power,
    ls_weight_matrix,
    optimal_weights,
    subcarrier_si_covariance,
)


def test_reconstruct_si_matches_basis_product():
    rng = np.random.default_rng(71)
    n, n_taps = 16, 3
    symbols = gen_bpsk_symbols(n, rng)
    taps = rng.standard_normal(n_taps) + 1j * rng.standard_normal(n_taps)
    expected = (symbols[:, None] * dft_matrix(n, n_taps)) @ taps
    si = reconstruct_si(symbols[None], taps[None, :, None])
    assert_allclose(si, expected[None, :, None], atol=1e-12)


def test_reconstruct_si_validation():
    symbols = np.ones((1, 8), dtype=np.complex128)
    with pytest.raises(ValueError):
        reconstruct_si(symbols, np.ones((1, 9, 1), dtype=np.complex128))


def test_residual_splits_into_leakage_and_soi_distortion():
    # r = (I - V)(si + noise) - V soi, independent of how y is assembled
    rng = np.random.default_rng(73)
    n = 12
    si = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    soi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    weights = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    received = si + soi + noise
    residual = received - weights @ received - soi
    expected = (np.eye(n) - weights) @ (si + noise) - weights @ soi
    assert_allclose(residual, expected, atol=1e-12)


def _small_covariance(rng, n=16, n_taps=2, n_tx=2, delta_f=1e-3):
    symbols = gen_bpsk_symbols(n, rng)
    pdp = np.exp(-np.arange(n_taps) / 4.0)
    stats = EstimatorStatistics(symbols=symbols[None], pdp=pdp, n_tx=n_tx)
    return symbols, pdp, subcarrier_si_covariance(
        stats, pn_covariance_table(delta_f, n)
    )[0]


def test_expected_residual_with_zero_weights():
    rng = np.random.default_rng(74)
    _, _, cov = _small_covariance(rng)
    n = cov.shape[0]
    value = expected_residual_power(cov, np.zeros((n, n)), 1.0, 2.0)
    assert value == pytest.approx(n * 1.0 + np.trace(cov).real, rel=1e-12)


def test_expected_residual_with_identity_weights_is_soi_power():
    # V = I removes SI and noise entirely and forwards only the SOI
    rng = np.random.default_rng(75)
    _, _, cov = _small_covariance(rng)
    n = cov.shape[0]
    value = expected_residual_power(cov, np.eye(n), 1.0, 2.0)
    assert value == pytest.approx(n * 2.0, rel=1e-9)


def test_expected_residual_matches_monte_carlo():
    rng = np.random.default_rng(76)
    n, n_taps, n_tx = 16, 2, 2
    symbols, pdp, cov = _small_covariance(rng, n, n_taps, n_tx)
    weights = ls_weight_matrix(symbols, n_taps)
    predicted = expected_residual_power(cov, weights, 1.0, 2.0)
    sigma = np.sqrt(phase_increment_variance(1e-3, n))
    total = 0.0
    trials = 4000
    for _ in range(trials):
        taps = gen_si_channel(n_tx, pdp, rng)
        traces = [sigma * gen_wiener_phase(n, rng) for _ in range(n_tx)]
        rx = sigma * gen_wiener_phase(n, rng)
        soi = np.sqrt(2.0) * gen_awgn(n, rng)
        received = (
            synthesize_received(
                channel_outputs(symbols[None], taps[None]),
                np.array(traces)[None],
                rx[None],
            )[0]
            + soi
            + gen_awgn(n, rng)
        )
        residual = received - weights @ received - soi
        total += np.vdot(residual, residual).real
    assert total / trials == pytest.approx(predicted, rel=0.08)


def test_expected_residual_validation():
    cov = np.eye(4, dtype=np.complex128)
    with pytest.raises(ValueError):
        expected_residual_power(cov, np.eye(3), 1.0, 1.0)
    with pytest.raises(ValueError):
        expected_residual_power(cov, np.eye(4), -1.0, 1.0)


def test_optimal_weights_beat_fixed_competitors():
    rng = np.random.default_rng(77)
    n, n_taps = 32, 4
    symbols = gen_bpsk_symbols(n, rng)
    pdp = np.exp(-np.arange(n_taps) / 4.0)
    stats = EstimatorStatistics(symbols=symbols[None], pdp=pdp, n_tx=4)
    cov = subcarrier_si_covariance(stats, pn_covariance_table(1e-3, n))[0]
    si_noise = cov + np.eye(n)
    best, _ = optimal_weights(si_noise + 3.0 * np.eye(n), si_noise)
    best_value = expected_residual_power(cov, best, 1.0, 3.0)
    competitors = [
        np.zeros((n, n)),
        np.eye(n),
        ls_weight_matrix(symbols, n_taps),
    ]
    for weights in competitors:
        other = expected_residual_power(cov, weights, 1.0, 3.0)
        assert best_value <= other * (1.0 + 1e-9)


def test_cancellation_ability_known_ratio():
    assert cancellation_ability(1000.0, 10.0) == pytest.approx(20.0)
    assert cancellation_ability(1000.0, 1000.0) == pytest.approx(0.0)
    assert cancellation_ability(1.0, 0.0) == math.inf
    assert cancellation_ability(1.0, -1.0) == math.inf
    # a power that is not finite, or a pre-cancellation power that is not
    # positive, raises naming its argument rather than a math domain error
    # or a NaN ability
    nan, inf = math.nan, math.inf
    for pre, residual, name in [
        (-1.0, 1.0, "pre_power"),
        (0.0, 1.0, "pre_power"),
        (nan, 1.0, "pre_power"),
        (inf, 1.0, "pre_power"),
        (1.0, inf, "residual_power"),
        (1.0, -inf, "residual_power"),
        (1.0, nan, "residual_power"),
    ]:
        with pytest.raises(ValueError, match=name):
            cancellation_ability(pre, residual)


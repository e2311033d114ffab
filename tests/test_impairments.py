"""Phase-noise statistics, SI channel draws and received-symbol synthesis."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

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
    ici_coefficients,
    mixing_covariance,
    simulate_mixing_covariance,
)


def test_phase_increment_variance_accumulates_over_symbol():
    # defining relation: one symbol body accumulates 4*pi*delta_f
    n = 128
    sigma2 = phase_increment_variance(1e-3, n)
    assert sigma2 * n == pytest.approx(4.0 * np.pi * 1e-3, rel=1e-12)
    assert phase_increment_variance(0.0, n) == 0.0


def test_phase_increment_variance_validation():
    with pytest.raises(ValueError):
        phase_increment_variance(-1e-3, 8)
    with pytest.raises(ValueError):
        phase_increment_variance(1e-3, 0)


def test_wiener_phase_starts_at_initial_value():
    # every trace starts at phase 0 and a zero-variance trace stays there
    rng = np.random.default_rng(21)
    trace = gen_wiener_phase(64, 1e-4, rng)
    assert trace[0] == 0.0
    assert trace.shape == (64,)
    frozen = gen_wiener_phase(64, 0.0, rng)
    assert_allclose(frozen, 0.0)


def test_wiener_phase_variance_grows_linearly():
    rng = np.random.default_rng(22)
    sigma2 = 1e-3
    traces = np.array(
        [gen_wiener_phase(32, sigma2, rng) for _ in range(4000)]
    )
    for idx in (8, 31):
        observed = traces[:, idx].var()
        assert observed == pytest.approx(idx * sigma2, rel=0.15)


def test_wiener_phase_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        gen_wiener_phase(0, 1e-3, rng)
    with pytest.raises(ValueError):
        gen_wiener_phase(8, -1.0, rng)


def test_ici_constant_phase_is_pure_common_rotation():
    delta = ici_coefficients(np.full(16, 0.3))
    expected = np.zeros(16, dtype=np.complex128)
    expected[0] = np.exp(0.3j)
    assert_allclose(delta, expected, atol=1e-14)


def test_ici_frequency_offset_appears_at_negative_index():
    n, m0 = 16, 3
    phases = 2.0 * np.pi * m0 * np.arange(n) / n
    delta = ici_coefficients(phases)
    expected = np.zeros(n, dtype=np.complex128)
    expected[(-m0) % n] = 1.0
    assert_allclose(delta, expected, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=512),
    variance=st.floats(min_value=0.0, max_value=10.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_ici_coefficients_conserve_energy(n, variance, seed):
    # Parseval: sum_m |delta_m|^2 = 1 for every trace length and increment
    # variance
    trace = gen_wiener_phase(n, variance, np.random.default_rng(seed))
    delta = ici_coefficients(trace)
    assert np.sum(np.abs(delta) ** 2) == pytest.approx(1.0, rel=1e-12)


def test_ici_coefficients_of_a_stack_match_each_trace():
    # the Monte Carlo oracle transforms blocks of traces at once
    rng = np.random.default_rng(27)
    traces = np.array([gen_wiener_phase(20, 1e-2, rng) for _ in range(3)])
    stacked = ici_coefficients(traces)
    assert stacked.shape == (3, 20)
    for trace, delta in zip(traces, stacked):
        assert np.array_equal(delta, ici_coefficients(trace))


def test_mixing_is_circulant_in_the_coefficients():
    # rotating the body samples mixes subcarriers with offsets delta[i - k]
    rng = np.random.default_rng(24)
    n = 24
    trace = gen_wiener_phase(n, 1e-2, rng)
    spectrum = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    direct = np.fft.fft(np.exp(1j * trace) * np.fft.ifft(spectrum))
    delta = ici_coefficients(trace)
    offsets = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    assert_allclose(delta[offsets] @ spectrum, direct, atol=1e-12)


def test_tone_rotation_shifts_bins_upward():
    n, m0 = 16, 5
    rng = np.random.default_rng(25)
    spectrum = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    tone = np.exp(2j * np.pi * m0 * np.arange(n) / n)
    shifted = np.fft.fft(tone * np.fft.ifft(spectrum))
    assert_allclose(shifted, np.roll(spectrum, m0), atol=1e-12)


def test_pn_table_trace_is_unit():
    gamma = mixing_covariance(pn_covariance_table(1e-3, 64).kernel)
    assert np.trace(gamma).real == pytest.approx(1.0, rel=1e-12)
    assert abs(np.trace(gamma).imag) < 1e-14


def test_pn_table_is_hermitian():
    gamma = mixing_covariance(pn_covariance_table(1e-2, 32).kernel)
    assert_allclose(gamma, gamma.conj().T, atol=1e-14)


def test_pn_table_perfect_oscillator_is_deterministic():
    table = pn_covariance_table(0.0, 16)
    expected = np.zeros((16, 16), dtype=np.complex128)
    expected[0, 0] = 1.0
    assert_allclose(mixing_covariance(table.kernel), expected, atol=1e-14)
    assert_allclose(table.kernel, 1.0)


def test_pn_table_kernel_decay():
    table = pn_covariance_table(1e-3, 32)
    sigma2 = phase_increment_variance(1e-3, 32)
    assert table.increment_variance == sigma2
    # the transmit plus receive pair accumulates twice one oscillator's
    # increment variance per sample
    combined = 2.0 * sigma2
    assert table.kernel[0, 5] == pytest.approx(np.exp(-combined * 5 / 2.0))
    assert table.kernel[7, 2] == pytest.approx(np.exp(-combined * 5 / 2.0))


def test_pn_table_of_a_bandwidth_whose_long_lags_overflow_is_the_identity():
    # at N = 32 the pair's variance for delta_f = 1e307 is finite, but not
    # its product with the longest lags; those entries decorrelate fully,
    # without a floating-point warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kernel = pn_covariance_table(1e307, 32).kernel
    assert np.array_equal(kernel, np.eye(32))


def test_pn_table_matches_monte_carlo():
    rng = np.random.default_rng(26)
    gamma = mixing_covariance(pn_covariance_table(1e-3, 16).kernel)
    (estimate,) = simulate_mixing_covariance((1e-3,), 16, 20_000, rng)
    assert np.max(np.abs(estimate - gamma)) < 5e-3


def test_si_channel_tap_powers_follow_profile():
    rng = np.random.default_rng(27)
    pdp = np.array([1.0, 0.5, 0.25])
    taps = gen_si_channel(20_000, pdp, rng)
    assert taps.shape == (20_000, 3)
    assert_allclose((np.abs(taps) ** 2).mean(axis=0), pdp, rtol=0.05)
    assert np.max(np.abs(taps.mean(axis=0))) < 0.05


def test_si_channel_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="n_tx"):
        gen_si_channel(0, np.ones(2), rng)
    # the tap count is the profile's length, so the profile is a
    # non-empty vector
    with pytest.raises(ValueError, match=r"shape \(2, 3\)"):
        gen_si_channel(2, np.ones((2, 3)), rng)
    with pytest.raises(ValueError, match=r"shape \(0,\)"):
        gen_si_channel(2, np.ones(0), rng)
    with pytest.raises(ValueError, match="non-negative"):
        gen_si_channel(2, np.array([1.0, -1.0]), rng)


def test_awgn_power_and_circularity():
    rng = np.random.default_rng(28)
    noise = gen_awgn(40_000, rng)
    assert (np.abs(noise) ** 2).mean() == pytest.approx(1.0, rel=0.05)
    # circular symmetry: pseudo-variance E[z^2] vanishes
    assert abs((noise**2).mean()) < 0.05


def test_synthesize_without_phase_noise_is_plain_channel_product():
    rng = np.random.default_rng(29)
    n, n_taps, n_tx = 32, 4, 3
    symbols = gen_bpsk_symbols(n, rng)
    pdp = np.exp(-np.arange(n_taps) / 4.0)
    taps = gen_si_channel(n_tx, pdp, rng)
    quiet = [gen_wiener_phase(n, 0.0, rng) for _ in range(n_tx)]
    rx = gen_wiener_phase(n, 0.0, rng)
    si = synthesize_received(channel_outputs(symbols, taps), quiet, rx)
    response = np.fft.fft(taps, n=n, axis=1).sum(axis=0)
    assert_allclose(si, symbols * response, atol=1e-12)


def test_synthesize_total_is_sum_of_parts():
    # the SI is the sum of the per-antenna parts and linear in the taps,
    # which is what lets a sweep point rescale a unit-power realization
    rng = np.random.default_rng(30)
    n = 16
    symbols = gen_bpsk_symbols(n, rng)
    taps = gen_si_channel(2, np.ones(2), rng)
    traces = [gen_wiener_phase(n, 1e-4, rng) for _ in range(2)]
    rx = gen_wiener_phase(n, 1e-4, rng)
    total = synthesize_received(channel_outputs(symbols, taps), traces, rx)
    parts = [
        synthesize_received(
            channel_outputs(symbols, taps[[s]]), [traces[s]], rx
        )
        for s in range(2)
    ]
    assert_allclose(total, parts[0] + parts[1], atol=1e-12)
    assert_allclose(
        synthesize_received(channel_outputs(symbols, 3.0 * taps), traces, rx),
        3.0 * total,
        atol=1e-12,
    )


def test_synthesize_mean_si_power():
    # conditional mean power over one symbol is N * n_tx * sum(pdp) for BPSK
    rng = np.random.default_rng(31)
    n, n_taps, n_tx = 16, 3, 3
    symbols = gen_bpsk_symbols(n, rng)
    pdp = np.exp(-np.arange(n_taps) / 4.0)
    variance = phase_increment_variance(1e-3, n)
    total = 0.0
    trials = 3000
    for _ in range(trials):
        taps = gen_si_channel(n_tx, pdp, rng)
        traces = [gen_wiener_phase(n, variance, rng) for _ in range(n_tx)]
        rx = gen_wiener_phase(n, variance, rng)
        si = synthesize_received(channel_outputs(symbols, taps), traces, rx)
        total += np.vdot(si, si).real
    expected = n * n_tx * pdp.sum()
    assert total / trials == pytest.approx(expected, rel=0.08)


def test_synthesize_shared_trace_matches_replicated_traces():
    rng = np.random.default_rng(32)
    n, n_tx = 16, 4
    symbols = gen_bpsk_symbols(n, rng)
    taps = gen_si_channel(n_tx, np.ones(2), rng)
    shared = gen_wiener_phase(n, 1e-3, rng)
    rx = gen_wiener_phase(n, 1e-3, rng)
    outputs = channel_outputs(symbols, taps)
    one = synthesize_received(outputs, [shared], rx)
    many = synthesize_received(outputs, [shared] * n_tx, rx)
    assert_allclose(one, many, atol=1e-12)


def test_synthesize_validation():
    rng = np.random.default_rng(33)
    n = 16
    symbols = gen_bpsk_symbols(n, rng)
    taps = gen_si_channel(3, np.ones(2), rng)
    trace = gen_wiener_phase(n, 1e-3, rng)
    short = gen_wiener_phase(n - 1, 1e-3, rng)
    outputs = channel_outputs(symbols, taps)
    with pytest.raises(ValueError, match="transmit traces"):
        synthesize_received(outputs, [trace, trace], trace)
    with pytest.raises(ValueError, match="length"):
        synthesize_received(outputs, [short], trace)
    long_channel = gen_si_channel(1, np.ones(n + 1), rng)
    with pytest.raises(ValueError, match="longer"):
        channel_outputs(symbols, long_channel)

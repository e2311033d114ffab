"""Phase-noise statistics, SI channel draws and received-symbol synthesis."""

import re
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
    # a negative or non-finite bandwidth, or one whose one-oscillator or
    # pair variance overflows, raises ValueError without a floating-point
    # warning; the kernel would otherwise have a NaN diagonal
    nan, inf = float("nan"), float("inf")
    for build, delta_f, n in [
        (phase_increment_variance, -1e-3, 8),
        (phase_increment_variance, 1e-3, 0),
        (phase_increment_variance, nan, 8),
        (phase_increment_variance, inf, 8),
        (phase_increment_variance, 1e308, 4),
        (pn_covariance_table, nan, 4),
        (pn_covariance_table, inf, 4),
        (pn_covariance_table, 1e308, 4),
        # one oscillator's variance is finite, the pair's 2*sigma2 is not
        (pn_covariance_table, 1e307, 1),
    ]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="delta_f|n_subcarriers"):
                build(delta_f, n)


def test_wiener_phase_starts_at_initial_value():
    # every trace starts at phase 0, then sums the stream's standard normals
    trace = gen_wiener_phase(64, np.random.default_rng(21))
    assert trace[0] == 0.0
    assert trace.shape == (64,)
    steps = np.random.default_rng(21).standard_normal(63)
    assert np.array_equal(trace[1:], np.cumsum(steps))


@pytest.mark.parametrize("n", [1, 2, 32])
def test_wiener_phase_draws_exactly_its_steps(n):
    # call after call, each walk is the zero prepended to the cumulated
    # draw of its n - 1 steps, and leaves the generator where that draw does
    rng = np.random.Generator(np.random.PCG64(23))
    reference_rng = np.random.Generator(np.random.PCG64(23))
    for _ in range(5):
        reference = np.concatenate(
            ([0.0], np.cumsum(reference_rng.standard_normal(n - 1)))
        )
        assert np.array_equal(gen_wiener_phase(n, rng), reference)
    assert rng.bit_generator.state == reference_rng.bit_generator.state


def test_wiener_phase_variance_grows_linearly():
    # unit-step walks: the variance after idx steps is idx
    rng = np.random.default_rng(22)
    traces = np.array([gen_wiener_phase(32, rng) for _ in range(4000)])
    for idx in (8, 31):
        observed = traces[:, idx].var()
        assert observed == pytest.approx(idx, rel=0.15)


def test_wiener_phase_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        gen_wiener_phase(0, rng)


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
    trace = np.sqrt(variance) * gen_wiener_phase(n, np.random.default_rng(seed))
    delta = ici_coefficients(trace)
    assert np.sum(np.abs(delta) ** 2) == pytest.approx(1.0, rel=1e-12)


def test_ici_coefficients_of_a_stack_match_each_trace():
    # the Monte Carlo oracle transforms blocks of traces at once
    rng = np.random.default_rng(27)
    traces = 0.1 * np.array([gen_wiener_phase(20, rng) for _ in range(3)])
    stacked = ici_coefficients(traces)
    assert stacked.shape == (3, 20)
    for trace, delta in zip(traces, stacked):
        assert np.array_equal(delta, ici_coefficients(trace))


def test_mixing_is_circulant_in_the_coefficients():
    # rotating the body samples mixes subcarriers with offsets delta[i - k]
    rng = np.random.default_rng(24)
    n = 24
    trace = 0.1 * gen_wiener_phase(n, rng)
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
    gamma = mixing_covariance(pn_covariance_table(1e-3, 64))
    assert np.trace(gamma).real == pytest.approx(1.0, rel=1e-12)
    assert abs(np.trace(gamma).imag) < 1e-14


def test_pn_table_is_hermitian():
    gamma = mixing_covariance(pn_covariance_table(1e-2, 32))
    assert_allclose(gamma, gamma.conj().T, atol=1e-14)


def test_pn_table_perfect_oscillator_is_deterministic():
    kernel = pn_covariance_table(0.0, 16)
    expected = np.zeros((16, 16), dtype=np.complex128)
    expected[0, 0] = 1.0
    assert_allclose(mixing_covariance(kernel), expected, atol=1e-14)
    assert_allclose(kernel, 1.0)


def test_pn_table_kernel_decay():
    kernel = pn_covariance_table(1e-3, 32)
    sigma2 = phase_increment_variance(1e-3, 32)
    assert kernel.shape == (32, 32)
    # the transmit plus receive pair accumulates twice one oscillator's
    # increment variance per sample
    combined = 2.0 * sigma2
    assert kernel[0, 5] == pytest.approx(np.exp(-combined * 5 / 2.0))
    assert kernel[7, 2] == pytest.approx(np.exp(-combined * 5 / 2.0))


def test_pn_table_of_a_bandwidth_whose_long_lags_overflow_is_the_identity():
    # at N = 32 the pair's variance for delta_f = 1e307 is finite, but not
    # its product with the longest lags; those entries decorrelate fully,
    # without a floating-point warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kernel = pn_covariance_table(1e307, 32)
    assert np.array_equal(kernel, np.eye(32))


def test_pn_table_matches_monte_carlo():
    rng = np.random.default_rng(26)
    gamma = mixing_covariance(pn_covariance_table(1e-3, 16))
    (estimate,) = simulate_mixing_covariance((1e-3,), 16, 20_000, rng)
    assert np.max(np.abs(estimate - gamma)) < 5e-3


def test_si_channel_tap_powers_follow_profile():
    rng = np.random.default_rng(27)
    pdp = np.array([1.0, 0.5, 0.25])
    taps = gen_si_channel(20_000, pdp, rng)
    assert taps.shape == (20_000, 3)
    assert_allclose((np.abs(taps) ** 2).mean(axis=0), pdp, rtol=0.05)
    assert np.max(np.abs(taps.mean(axis=0))) < 0.05


@pytest.mark.parametrize("n_tx", [1, 5])
def test_si_channel_taps_are_the_scaled_pair_of_draws(n_tx):
    # the taps are bit for bit the product of the scale and the complex
    # pair of draws, real parts first, a zero-power tap included
    pdp = np.array([1.0, 0.0, 0.25])
    taps = gen_si_channel(n_tx, pdp, np.random.default_rng(29))
    rng = np.random.default_rng(29)
    re = rng.standard_normal((n_tx, pdp.size))
    im = rng.standard_normal((n_tx, pdp.size))
    assert taps.dtype == np.complex128
    assert np.array_equal(taps, np.sqrt(pdp / 2.0) * (re + 1j * im))
    assert np.array_equal(taps[:, 1], np.zeros(n_tx))


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


def _synthesize(symbols, taps, tx_traces, rx):
    """One trial's SI through the batched layout: a batch of one."""
    return synthesize_received(
        channel_outputs(symbols[None], taps[None]),
        np.array(tx_traces)[None],
        rx[None],
    )[0]


def test_synthesize_without_phase_noise_is_plain_channel_product():
    rng = np.random.default_rng(29)
    n, n_taps, n_tx = 32, 4, 3
    symbols = gen_bpsk_symbols(n, rng)
    pdp = np.exp(-np.arange(n_taps) / 4.0)
    taps = gen_si_channel(n_tx, pdp, rng)
    quiet = np.zeros((n_tx, n))
    rx = np.zeros(n)
    si = _synthesize(symbols, taps, quiet, rx)
    response = np.fft.fft(taps, n=n, axis=1).sum(axis=0)
    assert_allclose(si, symbols * response, atol=1e-12)


def test_synthesize_total_is_sum_of_parts():
    # the SI is the sum of the per-antenna parts and linear in the taps,
    # which is what lets a sweep point rescale a unit-power realization
    rng = np.random.default_rng(30)
    n = 16
    symbols = gen_bpsk_symbols(n, rng)
    taps = gen_si_channel(2, np.ones(2), rng)
    traces = [1e-2 * gen_wiener_phase(n, rng) for _ in range(2)]
    rx = 1e-2 * gen_wiener_phase(n, rng)
    total = _synthesize(symbols, taps, traces, rx)
    parts = [
        _synthesize(symbols, taps[[s]], [traces[s]], rx) for s in range(2)
    ]
    assert_allclose(total, parts[0] + parts[1], atol=1e-12)
    assert_allclose(
        _synthesize(symbols, 3.0 * taps, traces, rx), 3.0 * total, atol=1e-12
    )


def test_synthesize_mean_si_power():
    # conditional mean power over one symbol is N * n_tx * sum(pdp) for BPSK
    rng = np.random.default_rng(31)
    n, n_taps, n_tx = 16, 3, 3
    symbols = gen_bpsk_symbols(n, rng)
    pdp = np.exp(-np.arange(n_taps) / 4.0)
    sigma = np.sqrt(phase_increment_variance(1e-3, n))
    total = 0.0
    trials = 3000
    for _ in range(trials):
        taps = gen_si_channel(n_tx, pdp, rng)
        traces = [sigma * gen_wiener_phase(n, rng) for _ in range(n_tx)]
        rx = sigma * gen_wiener_phase(n, rng)
        si = _synthesize(symbols, taps, traces, rx)
        total += np.vdot(si, si).real
    expected = n * n_tx * pdp.sum()
    assert total / trials == pytest.approx(expected, rel=0.08)


def test_synthesize_shared_trace_matches_replicated_traces():
    rng = np.random.default_rng(32)
    n, n_tx = 16, 4
    symbols = gen_bpsk_symbols(n, rng)
    taps = gen_si_channel(n_tx, np.ones(2), rng)
    shared = np.sqrt(1e-3) * gen_wiener_phase(n, rng)
    rx = np.sqrt(1e-3) * gen_wiener_phase(n, rng)
    one = _synthesize(symbols, taps, [shared], rx)
    many = _synthesize(symbols, taps, [shared] * n_tx, rx)
    assert_allclose(one, many, atol=1e-12)


def _synthesis_inputs():
    """A batch of one trial: (1, 16) symbols, (1, 3, 2) taps, their
    (1, 3, 16) outputs, a (16,) trace and a (1, 16) receive trace."""
    rng = np.random.default_rng(33)
    n = 16
    symbols = gen_bpsk_symbols(n, rng)[None]
    taps = gen_si_channel(3, np.ones(2), rng)[None]
    trace = np.sqrt(1e-3) * gen_wiener_phase(n, rng)
    return {
        "symbols": symbols,
        "taps": taps,
        "outputs": channel_outputs(symbols, taps),
        "trace": trace,
        "rx": trace[None],
    }


# Each refused layout, and the layout or limit its error names.
_REFUSED_SYNTHESIS = {
    "unbatched-symbols": (
        lambda x: channel_outputs(x["symbols"][0], x["taps"][0]), "(B, N)"
    ),
    "channel-batch-mismatch": (
        lambda x: channel_outputs(x["symbols"], np.concatenate([x["taps"]] * 2)),
        "(B, n_tx, L)",
    ),
    "long-channel": (
        lambda x: channel_outputs(x["symbols"], np.ones((1, 1, 17))), "longer"
    ),
    "list-of-traces": (
        lambda x: synthesize_received(x["outputs"], [x["trace"]] * 3, x["rx"]),
        "(B, 1 or n_tx, N)",
    ),
    "unbatched-outputs": (
        lambda x: synthesize_received(
            x["outputs"][0], x["trace"][None], x["trace"]
        ),
        "(B, n_tx, N)",
    ),
    "phase-batch-mismatch": (
        lambda x: synthesize_received(
            x["outputs"], np.stack([x["rx"]] * 2), x["rx"]
        ),
        "(B, 1 or n_tx, N)",
    ),
    "wrong-trace-count": (
        lambda x: synthesize_received(
            x["outputs"], np.stack([x["rx"]] * 2, axis=1), x["rx"]
        ),
        "(B, 1 or n_tx, N)",
    ),
    "short-trace": (
        lambda x: synthesize_received(
            x["outputs"], x["rx"][:, None, 1:], x["rx"]
        ),
        "(B, 1 or n_tx, N)",
    ),
}


@pytest.mark.parametrize(
    "call, expected", _REFUSED_SYNTHESIS.values(), ids=_REFUSED_SYNTHESIS.keys()
)
def test_synthesize_validation(call, expected):
    # SI synthesis takes only the harness's batched layout; the error names
    # what it expected
    with pytest.raises(ValueError, match=re.escape(expected)):
        call(_synthesis_inputs())

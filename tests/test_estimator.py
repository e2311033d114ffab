"""Conditional SI covariance, the spectral engine, the per-subcarrier
quadratic programs and the least-squares baseline, each checked against an
independent oracle.

The engine takes the sample-domain covariance A_t (si_covariance); the
dense oracles take the subcarrier-domain A0 = U A_t U^H that
fdsic.validation.subcarrier_si_covariance builds.  The engine takes (B, N)
symbols and (B, N, P) received blocks only, so a single trial at a single
point runs as a batch of one with a block of one."""

import dataclasses
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fdsic.cancellation import reconstruct_si
from fdsic.estimator import (
    EstimatorStatistics,
    SiSpectrum,
    SingularMatrixError,
    ls_estimate,
    ls_residual_power,
    si_covariance,
    si_spectrum,
    spectral_weights,
)
from fdsic import harness
from fdsic.harness import OSCILLATOR_MODES, SimConfig, pdp_profile, sweep
from fdsic.impairments import (
    channel_outputs,
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
    mixing_covariance,
    optimal_weights,
    real_qp_weights,
    subcarrier_si_covariance,
)


def _statistics(symbols, pdp, n_tx, delta_f):
    """Statistics of a (B, N) batch of symbols and their phase correlation
    kernel."""
    return (
        EstimatorStatistics(symbols=symbols, pdp=pdp, n_tx=n_tx),
        pn_covariance_table(delta_f, symbols.shape[-1]),
    )


def _covariance(symbols, pdp, n_tx, delta_f):
    """The subcarrier-domain A0 of one trial's (N,) symbols, the matrix the
    dense oracles take."""
    stats, kernel = _statistics(symbols[None], pdp, n_tx, delta_f)
    return subcarrier_si_covariance(stats, kernel)[0]


def _engine_covariance(symbols, pdp, n_tx, delta_f):
    """The sample-domain A_t of one trial's (N,) symbols."""
    return si_covariance(*_statistics(symbols[None], pdp, n_tx, delta_f))[0]


def _engine_spectrum(symbols, pdp, n_tx, delta_f):
    """The spectral engine's tridiagonalization of one trial's A_t, as the
    spectrum of a batch of one."""
    stats, kernel = _statistics(symbols[None], pdp, n_tx, delta_f)
    return si_spectrum(si_covariance(stats, kernel), stats)


def _one(vector):
    """One trial's (N,) vector at one point, as a (1, N, 1) stack."""
    return vector[None, :, None]


def _loaded(cov, noise, soi):
    """Received and SI-plus-noise covariances: cov diagonally loaded."""
    eye = np.eye(cov.shape[0])
    si_noise = cov + noise * eye
    return si_noise + soi * eye, si_noise


def _covariance_by_direct_sum(symbols, gamma, pdp, n_tx):
    """Fourfold-sum oracle: every (m, n) entry accumulated term by term from
    the mixing covariance, the symbol outer product and the tap spectrum."""
    n = symbols.size
    lags = np.arange(n)
    spectrum = np.array(
        [
            np.sum(pdp * np.exp(-2j * np.pi * d * np.arange(pdp.size) / n))
            for d in lags
        ]
    )
    cov = np.zeros((n, n), dtype=np.complex128)
    for m in range(n):
        for col in range(n):
            acc = 0.0 + 0.0j
            for i in range(n):
                for j in range(n):
                    acc += (
                        gamma[(i - m) % n, (j - col) % n]
                        * symbols[i]
                        * np.conj(symbols[j])
                        * spectrum[(i - j) % n]
                    )
            cov[m, col] = acc
    return n_tx * cov


def test_si_covariance_matches_direct_sum():
    rng = np.random.default_rng(41)
    n, n_taps, n_tx = 8, 3, 2
    symbols = gen_bpsk_symbols(n, rng)
    pdp = np.exp(-np.arange(n_taps) / 4.0)
    gamma = mixing_covariance(pn_covariance_table(1e-3, n))
    oracle = _covariance_by_direct_sum(symbols, gamma, pdp, n_tx)
    cov = _covariance(symbols, pdp, n_tx, 1e-3)
    assert np.max(np.abs(cov - oracle)) < 1e-10 * np.max(np.abs(oracle))


def test_si_covariance_trace_equals_mean_si_power():
    rng = np.random.default_rng(42)
    n, n_taps, n_tx = 32, 5, 4
    symbols = gen_bpsk_symbols(n, rng)
    pdp = np.exp(-np.arange(n_taps) / 4.0)
    cov = _engine_covariance(symbols, pdp, n_tx, 1e-3)
    assert np.trace(cov).real == pytest.approx(n * n_tx * pdp.sum(), rel=1e-12)


def test_si_covariance_without_phase_noise():
    # perfect oscillators: rank-L structure diag(x) R diag(x)^H
    rng = np.random.default_rng(43)
    n, n_taps, n_tx = 16, 3, 2
    symbols = gen_bpsk_symbols(n, rng)
    pdp = np.array([0.5, 0.3, 0.2])
    cov = _covariance(symbols, pdp, n_tx, 0.0)
    f = dft_matrix(n, n_taps)
    freq_corr = f @ np.diag(pdp) @ f.conj().T
    expected = n_tx * np.outer(symbols, symbols.conj()) * freq_corr
    assert_allclose(cov, expected, atol=1e-10)


def test_si_covariance_is_positive_semidefinite():
    rng = np.random.default_rng(44)
    symbols = gen_bpsk_symbols(24, rng)
    cov = _engine_covariance(symbols, np.ones(4), 3, 1e-2)
    eigenvalues = np.linalg.eigvalsh(cov)
    assert eigenvalues.min() > -1e-10 * eigenvalues.max()


@pytest.mark.parametrize("shape", [(1, 16), (3, 16)])
def test_si_covariance_is_fortran_ordered_per_trial(shape):
    # zhemm and zhetrd take Fortran-ordered matrices; a C-ordered trial
    # matrix costs a transposing copy on every call
    symbols = np.sign(np.random.default_rng(45).standard_normal(shape)) + 0j
    stats = EstimatorStatistics(symbols, np.ones(3), 2)
    cov = si_covariance(stats, pn_covariance_table(1e-2, 16))
    for trial in range(shape[0]):
        assert stats.sample_covariance[trial].flags.f_contiguous
        assert cov[trial].flags.f_contiguous


def test_estimator_statistics_validation():
    rng = np.random.default_rng(45)
    symbols = gen_bpsk_symbols(16, rng)[None]
    kernel = pn_covariance_table(1e-3, 16)
    with pytest.raises(ValueError, match="zero"):
        bad = symbols.copy()
        bad[0, 3] = 0.0
        EstimatorStatistics(bad, np.ones(2), 1)
    # a non-finite symbol would carry NaN into the LS estimate
    for value in (np.nan, np.inf, complex(1.0, np.nan)):
        with pytest.raises(ValueError, match="symbols must be finite"):
            bad = symbols.copy()
            bad[0, 3] = value
            EstimatorStatistics(bad, np.ones(2), 1)
    with pytest.raises(ValueError, match=re.escape("(N, N) = (8, 8)")):
        si_covariance(EstimatorStatistics(symbols[:, :8], np.ones(2), 1), kernel)
    with pytest.raises(ValueError, match="non-negative"):
        EstimatorStatistics(symbols, np.array([1.0, -0.1]), 1)
    # a non-finite profile entry would make every covariance NaN
    for value in (np.nan, np.inf):
        with pytest.raises(ValueError, match="pdp entries must be finite"):
            EstimatorStatistics(symbols, np.array([1.0, value]), 1)
    with pytest.raises(ValueError, match="n_tx"):
        EstimatorStatistics(symbols, np.ones(2), 0)


def test_si_spectrum_rejects_a_covariance_of_other_statistics():
    # the spectrum reads the symbols, waveforms and tap count from the
    # statistics, so the covariance must be one N x N matrix per trial
    rng = np.random.default_rng(46)
    symbols = np.array([gen_bpsk_symbols(8, rng) for _ in range(2)])
    stats = EstimatorStatistics(symbols, np.ones(2), 1)
    cov = si_covariance(stats, pn_covariance_table(1e-3, 8))
    one_trial = EstimatorStatistics(symbols[:1], np.ones(2), 1)
    for si_cov, of in (
        (cov[:1], stats),  # one trial's covariance for a batch
        (cov, one_trial),  # a batch's covariances for one trial
        (cov[:, :4, :4], stats),  # N = 4 for 8 symbols
        (np.eye(16)[None], one_trial),
    ):
        with pytest.raises(ValueError, match=re.escape("(B, N, N)")):
            si_spectrum(si_cov, of)
    assert si_spectrum(cov[:1], one_trial).n_taps == 2


def test_si_spectrum_works_in_a_fortran_ordered_covariance():
    # zhetrd tridiagonalizes each Fortran-ordered trial matrix of si_cov in
    # place; f2py copies a C-ordered one and leaves it intact, and a
    # read-only stack is copied first.  Every route gives the same spectrum
    # bit for bit.
    rng = np.random.default_rng(47)
    symbols = np.array([gen_bpsk_symbols(16, rng) for _ in range(2)])
    stats, kernel = _statistics(symbols, np.ones(3), 2, 1e-2)
    cov = si_covariance(stats, kernel)
    original = cov.copy()
    c_ordered = np.ascontiguousarray(cov)
    read_only = cov.copy(order="K")
    read_only.flags.writeable = False
    overwritten = si_spectrum(cov, stats)
    assert not np.array_equal(cov, original)
    for kept in (c_ordered, read_only):
        spectrum = si_spectrum(kept, stats)
        assert np.array_equal(kept, original)
        for name in (field.name for field in dataclasses.fields(SiSpectrum)):
            assert np.array_equal(
                getattr(overwritten, name), getattr(spectrum, name)
            )


def test_real_qp_weights_validation():
    eye = np.eye(3, dtype=np.complex128)
    with pytest.raises(ValueError, match="square"):
        real_qp_weights(eye, np.eye(2, dtype=np.complex128))
    with pytest.raises(ValueError, match="square"):
        real_qp_weights(np.ones((3, 2), dtype=np.complex128), eye)
    with pytest.raises(ValueError, match="square"):
        real_qp_weights(np.complex128(1.0), np.complex128(1.0))


def test_optimal_weights_validation():
    # the shapes are checked before LAPACK sees the operands
    eye = np.eye(3, dtype=np.complex128)
    with pytest.raises(ValueError, match="square"):
        optimal_weights(eye, np.eye(2, dtype=np.complex128))
    with pytest.raises(ValueError, match="square"):
        optimal_weights(np.ones((3, 2), dtype=np.complex128), eye)
    with pytest.raises(ValueError, match="square"):
        optimal_weights(np.complex128(1.0), np.complex128(1.0))


def test_dense_solves_of_an_empty_system_are_empty():
    empty = np.zeros((0, 0))
    for route in (optimal_weights, real_qp_weights):
        weights, values = route(empty, empty)
        assert (weights.shape, values.shape) == ((0, 0), (0,))


def _random_covariance(rng, n=12, n_taps=3, n_tx=2, delta_f=1e-3):
    symbols = gen_bpsk_symbols(n, rng)
    pdp = np.exp(-np.arange(n_taps) / 4.0)
    return symbols, _covariance(symbols, pdp, n_tx, delta_f)


def test_optimal_weights_match_inverse_oracle():
    rng = np.random.default_rng(50)
    _, cov = _random_covariance(rng)
    received, si_noise = _loaded(cov, 1.0, 5.0)
    oracle = si_noise.conj().T @ np.linalg.inv(received)
    for route in (optimal_weights, real_qp_weights):
        weights, opt_values = route(received, si_noise)
        assert_allclose(weights, oracle, atol=1e-10)
        assert opt_values.max() <= 1e-12


def test_optimal_weights_real_and_complex_agree():
    rng = np.random.default_rng(51)
    _, cov = _random_covariance(rng, n=16)
    covariances = _loaded(cov, 1.0, 0.5)
    a_weights, a_values = optimal_weights(*covariances)
    b_weights, b_values = real_qp_weights(*covariances)
    assert np.max(np.abs(a_weights - b_weights)) < 1e-8
    assert_allclose(a_values, b_values, atol=1e-8)


def test_optimal_weights_opt_values_formula():
    rng = np.random.default_rng(52)
    _, cov = _random_covariance(rng)
    received, si_noise = _loaded(cov, 1.0, 5.0)
    weights, opt_values = optimal_weights(received, si_noise)
    expected = -np.real(np.diag(weights @ si_noise))
    assert_allclose(opt_values, expected, atol=1e-12)


def test_optimal_weights_without_soi_pass_everything_through():
    # no signal of interest: subtracting the received vector itself is optimal
    rng = np.random.default_rng(53)
    symbols, cov = _random_covariance(rng)
    weights, _ = optimal_weights(*_loaded(cov, 1.0, 0.0))
    assert_allclose(weights, np.eye(symbols.size), atol=1e-10)
    residual = expected_residual_power(cov, weights, 0.0)
    assert residual == pytest.approx(0.0, abs=1e-9)


def test_optimal_weights_shrink_under_strong_soi():
    rng = np.random.default_rng(54)
    _, cov = _random_covariance(rng)
    weak, _ = optimal_weights(*_loaded(cov, 1.0, 1.0))
    strong, _ = optimal_weights(*_loaded(cov, 1.0, 1e6))
    assert np.linalg.norm(strong) < 1e-3 * np.linalg.norm(weak)


def test_optimal_weights_closed_form_residual_consistency():
    # direct evaluation of the residual functional agrees with the sum of
    # program optima
    rng = np.random.default_rng(55)
    _, cov = _random_covariance(rng, n=16)
    weights, opt_values = optimal_weights(*_loaded(cov, 1.0, 5.0))
    direct = expected_residual_power(cov, weights, 5.0)
    closed = 16 * 1.0 + np.trace(cov).real + opt_values.sum()
    assert direct == pytest.approx(closed, rel=1e-9)


def test_ls_estimate_recovers_clean_channel():
    rng = np.random.default_rng(60)
    n, n_taps = 32, 4
    symbols = gen_bpsk_symbols(n, rng)
    channel = gen_si_channel(1, np.ones(n_taps), rng)
    quiet = np.zeros(n)
    outputs = channel_outputs(symbols[None], channel[None])
    received = synthesize_received(outputs, quiet[None, None], quiet[None])[0]
    taps = ls_estimate(_one(received), symbols[None], n_taps)
    assert_allclose(taps, _one(channel[0]), atol=1e-10)


def test_ls_estimate_matches_lstsq():
    rng = np.random.default_rng(61)
    n, n_taps = 16, 5
    symbols = np.sqrt(2.0) * gen_bpsk_symbols(n, rng)
    received = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    basis = symbols[:, None] * dft_matrix(n, n_taps)
    oracle = np.linalg.lstsq(basis, received, rcond=None)[0]
    taps = ls_estimate(_one(received), symbols[None], n_taps)
    assert_allclose(taps, _one(oracle), atol=1e-10)


def test_ls_estimate_noise_variance():
    # white noise maps to tap errors of variance noise / (N * symbol_power)
    rng = np.random.default_rng(62)
    n, n_taps, trials = 32, 4, 3000
    symbols = gen_bpsk_symbols(n, rng)
    errors = np.empty((trials, n_taps), dtype=np.complex128)
    for t in range(trials):
        noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
        errors[t] = ls_estimate(_one(noise), symbols[None], n_taps)[0, :, 0]
    per_tap = (np.abs(errors) ** 2).mean(axis=0)
    assert_allclose(per_tap, 1.0 / n, rtol=0.15)


def test_ls_estimate_singular_when_symbols_vanish():
    with pytest.raises(SingularMatrixError):
        ls_estimate(np.ones((1, 8, 1)), np.zeros((1, 8), np.complex128), 2)


def test_ls_estimate_rejects_unequal_moduli():
    # the matched filter is least squares only for constant-modulus symbols
    symbols = np.ones((1, 8), dtype=np.complex128)
    symbols[0, 5] = 2.0
    with pytest.raises(ValueError, match="constant-modulus"):
        ls_estimate(np.ones((1, 8, 1)), symbols, 2)
    with pytest.raises(ValueError, match="constant-modulus"):
        stats = EstimatorStatistics(symbols, np.ones(2), 1)
        si_spectrum(np.eye(8)[None], stats)
    # unit-modulus complex symbols qualify
    phases = np.exp(0.25j * np.pi * np.arange(8))
    received = np.arange(8) + 1j
    basis = phases[:, None] * dft_matrix(8, 3)
    oracle = np.linalg.lstsq(basis, received, rcond=None)[0]
    taps = ls_estimate(_one(received), phases[None], 3)
    assert_allclose(taps, _one(oracle), atol=1e-10)


def test_ls_weight_matrix_is_idempotent_projection():
    rng = np.random.default_rng(63)
    n, n_taps = 16, 4
    symbols = gen_bpsk_symbols(n, rng)
    projector = ls_weight_matrix(symbols, n_taps)
    assert_allclose(projector @ projector, projector, atol=1e-10)
    basis = symbols[:, None] * dft_matrix(n, n_taps)
    assert_allclose(projector @ basis, basis, atol=1e-10)


def test_ls_weight_matrix_reproduces_ls_reconstruction():
    rng = np.random.default_rng(64)
    n, n_taps = 16, 3
    symbols = gen_bpsk_symbols(n, rng)
    received = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    taps = ls_estimate(_one(received), symbols[None], n_taps)
    via_taps = reconstruct_si(symbols[None], taps)
    assert_allclose(_one(ls_weight_matrix(symbols, n_taps) @ received),
                    via_taps, atol=1e-10)


def test_optimal_weights_rejects_indefinite_received():
    zeros = np.zeros((4, 4), dtype=np.complex128)
    for route, name in (
        (optimal_weights, "received covariance"),
        (real_qp_weights, "quadratic-program matrix"),
    ):
        with pytest.raises(
            SingularMatrixError, match=f"^{name} is not positive definite$"
        ):
            route(zeros, zeros)


def _engine_weights(solution, n):
    """The engine's V at its one point of its one trial, column by column,
    from its estimate of each unit vector."""
    return np.column_stack(
        [solution.estimate(_one(col))[0, :, 0] for col in np.eye(n)]
    )


@pytest.mark.parametrize("mode", OSCILLATOR_MODES)
@pytest.mark.parametrize("n_tx", [1, 8])
@pytest.mark.parametrize("delta_f", [0.0, 1e-3, 0.1])
@pytest.mark.parametrize("inr_db", [20.0, 50.0])
def test_spectral_engine_matches_cholesky_oracles(inr_db, delta_f, n_tx, mode):
    # one tridiagonalization at unit channel power, scaled to the operating
    # point, against the dense route on the covariance built at that point
    rng = np.random.default_rng(66)
    n, n_taps, noise, soi = 32, 4, 1.0, 10.0
    symbols = gen_bpsk_symbols(n, rng)
    unit_pdp = np.exp(-np.arange(n_taps) / 4.0)
    unit_pdp /= unit_pdp.sum()
    scale = 10.0 ** (inr_db / 10.0) * noise / n_tx
    # one kernel serves both oscillator modes
    kernel = pn_covariance_table(delta_f, n)

    stats = EstimatorStatistics(symbols[None], unit_pdp, n_tx)
    cov = subcarrier_si_covariance(
        EstimatorStatistics(symbols[None], scale * unit_pdp, n_tx), kernel
    )[0]
    spectrum = si_spectrum(si_covariance(stats, kernel), stats)
    point = np.array([scale]), np.array([soi])
    solution = spectral_weights(spectrum, *point)
    weights = _engine_weights(solution, n)
    oracle, _ = optimal_weights(*_loaded(cov, noise, soi))
    assert np.linalg.norm(weights - oracle) <= 1e-9 * np.linalg.norm(oracle)
    assert solution.residual_power[0, 0] == pytest.approx(
        expected_residual_power(cov, weights, soi), rel=1e-9
    )
    ls_oracle = expected_residual_power(
        cov, ls_weight_matrix(symbols, n_taps), soi
    )
    assert ls_residual_power(spectrum, *point)[0, 0] == pytest.approx(
        ls_oracle, rel=1e-9
    )
    # a received symbol drawn in this oscillator mode
    n_osc = n_tx if mode == "per-antenna" else 1
    sigma = np.sqrt(phase_increment_variance(delta_f, n))
    taps = gen_si_channel(n_tx, scale * unit_pdp, rng)
    tx = sigma * np.array([gen_wiener_phase(n, rng) for _ in range(n_osc)])
    rx = sigma * gen_wiener_phase(n, rng)
    received = synthesize_received(
        channel_outputs(symbols[None], taps[None]), tx[None], rx[None]
    )[0] + np.sqrt(soi + noise) * (
        rng.standard_normal(n) + 1j * rng.standard_normal(n)
    ) / np.sqrt(2.0)
    expected = oracle @ received
    estimate = solution.estimate(_one(received))[0, :, 0]
    assert np.linalg.norm(estimate - expected) <= (
        1e-9 * np.linalg.norm(expected)
    )


@pytest.mark.parametrize("n", [1, 2])
def test_spectral_engine_at_one_and_two_subcarriers(n):
    # N = 1 has no Householder reflector and an empty off-diagonal, N = 2
    # one reflector and a 2 x 2 tridiagonal
    rng = np.random.default_rng(67)
    symbols = gen_bpsk_symbols(n, rng)
    noise, soi, scale = 1.0, 10.0, 300.0
    for delta_f in (0.0, 0.1):
        unit = _covariance(symbols, np.ones(1), 4, delta_f)
        spectrum = _engine_spectrum(symbols, np.ones(1), 4, delta_f)
        assert spectrum.tau.size == n - 1
        solution = spectral_weights(
            spectrum, np.array([scale]), np.array([soi])
        )
        oracle, _ = optimal_weights(*_loaded(scale * unit, noise, soi))
        assert_allclose(
            _engine_weights(solution, n), oracle, rtol=1e-12, atol=1e-12
        )
        assert_allclose(
            spectrum.eigenvalues[0], np.linalg.eigvalsh(unit), atol=1e-12 * n
        )
        assert solution.residual_power[0, 0] == pytest.approx(
            expected_residual_power(scale * unit, oracle, soi),
            rel=1e-12,
        )


@pytest.mark.parametrize("delta_f", [0.0, 1e-3, 0.1])
def test_block_columns_match_single_points(delta_f):
    # P operating points on one spectrum, as one block, give column by column
    # what each point gives as a block of one, and the dense Cholesky
    # route's estimate
    rng = np.random.default_rng(68)
    n, n_taps, n_tx, noise = 32, 4, 8, 1.0
    symbols = gen_bpsk_symbols(n, rng)
    unit_pdp = np.exp(-np.arange(n_taps) / 4.0)
    unit_pdp /= unit_pdp.sum()
    unit = _covariance(symbols, unit_pdp, n_tx, delta_f)
    spectrum = _engine_spectrum(symbols, unit_pdp, n_tx, delta_f)
    scale = 10.0 ** (np.array([20.0, 35.0, 50.0, 50.0]) / 10.0) / n_tx
    soi = 10.0 ** (np.array([10.0, 0.0, 10.0, 20.0]) / 10.0)
    received = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
    received = received[None]
    block = spectral_weights(spectrum, scale, soi)
    estimate = block.estimate(received)[0]
    ls_taps = ls_estimate(received, symbols[None], n_taps)[0]
    ls_power = ls_residual_power(spectrum, scale, soi)[0]
    for p in range(4):
        point = scale[p : p + 1], soi[p : p + 1]
        single = spectral_weights(spectrum, *point)
        alone = single.estimate(received[:, :, p : p + 1])[0, :, 0]
        assert np.linalg.norm(estimate[:, p] - alone) <= (
            1e-12 * np.linalg.norm(alone)
        )
        oracle, _ = optimal_weights(*_loaded(scale[p] * unit, noise, soi[p]))
        expected = oracle @ received[0, :, p]
        assert np.linalg.norm(estimate[:, p] - expected) <= (
            1e-9 * np.linalg.norm(expected)
        )
        assert block.residual_power[0, p] == pytest.approx(
            single.residual_power[0, 0], rel=1e-12
        )
        assert ls_power[p] == pytest.approx(
            ls_residual_power(spectrum, *point)[0, 0], rel=1e-12
        )
        taps = ls_estimate(received[:, :, p : p + 1], symbols[None], n_taps)
        assert_allclose(ls_taps[:, p], taps[0, :, 0], rtol=1e-12)
    with pytest.raises(ValueError, match=re.escape("(B, N, P)")):
        block.estimate(received[:, :, 0])


def test_block_failure_names_the_failing_point():
    # the estimator says what failed; the harness finds the point by replay
    stats = EstimatorStatistics(np.ones((1, 4)), np.ones(2), 1)
    spectrum = si_spectrum(-1.5 * np.eye(4)[None], stats)
    # min(lam) + noise + soi is > 0, = 0 and > 0 at the three points
    with pytest.raises(SingularMatrixError, match="not positive definite"):
        spectral_weights(spectrum, np.ones(3), np.array([0.6, 0.5, 0.6]))
    # the stacked tridiagonal solve fails in the last point's block
    weights = spectral_weights(spectrum, np.ones(3), np.array([0.6, 0.7, 0.8]))
    diagonal = weights.received_diagonal.copy()
    diagonal[8:] = -1.0
    broken = dataclasses.replace(weights, received_diagonal=diagonal)
    with pytest.raises(SingularMatrixError, match="not positive definite"):
        broken.estimate(np.ones((1, 4, 3), dtype=np.complex128))


# A negative or non-finite channel or SOI power would give an impossible
# (negative) or NaN expected residual; zero stays legal.
@pytest.mark.parametrize("evaluate", [spectral_weights, ls_residual_power])
@pytest.mark.parametrize(
    "scale, soi_power, name",
    [
        (-1.0, 1.0, "scale"),
        (np.nan, 1.0, "scale"),
        (np.inf, 1.0, "scale"),
        (1.0, -0.5, "soi_power"),
        (1.0, np.nan, "soi_power"),
        (1.0, np.inf, "soi_power"),
    ],
)
def test_operating_points_must_be_finite_and_non_negative(
    evaluate, scale, soi_power, name
):
    stats, kernel = _statistics(np.ones((1, 4)), np.ones(2), 1, 1e-3)
    spectrum = si_spectrum(si_covariance(stats, kernel), stats)
    evaluate(spectrum, np.zeros(1), np.zeros(1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            evaluate(spectrum, np.array([scale]), np.array([soi_power]))


def test_spectral_weights_reject_indefinite_received():
    stats = EstimatorStatistics(np.ones((1, 4)), np.ones(2), 1)
    spectrum = si_spectrum(-1.5 * np.eye(4)[None], stats)
    # min(lam) + noise + soi = 0 and < 0
    for scale in (1.0, 2.0):
        with pytest.raises(SingularMatrixError):
            spectral_weights(spectrum, np.array([scale]), np.array([0.5]))
    # just above the boundary
    spectral_weights(spectrum, np.ones(1), np.array([0.6]))


def _layouts():
    """A batch of two trials of eight subcarriers at three points, in the
    layout the simulator sends, and the pieces the engine builds from it."""
    rng = np.random.default_rng(70)
    symbols = np.array([gen_bpsk_symbols(8, rng) for _ in range(2)])
    stats, kernel = _statistics(symbols, np.ones(2), 1, 1e-3)
    cov = si_covariance(stats, kernel)
    spectrum = si_spectrum(cov, stats)
    points = np.ones(3)
    return dict(
        symbols=symbols,
        cov=cov,
        stats=stats,
        spectrum=spectrum,
        points=points,
        weights=spectral_weights(spectrum, points, points),
        received=rng.standard_normal((2, 8, 3)) + 0j,
        taps=rng.standard_normal((2, 2, 3)) + 0j,
    )


# Each entry point called with an unbatched vector, a single block or scalar
# points, and the layout its error names.
_OTHER_LAYOUTS = {
    "statistics-vector": (
        lambda x: EstimatorStatistics(x["symbols"][0], np.ones(2), 1),
        "(B, N)",
    ),
    "spectrum-one-matrix": (
        lambda x: si_spectrum(x["cov"][0], x["stats"]), "(B, N, N)"
    ),
    "weights-scalar-points": (
        lambda x: spectral_weights(x["spectrum"], 1.0, 1.0), "(P,)"
    ),
    "weights-scalar-scale": (
        lambda x: spectral_weights(x["spectrum"], 1.0, x["points"]),
        "(P,)",
    ),
    "ls-power-scalar-points": (
        lambda x: ls_residual_power(x["spectrum"], 1.0, 1.0), "(P,)"
    ),
    "ls-power-scalar-soi": (
        lambda x: ls_residual_power(x["spectrum"], x["points"], 1.0),
        "(P,)",
    ),
    "estimate-vector": (
        lambda x: x["weights"].estimate(x["received"][0, :, 0]), "(B, N, P)"
    ),
    "estimate-block": (
        lambda x: x["weights"].estimate(x["received"][0]), "(B, N, P)"
    ),
    "estimate-trial-vectors": (
        lambda x: x["weights"].estimate(x["received"][:, :, 0]), "(B, N, P)"
    ),
    "ls-vector": (
        lambda x: ls_estimate(x["received"][0, :, 0], x["symbols"][0], 2),
        "(B, N, P)",
    ),
    "ls-block": (
        lambda x: ls_estimate(x["received"][0], x["symbols"][0], 2),
        "(B, N, P)",
    ),
    "ls-trial-vectors": (
        lambda x: ls_estimate(x["received"][:, :, 0], x["symbols"], 2),
        "(B, N, P)",
    ),
    "reconstruct-vector": (
        lambda x: reconstruct_si(x["symbols"][0], x["taps"][0, :, 0]),
        "(B, L, P)",
    ),
    "reconstruct-block": (
        lambda x: reconstruct_si(x["symbols"][0], x["taps"][0]), "(B, L, P)"
    ),
    "reconstruct-trial-vectors": (
        lambda x: reconstruct_si(x["symbols"], x["taps"][:, :, 0]),
        "(B, L, P)",
    ),
}


@pytest.mark.parametrize(
    "call, expected", _OTHER_LAYOUTS.values(), ids=_OTHER_LAYOUTS.keys()
)
def test_entry_points_take_only_the_simulator_layout(call, expected):
    # a batch of B trials and a block of P points is the one layout; the
    # error names it
    with pytest.raises(ValueError, match=re.escape(expected)):
        call(_layouts())


@pytest.mark.parametrize("delta_f", [0.0, 1e-3, 0.1])
@pytest.mark.parametrize("mode", OSCILLATOR_MODES)
def test_sweep_covariance_is_the_sample_domain_image_of_the_oracle(
    monkeypatch, mode, delta_f
):
    # The covariance a sweep hands the spectral engine in either oscillator
    # mode is A_t, whose unitary transform U A_t U^H is the subcarrier-domain
    # A0 of the validation oracle.
    config = SimConfig(
        n_tx=3, n_subcarriers=16, n_taps=4, n_trials=3,
        master_seed=31, delta_f=delta_f, oscillator_mode=mode,
    )
    handed = []
    original = harness.si_spectrum

    def recorded(si_cov, stats):
        # si_spectrum tridiagonalizes its argument in place
        handed.append((si_cov.copy(), stats.symbols))
        return original(si_cov, stats)

    monkeypatch.setattr(harness, "si_spectrum", recorded)
    sweep(config, "inr", [30.0, 40.0])
    (si_cov, symbols), = handed
    assert si_cov.shape == (3, 16, 16)
    stats = EstimatorStatistics(symbols, pdp_profile(config, 1.0), config.n_tx)
    oracle = subcarrier_si_covariance(stats, pn_covariance_table(delta_f, 16))
    unitary = dft_matrix(16, 16) / np.sqrt(16)
    for a_t, a_0 in zip(si_cov, oracle):
        transformed = unitary @ a_t @ unitary.conj().T
        scale = np.max(np.abs(a_0))
        assert np.max(np.abs(transformed - a_0)) <= 1e-12 * scale


@pytest.mark.parametrize("delta_f", [0.0, 1e-3, 0.1])
def test_engine_spectrum_matches_the_subcarrier_domain_matrix(delta_f):
    # Eigenvalues and LS leakage tr{(I - P) A0} taken from A_t, for a batch
    # of three trials of symbol power 2, against the dense A0: eigvalsh and
    # the general-Gram LS projector.
    rng = np.random.default_rng(69)
    n, n_taps, n_tx = 24, 4, 8
    symbols = np.sqrt(2.0) * np.array(
        [gen_bpsk_symbols(n, rng) for _ in range(3)]
    )
    pdp = np.exp(-np.arange(n_taps) / 4.0)
    stats, kernel = _statistics(symbols, pdp / pdp.sum(), n_tx, delta_f)
    spectrum = si_spectrum(si_covariance(stats, kernel), stats)
    oracle = subcarrier_si_covariance(stats, kernel)
    for trial in range(3):
        dense = np.linalg.eigvalsh(oracle[trial])
        tolerance = 1e-12 * np.max(np.abs(dense))
        assert np.max(np.abs(spectrum.eigenvalues[trial] - dense)) <= tolerance
        remainder = np.eye(n) - ls_weight_matrix(symbols[trial], n_taps)
        leakage = np.trace(remainder @ oracle[trial]).real
        assert abs(spectrum.ls_leakage[trial] - leakage) <= tolerance

"""Property tests of the spectral engine over random symbols, oscillator
qualities, array sizes and operating points."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from fdsic.estimator import (
    EstimatorStatistics,
    ls_residual_power,
    si_covariance,
    si_spectrum,
    spectral_weights,
)
from fdsic.harness import cancellation_ability
from fdsic.impairments import pn_covariance_table
from fdsic.ofdm import gen_bpsk_symbols

N, N_TAPS = 16, 4
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def _unit_covariance(seed, delta_f, n_tx, n=N):
    """One trial's SI covariance at unit channel power, with its
    statistics, as a batch of one."""
    rng = np.random.default_rng(seed)
    symbols = gen_bpsk_symbols(n, rng)[None]
    pdp = rng.uniform(0.1, 1.0, min(N_TAPS, n))
    stats = EstimatorStatistics(symbols=symbols, pdp=pdp / pdp.sum(), n_tx=n_tx)
    return si_covariance(stats, pn_covariance_table(delta_f, n)), stats


trials = st.builds(
    _unit_covariance,
    seed=st.integers(0, 2**32 - 1),
    delta_f=st.just(0.0) | st.floats(1e-6, 0.1),
    n_tx=st.integers(1, 8),
)
levels_db = st.floats(-10.0, 60.0)
sized_trials = st.builds(
    _unit_covariance,
    seed=st.integers(0, 2**32 - 1),
    delta_f=st.just(0.0) | st.floats(1e-6, 0.1),
    n_tx=st.integers(1, 8),
    n=st.integers(1, 48),
)


def _power(db):
    return 10.0 ** (db / 10.0)


@PROPERTY
@given(trial=sized_trials)
def test_tridiagonal_eigenvalues_match_dense_solver(trial):
    cov, stats = trial
    # before si_spectrum, which tridiagonalizes cov in place
    dense = np.linalg.eigvalsh(cov[0])
    eigenvalues = si_spectrum(cov, stats).eigenvalues[0]
    tolerance = 1e-12 * np.max(np.abs(dense))
    assert np.max(np.abs(eigenvalues - dense)) <= tolerance


@PROPERTY
@given(trial=trials, inr_db=levels_db, snr_db=st.floats(-10.0, 30.0))
def test_gains_lie_in_unit_interval(trial, inr_db, snr_db):
    # the weights V = I - soi * inv(C) have their eigenvalues, the gains
    # (lam + noise) / (lam + noise + soi), in [0, 1).  V is formed column
    # by column: N copies of the point as one block, applied to I.
    cov, stats = trial
    spectrum = si_spectrum(cov, stats)
    copies = np.ones(N)
    block = spectral_weights(
        spectrum, _power(inr_db) * copies, _power(snr_db) * copies
    )
    weights = block.estimate(np.eye(N, dtype=np.complex128)[None])[0]
    gains = np.linalg.eigvalsh((weights + weights.conj().T) / 2.0)
    assert gains.min() >= 0.0
    assert gains.max() < 1.0


@PROPERTY
@given(trial=trials, inr_db=levels_db, snr_db=st.floats(-10.0, 30.0))
def test_optimal_prediction_never_exceeds_least_squares(trial, inr_db, snr_db):
    cov, stats = trial
    spectrum = si_spectrum(cov, stats)
    point = np.array([_power(inr_db)]), np.array([_power(snr_db)])
    optimal = spectral_weights(spectrum, *point).residual_power
    assert optimal <= ls_residual_power(spectrum, *point) * (1 + 1e-12)


@PROPERTY
@given(
    trial=trials,
    inr_db=st.lists(levels_db, min_size=2, max_size=6, unique=True),
    snr_db=st.floats(-10.0, 30.0),
)
def test_optimal_prediction_is_monotone_in_inr(trial, inr_db, snr_db):
    cov, stats = trial
    # before si_spectrum, which tridiagonalizes cov in place
    unit_si_power = float(np.trace(cov[0]).real)
    spectrum = si_spectrum(cov, stats)
    scales = _power(np.array(sorted(inr_db)))
    soi = np.full(scales.size, _power(snr_db))
    residuals = spectral_weights(spectrum, scales, soi).residual_power
    abilities = [
        cancellation_ability(scale * unit_si_power + N, residual)
        for scale, residual in zip(scales, residuals[0])
    ]
    assert np.all(np.diff(abilities) >= -1e-9)

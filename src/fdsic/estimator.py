"""Weighted linear self-interference estimators.

The canceller forms an SI estimate as a linear map V of the received vector
and is judged by the expected residual power

    E_r(V) = N*noise + tr{A} + tr{V C conj(V).T} - 2 Re tr{V B},

where A is the conditional SI covariance for the known transmit symbols,
B = A + noise*I and C = B + soi*I.  Its minimizer is V = conj(B).T @ inv(C).

The simulator reaches it through one spectral engine: A scales with the
channel power s, A = s * A0, so one eigendecomposition A0 = U diag(lam0) U^H
serves every noise, SOI and channel power level.  With lam = s * lam0 the
optimal weights are V = U diag((lam + noise) / (lam + noise + soi)) U^H and
both the optimal and the least-squares expected residuals come in closed
form.  The conventional least-squares channel estimator is included as the
baseline.  The dense Cholesky and real-embedded solves that the engine is
checked against live in fdsic.validation.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .impairments import PnCovarianceTable
from .ofdm import dft_matrix

logger = logging.getLogger(__name__)


class SingularMatrixError(np.linalg.LinAlgError):
    """A covariance that must be positive definite failed to factor."""


@dataclass(frozen=True)
class EstimatorStatistics:
    """Everything the canceller knows ahead of one symbol that shapes the SI
    covariance: the transmit symbols, the oscillator statistics, the channel
    power profile and the number of transmit antennas."""

    symbols: np.ndarray
    pn: PnCovarianceTable
    pdp: np.ndarray
    n_tx: int

    def __post_init__(self):
        symbols = np.asarray(self.symbols, dtype=np.complex128)
        pdp = np.asarray(self.pdp, dtype=np.float64)
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "pdp", pdp)
        if symbols.ndim != 1 or symbols.size == 0:
            raise ValueError("symbols must be a non-empty vector")
        if symbols.size != self.pn.n_subcarriers:
            raise ValueError("symbols and covariance table disagree on N")
        if np.any(np.abs(symbols) == 0.0):
            raise ValueError("symbols must have no zero entries")
        if pdp.ndim != 1 or pdp.size == 0 or pdp.size > symbols.size:
            raise ValueError("pdp must be a vector no longer than symbols")
        if np.any(pdp < 0.0):
            raise ValueError("pdp entries must be non-negative")
        if self.n_tx < 1:
            raise ValueError("n_tx must be positive")


def si_covariance(stats: EstimatorStatistics) -> np.ndarray:
    """Conditional covariance of the received SI vector given the symbols.

    Evaluated in the sample domain: the circular symbol waveform is
    correlated tap by tap against the delay profile, weighted entrywise by
    the oscillator phase correlation kernel, and transformed back.  This is
    algebraically identical to the direct fourfold sum of gamma against the
    symbol outer product and the profile spectrum, but costs
    O(L*N^2 + N^2 log N).  Channels are independent across antennas, so the
    result scales linearly with n_tx in both oscillator modes.
    """
    symbols = stats.symbols
    n = symbols.size
    waveform = np.fft.ifft(symbols)
    taps = np.arange(stats.pdp.size)
    shifted = waveform[(np.arange(n)[None, :] - taps[:, None]) % n]
    sample_cov = np.einsum(
        "l,ln,lm->nm", stats.pdp, shifted, shifted.conj()
    )
    weighted = stats.pn.kernel * sample_cov * stats.n_tx
    cov = np.fft.ifft(np.fft.fft(weighted, axis=0), axis=1) * n
    scale = max(float(np.max(np.abs(cov))), np.finfo(np.float64).tiny)
    drift = float(np.max(np.abs(cov - cov.conj().T))) / scale
    if drift > 1e-10:
        logger.warning("SI covariance asymmetry %.3e before symmetrization", drift)
    return 0.5 * (cov + cov.conj().T)


def _constant_modulus_power(symbols: np.ndarray) -> float:
    """The common power p = |x_n|^2 of constant-modulus symbols.

    For such symbols the LS Gram matrix of the basis diag(x) F_L is N*p*I,
    which is what makes the matched filter exact least squares.
    """
    power = np.abs(symbols) ** 2
    if power.min() == 0.0:
        raise SingularMatrixError("LS normal equations are singular")
    mean = float(power.mean())
    if float(np.max(np.abs(power - mean))) > 1e-12 * mean:
        raise ValueError("LS needs constant-modulus symbols")
    return mean


@dataclass(frozen=True)
class SiSpectrum:
    """Eigendecomposition A0 = U diag(eigenvalues) U^H of the SI covariance at
    unit channel power, and the SI power per unit channel power that the
    least-squares reconstruction leaves behind, tr{(I - P) A0}, with P the
    projector onto the span of the known symbols."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    ls_leakage: float
    n_taps: int


def si_spectrum(
    si_cov: np.ndarray, symbols: np.ndarray, n_taps: int
) -> SiSpectrum:
    """Decompose a unit-channel-power SI covariance once, for every operating
    point that shares its symbols, oscillator statistics and delay profile.

    The LS projector P = Bb (Bb^H Bb)^-1 Bb^H onto the columns b_l of the
    N x L basis Bb = diag(symbols) F_L has Gram N*p*I for constant-modulus
    symbols of power p, so tr{P A0} = Re sum_l b_l^H A0 b_l / (N*p) without
    forming P.
    """
    si_cov = np.asarray(si_cov, dtype=np.complex128)
    symbols = np.asarray(symbols, dtype=np.complex128)
    n = symbols.size
    if si_cov.shape != (n, n):
        raise ValueError("si_cov must be N x N for N symbols")
    power = _constant_modulus_power(symbols)
    basis = symbols[:, None] * dft_matrix(n, n_taps)
    captured = np.vdot(basis, si_cov @ basis).real / (n * power)
    eigenvalues, eigenvectors = np.linalg.eigh(si_cov)
    return SiSpectrum(
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        ls_leakage=float(np.trace(si_cov).real - captured),
        n_taps=n_taps,
    )


@dataclass(frozen=True)
class SpectralWeights:
    """Optimal weights V = U diag(gains) U^H at one operating point and their
    expected residual power."""

    eigenvectors: np.ndarray
    gains: np.ndarray
    residual_power: float

    def estimate(self, received: np.ndarray) -> np.ndarray:
        """The SI estimate V @ received, in O(N^2)."""
        u = self.eigenvectors
        return u @ (self.gains * (u.conj().T @ received))


def spectral_weights(
    spectrum: SiSpectrum, scale: float, noise_power: float, soi_power: float
) -> SpectralWeights:
    """Optimal weights for the SI covariance scale * A0.

    Each eigenvalue lam of the scaled covariance gets the gain
    (lam + noise) / (lam + noise + soi) and adds the non-negative term
    (lam + noise) * soi / (lam + noise + soi) to the expected residual
    power.  Their sum equals N*noise + tr{A} + sum_k f_k of the Cholesky
    route without the cancellation between its large terms.
    """
    si_noise = scale * spectrum.eigenvalues + noise_power
    received = si_noise + soi_power
    if not received.min() > 0.0:
        raise SingularMatrixError("received covariance is not positive definite")
    return SpectralWeights(
        eigenvectors=spectrum.eigenvectors,
        gains=si_noise / received,
        residual_power=float(np.sum(si_noise * soi_power / received)),
    )


def ls_residual_power(
    spectrum: SiSpectrum, scale: float, noise_power: float, soi_power: float
) -> float:
    """Expected residual power of least squares plus reconstruction.

    The LS weights are the Hermitian idempotent projector P of rank L, so
    the residual functional collapses to
    (N - L)*noise + L*soi + scale * tr{(I - P) A0}.
    """
    n = spectrum.eigenvalues.size
    value = (
        (n - spectrum.n_taps) * noise_power
        + spectrum.n_taps * soi_power
        + scale * spectrum.ls_leakage
    )
    return max(value, 0.0)


def ls_estimate(
    received: np.ndarray, symbols: np.ndarray, n_taps: int
) -> np.ndarray:
    """Least-squares tap estimate from one received symbol.

    Solves min_h || received - diag(symbols) F h ||^2.  For constant-modulus
    symbols the normal equations are N*p*I h = F^H diag(conj(symbols))
    received, so the estimate is the matched filter
    ifft(received / symbols)[:n_taps].  Zero symbols raise
    SingularMatrixError; symbols of unequal modulus raise ValueError.
    """
    received = np.asarray(received, dtype=np.complex128)
    symbols = np.asarray(symbols, dtype=np.complex128)
    n = symbols.size
    if received.size != n:
        raise ValueError("received and symbols sizes disagree")
    if not 1 <= n_taps <= n:
        raise ValueError(f"n_taps={n_taps} out of range")
    _constant_modulus_power(symbols)
    return np.fft.ifft(received / symbols)[:n_taps]

"""Weighted linear self-interference estimators.

The canceller forms an SI estimate as a linear map V of the received vector
and is judged by the expected residual power

    E_r(V) = N*noise + tr{A} + tr{V C conj(V).T} - 2 Re tr{V B},

where A is the conditional SI covariance for the known transmit symbols,
B = A + noise*I and C = B + soi*I.  The trace splits per receive subcarrier
into independent quadratic programs; each one can be solved either through
the real block embedding of its normal equations or, equivalently, through
one complex Hermitian solve giving V = conj(B).T @ inv(C).  The conventional
least-squares channel estimator is included as the baseline.

The simulator itself runs the spectral engine: A scales with the channel
power s, A = s * A0, so one eigendecomposition A0 = U diag(lam0) U^H serves
every noise, SOI and channel power level.  With lam = s * lam0 the optimal
weights are V = U diag((lam + noise) / (lam + noise + soi)) U^H and both the
optimal and the least-squares expected residuals come in closed form.  The
Cholesky and real-embedded solves above stay as the oracles it is checked
against.
"""

import logging
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .impairments import PnCovarianceTable
from .ofdm import dft_matrix

logger = logging.getLogger(__name__)


class SingularMatrixError(np.linalg.LinAlgError):
    """A covariance that must be positive definite failed to factor."""


@dataclass(frozen=True)
class EstimatorStatistics:
    """Everything the canceller knows ahead of one symbol: the transmit
    symbols, the oscillator statistics, the channel power profile and the
    additive power levels."""

    symbols: np.ndarray
    pn: PnCovarianceTable
    pdp: np.ndarray
    n_tx: int
    noise_power: float
    soi_power: float

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
        if self.noise_power < 0.0 or self.soi_power < 0.0:
            raise ValueError("powers must be non-negative")


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


@dataclass(frozen=True)
class CovarianceBundle:
    """The three covariances the canceller needs: the SI part alone, SI plus
    noise, and the full received vector."""

    si: np.ndarray
    si_noise: np.ndarray
    received: np.ndarray


def covariance_bundle(
    si_cov: np.ndarray, noise_power: float, soi_power: float
) -> CovarianceBundle:
    """Diagonal-load the SI covariance with the noise and SOI powers."""
    si_cov = np.asarray(si_cov, dtype=np.complex128)
    n = si_cov.shape[0]
    if si_cov.shape != (n, n):
        raise ValueError("si_cov must be square")
    if noise_power < 0.0 or soi_power < 0.0:
        raise ValueError("powers must be non-negative")
    scale = max(float(np.max(np.abs(si_cov))), 1.0)
    if float(np.max(np.abs(si_cov - si_cov.conj().T))) > 1e-8 * scale:
        raise ValueError("si_cov must be Hermitian")
    eye = np.eye(n)
    si_noise = si_cov + noise_power * eye
    received = si_noise + soi_power * eye
    return CovarianceBundle(si=si_cov, si_noise=si_noise, received=received)


def real_embedding(matrix: np.ndarray) -> np.ndarray:
    """Real 2Nx2N block form [[Re M, Im M], [-Im M, Re M]] of a complex matrix.

    The embedding multiplies like the matrices themselves, so the inverse of
    an embedding is the embedding of inv(M); for Hermitian positive definite
    M the result is symmetric positive definite.
    """
    matrix = np.asarray(matrix, dtype=np.complex128)
    return np.block(
        [[matrix.real, matrix.imag], [-matrix.imag, matrix.real]]
    )


def real_qp_blocks(
    received_cov: np.ndarray, si_noise_cov: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Quadratic-program blocks for receive subcarrier k.

    Returns (phi, b) such that the real stacking v = [Re w; Im w] of that
    subcarrier's weight row w minimizes v.T @ phi @ v - 2 b.T @ v.
    """
    received_cov = np.asarray(received_cov, dtype=np.complex128)
    si_noise_cov = np.asarray(si_noise_cov, dtype=np.complex128)
    n = received_cov.shape[0]
    if received_cov.shape != (n, n) or si_noise_cov.shape != (n, n):
        raise ValueError("covariances must be square and equally sized")
    if not 0 <= k < n:
        raise ValueError(f"k={k} out of range for N={n}")
    phi = real_embedding(received_cov)
    column = si_noise_cov[:, k]
    b = np.concatenate([column.real, -column.imag])
    return phi, b


def solve_qp(phi: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimize v.T @ phi @ v - 2 b.T @ v for symmetric positive definite phi.

    Returns the minimizer and the minimum value -b.T @ inv(phi) @ b, which is
    never positive.
    """
    phi = np.asarray(phi, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if phi.shape != (b.size, b.size):
        raise ValueError("phi and b sizes disagree")
    try:
        factor = cho_factor(phi, lower=True, check_finite=False)
    except LinAlgError as exc:
        raise SingularMatrixError(
            "quadratic-program matrix is not positive definite"
        ) from exc
    v = cho_solve(factor, b, check_finite=False)
    return v, float(-b @ v)


@dataclass(frozen=True)
class WeightSolution:
    """Optimal cancellation weights V and the per-subcarrier minima of the
    residual quadratic programs."""

    weights: np.ndarray
    opt_values: np.ndarray


def optimal_weights(
    bundle: CovarianceBundle, method: str = "complex"
) -> WeightSolution:
    """Row-wise optimal weight matrix for the residual-power objective.

    method "complex" solves the normal equations C conj(V).T = B with one
    Hermitian factorization; method "real" runs the per-subcarrier real
    embedded quadratic programs.  Both give V = conj(B).T @ inv(C) and the
    per-row optima f_k = -Re{(V @ B)[k, k]} <= 0.
    """
    b_mat = bundle.si_noise
    c_mat = bundle.received
    n = c_mat.shape[0]
    if method == "complex":
        try:
            factor = cho_factor(c_mat, lower=True, check_finite=False)
        except LinAlgError as exc:
            raise SingularMatrixError(
                "received covariance is not positive definite"
            ) from exc
        weights = cho_solve(factor, b_mat, check_finite=False).conj().T
        opt_values = -np.einsum("km,mk->k", weights, b_mat).real
    elif method == "real":
        phi = real_embedding(c_mat)
        try:
            factor = cho_factor(phi, lower=True, check_finite=False)
        except LinAlgError as exc:
            raise SingularMatrixError(
                "received covariance is not positive definite"
            ) from exc
        weights = np.empty((n, n), dtype=np.complex128)
        opt_values = np.empty(n)
        for k in range(n):
            column = b_mat[:, k]
            b = np.concatenate([column.real, -column.imag])
            v = cho_solve(factor, b, check_finite=False)
            weights[k] = v[:n] + 1j * v[n:]
            opt_values[k] = -b @ v
    else:
        raise ValueError(f"unknown method {method!r}")
    return WeightSolution(weights=weights, opt_values=opt_values)


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
    point that shares its symbols, oscillator statistics and delay profile."""
    si_cov = np.asarray(si_cov, dtype=np.complex128)
    symbols = np.asarray(symbols, dtype=np.complex128)
    n = symbols.size
    if si_cov.shape != (n, n):
        raise ValueError("si_cov must be N x N for N symbols")
    projector = ls_weight_matrix(symbols, n_taps)
    captured = np.einsum("km,mk->", projector, si_cov).real
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


def estimator_from_weights(
    weights: np.ndarray, symbols: np.ndarray, n_taps: int
) -> np.ndarray:
    """Collapse an N x N weight matrix to the L x N channel estimator W.

    W y is the tap-domain estimate whose reconstruction X F (W y) is the
    projection of the weighted estimate V y onto the span of the known
    symbols, i.e. the best reachable by any L-tap reconstruction.  For
    weights of the form V = diag(X) F W0 the original W0 is recovered
    exactly.
    """
    weights = np.asarray(weights, dtype=np.complex128)
    symbols = np.asarray(symbols, dtype=np.complex128)
    n = symbols.size
    if weights.shape != (n, n):
        raise ValueError("weights must be N x N for N symbols")
    if not 1 <= n_taps <= n:
        raise ValueError(f"n_taps={n_taps} out of range")
    if np.any(np.abs(symbols) == 0.0):
        raise ValueError("symbols must have no zero entries")
    return np.fft.ifft(weights / symbols[:, None], axis=0)[:n_taps]


def estimate_si_channel(estimator: np.ndarray, received: np.ndarray) -> np.ndarray:
    """Apply a channel estimator matrix to one received vector."""
    estimator = np.asarray(estimator, dtype=np.complex128)
    received = np.asarray(received, dtype=np.complex128)
    if estimator.ndim != 2 or estimator.shape[1] != received.size:
        raise ValueError("estimator and received sizes disagree")
    return estimator @ received


def ls_estimate(
    received: np.ndarray, symbols: np.ndarray, n_taps: int
) -> np.ndarray:
    """Least-squares tap estimate from one received symbol.

    Solves min_h || received - diag(symbols) F h ||^2 through the normal
    equations; for constant-modulus symbols the system matrix is a scaled
    identity and the estimate reduces to a matched filter.
    """
    received = np.asarray(received, dtype=np.complex128)
    symbols = np.asarray(symbols, dtype=np.complex128)
    n = symbols.size
    if received.size != n:
        raise ValueError("received and symbols sizes disagree")
    if not 1 <= n_taps <= n:
        raise ValueError(f"n_taps={n_taps} out of range")
    basis = symbols[:, None] * dft_matrix(n, n_taps)
    gram = basis.conj().T @ basis
    rhs = basis.conj().T @ received
    try:
        return np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("LS normal equations are singular") from exc


def ls_weight_matrix(symbols: np.ndarray, n_taps: int) -> np.ndarray:
    """The N x N weights implied by LS estimation plus reconstruction,
    an oblique projection onto the span of the known symbols."""
    symbols = np.asarray(symbols, dtype=np.complex128)
    n = symbols.size
    if not 1 <= n_taps <= n:
        raise ValueError(f"n_taps={n_taps} out of range")
    basis = symbols[:, None] * dft_matrix(n, n_taps)
    gram = basis.conj().T @ basis
    try:
        return basis @ np.linalg.solve(gram, basis.conj().T)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("LS normal equations are singular") from exc

"""Self-check suites that compare closed-form statistics against independent
Monte Carlo oracles and alternative computation routes.

These back the `fdsic validate` command and the heavier regression tests:
the phase-noise mixing covariance against simulated traces, the SI covariance
against the sample covariance of synthesized symbols, the real-embedded
quadratic programs against the complex normal equations, and the
subcarrier-domain synthesis against a sample-domain FIR reference.

The module also holds the dense oracles the spectral engine of
fdsic.estimator is tested against: the Cholesky solve of the normal
equations, the real-embedded quadratic programs, the direct evaluation of
the expected residual power, and the least-squares projector built from a
general Gram solve.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .estimator import EstimatorStatistics, SingularMatrixError, si_covariance
from .impairments import (
    SiChannelSet,
    gen_si_channel,
    gen_wiener_phase,
    phase_increment_variance,
    pn_covariance_table,
    synthesize_received,
)
from .ofdm import dft_matrix, gen_bpsk_symbols, modulate


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst_error: float
    tolerance: float
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.name}: worst error {self.worst_error:.3e} "
            f"(tolerance {self.tolerance:.3e}) {self.detail}"
        )


def optimal_weights(
    received_cov: np.ndarray, si_noise_cov: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Optimal weights by one Hermitian Cholesky solve of the normal
    equations C conj(V).T = B, with C the received covariance and B the SI
    plus noise covariance.

    Returns V = conj(B).T @ inv(C) and the per-subcarrier program optima
    f_k = -Re{(V @ B)[k, k]} <= 0.
    """
    received_cov = np.asarray(received_cov, dtype=np.complex128)
    si_noise_cov = np.asarray(si_noise_cov, dtype=np.complex128)
    try:
        factor = cho_factor(received_cov, lower=True, check_finite=False)
    except LinAlgError as exc:
        raise SingularMatrixError(
            "received covariance is not positive definite"
        ) from exc
    weights = cho_solve(factor, si_noise_cov, check_finite=False).conj().T
    opt_values = -np.einsum("km,mk->k", weights, si_noise_cov).real
    return weights, opt_values


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
    received_cov: np.ndarray, si_noise_cov: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Quadratic-program blocks of every receive subcarrier.

    Returns (phi, b) such that the real stacking v = [Re w; Im w] of
    subcarrier k's weight row w minimizes v.T @ phi @ v - 2 b[:, k].T @ v.
    All subcarriers share phi.
    """
    received_cov = np.asarray(received_cov, dtype=np.complex128)
    si_noise_cov = np.asarray(si_noise_cov, dtype=np.complex128)
    n = received_cov.shape[0]
    if received_cov.shape != (n, n) or si_noise_cov.shape != (n, n):
        raise ValueError("covariances must be square and equally sized")
    b = np.concatenate([si_noise_cov.real, -si_noise_cov.imag])
    return real_embedding(received_cov), b


def solve_qp(phi: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimize v.T @ phi @ v - 2 b.T @ v for symmetric positive definite phi,
    for one linear term b or for each column of b, from one factorization.

    Returns the minimizers and the minimum values -b.T @ inv(phi) @ b, which
    are never positive.
    """
    phi = np.asarray(phi, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if phi.shape != (b.shape[0], b.shape[0]):
        raise ValueError("phi and b sizes disagree")
    try:
        factor = cho_factor(phi, lower=True, check_finite=False)
    except LinAlgError as exc:
        raise SingularMatrixError(
            "quadratic-program matrix is not positive definite"
        ) from exc
    v = cho_solve(factor, b, check_finite=False)
    return v, -np.sum(b * v, axis=0)


def real_qp_weights(
    received_cov: np.ndarray, si_noise_cov: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Optimal weights and program optima from the real-embedded programs of
    all subcarriers, solved together; row k of V is assembled from the
    minimizer [Re w; Im w] of subcarrier k's program."""
    phi, b = real_qp_blocks(received_cov, si_noise_cov)
    v, opt_values = solve_qp(phi, b)
    n = b.shape[1]
    return (v[:n] + 1j * v[n:]).T, opt_values


def expected_residual_power(
    si_cov: np.ndarray,
    weights: np.ndarray,
    noise_power: float,
    soi_power: float,
) -> float:
    """Expected residual power of weights V for fixed transmit symbols:
    N*noise + tr{A} + tr{V C conj(V).T} - 2 Re tr{V B}."""
    si_cov = np.asarray(si_cov, dtype=np.complex128)
    weights = np.asarray(weights, dtype=np.complex128)
    n = si_cov.shape[0]
    if si_cov.shape != (n, n) or weights.shape != (n, n):
        raise ValueError("si_cov and weights must be square and equally sized")
    if noise_power < 0.0 or soi_power < 0.0:
        raise ValueError("powers must be non-negative")
    eye = np.eye(n)
    si_noise = si_cov + noise_power * eye
    received = si_noise + soi_power * eye
    quad = np.einsum("km,km->", weights @ received, weights.conj()).real
    cross = np.einsum("km,mk->", weights, si_noise).real
    value = n * noise_power + np.trace(si_cov).real + quad - 2.0 * cross
    return max(float(value), 0.0)


def ls_weight_matrix(symbols: np.ndarray, n_taps: int) -> np.ndarray:
    """The N x N weights implied by LS estimation plus reconstruction,
    an oblique projection onto the span of the known symbols, from the
    general Gram solve that holds for symbols of any modulus."""
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


def simulate_mixing_covariance(
    delta_f: float,
    n_subcarriers: int,
    n_traces: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Monte Carlo E[delta_a conj(delta_b)] from independent transmit and
    receive Wiener traces, by direct transform of the rotation samples."""
    sigma = np.sqrt(phase_increment_variance(delta_f, n_subcarriers))
    phases = np.zeros((n_traces, n_subcarriers))
    # Two independent oscillators per trace, summed.
    for _ in range(2):
        steps = sigma * rng.standard_normal((n_traces, n_subcarriers - 1))
        phases[:, 1:] += np.cumsum(steps, axis=1)
    coeffs = np.fft.ifft(np.exp(1j * phases), axis=1)
    return np.einsum("ta,tb->ab", coeffs, coeffs.conj()) / n_traces


def check_pn_covariance(
    delta_f: float = 1e-3,
    n_subcarriers: int = 32,
    n_traces: int = 100_000,
    seed: int = 7001,
    tolerance: float = 2e-3,
) -> CheckResult:
    """Closed-form mixing covariance versus the Monte Carlo oracle."""
    rng = np.random.default_rng(seed)
    table = pn_covariance_table(delta_f, n_subcarriers)
    estimate = simulate_mixing_covariance(delta_f, n_subcarriers, n_traces, rng)
    worst = float(np.max(np.abs(estimate - table.gamma)))
    return CheckResult(
        name="pn-covariance",
        passed=worst <= tolerance,
        worst_error=worst,
        tolerance=tolerance,
        detail=f"delta_f={delta_f:g} N={n_subcarriers} traces={n_traces}",
    )


def simulate_si_covariance(
    symbols: np.ndarray,
    pdp: np.ndarray,
    n_tx: int,
    delta_f: float,
    n_trials: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample covariance of synthesized SI vectors for fixed symbols.

    Vectorized mirror of synthesize_received with SOI and noise disabled:
    fresh channels and per-antenna oscillator pairs each trial.
    """
    n = symbols.size
    n_taps = pdp.size
    sigma = np.sqrt(phase_increment_variance(delta_f, n))
    scale = np.sqrt(pdp / 2.0)
    taps = scale[None, None, :] * (
        rng.standard_normal((n_trials, n_tx, n_taps))
        + 1j * rng.standard_normal((n_trials, n_tx, n_taps))
    )
    phases = np.zeros((n_trials, n_tx, n))
    for _ in range(2):
        steps = sigma * rng.standard_normal((n_trials, n_tx, n - 1))
        phases[:, :, 1:] += np.cumsum(steps, axis=2)
    response = np.fft.fft(taps, n=n, axis=2)
    waveform = np.fft.ifft(symbols[None, None, :] * response, axis=2)
    si = np.fft.fft((np.exp(1j * phases) * waveform).sum(axis=1), axis=1)
    return np.einsum("ta,tb->ab", si, si.conj()) / n_trials


def check_si_covariance(
    n_subcarriers: int = 8,
    n_taps: int = 2,
    n_tx: int = 4,
    delta_f: float = 1e-3,
    n_trials: int = 100_000,
    seed: int = 7002,
    tolerance: float = 0.03,
) -> CheckResult:
    """Analytic SI covariance versus the sample covariance of simulated SI,
    entrywise within tolerance * max |entry|."""
    rng = np.random.default_rng(seed)
    symbols = gen_bpsk_symbols(n_subcarriers, 1.0, rng)
    pdp = np.exp(-np.arange(n_taps) / 4.0)
    stats = EstimatorStatistics(
        symbols=symbols,
        pn=pn_covariance_table(delta_f, n_subcarriers),
        pdp=pdp,
        n_tx=n_tx,
    )
    analytic = si_covariance(stats)
    estimate = simulate_si_covariance(
        symbols, pdp, n_tx, delta_f, n_trials, rng
    )
    scale = float(np.max(np.abs(analytic)))
    worst = float(np.max(np.abs(estimate - analytic))) / scale
    return CheckResult(
        name="si-covariance",
        passed=worst <= tolerance,
        worst_error=worst,
        tolerance=tolerance,
        detail=(
            f"N={n_subcarriers} L={n_taps} n_tx={n_tx} "
            f"delta_f={delta_f:g} trials={n_trials} (relative to max entry)"
        ),
    )


def check_qp_oracle(
    sizes: tuple[int, ...] = (4, 8, 16),
    n_instances: int = 100,
    seed: int = 7003,
    tolerance: float = 1e-8,
) -> CheckResult:
    """Real-embedded per-subcarrier programs versus the complex normal
    equations and the explicit inverse on random Hermitian positive definite
    instances; also enforces that every program optimum is non-positive."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for n in sizes:
        for _ in range(n_instances):
            root = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            received = root @ root.conj().T + 0.1 * np.eye(n)
            herm = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            si_noise = 0.5 * (herm + herm.conj().T)
            real_weights, real_values = real_qp_weights(received, si_noise)
            weights, values = optimal_weights(received, si_noise)
            oracle = si_noise.conj().T @ np.linalg.inv(received)
            worst = max(
                worst,
                float(np.max(np.abs(real_weights - oracle))),
                float(np.max(np.abs(weights - oracle))),
                float(np.max(np.abs(real_weights - weights))),
            )
            top = float(max(real_values.max(), values.max()))
            if top > 1e-12:
                return CheckResult(
                    name="qp-oracle",
                    passed=False,
                    worst_error=top,
                    tolerance=0.0,
                    detail="positive program optimum encountered",
                )
    return CheckResult(
        name="qp-oracle",
        passed=worst <= tolerance,
        worst_error=worst,
        tolerance=tolerance,
        detail=f"sizes={sizes} instances={n_instances} per size",
    )


def time_domain_si_reference(
    symbols: np.ndarray,
    channels: SiChannelSet,
    tx_phases: list[np.ndarray],
    rx_phases: np.ndarray,
    cp_length: int,
) -> np.ndarray:
    """Sample-domain reference for the SI part of one symbol.

    Modulates with a cyclic prefix, runs a plain linear FIR per antenna over
    the prefixed stream, applies the combined oscillator rotation at the
    receive window, sums antennas and transforms.  Requires the channel to
    fit inside the prefix so the window sees only circular history.
    """
    symbols = np.asarray(symbols, dtype=np.complex128)
    n = symbols.size
    if channels.n_taps > cp_length + 1:
        raise ValueError("channel must fit inside the cyclic prefix")
    prefixed = modulate(symbols, cp_length)
    window = np.zeros(n, dtype=np.complex128)
    n_osc = len(tx_phases)
    for antenna in range(channels.n_tx):
        phases = tx_phases[antenna if n_osc > 1 else 0]
        convolved = np.convolve(prefixed, channels.taps[antenna])
        body = convolved[cp_length : cp_length + n]
        window += np.exp(1j * (phases + rx_phases)) * body
    return np.fft.fft(window)


def check_model_equivalence(
    n_subcarriers: int = 32,
    n_taps: int = 4,
    n_tx: int = 3,
    n_trials: int = 100,
    delta_f: float = 1e-3,
    seed: int = 7004,
    tolerance: float = 1e-8,
) -> CheckResult:
    """Subcarrier-domain synthesis versus the sample-domain FIR reference."""
    rng = np.random.default_rng(seed)
    cp_length = n_taps + 2
    variance = phase_increment_variance(delta_f, n_subcarriers)
    pdp = np.exp(-np.arange(n_taps) / 4.0)
    worst = 0.0
    for _ in range(n_trials):
        symbols = gen_bpsk_symbols(n_subcarriers, 1.0, rng)
        channels = gen_si_channel(n_tx, n_taps, pdp, rng)
        tx_phases = [
            gen_wiener_phase(n_subcarriers, variance, rng) for _ in range(n_tx)
        ]
        rx_phases = gen_wiener_phase(n_subcarriers, variance, rng)
        received = synthesize_received(
            symbols, channels, tx_phases, rx_phases, 0.0, 0.0, rng
        )
        reference = time_domain_si_reference(
            symbols, channels, tx_phases, rx_phases, cp_length
        )
        worst = max(
            worst,
            float(
                np.linalg.norm(received.si - reference)
                / np.linalg.norm(reference)
            ),
        )
    return CheckResult(
        name="model-equivalence",
        passed=worst <= tolerance,
        worst_error=worst,
        tolerance=tolerance,
        detail=(
            f"N={n_subcarriers} L={n_taps} n_tx={n_tx} trials={n_trials} "
            "(relative)"
        ),
    )


def run_all(fast: bool = False) -> list[CheckResult]:
    """Run every validation suite; fast mode shrinks the Monte Carlo sizes."""
    traces = 20_000 if fast else 100_000
    trials = 20_000 if fast else 100_000
    instances = 25 if fast else 100
    return [
        check_pn_covariance(delta_f=1e-4, n_traces=traces,
                            tolerance=2e-3 if not fast else 5e-3),
        check_pn_covariance(delta_f=1e-3, n_traces=traces,
                            tolerance=2e-3 if not fast else 5e-3),
        check_si_covariance(n_trials=trials,
                            tolerance=0.03 if not fast else 0.06),
        check_qp_oracle(n_instances=instances),
        check_model_equivalence(),
    ]

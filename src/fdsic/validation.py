"""Self-check suites that compare closed-form statistics against independent
Monte Carlo oracles and alternative computation routes.

These back the `fdsic validate` command and the heavier regression tests:
the phase-noise mixing covariance against simulated traces, the SI covariance
against the sample covariance of synthesized symbols, the real-embedded
quadratic programs against the complex normal equations, and the
subcarrier-domain synthesis against a sample-domain FIR reference.  A second
sample-domain reference applies the transmit phase before the channel, in
its physical order, and measures the error of the model's ordering.

The module also holds the dense oracles the spectral engine of
fdsic.estimator is tested against: the subcarrier-domain SI covariance, the
Cholesky solve of the normal equations, the real-embedded quadratic
programs, the direct evaluation of the expected residual power, and the
least-squares projector built from a general Gram solve.  The closed-form
subcarrier mixing covariance, which the simulator never needs, is built
here from the phase correlation kernel.  So are the transforms only these
checks use: the partial DFT matrix (dft_matrix), the subcarrier mixing
coefficients of phase traces (ici_coefficients) and cyclic-prefix
modulation (modulate).  The simulator imports nothing from this module.

Both Monte Carlo oracles stream their samples through fixed-size blocks of
rows: the oscillator walks are drawn block by block at unit step, and each
block is scaled to its bandwidth, rotated and transformed on its own and
folded into one running BLAS-3 Hermitian rank-k update (zherk), so their
memory is bounded by the full-size walk array (and the SI oracle's taps)
rather than by a stack of full-size temporaries.  Because only the scale
depends on the bandwidth, the mixing oracle serves every bandwidth of a
check from one draw.  The SI oracle forms its channel outputs by direct
circular convolution with the delayed symbol waveforms, a route independent
of the simulator's FFT-based channel_outputs.  Their random draws are part
of the contract: the same seed draws the same numbers in the same order and
shapes, block after block, so the reported worst errors change only in the
last digits when the arithmetic around the draws changes.

run_all runs the suites in two processes.  The four checks are independent
and separately seeded, so a forked child runs the mixing oracle while the
parent runs the SI oracle and the two round-off checks; the parent, which
keeps the larger working set, returns every result in the serial order.
Threads cannot overlap them: the RNG fills and scipy's BLAS and LAPACK
wrappers hold the interpreter lock (on two threads standard_normal ran
1.09x, zhetrd 1.02x and zherk 0.80x as fast as on one).  A spawned child
would spend longer importing numpy and scipy than the mixing oracle takes.
On two CPUs a full-size run takes about 0.5 s instead of 0.8 s; on one CPU
the two processes take turns, at 0.98 to 1.09 times the serial wall time.

Every BLAS and LAPACK call here (zherk and zgemm for the oracles' products,
potrf and potrs for the Cholesky solves) goes to the compiled modules
fdsic.estimator loads, so fdsic validate starts without the scipy.linalg
package, as the sweeps do; on a 2-vCPU machine that saves about 0.2 s of
its start-up and 15 MB of its peak memory.  scipy.linalg's cho_factor and
cho_solve wrap the same two routines, so the results are the same bits.
"""

import ctypes
import functools
import multiprocessing
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .estimator import (
    EstimatorStatistics,
    SingularMatrixError,
    blas,
    lapack,
    one_blas_thread,
)
from .impairments import (
    channel_outputs,
    gen_si_channel,
    gen_wiener_phase,
    phase_increment_variance,
    pn_covariance_table,
    synthesize_received,
    unit_rotation,
)
from .ofdm import gen_bpsk_symbols


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


def _covariance_pair(
    received_cov: np.ndarray, si_noise_cov: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The received and SI plus noise covariances as complex arrays, which
    must be square and equally sized."""
    received_cov = np.asarray(received_cov, dtype=np.complex128)
    si_noise_cov = np.asarray(si_noise_cov, dtype=np.complex128)
    shape = received_cov.shape
    if len(shape) != 2 or shape[0] != shape[1] or si_noise_cov.shape != shape:
        raise ValueError("covariances must be square and equally sized")
    return received_cov, si_noise_cov


def _cholesky_solve(potrf, potrs, matrix, rhs, name: str) -> np.ndarray:
    """inv(matrix) @ rhs for a Hermitian positive definite matrix, by the
    LAPACK pair potrf and potrs on its lower triangle; a failed
    factorization raises SingularMatrixError naming the matrix."""
    if matrix.size == 0:
        # the wrappers reject empty operands; an empty system has an empty
        # solution
        return np.empty_like(rhs)
    factor, info = potrf(matrix, lower=1)
    if info > 0:
        raise SingularMatrixError(f"{name} is not positive definite")
    solution, _ = potrs(factor, rhs, lower=1)
    return solution


def optimal_weights(
    received_cov: np.ndarray, si_noise_cov: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Optimal weights by one Hermitian Cholesky solve of the normal
    equations C conj(V).T = B, with C the received covariance and B the SI
    plus noise covariance.

    Returns V = conj(B).T @ inv(C) and the per-subcarrier program optima
    f_k = -Re{(V @ B)[k, k]} <= 0.
    """
    received_cov, si_noise_cov = _covariance_pair(received_cov, si_noise_cov)
    weights = _cholesky_solve(
        lapack.zpotrf, lapack.zpotrs, received_cov, si_noise_cov,
        "received covariance",
    ).conj().T
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
    received_cov, si_noise_cov = _covariance_pair(received_cov, si_noise_cov)
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
    if b.ndim not in (1, 2) or phi.shape != (len(b), len(b)):
        raise ValueError("phi and b sizes disagree")
    v = _cholesky_solve(
        lapack.dpotrf, lapack.dpotrs, phi, b, "quadratic-program matrix"
    )
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


def dft_matrix(n_subcarriers: int, n_taps: int) -> np.ndarray:
    """Partial DFT matrix with entries exp(-2j*pi*n*l/N), shape (N, n_taps).

    Columns are orthogonal with squared norm N, so conj(F).T @ F = N * I.
    """
    if n_subcarriers < 1 or n_taps < 1:
        raise ValueError("matrix dimensions must be positive")
    if n_taps > n_subcarriers:
        raise ValueError(
            f"n_taps={n_taps} exceeds n_subcarriers={n_subcarriers}"
        )
    rows = np.arange(n_subcarriers)[:, None]
    cols = np.arange(n_taps)[None, :]
    return np.exp(-2j * np.pi * rows * cols / n_subcarriers)


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


def subcarrier_si_covariance(
    stats: EstimatorStatistics, kernel: np.ndarray
) -> np.ndarray:
    """Conditional covariance A0 of the received SI vector in the
    subcarrier domain, the matrix the dense oracles take.

    The sample covariance weighted by the (N, N) phase correlation kernel
    of pn_covariance_table is carried to the subcarrier domain by a 2-D FFT
    and symmetrized.  This is algebraically identical to the direct
    fourfold sum of the mixing covariance against the symbol outer product
    and the profile spectrum, and to U A_t U^H with
    A_t = fdsic.estimator.si_covariance and the unitary DFT U, which the
    simulator's engine uses without forming A0.  The B trials of stats give
    a (B, N, N) stack.
    """
    n = stats.symbols.shape[-1]
    kernel = np.asarray(kernel)
    if kernel.shape != (n, n):
        raise ValueError(f"kernel must be (N, N) = {(n, n)}, got {kernel.shape}")
    weighted = kernel * stats.sample_covariance * stats.n_tx
    cov = np.fft.ifft(np.fft.fft(weighted, axis=-2), axis=-1) * n
    return 0.5 * (cov + cov.conj().swapaxes(-1, -2))


def mixing_covariance(kernel: np.ndarray) -> np.ndarray:
    """Closed-form mixing covariance gamma[a, b] = E[delta_a conj(delta_b)]
    of one oscillator pair, on circular offsets: the two-sided transform of
    the sample-domain phase correlation kernel that pn_covariance_table
    returns.  gamma is Hermitian with unit trace, and a perfect oscillator
    (kernel of ones) gives a single spike at (0, 0)."""
    kernel = np.asarray(kernel, dtype=np.float64)
    n = kernel.shape[0]
    return np.fft.ifft(np.fft.fft(kernel, axis=1), axis=0) / n


# Rows per block of the Monte Carlo oracles: each block's temporaries hold
# at most this many complex entries (2 MiB), unless one row alone is larger.
_BLOCK_ENTRIES = 2**17


def _row_blocks(n_rows: int, row_entries: int):
    """Consecutive slices that cover n_rows rows of row_entries entries
    each, in blocks of at most _BLOCK_ENTRIES entries and at least one row."""
    step = max(1, _BLOCK_ENTRIES // row_entries)
    for start in range(0, n_rows, step):
        yield slice(start, min(start + step, n_rows))


def _require_samples(count: int, name: str) -> None:
    if count < 1:
        raise ValueError(f"{name} must be at least 1, got {count}")


def _streamed_gram(blocks, n: int) -> np.ndarray:
    """Sample second moment sum_t r_t conj(r_t).T / T of the T rows of a
    sequence of (rows, n) blocks.

    Each block is folded into one running upper triangle by a BLAS-3
    rank-k update (zherk with beta = 1); the sum is divided by T and
    mirrored once at the end, so the result is exactly Hermitian.  rows.T
    of a C-ordered block is the Fortran-ordered operand zherk reads, so
    neither a copy nor a conjugate of the samples is made.
    """
    # zherk never touches the strictly lower triangle, which stays zero
    upper = np.zeros((n, n), dtype=np.complex128, order="F")
    count = 0
    for rows in blocks:
        upper = blas.zherk(1.0, rows.T, beta=1.0, c=upper, overwrite_c=1)
        count += rows.shape[0]
    upper /= count
    return upper + np.triu(upper, 1).conj().T


def _summed_wiener_phases(
    shape: tuple[int, ...], rng: np.random.Generator
) -> np.ndarray:
    """Phases of two independent Wiener oscillators summed, one trace along
    the last axis of shape, each starting at zero with unit-variance steps.

    A walk with steps of standard deviation sigma is sigma times this unit
    walk, so one draw serves every bandwidth: callers scale one row block
    at a time and only the returned array exists at full size.  The steps
    are drawn as two (shape[0], ..., N - 1) arrays, first oscillator first,
    but block by block along the leading axis: standard_normal fills C
    order sequentially, so consecutive blocks receive the numbers one full
    draw would.
    """
    phases = np.zeros(shape)
    row_entries = int(np.prod(shape[1:]))
    for _ in range(2):
        for rows in _row_blocks(shape[0], row_entries):
            steps = rng.standard_normal(
                (rows.stop - rows.start,) + shape[1:-1] + (shape[-1] - 1,)
            )
            np.cumsum(steps, axis=-1, out=steps)
            phases[rows, ..., 1:] += steps
    return phases


def ici_coefficients(phases: np.ndarray) -> np.ndarray:
    """Subcarrier mixing coefficients of a phase trace over one symbol body,
    or of each trace of a stack along the last axis.

    Returns delta with delta[m] = (1/N) sum_n exp(j*phases[n] + 2j*pi*m*n/N),
    indexed circularly.  A constant trace gives a single spike at m = 0 and
    sum_m |delta[m]|^2 = 1 holds for every trace.
    """
    phases = np.asarray(phases, dtype=np.float64)
    if phases.ndim == 0 or phases.shape[-1] == 0:
        raise ValueError("phases must hold non-empty traces")
    return np.fft.ifft(unit_rotation(phases), axis=-1)


def simulate_mixing_covariance(
    delta_fs: Sequence[float],
    n_subcarriers: int,
    n_traces: int,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Monte Carlo E[delta_a conj(delta_b)] from independent transmit and
    receive Wiener traces, by direct transform of the rotation samples, one
    estimate per phase-noise bandwidth in delta_fs.

    All bandwidths share one draw of unit-step walks, each scaled to its
    bandwidth one block of traces at a time.  Every trace is transformed on
    its own by ici_coefficients, so the oracle checks the closed form's
    transform convention, and the traces enter only through their sample
    Gram, which is streamed over blocks of traces.  The rng draws (two
    blocks of n_traces x (n_subcarriers - 1) normals, whatever the number
    of bandwidths) are part of the oracle's contract: a given rng state
    always yields the same traces.
    """
    if len(delta_fs) == 0:
        raise ValueError("delta_fs must name at least one bandwidth")
    _require_samples(n_traces, "n_traces")
    sigmas = [
        np.sqrt(phase_increment_variance(delta_f, n_subcarriers))
        for delta_f in delta_fs
    ]
    walks = _summed_wiener_phases((n_traces, n_subcarriers), rng)

    def coefficients(sigma: float):
        for rows in _row_blocks(n_traces, n_subcarriers):
            yield ici_coefficients(sigma * walks[rows])

    return [
        _streamed_gram(coefficients(sigma), n_subcarriers) for sigma in sigmas
    ]


def check_pn_covariance(
    delta_fs: Sequence[float] = (1e-4, 1e-3),
    n_subcarriers: int = 32,
    n_traces: int = 100_000,
    tolerance: float = 2e-3,
) -> list[CheckResult]:
    """Closed-form mixing covariance versus the Monte Carlo oracle, one
    result per bandwidth in delta_fs, all from one draw of traces."""
    rng = np.random.default_rng(7001)
    estimates = simulate_mixing_covariance(
        delta_fs, n_subcarriers, n_traces, rng
    )
    results = []
    for delta_f, estimate in zip(delta_fs, estimates):
        kernel = pn_covariance_table(delta_f, n_subcarriers)
        worst = float(np.max(np.abs(estimate - mixing_covariance(kernel))))
        results.append(
            CheckResult(
                name="pn-covariance",
                passed=worst <= tolerance,
                worst_error=worst,
                tolerance=tolerance,
                detail=(
                    f"delta_f={delta_f:g} N={n_subcarriers} traces={n_traces}"
                ),
            )
        )
    return results


def _delayed_waveforms(symbols: np.ndarray, n_taps: int) -> np.ndarray:
    """The (n_taps, N) symbol waveform ifft(symbols), row l delayed
    circularly by l samples, so taps @ delayed is the circular channel
    output of each row of taps."""
    waveform = np.fft.ifft(np.asarray(symbols, dtype=np.complex128))
    return np.stack([np.roll(waveform, lag) for lag in range(n_taps)])


def _direct_channel_outputs(
    taps: np.ndarray, delayed: np.ndarray
) -> np.ndarray:
    """Circular channel outputs taps @ delayed of every row of (..., L) taps
    against the delayed waveforms of _delayed_waveforms, shape (..., N).

    One zgemm on scipy's BLAS, which runs on the thread count run_all pins;
    numpy's own BLAS would wake a thread pool whose spinning costs more CPU
    than the product.  Transposing both C-ordered operands hands zgemm
    Fortran-ordered views, and the transposed product is C-ordered, so
    nothing is copied.
    """
    rows = taps.reshape(-1, delayed.shape[0])
    product = blas.zgemm(1.0, delayed.T, rows.T).T
    return product.reshape(taps.shape[:-1] + delayed.shape[1:])


def simulate_si_covariance(
    symbols: np.ndarray,
    pdp: np.ndarray,
    n_tx: int,
    delta_f: float,
    n_trials: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample covariance of synthesized SI vectors for fixed symbols.

    Vectorized mirror of synthesize_received: fresh channels and
    per-antenna oscillator pairs each trial, the taps drawn by the
    simulator's own gen_si_channel.  The channel outputs come from direct
    circular convolution of the taps with the delayed symbol waveforms
    rather than from the FFT pair of channel_outputs, so the oracle shares
    no route with it.  The unit-step walks are scaled to the bandwidth, and
    the rotated outputs summed over antennas and transformed, one block of
    trials at a time; they enter only through their sample Gram.  The rng
    draws (taps, then two blocks of oscillator steps) keep their order,
    shapes and count: a given rng state always yields the same channels and
    traces.
    """
    _require_samples(n_trials, "n_trials")
    n = symbols.size
    n_taps = pdp.size
    sigma = np.sqrt(phase_increment_variance(delta_f, n))
    taps = gen_si_channel(n_trials * n_tx, pdp, rng).reshape(
        n_trials, n_tx, n_taps
    )
    walks = _summed_wiener_phases((n_trials, n_tx, n), rng)
    delayed = _delayed_waveforms(symbols, n_taps)

    def si_vectors(rows: slice) -> np.ndarray:
        outputs = _direct_channel_outputs(taps[rows], delayed)
        outputs *= unit_rotation(sigma * walks[rows])
        return np.fft.fft(outputs.sum(axis=1), axis=1)

    return _streamed_gram(
        (si_vectors(rows) for rows in _row_blocks(n_trials, n_tx * n)), n
    )


def check_si_covariance(
    n_trials: int = 100_000, tolerance: float = 0.03
) -> CheckResult:
    """Analytic SI covariance versus the sample covariance of simulated SI,
    entrywise within tolerance * max |entry|."""
    n_subcarriers, n_taps, n_tx, delta_f = 8, 2, 4, 1e-3
    rng = np.random.default_rng(7002)
    symbols = gen_bpsk_symbols(n_subcarriers, rng)
    pdp = np.exp(-np.arange(n_taps) / 4.0)
    stats = EstimatorStatistics(symbols=symbols[None], pdp=pdp, n_tx=n_tx)
    analytic = subcarrier_si_covariance(
        stats, pn_covariance_table(delta_f, n_subcarriers)
    )[0]
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
) -> CheckResult:
    """Real-embedded per-subcarrier programs versus the complex normal
    equations and the explicit inverse on random Hermitian positive definite
    instances; also enforces that every program optimum is non-positive."""
    tolerance = 1e-8
    rng = np.random.default_rng(7003)
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


def modulate(freq_symbols: np.ndarray, cp_length: int) -> np.ndarray:
    """Inverse transform plus cyclic prefix, returns N + cp_length samples."""
    symbols = np.asarray(freq_symbols, dtype=np.complex128)
    n = symbols.size
    if n == 0:
        raise ValueError("freq_symbols must be non-empty")
    if cp_length < 0 or cp_length >= n:
        raise ValueError(f"cp_length={cp_length} must be in [0, {n})")
    body = np.fft.ifft(symbols)
    if cp_length == 0:
        return body
    return np.concatenate([body[-cp_length:], body])


def time_domain_si_reference(
    symbols: np.ndarray,
    taps: np.ndarray,
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
    n_tx, n_taps = taps.shape
    if n_taps > cp_length + 1:
        raise ValueError("channel must fit inside the cyclic prefix")
    prefixed = modulate(symbols, cp_length)
    window = np.zeros(n, dtype=np.complex128)
    n_osc = len(tx_phases)
    for antenna in range(n_tx):
        phases = tx_phases[antenna if n_osc > 1 else 0]
        convolved = np.convolve(prefixed, taps[antenna])
        body = convolved[cp_length : cp_length + n]
        window += np.exp(1j * (phases + rx_phases)) * body
    return np.fft.fft(window)


def exact_order_si_reference(
    symbols: np.ndarray,
    taps: np.ndarray,
    tx_phases: list[np.ndarray],
    rx_phases: np.ndarray,
    cp_length: int,
) -> np.ndarray:
    """Sample-domain SI with every oscillator where it physically acts.

    Each transmit oscillator rotates the CP-prefixed samples before they
    enter that antenna's FIR, and the receive oscillator rotates the receive
    window.  tx_phases holds one trace of N + cp_length samples per antenna,
    or one shared trace, aligned with the prefixed stream; rx_phases covers
    the N window samples.  synthesize_received and time_domain_si_reference
    instead rotate the channel output by tx_phases[cp_length:], the transmit
    phase at the receive instant rather than at the instant each tap's
    sample left the antenna.
    """
    symbols = np.asarray(symbols, dtype=np.complex128)
    n = symbols.size
    n_tx, n_taps = taps.shape
    if n_taps > cp_length + 1:
        raise ValueError("channel must fit inside the cyclic prefix")
    prefixed = modulate(symbols, cp_length)
    window = np.zeros(n, dtype=np.complex128)
    n_osc = len(tx_phases)
    for antenna in range(n_tx):
        phases = tx_phases[antenna if n_osc > 1 else 0]
        if np.shape(phases) != prefixed.shape:
            raise ValueError("transmit traces must cover the prefixed symbol")
        rotated = np.exp(1j * phases) * prefixed
        window += np.convolve(rotated, taps[antenna])[cp_length : cp_length + n]
    return np.fft.fft(np.exp(1j * rx_phases) * window)


def check_model_equivalence(n_trials: int = 100) -> CheckResult:
    """Subcarrier-domain synthesis versus the sample-domain FIR reference."""
    n_subcarriers, n_taps, n_tx, delta_f = 32, 4, 3, 1e-3
    tolerance = 1e-8
    rng = np.random.default_rng(7004)
    cp_length = n_taps + 2
    sigma = np.sqrt(phase_increment_variance(delta_f, n_subcarriers))
    pdp = np.exp(-np.arange(n_taps) / 4.0)
    worst = 0.0
    for _ in range(n_trials):
        symbols = gen_bpsk_symbols(n_subcarriers, rng)
        taps = gen_si_channel(n_tx, pdp, rng)
        tx_phases = [
            sigma * gen_wiener_phase(n_subcarriers, rng) for _ in range(n_tx)
        ]
        rx_phases = sigma * gen_wiener_phase(n_subcarriers, rng)
        si = synthesize_received(
            channel_outputs(symbols[None], taps[None]),
            np.array(tx_phases)[None],
            rx_phases[None],
        )[0]
        reference = time_domain_si_reference(
            symbols, taps, tx_phases, rx_phases, cp_length
        )
        worst = max(
            worst,
            float(
                np.linalg.norm(si - reference)
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


def _release_free_heap() -> None:
    """Return the free memory of the C heap to the system, where the C
    library offers glibc's malloc_trim.

    A forked child shares the parent's heap pages until either writes to
    one, and both reuse the same free blocks, so without this each copies
    pages the other also copies.  Called first thing in the child, it
    leaves the parent its pages and gives the child fresh zeroed ones.  A
    full-size run_all repeated in one interpreter on two CPUs took about
    21,000 minor page faults without it and 9,000 with it, and 1.17 and
    1.10 times the CPU time of running the checks in one process.
    """
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim.argtypes = [ctypes.c_size_t]
        trim.restype = ctypes.c_int
        trim(0)


def _send_result(writer, check) -> None:
    """Body of run_all's child: run check and send (True, its results), or
    (False, the exception it raised).  The child is forked inside run_all's
    one_blas_thread, so it runs on one BLAS thread too."""
    _release_free_heap()
    try:
        message = (True, check())
    except Exception as exc:
        message = (False, exc)
    writer.send(message)


def _received(reader, child):
    """The results the child sent, or the exception it raised, raised here;
    a child that exits without sending is an error naming its exit code."""
    try:
        ok, payload = reader.recv()
    except EOFError:
        child.join()
        raise RuntimeError(
            "the pn-covariance check process exited with code "
            f"{child.exitcode} without sending its results"
        ) from None
    if not ok:
        raise payload
    return payload


@one_blas_thread()
def run_all(fast: bool = False) -> list[CheckResult]:
    """Run every validation suite, with scipy's OpenBLAS on one thread; fast
    mode shrinks the Monte Carlo sizes.

    check_pn_covariance runs in a forked child while this process runs the
    SI, QP and model-equivalence checks; the results keep the serial order,
    the mixing oracle's two first.  An exception in the child is raised
    here with its type and message.  If this process's checks raise, the
    child is terminated; it is joined before run_all returns or raises.
    """
    traces = 20_000 if fast else 100_000
    trials = 20_000 if fast else 100_000
    instances = 25 if fast else 100
    pn_check = functools.partial(
        check_pn_covariance, delta_fs=(1e-4, 1e-3), n_traces=traces,
        tolerance=2e-3 if not fast else 5e-3,
    )
    context = multiprocessing.get_context("fork")
    reader, writer = context.Pipe(duplex=False)
    child = context.Process(target=_send_result, args=(writer, pn_check))
    child.start()
    # the child now holds the only write end, so recv sees its exit as EOF
    writer.close()
    try:
        others = [
            check_si_covariance(n_trials=trials,
                                tolerance=0.03 if not fast else 0.06),
            check_qp_oracle(n_instances=instances),
            check_model_equivalence(),
        ]
        return [*_received(reader, child), *others]
    except BaseException:
        child.terminate()
        raise
    finally:
        child.join()
        reader.close()

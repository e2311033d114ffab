"""Self-check suites that compare closed-form statistics against independent
Monte Carlo oracles and alternative computation routes.

These back the `fdsic validate` command and the heavier regression tests:
the phase-noise mixing covariance against simulated traces, the SI covariance
against the sample covariance of synthesized symbols, the real-embedded
quadratic programs against the complex normal equations, and the
subcarrier-domain synthesis against a sample-domain FIR reference.  The
same reference can apply the transmit phase before the channel, in its
physical order, and so measures the error of the model's ordering.

The module also holds the dense oracles the spectral engine of
fdsic.estimator is tested against: the subcarrier-domain SI covariance, the
Cholesky solve of the normal equations, the real-embedded quadratic
programs (real_qp_weights), the direct evaluation of the expected residual
power at the model's unit noise power (expected_residual_power(si_cov,
weights, soi_power)), and the least-squares projector built from a general
Gram solve.  The closed-form subcarrier mixing covariance, which the
simulator never needs, is built here from the phase correlation kernel.
So are the transforms only these checks use: the partial DFT matrix
(dft_matrix), the subcarrier mixing coefficients of phase traces
(ici_coefficients) and cyclic-prefix modulation (modulate).  The
simulator imports nothing from this module.

Both Monte Carlo oracles stream their samples through one generator,
_summed_wiener_phases, which draws a block of rows at a time into one
reused buffer and turns each row's oscillator steps into unit-step walks;
each block is scaled to its bandwidth, rotated and transformed on its own
and folded by _streamed_grams into a running BLAS-3 Hermitian rank-k
update (zherk), so no draw, walk or temporary exists at full size and
each oracle's memory is bounded by one block.  Because only the scale
depends on the bandwidth, the mixing oracle serves every bandwidth of a
check from one pass of the walks, folding each block into one triangle
per bandwidth.  The SI oracle forms its channel outputs by direct
circular convolution with the delayed symbol waveforms, a route
independent of the simulator's FFT-based channel_outputs.  Their random
draws are part of the contract: each oracle's normals are one full-size
draw rng.standard_normal((n_rows, S)) whose row t holds all of sample t's
normals (the SI oracle's tap real parts, tap imaginary parts, then both
oscillators' steps; the mixing oracle's two oscillators' steps).
standard_normal fills C order, so each block of rows is drawn by one call
and gets exactly those rows of the full-size draw, whatever the block
size, every normal is drawn once and the generator ends where the
full-size draw leaves it.  So the reported worst errors change only in the
last digits when the arithmetic around the draws changes.

Each check fixes its sizes, seeds and tolerances itself, in two profiles:
the full one, and the fast one (fast=True) that fdsic validate --fast runs
with fewer Monte Carlo samples against looser tolerances.  A result passes
when its worst error is at most its tolerance.

run_all runs the suites in two processes.  The four checks are independent
and separately seeded, so a forked child runs the mixing oracle while the
parent runs the SI oracle and the two round-off checks; the parent, which
keeps the larger working set, returns every result in the serial order.
Threads cannot overlap them: the RNG fills and scipy's BLAS and LAPACK
wrappers hold the interpreter lock (on two threads standard_normal ran
1.09x, zhetrd 1.02x and zherk 0.80x as fast as on one).  A spawned child
would spend longer importing numpy and scipy than the mixing oracle takes.
On two CPUs a full-size run takes about 0.3 s instead of 0.55 s serially
(medians of 0.28 to 0.34 s against 0.52 to 0.55 s, six interpreters of
four runs each); on one CPU the two processes take turns, at a median
1.09 times the serial wall time (0.97 to 1.5 times in ten pairs).

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
    worst_error: float
    tolerance: float
    detail: str

    @property
    def passed(self) -> bool:
        return self.worst_error <= self.tolerance

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


def real_qp_weights(
    received_cov: np.ndarray, si_noise_cov: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Optimal weights and program optima from the real-embedded programs of
    all subcarriers, solved together from one factorization.

    The real stacking v = [Re w; Im w] of subcarrier k's weight row w
    minimizes v.T @ phi @ v - 2 b[:, k].T @ v, where phi is the embedding
    [[Re C, Im C], [-Im C, Re C]] of the received covariance C, shared by
    all subcarriers, and b = [Re B; -Im B] stacks the SI plus noise
    covariance B.  Row k of V is assembled from the minimizer of program k,
    whose optimum -b[:, k].T @ inv(phi) @ b[:, k] is never positive.
    """
    received_cov, si_noise_cov = _covariance_pair(received_cov, si_noise_cov)
    # the real embedding multiplies the way the complex matrices do, so
    # solving with phi solves with C
    phi = np.block(
        [[received_cov.real, received_cov.imag],
         [-received_cov.imag, received_cov.real]]
    )
    b = np.concatenate([si_noise_cov.real, -si_noise_cov.imag])
    v = _cholesky_solve(
        lapack.dpotrf, lapack.dpotrs, phi, b, "quadratic-program matrix"
    )
    n = len(received_cov)
    return (v[:n] + 1j * v[n:]).T, -np.sum(b * v, axis=0)


def expected_residual_power(
    si_cov: np.ndarray, weights: np.ndarray, soi_power: float
) -> float:
    """Expected residual power of weights V for fixed transmit symbols at
    the model's unit noise power: N + tr{A} + tr{V C conj(V).T}
    - 2 Re tr{V B}."""
    si_cov = np.asarray(si_cov, dtype=np.complex128)
    weights = np.asarray(weights, dtype=np.complex128)
    n = si_cov.shape[0]
    if si_cov.shape != (n, n) or weights.shape != (n, n):
        raise ValueError("si_cov and weights must be square and equally sized")
    if not (np.isfinite(soi_power) and soi_power >= 0.0):
        raise ValueError("soi_power must be finite and non-negative")
    eye = np.eye(n)
    si_noise = si_cov + eye
    received = si_noise + soi_power * eye
    quad = np.einsum("km,km->", weights @ received, weights.conj()).real
    cross = np.einsum("km,mk->", weights, si_noise).real
    value = n + np.trace(si_cov).real + quad - 2.0 * cross
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


# Rows per block of the Monte Carlo oracles: each block's draws, walks and
# temporaries hold at most this many entries (512 KiB complex), unless one
# row alone is larger.  With the draws streamed too, this bounds both
# oracles' working sets (about 2.6 MB mixing, 2.2 MB SI, at any sample
# count).  A block's buffers then fit a 2 MiB per-core L2 cache.  The
# constant is a pure performance setting: no draw, generator state or
# printed digit depends on it.  Swept over 2**12 to 2**17 in alternation
# (2 vCPU, OpenBLAS on one thread, BENCH_28.json), the median times of
# both full-size checks were lowest, or within 1% of it, at 2**15, and 6
# to 9% higher at 2**17; below 2**14 per-block overhead takes over.
_BLOCK_ENTRIES = 2**15


def _require_samples(count: int, name: str) -> None:
    if count < 1:
        raise ValueError(f"{name} must be at least 1, got {count}")


def _streamed_grams(steps) -> list[np.ndarray]:
    """Sample second moments sum_t r_t conj(r_t).T / T of several streams
    of T rows each, passed together: each step of steps is a sequence of
    (rows, n) blocks, one per stream, all with the same rows.

    Each block is folded into its stream's running upper triangle by a
    BLAS-3 rank-k update (zherk with beta = 1); each sum is divided by T
    and mirrored once at the end, so every result is exactly Hermitian.
    rows.T of a C-ordered block is the Fortran-ordered operand zherk reads,
    so neither a copy nor a conjugate of the samples is made.  A stream's
    blocks are consumed one at a time, so a lazy sequence holds only one.
    """
    uppers = []
    count = 0
    for blocks in steps:
        for stream, rows in enumerate(blocks):
            if stream == len(uppers):
                # zherk never touches the strictly lower triangle, which
                # stays zero
                n = rows.shape[1]
                uppers.append(np.zeros((n, n), dtype=np.complex128, order="F"))
            uppers[stream] = blas.zherk(
                1.0, rows.T, beta=1.0, c=uppers[stream], overwrite_c=1
            )
        count += rows.shape[0]
    grams = []
    for upper in uppers:
        upper /= count
        grams.append(upper + np.triu(upper, 1).conj().T)
    return grams


def _summed_wiener_phases(
    shape: tuple[int, ...], rng: np.random.Generator, n_lead: int = 0
):
    """Phases of two independent Wiener oscillators summed, one trace along
    the last axis of shape, each starting at zero with unit-variance steps,
    yielded one block of rows of the leading axis at a time as (lead,
    phases).

    A walk with steps of standard deviation sigma is sigma times this unit
    walk, so one draw serves every bandwidth.  The normals are the rows of
    one full-size draw rng.standard_normal((shape[0], n_lead + S)): row t
    holds lead[t], n_lead normals for the caller, then trace t's S steps
    as a (2, ..., N - 1) array, first oscillator first.  A block holds at
    most _BLOCK_ENTRIES trace entries, and at least one row.
    standard_normal fills C order, so one call per block draws exactly
    those rows of the full-size draw, and rng ends where that draw leaves
    it.  Each block is a view of buffers the next block overwrites, and
    rng must not be drawn from elsewhere until the blocks are exhausted.
    """
    n_rows, trace_shape = shape[0], shape[1:]
    step = min(n_rows, max(1, _BLOCK_ENTRIES // int(np.prod(trace_shape))))
    steps_shape = (2,) + trace_shape[:-1] + (trace_shape[-1] - 1,)
    normals = np.empty((step, n_lead + int(np.prod(steps_shape))))
    phases = np.zeros((step,) + trace_shape)
    for start in range(0, n_rows, step):
        rows = min(step, n_rows - start)
        draw, block = normals[:rows], phases[:rows]
        rng.standard_normal(out=draw)
        steps = draw[:, n_lead:].reshape((rows,) + steps_shape)
        np.cumsum(steps, axis=-1, out=steps)
        np.sum(steps, axis=1, out=block[..., 1:])
        yield draw[:, :n_lead], block


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

    All bandwidths share one pass of unit-step walks: each block of traces
    is scaled to every bandwidth in turn and folded into that bandwidth's
    running Gram.  Every trace is transformed on its own by
    ici_coefficients, so the oracle checks the closed form's transform
    convention, and the traces enter only through their sample Gram.  The
    rng draw is part of the oracle's contract: one full-size
    standard_normal((n_traces, 2 * (n_subcarriers - 1))) whose row t holds
    trace t's steps, the first oscillator's then the second's, whatever the
    number of bandwidths, so a given rng state always yields the same
    traces.
    """
    if len(delta_fs) == 0:
        raise ValueError("delta_fs must name at least one bandwidth")
    _require_samples(n_traces, "n_traces")
    sigmas = [
        np.sqrt(phase_increment_variance(delta_f, n_subcarriers))
        for delta_f in delta_fs
    ]
    walks = _summed_wiener_phases((n_traces, n_subcarriers), rng)
    return _streamed_grams(
        (ici_coefficients(sigma * phases) for sigma in sigmas)
        for _, phases in walks
    )


def check_pn_covariance(fast: bool = False) -> list[CheckResult]:
    """Closed-form mixing covariance versus the Monte Carlo oracle, one
    result per bandwidth, all from one draw of traces; fast draws a fifth
    of the traces against a looser tolerance."""
    delta_fs, n_subcarriers = (1e-4, 1e-3), 32
    n_traces, tolerance = (20_000, 5e-3) if fast else (100_000, 2e-3)
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
    per-antenna oscillator pairs each trial.  The channel outputs come from
    direct circular convolution of the taps with the delayed symbol
    waveforms rather than from the FFT pair of channel_outputs, so the
    oracle shares no route with it.  The taps, sqrt(pdp / 2) * (re + j im)
    as gen_si_channel builds them, and the unit-step walks, scaled to the
    bandwidth, come one block of trials at a time; the rotated outputs are
    summed over antennas and transformed and enter only through their
    sample Gram, so nothing exists at full size.  The rng draw is part of
    the oracle's contract: one full-size standard_normal((n_trials, S))
    whose row t holds trial t's normals, the (n_tx, L) tap real parts, the
    (n_tx, L) tap imaginary parts, then the (2, n_tx, N - 1) oscillator
    steps, first oscillator first, so a given rng state always yields the
    same channels and traces.  An empty or negative pdp or an n_tx below 1
    is rejected, as gen_si_channel rejects them, and so are symbols that
    are not a non-empty vector and a pdp longer than the symbols.
    """
    symbols = np.asarray(symbols)
    pdp = np.asarray(pdp, dtype=np.float64)
    if symbols.ndim != 1 or symbols.size == 0:
        raise ValueError(
            f"symbols must be a non-empty vector, got shape {symbols.shape}"
        )
    if n_tx < 1:
        raise ValueError("n_tx must be positive")
    if pdp.ndim != 1 or pdp.size == 0:
        raise ValueError(f"pdp must be a non-empty vector, got shape {pdp.shape}")
    if pdp.size > symbols.size:
        raise ValueError(
            f"pdp of {pdp.size} taps is longer than the {symbols.size} symbols"
        )
    if np.any(pdp < 0.0):
        raise ValueError("pdp entries must be non-negative")
    _require_samples(n_trials, "n_trials")
    n = symbols.size
    sigma = np.sqrt(phase_increment_variance(delta_f, n))
    scale = np.sqrt(pdp / 2.0)
    delayed = _delayed_waveforms(symbols, pdp.size)
    n_parts = n_tx * pdp.size

    def si_vectors():
        walks = _summed_wiener_phases((n_trials, n_tx, n), rng, 2 * n_parts)
        taps = None
        for parts, block in walks:
            if taps is None:
                # the first block is the largest; the rest reuse its buffer
                taps = np.empty(
                    (len(parts), n_tx, pdp.size), dtype=np.complex128
                )
            block_taps = taps[: len(parts)]
            block_taps.real = parts[:, :n_parts].reshape(block_taps.shape)
            block_taps.imag = parts[:, n_parts:].reshape(block_taps.shape)
            block_taps *= scale
            block *= sigma
            outputs = _direct_channel_outputs(block_taps, delayed)
            outputs *= unit_rotation(block)
            yield (np.fft.fft(outputs.sum(axis=1), axis=1),)

    (gram,) = _streamed_grams(si_vectors())
    return gram


def check_si_covariance(fast: bool = False) -> CheckResult:
    """Analytic SI covariance versus the sample covariance of simulated SI,
    entrywise within tolerance * max |entry|; fast simulates a fifth of the
    trials against a looser tolerance."""
    n_subcarriers, n_taps, n_tx, delta_f = 8, 2, 4, 1e-3
    n_trials, tolerance = (20_000, 0.06) if fast else (100_000, 0.03)
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
        worst_error=worst,
        tolerance=tolerance,
        detail=(
            f"N={n_subcarriers} L={n_taps} n_tx={n_tx} "
            f"delta_f={delta_f:g} trials={n_trials} (relative to max entry)"
        ),
    )


def check_qp_oracle(fast: bool = False) -> CheckResult:
    """Real-embedded per-subcarrier programs versus the complex normal
    equations and the explicit inverse on random Hermitian positive definite
    instances; also enforces that every program optimum is non-positive.
    fast solves a quarter of the instances."""
    sizes, tolerance = (4, 8, 16), 1e-8
    n_instances = 25 if fast else 100
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
            # np.max, unlike the builtin max, propagates a NaN, so it fails
            worst = float(np.max([
                worst,
                np.max(np.abs(real_weights - oracle)),
                np.max(np.abs(weights - oracle)),
                np.max(np.abs(real_weights - weights)),
            ]))
            top = float(np.max([real_values.max(), values.max()]))
            if not top <= 1e-12:
                return CheckResult(
                    name="qp-oracle",
                    worst_error=top,
                    tolerance=0.0,
                    detail="positive or NaN program optimum encountered",
                )
    return CheckResult(
        name="qp-oracle",
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
    order: str = "model",
) -> np.ndarray:
    """Sample-domain reference for the SI part of one symbol.

    Modulates with a cyclic prefix, runs a plain linear FIR per antenna over
    the prefixed stream, rotates by the oscillators, sums antennas and
    transforms.  tx_phases holds one trace per antenna, or one shared trace;
    rx_phases covers the N samples of the receive window.  order says where
    the transmit oscillators act:

    - "model": on the channel output, with the receive oscillator at the
      receive window, as synthesize_received applies them; the transmit
      traces cover the N window samples.
    - "exact": where they physically act, each on the CP-prefixed samples
      before they enter that antenna's FIR; the transmit traces cover the
      N + cp_length samples of the prefixed stream.  The model's order
      takes the transmit phase at the receive instant rather than at the
      instant each tap's sample left the antenna.

    Requires the channel to fit inside the prefix so the window sees only
    circular history, and every trace to have the length its order needs.
    """
    symbols = np.asarray(symbols, dtype=np.complex128)
    n = symbols.size
    n_tx, n_taps = taps.shape
    if n_taps > cp_length + 1:
        raise ValueError("channel must fit inside the cyclic prefix")
    if order not in ("model", "exact"):
        raise ValueError(f"order must be 'model' or 'exact', got {order!r}")
    prefixed = modulate(symbols, cp_length)
    covered = "symbol" if order == "model" else "prefixed symbol"
    tx_length = n if order == "model" else prefixed.size
    if len(tx_phases) not in (1, n_tx):
        raise ValueError(f"tx_phases must hold 1 or n_tx={n_tx} traces")
    if any(np.shape(phases) != (tx_length,) for phases in tx_phases):
        raise ValueError(f"transmit traces must cover the {covered}")
    if np.shape(rx_phases) != (n,):
        raise ValueError("the receive trace must cover the symbol")
    window = np.zeros(n, dtype=np.complex128)
    for antenna in range(n_tx):
        phases = tx_phases[antenna if len(tx_phases) > 1 else 0]
        if order == "model":
            convolved = np.convolve(prefixed, taps[antenna])
            body = convolved[cp_length : cp_length + n]
            window += np.exp(1j * (phases + rx_phases)) * body
        else:
            rotated = np.exp(1j * phases) * prefixed
            convolved = np.convolve(rotated, taps[antenna])
            window += convolved[cp_length : cp_length + n]
    if order == "exact":
        window = np.exp(1j * rx_phases) * window
    return np.fft.fft(window)


def check_model_equivalence() -> CheckResult:
    """Subcarrier-domain synthesis versus the sample-domain FIR reference."""
    n_subcarriers, n_taps, n_tx, delta_f = 32, 4, 3, 1e-3
    n_trials, tolerance = 100, 1e-8
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
        error = np.linalg.norm(si - reference) / np.linalg.norm(reference)
        worst = float(np.max([worst, error]))
    return CheckResult(
        name="model-equivalence",
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
    runs each check's fast profile.

    check_pn_covariance runs in a forked child while this process runs the
    SI, QP and model-equivalence checks; the results keep the serial order,
    the mixing oracle's two first.  An exception in the child is raised
    here with its type and message.  If this process's checks raise, the
    child is terminated; it is joined before run_all returns or raises.
    """
    pn_check = functools.partial(check_pn_covariance, fast=fast)
    context = multiprocessing.get_context("fork")
    reader, writer = context.Pipe(duplex=False)
    child = context.Process(target=_send_result, args=(writer, pn_check))
    child.start()
    # the child now holds the only write end, so recv sees its exit as EOF
    writer.close()
    try:
        others = [
            check_si_covariance(fast=fast),
            check_qp_oracle(fast=fast),
            check_model_equivalence(),
        ]
        return [*_received(reader, child), *others]
    except BaseException:
        child.terminate()
        raise
    finally:
        child.join()
        reader.close()

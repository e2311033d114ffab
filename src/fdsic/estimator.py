"""Weighted linear self-interference estimators.

The canceller forms an SI estimate as a linear map V of the received vector
and is judged by the expected residual power

    E_r(V) = N + tr{A} + tr{V C conj(V).T} - 2 Re tr{V B},

where A is the conditional SI covariance for the known transmit symbols,
B = A + I and C = B + soi*I.  Every power is relative to the receiver
noise, which has unit power on each subcarrier.  Its minimizer is
V = conj(B).T @ inv(C) = I - soi * inv(C).

The simulator reaches it through one spectral engine that works in the
sample domain.  A scales with the channel power s, A = s * A0, and with the
unitary DFT U = F / sqrt(N) the unit-power covariance is A0 = U A_t U^H,
where A_t = N * n_tx * (K o S) is the entrywise product of the oscillator
phase correlation kernel K and the symbols' sample covariance S
(si_covariance).  One Householder tridiagonalization A_t = Q T Q^H, with T
real tridiagonal, serves every SOI and channel power level.  The
eigenvalues lam0 of T are those of A0 and give both the optimal and the
least-squares expected residuals in closed form, and the SI estimate is
V y = y - soi * U Q inv(s*T + (1 + soi)*I) Q^H U^H y, where U and U^H
are one FFT and one inverse FFT.  The subcarrier-domain A0 is never formed
on this path; fdsic.validation builds it for the oracles.  The
tridiagonalization works in the caller's A_t: si_spectrum leaves the
packed reflectors and T in each Fortran-ordered trial matrix of its
argument instead of an N x N copy per trial, so a caller that needs A_t
afterwards passes a copy.

Every entry point takes the one layout the simulator sends: a batch of B
trials, each with its own symbols, and a block of P operating points that
share them.  Symbols are (B, N), covariances (B, N, N), the points' channel
and SOI powers two (P,) vectors and the received vectors (B, N, P); any
other layout raises ValueError.  Two reflector applications transform
every column of a trial's block at once, and one real tridiagonal solve
(dptsv) serves all B*P points, their shifted tridiagonals stacked along
one diagonal with zero coupling between them.  Elementwise work and FFTs
run on the whole stack; the BLAS and LAPACK calls (zgemm, zhemm, zhetrd,
dsterf, zunmqr) run once per trial on its operands alone, so a trial's
results do not depend on the batch around it.  A failure raises with a
message that says what failed, not where: a point's factorization depends
only on its own tridiagonal and a trial's on its own operands, so the
simulator finds the failing trial and point by running them alone.

The conventional least-squares channel estimator is included as the
baseline, on each column of each trial's block.  The subcarrier-domain
covariance and the dense Cholesky and real-embedded solves that the engine
is checked against live in fdsic.validation.

Every BLAS and LAPACK call here goes to scipy's compiled wrapper modules
scipy.linalg._fblas and scipy.linalg._flapack, whose routines are the very
objects scipy.linalg.blas and scipy.linalg.lapack export.  They are loaded
from their files under those names, without the scipy.linalg package:
under scipy 1.17 and numpy 2.4 the package's import also pulls in
numpy.f2py, numpy.testing and charset_normalizer, which cost a sweep about
0.25 s of its 0.5 s start-up and 17 MB of its 64 MB peak memory on a
2-vCPU machine.  A later import of scipy.linalg reuses the two modules
(without binding them as its attributes).  fdsic.validation calls the same
two modules for its oracles' products and Cholesky solves, so no fdsic
command imports the package.

The numpy and scipy wheels each bundle their own multithreaded OpenBLAS,
and alternating between the two thread pools on every trial costs more
than the small matrix products themselves.  Those products are 128 x 128
or smaller, and none of them (zhetrd, dsterf, zgemm, zhemm, zunmqr) runs
faster on a second thread, which only spins on another core.  So sweeps
and the validation suites run inside one_blas_thread, which sets scipy's
OpenBLAS to one thread and restores the previous count on exit; where
scipy links some other BLAS, they run unchanged.
"""

import contextlib
import ctypes
import functools
import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass, field

import numpy as np
import scipy


def _scipy_linalg_extension(name: str):
    """scipy.linalg's compiled module `name`, loaded under its own name
    without running the scipy.linalg package; the package import where no
    file of it is found, as under an editable scipy."""
    fullname = f"scipy.linalg.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.machinery.PathFinder.find_spec(
        fullname, [os.path.join(path, "linalg") for path in scipy.__path__]
    )
    if spec is None:
        return importlib.import_module(fullname)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


blas = _scipy_linalg_extension("_fblas")
lapack = _scipy_linalg_extension("_flapack")


@functools.cache
def _openblas_thread_functions():
    """The (get, set) thread-count functions of the OpenBLAS that
    scipy.linalg calls, or None where none is found.

    The library is found by its exported symbol, not by its file name:
    dlsym on the handle of scipy's LAPACK wrapper module resolves through
    that module's own dependencies, so it reaches exactly the BLAS that the
    wrappers call.
    """
    try:
        library = ctypes.CDLL(lapack.__file__)
    except OSError:
        return None
    for prefix in ("scipy_openblas", "openblas"):
        try:
            get_threads = getattr(library, f"{prefix}_get_num_threads")
            set_threads = getattr(library, f"{prefix}_set_num_threads")
        except AttributeError:
            continue
        get_threads.argtypes = []
        get_threads.restype = ctypes.c_int
        set_threads.argtypes = [ctypes.c_int]
        set_threads.restype = None
        return get_threads, set_threads
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with scipy's OpenBLAS on one thread.

    Yields the thread count read back from the library, or None where no
    OpenBLAS is found, in which case the body runs unchanged.  The previous
    count is restored on exit, also when the body raises.  Also usable as a
    decorator.  The count is process-wide, so bodies that overlap in
    several threads can restore it out of order.
    """
    functions = _openblas_thread_functions()
    if functions is None:
        yield None
        return
    get_threads, set_threads = functions
    previous = get_threads()
    set_threads(1)
    try:
        yield get_threads()
    finally:
        set_threads(previous)


class SingularMatrixError(np.linalg.LinAlgError):
    """A covariance that must be positive definite failed to factor, or
    its tridiagonal eigenvalue iteration did not converge."""


def _shifted_waveforms(symbols: np.ndarray, n_taps: int) -> np.ndarray:
    """The circular symbol waveform w = ifft(symbols) delayed by each tap,
    shifted[b, l, n] = w((n - l) mod N), as a C-ordered (B, L, N) array.

    Row l is the time-domain image of column l of the LS basis
    diag(symbols) F_L: U^H diag(x) F_L = sqrt(N) [w(n - l)] with the
    unitary DFT U = F / sqrt(N).
    """
    n = symbols.shape[-1]
    waveform = np.fft.ifft(symbols)
    delays = (np.arange(n)[None, :] - np.arange(n_taps)[:, None]) % n
    # the gather puts the trial axis innermost; reductions over a trial's
    # rows must not see the batch around it
    return np.ascontiguousarray(waveform[..., delays])


@dataclass(frozen=True)
class EstimatorStatistics:
    """What the canceller knows ahead of one symbol of each of B trials that
    shapes the SI covariance, apart from the oscillator statistics: the
    (B, N) transmit symbols, their channel power profile and the number of
    transmit antennas.

    Derived on construction: the circular symbol waveform w = ifft(symbols)
    delayed by each of the L = pdp.size taps ((B, L, N) shifted_waveforms),
    and the (B, N, N) stack of Fortran-ordered sample covariances
    S(n1, n2) = sum_l pdp[l] w(n1 - l) conj(w(n2 - l)).  Neither depends on
    the oscillators, so one instance serves every phase-noise bandwidth.
    """

    symbols: np.ndarray
    pdp: np.ndarray
    n_tx: int
    shifted_waveforms: np.ndarray = field(init=False, repr=False, compare=False)
    sample_covariance: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        symbols = np.asarray(self.symbols, dtype=np.complex128)
        pdp = np.asarray(self.pdp, dtype=np.float64)
        object.__setattr__(self, "symbols", symbols)
        object.__setattr__(self, "pdp", pdp)
        if symbols.ndim != 2:
            raise ValueError(f"symbols must be (B, N), got {symbols.shape}")
        if not np.all(np.isfinite(symbols) & (symbols != 0.0)):
            raise ValueError("symbols must be finite with no zero entries")
        n = symbols.shape[-1]
        if pdp.ndim != 1 or pdp.size == 0 or pdp.size > n:
            raise ValueError("pdp must be a vector no longer than symbols")
        if not np.all(np.isfinite(pdp) & (pdp >= 0.0)):
            raise ValueError("pdp entries must be finite and non-negative")
        if self.n_tx < 1:
            raise ValueError("n_tx must be positive")
        shifted = _shifted_waveforms(symbols, pdp.size)
        weighted = pdp[:, None] * shifted
        # each trial's matrix Fortran-ordered, as the BLAS and LAPACK calls
        # of si_spectrum read the kernel product built from it
        sample_covariance = np.empty(
            symbols.shape + (n,), dtype=np.complex128
        ).swapaxes(-1, -2)
        for trial in range(symbols.shape[0]):
            # sum_l pdp[l] shifted[l, n] conj(shifted[l, m]), the product
            # (pdp * shifted)^T conj(shifted) of the Fortran-ordered N x L
            # views of both
            sample_covariance[trial] = blas.zgemm(
                1.0, weighted[trial].T, shifted[trial].T, trans_b=2
            )
        object.__setattr__(self, "shifted_waveforms", shifted)
        object.__setattr__(self, "sample_covariance", sample_covariance)


def si_covariance(stats: EstimatorStatistics, kernel: np.ndarray) -> np.ndarray:
    """Conditional covariance of the received SI given the symbols, in the
    sample domain, for the (N, N) phase correlation kernel K of one
    transmit/receive oscillator pair (fdsic.impairments.pn_covariance_table).

    Returns A_t = N * n_tx * (K o S): the symbols' sample covariance S
    (stats.sample_covariance) weighted entrywise by K.  With the unitary DFT
    U = F / sqrt(N), the subcarrier-domain covariance of the received SI
    vector is A0 = U A_t U^H, so A_t has A0's eigenvalues and trace, and the
    spectral engine works on A_t without transforming it.  The product costs
    O(N^2) per oscillator quality on top of the O(L*N^2) sample covariance.
    Channels are independent across antennas, so the result scales linearly
    with n_tx in both oscillator modes.  The result is a (B, N, N) stack,
    one covariance per trial, whose lower triangles define the Hermitian
    matrices the engine reads.  Each trial's matrix is Fortran-ordered,
    like the sample covariance, so zhemm and zhetrd read it without a
    transposing copy.
    """
    n = stats.symbols.shape[-1]
    kernel = np.asarray(kernel)
    if kernel.shape != (n, n):
        raise ValueError(f"kernel must be (N, N) = {(n, n)}, got {kernel.shape}")
    # K depends on |n1 - n2| only, so K.T is K in the sample covariance's
    # Fortran order, and the product keeps that order; scaled in place, so
    # the stack is the only (B, N, N) array made
    product = np.multiply(kernel.T, stats.sample_covariance)
    product *= n * stats.n_tx
    return product


def _constant_modulus_power(symbols: np.ndarray) -> np.ndarray:
    """The common power p = |x_n|^2 of constant-modulus symbols, one per
    trial of a (B, N) batch.

    For such symbols the LS Gram matrix of the basis diag(x) F_L is N*p*I,
    which is what makes the matched filter exact least squares.
    """
    power = np.abs(symbols) ** 2
    low, high = power.min(axis=-1), power.max(axis=-1)
    if np.any(low == 0.0):
        raise SingularMatrixError("LS normal equations are singular")
    mean = power.sum(axis=-1) / power.shape[-1]
    if np.any(np.maximum(high - mean, mean - low) > 1e-12 * mean):
        raise ValueError("LS needs constant-modulus symbols")
    return mean


@dataclass(frozen=True)
class SiSpectrum:
    """Tridiagonal form A_t = Q T Q^H of the sample-domain SI covariance at
    unit channel power, the eigenvalues of T (and of A_t and A0) in
    ascending order, and the SI power per unit channel power that the
    least-squares reconstruction leaves behind, tr{(I - P) A0}, with P the
    projector onto the span of the known symbols.

    T has the real diagonal `diagonal` and the N - 1 entries of its
    off-diagonal `off_diagonal`.  Q = diag(1, Q1) with Q1 the product of the
    N - 1 Householder reflectors that LAPACK's zhetrd packs below the
    subdiagonal, kept in the QR layout zunmqr applies (`reflectors`,
    `tau`).  The subcarrier-domain covariance is A0 = (U Q) T (U Q)^H with
    the unitary DFT U.  At N = 1, T is a single entry, Q = I and there are
    no reflectors.  Every array carries the batch's leading trial axis, and
    ls_leakage is a length-B vector.
    """

    eigenvalues: np.ndarray
    diagonal: np.ndarray
    off_diagonal: np.ndarray
    reflectors: np.ndarray
    tau: np.ndarray
    ls_leakage: np.ndarray
    n_taps: int


def si_spectrum(si_cov: np.ndarray, stats: EstimatorStatistics) -> SiSpectrum:
    """Tridiagonalize a unit-channel-power sample-domain SI covariance A_t
    (si_covariance of stats) once, for every operating point that shares
    its symbols, oscillator statistics and delay profile.

    zhetrd reads only the lower triangle of A_t.  The LS projector
    P = Bb (Bb^H Bb)^-1 Bb^H onto the columns b_l of the N x L basis
    Bb = diag(symbols) F_L, with L = stats.pdp.size taps, has Gram N*p*I for
    constant-modulus symbols of power p, and U^H b_l = sqrt(N) w_l with
    w_l(n) = w(n - l) the delayed symbol waveform that stats holds, so
    tr{P A0} = Re sum_l w_l^H A_t w_l / p without forming P or A0.  One
    zhemm on the same lower triangle forms A_t w_l.  si_cov is the
    (B, N, N) stack for the B trials of stats, and each trial gets its own
    zhemm, zhetrd and dsterf.

    si_cov is workspace: zhetrd overwrites each Fortran-ordered complex
    trial matrix with its packed reflectors and T, as si_covariance
    returns them, so pass a copy if you need the matrix afterwards.  A
    trial matrix of any other layout or dtype, or a read-only si_cov, is
    copied and left intact; the spectrum is the same bit for bit either
    way.
    """
    si_cov = np.asarray(si_cov, dtype=np.complex128)
    if not si_cov.flags.writeable:
        # f2py's overwrite_a writes into a read-only array all the same
        si_cov = si_cov.copy(order="K")
    symbols = stats.symbols
    n = symbols.shape[-1]
    if si_cov.shape != symbols.shape + (n,):
        raise ValueError(f"si_cov must be (B, N, N) = {symbols.shape + (n,)}")
    b = symbols.shape[0]
    power = _constant_modulus_power(symbols)
    lwork = int(lapack.zhetrd_lwork(n, lower=1)[0].real)
    shifted = stats.shifted_waveforms
    # A_t w_l as rows, C-ordered like shifted, so that the capture's
    # reduction runs in the same order whatever the batch around a trial
    product = np.empty(shifted.shape, dtype=np.complex128)
    diagonal = np.empty((b, n))
    eigenvalues = np.empty((b, n))
    off_diagonal = np.empty((b, n - 1))
    tau = np.empty((b, n - 1), dtype=np.complex128)
    # each trial's reflectors Fortran-ordered, as zunmqr takes them
    reflectors = np.empty((b, n - 1, n - 1), dtype=np.complex128).swapaxes(1, 2)
    # zhetrd overwrites A_t, so everything else that reads it comes first
    trace = np.trace(si_cov, axis1=-2, axis2=-1).real
    for trial in range(b):
        # shifted[trial].T is the Fortran-ordered N x L operand
        product[trial] = blas.zhemm(
            1.0, si_cov[trial], shifted[trial].T, lower=1
        ).T
        # in place on a Fortran-ordered trial matrix; f2py copies any other
        packed, diagonal[trial], off, tau[trial], _ = lapack.zhetrd(
            si_cov[trial], lower=1, lwork=lwork, overwrite_a=1
        )
        off_diagonal[trial] = off[: n - 1]
        reflectors[trial] = packed[1:, :-1]
        del packed
        # scipy's tridiagonal wrappers reject an empty off-diagonal at N = 1
        eigenvalues[trial], info = lapack.dsterf(
            diagonal[trial], off_diagonal[trial] if n > 1 else np.zeros(1)
        )
        if info != 0:
            raise SingularMatrixError(f"dsterf did not converge (info={info})")
    captured = (shifted.conj() * product).real.sum(axis=(-2, -1)) / power
    leakage = trace - captured
    return SiSpectrum(
        eigenvalues=eigenvalues,
        diagonal=diagonal,
        off_diagonal=off_diagonal,
        reflectors=reflectors,
        tau=tau,
        ls_leakage=leakage,
        n_taps=stats.pdp.size,
    )


def _apply_q(
    spectrum: SiSpectrum, block: np.ndarray, trans: str
) -> np.ndarray:
    """Q @ block for trans "N", Q^H @ block for trans "C", on every column
    of each trial's N x P block of a (B, N, P) stack at once, with that
    trial's own Q; Q leaves the first row alone."""
    out = block.copy()
    if spectrum.tau.shape[-1]:
        for trial in range(block.shape[0]):
            tail = block[trial, 1:]
            out[trial, 1:], _, _ = lapack.zunmqr(
                "L", trans, spectrum.reflectors[trial], spectrum.tau[trial],
                tail, tail.shape[1],
            )
    return out


@dataclass(frozen=True)
class SpectralWeights:
    """Optimal weights V = I - soi * inv(C) at each of P operating points
    that share the spectrum, in each of its B trials.

    Each point's C is held as the tridiagonal C' = scale*T + (1 + soi)*I
    of C = (U Q) C' (U Q)^H, with U the unitary DFT that takes the sample
    domain of the spectrum to the subcarrier domain of the received
    vectors.  The B*P tridiagonals are stacked along one diagonal of length
    B*P*N, trial after trial and each trial's points in order, with zero
    off-diagonal entries between them, so each factors as it would alone.
    soi_power is the (P,) vector of the points, and the expected residual
    power is (B, P).
    """

    spectrum: SiSpectrum
    received_diagonal: np.ndarray
    received_off_diagonal: np.ndarray
    soi_power: np.ndarray
    residual_power: np.ndarray

    def estimate(self, received: np.ndarray) -> np.ndarray:
        """The SI estimate V @ received, in O(N^2) per point: one inverse
        FFT into the sample domain, the reflectors and the tridiagonal
        solve there, and one FFT back, along the subcarrier axis.

        received is the (B, N, P) stack whose column p of trial b's block
        is the received vector at point p.  A received covariance that
        fails to factor at any point of any trial raises
        SingularMatrixError.
        """
        received = np.asarray(received, dtype=np.complex128)
        shape = self.spectrum.eigenvalues.shape + self.soi_power.shape
        if received.shape != shape:
            raise ValueError(f"received must be (B, N, P) = {shape}")
        # U^H received = sqrt(N) ifft(received) and U z = fft(z) / sqrt(N),
        # so inv(C) received = fft(Q inv(C') Q^H ifft(received))
        rotated = _apply_q(self.spectrum, np.fft.ifft(received, axis=1), "C")
        # trial after trial and point after point, as the stacked
        # tridiagonals are; C' is real, so it solves the real and imaginary
        # parts together
        stacked = rotated.swapaxes(1, 2)
        flat = stacked.ravel()
        _, _, solved, info = lapack.dptsv(
            self.received_diagonal,
            self.received_off_diagonal,
            np.column_stack([flat.real, flat.imag]),
        )
        if info > 0:
            raise SingularMatrixError(
                "received covariance is not positive definite"
            )
        back = (solved[:, 0] + 1j * solved[:, 1]).reshape(stacked.shape)
        back = _apply_q(self.spectrum, back.swapaxes(1, 2), "N")
        return received - self.soi_power * np.fft.fft(back, axis=1)


def _points(
    scale: np.ndarray, soi_power: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The finite, non-negative channel and SOI powers of P operating
    points, as floats."""
    scale = np.asarray(scale, dtype=np.float64)
    soi_power = np.asarray(soi_power, dtype=np.float64)
    if scale.ndim != 1 or soi_power.shape != scale.shape:
        raise ValueError("scale and soi_power must be two (P,) vectors")
    for name, power in (("scale", scale), ("soi_power", soi_power)):
        if not np.all(np.isfinite(power) & (power >= 0.0)):
            raise ValueError(f"{name} must be finite and non-negative")
    return scale, soi_power


def spectral_weights(
    spectrum: SiSpectrum, scale: np.ndarray, soi_power: np.ndarray
) -> SpectralWeights:
    """Optimal weights for the SI covariance scale[p] * A0 with SOI power
    soi_power[p] at each of P points, in each trial of the spectrum, under
    unit-power noise.

    Each eigenvalue lam of the scaled covariance gets the gain
    (lam + 1) / (lam + 1 + soi) and adds the non-negative term
    (lam + 1) * soi / (lam + 1 + soi) to the expected residual power.
    Their sum equals N + tr{A} + sum_k f_k of the Cholesky route without
    the cancellation between its large terms.  The estimate itself never
    forms the eigenvectors: it solves with the shifted tridiagonal
    scale*T + (1 + soi)*I.  A received covariance that is not positive
    definite at any point of any trial raises SingularMatrixError.
    """
    scale, soi_power = _points(scale, soi_power)
    # (trial, point, eigenvalue) axes
    si_noise = scale[:, None] * spectrum.eigenvalues[:, None, :] + 1.0
    received = si_noise + soi_power[:, None]
    if not received.min() > 0.0:
        raise SingularMatrixError(
            "received covariance is not positive definite"
        )
    diagonal = scale[:, None] * spectrum.diagonal[:, None, :] + (
        1.0 + soi_power[:, None]
    )
    # each point's off-diagonal, then a zero that decouples the next point
    coupling = np.zeros(diagonal.shape)
    coupling[..., :-1] = scale[:, None] * spectrum.off_diagonal[:, None, :]
    coupling = coupling.ravel()
    return SpectralWeights(
        spectrum=spectrum,
        received_diagonal=diagonal.ravel(),
        # scipy's dptsv wants B*P*N - 1 entries, and a non-empty vector at 1
        received_off_diagonal=coupling[: max(coupling.size - 1, 1)],
        soi_power=soi_power,
        residual_power=(si_noise * soi_power[:, None] / received).sum(axis=-1),
    )


def ls_residual_power(
    spectrum: SiSpectrum, scale: np.ndarray, soi_power: np.ndarray
) -> np.ndarray:
    """Expected residual power of least squares plus reconstruction at each
    of P points, as a (B, P) array for the B trials of the spectrum, under
    unit-power noise.

    The LS weights are the Hermitian idempotent projector P of rank L, so
    the residual functional collapses to
    (N - L) + L*soi + scale * tr{(I - P) A0}.
    """
    scale, soi_power = _points(scale, soi_power)
    n = spectrum.eigenvalues.shape[-1]
    value = (
        (n - spectrum.n_taps)
        + spectrum.n_taps * soi_power
        + scale * spectrum.ls_leakage[:, None]
    )
    return np.maximum(value, 0.0)


def ls_estimate(
    received: np.ndarray, symbols: np.ndarray, n_taps: int
) -> np.ndarray:
    """Least-squares (B, n_taps, P) tap estimates from the (B, N, P) stack
    of received vectors of (B, N) symbols.

    Solves min_h || received - diag(symbols) F h ||^2 per column.  For
    constant-modulus symbols the normal equations are
    N*p*I h = F^H diag(conj(symbols)) received, so the estimate is the
    matched filter ifft(received / symbols)[:n_taps].  Zero symbols raise
    SingularMatrixError; symbols of unequal modulus raise ValueError.
    """
    received = np.asarray(received, dtype=np.complex128)
    symbols = np.asarray(symbols, dtype=np.complex128)
    if received.ndim != 3 or received.shape[:2] != symbols.shape:
        raise ValueError(
            f"received must be (B, N, P) for (B, N) symbols {symbols.shape}"
        )
    if not 1 <= n_taps <= symbols.shape[-1]:
        raise ValueError(f"n_taps={n_taps} out of range")
    _constant_modulus_power(symbols)
    return np.fft.ifft(received / symbols[:, :, None], axis=1)[:, :n_taps]

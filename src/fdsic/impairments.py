"""Impairment models: Wiener oscillator phase noise and its phase
correlation kernel, the self-interference multipath channel, white Gaussian
draws, and synthesis of the SI part of one received OFDM symbol.

Signal model for one symbol with N subcarriers: every transmit chain s leaks
through an L-tap channel h_s, and the transmit plus receive oscillator pair
contributes a combined multiplicative rotation exp(j*phi_s(n)) at the receive
sample instants,

    y(n) = sum_s exp(j * phi_s(n)) * (h_s (*) x)(n) + soi(n) + noise(n),

with (*) the circular convolution realized by the cyclic prefix.  In the
subcarrier domain the rotation becomes a circulant mixing with coefficients
delta_m = (1/N) sum_n exp(j*phi(n)) exp(+2j*pi*m*n/N): delta_0 is the common
phase error, the rest is inter-carrier interference.  The simulator never
forms them: it rotates in the sample domain, and the checks in
fdsic.validation build the coefficients (ici_coefficients) and their
covariance.
"""

import math

import numpy as np


def phase_increment_variance(delta_f: float, n_subcarriers: int) -> float:
    """Per-sample variance of one oscillator's Wiener phase increments.

    delta_f is the phase-noise bandwidth relative to the subcarrier spacing,
    so one oscillator accumulates variance 4*pi*delta_f over a symbol body of
    n_subcarriers samples.  A delta_f that is negative or not finite, or
    whose variance overflows, raises ValueError.
    """
    if not (math.isfinite(delta_f) and delta_f >= 0.0):
        raise ValueError(
            f"delta_f must be finite and non-negative, got {delta_f!r}"
        )
    if n_subcarriers < 1:
        raise ValueError("n_subcarriers must be positive")
    variance = 4.0 * np.pi * delta_f / n_subcarriers
    if not math.isfinite(variance):
        raise ValueError(f"delta_f={delta_f!r} overflows 4*pi*delta_f/N")
    return variance


def gen_wiener_phase(n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """Sampled phase trajectory of one oscillator at unit scale: a random
    walk with phases[0] = 0, then independent standard Gaussian increments.
    A walk whose increments have variance v is sqrt(v) times it."""
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    walk = np.empty(n_samples)
    walk[0] = 0.0
    rng.standard_normal(out=walk[1:])
    np.cumsum(walk[1:], out=walk[1:])
    return walk


def pn_covariance_table(delta_f: float, n_subcarriers: int) -> np.ndarray:
    """Phase correlation kernel K[n1, n2] = E[exp(j*(phi(n1) - phi(n2)))]
    of one independent Wiener transmit/receive oscillator pair, (N, N).

    The pair's phase difference is Gaussian with variance
    2 * sigma2 * |n1 - n2|, sigma2 being one oscillator's increment variance,
    so K = exp(-sigma2 * |n1 - n2|).  Its two-sided transform is the
    subcarrier mixing covariance, which fdsic.validation.mixing_covariance
    builds for the checks.  One pair serves both oscillator modes: sharing
    the transmit oscillator changes the draws, not the SI covariance, since
    the channels are independent and zero-mean.  A pair variance that
    overflows raises ValueError.
    """
    sigma2 = phase_increment_variance(delta_f, n_subcarriers)
    combined = 2.0 * sigma2
    if not math.isfinite(combined):
        raise ValueError(f"delta_f={delta_f!r} overflows 8*pi*delta_f/N")
    lags = np.arange(n_subcarriers)
    # a finite pair variance times a long lag may overflow; exp(-inf) = 0
    # is then the right limit, full decorrelation, so the overflow is
    # silent
    with np.errstate(over="ignore"):
        return np.exp(-combined * np.abs(lags[:, None] - lags[None, :]) / 2.0)


def gen_si_channel(
    n_tx: int, pdp: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Independent circular complex Gaussian taps, shape (n_tx, pdp.size);
    tap l has variance pdp[l]."""
    pdp = np.asarray(pdp, dtype=np.float64)
    if n_tx < 1:
        raise ValueError("n_tx must be positive")
    if pdp.ndim != 1 or pdp.size == 0:
        raise ValueError(f"pdp must be a non-empty vector, got shape {pdp.shape}")
    if np.any(pdp < 0.0):
        raise ValueError("pdp entries must be non-negative")
    # built in place: the same bits as sqrt(pdp / 2) * (re + 1j * im), with
    # one real draw as the only temporary
    taps = np.empty((n_tx, pdp.size), dtype=np.complex128)
    taps.real = rng.standard_normal((n_tx, pdp.size))
    taps.imag = rng.standard_normal((n_tx, pdp.size))
    taps *= np.sqrt(pdp / 2.0)
    return taps


def gen_awgn(n: int, rng: np.random.Generator) -> np.ndarray:
    """Circular complex Gaussian vector of unit per-entry power."""
    if n < 1:
        raise ValueError("n must be positive")
    re = rng.standard_normal(n)
    im = rng.standard_normal(n)
    return np.sqrt(0.5) * (re + 1j * im)


def channel_outputs(freq_symbols: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Per-antenna circular channel outputs (h_s (*) x)(n) of one symbol at
    the receive sample instants, before any oscillator rotation: (B, N)
    symbols of B trials with their (B, n_tx, L) taps give (B, n_tx, N).

    The outputs do not depend on the oscillators, so one set serves every
    phase-noise bandwidth of a trial (see synthesize_received).  They are
    linear in the taps, so scaling them by c scales the result by c.
    """
    symbols = np.asarray(freq_symbols, dtype=np.complex128)
    taps = np.asarray(taps)
    if (
        symbols.ndim != 2
        or symbols.shape[1] == 0
        or taps.ndim != 3
        or taps.shape[0] != symbols.shape[0]
    ):
        raise ValueError(
            f"symbols must be non-empty (B, N) and taps (B, n_tx, L), got "
            f"{symbols.shape} and {taps.shape}"
        )
    n = symbols.shape[1]
    if taps.shape[2] > n:
        raise ValueError("channel longer than the symbol body")
    response = np.fft.fft(taps, n=n, axis=-1)
    return np.fft.ifft(symbols[:, None, :] * response, axis=-1)


def unit_rotation(phases: np.ndarray) -> np.ndarray:
    """exp(j*phases), written as cos and sin into one complex array."""
    rotation = np.empty(phases.shape, dtype=np.complex128)
    np.cos(phases, out=rotation.real)
    np.sin(phases, out=rotation.imag)
    return rotation


def synthesize_received(
    outputs: np.ndarray, tx_phases: np.ndarray, rx_phases: np.ndarray
) -> np.ndarray:
    """Noiseless SI part of one received symbol of each of B trials, in the
    subcarrier domain, shape (B, N).

    outputs are the (B, n_tx, N) channel outputs from channel_outputs.
    tx_phases is (B, n_tx, N), one trace per transmit antenna, or
    (B, 1, N), one trace shared by all antennas (shared-oscillator mode);
    rx_phases is (B, N).
    """
    outputs = np.asarray(outputs)
    tx_phases = np.asarray(tx_phases, dtype=np.float64)
    rx_phases = np.asarray(rx_phases, dtype=np.float64)
    if outputs.ndim != 3:
        raise ValueError(f"outputs must be (B, n_tx, N), got {outputs.shape}")
    b, n_tx, n = outputs.shape
    tx_shapes = ((b, 1, n), (b, n_tx, n))
    if tx_phases.shape not in tx_shapes or rx_phases.shape != (b, n):
        raise ValueError(
            f"tx_phases must be (B, 1 or n_tx, N) = ({b}, 1 or {n_tx}, {n}) "
            f"and rx_phases (B, N) = ({b}, {n}), got {tx_phases.shape} and "
            f"{rx_phases.shape}"
        )

    # The oscillator rotation at the receive instants; broadcasting covers
    # the shared-trace case.
    rotation = unit_rotation(tx_phases + rx_phases[:, None, :])
    return np.fft.fft((rotation * outputs).sum(axis=1))

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

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


def phase_increment_variance(delta_f: float, n_subcarriers: int) -> float:
    """Per-sample variance of one oscillator's Wiener phase increments.

    delta_f is the phase-noise bandwidth relative to the subcarrier spacing,
    so one oscillator accumulates variance 4*pi*delta_f over a symbol body of
    n_subcarriers samples.
    """
    if delta_f < 0.0:
        raise ValueError("delta_f must be non-negative")
    if n_subcarriers < 1:
        raise ValueError("n_subcarriers must be positive")
    return 4.0 * np.pi * delta_f / n_subcarriers


def gen_wiener_phase(
    n_samples: int, increment_variance: float, rng: np.random.Generator
) -> np.ndarray:
    """Sampled phase trajectory of one oscillator: a random walk with
    phases[0] = 0, then independent Gaussian increments of the given
    variance."""
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    if increment_variance < 0.0:
        raise ValueError("increment_variance must be non-negative")
    steps = np.sqrt(increment_variance) * rng.standard_normal(n_samples - 1)
    return np.concatenate(([0.0], np.cumsum(steps)))


@dataclass(frozen=True)
class PnCovarianceTable:
    """Second-order statistics of the mixing coefficients of one oscillator
    pair (transmit plus receive).

    kernel holds the sample-domain phase correlation
    E[exp(j*(phi(n1) - phi(n2)))] = exp(-increment_variance * |n1 - n2|):
    the summed pair's increments have variance 2 * increment_variance.
    Its two-sided transform is the subcarrier mixing covariance
    E[delta_a * conj(delta_b)], which fdsic.validation.mixing_covariance
    builds for the checks; the SI covariance needs only the kernel.
    """

    kernel: np.ndarray = field(repr=False)
    increment_variance: float


def pn_covariance_table(delta_f: float, n_subcarriers: int) -> PnCovarianceTable:
    """Closed-form phase statistics of independent Wiener oscillator pairs.

    The phase difference phi(n1) - phi(n2) of the combined transmit+receive
    process is Gaussian with variance 2 * sigma2 * |n1 - n2|, sigma2 being
    one oscillator's increment variance, so its characteristic function is
    the decaying exponential kernel.  The table describes a single
    transmit/receive pair, so it serves both oscillator modes: whether the
    antennas share one transmit oscillator changes only the draws, not the
    SI covariance, because the channels are independent and zero-mean.
    """
    sigma2 = phase_increment_variance(delta_f, n_subcarriers)
    combined = 2.0 * sigma2
    lags = np.arange(n_subcarriers)
    # a finite pair variance times a long lag may overflow; exp(-inf) = 0
    # is then the right limit, full decorrelation, so the overflow is
    # silent
    with np.errstate(over="ignore"):
        kernel = np.exp(-combined * np.abs(lags[:, None] - lags[None, :]) / 2.0)
    return PnCovarianceTable(kernel=kernel, increment_variance=sigma2)


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
    scale = np.sqrt(pdp / 2.0)
    return scale[None, :] * (
        rng.standard_normal((n_tx, pdp.size))
        + 1j * rng.standard_normal((n_tx, pdp.size))
    )


def gen_awgn(n: int, rng: np.random.Generator) -> np.ndarray:
    """Circular complex Gaussian vector of unit per-entry power."""
    if n < 1:
        raise ValueError("n must be positive")
    re = rng.standard_normal(n)
    im = rng.standard_normal(n)
    return np.sqrt(0.5) * (re + 1j * im)


def channel_outputs(freq_symbols: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Per-antenna circular channel outputs (h_s (*) x)(n) of one symbol at
    the receive sample instants, shape (n_tx, N), before any oscillator
    rotation.

    taps has one row of channel taps per transmit antenna.  The outputs do
    not depend on the oscillators, so one set serves every phase-noise
    bandwidth of a trial (see synthesize_received).  They are linear in the
    taps, so scaling them by c scales the result by c.  (B, N) symbols with
    (B, n_tx, L) taps give the (B, n_tx, N) outputs of B trials.
    """
    symbols = np.asarray(freq_symbols, dtype=np.complex128)
    n = symbols.shape[-1]
    n_taps = np.shape(taps)[-1]
    if n == 0:
        raise ValueError("freq_symbols must be non-empty")
    if n_taps > n:
        raise ValueError("channel longer than the symbol body")
    response = np.fft.fft(taps, n=n, axis=-1)
    return np.fft.ifft(symbols[..., None, :] * response, axis=-1)


def unit_rotation(phases: np.ndarray) -> np.ndarray:
    """exp(j*phases), written as cos and sin into one complex array."""
    rotation = np.empty(phases.shape, dtype=np.complex128)
    np.cos(phases, out=rotation.real)
    np.sin(phases, out=rotation.imag)
    return rotation


def synthesize_received(
    outputs: np.ndarray,
    tx_phases: Sequence[np.ndarray],
    rx_phases: np.ndarray,
) -> np.ndarray:
    """Noiseless SI part of one received symbol, in the subcarrier domain.

    outputs are the per-antenna channel outputs from channel_outputs, one
    row per transmit antenna.  tx_phases holds one phase trace per transmit
    antenna, or a single trace that is shared by all antennas
    (shared-oscillator mode).  Trace lengths must equal the symbol body
    length.  For B trials, outputs is (B, n_tx, N), tx_phases (B, 1, N) or
    (B, n_tx, N) and rx_phases (B, N), and the result is (B, N).
    """
    outputs = np.asarray(outputs)
    tx_phases = np.asarray(tx_phases, dtype=np.float64)
    rx_phases = np.asarray(rx_phases, dtype=np.float64)
    *batch, n_tx, n = outputs.shape
    if tx_phases.ndim != outputs.ndim or tx_phases.shape[-2] not in (1, n_tx):
        raise ValueError(
            f"need 1 or {n_tx} transmit traces, got shape {tx_phases.shape}"
        )
    if (
        tx_phases.shape[:-2] != tuple(batch)
        or tx_phases.shape[-1] != n
        or rx_phases.shape != (*batch, n)
    ):
        raise ValueError("phase trace length must equal the symbol body")

    # The oscillator rotation at the receive instants; broadcasting covers
    # the shared-trace case.
    rotation = unit_rotation(tx_phases + rx_phases[..., None, :])
    return np.fft.fft((rotation * outputs).sum(axis=-2))

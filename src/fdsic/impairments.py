"""Impairment models: Wiener oscillator phase noise, its subcarrier-domain
mixing statistics, the self-interference multipath channel, and synthesis of
one received OFDM symbol.

Signal model for one symbol with N subcarriers: every transmit chain s leaks
through an L-tap channel h_s, and the transmit plus receive oscillator pair
contributes a combined multiplicative rotation exp(j*phi_s(n)) at the receive
sample instants,

    y(n) = sum_s exp(j * phi_s(n)) * (h_s (*) x)(n) + soi(n) + noise(n),

with (*) the circular convolution realized by the cyclic prefix.  In the
subcarrier domain the rotation becomes a circulant mixing with coefficients
delta_m = (1/N) sum_n exp(j*phi(n)) exp(+2j*pi*m*n/N): delta_0 is the common
phase error, the rest is inter-carrier interference.
"""

from dataclasses import dataclass, field

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


def ici_coefficients(phases: np.ndarray) -> np.ndarray:
    """Subcarrier mixing coefficients of a phase trace over one symbol body.

    Returns delta with delta[m] = (1/N) sum_n exp(j*phases[n] + 2j*pi*m*n/N),
    indexed circularly.  A constant trace gives a single spike at m = 0 and
    sum_m |delta[m]|^2 = 1 holds for every trace.
    """
    phases = np.asarray(phases, dtype=np.float64)
    if phases.ndim != 1 or phases.size == 0:
        raise ValueError("phases must be a non-empty vector")
    return np.fft.ifft(np.exp(1j * phases))


@dataclass(frozen=True)
class PnCovarianceTable:
    """Second-order statistics of the mixing coefficients of one oscillator
    pair (transmit plus receive).

    gamma[a, b] = E[delta_a * conj(delta_b)] on circular offsets, and kernel
    holds the matching sample-domain phase correlation
    E[exp(j*(phi(n1) - phi(n2)))] = exp(-combined_variance * |n1 - n2| / 2).
    """

    gamma: np.ndarray
    kernel: np.ndarray = field(repr=False)
    n_subcarriers: int
    increment_variance: float

    @property
    def combined_variance(self) -> float:
        """Per-sample increment variance of the summed oscillator pair."""
        return 2.0 * self.increment_variance


def pn_covariance_table(delta_f: float, n_subcarriers: int) -> PnCovarianceTable:
    """Closed-form mixing covariance for independent Wiener oscillator pairs.

    The phase difference phi(n1) - phi(n2) of the combined transmit+receive
    process is Gaussian with variance combined_variance * |n1 - n2|, so its
    characteristic function is the decaying exponential kernel; gamma is the
    kernel's two-sided transform.  The table describes a single
    transmit/receive pair, so it serves both oscillator modes: whether the
    antennas share one transmit oscillator changes only the draws, not the
    SI covariance, because the channels are independent and zero-mean.
    """
    sigma2 = phase_increment_variance(delta_f, n_subcarriers)
    combined = 2.0 * sigma2
    lags = np.arange(n_subcarriers)
    kernel = np.exp(-combined * np.abs(lags[:, None] - lags[None, :]) / 2.0)
    gamma = np.fft.ifft(np.fft.fft(kernel, axis=1), axis=0) / n_subcarriers
    return PnCovarianceTable(
        gamma=gamma,
        kernel=kernel,
        n_subcarriers=n_subcarriers,
        increment_variance=sigma2,
    )


@dataclass(frozen=True)
class SiChannelSet:
    """Per-antenna self-interference channel taps and their power profile."""

    taps: np.ndarray
    pdp: np.ndarray

    @property
    def n_tx(self) -> int:
        return self.taps.shape[0]

    @property
    def n_taps(self) -> int:
        return self.taps.shape[1]


def gen_si_channel(
    n_tx: int, n_taps: int, pdp: np.ndarray, rng: np.random.Generator
) -> SiChannelSet:
    """Independent circular complex Gaussian taps, tap l has variance pdp[l]."""
    pdp = np.asarray(pdp, dtype=np.float64)
    if n_tx < 1 or n_taps < 1:
        raise ValueError("n_tx and n_taps must be positive")
    if pdp.shape != (n_taps,):
        raise ValueError(f"pdp must have shape ({n_taps},)")
    if np.any(pdp < 0.0):
        raise ValueError("pdp entries must be non-negative")
    scale = np.sqrt(pdp / 2.0)
    taps = scale[None, :] * (
        rng.standard_normal((n_tx, n_taps))
        + 1j * rng.standard_normal((n_tx, n_taps))
    )
    return SiChannelSet(taps=taps, pdp=pdp)


def gen_awgn(n: int, power: float, rng: np.random.Generator) -> np.ndarray:
    """Circular complex Gaussian vector with the given per-entry power."""
    if n < 1:
        raise ValueError("n must be positive")
    if power < 0.0:
        raise ValueError("power must be non-negative")
    scale = np.sqrt(power / 2.0)
    re = rng.standard_normal(n)
    im = rng.standard_normal(n)
    return scale * (re + 1j * im)


@dataclass(frozen=True)
class ReceivedSymbol:
    """One received symbol and its additive parts, all in the subcarrier domain."""

    total: np.ndarray
    si: np.ndarray
    soi: np.ndarray
    noise: np.ndarray


def synthesize_received(
    freq_symbols: np.ndarray,
    channels: SiChannelSet,
    tx_phases: list[np.ndarray],
    rx_phases: np.ndarray,
    soi_power: float,
    noise_power: float,
    rng: np.random.Generator,
) -> ReceivedSymbol:
    """Synthesize one received symbol from the model above.

    tx_phases holds one phase trace per transmit antenna, or a single trace
    that is shared by all antennas (shared-oscillator mode).  Trace lengths
    must equal the symbol body length.  The signal of interest and the receiver noise are
    drawn white circular Gaussian in the subcarrier domain, in that order.
    """
    symbols = np.asarray(freq_symbols, dtype=np.complex128)
    n = symbols.size
    if n == 0:
        raise ValueError("freq_symbols must be non-empty")
    if channels.n_taps > n:
        raise ValueError("channel longer than the symbol body")
    if len(tx_phases) not in (1, channels.n_tx):
        raise ValueError(
            f"need 1 or {channels.n_tx} transmit traces, got {len(tx_phases)}"
        )
    for phases in (*tx_phases, rx_phases):
        if np.shape(phases) != (n,):
            raise ValueError("phase trace length must equal the symbol body")

    rotation = np.exp(1j * (np.stack(tx_phases) + rx_phases))
    # Per-antenna circular channel output, then the oscillator rotation at the
    # receive instants; broadcasting covers the shared-trace case.
    response = np.fft.fft(channels.taps, n=n, axis=1)
    waveform = np.fft.ifft(symbols[None, :] * response, axis=1)
    si = np.fft.fft((rotation * waveform).sum(axis=0))
    soi = gen_awgn(n, soi_power, rng)
    noise = gen_awgn(n, noise_power, rng)
    return ReceivedSymbol(total=si + soi + noise, si=si, soi=soi, noise=noise)

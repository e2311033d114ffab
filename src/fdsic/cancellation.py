"""SI reconstruction from a channel estimate and the power accounting
around the cancellation step.

The residual after subtracting an SI estimate V y from the received vector is
r = (I - V)(si + noise) - V soi; the harness forms it as a plain
subtraction.  Cancellation ability is the ratio of pre-cancellation power
(SI plus the noise floor) to the residual power, in dB.
"""

import math

import numpy as np


def reconstruct_si(symbols: np.ndarray, channel_estimate: np.ndarray) -> np.ndarray:
    """SI reconstruction diag(symbols) F h for each column h of each
    trial's L x P block of tap estimates: (B, N) symbols of B trials take
    the (B, L, P) stack of their estimates."""
    symbols = np.asarray(symbols, dtype=np.complex128)
    channel_estimate = np.asarray(channel_estimate, dtype=np.complex128)
    n = symbols.shape[-1]
    if (
        symbols.ndim != 2
        or channel_estimate.ndim != 3
        or channel_estimate.shape[0] != symbols.shape[0]
        or not 1 <= channel_estimate.shape[1] <= n
    ):
        raise ValueError("symbols must be (B, N), taps (B, L, P) with L <= N")
    return symbols[:, :, None] * np.fft.fft(channel_estimate, n=n, axis=1)


def cancellation_ability(pre_power: float, residual_power: float) -> float:
    """Cancellation ability 10 log10(pre_power / residual) in dB, pre_power
    being the SI-plus-noise power before cancellation; +inf when the
    residual is not positive."""
    if pre_power < 0.0:
        raise ValueError("pre_power must be non-negative")
    if residual_power <= 0.0:
        return math.inf
    return 10.0 * math.log10(pre_power / residual_power)

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
    """SI reconstruction diag(symbols) F h for an L-tap channel estimate h,
    or for each column of an (L, P) block of estimates; (B, N) symbols of B
    trials take the (B, L) or (B, L, P) stack of their estimates."""
    symbols = np.asarray(symbols, dtype=np.complex128)
    channel_estimate = np.asarray(channel_estimate, dtype=np.complex128)
    axis = symbols.ndim - 1
    n = symbols.shape[-1]
    if (
        channel_estimate.ndim not in (axis + 1, axis + 2)
        or channel_estimate.shape[:axis] != symbols.shape[:axis]
        or not 1 <= channel_estimate.shape[axis] <= n
    ):
        raise ValueError("channel estimate must have between 1 and N taps")
    per_row = symbols.reshape(
        symbols.shape + (1,) * (channel_estimate.ndim - axis - 1)
    )
    return per_row * np.fft.fft(channel_estimate, n=n, axis=axis)


def cancellation_ability(
    si_power: float, noise_floor: float, residual_power: float
) -> float:
    """Cancellation ability 10 log10((si_power + noise_floor) / residual) in
    dB; +inf when the residual is not positive."""
    if si_power < 0.0 or noise_floor < 0.0:
        raise ValueError("powers must be non-negative")
    if residual_power <= 0.0:
        return math.inf
    return 10.0 * math.log10((si_power + noise_floor) / residual_power)


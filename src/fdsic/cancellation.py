"""SI reconstruction from a channel estimate and the power accounting
around the cancellation step.

The residual after subtracting an SI estimate V y from the received vector is
r = (I - V)(si + noise) - V soi; the harness forms it as a plain
subtraction.  Cancellation ability is the ratio of pre-cancellation power
(SI plus the noise floor) to the residual power, in dB.
"""

import math
import sys

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
    residual is not positive.  pre_power must be finite and positive, the
    residual finite.  Powers whose ratio underflows or overflows still get
    their finite ability, from the difference of their logarithms."""
    if not (math.isfinite(pre_power) and pre_power > 0.0):
        raise ValueError(f"pre_power must be finite and positive: {pre_power!r}")
    if not math.isfinite(residual_power):
        raise ValueError(f"residual_power must be finite: {residual_power!r}")
    if residual_power <= 0.0:
        return math.inf
    ratio = pre_power / residual_power
    if sys.float_info.min <= ratio < math.inf:
        return 10.0 * math.log10(ratio)
    # the ratio left the normal float range: subtract the logarithms instead
    return 10.0 * (math.log10(pre_power) - math.log10(residual_power))

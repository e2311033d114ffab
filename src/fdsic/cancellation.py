"""SI reconstruction from a channel estimate.

The residual after subtracting an SI estimate V y from the received vector is
r = (I - V)(si + noise) - V soi; the harness forms it as a plain
subtraction and scores it with harness.cancellation_ability.
"""

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

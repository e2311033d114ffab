"""OFDM symbol draws.

Transform convention used throughout the package: the forward transform is
the plain unnormalized sum over time samples, the inverse carries the 1/N
factor.  np.fft matches this with its default norm.
"""

import numpy as np


def gen_bpsk_symbols(
    n_subcarriers: int, power: float, rng: np.random.Generator
) -> np.ndarray:
    """Draw one BPSK symbol per subcarrier, each +/- sqrt(power)."""
    if n_subcarriers < 1:
        raise ValueError("n_subcarriers must be positive")
    if power <= 0.0:
        raise ValueError("power must be positive")
    bits = rng.integers(0, 2, n_subcarriers)
    return (np.sqrt(power) * (2.0 * bits - 1.0)).astype(np.complex128)

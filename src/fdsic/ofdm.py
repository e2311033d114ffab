"""OFDM symbol draws.

Transform convention used throughout the package: the forward transform is
the plain unnormalized sum over time samples, the inverse carries the 1/N
factor.  np.fft matches this with its default norm.
"""

import numpy as np


def gen_bpsk_symbols(n_subcarriers: int, rng: np.random.Generator) -> np.ndarray:
    """Draw one unit-power BPSK symbol, +/-1, per subcarrier."""
    if n_subcarriers < 1:
        raise ValueError("n_subcarriers must be positive")
    bits = rng.integers(0, 2, n_subcarriers)
    return (2.0 * bits - 1.0).astype(np.complex128)

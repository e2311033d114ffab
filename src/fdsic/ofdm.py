"""OFDM primitives: partial DFT matrices, BPSK symbol draws, cyclic-prefix add.

Transform convention used throughout the package: the forward transform is
the plain unnormalized sum over time samples, the inverse carries the 1/N
factor.  np.fft matches this with its default norm.
"""

import numpy as np


def dft_matrix(n_subcarriers: int, n_taps: int) -> np.ndarray:
    """Partial DFT matrix with entries exp(-2j*pi*n*l/N), shape (N, n_taps).

    Columns are orthogonal with squared norm N, so conj(F).T @ F = N * I.
    """
    if n_subcarriers < 1 or n_taps < 1:
        raise ValueError("matrix dimensions must be positive")
    if n_taps > n_subcarriers:
        raise ValueError(
            f"n_taps={n_taps} exceeds n_subcarriers={n_subcarriers}"
        )
    rows = np.arange(n_subcarriers)[:, None]
    cols = np.arange(n_taps)[None, :]
    return np.exp(-2j * np.pi * rows * cols / n_subcarriers)


def gen_bpsk_symbols(
    n_subcarriers: int, symbol_power: float, rng: np.random.Generator
) -> np.ndarray:
    """Draw one BPSK symbol per subcarrier, each +/- sqrt(symbol_power)."""
    if n_subcarriers < 1:
        raise ValueError("n_subcarriers must be positive")
    if symbol_power <= 0.0:
        raise ValueError("symbol_power must be positive")
    bits = rng.integers(0, 2, n_subcarriers)
    return (np.sqrt(symbol_power) * (2.0 * bits - 1.0)).astype(np.complex128)


def modulate(freq_symbols: np.ndarray, cp_length: int) -> np.ndarray:
    """Inverse transform plus cyclic prefix, returns N + cp_length samples."""
    symbols = np.asarray(freq_symbols, dtype=np.complex128)
    n = symbols.size
    if n == 0:
        raise ValueError("freq_symbols must be non-empty")
    if cp_length < 0 or cp_length >= n:
        raise ValueError(f"cp_length={cp_length} must be in [0, {n})")
    body = np.fft.ifft(symbols)
    if cp_length == 0:
        return body
    return np.concatenate([body[-cp_length:], body])


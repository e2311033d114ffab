"""Transform conventions, BPSK draws and cyclic prefix handling."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fdsic.ofdm import dft_matrix, gen_bpsk_symbols, modulate


def test_dft_matrix_columns_orthogonal():
    f = dft_matrix(16, 5)
    assert f.shape == (16, 5)
    assert_allclose(f.conj().T @ f, 16.0 * np.eye(5), atol=1e-12)


def test_dft_matrix_matches_zero_padded_fft():
    rng = np.random.default_rng(11)
    taps = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    f = dft_matrix(32, 6)
    assert_allclose(f @ taps, np.fft.fft(taps, n=32), atol=1e-12)


@pytest.mark.parametrize("n, n_taps", [(0, 1), (4, 0), (4, 5)])
def test_dft_matrix_rejects_bad_dimensions(n, n_taps):
    with pytest.raises(ValueError):
        dft_matrix(n, n_taps)


def test_bpsk_symbols_take_two_levels():
    rng = np.random.default_rng(12)
    symbols = gen_bpsk_symbols(256, 2.0, rng)
    assert symbols.dtype == np.complex128
    assert_allclose(symbols.imag, 0.0)
    assert set(np.round(symbols.real, 12)) <= {
        round(np.sqrt(2.0), 12),
        round(-np.sqrt(2.0), 12),
    }
    assert_allclose(np.abs(symbols) ** 2, 2.0)


def test_bpsk_symbols_are_balanced():
    rng = np.random.default_rng(13)
    symbols = gen_bpsk_symbols(20_000, 1.0, rng)
    # sample mean of +/-1 draws, 4 sigma = 0.028
    assert abs(symbols.real.mean()) < 0.03


@pytest.mark.parametrize("n, power", [(0, 1.0), (8, 0.0), (8, -1.0)])
def test_bpsk_symbols_validation(n, power):
    with pytest.raises(ValueError):
        gen_bpsk_symbols(n, power, np.random.default_rng(0))


def test_modulate_prepends_cyclic_prefix():
    rng = np.random.default_rng(14)
    symbols = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    samples = modulate(symbols, 8)
    assert samples.size == 40
    assert_allclose(samples[:8], samples[-8:])
    assert_allclose(samples[8:], np.fft.ifft(symbols))


def test_modulate_demodulate_roundtrip():
    rng = np.random.default_rng(15)
    symbols = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    # stripping the prefix leaves the inverse transform of the symbols
    samples = modulate(symbols, 16)
    assert_allclose(samples[16:], np.fft.ifft(symbols), atol=1e-12)
    assert_allclose(np.fft.fft(samples[16:]), symbols, atol=1e-12)


def test_modulate_single_tone():
    n = 16
    symbols = np.zeros(n, dtype=np.complex128)
    symbols[3] = 1.0
    body = modulate(symbols, 0)
    expected = np.exp(2j * np.pi * 3 * np.arange(n) / n) / n
    assert_allclose(body, expected, atol=1e-14)


def test_modulate_energy_scaling():
    # inverse transform carries the 1/N factor
    rng = np.random.default_rng(16)
    symbols = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    body = modulate(symbols, 0)
    assert np.vdot(body, body).real * 128 == pytest.approx(
        np.vdot(symbols, symbols).real
    )


@pytest.mark.parametrize("cp", [-1, 32])
def test_modulate_rejects_bad_prefix(cp):
    with pytest.raises(ValueError):
        modulate(np.ones(32, dtype=np.complex128), cp)

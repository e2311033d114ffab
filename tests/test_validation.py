"""The self-check suites' Monte Carlo oracles, their streaming and memory,
the sample-domain reference, and how run_all and CheckResult report.  The
checks themselves run at full size in tests/test_acceptance.py and in their
fast profile in tests/test_cli.py."""

import multiprocessing
import os
import signal
import time
import tracemalloc

import numpy as np
import pytest

from fdsic import validation
from fdsic.estimator import (
    EstimatorStatistics,
    SingularMatrixError,
    si_covariance,
    si_spectrum,
    spectral_weights,
)
from fdsic.harness import cancellation_ability
from fdsic.impairments import (
    channel_outputs,
    gen_si_channel,
    gen_wiener_phase,
    phase_increment_variance,
    pn_covariance_table,
    synthesize_received,
)
from fdsic.ofdm import gen_bpsk_symbols
from fdsic.validation import (
    CheckResult,
    _streamed_grams,
    simulate_mixing_covariance,
    simulate_si_covariance,
    subcarrier_si_covariance,
    time_domain_si_reference,
)


def test_check_result_line_format():
    result = CheckResult(
        name="demo", worst_error=1.5e-4, tolerance=2e-3, detail="small",
    )
    assert result.line() == (
        "PASS demo: worst error 1.500e-04 (tolerance 2.000e-03) small"
    )
    failed = CheckResult("demo", 1.0, 0.5, "big")
    assert failed.line() == (
        "FAIL demo: worst error 1.000e+00 (tolerance 5.000e-01) big"
    )


def test_check_result_passes_at_its_tolerance():
    # passed is worst_error <= tolerance, so an error at the bound passes
    # and one that is not a number fails
    assert CheckResult("demo", 2e-3, 2e-3, "").passed
    assert not CheckResult("demo", np.nextafter(2e-3, 1.0), 2e-3, "").passed
    assert not CheckResult("demo", float("nan"), 2e-3, "").passed
    assert not CheckResult("demo", 1e-12, 0.0, "").passed


@pytest.fixture
def stub_checks(monkeypatch):
    """Stand-ins for the four suites that return their names at once; a
    test replaces one of them.  A run_all still running after 20 s raises
    TimeoutError, so one that waits forever on its child fails the test,
    and every test must leave no child process behind."""
    monkeypatch.setattr(
        validation, "check_pn_covariance", lambda **kwargs: ["pn", "pn"]
    )
    for name, result in (
        ("check_si_covariance", "si"),
        ("check_qp_oracle", "qp"),
        ("check_model_equivalence", "model"),
    ):
        monkeypatch.setattr(
            validation, name, lambda _result=result, **kwargs: _result
        )

    def expire(signum, frame):
        raise TimeoutError("run_all still running after 20 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(20)
    try:
        yield monkeypatch
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []


def _raising(exc):
    def check(**kwargs):
        raise exc

    return check


def test_run_all_returns_the_child_results_first(stub_checks):
    assert validation.run_all(fast=True) == ["pn", "pn", "si", "qp", "model"]


def test_run_all_raises_the_child_check_error(stub_checks):
    stub_checks.setattr(
        validation, "check_pn_covariance", _raising(SingularMatrixError("boom"))
    )
    with pytest.raises(SingularMatrixError, match="^boom$"):
        validation.run_all(fast=True)


def test_parent_check_error_stops_the_child_first(stub_checks):
    # the child would sleep past the alarm: run_all must stop it, not wait
    stub_checks.setattr(
        validation, "check_pn_covariance", lambda **kwargs: time.sleep(60)
    )
    stub_checks.setattr(
        validation, "check_qp_oracle", _raising(ValueError("parent boom"))
    )
    with pytest.raises(ValueError, match="^parent boom$"):
        validation.run_all(fast=True)


def test_child_exit_without_results_names_its_exit_code(stub_checks):
    stub_checks.setattr(
        validation, "check_pn_covariance", lambda **kwargs: os._exit(3)
    )
    with pytest.raises(RuntimeError, match="exited with code 3"):
        validation.run_all(fast=True)


@pytest.mark.parametrize("order", ["C", "F"])
def test_hermitian_gram_matches_einsum(order):
    rng = np.random.default_rng(80)
    rows = rng.standard_normal((500, 12)) + 1j * rng.standard_normal((500, 12))
    rows = np.asarray(rows, order=order)
    (gram,) = _streamed_grams(((rows,),))
    reference = np.einsum("ta,tb->ab", rows, rows.conj()) / rows.shape[0]
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(gram - reference)) <= 1e-12 * scale
    assert np.array_equal(gram, gram.conj().T)


def _one_shot_walks(steps):
    # the walks of steps[:, 0] and steps[:, 1] summed, each from zero
    walks = np.cumsum(steps, axis=-1)
    summed = walks[:, 0] + walks[:, 1]
    start = np.zeros(summed.shape[:-1] + (1,))
    return np.concatenate([start, summed], axis=-1)


def _one_shot_mixing_rows(delta_f, n, n_traces, rng):
    # one full-size draw: row t holds trace t's two oscillators' steps
    sigma = np.sqrt(phase_increment_variance(delta_f, n))
    steps = rng.standard_normal((n_traces, 2 * (n - 1))).reshape(-1, 2, n - 1)
    phases = sigma * _one_shot_walks(steps)
    return np.fft.ifft(np.exp(1j * phases), axis=1)


def _one_shot_si_rows(symbols, pdp, n_tx, delta_f, n_trials, rng):
    # one full-size draw: row t holds trial t's tap real parts, tap
    # imaginary parts, then both oscillators' steps on every antenna
    n = symbols.size
    sigma = np.sqrt(phase_increment_variance(delta_f, n))
    parts = n_tx * pdp.size
    draw = rng.standard_normal((n_trials, 2 * parts + 2 * n_tx * (n - 1)))
    taps = np.sqrt(pdp / 2.0) * (
        draw[:, :parts] + 1j * draw[:, parts : 2 * parts]
    ).reshape(n_trials, n_tx, pdp.size)
    steps = draw[:, 2 * parts :].reshape(n_trials, 2, n_tx, n - 1)
    phases = sigma * _one_shot_walks(steps)
    waveform = np.fft.ifft(np.fft.fft(taps, n=n, axis=2) * symbols, axis=2)
    return np.fft.fft((waveform * np.exp(1j * phases)).sum(axis=1), axis=1)


# Sample counts below one block, exactly two blocks, and two blocks and a
# remainder; with 128-entry blocks of N = 8 rows a block
# holds 16 rows, so the last SI case has more antennas than a block has rows.
@pytest.mark.parametrize(
    "oracle, n_tx, count",
    [
        ("mixing", 1, 10), ("mixing", 1, 32), ("mixing", 1, 37),
        ("si", 2, 5), ("si", 2, 16), ("si", 2, 19), ("si", 24, 3),
    ],
)
def test_streamed_oracles_match_the_one_shot_reduction(
    monkeypatch, oracle, n_tx, count
):
    monkeypatch.setattr(validation, "_BLOCK_ENTRIES", 128)
    n, delta_f = 8, 1e-2
    rng = np.random.default_rng(90)
    reference_rng = np.random.default_rng(90)
    if oracle == "mixing":
        (gram,) = simulate_mixing_covariance((delta_f,), n, count, rng)
        rows = _one_shot_mixing_rows(delta_f, n, count, reference_rng)
    else:
        symbols = gen_bpsk_symbols(n, np.random.default_rng(91))
        pdp = np.exp(-np.arange(3) / 4.0)
        gram = simulate_si_covariance(symbols, pdp, n_tx, delta_f, count, rng)
        rows = _one_shot_si_rows(symbols, pdp, n_tx, delta_f, count, reference_rng)
    reference = np.einsum("ta,tb->ab", rows, rows.conj()) / count
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(gram - reference)) <= 1e-12 * scale
    assert np.array_equal(gram, gram.conj().T)
    assert rng.bit_generator.state == reference_rng.bit_generator.state


def test_oracles_do_not_depend_on_the_block_size(monkeypatch):
    # _BLOCK_ENTRIES is a pure performance setting.  5k samples of the
    # shapes `fdsic validate` uses (mixing N = 32; SI N = 8, L = 2,
    # n_tx = 4) in blocks of 128 entries, 2**15 and 2**17 (4, 1,024 and
    # 4,096 rows) draw the same numbers, so the Grams differ only by the
    # round-off of the zherk folds and the generator ends in one state.
    symbols = gen_bpsk_symbols(8, np.random.default_rng(91))
    pdp = np.exp(-np.arange(2) / 4.0)
    runs = []
    for block_entries in (128, 2**15, 2**17):
        monkeypatch.setattr(validation, "_BLOCK_ENTRIES", block_entries)
        rng = np.random.default_rng(88)
        grams = simulate_mixing_covariance((1e-4, 1e-3), 32, 5_000, rng)
        grams.append(
            simulate_si_covariance(symbols, pdp, 4, 1e-3, 5_000, rng)
        )
        runs.append((grams, rng.bit_generator.state))
    references, reference_state = runs[0]
    for grams, state in runs:
        for gram, reference in zip(grams, references):
            scale = np.max(np.abs(reference))
            assert np.max(np.abs(gram - reference)) <= 1e-12 * scale
            assert np.array_equal(gram, gram.conj().T)
        assert _same_state(state, reference_state)


# One trace of N = 1 (no steps), a sample count below one block, two
# blocks and a remainder on MT19937, and rows larger than a block; with
# 128-entry blocks of N = 8 a block holds 16 rows.
@pytest.mark.parametrize(
    "bit_generator, shape",
    [
        (np.random.PCG64, (1, 1)),
        (np.random.PCG64, (10, 8)),
        (np.random.MT19937, (37, 8)),
        (np.random.PCG64, (3, 24, 8)),
    ],
)
def test_streamed_walks_match_one_full_size_draw(
    monkeypatch, bit_generator, shape
):
    monkeypatch.setattr(validation, "_BLOCK_ENTRIES", 128)
    rng = np.random.Generator(bit_generator(98))
    reference_rng = np.random.Generator(bit_generator(98))
    reference = _one_shot_draw(reference_rng, shape, 0)
    streamed = _streamed_draw(rng, shape, 0)
    _assert_same_draw(streamed, reference, shape, rng, reference_rng)


# With 128-entry blocks and traces of n_tx * N = 16 entries a block holds 8
# rows: counts below one block, exactly two blocks, and two blocks and a
# remainder; 24 antennas make a row larger than a block.  A row holds the
# SI oracle's normals with L = n_taps and N = 8: the lead, the taps' real
# and imaginary parts of (n_tx, L) each, then two oscillators' steps of
# (n_tx, N - 1) each.
@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937])
@pytest.mark.parametrize("n_taps", [1, 2, 4])
@pytest.mark.parametrize("n_tx, count", [(2, 5), (2, 16), (2, 19), (24, 3)])
def test_streamed_normals_are_consecutive_full_size_draws(
    monkeypatch, bit_generator, n_taps, n_tx, count
):
    monkeypatch.setattr(validation, "_BLOCK_ENTRIES", 128)
    shape, n_lead = (count, n_tx, 8), 2 * n_tx * n_taps
    rng = np.random.Generator(bit_generator(97))
    reference_rng = np.random.Generator(bit_generator(97))
    reference = _one_shot_draw(reference_rng, shape, n_lead)
    streamed = _streamed_draw(rng, shape, n_lead)
    _assert_same_draw(streamed, reference, shape, rng, reference_rng)


def _one_shot_draw(rng, shape, n_lead):
    # one full-size draw: row t holds n_lead normals, then trace t's steps,
    # first oscillator first; the walks of both summed, each from zero
    steps_shape = (2,) + shape[1:-1] + (shape[-1] - 1,)
    draw = rng.standard_normal((shape[0], n_lead + int(np.prod(steps_shape))))
    walks = np.cumsum(draw[:, n_lead:].reshape(shape[:1] + steps_shape), -1)
    phases = np.zeros(shape)
    phases[..., 1:] = walks[:, 0] + walks[:, 1]
    return draw[:, :n_lead], phases


def _streamed_draw(rng, shape, n_lead):
    # each block is overwritten by the next, so keep copies
    return [
        (lead.copy(), phases.copy())
        for lead, phases in validation._summed_wiener_phases(shape, rng, n_lead)
    ]


def _assert_same_draw(streamed, reference, shape, rng, reference_rng):
    # consecutive blocks of 128 trace entries, or of one row if a row is
    # larger, that hold the rows of the full-size draw bit for bit and
    # leave the generator where that draw leaves it
    step = max(1, 128 // int(np.prod(shape[1:])))
    assert [len(phases) for _, phases in streamed] == [
        min(step, shape[0] - start) for start in range(0, shape[0], step)
    ]
    for streamed_part, reference_part in zip(zip(*streamed), reference):
        assert np.array_equal(np.concatenate(streamed_part), reference_part)
    assert _same_state(
        rng.bit_generator.state, reference_rng.bit_generator.state
    )


@pytest.mark.parametrize("n_tx, count", [(2, 5), (2, 19), (24, 3)])
def test_si_oracle_taps_are_the_simulator_channel_draw(
    monkeypatch, n_tx, count
):
    # the taps the SI oracle convolves, block by block, are bit for bit
    # sqrt(pdp / 2) * (re + j im) of the tap parts of each row of one
    # full-size draw: n_tx * L real parts, then n_tx * L imaginary parts
    monkeypatch.setattr(validation, "_BLOCK_ENTRIES", 128)
    convolve = validation._direct_channel_outputs
    seen = []

    def recording(taps, delayed):
        seen.append(taps.copy())
        return convolve(taps, delayed)

    monkeypatch.setattr(validation, "_direct_channel_outputs", recording)
    n, pdp = 8, np.array([1.0, 0.0, 0.25])
    symbols = gen_bpsk_symbols(n, np.random.default_rng(91))
    simulate_si_covariance(
        symbols, pdp, n_tx, 1e-2, count, np.random.default_rng(89)
    )
    parts = n_tx * pdp.size
    draw = np.random.default_rng(89).standard_normal(
        (count, 2 * parts + 2 * n_tx * (n - 1))
    )
    reference = np.sqrt(pdp / 2.0) * (
        draw[:, :parts] + 1j * draw[:, parts : 2 * parts]
    ).reshape(count, n_tx, pdp.size)
    assert np.array_equal(np.concatenate(seen), reference)


def _same_state(state, other):
    # MT19937 keeps its key as an array inside the state dictionary
    if isinstance(state, dict):
        return state.keys() == other.keys() and all(
            _same_state(state[key], other[key]) for key in state
        )
    return np.array_equal(state, other)


def test_mixing_oracle_rejects_zero_traces():
    with pytest.raises(ValueError, match="n_traces"):
        simulate_mixing_covariance((1e-3,), 16, 0, np.random.default_rng(92))


def test_mixing_oracle_shares_one_draw_across_bandwidths(monkeypatch):
    # 37 traces of N = 8 in 128-entry blocks: two blocks and a remainder
    monkeypatch.setattr(validation, "_BLOCK_ENTRIES", 128)
    n, count, delta_fs = 8, 37, (1e-3, 1e-2)
    rng = np.random.default_rng(94)
    grams = simulate_mixing_covariance(delta_fs, n, count, rng)
    single_rng = np.random.default_rng(94)
    simulate_mixing_covariance(delta_fs[:1], n, count, single_rng)
    assert rng.bit_generator.state == single_rng.bit_generator.state
    assert len(grams) == len(delta_fs)
    for delta_f, gram in zip(delta_fs, grams):
        rows = _one_shot_mixing_rows(
            delta_f, n, count, np.random.default_rng(94)
        )
        reference = np.einsum("ta,tb->ab", rows, rows.conj()) / count
        scale = np.max(np.abs(reference))
        assert np.max(np.abs(gram - reference)) <= 1e-12 * scale
        assert np.array_equal(gram, gram.conj().T)


def test_mixing_oracle_rejects_no_bandwidth():
    rng = np.random.default_rng(95)
    with pytest.raises(ValueError, match="delta_fs"):
        simulate_mixing_covariance((), 16, 10, rng)


@pytest.mark.parametrize("n_taps", [1, 2, 16])
def test_si_oracle_convolution_matches_channel_outputs(n_taps):
    # the SI oracle's direct circular convolution against the production
    # FFT route, up to the full symbol length N = 16, on taps of 4 trials
    # of 3 antennas as the oracle passes them
    rng = np.random.default_rng(96)
    n, shape = 16, (4, 3, n_taps)
    symbols = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    taps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    direct = validation._direct_channel_outputs(
        taps, validation._delayed_waveforms(symbols, n_taps)
    )
    reference = channel_outputs(np.tile(symbols, (shape[0], 1)), taps)
    assert direct.shape == reference.shape
    assert np.max(np.abs(direct - reference)) <= 1e-13 * np.max(
        np.abs(reference)
    )


def test_si_oracle_rejects_zero_trials():
    symbols = gen_bpsk_symbols(8, np.random.default_rng(91))
    with pytest.raises(ValueError, match="n_trials"):
        simulate_si_covariance(
            symbols, np.ones(2), 4, 1e-3, 0, np.random.default_rng(92)
        )


@pytest.mark.parametrize(
    "pdp, n_tx, message",
    [
        ([1.0, -0.25], 4, "pdp entries"),
        ([1.0], 0, "n_tx"),
        ([], 4, "pdp must be a non-empty vector"),
    ],
    ids=["negative-pdp", "no-antenna", "empty-pdp"],
)
def test_si_oracle_rejects_bad_channel_inputs(pdp, n_tx, message):
    # as gen_si_channel rejects them, before any draw: unchecked, these
    # gave an all-NaN Gram, a ZeroDivisionError and a numpy stacking error
    symbols = gen_bpsk_symbols(8, np.random.default_rng(91))
    rng = np.random.default_rng(87)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=message):
        simulate_si_covariance(symbols, np.array(pdp), n_tx, 1e-3, 10, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize(
    "symbols, n_taps, message",
    [
        (np.ones((1, 8)), 2, "symbols must be a non-empty vector"),
        (np.ones(0), 1, "symbols must be a non-empty vector"),
        (np.ones(4), 6, "pdp of 6 taps is longer than the 4 symbols"),
    ],
    ids=["row-of-symbols", "no-symbols", "pdp-longer-than-symbols"],
)
def test_si_oracle_rejects_bad_symbols(symbols, n_taps, message):
    # before any draw: unchecked, (1, N) symbols failed with numpy's
    # broadcasting error and 6 taps on 4 symbols wrapped around the symbol
    rng = np.random.default_rng(87)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=message):
        simulate_si_covariance(symbols, np.ones(n_taps), 2, 1e-3, 10, rng)
    assert rng.bit_generator.state == state


def test_full_size_oracles_stream_within_4_mb():
    # One full-size call of each oracle, as `fdsic validate` makes them.
    # Built on full-size arrays they peaked at 146 and 156 MB; streamed,
    # with the walks and the SI taps drawn one block at a time, nothing is
    # full size and they peak at about 2.6 and 2.2 MB (10.5 and 8.7 MB
    # with blocks of 2**17 entries).
    rng = np.random.default_rng(93)
    symbols = gen_bpsk_symbols(8, rng)
    pdp = np.exp(-np.arange(2) / 4.0)
    peaks = []
    tracemalloc.start()
    try:
        simulate_mixing_covariance((1e-4, 1e-3), 32, 100_000, rng)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        simulate_si_covariance(symbols, pdp, 4, 1e-3, 100_000, rng)
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert max(peaks) < 4e6, peaks


def test_oracle_memory_does_not_grow_with_the_sample_count():
    # The walks and the SI taps come one block at a time, so each oracle's
    # peak is the same at 20k and 100k samples: about 2.8 MB for the mixing
    # oracle and 2.3 MB for the SI oracle (10.5 and 8.7 MB with blocks of
    # 2**17 entries; the SI oracle took 21 MB with full-size taps).
    rng = np.random.default_rng(99)
    symbols = gen_bpsk_symbols(8, rng)
    pdp = np.exp(-np.arange(2) / 4.0)
    mixing, si = {}, {}
    tracemalloc.start()
    try:
        for count in (20_000, 100_000):
            tracemalloc.reset_peak()
            simulate_mixing_covariance((1e-4, 1e-3), 32, count, rng)
            mixing[count] = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            simulate_si_covariance(symbols, pdp, 4, 1e-3, count, rng)
            si[count] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mixing[100_000] <= 4e6, mixing
    assert mixing[100_000] <= 1.2 * mixing[20_000], mixing
    assert si[100_000] <= 3.5e6, si
    assert si[100_000] <= 1.2 * si[20_000], si


def test_time_domain_reference_needs_full_prefix():
    rng = np.random.default_rng(81)
    n = 16
    symbols = gen_bpsk_symbols(n, rng)
    taps = gen_si_channel(1, np.ones(6), rng)
    trace = np.sqrt(1e-3) * gen_wiener_phase(n, rng)
    with pytest.raises(ValueError, match="prefix"):
        time_domain_si_reference(symbols, taps, [trace], trace, 4)


@pytest.mark.parametrize("order", ["model", "exact"])
@pytest.mark.parametrize("short", ["tx", "rx"])
def test_time_domain_reference_rejects_short_traces(order, short):
    # a length-1 trace would broadcast over the window instead of failing
    rng = np.random.default_rng(86)
    n, cp = 16, 4
    symbols = gen_bpsk_symbols(n, rng)
    taps = gen_si_channel(2, np.ones(3), rng)
    traces = {"tx": np.zeros(n if order == "model" else n + cp)}
    traces["rx"] = np.zeros(n)
    traces[short] = np.zeros(1)
    with pytest.raises(ValueError, match="must cover the"):
        time_domain_si_reference(
            symbols, taps, [traces["tx"]], traces["rx"], cp, order
        )


def test_time_domain_reference_rejects_unknown_order_and_trace_count():
    rng = np.random.default_rng(86)
    n, cp = 16, 4
    symbols = gen_bpsk_symbols(n, rng)
    taps = gen_si_channel(3, np.ones(3), rng)
    trace = np.zeros(n)
    with pytest.raises(ValueError, match="order"):
        time_domain_si_reference(symbols, taps, [trace], trace, cp, "physical")
    with pytest.raises(ValueError, match="n_tx=3"):
        time_domain_si_reference(symbols, taps, [trace] * 2, trace, cp)


def test_exact_order_reference_needs_prefixed_traces():
    rng = np.random.default_rng(82)
    n, cp = 16, 4
    symbols = gen_bpsk_symbols(n, rng)
    taps = gen_si_channel(2, np.ones(3), rng)
    trace = np.sqrt(1e-3) * gen_wiener_phase(n, rng)
    with pytest.raises(ValueError, match="prefixed"):
        time_domain_si_reference(symbols, taps, [trace], trace, cp, "exact")
    with pytest.raises(ValueError, match="prefix"):
        time_domain_si_reference(symbols, taps, [trace], trace, 1, "exact")


def test_exact_order_matches_model_without_phase_noise():
    rng = np.random.default_rng(83)
    n, cp = 32, 6
    symbols = gen_bpsk_symbols(n, rng)
    taps = gen_si_channel(3, np.ones(4), rng)
    tx = [np.full(n + cp, 0.7)]
    rx = np.full(n, -0.2)
    exact = time_domain_si_reference(symbols, taps, tx, rx, cp, "exact")
    outputs = channel_outputs(symbols[None], taps[None])
    model = synthesize_received(outputs, tx[0][None, None, cp:], rx[None])[0]
    np.testing.assert_allclose(exact, model, rtol=1e-12, atol=1e-12)


def test_exact_order_samples_have_the_model_covariance():
    # Tap l sees the transmit phase at n - l on both samples of a lag, so the
    # physical order has the model's SI covariance exactly, not only to
    # first order.  Against the model's covariance the tolerance is the fast
    # si-covariance check's; 20,000 draws measured 0.0099.  At 5,000 draws
    # that bound cannot see the receive oscillator dropped (0.023-0.052 on
    # seeds 1, 2, 88), so the model-order samples of the same draws serve as
    # a control variate: their Gram differs from the exact order's by
    # 0.0025-0.0032 of the largest entry, and by 0.024-0.028 with the
    # receive oscillator dropped.
    rng = np.random.default_rng(88)
    n, n_taps, n_tx, delta_f, draws = 8, 2, 4, 1e-2, 5_000
    cp = n_taps + 2
    sigma = np.sqrt(phase_increment_variance(delta_f, n))
    symbols = gen_bpsk_symbols(n, rng)
    pdp = np.exp(-np.arange(n_taps) / 4.0)
    exact = np.empty((draws, n), dtype=np.complex128)
    model = np.empty((draws, n), dtype=np.complex128)
    for exact_row, model_row in zip(exact, model):
        taps = gen_si_channel(n_tx, pdp, rng)
        tx = [sigma * gen_wiener_phase(n + cp, rng) for _ in range(n_tx)]
        rx = sigma * gen_wiener_phase(n, rng)
        exact_row[:] = time_domain_si_reference(
            symbols, taps, tx, rx, cp, "exact"
        )
        model_row[:] = synthesize_received(
            channel_outputs(symbols[None], taps[None]),
            np.array(tx)[None, :, cp:],
            rx[None],
        )[0]
    stats = EstimatorStatistics(symbols[None], pdp, n_tx)
    kernel = pn_covariance_table(delta_f, n)
    analytic = subcarrier_si_covariance(stats, kernel)[0]
    scale = np.max(np.abs(analytic))
    exact_gram, model_gram = _streamed_grams(((exact, model),))
    assert np.max(np.abs(exact_gram - analytic)) <= 0.06 * scale
    assert np.max(np.abs(exact_gram - model_gram)) <= 0.01 * scale


# The reference node: N = 128, prefix 16, 16 exponential taps, 64 antennas.
NODE_N, NODE_CP, NODE_L, NODE_TX = 128, 16, 16, 64


def _node_pdp():
    pdp = np.exp(-np.arange(NODE_L) / 4.0)
    return pdp / pdp.sum()


def _si_in_both_orders(rng, delta_f):
    """Symbols and the unit-power SI of one symbol of the reference node,
    synthesized by the model (transmit phase after the channel) and by the
    exact-order oracle on the same draws."""
    sigma = np.sqrt(phase_increment_variance(delta_f, NODE_N))
    symbols = gen_bpsk_symbols(NODE_N, rng)
    taps = gen_si_channel(NODE_TX, _node_pdp(), rng)
    tx = [sigma * gen_wiener_phase(NODE_N + NODE_CP, rng)
          for _ in range(NODE_TX)]
    rx = sigma * gen_wiener_phase(NODE_N, rng)
    model = synthesize_received(
        channel_outputs(symbols[None], taps[None]),
        np.array(tx)[None, :, NODE_CP:],
        rx[None],
    )[0]
    return symbols, model, time_domain_si_reference(
        symbols, taps, tx, rx, NODE_CP, "exact"
    )


@pytest.mark.parametrize(
    "delta_f, error_db", [(1e-3, -34.9), (1e-2, -24.9), (1e-1, -15.1)]
)
def test_model_order_error_relative_to_si(delta_f, error_db):
    # Rotating the channel output by the transmit phase at the receive
    # instant misses the phase drift over the channel's delay spread: the
    # error power grows 10 dB per decade of delta_f.  Measured over 100
    # symbols on seeds 1-3: -34.96/-34.97/-34.84, -24.97/-24.97/-24.89 and
    # -15.11/-15.01/-15.15 dB.
    rng = np.random.default_rng(84)
    error = power = 0.0
    for _ in range(100):
        _, model, exact = _si_in_both_orders(rng, delta_f)
        error += np.sum(np.abs(model - exact) ** 2)
        power += np.sum(np.abs(exact) ** 2)
    assert 10.0 * np.log10(error / power) == pytest.approx(error_db, abs=0.5)


def test_model_order_barely_moves_optimal_ability_at_inr_50():
    # The optimal weights come from the model's covariance; fed the
    # exact-order SI instead, the reference node's ability at INR 50,
    # SNR 10, delta_f 1e-3 moves by less than 0.01 dB.  The SOI and noise
    # are averaged in closed form (their residual terms noise*|I - V|_F^2 +
    # soi*|V|_F^2 are the same for both orders), which leaves a standard
    # error of about 0.0035 dB over 200 symbols.
    rng = np.random.default_rng(85)
    delta_f, scale, soi = 1e-3, 1e5 / NODE_TX, 10.0
    kernel = pn_covariance_table(delta_f, NODE_N)
    residual = {"model": 0.0, "exact": 0.0}
    for _ in range(200):
        symbols, model, exact = _si_in_both_orders(rng, delta_f)
        stats = EstimatorStatistics(symbols[None], _node_pdp(), NODE_TX)
        spectrum = si_spectrum(si_covariance(stats, kernel), stats)
        weights = spectral_weights(spectrum, np.array([scale]), np.array([soi]))
        # V's eigenvalues, the gains (lam + noise) / (lam + noise + soi)
        si_noise = scale * spectrum.eigenvalues[0] + 1.0
        gains = si_noise / (si_noise + soi)
        common = np.sum((1.0 - gains) ** 2) + soi * np.sum(gains**2)
        for order, si in (("model", model), ("exact", exact)):
            # one trial at one point: a (1, N, 1) stack
            si = np.sqrt(scale) * si[None, :, None]
            leak = si - weights.estimate(si)
            residual[order] += np.sum(np.abs(leak) ** 2) + common
    pre_power = NODE_N * NODE_TX * scale + NODE_N
    ability = {
        order: cancellation_ability(pre_power, value / 200)
        for order, value in residual.items()
    }
    assert ability["model"] == pytest.approx(40.5, abs=0.5)
    assert abs(ability["exact"] - ability["model"]) < 0.01

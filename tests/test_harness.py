"""Configuration handling, trial execution, sweeps and serialization."""

import dataclasses
import json
import math
import pickle
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fdsic import estimator, harness
from fdsic.estimator import (
    EstimatorStatistics,
    SingularMatrixError,
    si_covariance,
    si_spectrum,
)
from fdsic.harness import (
    CSV_COLUMNS,
    Scenario,
    SimConfig,
    SweepRecord,
    cancellation_ability,
    emit_csv,
    pdp_profile,
    read_csv,
    sweep,
    write_json_summary,
)
from fdsic.impairments import pn_covariance_table
from fdsic.ofdm import gen_bpsk_symbols

SMALL = dict(
    n_tx=2,
    n_subcarriers=16,
    n_taps=4,
    n_trials=3,
    master_seed=99,
)


def test_config_defaults_describe_reference_node():
    config = SimConfig()
    assert config.n_tx == 64
    assert config.n_subcarriers == 128
    assert config.n_taps == 16
    assert config.inr_db == 40.0
    assert config.snr_db == 10.0
    assert config.delta_f == 1e-3
    assert config.oscillator_mode == "per-antenna"


@pytest.mark.parametrize(
    "overrides",
    [
        dict(n_tx=0),
        dict(n_taps=200),
        dict(n_subcarriers=0),
        # the oscillator pair's increment variance 8*pi*delta_f/N overflows
        dict(delta_f=1e308),
        dict(oscillator_mode="odd"),
        dict(n_taps=0),
        dict(delta_f=-1e-3),
        dict(n_trials=-5),
        dict(n_trials=0),
        dict(master_seed=-1),
        # non-finite values fail up front, not deep inside a trial
        *(
            pytest.param({name: value}, id=f"{name}-{value}")
            for name in ("inr_db", "snr_db", "delta_f")
            for value in (math.nan, math.inf)
        ),
        pytest.param(dict(inr_db=-math.inf), id="inr_db-minus-inf"),
        # finite powers beyond what the arithmetic resolves
        *(
            pytest.param({name: value}, id=f"{name}-{value}")
            for name in ("inr_db", "snr_db")
            for value in (300.5, -300.5)
        ),
    ],
)
def test_config_rejects_bad_values(overrides):
    # the message names the offending field
    (name,) = overrides
    with pytest.raises(ValueError, match=name):
        SimConfig(**overrides)


def test_config_fast_profile():
    fast = SimConfig().fast()
    assert fast.n_subcarriers == 32
    assert fast.n_tx == 8
    assert fast.n_trials == 200
    assert fast.inr_db == SimConfig().inr_db


def test_config_from_file(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(
        "# reference point\n"
        "n_tx = 4\n"
        "n_subcarriers = 32   # small grid\n"
        "n_taps = 6\n"
        "delta_f = 1e-4\n"
        "inr_db = 35\n"
        "oscillator_mode = shared\n"
        "\n"
    )
    config = SimConfig.from_file(path)
    assert config.n_tx == 4
    assert config.n_subcarriers == 32
    assert config.delta_f == pytest.approx(1e-4)
    assert config.inr_db == 35.0
    assert config.oscillator_mode == "shared"


def test_config_from_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("n_antennas = 4\n")
    with pytest.raises(ValueError, match="unknown key"):
        SimConfig.from_file(path)
    path.write_text("just words\n")
    with pytest.raises(ValueError, match="key = value"):
        SimConfig.from_file(path)
    # keys of settings the simulator never read are unknown too
    path.write_text("sample_time = 5e-7\n")
    with pytest.raises(ValueError, match="unknown key 'sample_time'"):
        SimConfig.from_file(path)
    # settings that changed no result are gone, and a file that still sets
    # one is told so rather than ignored
    for key, value in (
        ("cp_length", "16"), ("symbol_power", "1.0"), ("pdp_shape", "uniform"),
        ("pdp_decay", "4.0"),
    ):
        path.write_text(f"n_tx = 4\n{key} = {value}\n")
        with pytest.raises(
            ValueError, match=rf"bad\.cfg:2: unknown key '{key}'"
        ):
            SimConfig.from_file(path)


def test_config_from_file_names_line_and_key_of_bad_value(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("# trials\nn_tx = 4\nn_trials = 1e3\n")
    with pytest.raises(ValueError, match=r"bad\.cfg:3: n_trials needs int, got '1e3'"):
        SimConfig.from_file(path)
    path.write_text("inr_db = loud\n")
    with pytest.raises(ValueError, match=r"bad\.cfg:1: inr_db needs float"):
        SimConfig.from_file(path)


def test_config_from_file_rejects_a_repeated_key(tmp_path):
    # a repeated key would otherwise let its last value win silently
    path = tmp_path / "twice.cfg"
    path.write_text("n_tx = 2\nn_subcarriers = 32\n\nn_tx = 4\n")
    with pytest.raises(
        ValueError, match=r"twice\.cfg:4: n_tx is set more than once"
    ):
        SimConfig.from_file(path)


def _scenario(config):
    """config's sweep point with its own phase-noise kernel."""
    kernel = pn_covariance_table(config.delta_f, config.n_subcarriers)
    return Scenario.from_config(config, kernel)


def test_derive_powers_reference_point():
    scenario = _scenario(SimConfig())
    # unit noise on each of the 128 subcarriers under 40 dB of SI:
    # N * (1 + 10^(INR/10))
    assert scenario.pre_power == pytest.approx(128.0 * (1.0 + 1e4))
    assert scenario.soi_power == pytest.approx(10.0)
    # 10^4 total SI power split over 64 unit-power transmitters
    assert scenario.channel_power == pytest.approx(156.25)


def test_pdp_profile_shapes():
    config = SimConfig(**SMALL)
    pdp = pdp_profile(config, 8.0)
    assert pdp.sum() == pytest.approx(8.0)
    ratios = pdp[1:] / pdp[:-1]
    # the fixed exponential decay of 4 taps
    np.testing.assert_allclose(ratios, np.exp(-1.0 / 4.0))


def test_scenario_power_bookkeeping():
    config = SimConfig(**SMALL, inr_db=30.0)
    scenario = _scenario(config)
    # INR definition: mean SI power over the symbol / noise floor N, so the
    # SI plus the noise is N * (1 + 10^(INR/10))
    n = config.n_subcarriers
    assert scenario.pre_power == pytest.approx(n * (1.0 + 1e3))
    kernel = pn_covariance_table(config.delta_f, n)
    assert np.array_equal(scenario.pn, kernel)
    # the kernel array takes no part in repr, == or hash
    assert "pn=" not in repr(scenario)
    assert scenario == dataclasses.replace(scenario, pn=np.eye(n))
    assert hash(scenario) == hash(dataclasses.replace(scenario, pn=kernel))


def _trial_cells(config, trial):
    """One trial's (2, 2) residual cells at config's point, run alone
    through the harness: [m, 0] empirical and [m, 1] theoretical residual
    power of method harness._METHODS[m]."""
    return harness._run_chunk([_scenario(config)], [trial], "inr")[:, :, 0, 0]


def test_run_trial_is_deterministic():
    config = SimConfig(**SMALL)
    first = _trial_cells(config, 5)
    np.testing.assert_array_equal(_trial_cells(config, 5), first)
    assert not np.any(_trial_cells(config, 6) == first)


def test_run_trial_wraps_internal_failures(monkeypatch):
    def boom(*args, **kwargs):
        raise SingularMatrixError("synthetic failure")

    monkeypatch.setattr("fdsic.harness.spectral_weights", boom)
    with pytest.raises(
        SingularMatrixError, match="trial 7 at inr=40.0 failed: synthetic"
    ):
        _trial_cells(SimConfig(**SMALL), 7)
    with pytest.raises(
        SingularMatrixError, match="trial 0 at snr=5.0 failed"
    ) as caught:
        sweep(SimConfig(**SMALL), "snr", [5.0])
    # the wrapped error carries its type and message alone, so it crosses a
    # process boundary intact
    copy = pickle.loads(pickle.dumps(caught.value))
    assert type(copy) is SingularMatrixError
    assert str(copy) == str(caught.value)


def test_failure_inside_a_block_names_its_point(monkeypatch):
    # the points of a trial that share delta_f run as one block; a point
    # whose received covariance is not positive definite is named by its
    # own value wherever it sits in the block
    # (a negative SOI power is refused before the covariance is checked,
    # so the block that holds snr=10 gets an indefinite SI spectrum)
    original = harness.spectral_weights

    def indefinite_at_snr_10(spectrum, scale, soi_power):
        if 10.0 in soi_power:
            spectrum = dataclasses.replace(
                spectrum, eigenvalues=spectrum.eigenvalues - 1e12
            )
        return original(spectrum, scale, soi_power)

    monkeypatch.setattr(harness, "spectral_weights", indefinite_at_snr_10)
    with pytest.raises(
        SingularMatrixError, match="trial 0 at snr=10.0 failed: received"
    ):
        sweep(SimConfig(**SMALL), "snr", [0.0, 10.0, 20.0])


def _mark_trial(monkeypatch, trial):
    """Record trial's symbols as the sweep draws them; returns the dict
    that holds them under "symbols"."""
    marked = {}
    draw = harness._run_trial

    def marking_draw(cfg, index, unit_pdp):
        draws = draw(cfg, index, unit_pdp)
        if index == trial:
            marked["symbols"] = draws[0]
        return draws

    monkeypatch.setattr(harness, "_run_trial", marking_draw)
    return marked


def _rows_of(marked, symbols):
    """Which rows of a (B, N) batch of symbols are the marked trial's."""
    return np.array([np.array_equal(row, marked["symbols"]) for row in symbols])


def test_failure_at_a_later_trial_of_a_chunk_names_that_trial(monkeypatch):
    # all five trials run as one chunk, their B*P shifted tridiagonals in
    # one solve; only trial 3's point at snr=10 fails to factor
    config = SimConfig(**{**SMALL, "n_trials": 5})
    assert harness._chunk_size(config) == 5
    marked = _mark_trial(monkeypatch, 3)
    spectrum_of = harness.si_spectrum
    weights_of = harness.spectral_weights

    def marking_spectrum(si_cov, stats):
        marked["rows"] = _rows_of(marked, stats.symbols)
        return spectrum_of(si_cov, stats)

    def broken(spectrum, scale, soi_power):
        weights = weights_of(spectrum, scale, soi_power)
        n = spectrum.eigenvalues.shape[-1]
        diagonal = weights.received_diagonal.reshape(-1, soi_power.size, n)
        diagonal[marked["rows"][:, None] & (soi_power == 10.0), 0] = -1.0
        return weights

    monkeypatch.setattr(harness, "si_spectrum", marking_spectrum)
    monkeypatch.setattr(harness, "spectral_weights", broken)
    with pytest.raises(
        SingularMatrixError, match="trial 3 at snr=10.0 failed: received"
    ):
        sweep(config, "snr", [0.0, 10.0, 20.0])

    # the eigenvalue check before the solve names the trial too
    def indefinite_trial(si_cov, stats):
        spectrum = spectrum_of(si_cov, stats)
        spectrum.eigenvalues[_rows_of(marked, stats.symbols)] = -1e12
        return spectrum

    monkeypatch.setattr(harness, "si_spectrum", indefinite_trial)
    monkeypatch.setattr(harness, "spectral_weights", weights_of)
    with pytest.raises(
        SingularMatrixError, match="trial 3 at snr=0.0 failed: received"
    ):
        sweep(config, "snr", [0.0, 10.0, 20.0])


def test_untagged_failures_in_a_chunk_name_their_trials(monkeypatch):
    # the tridiagonal eigenvalue iteration runs trial by trial; when it
    # fails for trial 3 of a 5-trial chunk, here on a covariance that is
    # not finite, the message names trial 3
    config = SimConfig(**{**SMALL, "n_trials": 5})
    assert harness._chunk_size(config) == 5
    marked = _mark_trial(monkeypatch, 3)
    covariance_of = harness.si_covariance

    def non_finite_trial(stats, pn):
        si_cov = covariance_of(stats, pn)
        si_cov[_rows_of(marked, stats.symbols)] = np.nan
        return si_cov

    monkeypatch.setattr(harness, "si_covariance", non_finite_trial)
    with pytest.raises(
        SingularMatrixError, match="trial 3 at snr=0.0 failed: dsterf"
    ):
        sweep(config, "snr", [0.0, 10.0])
    monkeypatch.setattr(harness, "si_covariance", covariance_of)

    # a failure that carries no trial is traced to the first trial that
    # fails alone ...
    outputs = harness.channel_outputs

    def failing_outputs(symbols, taps):
        if _rows_of(marked, symbols).any():
            raise ValueError("synthetic failure")
        return outputs(symbols, taps)

    monkeypatch.setattr(harness, "channel_outputs", failing_outputs)
    with pytest.raises(
        ValueError, match="trial 3 at snr=0.0 failed: synthetic failure"
    ):
        sweep(config, "snr", [0.0, 10.0])

    # ... and one that no trial raises alone names the chunk's range
    def batch_only_failure(symbols, taps):
        if len(taps) > 1:
            raise ValueError("synthetic failure")
        return outputs(symbols, taps)

    monkeypatch.setattr(harness, "channel_outputs", batch_only_failure)
    with pytest.raises(
        ValueError, match="trials 0-4 at snr=0.0 failed: synthetic failure"
    ):
        sweep(config, "snr", [0.0, 10.0])


def test_failure_at_a_later_bandwidth_names_its_trial_and_point(monkeypatch):
    # each delta_f is its own block, built after the blocks before it; a
    # covariance that is not positive definite for trial 3 at delta_f=0.1
    # only is named there, past the first block
    config = dataclasses.replace(SimConfig().fast(), n_trials=5)
    assert harness._chunk_size(config) == 5
    marked = _mark_trial(monkeypatch, 3)
    widest = pn_covariance_table(0.1, config.n_subcarriers)
    covariance_of = harness.si_covariance

    def negated_trial(stats, kernel):
        si_cov = covariance_of(stats, kernel)
        if np.array_equal(kernel, widest):
            rows = _rows_of(marked, stats.symbols)
            si_cov[rows] = -si_cov[rows]
        return si_cov

    monkeypatch.setattr(harness, "si_covariance", negated_trial)
    with pytest.raises(
        SingularMatrixError,
        match="trial 3 at delta_f=0.1 failed: received covariance",
    ):
        sweep(config, "delta_f", [0.0, 1e-3, 0.1])


def test_block_only_failure_names_the_trial_at_its_first_point(monkeypatch):
    # a failure that only a block of several points raises, and no point
    # raises alone, names the first trial at the block's first point
    original = harness.spectral_weights

    def block_only(spectrum, scale, soi_power):
        if soi_power.size > 1:
            raise SingularMatrixError("synthetic failure")
        return original(spectrum, scale, soi_power)

    monkeypatch.setattr(harness, "spectral_weights", block_only)
    with pytest.raises(
        SingularMatrixError, match="trial 0 at snr=0.0 failed: synthetic"
    ):
        sweep(SimConfig(**SMALL), "snr", [0.0, 10.0, 20.0])


def test_run_trial_ls_floor_without_phase_noise():
    # perfect oscillators: the LS residual is exactly the out-of-span noise
    # plus the SOI it forwards, (N - L) * noise + L * soi
    config = SimConfig(**SMALL, delta_f=0.0, snr_db=10.0)
    (_, ls), (_, optimal) = _trial_cells(config, 0)
    expected = (16 - 4) * 1.0 + 4 * 10.0
    assert ls == pytest.approx(expected, rel=1e-9)
    assert optimal <= expected


def test_run_trial_reports_both_methods():
    config = SimConfig(**SMALL)
    scenario = _scenario(config)
    cells = _trial_cells(config, 1)
    assert harness._METHODS == ("ls", "optimal")
    assert cells.shape == (2, 2)
    for empirical in cells[:, 0]:
        assert empirical > 0.0
        assert np.isfinite(
            cancellation_ability(scenario.pre_power, empirical)
        )


def test_sweep_pairs_trials_across_points():
    config = SimConfig(**SMALL)
    records = sweep(config, "inr", [30.0, 20.0])
    assert [r.value for r in records] == [20.0, 20.0, 30.0, 30.0]
    assert [r.method for r in records] == ["ls", "optimal", "ls", "optimal"]
    assert records[0].trials == config.n_trials
    # one point re-derived trial by trial
    _assert_cells_match_trials(records, config, "inr_db", 20.0)
    # points of one trial that differ in delta_f must not share the trial's
    # covariance decomposition
    records = sweep(config, "delta_f", [1e-4, 1e-2])
    for value in (1e-4, 1e-2):
        _assert_cells_match_trials(records, config, "delta_f", value)
    # every SNR point of a trial runs in one block; each column is the point
    # run alone
    records = sweep(config, "snr", [0.0, 10.0, 20.0])
    for value in (0.0, 10.0, 20.0):
        _assert_cells_match_trials(records, config, "snr_db", value)


@pytest.mark.parametrize("mode", ["per-antenna", "shared"])
def test_sweep_draws_one_realization_per_trial(monkeypatch, mode):
    # INR points rescale one synthesis and one covariance per trial; each
    # delta_f point needs its own.  The walks are drawn once per trial.
    # Synthesis and covariance run once per chunk of trials, so each call
    # counts the trials it covers: the leading axes of its (..., N) SI
    # vectors or (..., N, N) covariances.
    calls = {}

    def counted(name, core_ndim):
        original = getattr(harness, name)

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            covered = int(np.prod(np.shape(result)[: np.ndim(result) - core_ndim]))
            calls[name] = calls.get(name, 0) + covered
            return result

        monkeypatch.setattr(harness, name, wrapper)

    counted("synthesize_received", 1)
    counted("si_covariance", 2)
    # one walk per call
    counted("gen_wiener_phase", 1)
    config = SimConfig(**SMALL, oscillator_mode=mode)
    n_osc = config.n_tx if mode == "per-antenna" else 1
    for variable, values, per_trial in (
        ("inr", [20.0, 30.0, 40.0], 1),
        ("delta_f", [1e-4, 1e-2], 2),
    ):
        calls.clear()
        sweep(config, variable, values)
        assert calls == {
            "synthesize_received": per_trial * config.n_trials,
            "si_covariance": per_trial * config.n_trials,
            "gen_wiener_phase": (n_osc + 1) * config.n_trials,
        }


def test_pn_sweep_gathers_the_delayed_waveforms_once_per_chunk(monkeypatch):
    # the statistics of a chunk hold its delayed symbol waveforms, and every
    # bandwidth's spectrum reads them there: 40 fast-profile trials at four
    # delta_f values run as two chunks and gather twice
    config = dataclasses.replace(SimConfig().fast(), n_trials=40)
    assert harness._chunk_size(config) == 32
    gathers = []
    original = estimator._shifted_waveforms

    def counted(symbols, n_taps):
        gathers.append(symbols.shape)
        return original(symbols, n_taps)

    monkeypatch.setattr(estimator, "_shifted_waveforms", counted)
    sweep(config, "delta_f", [1e-5, 1e-4, 1e-3, 1e-2])
    assert gathers == [(32, 32), (8, 32)]


@pytest.mark.parametrize("mode", ["per-antenna", "shared"])
@pytest.mark.parametrize(
    "variable, values",
    [("inr", [20.0, 50.0]), ("snr", [0.0, 10.0, 20.0]), ("delta_f", [1e-4, 1e-2])],
)
def test_trial_cells_do_not_depend_on_the_chunk(monkeypatch, mode, variable, values):
    # The determinism contract: trial t's cells are bit-identical whether it
    # runs alone, first or last in a chunk, or in a chunk cut short by
    # n_trials.  40 fast-profile trials run as chunks of 32 and 8.
    config = dataclasses.replace(
        SimConfig().fast(), n_trials=40, oscillator_mode=mode
    )
    assert harness._chunk_size(config) == 32
    chunks = []
    original = harness._run_chunk

    def recorded(scenarios, trials, variable):
        cells = original(scenarios, trials, variable)
        chunks.append((list(trials), cells))
        return cells

    monkeypatch.setattr(harness, "_run_chunk", recorded)
    records = sweep(config, variable, values)
    assert [trials for trials, _ in chunks] == [list(range(32)), list(range(32, 40))]
    swept = np.concatenate([cells for _, cells in chunks], axis=-1)

    field = harness._SWEEP_FIELDS[variable]
    scenarios = [
        _scenario(dataclasses.replace(config, **{field: value}))
        for value in values
    ]
    for trial in (0, 1, 31, 32, 39):
        alone = original(scenarios, [trial], variable)[..., 0]
        first = original(scenarios, range(trial, trial + 4), variable)[..., 0]
        last = original(
            scenarios, range(max(trial - 3, 0), trial + 1), variable
        )
        for cells in (swept[..., trial], first, last[..., -1]):
            np.testing.assert_array_equal(cells, alone)
        if variable == "delta_f":
            # every point is a block of its own, as when it runs alone
            for p in range(len(values)):
                np.testing.assert_array_equal(
                    _trial_cells(scenarios[p].config, trial), alone[..., p]
                )
    # the records aggregate exactly these cells
    for record in records:
        p = values.index(record.value)
        m = harness._METHODS.index(record.method)
        assert record.residual_power_mean == float(swept[m, 0, p].mean())


def test_sweep_builds_one_pn_table_per_delta_f(monkeypatch):
    # the kernel depends only on delta_f and N: an INR sweep shares one, a
    # delta_f sweep needs one per value, and none outlives the sweep call
    calls = []
    original = harness.pn_covariance_table

    def counted(delta_f, n_subcarriers):
        calls.append(delta_f)
        return original(delta_f, n_subcarriers)

    monkeypatch.setattr(harness, "pn_covariance_table", counted)
    config = SimConfig(**SMALL)
    for variable, values, expected in (
        ("inr", [20.0, 30.0, 40.0], [config.delta_f]),
        ("delta_f", [1e-4, 1e-2], [1e-4, 1e-2]),
    ):
        calls.clear()
        sweep(config, variable, values)
        assert calls == expected


def test_sweep_runs_at_one_subcarrier():
    # N = 1: a 1 x 1 covariance, no Householder reflector, one tap
    config = SimConfig(
        n_tx=2, n_subcarriers=1, n_taps=1, n_trials=5,
        master_seed=7,
    )
    for variable, values in (("inr", [20.0, 40.0]), ("delta_f", [0.0, 0.1])):
        records = sweep(config, variable, values)
        assert len(records) == 4
        for record in records:
            assert np.isfinite(record.g_empirical_db)
            assert record.residual_power_mean > 0.0
            if record.method == "optimal":
                assert np.isfinite(record.g_theoretical_db)


def test_sweep_calls_no_numpy_linear_algebra(monkeypatch):
    # every BLAS and LAPACK call of a trial goes through scipy.linalg; the
    # numpy wheel bundles a second OpenBLAS whose thread pool would compete
    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError(f"numpy {name} called during a sweep")

        return call

    for name in dir(np.linalg):
        obj = getattr(np.linalg, name)
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        monkeypatch.setattr(np.linalg, name, forbidden(f"linalg.{name}"))
    # numpy's own BLAS entry points; einsum can route through tensordot
    for name in ("dot", "vdot", "inner", "tensordot", "einsum"):
        monkeypatch.setattr(np, name, forbidden(name))
    config = SimConfig(**SMALL)
    sweep(config, "inr", [20.0, 50.0])
    sweep(config, "delta_f", [0.0, 0.1])
    _trial_cells(config, 0)


# The (get, set) thread-count functions of scipy's OpenBLAS, or None.
BLAS_THREADS = estimator._openblas_thread_functions()
needs_openblas = pytest.mark.skipif(
    BLAS_THREADS is None,
    reason="no OpenBLAS thread-count functions found behind scipy.linalg, "
    "so one_blas_thread leaves the BLAS as it is",
)


@pytest.fixture
def two_blas_threads():
    """Set scipy's OpenBLAS to two threads for the test, so that a restored
    count differs from the pinned one; put the original count back after."""
    get_threads, set_threads = BLAS_THREADS
    original = get_threads()
    set_threads(2)
    try:
        if get_threads() != 2:
            pytest.skip("scipy's OpenBLAS does not take a second thread")
        yield get_threads
    finally:
        set_threads(original)


def record_blas_threads(monkeypatch, get_threads) -> list[int]:
    """The thread counts in effect at each si_spectrum call, as they come."""
    seen = []
    original = harness.si_spectrum

    def recording(*args, **kwargs):
        seen.append(get_threads())
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, "si_spectrum", recording)
    return seen


@needs_openblas
def test_sweep_runs_on_one_blas_thread(monkeypatch, two_blas_threads):
    seen = record_blas_threads(monkeypatch, two_blas_threads)
    config = SimConfig(**SMALL)
    sweep(config, "delta_f", [1e-4, 1e-2])
    assert seen == [1, 1]
    assert two_blas_threads() == 2
    sweep(config, "inr", [40.0])
    assert seen == [1, 1, 1]
    assert two_blas_threads() == 2


@needs_openblas
def test_failed_sweep_restores_the_blas_thread_count(
    monkeypatch, two_blas_threads
):
    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(harness, "si_spectrum", boom)
    with pytest.raises(RuntimeError, match="synthetic failure"):
        sweep(SimConfig(**SMALL), "inr", [40.0])
    assert two_blas_threads() == 2


@needs_openblas
def test_validation_suites_run_on_one_blas_thread(
    monkeypatch, two_blas_threads
):
    from fdsic import validation

    # check_pn_covariance returns one result per bandwidth, the others one
    monkeypatch.setattr(
        validation,
        "check_pn_covariance",
        lambda *args, **kwargs: [two_blas_threads(), two_blas_threads()],
    )
    for name in (
        "check_si_covariance",
        "check_qp_oracle",
        "check_model_equivalence",
    ):
        monkeypatch.setattr(
            validation, name, lambda *args, **kwargs: two_blas_threads()
        )
    assert validation.run_all(fast=True) == [1] * 5
    assert two_blas_threads() == 2


@needs_openblas
def test_blas_thread_pin_changes_no_output(
    monkeypatch, tmp_path, two_blas_threads
):
    # the reference node, whose N = 128 products are the largest a sweep
    # runs, gives the same bytes on one thread and on two
    config = SimConfig(n_trials=2)
    pinned, unpinned = tmp_path / "pinned.csv", tmp_path / "unpinned.csv"
    emit_csv(sweep(config, "delta_f", [1e-4, 1e-2]), pinned)
    seen = record_blas_threads(monkeypatch, two_blas_threads)
    monkeypatch.setattr(estimator, "_openblas_thread_functions", lambda: None)
    emit_csv(sweep(config, "delta_f", [1e-4, 1e-2]), unpinned)
    assert seen == [2, 2]
    assert unpinned.read_bytes() == pinned.read_bytes()


def test_sweep_transforms_no_n_by_n_matrix(monkeypatch):
    # the spectral engine runs on the sample-domain covariance, so no FFT of
    # an INR or a delta_f sweep carries an N x N matrix to the subcarrier
    # domain; only vectors and N x P blocks are transformed
    config = SimConfig(**SMALL)
    n = config.n_subcarriers

    def guarded(name, transform):
        def call(a, *args, **kwargs):
            if np.ndim(a) >= 2 and np.shape(a)[-2:] == (n, n):
                raise AssertionError(
                    f"numpy.fft.{name} of an N x N matrix during a sweep"
                )
            return transform(a, *args, **kwargs)

        return call

    for name in dir(np.fft):
        obj = getattr(np.fft, name)
        if name.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        monkeypatch.setattr(np.fft, name, guarded(name, obj))
    sweep(config, "inr", [20.0, 50.0])
    sweep(config, "delta_f", [0.0, 0.1])


def _assert_cells_match_trials(records, config, field, value):
    point = dataclasses.replace(config, **{field: value})
    trials = np.array([_trial_cells(point, t) for t in range(config.n_trials)])
    cells = {r.method: r for r in records if r.value == value}
    for m, (method, rel) in enumerate((("ls", 1e-12), ("optimal", 1e-9))):
        mean = trials[:, m, 0].mean()
        assert cells[method].residual_power_mean == pytest.approx(mean, rel=rel)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(inr_db=110.0),
        dict(delta_f=0.0),
        dict(delta_f=0.1),
        dict(n_tx=1),
        dict(oscillator_mode="shared"),
        dict(n_subcarriers=1024),
    ],
    ids=[
        "inr110", "no-phase-noise", "delta-f-0.1", "one-tx", "shared-osc",
        "n1024",
    ],
)
def test_sweep_edge_configs_track_theory(overrides):
    # extreme but legal settings of the reference node run, and the
    # prediction stays within the acceptance tolerance of the simulation
    config = SimConfig(n_trials=4, **overrides)
    records = sweep(config, "inr", [config.inr_db])
    optimal = [r for r in records if r.method == "optimal"]
    assert len(optimal) == 1
    assert abs(optimal[0].g_theoretical_db - optimal[0].g_empirical_db) <= 1.0


def test_sweep_records_theory_for_both_methods():
    config = SimConfig(**SMALL)
    records = sweep(config, "delta_f", [1e-3])
    assert sorted(r.method for r in records) == ["ls", "optimal"]
    for record in records:
        assert np.isfinite(record.g_theoretical_db)


def test_sweep_reaches_the_high_inr_limits():
    # Strong SI on the reference node at SNR 10 and delta_f 1e-3.  The
    # optimal residual tends to the SOI power N*soi that V removes with the
    # SI, so the ability tends to INR - SNR.  The LS residual tends to
    # s*tr{(I - P) A0}, so its ability tends to the ceiling
    # 10 log10(E tr A0 / E tr{(I - P) A0}), which depends on delta_f alone;
    # E tr A0 = N * n_tx for unit-power symbols and profile.  Measured at
    # 40 trials: optimal 79.91/99.91 dB (CI 0.14), LS 24.33 dB (CI 0.67)
    # with prediction 24.18 dB, against a ceiling of 24.15-24.25 dB over
    # three sets of 10 symbol draws.
    config = SimConfig(n_trials=40)
    records = sweep(config, "inr", [90.0, 110.0])
    cells = {(r.value, r.method): r for r in records}
    pdp = pdp_profile(config, 1.0)
    kernel = pn_covariance_table(config.delta_f, config.n_subcarriers)
    rng = np.random.default_rng(5)
    symbols = np.array(
        [gen_bpsk_symbols(config.n_subcarriers, rng) for _ in range(10)]
    )
    stats = EstimatorStatistics(symbols, pdp, config.n_tx)
    spectrum = si_spectrum(si_covariance(stats, kernel), stats)
    ceiling = 10.0 * np.log10(
        config.n_subcarriers * config.n_tx / np.mean(spectrum.ls_leakage)
    )
    for inr in (90.0, 110.0):
        optimal = cells[(inr, "optimal")]
        limit = inr - config.snr_db
        assert abs(optimal.g_theoretical_db - limit) <= 0.01
        assert abs(optimal.g_empirical_db - limit) <= (
            optimal.ci_halfwidth_db + 0.1
        )
        ls = cells[(inr, "ls")]
        assert abs(ls.g_theoretical_db - ceiling) <= 0.25
        assert abs(ls.g_empirical_db - ceiling) <= ls.ci_halfwidth_db + 0.25
    # the ceiling no longer moves with the SI level
    assert abs(
        cells[(110.0, "ls")].g_empirical_db - cells[(90.0, "ls")].g_empirical_db
    ) <= 0.01


def test_sweep_validation():
    config = SimConfig(**SMALL)
    with pytest.raises(ValueError):
        sweep(config, "bandwidth", [1.0])
    with pytest.raises(ValueError):
        sweep(config, "inr", [])


def test_sweep_rejects_repeated_values():
    # a repeated value would write every (value, method) row twice
    config = SimConfig(**SMALL)
    with pytest.raises(ValueError, match="sweep value 20.0 appears more than once"):
        sweep(config, "inr", [20.0, 30.0, 20])
    with pytest.raises(ValueError, match="0.001"):
        sweep(config, "delta_f", [1e-3, 1e-3])


def _traced_peak(config, variable, values):
    """tracemalloc's peak over one sweep, after a one-point sweep of the
    same config has run outside the count."""
    sweep(config, variable, values[:1])
    tracemalloc.start()
    try:
        sweep(config, variable, values)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bandwidth_sweep_holds_one_bandwidth_at_a_time():
    # A reference-node delta_f sweep of one chunk: si_spectrum works in the
    # covariance it is handed, and each bandwidth's spectrum and SI vectors
    # are gone before the next covariance is built.  It peaked at 4.13 MB
    # with a copy per zhetrd call and every group's arrays alive, and peaks
    # at 2.95 MB now.
    peak = _traced_peak(
        SimConfig(n_trials=2), "delta_f", [1e-5, 1e-4, 1e-3, 1e-2]
    )
    assert peak < 3.25e6, peak


def test_large_trial_tridiagonalizes_in_place():
    # One trial at N = 512 holds S, A_t and the reflector copy, 12.6 MB of
    # its 16.3 MB peak; an N x N copy per zhetrd call took it to 20.8 MB.
    peak = _traced_peak(SimConfig(n_subcarriers=512, n_trials=1), "inr", [40.0])
    assert peak < 17.5e6, peak


@pytest.mark.parametrize(
    "overrides, values, message",
    [
        (dict(n_subcarriers=2**15), [40.0], "n_subcarriers=32768 with "
         "n_tx=64 needs about 56.2 GiB of arrays per chunk, above the 2 GiB "
         "limit"),
        (dict(n_subcarriers=8192), [40.0], "n_subcarriers=8192 with n_tx=64 "
         "needs about 3.5 GiB"),
        # 80 GiB of per-antenna arrays at N = 32
        (dict(n_subcarriers=32, n_tx=2**25), [40.0], "n_tx=33554432 needs "
         "about 80.0 GiB"),
        # N = 4096 fits alone; 3000 INR points of one delta_f add 1.8 GiB of
        # received blocks, estimates and residuals
        (dict(n_subcarriers=4096), [0.02 * i for i in range(3000)],
         "n_subcarriers=4096 with n_tx=64 at 3000 points needs about 2.7 GiB"),
    ],
    ids=["n32768", "n8192", "n-tx-2**25", "n4096-3000-points"],
)
def test_sweep_rejects_an_over_budget_config_up_front(
    monkeypatch, overrides, values, message
):
    # the estimate is arithmetic: nothing is built or drawn before the
    # config is rejected
    def no_table(*args, **kwargs):
        raise AssertionError("a table was built before the config was rejected")

    monkeypatch.setattr(harness, "pn_covariance_table", no_table)
    config = SimConfig(n_trials=1, **overrides)
    with pytest.raises(ValueError, match=re.escape(message)):
        sweep(config, "inr", values)


@pytest.mark.parametrize(
    "overrides, values",
    [
        (dict(n_subcarriers=512), [40.0]),
        (dict(n_subcarriers=32, n_tx=16384), [40.0]),
        (dict(n_subcarriers=256), list(np.linspace(0.0, 60.0, 200))),
    ],
    ids=["n512", "n32-16384-antennas", "n256-200-points"],
)
def test_working_set_bounds_the_traced_peak(overrides, values):
    # one trial's tracemalloc peak against the estimate the budget is held
    # to: 0.94, 0.90 and 0.86 of it; before the points counted, 200 INR
    # points at N = 256 peaked at 2.27 times the estimate
    config = SimConfig(n_trials=1, **overrides)
    peak = _traced_peak(config, "inr", values)
    estimate = harness._working_set(config, 1, len(values))
    assert peak <= estimate, (peak, estimate)


def test_working_set_budget_admits_n4096():
    # the n1024 edge config runs; N = 4096 is the largest power of two the
    # budget admits on the reference node, at about 0.9 GiB
    for n, fits in ((1024, True), (4096, True), (8192, False)):
        working_set = harness._working_set(SimConfig(n_subcarriers=n), 1, 1)
        assert (working_set <= harness._WORKING_SET_BUDGET) is fits, n
    # every distinct bandwidth keeps its kernel for the whole sweep
    config = SimConfig(n_subcarriers=2048)
    one = harness._working_set(config, 1, 1)
    assert harness._working_set(config, 3, 1) - one == 2 * 8 * 2048**2


def test_single_trial_sweep_has_zero_interval():
    config = SimConfig(**{**SMALL, "n_trials": 1})
    records = sweep(config, "inr", [40.0])
    assert all(r.ci_halfwidth_db == 0.0 for r in records)


def test_csv_roundtrip_is_lossless(tmp_path):
    config = SimConfig(**SMALL)
    records = sweep(config, "inr", [20.0, 40.0])
    path = tmp_path / "out.csv"
    emit_csv(records, path)
    assert read_csv(path) == records
    # no prediction is an empty cell, and LS's clamped zero residual an
    # infinite ability
    record = dataclasses.replace(
        records[0], g_theoretical_db=None, g_empirical_db=math.inf
    )
    emit_csv([record], path)
    row = path.read_text().splitlines()[1].split(",")
    assert row[CSV_COLUMNS.index("g_theo_db")] == ""
    assert row[CSV_COLUMNS.index("g_emp_db")] == "inf"
    assert read_csv(path) == [record]


def test_reference_csvs_reread_byte_for_byte(tmp_path):
    # the benchmark's committed reference outputs, with their empty LS
    # g_theo_db cells, come back unchanged through read_csv and emit_csv
    root = Path(__file__).resolve().parents[1] / "perfbench" / "reference"
    paths = sorted(root.glob("*/*.csv"))
    assert len(paths) == 48
    empty_cells = 0
    for path in paths:
        records = read_csv(path)
        empty_cells += sum(r.g_theoretical_db is None for r in records)
        emit_csv(records, tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes(), path
    assert empty_cells > 0


def test_csv_emission_is_byte_stable(tmp_path):
    config = SimConfig(**SMALL)
    records = sweep(config, "snr", [5.0])
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(records, a)
    emit_csv(records, b)
    assert a.read_bytes() == b.read_bytes()


def test_read_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "alien.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        read_csv(path)


@pytest.mark.parametrize(
    "row",
    [
        ["inr", "20.0", "optimal", "11.0", "", "1.0"],
        ["inr", "20.0", "optimal", "11.0", "", "1.0", "3", "0.5", "7"],
    ],
    ids=["short", "long"],
)
def test_read_csv_rejects_a_row_of_the_wrong_length(tmp_path, row):
    path = tmp_path / "rows.csv"
    good = "inr,20.0,ls,10.0,,1.0,3,0.5"
    path.write_text(f"{','.join(CSV_COLUMNS)}\n{good}\n{','.join(row)}\n")
    message = rf"rows\.csv:3: expected 8 fields, got {len(row)}"
    with pytest.raises(ValueError, match=message):
        read_csv(path)


@pytest.mark.parametrize(
    "row, message",
    [
        ("inr,20.0,ls,abc,,1.0,3,0.5",
         "g_emp_db: could not convert string to float: 'abc'"),
        ("inr,20.0,ls,10.0,,1.0,8.0,0.5",
         "trials: invalid literal for int() with base 10: '8.0'"),
    ],
    ids=["non-numeric", "float-trials"],
)
def test_read_csv_names_the_line_and_column_of_a_bad_cell(tmp_path, row, message):
    path = tmp_path / "cells.csv"
    good = "inr,20.0,ls,10.0,,1.0,3,0.5"
    path.write_text(f"{','.join(CSV_COLUMNS)}\n{good}\n{row}\n")
    with pytest.raises(ValueError) as caught:
        read_csv(path)
    assert str(caught.value) == f"{path}:3: {message}"


def test_json_summary(tmp_path):
    config = SimConfig(**SMALL, delta_f=1e-4, oscillator_mode="shared")
    records = sweep(config, "inr", [40.0])
    path = tmp_path / "summary.json"
    write_json_summary(path, config, records, "sweep-inr")
    payload = json.loads(path.read_text())
    assert payload["command"] == "sweep-inr"
    assert payload["config"]["n_subcarriers"] == 16
    # the echo holds every SimConfig field and nothing else, so the summary
    # alone rebuilds the configuration that produced it
    echo = payload["config"]
    assert set(echo) == {field.name for field in dataclasses.fields(SimConfig)}
    assert SimConfig(**echo) == config
    # the records round-trip losslessly
    assert [SweepRecord(**r) for r in payload["records"]] == records
    assert "version" in payload
    # the thread count sweeps run with, read back from scipy's OpenBLAS
    assert payload["blas_threads"] == (None if BLAS_THREADS is None else 1)


def test_json_summary_without_openblas_records_null(monkeypatch, tmp_path):
    monkeypatch.setattr(estimator, "_openblas_thread_functions", lambda: None)
    config = SimConfig(**SMALL)
    path = tmp_path / "summary.json"
    write_json_summary(path, config, sweep(config, "inr", [40.0]), "sweep-inr")
    assert json.loads(path.read_text())["blas_threads"] is None


def test_sweep_record_round_half_even_not_involved():
    # records compare by value; a rebuilt record equals the original
    record = SweepRecord(
        sweep_variable="inr",
        value=40.0,
        method="ls",
        g_empirical_db=24.123456789,
        g_theoretical_db=None,
        residual_power_mean=1.5e3,
        trials=10,
        ci_halfwidth_db=0.25,
    )
    rebuilt = dataclasses.replace(record)
    assert rebuilt == record

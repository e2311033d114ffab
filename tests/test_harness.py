"""Configuration handling, trial execution, sweeps and serialization."""

import dataclasses
import json

import numpy as np
import pytest

from fdsic.estimator import SingularMatrixError
from fdsic.harness import (
    Scenario,
    SimConfig,
    SweepRecord,
    derive_powers,
    emit_csv,
    pdp_profile,
    read_csv,
    run_trial,
    sweep,
    write_json_summary,
)

SMALL = dict(
    n_tx=2,
    n_subcarriers=16,
    cp_length=4,
    n_taps=4,
    n_trials=3,
    master_seed=99,
)


def test_config_defaults_describe_reference_node():
    config = SimConfig()
    assert config.n_tx == 64
    assert config.n_subcarriers == 128
    assert config.cp_length == 16
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
        dict(cp_length=128),
        dict(pdp_decay=0.0),
        dict(oscillator_mode="odd"),
        dict(pdp_shape="gaussian"),
        dict(delta_f=-1e-3),
        dict(symbol_power=0.0),
        dict(n_trials=0),
        dict(master_seed=-1),
    ],
)
def test_config_rejects_bad_values(overrides):
    with pytest.raises(ValueError):
        SimConfig(**overrides)


def test_config_warns_when_channel_outruns_prefix():
    with pytest.warns(UserWarning, match="prefix"):
        SimConfig(cp_length=8, n_taps=10)


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
        "cp_length = 8\n"
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


def test_config_from_file_names_line_and_key_of_bad_value(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("# trials\nn_tx = 4\nn_trials = 1e3\n")
    with pytest.raises(ValueError, match=r"bad\.cfg:3: n_trials needs int, got '1e3'"):
        SimConfig.from_file(path)
    path.write_text("inr_db = loud\n")
    with pytest.raises(ValueError, match=r"bad\.cfg:1: inr_db needs float"):
        SimConfig.from_file(path)


def test_derive_powers_reference_point():
    powers = derive_powers(SimConfig())
    assert powers.noise_power == 1.0
    assert powers.soi_power == pytest.approx(10.0)
    # 10^4 total SI power split over 64 unit-power transmitters
    assert powers.channel_power == pytest.approx(156.25)


def test_pdp_profile_shapes():
    config = SimConfig(**SMALL)
    pdp = pdp_profile(config, 8.0)
    assert pdp.sum() == pytest.approx(8.0)
    ratios = pdp[1:] / pdp[:-1]
    np.testing.assert_allclose(ratios, np.exp(-1.0 / config.pdp_decay))
    flat = pdp_profile(
        dataclasses.replace(config, pdp_shape="uniform"), 8.0
    )
    np.testing.assert_allclose(flat, 2.0)


def test_scenario_power_bookkeeping():
    config = SimConfig(**SMALL, inr_db=30.0)
    scenario = Scenario.from_config(config)
    # INR definition: mean SI power over the symbol / noise floor
    assert scenario.si_power / scenario.noise_floor == pytest.approx(1e3)
    assert scenario.noise_floor == config.n_subcarriers * 1.0


def test_run_trial_is_deterministic():
    config = SimConfig(**SMALL)
    first = run_trial(config, 5)
    second = run_trial(config, 5)
    assert first == second
    other = run_trial(config, 6)
    assert other != first


def test_run_trial_rejects_negative_index():
    with pytest.raises(ValueError):
        run_trial(SimConfig(**SMALL), -1)


def test_run_trial_wraps_internal_failures(monkeypatch):
    def boom(*args, **kwargs):
        raise SingularMatrixError("synthetic failure")

    monkeypatch.setattr("fdsic.harness.spectral_weights", boom)
    with pytest.raises(
        SingularMatrixError, match="trial 7 at inr=40.0 failed: synthetic"
    ):
        run_trial(SimConfig(**SMALL), 7)
    with pytest.raises(SingularMatrixError, match="trial 0 at snr=5.0 failed"):
        sweep(SimConfig(**SMALL), "snr", [5.0])


def test_run_trial_ls_floor_without_phase_noise():
    # perfect oscillators: the LS residual is exactly the out-of-span noise
    # plus the SOI it forwards, (N - L) * noise + L * soi
    config = SimConfig(**SMALL, delta_f=0.0, snr_db=10.0)
    result = run_trial(config, 0)
    expected = (16 - 4) * 1.0 + 4 * 10.0
    assert result.ls.residual_power_theoretical == pytest.approx(
        expected, rel=1e-9
    )
    assert result.optimal.residual_power_theoretical <= expected


def test_run_trial_reports_both_methods():
    config = SimConfig(**SMALL)
    result = run_trial(config, 1)
    assert result.optimal.method == "optimal"
    assert result.ls.method == "ls"
    for report in (result.optimal, result.ls):
        assert report.residual_power_empirical > 0.0
        assert np.isfinite(report.ability_db)


def test_sweep_pairs_trials_across_points():
    config = SimConfig(**SMALL)
    records = sweep(config, "inr", [30.0, 20.0])
    assert [r.value for r in records] == [20.0, 20.0, 30.0, 30.0]
    assert [r.method for r in records] == ["ls", "optimal", "ls", "optimal"]
    assert records[0].trials == config.n_trials
    # one point re-derived straight from run_trial
    _assert_cells_match_run_trial(records, config, "inr_db", 20.0)
    # points of one trial that differ in delta_f must not share the trial's
    # covariance decomposition
    records = sweep(config, "delta_f", [1e-4, 1e-2])
    for value in (1e-4, 1e-2):
        _assert_cells_match_run_trial(records, config, "delta_f", value)


def _assert_cells_match_run_trial(records, config, field, value):
    point = dataclasses.replace(config, **{field: value})
    trials = [run_trial(point, t) for t in range(config.n_trials)]
    cells = {r.method: r for r in records if r.value == value}
    for method, rel in (("ls", 1e-12), ("optimal", 1e-9)):
        mean = np.mean(
            [getattr(t, method).residual_power_empirical for t in trials]
        )
        assert cells[method].residual_power_mean == pytest.approx(mean, rel=rel)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(inr_db=110.0),
        dict(delta_f=0.0),
        dict(delta_f=0.1),
        dict(n_tx=1),
        dict(oscillator_mode="shared"),
    ],
    ids=["inr110", "no-phase-noise", "delta-f-0.1", "one-tx", "shared-osc"],
)
def test_sweep_edge_configs_track_theory(overrides):
    # extreme but legal settings of the reference node run, and the
    # prediction stays within the acceptance tolerance of the simulation
    config = SimConfig(n_trials=4, **overrides)
    records = sweep(config, "inr", [config.inr_db])
    optimal = [r for r in records if r.method == "optimal"]
    assert len(optimal) == 1
    assert abs(optimal[0].g_theoretical_db - optimal[0].g_empirical_db) <= 1.0


def test_sweep_records_theory_for_optimal_only():
    config = SimConfig(**SMALL)
    records = sweep(config, "delta_f", [1e-3])
    by_method = {r.method: r for r in records}
    assert by_method["ls"].g_theoretical_db is None
    assert by_method["optimal"].g_theoretical_db is not None


def test_sweep_validation():
    config = SimConfig(**SMALL)
    with pytest.raises(ValueError):
        sweep(config, "bandwidth", [1.0])
    with pytest.raises(ValueError):
        sweep(config, "inr", [])


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


def test_json_summary(tmp_path):
    config = SimConfig(**SMALL)
    records = sweep(config, "inr", [40.0])
    path = tmp_path / "summary.json"
    write_json_summary(path, config, records, "sweep-inr")
    payload = json.loads(path.read_text())
    assert payload["command"] == "sweep-inr"
    assert payload["config"]["n_subcarriers"] == 16
    assert len(payload["records"]) == 2
    assert "version" in payload


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

"""Command line entry points, exercised in process through main()."""

import json
import warnings

import pytest

from fdsic import cli, harness, validation
from fdsic.cli import main
from fdsic.harness import read_csv

# Worst errors of `validate --fast`.  The three Monte Carlo figures move far
# beyond rel 1e-6 with any change to the oracles' seeds, sizes or the row
# layout of their one full-size draw of normals, but only in the last
# digits when the reduction order or the block size changes, so the pin
# holds the draws fixed.  The last two are round-off figures of the QP and
# synthesis oracles.
FAST_WORST_ERRORS = (
    5.5396625491361264e-05,
    1.7958827599347642e-04,
    1.566269051045393e-02,
    2.9189196985939057e-13,
    4.131041056466832e-16,
)


def test_single_point_smoke(capsys):
    code = main(["single", "--fast", "--trials", "3", "--inr", "30"])
    assert code == 0
    out = capsys.readouterr().out
    assert "ls" in out and "optimal" in out
    assert "dB" in out


def test_sweep_writes_csv_and_summary(tmp_path):
    csv_path = tmp_path / "pn.csv"
    json_path = tmp_path / "pn.json"
    code = main(
        [
            "sweep-pn",
            "--fast",
            "--trials",
            "2",
            "--values",
            "1e-4,1e-3",
            "--out",
            str(csv_path),
            "--json-summary",
            str(json_path),
        ]
    )
    assert code == 0
    records = read_csv(csv_path)
    assert len(records) == 4
    assert {r.method for r in records} == {"ls", "optimal"}
    payload = json.loads(json_path.read_text())
    assert payload["command"] == "sweep-pn"
    assert payload["config"]["n_trials"] == 2


def test_sweep_default_output_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["sweep-inr", "--fast", "--trials", "2", "--values", "25"])
    assert code == 0
    assert (tmp_path / "sweep_inr.csv").exists()


def test_config_file_round_trip(tmp_path, capsys):
    cfg = tmp_path / "node.cfg"
    cfg.write_text(
        "n_tx = 2\nn_subcarriers = 16\nn_taps = 3\n"
        "n_trials = 2\nmaster_seed = 7\n"
    )
    code = main(["single", "--config", str(cfg)])
    assert code == 0
    assert "inr=40" in capsys.readouterr().out


def test_seed_flag_changes_results(tmp_path):
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    base = ["sweep-snr", "--fast", "--trials", "2", "--values", "10"]
    main(base + ["--seed", "1", "--out", str(a)])
    main(base + ["--seed", "1", "--out", str(b)])
    main(base + ["--seed", "2", "--out", str(c)])
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_validate_fast_smoke(capsys, monkeypatch):
    results = []
    run_all = validation.run_all

    def recording_run_all(fast):
        results.extend(run_all(fast=fast))
        return results

    # validate looks run_all up in fdsic.validation when it runs
    monkeypatch.setattr(validation, "run_all", recording_run_all)
    code = main(["validate", "--fast"])
    out = capsys.readouterr().out
    assert code == 0, out
    lines = [line for line in out.splitlines() if line]
    assert len(lines) == 5
    assert all(line.startswith("PASS") for line in lines)
    worst = [result.worst_error for result in results]
    assert worst == pytest.approx(FAST_WORST_ERRORS, rel=1e-6)
    # the mixing oracle reports its bandwidths in increasing order
    assert [result.detail.split()[0] for result in results[:2]] == [
        "delta_f=0.0001", "delta_f=0.001",
    ]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["single", "--fast", "--delta-f", "nan"], "delta_f must be finite"),
        (["sweep-inr", "--fast", "--values", "20,20"],
         "sweep value 20.0 appears more than once"),
        (["sweep-inr", "--fast", "--values", "20,abc"],
         "could not convert string to float: 'abc'"),
        (["sweep-inr", "--fast", "--trials", "0"], "n_trials must be positive"),
        (["sweep-inr", "--fast", "--values", "4000"],
         "inr_db must be within ±300 dB"),
    ],
    ids=[
        "delta-f-nan", "repeated-value", "non-numeric-value", "zero-trials",
        "inr-sweep-value-4000",
    ],
)
def test_rejected_input_is_a_usage_error(capsys, argv, message):
    # argparse's usage error: status 2 and a message naming the setting or
    # value, not a traceback
    with pytest.raises(SystemExit) as caught:
        main(argv)
    assert caught.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: fdsic")
    assert message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["single", "--fast", "--inr", "4000"], "inr_db must be within ±300 dB"),
        (["single", "--fast", "--snr", "-4000"], "snr_db must be within"),
        (["single", "--fast", "--inr", "3080"], "inr_db must be within"),
        (["single", "--fast", "--snr", "400"], "snr_db must be within"),
        (["sweep-snr", "--fast", "--trials", "2", "--values", ""],
         "argument --values: could not convert string to float: ''"),
        (["sweep-snr", "--fast", "--values", "0,5,"],
         "argument --values: could not convert string to float: ''"),
    ],
    ids=[
        "inr-4000", "snr-minus-4000", "inr-3080", "snr-400", "empty-values",
        "empty-value-item",
    ],
)
def test_unresolvable_power_or_empty_values_fail_before_any_trial(
    capsys, monkeypatch, argv, message
):
    # INR and SNR beyond what the power arithmetic resolves, and sweep
    # values with an empty item, are usage errors that name the setting;
    # "--values" given but empty no longer falls back to the default points
    def no_sweep(*args, **kwargs):
        raise AssertionError("a trial ran before the input was rejected")

    monkeypatch.setattr(cli, "sweep", no_sweep)
    with pytest.raises(SystemExit) as caught:
        main(argv)
    assert caught.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: fdsic")
    assert message in err


@pytest.mark.parametrize(
    "setting",
    [
        ["--inr", "110"], ["--inr", "300"], ["--snr", "-300"],
        # a bandwidth whose phase increment variance stays finite, also
        # where its product with the longest lags overflows (1e307 at N = 32)
        ["--delta-f", "0.1"], ["--delta-f", "1e300"], ["--delta-f", "1e307"],
    ],
    ids=[
        "inr-110", "inr-300", "snr-minus-300", "delta-f-0.1", "delta-f-1e300",
        "delta-f-1e307",
    ],
)
def test_powers_within_the_limit_run(capsys, setting):
    # they run without a floating-point warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["single", "--fast", "--trials", "2", *setting])
    assert code == 0
    out = capsys.readouterr().out
    assert "ls" in out and "optimal" in out


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["single", "--fast", "--delta-f", "1e308"], None,
         "error: delta_f=1e+308 overflows"),
        (["sweep-pn", "--fast", "--values", "0.001,1e308"], None,
         "error: delta_f=1e+308 overflows"),
        (["single", "--fast"], "delta_f = 1e308\n",
         "node.cfg: delta_f=1e+308 overflows"),
        # at N = 1 the pair's 8*pi*delta_f/N overflows while one
        # oscillator's 4*pi*delta_f/N does not
        (["single"], "n_subcarriers = 1\nn_taps = 1\ndelta_f = 1e307\n",
         "node.cfg: delta_f=1e+307 overflows"),
    ],
    ids=["single-1e308", "sweep-pn-1e308", "config-1e308", "config-n1-1e307"],
)
def test_overflowing_phase_noise_bandwidth_fails_before_any_trial(
    tmp_path, capsys, monkeypatch, argv, config, message
):
    # a bandwidth whose phase increment variance is not finite is a usage
    # error, not a failure mid-run after floating-point warnings
    def no_chunk(*args, **kwargs):
        raise AssertionError("a trial ran before the input was rejected")

    monkeypatch.setattr(harness, "_run_chunk", no_chunk)
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "node.cfg").write_text(config)
        argv = [*argv, "--config", "node.cfg"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as caught:
            main(argv)
    assert caught.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: fdsic")
    assert message in err


def test_over_budget_config_file_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # a node whose sweep would need more than the working-set budget is
    # rejected before any table is built, naming N and the estimate
    def no_table(*args, **kwargs):
        raise AssertionError("a table was built before the config was rejected")

    monkeypatch.setattr(harness, "pn_covariance_table", no_table)
    cfg = tmp_path / "node.cfg"
    cfg.write_text("n_subcarriers = 32768\n")
    with pytest.raises(SystemExit) as caught:
        main(["single", "--trials", "1", "--config", str(cfg)])
    assert caught.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: fdsic")
    assert "n_subcarriers=32768 with n_tx=64 needs about 56.2 GiB" in err


def test_rejected_config_file_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "node.cfg"
    for text, message in (
        ("n_tx = many\n", "n_tx needs int, got 'many'"),
        # settings the simulator no longer has
        ("n_tx = 2\ncp_length = 16\n", "node.cfg:2: unknown key 'cp_length'"),
        ("symbol_power = 1.0\n", "node.cfg:1: unknown key 'symbol_power'"),
        ("pdp_shape = uniform\n", "node.cfg:1: unknown key 'pdp_shape'"),
        # the delay profile's decay is fixed
        ("n_tx = 2\npdp_decay = 4\n", "node.cfg:2: unknown key 'pdp_decay'"),
    ):
        cfg.write_text(text)
        with pytest.raises(SystemExit) as caught:
            main(["single", "--config", str(cfg)])
        assert caught.value.code == 2
        assert message in capsys.readouterr().err


def test_repeated_config_key_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "node.cfg"
    cfg.write_text("n_tx = 2\nn_tx = 4\n")
    with pytest.raises(SystemExit) as caught:
        main(["single", "--fast", "--trials", "1", "--config", str(cfg)])
    assert caught.value.code == 2
    assert "node.cfg:2: n_tx is set more than once" in capsys.readouterr().err


def test_missing_config_file_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "no-such.cfg"
    with pytest.raises(SystemExit) as caught:
        main(["single", "--config", str(cfg)])
    assert caught.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: fdsic")
    assert f"cannot read config file {cfg}" in err


def test_undecodable_config_file_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"n_tx = 2\n\xff\n")
    with pytest.raises(SystemExit) as caught:
        main(["single", "--fast", "--config", str(cfg)])
    assert caught.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: fdsic")
    assert f"{cfg}: 'utf-8' codec can't decode byte 0xff" in err


def test_config_file_value_rejected_by_the_config_names_it(tmp_path, capsys):
    # the file's settings are checked as a whole before any flag overrides
    # them, so the file is what the error names
    cfg = tmp_path / "node.cfg"
    for text, message in (
        ("n_trials = 0\n", "n_trials must be positive"),
        ("inr_db = 4000\n", "inr_db must be within ±300 dB"),
    ):
        cfg.write_text(text)
        with pytest.raises(SystemExit) as caught:
            main(["single", "--fast", "--trials", "3", "--config", str(cfg)])
        assert caught.value.code == 2
        assert f"{cfg}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--out", "--json-summary"])
def test_output_path_is_checked_before_any_trial(
    tmp_path, capsys, monkeypatch, flag
):
    def no_sweep(*args, **kwargs):
        raise AssertionError("a trial ran before the output path was checked")

    monkeypatch.setattr(cli, "sweep", no_sweep)
    for target, reason in (
        (tmp_path / "no-such-dir" / "x.out", "no directory"),
        (tmp_path, "it is a directory"),
    ):
        argv = ["sweep-snr", "--fast", "--trials", "2", flag, str(target)]
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: fdsic")
        assert f"cannot write {target}: {reason}" in err


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["single", "--out", "r.csv", "--json-summary", "./r.csv"],
         "--out and --json-summary"),
        (["single", "--config", "node.cfg", "--out", "node.cfg"],
         "--config and --out"),
        (["single", "--config", "node.cfg", "--json-summary", "sub/../node.cfg"],
         "--config and --json-summary"),
        # the CSV a sweep writes when --out is not given
        (["sweep-inr", "--config", "sweep_inr.csv"], "--config and --out"),
    ],
    ids=["out-summary", "config-out", "config-summary", "config-default-out"],
)
def test_two_flags_naming_one_file_are_a_usage_error(
    tmp_path, capsys, monkeypatch, argv, flags
):
    def no_sweep(*args, **kwargs):
        raise AssertionError("a trial ran before the paths were compared")

    monkeypatch.setattr(cli, "sweep", no_sweep)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    for name in ("node.cfg", "sweep_inr.csv"):
        (tmp_path / name).write_text("n_tx = 4\n")
    with pytest.raises(SystemExit) as caught:
        main([*argv, "--fast", "--trials", "1"])
    assert caught.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: fdsic")
    assert f"{flags} name the same file" in err
    assert (tmp_path / "node.cfg").read_text() == "n_tx = 4\n"


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])

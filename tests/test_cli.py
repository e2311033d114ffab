"""Command line entry points, exercised in process through main()."""

import json

import pytest

from fdsic import cli, validation
from fdsic.cli import main
from fdsic.harness import read_csv

# Worst errors of `validate --fast`.  The three Monte Carlo figures move far
# beyond rel 1e-6 with any change to the oracles' seeds, draw order or
# sizes, but only in the last digits when the reduction order changes, so
# the pin holds the draws fixed.  The last two are round-off figures of the
# QP and synthesis oracles.
FAST_WORST_ERRORS = (
    5.5291830688617674e-05,
    1.764923472995542e-04,
    1.0591140423063012e-02,
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

    def recording_run_all(fast):
        results.extend(validation.run_all(fast=fast))
        return results

    monkeypatch.setattr(cli, "run_all", recording_run_all)
    code = main(["validate", "--fast"])
    out = capsys.readouterr().out
    assert code == 0, out
    lines = [line for line in out.splitlines() if line]
    assert len(lines) == 5
    assert all(line.startswith("PASS") for line in lines)
    worst = [result.worst_error for result in results]
    assert worst == pytest.approx(FAST_WORST_ERRORS, rel=1e-6)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["single", "--fast", "--delta-f", "nan"], "delta_f must be finite"),
        (["sweep-inr", "--fast", "--values", "20,20"],
         "sweep value 20.0 appears more than once"),
        (["sweep-inr", "--fast", "--values", "20,abc"],
         "could not convert string to float: 'abc'"),
        (["sweep-inr", "--fast", "--trials", "0"], "n_trials must be positive"),
    ],
    ids=["delta-f-nan", "repeated-value", "non-numeric-value", "zero-trials"],
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


def test_rejected_config_file_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "node.cfg"
    for text, message in (
        ("n_tx = many\n", "n_tx needs int, got 'many'"),
        # settings the simulator no longer has
        ("n_tx = 2\ncp_length = 16\n", "node.cfg:2: unknown key 'cp_length'"),
        ("symbol_power = 1.0\n", "node.cfg:1: unknown key 'symbol_power'"),
        ("pdp_shape = uniform\n", "node.cfg:1: unknown key 'pdp_shape'"),
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
    cfg.write_text("n_trials = 0\n")
    with pytest.raises(SystemExit) as caught:
        main(["single", "--fast", "--trials", "3", "--config", str(cfg)])
    assert caught.value.code == 2
    assert f"{cfg}: n_trials must be positive" in capsys.readouterr().err


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


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])

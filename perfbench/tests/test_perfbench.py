"""Tests of the benchmark itself: the output checker, the tracer, the seed
mapping and the result contract.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from fdsic.cli import main
from fdsic.harness import emit_csv, read_csv

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent


def _perturbed(tmp_path, reference, value, method, shift_in_ci):
    records = []
    for record in read_csv(reference):
        if (record.value, record.method) == (value, method):
            record = dataclasses.replace(
                record,
                g_empirical_db=record.g_empirical_db
                + shift_in_ci * record.ci_halfwidth_db,
            )
        records.append(record)
    path = tmp_path / "perturbed.csv"
    emit_csv(records, path)
    return path


@pytest.mark.parametrize("name", ["inr-ref", "pn-ref", "snr-fast"])
def test_every_reference_passes_its_own_check(name):
    workload = workloads.WORKLOADS[name]
    for seed in range(workloads.REFERENCE_SEEDS):
        reference = workloads.reference_path(workload, seed)
        assert workloads.check_sweep_csv(reference, reference) == []


@pytest.mark.parametrize(
    "shift_in_ci, rejected", [(0.5, False), (-0.9, False), (1.5, True), (-1.5, True)]
)
def test_checker_rejects_only_beyond_the_ci(tmp_path, shift_in_ci, rejected):
    reference = workloads.reference_path(workloads.WORKLOADS["inr-ref"], 0)
    out = _perturbed(tmp_path, reference, 35.0, "ls", shift_in_ci)
    problems = workloads.check_sweep_csv(out, reference)
    assert bool(problems) == rejected
    if rejected:
        assert "(35.0, 'ls')" in problems[0]


def test_checker_rejects_theory_miss_and_lost_ordering(tmp_path):
    reference = workloads.reference_path(workloads.WORKLOADS["pn-ref"], 0)
    records = read_csv(reference)
    ls_top = max(r.g_empirical_db for r in records if r.method == "ls")
    broken = [
        dataclasses.replace(r, g_empirical_db=ls_top - 5.0)
        if (r.value, r.method) == (1e-05, "optimal") else r
        for r in records
    ]
    # Compare against itself so only the seed-independent rules can fire.
    path = tmp_path / "broken.csv"
    emit_csv(broken, path)
    problems = " ".join(workloads.check_sweep_csv(path, path))
    assert "exceeds 1.0 dB" in problems
    assert "<= ls" in problems


def test_checker_reports_unreadable_output(tmp_path):
    reference = workloads.reference_path(workloads.WORKLOADS["inr-ref"], 0)
    problems = workloads.check_sweep_csv(tmp_path / "missing.csv", reference)
    assert problems and "unreadable" in problems[0]


def _namespaces():
    return {
        (id(owner), attr): (owner.__dict__ if isinstance(owner, type) else owner)[attr]
        for owner, attr, _ in spans._targets()
    }


def test_tracer_restores_everything_and_keeps_the_csv(tmp_path):
    argv = ["sweep-snr", "--fast", "--trials", "3", "--seed", "5"]
    before = _namespaces()
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = _namespaces()
        assert all(wrapped[key] is not before[key] for key in before)
        assert main(argv + ["--out", str(tmp_path / "traced.csv")]) == 0
    finally:
        assert tracer.uninstall()
    after = _namespaces()
    assert all(after[key] is before[key] for key in before)
    assert main(argv + ["--out", str(tmp_path / "plain.csv")]) == 0
    assert (tmp_path / "traced.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()

    metrics, problems = spans.layer_metrics([tracer.take()])
    assert problems == []
    # Fast profile: 8 transmit oscillators plus the receiver's.
    assert metrics["impairments.gen_wiener_phase.calls_per_trial"] == 9.0
    assert metrics["harness.trial.ms_p50"] > 0.0
    assert metrics["validation.check_qp_oracle.ms"] == 0.0


def test_span_accounting_flags_a_child_outside_its_parent():
    names = ["harness.trial", "estimator.si_covariance"]
    good = {"names": names, "spans": [[0, 0, 100, 0, 0, -1, 0], [1, 10, 60, 0, 0, 0, 0]]}
    metrics, problems = spans.layer_metrics([good])
    assert problems == []
    assert metrics["harness.trial.self_ms_per_trial"] == pytest.approx(50e-6)
    assert metrics["estimator.si_covariance.ms_per_trial"] == pytest.approx(50e-6)
    bad = {"names": names, "spans": [[0, 0, 100, 0, 0, -1, 0], [1, 90, 160, 0, 0, 0, 0]]}
    _, problems = spans.layer_metrics([bad])
    assert problems


def test_two_seeds_give_different_csvs(tmp_path):
    workload = workloads.WORKLOADS["snr-fast"]
    assert workloads.master_seed(0) == 20260818
    assert workloads.master_seed(0) != workloads.master_seed(1)
    outputs = []
    for seed in (0, 1):
        out = tmp_path / f"seed{seed}.csv"
        assert main(workloads.op_argv(workload, seed, out)) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] != outputs[1]


def _run_benchmark(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_reports_every_declared_metric(trace, section):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run_benchmark(
        ROOT, "--workload", "snr-fast", "--seed", "3", "--seconds", "1",
        "--trace", trace,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in declared[section]}
    for metric in declared[section]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run_benchmark(
        tmp_path, "--workload", "snr-fast", "--seed", "0", "--seconds", "1",
        "--trace", "0",
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

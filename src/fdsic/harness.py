"""Monte Carlo harness: scenario configuration, trial execution, sweeps and
deterministic CSV / JSON emission.

Powers are normalized to a unit per-subcarrier noise floor.  The INR setting
fixes the total SI channel power, the SNR setting fixes the SOI power, and
every trial draws fresh symbols, channels, phase traces, SOI and noise from
a stream derived only from (master_seed, trial_index), so sweep points are
paired and any (config, seed, trial) triple reproduces bit-identical output.
"""

import csv
import dataclasses
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence
import warnings

import numpy as np

from . import __version__
from .cancellation import (
    CancellationReport,
    cancel,
    cancellation_ability,
    reconstruct_si,
    si_power,
)
from .estimator import (
    EstimatorStatistics,
    SiSpectrum,
    ls_estimate,
    ls_residual_power,
    si_covariance,
    si_spectrum,
    spectral_weights,
)
from .impairments import (
    OSCILLATOR_MODES,
    PnCovarianceTable,
    gen_awgn,
    gen_si_channel,
    gen_wiener_phase,
    phase_increment_variance,
    pn_covariance_table,
    synthesize_received,
)
from .ofdm import gen_bpsk_symbols

SWEEP_VARIABLES = ("inr", "snr", "delta_f")
_SWEEP_FIELDS = {"inr": "inr_db", "snr": "snr_db", "delta_f": "delta_f"}
CSV_COLUMNS = (
    "sweep_var",
    "value",
    "method",
    "g_emp_db",
    "g_theo_db",
    "resid_mean",
    "trials",
    "ci_db",
)


@dataclass(frozen=True)
class SimConfig:
    """Scenario parameters; defaults describe the reference full-duplex node."""

    n_tx: int = 64
    n_subcarriers: int = 128
    cp_length: int = 16
    n_taps: int = 16
    subcarrier_spacing: float = 15e3
    sample_time: float | None = None
    modulation: str = "bpsk"
    symbol_power: float = 1.0
    delta_f: float = 1e-3
    inr_db: float = 40.0
    snr_db: float = 10.0
    n_trials: int = 500
    master_seed: int = 20260818
    oscillator_mode: str = "per-antenna"
    pdp_shape: str = "exponential"
    pdp_decay: float = 4.0

    def __post_init__(self):
        if self.n_tx < 1 or self.n_subcarriers < 1 or self.n_taps < 1:
            raise ValueError("n_tx, n_subcarriers and n_taps must be positive")
        if self.n_taps > self.n_subcarriers:
            raise ValueError("n_taps cannot exceed n_subcarriers")
        if self.cp_length < 0 or self.cp_length >= self.n_subcarriers:
            raise ValueError("cp_length must be in [0, n_subcarriers)")
        if self.modulation != "bpsk":
            raise ValueError(f"unsupported modulation {self.modulation!r}")
        if self.oscillator_mode not in OSCILLATOR_MODES:
            raise ValueError(
                f"oscillator_mode must be one of {OSCILLATOR_MODES}"
            )
        if self.pdp_shape not in ("exponential", "uniform"):
            raise ValueError("pdp_shape must be 'exponential' or 'uniform'")
        if self.delta_f < 0.0 or self.symbol_power <= 0.0 or self.pdp_decay <= 0.0:
            raise ValueError("delta_f, symbol_power and pdp_decay out of range")
        if self.n_trials < 1:
            raise ValueError("n_trials must be positive")
        if self.master_seed < 0:
            raise ValueError("master_seed must be non-negative")
        if self.n_taps > self.cp_length + 1:
            warnings.warn(
                "channel exceeds the cyclic prefix, symbols would overlap",
                UserWarning,
                stacklevel=2,
            )
        if self.sample_time is not None:
            nominal = 1.0 / (self.subcarrier_spacing * self.n_subcarriers)
            if abs(self.sample_time / nominal - 1.0) > 0.05:
                warnings.warn(
                    "sample_time deviates more than 5% from "
                    "1/(subcarrier_spacing * n_subcarriers)",
                    UserWarning,
                    stacklevel=2,
                )

    @property
    def effective_sample_time(self) -> float:
        if self.sample_time is not None:
            return self.sample_time
        return 1.0 / (self.subcarrier_spacing * self.n_subcarriers)

    def fast(self) -> "SimConfig":
        """Reduced profile for smoke runs: smaller array and fewer trials."""
        return replace(self, n_subcarriers=32, n_tx=8, n_trials=200)

    @classmethod
    def from_file(cls, path: str | Path) -> "SimConfig":
        """Parse a plain 'key = value' file, one setting per line, '#' comments."""
        fields = {f.name: f for f in dataclasses.fields(cls)}
        values: dict = {}
        text = Path(path).read_text()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in fields:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = _coerce(key, value)
        return cls(**values)


def _coerce(key: str, value: str):
    int_keys = {"n_tx", "n_subcarriers", "cp_length", "n_taps", "n_trials",
                "master_seed"}
    float_keys = {"subcarrier_spacing", "sample_time", "symbol_power",
                  "delta_f", "inr_db", "snr_db", "pdp_decay"}
    if key in int_keys:
        return int(value)
    if key in float_keys:
        return float(value)
    return value


@dataclass(frozen=True)
class PowerAllocation:
    """Derived power levels: unit noise, SOI from SNR, per-antenna channel
    power from INR."""

    noise_power: float
    soi_power: float
    channel_power: float


def derive_powers(config: SimConfig) -> PowerAllocation:
    """Back-solve the additive power levels from the configured ratios.

    The noise floor is the reference (noise_power = 1); the per-antenna
    channel power is chosen so that the mean SI power over one symbol hits
    the configured INR.
    """
    noise_power = 1.0
    soi_power = float(10.0 ** (config.snr_db / 10.0))
    channel_power = float(
        10.0 ** (config.inr_db / 10.0)
        * noise_power
        / (config.symbol_power * config.n_tx)
    )
    return PowerAllocation(
        noise_power=noise_power,
        soi_power=soi_power,
        channel_power=channel_power,
    )


def pdp_profile(config: SimConfig, total_power: float) -> np.ndarray:
    """Tap power profile with the requested shape, summing to total_power."""
    if config.pdp_shape == "exponential":
        weights = np.exp(-np.arange(config.n_taps) / config.pdp_decay)
    else:
        weights = np.ones(config.n_taps)
    return total_power * weights / weights.sum()


@dataclass(frozen=True)
class Scenario:
    """Per-sweep-point precomputation shared by all trials."""

    config: SimConfig
    powers: PowerAllocation
    pdp: np.ndarray
    pn: PnCovarianceTable
    si_power: float
    noise_floor: float

    @classmethod
    def from_config(cls, config: SimConfig) -> "Scenario":
        powers = derive_powers(config)
        pdp = pdp_profile(config, powers.channel_power)
        pn = pn_covariance_table(
            config.delta_f, config.n_subcarriers, config.oscillator_mode
        )
        return cls(
            config=config,
            powers=powers,
            pdp=pdp,
            pn=pn,
            si_power=si_power(
                config.symbol_power, pdp, config.n_tx, config.n_subcarriers
            ),
            noise_floor=config.n_subcarriers * powers.noise_power,
        )


@dataclass(frozen=True)
class TrialResult:
    optimal: CancellationReport
    ls: CancellationReport


def _run_trial(
    scenario: Scenario,
    rng: np.random.Generator,
    spectra: dict[tuple, SiSpectrum],
) -> TrialResult:
    cfg = scenario.config
    n = cfg.n_subcarriers
    symbols = gen_bpsk_symbols(n, cfg.symbol_power, rng)
    channels = gen_si_channel(cfg.n_tx, cfg.n_taps, scenario.pdp, rng)
    n_osc = cfg.n_tx if cfg.oscillator_mode == "per-antenna" else 1
    variance = scenario.pn.increment_variance
    tx_traces = [gen_wiener_phase(n, variance, rng) for _ in range(n_osc)]
    rx_trace = gen_wiener_phase(n, variance, rng)
    received = synthesize_received(
        symbols,
        channels,
        tx_traces,
        rx_trace,
        scenario.powers.soi_power,
        scenario.powers.noise_power,
        rng,
    )

    # The SI covariance is channel_power * A0, where A0 depends on the symbols,
    # the oscillator statistics and the delay profile shape but not on INR or
    # SNR, so sweep points sharing those share one decomposition.
    key = (
        symbols.tobytes(),
        cfg.delta_f,
        cfg.oscillator_mode,
        cfg.n_tx,
        cfg.n_taps,
        cfg.pdp_shape,
        cfg.pdp_decay,
    )
    spectrum = spectra.get(key)
    if spectrum is None:
        stats = EstimatorStatistics(
            symbols=symbols,
            pn=scenario.pn,
            pdp=pdp_profile(cfg, 1.0),
            n_tx=cfg.n_tx,
            noise_power=scenario.powers.noise_power,
            soi_power=scenario.powers.soi_power,
        )
        spectrum = si_spectrum(si_covariance(stats), symbols, cfg.n_taps)
        spectra[key] = spectrum
    scale = scenario.powers.channel_power
    noise_power = scenario.powers.noise_power
    soi_power = scenario.powers.soi_power

    # The optimal method subtracts the weighted estimate directly; the LS
    # baseline reconstructs from its tap estimate.
    weights = spectral_weights(spectrum, scale, noise_power, soi_power)
    residual_opt = (
        cancel(received.total, weights.estimate(received.total)) - received.soi
    )
    opt_report = _report(
        "optimal", residual_opt, weights.residual_power, scenario
    )

    taps_ls = ls_estimate(received.total, symbols, cfg.n_taps)
    residual_ls = (
        cancel(received.total, reconstruct_si(symbols, taps_ls)) - received.soi
    )
    theo_ls = ls_residual_power(spectrum, scale, noise_power, soi_power)
    ls_report = _report("ls", residual_ls, theo_ls, scenario)
    return TrialResult(optimal=opt_report, ls=ls_report)


def _report(
    method: str,
    residual: np.ndarray,
    theoretical: float,
    scenario: Scenario,
) -> CancellationReport:
    empirical = float(np.vdot(residual, residual).real)
    return CancellationReport(
        method=method,
        residual_power_empirical=empirical,
        residual_power_theoretical=theoretical,
        si_power=scenario.si_power,
        noise_floor=scenario.noise_floor,
        ability_db=cancellation_ability(
            scenario.si_power, scenario.noise_floor, empirical
        ),
    )


def run_trial(config: SimConfig, trial_index: int) -> TrialResult:
    """Run one seeded trial: both methods on the identical realization."""
    if trial_index < 0:
        raise ValueError("trial_index must be non-negative")
    scenario = Scenario.from_config(config)
    return _run_trial_checked(scenario, trial_index, {}, "inr")


def _run_trial_checked(
    scenario: Scenario,
    trial_index: int,
    spectra: dict[tuple, SiSpectrum],
    variable: str,
) -> TrialResult:
    rng = np.random.default_rng(
        [scenario.config.master_seed, trial_index]
    )
    try:
        return _run_trial(scenario, rng, spectra)
    except Exception as exc:
        value = getattr(scenario.config, _SWEEP_FIELDS[variable])
        raise type(exc)(
            f"trial {trial_index} at {variable}={value!r} failed: {exc}"
        ) from exc


@dataclass(frozen=True)
class SweepRecord:
    """Aggregate of one (sweep value, method) cell."""

    sweep_variable: str
    value: float
    method: str
    g_empirical_db: float
    g_theoretical_db: float | None
    residual_power_mean: float
    trials: int
    ci_halfwidth_db: float


def sweep(
    config: SimConfig, variable: str, values: Sequence[float]
) -> list[SweepRecord]:
    """Monte Carlo sweep of one scenario variable.

    Every sweep point runs config.n_trials trials whose random streams
    depend only on (master_seed, trial_index), so points are paired.  Trials
    run trial-major, each one visiting every point in turn, so the points
    of one trial share its SI covariance decomposition.  Records come back
    sorted by (value, method).
    """
    if variable not in SWEEP_VARIABLES:
        raise ValueError(f"variable must be one of {SWEEP_VARIABLES}")
    if len(values) == 0:
        raise ValueError("values must be non-empty")
    field = _SWEEP_FIELDS[variable]
    scenarios = [
        Scenario.from_config(replace(config, **{field: float(value)}))
        for value in values
    ]
    results: list[list[TrialResult]] = [[] for _ in scenarios]
    for trial in range(config.n_trials):
        spectra: dict[tuple, SiSpectrum] = {}
        for scenario, point_results in zip(scenarios, results):
            point_results.append(
                _run_trial_checked(scenario, trial, spectra, variable)
            )
    records = []
    for value, scenario, point_results in zip(values, scenarios, results):
        for method in ("ls", "optimal"):
            reports = [getattr(result, method) for result in point_results]
            records.append(_aggregate(variable, value, method, reports, scenario))
    records.sort(key=lambda record: (record.value, record.method))
    return records


def _aggregate(
    variable: str,
    value: float,
    method: str,
    reports: list[CancellationReport],
    scenario: Scenario,
) -> SweepRecord:
    empirical = np.array([r.residual_power_empirical for r in reports])
    abilities = np.array([r.ability_db for r in reports])
    resid_mean = float(empirical.mean())
    g_emp = cancellation_ability(
        scenario.si_power, scenario.noise_floor, resid_mean
    )
    if method == "optimal":
        theo_mean = float(
            np.mean([r.residual_power_theoretical for r in reports])
        )
        g_theo = cancellation_ability(
            scenario.si_power, scenario.noise_floor, theo_mean
        )
    else:
        g_theo = None
    if len(reports) > 1:
        ci = float(1.96 * abilities.std(ddof=1) / np.sqrt(len(reports)))
    else:
        ci = 0.0
    return SweepRecord(
        sweep_variable=variable,
        value=float(value),
        method=method,
        g_empirical_db=g_emp,
        g_theoretical_db=g_theo,
        residual_power_mean=resid_mean,
        trials=len(reports),
        ci_halfwidth_db=ci,
    )


def emit_csv(records: Iterable[SweepRecord], path: str | Path) -> None:
    """Write sweep records as CSV, sorted by (value, method), full float
    precision so a round trip through read_csv is lossless."""
    ordered = sorted(records, key=lambda r: (r.value, r.method))
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for record in ordered:
            writer.writerow(
                [
                    record.sweep_variable,
                    repr(record.value),
                    record.method,
                    repr(record.g_empirical_db),
                    "" if record.g_theoretical_db is None
                    else repr(record.g_theoretical_db),
                    repr(record.residual_power_mean),
                    record.trials,
                    repr(record.ci_halfwidth_db),
                ]
            )


def read_csv(path: str | Path) -> list[SweepRecord]:
    """Parse a CSV written by emit_csv back into records."""
    records = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != list(CSV_COLUMNS):
            raise ValueError(f"unexpected CSV header in {path}")
        for row in reader:
            records.append(
                SweepRecord(
                    sweep_variable=row[0],
                    value=float(row[1]),
                    method=row[2],
                    g_empirical_db=float(row[3]),
                    g_theoretical_db=None if row[4] == "" else float(row[4]),
                    residual_power_mean=float(row[5]),
                    trials=int(row[6]),
                    ci_halfwidth_db=float(row[7]),
                )
            )
    return records


def summarize(
    config: SimConfig, records: Sequence[SweepRecord], command: str
) -> dict:
    """JSON-ready summary: version, command, configuration echo, records."""
    return {
        "version": __version__,
        "command": command,
        "config": dataclasses.asdict(config),
        "records": [dataclasses.asdict(record) for record in records],
    }


def write_json_summary(
    path: str | Path,
    config: SimConfig,
    records: Sequence[SweepRecord],
    command: str,
) -> None:
    payload = summarize(config, records, command)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

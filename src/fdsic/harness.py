"""Monte Carlo harness: scenario configuration, trial execution, sweeps and
deterministic CSV / JSON emission.

Every power is relative to the receiver noise, unit power per subcarrier.
The INR setting fixes the total SI channel power and the SNR setting fixes
the SOI power.  Each trial draws one realization at unit scale (symbols,
channels with the PDP_DECAY delay profile, phase walks, SOI and noise) from
a stream derived only from (master_seed, trial_index), and every sweep
point of that trial only rescales it.  A sweep runs its trials in
memory-bounded chunks through the estimator as one batch; a trial's cells
do not depend on the chunk it runs in.  Sweep points are therefore paired,
and any (config, seed, trial) triple reproduces bit-identical output.
"""

import csv
import dataclasses
import json
import math
import sys
import typing
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import __version__
from .cancellation import reconstruct_si
from .estimator import (
    EstimatorStatistics,
    SiSpectrum,
    ls_estimate,
    ls_residual_power,
    one_blas_thread,
    si_covariance,
    si_spectrum,
    spectral_weights,
)
from .impairments import (
    channel_outputs,
    gen_awgn,
    gen_si_channel,
    gen_wiener_phase,
    phase_increment_variance,
    pn_covariance_table,
    synthesize_received,
)
from .ofdm import gen_bpsk_symbols

OSCILLATOR_MODES = ("per-antenna", "shared")
_SWEEP_FIELDS = {"inr": "inr_db", "snr": "snr_db", "delta_f": "delta_f"}
SWEEP_VARIABLES = tuple(_SWEEP_FIELDS)
# Decay, in taps, of the SI channel's exponential power delay profile.
PDP_DECAY = 4.0
# Largest |INR| or |SNR| in dB: every cell matches its prediction at 300 dB,
# while at 400 dB the unit noise floor drowns in round-off.
_DB_LIMIT = 300.0
# Complex entries a chunk of trials may hold per N x N covariance stack
# (B*N^2) or per channel-output stack (B*n_tx*N): 32 trials on the fast
# profile, 2 on the reference node, 1 from N = 256 on.
_CHUNK_ENTRIES = 2**15
# Largest array working set of a sweep's chunk, in bytes (_working_set); a
# sweep that needs more is rejected before its first table is built.  A
# constant, so that whether a config runs does not depend on the machine.
_WORKING_SET_BUDGET = 2 * 2**30
# Bytes a chunk holds per (trial, antenna, sample) entry at its peak: the
# channel outputs, the walks before and after they are stacked and scaled,
# and the rotation and its product with the outputs.  Measured at N = 32
# with 32768 and 131072 antennas: 82 bytes of peak RSS, 72 under
# tracemalloc.
_ANTENNA_ENTRY_BYTES = 80
# The methods along the first axis of a sweep's residual array; its second
# axis holds the empirical and the theoretical residual power.
_METHODS = ("ls", "optimal")
# The CSV names of SweepRecord's fields, in field order (JSON keeps theirs).
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
    n_taps: int = 16
    delta_f: float = 1e-3
    inr_db: float = 40.0
    snr_db: float = 10.0
    n_trials: int = 500
    master_seed: int = 20260818
    oscillator_mode: str = "per-antenna"

    def __post_init__(self):
        for name in ("inr_db", "snr_db", "delta_f"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            if name.endswith("_db") and abs(value) > _DB_LIMIT:
                raise ValueError(f"{name} must be within ±{_DB_LIMIT:g} dB")
        if self.n_tx < 1 or self.n_subcarriers < 1 or self.n_taps < 1:
            raise ValueError("n_tx, n_subcarriers and n_taps must be positive")
        if self.n_taps > self.n_subcarriers:
            raise ValueError("n_taps cannot exceed n_subcarriers")
        if self.oscillator_mode not in OSCILLATOR_MODES:
            raise ValueError(
                f"oscillator_mode must be one of {OSCILLATOR_MODES}"
            )
        # rejects a negative delta_f; the pair's 8*pi*delta_f/N must be finite
        pair = 2.0 * phase_increment_variance(self.delta_f, self.n_subcarriers)
        if not math.isfinite(pair):
            raise ValueError(f"delta_f={self.delta_f!r} overflows 8*pi*delta_f/N")
        if self.n_trials < 1:
            raise ValueError("n_trials must be positive")
        if self.master_seed < 0:
            raise ValueError("master_seed must be non-negative")

    def fast(self) -> "SimConfig":
        """Reduced profile for smoke runs: smaller array and fewer trials."""
        return replace(self, n_subcarriers=32, n_tx=8, n_trials=200)

    @classmethod
    def from_file(cls, path: str | Path) -> "SimConfig":
        """Parse a plain 'key = value' file, one setting per line, '#' comments.

        Each value is converted by its field's type (int, float or str).  A
        key may appear only once.  Text that does not decode and values the
        config rejects raise ValueError naming the file.
        """
        fields = {f.name: f for f in dataclasses.fields(cls)}
        values: dict = {}
        try:
            text = Path(path).read_text()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in fields:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ValueError(f"{path}:{lineno}: {key} is set more than once")
            kind = fields[key].type
            try:
                values[key] = kind(value)
            except ValueError as exc:
                raise ValueError(
                    f"{path}:{lineno}: {key} needs {kind.__name__}, got {value!r}"
                ) from exc
        try:
            return cls(**values)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc


def pdp_profile(config: SimConfig, total_power: float) -> np.ndarray:
    """Exponential tap power profile exp(-l / PDP_DECAY), summing to
    total_power."""
    weights = np.exp(-np.arange(config.n_taps) / PDP_DECAY)
    return total_power * weights / weights.sum()


@dataclass(frozen=True)
class Scenario:
    """What every trial of one sweep point reads.

    channel_power is the per-antenna channel power that puts the mean SI
    power N * n_tx * sum(pdp) over one symbol of unit-power symbols at the
    configured INR above the unit-power noise floor N; soi_power follows
    from the SNR.  pre_power, the SI-plus-noise power before cancellation,
    is the numerator of the point's cancellation ability.  pn is the
    point's (N, N) phase correlation kernel (pn_covariance_table), which
    depends only on delta_f and N, so a sweep builds it once per distinct
    delta_f and shares it; it takes no part in repr, == or hash.
    """

    config: SimConfig
    pn: np.ndarray = dataclasses.field(repr=False, compare=False)
    channel_power: float
    soi_power: float
    pre_power: float

    @classmethod
    def from_config(cls, config: SimConfig, pn: np.ndarray) -> "Scenario":
        channel_power = float(10.0 ** (config.inr_db / 10.0) / config.n_tx)
        n = config.n_subcarriers
        pdp = pdp_profile(config, channel_power)
        return cls(
            config=config,
            pn=pn,
            channel_power=channel_power,
            soi_power=float(10.0 ** (config.snr_db / 10.0)),
            pre_power=float(n * config.n_tx * pdp.sum()) + n,
        )


def _chunk_size(config: SimConfig) -> int:
    """Trials per chunk: as many as keep the chunk's covariance and
    channel-output stacks within _CHUNK_ENTRIES entries, at least one."""
    n = config.n_subcarriers
    per_trial = max(n * n, config.n_tx * n)
    return max(1, min(config.n_trials, _CHUNK_ENTRIES // per_trial))


def _working_set(config: SimConfig, n_kernels: int) -> int:
    """Bytes of arrays a sweep's largest chunk holds at its peak, with
    n_kernels distinct phase-noise bandwidths.

    Per trial of the chunk: three complex N x N stacks (the sample
    covariance S, the SI covariance A_t that si_spectrum tridiagonalizes in
    place, and the copy of its reflectors) and _ANTENNA_ENTRY_BYTES per
    antenna and sample; per bandwidth, one real N x N kernel.  At N = 512,
    1024 and 2048, one trial at one point with 64 antennas peaks about 17,
    65 and 232 MiB above the 42.6 MiB of a sweep at N = 8, and the terms
    add up to 16.5, 61.0 and 234.0 MiB: a least-squares coefficient of
    1.00, so the terms stand as the estimate.
    """
    n = config.n_subcarriers
    trials = _chunk_size(config)
    per_trial = 3 * 16 * n * n + _ANTENNA_ENTRY_BYTES * config.n_tx * n
    return trials * per_trial + n_kernels * 8 * n * n


def _run_trial(
    config: SimConfig, trial_index: int, unit_pdp: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Trial trial_index's realization at unit scale.

    The trial's stream default_rng([master_seed, trial_index]) is drawn
    once, in a fixed order: symbols, unit-power channel taps (unit_pdp is
    the delay profile at unit channel power), one unit-variance Wiener walk
    per transmit oscillator plus one for the receiver, the SOI, then the
    noise.  Returns (symbols, taps, walks, soi, noise), with the walks
    listed transmitters first, receiver last.
    """
    n = config.n_subcarriers
    rng = np.random.default_rng([config.master_seed, trial_index])
    symbols = gen_bpsk_symbols(n, rng)
    taps = gen_si_channel(config.n_tx, unit_pdp, rng)
    n_osc = config.n_tx if config.oscillator_mode == "per-antenna" else 1
    walks = [gen_wiener_phase(n, rng) for _ in range(n_osc + 1)]
    soi = gen_awgn(n, rng)
    noise = gen_awgn(n, rng)
    return symbols, taps, walks, soi, noise


def _run_chunk(
    scenarios: Sequence[Scenario], trials: Sequence[int], variable: str
) -> np.ndarray:
    """A chunk of trials at every sweep point, as one batch.

    The scenarios differ only in the swept field and what follows from it.
    Each trial draws its own realization (_run_trial), and each point only
    rescales it: the channel power scales the SI, the SOI power scales the
    SOI, and the phase-noise bandwidth scales the walks.  The channel
    outputs and the symbols' delayed waveforms and sample covariances are
    built once per chunk, the SI vectors and the SI covariance
    decompositions once per distinct delta_f, and the points that share a
    delta_f run through both cancellers as one block.

    Returns residual powers of shape (2, 2, P, B): [m, 0] the empirical and
    [m, 1] the theoretical residual of method _METHODS[m], at point p in
    the chunk's trial b.

    A failure keeps its type and is named by replay, since only the
    harness knows the chunk's layout.  A trial's numbers do not depend on
    its chunk, nor a point's on the rest of its block, so a failed chunk of
    several trials reruns them one at a time, and a single trial whose
    failing block has several points reruns that block one point at a
    time.  The first rerun that fails alone raises its own error; if none
    does, the error names the chunk's trials at the first point of the
    failing block.
    """
    cfg = scenarios[0].config
    # the swept fields leave the delay profile alone
    unit_pdp = pdp_profile(cfg, 1.0)
    draws = [_run_trial(cfg, trial, unit_pdp) for trial in trials]
    symbols, taps, walks, soi, noise = (np.array(part) for part in zip(*draws))
    del draws

    groups: dict[float, list[int]] = {}
    for index, scenario in enumerate(scenarios):
        groups.setdefault(scenario.config.delta_f, []).append(index)
    residuals = np.empty((len(_METHODS), 2, len(scenarios), len(trials)))
    # a failure before the first block names the first point
    group = next(iter(groups.values()))
    try:
        outputs = channel_outputs(symbols, taps)
        # A0 does not depend on the oscillator mode: the channels are
        # independent and zero-mean, so only same-antenna terms survive the
        # expectation.
        stats = EstimatorStatistics(symbols=symbols, pdp=unit_pdp, n_tx=cfg.n_tx)
        for delta_f, group in groups.items():
            sigma = np.sqrt(phase_increment_variance(delta_f, cfg.n_subcarriers))
            phases = sigma * walks
            si = synthesize_received(outputs, phases[:, :-1], phases[:, -1])
            kernel = scenarios[group[0]].pn
            spectrum = si_spectrum(si_covariance(stats, kernel), stats)
            residuals[:, :, group] = _run_block(
                [scenarios[i] for i in group], symbols, si, soi, noise, spectrum
            )
            # one group's arrays at a time: the next covariance is built
            # after this spectrum and these SI vectors are gone
            del phases, si, spectrum
    except Exception as exc:
        which = f"trial {trials[0]}"
        if len(trials) > 1:
            which = f"trials {trials[0]}-{trials[-1]}"
            for trial in trials:
                _run_chunk(scenarios, [trial], variable)
        elif len(group) > 1:
            for index in group:
                _run_chunk([scenarios[index]], trials, variable)
        value = getattr(scenarios[group[0]].config, _SWEEP_FIELDS[variable])
        raise type(exc)(f"{which} at {variable}={value!r} failed: {exc}") from exc
    return residuals


def _run_block(
    points: Sequence[Scenario],
    symbols: np.ndarray,
    unit_si: np.ndarray,
    unit_soi: np.ndarray,
    noise: np.ndarray,
    spectrum: SiSpectrum,
) -> np.ndarray:
    """Both cancellers at every point that shares the spectrum's delta_f,
    in every trial of the chunk.

    Column p of trial b's N x P received block is point p's received
    vector, so each canceller and each residual power is one operation on
    the (B, N, P) stack.  Returns the (2, 2, P, B) residual powers laid out
    as _run_chunk returns them.
    """
    scale = np.array([point.channel_power for point in points])
    soi_power = np.array([point.soi_power for point in points])
    soi = unit_soi[:, :, None] * np.sqrt(soi_power)
    received = unit_si[:, :, None] * np.sqrt(scale) + soi + noise[:, :, None]

    # The optimal method subtracts the weighted estimate directly; the LS
    # baseline reconstructs from its tap estimate.
    weights = spectral_weights(spectrum, scale, soi_power)
    residual_opt = received - weights.estimate(received) - soi
    taps_ls = ls_estimate(received, symbols, spectrum.n_taps)
    residual_ls = received - reconstruct_si(symbols, taps_ls) - soi
    theo_ls = ls_residual_power(spectrum, scale, soi_power)
    residuals = np.array([
        [_column_power(residual_ls), theo_ls],
        [_column_power(residual_opt), weights.residual_power],
    ])
    return residuals.swapaxes(-1, -2)


def _column_power(block: np.ndarray) -> np.ndarray:
    """Power sum_n |block[..., n, p]|^2 of each column."""
    return (block.real**2 + block.imag**2).sum(axis=-2)


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


@one_blas_thread()
def sweep(
    config: SimConfig, variable: str, values: Sequence[float]
) -> list[SweepRecord]:
    """Monte Carlo sweep of one scenario variable.

    Every sweep point runs config.n_trials trials.  Trial t draws one
    realization from a stream that depends only on (master_seed, t), and
    every point rescales that same realization, so points are paired.  The
    trials run in chunks of _chunk_size(config), with scipy's OpenBLAS on
    one thread.  Records come back sorted by (value, method).  A repeated
    value raises ValueError, and so does a config whose chunk would need
    more than _WORKING_SET_BUDGET bytes of arrays (_working_set), before
    anything is built.
    """
    if variable not in SWEEP_VARIABLES:
        raise ValueError(f"variable must be one of {SWEEP_VARIABLES}")
    if len(values) == 0:
        raise ValueError("values must be non-empty")
    seen = set()
    for value in map(float, values):
        if value in seen:
            raise ValueError(f"sweep value {value!r} appears more than once")
        seen.add(value)
    field = _SWEEP_FIELDS[variable]
    points = [replace(config, **{field: float(value)}) for value in values]
    bandwidths = dict.fromkeys(point.delta_f for point in points)
    working_set = _working_set(config, len(bandwidths))
    if working_set > _WORKING_SET_BUDGET:
        raise ValueError(
            f"n_subcarriers={config.n_subcarriers} with n_tx={config.n_tx} "
            f"needs about {working_set / 2**30:.1f} GiB of arrays per chunk, "
            f"above the {_WORKING_SET_BUDGET / 2**30:g} GiB limit"
        )
    tables = {
        delta_f: pn_covariance_table(delta_f, config.n_subcarriers)
        for delta_f in bandwidths
    }
    scenarios = [Scenario.from_config(p, tables[p.delta_f]) for p in points]
    chunk = _chunk_size(config)
    residuals = np.empty((len(_METHODS), 2, len(scenarios), config.n_trials))
    for start in range(0, config.n_trials, chunk):
        stop = min(start + chunk, config.n_trials)
        residuals[..., start:stop] = _run_chunk(
            scenarios, range(start, stop), variable
        )
    records = [
        _aggregate(variable, value, method, *residuals[m, :, point], scenario)
        for point, (value, scenario) in enumerate(zip(values, scenarios))
        for m, method in enumerate(_METHODS)
    ]
    records.sort(key=lambda record: (record.value, record.method))
    return records


def cancellation_ability(pre_power: float, residual_power: float) -> float:
    """Cancellation ability 10 log10(pre_power / residual) in dB, pre_power
    being the SI-plus-noise power before cancellation; +inf when the
    residual is not positive.  pre_power must be finite and positive, the
    residual finite.  Powers whose ratio underflows or overflows still get
    their finite ability, from the difference of their logarithms."""
    if not (math.isfinite(pre_power) and pre_power > 0.0):
        raise ValueError(f"pre_power must be finite and positive: {pre_power!r}")
    if not math.isfinite(residual_power):
        raise ValueError(f"residual_power must be finite: {residual_power!r}")
    if residual_power <= 0.0:
        return math.inf
    ratio = pre_power / residual_power
    if sys.float_info.min <= ratio < math.inf:
        return 10.0 * math.log10(ratio)
    # the ratio left the normal float range: subtract the logarithms instead
    return 10.0 * (math.log10(pre_power) - math.log10(residual_power))


def _aggregate(
    variable: str,
    value: float,
    method: str,
    empirical: np.ndarray,
    theoretical: np.ndarray,
    scenario: Scenario,
) -> SweepRecord:
    """One (value, method) cell from its per-trial residual powers."""
    resid_mean = float(empirical.mean())
    pre_power = scenario.pre_power
    g_emp = cancellation_ability(pre_power, resid_mean)
    g_theo = cancellation_ability(pre_power, float(theoretical.mean()))
    trials = empirical.size
    if trials > 1:
        abilities = np.array(
            [cancellation_ability(pre_power, r) for r in empirical.tolist()]
        )
        ci = float(1.96 * abilities.std(ddof=1) / np.sqrt(trials))
    else:
        ci = 0.0
    return SweepRecord(
        sweep_variable=variable,
        value=float(value),
        method=method,
        g_empirical_db=g_emp,
        g_theoretical_db=g_theo,
        residual_power_mean=resid_mean,
        trials=trials,
        ci_halfwidth_db=ci,
    )


def emit_csv(records: Iterable[SweepRecord], path: str | Path) -> None:
    """Write sweep records as CSV, sorted by (value, method).  The columns
    are SweepRecord's fields in order, named by CSV_COLUMNS, so a new
    column is one field and one name.  A float cell is written with repr,
    full precision so a round trip through read_csv is lossless, None as
    an empty cell, and a str or int as it is."""
    ordered = sorted(records, key=lambda r: (r.value, r.method))
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(
            ["" if c is None else repr(c) if isinstance(c, float) else c
             for c in dataclasses.astuple(record)]
            for record in ordered
        )


def read_csv(path: str | Path) -> list[SweepRecord]:
    """Parse a CSV written by emit_csv, whose header must be CSV_COLUMNS
    exactly, back into records.  Each cell is parsed by its field's type,
    and an `X | None` field reads an empty cell as None (g_theo_db is empty
    in CSVs written before LS had a prediction).  A row with more or fewer
    fields than the header raises ValueError naming its line, and a cell
    that does not parse one naming its line and column."""
    fields = dataclasses.fields(SweepRecord)
    records = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != list(CSV_COLUMNS):
            raise ValueError(f"unexpected CSV header in {path}")
        for row in reader:
            where = f"{path}:{reader.line_num}"
            if len(row) != len(CSV_COLUMNS):
                raise ValueError(
                    f"{where}: expected {len(CSV_COLUMNS)} fields, got {len(row)}"
                )
            cells = []
            for column, field, cell in zip(CSV_COLUMNS, fields, row, strict=True):
                # kind of an `X | None` field is X, and rest is (NoneType,)
                kind, *rest = typing.get_args(field.type) or (field.type,)
                try:
                    cells.append(None if rest and cell == "" else kind(cell))
                except ValueError as exc:
                    raise ValueError(f"{where}: {column}: {exc}") from exc
            records.append(SweepRecord(*cells))
    return records


def write_json_summary(
    path: str | Path,
    config: SimConfig,
    records: Sequence[SweepRecord],
    command: str,
) -> None:
    """Write the version, command, configuration echo and records as JSON.

    blas_threads is the OpenBLAS thread count that sweeps run with, read
    back from the library inside one_blas_thread, or None where no OpenBLAS
    was found.
    """
    with one_blas_thread() as blas_threads:
        payload = {
            "version": __version__,
            "command": command,
            "blas_threads": blas_threads,
            "config": dataclasses.asdict(config),
            "records": [dataclasses.asdict(record) for record in records],
        }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

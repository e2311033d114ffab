"""Outside-in tracing of fdsic, and the per-layer metrics derived from it.

`Tracer.install` replaces, at run time, the public fdsic functions that
`fdsic.harness`, `fdsic.cli` and `fdsic.validation` look up in their module
namespaces, plus the trial boundary `fdsic.harness._run_trial` and
`Scenario.from_config`, with wrappers that record one span per call.  The
package source is not edited; `uninstall` puts every original back.

A span is (name id, start ns, end ns, process CPU ns at start, at end,
parent span index, trial id).  Spans are kept in memory during an operation
and written out between operations.
"""

import functools
import time
import types

import numpy as np

TRIAL = "harness.trial"
SCENARIO = "harness.scenario"
SWEEP = "harness.sweep"
PN_TABLE = "impairments.pn_covariance_table"
_NO_TRIAL = -1


def _targets():
    """(namespace dict, attribute, span name) for every traced function."""
    from fdsic import cli, harness, validation

    targets = []
    for module in (harness, cli, validation):
        for attr, obj in vars(module).items():
            if (
                not attr.startswith("_")
                and isinstance(obj, types.FunctionType)
                and obj.__module__.startswith("fdsic.")
            ):
                module_name = obj.__module__.split(".", 1)[1]
                targets.append((vars(module), attr, f"{module_name}.{obj.__name__}"))
    targets.append((vars(harness), "_run_trial", TRIAL))
    # A class __dict__ is read-only as a mapping; patch through setattr.
    targets.append((harness.Scenario, "from_config", SCENARIO))
    return targets


class Tracer:
    """Records spans for calls into the traced fdsic functions."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self._name_ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._trial = _NO_TRIAL
        self._trials_seen = 0
        self._patched: list[tuple] = []

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in _targets():
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                wrapped = classmethod(self._wrap(original.__func__, name))
                setattr(owner, attr, wrapped)
            else:
                original = owner[attr]
                owner[attr] = self._wrap(original, name)
            self._patched.append((owner, attr, original))

    def uninstall(self) -> bool:
        """Restore every original; True if each one is back in place."""
        for owner, attr, original in reversed(self._patched):
            if isinstance(owner, type):
                setattr(owner, attr, original)
            else:
                owner[attr] = original
        restored = all(
            (owner.__dict__ if isinstance(owner, type) else owner)[attr]
            is original
            for owner, attr, original in self._patched
        )
        self._patched = []
        return restored

    def take(self) -> dict:
        """Hand over the recorded spans and start a fresh record."""
        record = {"names": self.names, "spans": self.spans}
        self.names, self.spans, self._name_ids = [], [], {}
        return record

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, func, name):
        opens_trial = name == TRIAL
        tracer = self
        perf_ns = time.perf_counter_ns
        cpu_ns = time.process_time_ns

        @functools.wraps(func)
        def traced(*args, **kwargs):
            spans = tracer.spans
            stack = tracer._stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            outer_trial = tracer._trial
            if opens_trial:
                tracer._trial = tracer._trials_seen
                tracer._trials_seen += 1
            stack.append(index)
            cpu0 = cpu_ns()
            start = perf_ns()
            try:
                return func(*args, **kwargs)
            finally:
                end = perf_ns()
                cpu1 = cpu_ns()
                stack.pop()
                spans[index] = (
                    tracer._name_id(name), start, end, cpu0, cpu1, parent,
                    tracer._trial,
                )
                tracer._trial = outer_trial

        return traced


# Per-layer metric -> span names whose time is summed, per trial.
_PER_TRIAL_MS = {
    "ofdm.gen_bpsk_symbols.ms_per_trial": ("ofdm.gen_bpsk_symbols",),
    "impairments.gen_si_channel.ms_per_trial": ("impairments.gen_si_channel",),
    "impairments.gen_wiener_phase.ms_per_trial": ("impairments.gen_wiener_phase",),
    "impairments.synthesize_received.ms_per_trial": (
        "impairments.synthesize_received",
    ),
    "estimator.si_covariance.ms_per_trial": ("estimator.si_covariance",),
    "estimator.covariance_bundle.ms_per_trial": ("estimator.covariance_bundle",),
    "estimator.optimal_weights.ms_per_trial": ("estimator.optimal_weights",),
    "estimator.ls_estimate.ms_per_trial": ("estimator.ls_estimate",),
    "estimator.ls_weight_matrix.ms_per_trial": ("estimator.ls_weight_matrix",),
    "cancellation.expected_residual_power.ms_per_trial": (
        "cancellation.expected_residual_power",
    ),
    "cancellation.apply.ms_per_trial": (
        "cancellation.cancel",
        "cancellation.reconstruct_si",
    ),
}
# Per-layer metric -> span name whose time is summed, per operation.
_PER_OP_MS = {
    "cli.emit_csv.ms": "harness.emit_csv",
    "validation.check_pn_covariance.ms": "validation.check_pn_covariance",
    "validation.check_si_covariance.ms": "validation.check_si_covariance",
    "validation.check_qp_oracle.ms": "validation.check_qp_oracle",
    "validation.check_model_equivalence.ms": "validation.check_model_equivalence",
}


def layer_metrics(records: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics over the traced operations, plus any accounting
    problems.

    A span's self time is its duration minus the durations of its direct
    children.  Every child must lie inside its parent, and for every trial
    the self times of the trial span and of all spans inside it must add up
    to the trial span exactly, so the traced layers account for the trial.
    """
    wall: dict[str, int] = {}
    self_wall: dict[str, int] = {}
    cpu_total: dict[str, int] = {}
    calls: dict[str, int] = {}
    trial_ns = [np.zeros(0, dtype=np.int64)]
    problems: list[str] = []
    for op, record in enumerate(records):
        if not record["spans"]:
            continue
        table = np.array(record["spans"], dtype=np.int64)
        name_of = np.array(record["names"])[table[:, 0]]
        start, end = table[:, 1], table[:, 2]
        duration = end - start
        cpu = table[:, 4] - table[:, 3]
        parent, trial = table[:, 5], table[:, 6]
        has_parent = parent >= 0
        parent_or_self = np.where(has_parent, parent, np.arange(len(table)))
        child_ns = np.bincount(
            parent[has_parent], weights=duration[has_parent],
            minlength=len(table),
        ).astype(np.int64)
        self_ns = duration - child_ns
        outside = (
            (start < start[parent_or_self])
            | (end > end[parent_or_self])
            | (self_ns < 0)
        )
        if outside.any():
            problems.append(
                f"op {op}: {int(outside.sum())} spans outside their parent "
                "or overlapping a sibling"
            )
        is_trial = name_of == TRIAL
        if is_trial.any():
            in_trial = trial >= 0
            accounted = np.bincount(
                trial[in_trial], weights=self_ns[in_trial],
                minlength=int(trial.max()) + 1,
            ).astype(np.int64)[trial[is_trial]]
            if not np.array_equal(accounted, duration[is_trial]):
                problems.append(f"op {op}: trial self times do not add up")
            trial_ns.append(duration[is_trial])
        for name in np.unique(name_of):
            mask = name_of == name
            name = str(name)
            wall[name] = wall.get(name, 0) + int(duration[mask].sum())
            self_wall[name] = self_wall.get(name, 0) + int(self_ns[mask].sum())
            cpu_total[name] = cpu_total.get(name, 0) + int(cpu[mask].sum())
            calls[name] = calls.get(name, 0) + int(mask.sum())

    ms = 1e-6
    ops = max(len(records), 1)
    trials = calls.get(TRIAL, 0)
    points = calls.get(SCENARIO, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {
        metric: ratio(sum(wall.get(name, 0) for name in names), trials) * ms
        for metric, names in _PER_TRIAL_MS.items()
    }
    metrics["impairments.gen_wiener_phase.calls_per_trial"] = ratio(
        calls.get("impairments.gen_wiener_phase", 0), trials
    )
    metrics["impairments.pn_covariance_table.ms_per_point"] = (
        ratio(wall.get(PN_TABLE, 0), points) * ms
    )
    metrics["estimator.optimal_weights.cpu_per_wall"] = ratio(
        cpu_total.get("estimator.optimal_weights", 0),
        wall.get("estimator.optimal_weights", 0),
    )
    durations = np.concatenate(trial_ns)
    for metric, q in (("harness.trial.ms_p50", 50), ("harness.trial.ms_p99", 99)):
        metrics[metric] = (
            float(np.percentile(durations, q)) * ms if durations.size else 0.0
        )
    metrics["harness.trial.self_ms_per_trial"] = (
        ratio(self_wall.get(TRIAL, 0), trials) * ms
    )
    metrics["harness.trial.cpu_per_wall"] = ratio(
        cpu_total.get(TRIAL, 0), wall.get(TRIAL, 0)
    )
    metrics["harness.scenario.ms_per_point"] = ratio(wall.get(SCENARIO, 0), points) * ms
    metrics["harness.sweep.self_ms"] = self_wall.get(SWEEP, 0) / ops * ms
    for metric, name in _PER_OP_MS.items():
        metrics[metric] = wall.get(name, 0) / ops * ms
    return metrics, problems

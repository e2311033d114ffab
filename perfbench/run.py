"""fdsic benchmark: runs the `fdsic` command line as users run it and measures
it from outside.

    python3 perfbench/run.py --workload inr-ref --seed 0 --seconds 20 --trace 0

Each workload is one `fdsic` command (see workloads.py), run through
`fdsic.cli.main` in a fresh interpreter (worker.py), one operation at a time
back to back: a closed loop with one client in one process.  The benchmark
sets no BLAS or OpenMP thread variable; it records the ones it finds.

--trace 0 reports the end-to-end metrics.  Set-up (interpreter start,
importing fdsic.cli and one reduced warm-up operation) is repeated
SETUP_REPEATS times in fresh interpreters and its median reported; the last
interpreter then runs operations until --seconds have passed.

--trace 1 reports the per-layer metrics.  It alternates untraced and traced
operations in one interpreter; traced operations record spans through
spans.Tracer, and trace.overhead_ratio compares the two kinds.

Every operation is checked (workloads.check_sweep_csv, or the exit code of
`fdsic validate`); a check failure counts the operation as failed.  The last
line of output is the JSON result; the full record, with provenance and
per-operation samples, is written under .perfbench_out/.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# A run must end within 180 s; a worker still busy at this point is killed.
RUN_LIMIT_S = 170.0
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class WorkerDied(RuntimeError):
    pass


class Worker:
    """One worker.py interpreter, timed and inspected from outside."""

    def __init__(self, log, deadline: float, span_file: Path | None = None):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        cmd = [sys.executable, str(BENCH_DIR / "worker.py")]
        if span_file is not None:
            cmd.append(str(span_file))
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log,
            cwd=ROOT, env=env, text=True, bufsize=1,
        )
        self._watchdog = threading.Timer(
            max(deadline - time.monotonic(), 0.0), self.proc.kill
        )
        self._watchdog.daemon = True
        self._watchdog.start()

    def request(self, message: dict) -> tuple[dict, float, float]:
        """Send one request; return the reply, its wall seconds and the CPU
        seconds the worker used meanwhile (all threads and children)."""
        cpu0 = self.cpu_s()
        t0 = time.perf_counter()
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        t1 = time.perf_counter()
        if not line:
            raise WorkerDied("worker exited or was killed mid-request")
        return json.loads(line), t1 - t0, self.cpu_s() - cpu0

    def cpu_s(self) -> float:
        return _tree_cpu_ticks(self.proc.pid) / CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def close(self) -> None:
        try:
            if self.proc.poll() is None:
                self.proc.stdin.write('{"exit": true}\n')
                self.proc.stdin.flush()
                self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            self._watchdog.cancel()
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            self.proc.stdin.close()
            self.proc.stdout.close()


def _tree_cpu_ticks(pid: int) -> int:
    """CPU clock ticks of a process, its threads, its reaped children and,
    recursively, its live children."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        tasks = os.listdir(f"/proc/{pid}/task")
    except (FileNotFoundError, ProcessLookupError):
        return 0  # exited since it was listed; a reaped child counts above
    # utime, stime, cutime, cstime are fields 14-17 of proc(5).
    ticks = sum(int(value) for value in fields[11:15])
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                children = handle.read().split()
        except (FileNotFoundError, ProcessLookupError):
            continue
        ticks += sum(_tree_cpu_ticks(int(child)) for child in children)
    return ticks


def provenance() -> dict:
    """Where the numbers came from: library versions, BLAS build, thread
    environment as found, CPUs, Python and source revision."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    git = None
    # Outside a git checkout, git would describe an enclosing repository.
    if (ROOT / ".git").exists():
        try:
            describe = subprocess.run(
                ["git", "describe", "--always", "--dirty"], cwd=ROOT,
                capture_output=True, text=True, timeout=10,
            )
            git = describe.stdout.strip() if describe.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fdsic").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_describe": git,
        "src_sha256": digest.hexdigest(),
    }


def _check(workload, reply: dict, out: Path, reference: Path | None) -> list[str]:
    if reply.get("error"):
        return [reply["error"].strip().splitlines()[-1]]
    if reply.get("rc") != 0:
        return [f"exit code {reply.get('rc')!r}"]
    if not reply.get("restored", True):
        return ["tracer left a wrapped function in place"]
    if workload.is_sweep:
        return workloads.check_sweep_csv(out, reference)
    return []


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; return the full result record."""
    deadline = time.monotonic() + RUN_LIMIT_S
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{seed}-trace{int(trace)}"
    out = OUT_DIR / f"{workload.name}.csv"
    warm_out = OUT_DIR / f"{workload.name}-warmup.csv"
    span_file = OUT_DIR / f"spans-{stem}.jsonl"
    reference = workloads.reference_path(workload, seed) if workload.is_sweep else None
    op = {"argv": workloads.op_argv(workload, seed, out.relative_to(ROOT))}
    warmup = {
        "argv": workloads.warmup_argv(workload, seed, warm_out.relative_to(ROOT))
    }
    samples = {"wall_s": [], "cpu_s": [], "traced": []}
    problems: list[str] = []
    setups: list[float] = []
    failed = 0

    with open(OUT_DIR / f"worker-{stem}.log", "w") as log:
        span_file.unlink(missing_ok=True)
        worker = None
        try:
            for _ in range(1 if trace else SETUP_REPEATS):
                if worker is not None:
                    worker.close()
                worker = Worker(log, deadline, span_file if trace else None)
                reply, _, _ = worker.request(warmup)
                setups.append(time.perf_counter() - worker.started)
                if reply.get("error") or reply.get("rc") != 0:
                    raise WorkerDied(f"warm-up failed: {reply}")
            end = time.perf_counter() + seconds
            while True:
                traced = trace and len(samples["traced"]) % 2 == 1
                out.unlink(missing_ok=True)
                reply, wall, cpu = worker.request(dict(op, traced=traced))
                found = _check(workload, reply, out, reference)
                if traced:
                    worker.request({"flush": True})
                problems += [f"op {len(samples['wall_s'])}: {p}" for p in found]
                failed += bool(found)
                samples["wall_s"].append(wall)
                samples["cpu_s"].append(cpu)
                samples["traced"].append(traced)
                if time.perf_counter() >= end and (not trace or traced):
                    break
            peak_rss = worker.peak_rss_mb()
        finally:
            if worker is not None:
                worker.close()

    attempted = len(samples["wall_s"])
    if trace:
        metrics = _layer_metrics(workload, samples, span_file, problems)
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "op_s_p50": (statistics.median(samples["wall_s"]), "s"),
            "op_s_p90": (
                statistics.quantiles(samples["wall_s"], n=10, method="inclusive")[8]
                if attempted > 1 else samples["wall_s"][0],
                "s",
            ),
            "cpu_s_per_op": (sum(samples["cpu_s"]) / attempted, "s"),
            "peak_rss_mb": (peak_rss, "MB"),
        }
    return {
        "workload": workload.name,
        "seed": seed,
        "master_seed": workloads.master_seed(seed) if workload.is_sweep else None,
        "argv": op["argv"],
        "trace": trace,
        "seconds": seconds,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "problems": problems,
        "setup_s_samples": setups,
        "samples": samples,
        "metrics": metrics,
    }


def _layer_metrics(workload, samples, span_file: Path, problems: list[str]) -> dict:
    import spans

    with open(span_file) as handle:
        records = [json.loads(line) for line in handle]
    layers, accounting = spans.layer_metrics(records)
    problems += [f"trace: {p}" for p in accounting]
    metrics = {name: (value, _layer_unit(name)) for name, value in layers.items()}
    for name, value in workloads.kernel_counts(workload).items():
        metrics[name] = (value, "flop" if "flops" in name else "B")
    walls = samples["wall_s"]
    traced = [w for w, t in zip(walls, samples["traced"]) if t]
    plain = [w for w, t in zip(walls, samples["traced"]) if not t]
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(plain), "ratio"
    )
    return metrics


def _layer_unit(name: str) -> str:
    if name.endswith("calls_per_trial"):
        return "count"
    if name.endswith("cpu_per_wall"):
        return "ratio"
    return "ms"


def _print_result(result: dict) -> None:
    print(f"# {result['workload']}: {result['attempted']} operations, "
          f"{len(result['setup_s_samples'])} set-ups, "
          f"argv {' '.join(result['argv'])}")
    for problem in result["problems"][:20]:
        print(f"#   FAILED {problem}")
    print(f"{'failed_ratio':<52s} {result['failed_ratio']:14.6g} ratio")
    for name, (value, unit) in result["metrics"].items():
        note = "  (computed from array sizes)" if ".computed_" in name else ""
        print(f"{name:<52s} {value:14.6g} {unit}{note}")
    print(json.dumps({"provenance": result["provenance"]}))
    failed = result["failed"]
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="workload name, or 'all' to run every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)} or all")
    prov = provenance()
    for name in names:
        try:
            result = run_workload(
                workloads.WORKLOADS[name], args.seed, args.seconds, bool(args.trace)
            )
        except (WorkerDied, OSError) as exc:
            print(f"{name}: no result: {exc}", file=sys.stderr)
            return 1
        result["provenance"] = prov
        with open(OUT_DIR / f"result-{name}-seed{args.seed}-trace{args.trace}.json",
                  "w") as handle:
            json.dump(result, handle, indent=1)
        _print_result(result)
    return 0


if __name__ == "__main__":
    if not (ROOT / "src" / "fdsic" / "cli.py").is_file():
        print(f"fdsic source not found under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    sys.exit(main())

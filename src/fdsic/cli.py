"""Command line front end.

Subcommands: sweep-inr, sweep-snr, sweep-pn run Monte Carlo sweeps and write
CSV; single runs one sweep point; validate runs the self-check suites.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

from .harness import (
    SimConfig,
    SweepRecord,
    emit_csv,
    sweep,
    write_json_summary,
)

_SWEEP_COMMANDS = {
    "sweep-inr": ("inr", [20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0]),
    "sweep-snr": ("snr", [0.0, 5.0, 10.0, 15.0, 20.0]),
    "sweep-pn": ("delta_f", [1e-5, 1e-4, 1e-3, 1e-2]),
}


def _sweep_values(text: str) -> list[float]:
    """The comma-separated numbers of --values."""
    try:
        return [float(item) for item in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="key = value settings file")
    parser.add_argument("--seed", type=int, help="override the master seed")
    parser.add_argument("--trials", type=int, help="trials per sweep point")
    parser.add_argument("--out", type=Path, help="CSV output path")
    parser.add_argument(
        "--json-summary", type=Path, help="also write a JSON summary here"
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="reduced profile: 32 subcarriers, 8 antennas, 200 trials",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdsic",
        description=(
            "Monte Carlo link simulator for digital self-interference "
            "cancellation under oscillator phase noise"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (variable, defaults) in _SWEEP_COMMANDS.items():
        p = sub.add_parser(command, help=f"sweep {variable}")
        _add_common(p)
        p.add_argument(
            "--values",
            type=_sweep_values,
            help="comma-separated sweep values, default "
            + ",".join(f"{v:g}" for v in defaults),
        )
    single = sub.add_parser("single", help="run one sweep point")
    _add_common(single)
    single.add_argument("--inr", type=float, help="INR in dB")
    single.add_argument("--snr", type=float, help="SNR in dB")
    single.add_argument("--delta-f", type=float, help="relative PN bandwidth")
    validate = sub.add_parser("validate", help="run the self-check suites")
    validate.add_argument(
        "--fast", action="store_true", help="smaller Monte Carlo sizes"
    )
    return parser


def _load_config(args: argparse.Namespace) -> SimConfig:
    try:
        config = SimConfig.from_file(args.config) if args.config else SimConfig()
    except OSError as exc:
        raise ValueError(
            f"cannot read config file {args.config}: {exc.strerror}"
        ) from exc
    if args.fast:
        config = config.fast()
    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.trials is not None:
        overrides["n_trials"] = args.trials
    if getattr(args, "inr", None) is not None:
        overrides["inr_db"] = args.inr
    if getattr(args, "snr", None) is not None:
        overrides["snr_db"] = args.snr
    if getattr(args, "delta_f", None) is not None:
        overrides["delta_f"] = args.delta_f
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return config


def _print_records(records: list[SweepRecord]) -> None:
    for record in records:
        theo = (
            "" if record.g_theoretical_db is None
            else f" theo {record.g_theoretical_db:7.2f} dB"
        )
        print(
            f"{record.sweep_variable}={record.value:<10g} "
            f"{record.method:<8s} G {record.g_empirical_db:7.2f} dB"
            f" +-{record.ci_halfwidth_db:.2f}{theo}"
        )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "validate":
        # only validate loads the oracles; the simulator never imports them
        from .validation import run_all

        results = run_all(fast=args.fast)
        for result in results:
            print(result.line())
        return 0 if all(result.passed for result in results) else 1

    # A setting, sweep value, config file or output path the simulator
    # rejects is a usage error: argparse reports it and exits with status 2,
    # before any trial runs.
    try:
        config = _load_config(args)
        if args.command == "single":
            variable, values = "inr", [config.inr_db]
        else:
            variable, values = _SWEEP_COMMANDS[args.command]
            if args.values is not None:
                values = args.values
        out = args.out
        if out is None and args.command != "single":
            out = Path(f"sweep_{variable}.csv")
        for path in filter(None, (out, args.json_summary)):
            if not path.parent.is_dir():
                raise ValueError(
                    f"cannot write {path}: no directory {path.parent}"
                )
            if path.is_dir():
                raise ValueError(f"cannot write {path}: it is a directory")
        records = sweep(config, variable, values)
    except ValueError as exc:
        parser.error(str(exc))
    _print_records(records)
    if out is not None:
        emit_csv(records, out)
        print(f"wrote {out}")
    if args.json_summary is not None:
        write_json_summary(args.json_summary, config, records, args.command)
        print(f"wrote {args.json_summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

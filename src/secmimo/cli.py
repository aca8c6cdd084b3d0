"""Command-line entry point.

Subcommands:
    run     execute a Monte Carlo scenario and emit plot-ready CSV
    verify  run the numerical invariant and inequality suites
    slopes  fit high-SNR slopes from a previously written CSV

Exit codes: 0 success, 1 configuration error (including bad flags),
2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import ConfigError, InvalidInputError, SecMimoError
from .grassmann import FeedbackSchedule
from .harness import (
    SCENARIOS,
    ExperimentConfig,
    fitted_slopes_from_rows,
    read_csv,
    render_csv,
    run_experiment,
    scenario_config,
    write_csv,
)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits with status 1 and one line on usage errors."""

    def error(self, message):
        sys.stderr.write(f"{self.prog}: error: {message}; see `{self.prog} --help` for usage\n")
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="secmimo", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a Monte Carlo scenario")
    run_p.add_argument(
        "--scenario",
        choices=SCENARIOS,
        default=None,
        help=f"experiment family (default {SCENARIOS[0]})",
    )
    run_p.add_argument(
        "--nr",
        action="append",
        type=int,
        default=None,
        help="receiver antenna count; repeat for several curves",
    )
    run_p.add_argument("--snr-min", type=float, default=None, help="sweep start in dB")
    run_p.add_argument("--snr-max", type=float, default=None, help="sweep end in dB")
    run_p.add_argument("--snr-step", type=float, default=None, help="sweep step in dB")
    run_p.add_argument("--trials", type=int, default=None, help="Monte Carlo trials per point")
    run_p.add_argument("--seed", type=int, default=None, help="experiment seed")
    run_p.add_argument("--rho", type=float, default=None, help="information power fraction")
    run_p.add_argument(
        "--epsilon", type=float, default=None, help="margin of the scaled bit schedule"
    )
    run_p.add_argument("--nf", type=int, default=None, help="fixed feedback bit budget")
    run_p.add_argument("--out", default=None, help="output CSV path (stdout if omitted)")
    run_p.add_argument(
        "--config", default=None, help="JSON file with the same keys; flags override it"
    )
    run_p.set_defaults(func=_cmd_run, config_types=_config_types(run_p))

    verify_p = sub.add_parser("verify", help="run the invariant/lemma verification suites")
    verify_p.add_argument("--trials", type=int, default=100)
    verify_p.add_argument("--seed", type=int, default=1)
    verify_p.set_defaults(func=_cmd_verify)

    slopes_p = sub.add_parser("slopes", help="fit per-curve SDoF slopes from a results CSV")
    slopes_p.add_argument("csv", help="CSV file produced by `secmimo run`")
    slopes_p.set_defaults(func=_cmd_slopes)
    return parser


def _config_types(run_parser: argparse.ArgumentParser) -> dict:
    """Config-file keys and the JSON type each must hold, one per `run` flag but --config.

    The key is the flag's dest and the type its argparse type, str when it
    has none; float admits any number, and "nr", the repeatable flag, may
    also hold a list of integers.
    """
    return {
        action.dest: action.type or str
        for action in run_parser._actions
        if action.option_strings and action.dest not in ("help", "config")
    }


_TYPE_NAMES = {str: "a string", int: "an integer", float: "a number"}


def _has_type(value, kind) -> bool:
    if isinstance(value, bool):  # JSON true/false are ints to Python
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def _load_config_file(path: str, types: dict) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError or a UnicodeDecodeError
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(data) - set(types))
    if unknown:
        raise ConfigError(f"unknown config keys in {path}: {', '.join(unknown)}")
    for key, value in data.items():
        kind = types[key]
        items = value if key == "nr" and isinstance(value, list) else [value]
        if not items:
            raise ConfigError(f"config key {key!r} in {path} must hold at least one integer")
        if not all(_has_type(item, kind) for item in items):
            raise ConfigError(
                f"config key {key!r} in {path} must hold {_TYPE_NAMES[kind]}, got {value!r}"
            )
    return data


def _experiment_config(args) -> tuple[ExperimentConfig, str | None]:
    """The run's experiment configuration and its output path (None for stdout)."""
    file_cfg = _load_config_file(args.config, args.config_types) if args.config else {}

    def setting(key, default=None):
        flag = getattr(args, key)
        if flag is not None:
            return flag
        return file_cfg.get(key, default)

    n_r_list = setting("nr")
    if isinstance(n_r_list, int):
        n_r_list = [n_r_list]
    epsilon = setting("epsilon")
    nf = setting("nf")
    if nf is not None and epsilon is not None:
        raise ConfigError("--nf (fixed bits) and --epsilon (scaled bits) exclude each other")

    overrides = {}
    for key in ("snr_min", "snr_max", "snr_step", "trials", "seed", "rho"):
        value = setting(key)
        if value is not None:
            overrides[key] = value
    # with neither, the scenario keeps its default bit source
    if nf is not None:
        overrides["schedule"] = FeedbackSchedule.fixed(nf)
    elif epsilon is not None:
        overrides["schedule"] = FeedbackSchedule.scaled(epsilon)
    cfg = scenario_config(setting("scenario", SCENARIOS[0]), n_r_list, **overrides)
    return cfg, setting("out")


def _cmd_run(args) -> int:
    try:
        cfg, out = _experiment_config(args)
    except InvalidInputError as exc:
        # raised by the antenna-config and schedule constructors
        raise ConfigError(str(exc)) from exc
    result = run_experiment(cfg)
    if out:
        write_csv(result, out)
        print(f"wrote {len(result.rows)} rows to {out}")
        _print_slopes(result.slopes)
    else:
        sys.stdout.write(render_csv(result))
    return 0


def _print_slopes(fits: dict) -> None:
    for (n_t, n_r, n_j, n_e), fit in sorted(fits.items()):
        print(
            f"n_t={n_t} n_r={n_r} n_j={n_j} n_e={n_e} "
            f"perfect_slope={fit['perfect']:.3f} quantized_slope={fit['quantized']:.3f}"
        )


def _cmd_verify(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {args.seed}")
    if args.trials < 1:
        raise ConfigError(f"trials must be >= 1, got {args.trials}")
    # imported here: `run` and `slopes` never need the suites
    from .verification import run_verification

    outcomes = run_verification(trials=args.trials, seed=args.seed)
    all_passed = True
    for suite in outcomes:
        status = "PASS" if suite.passed else "FAIL"
        detail = f" ({suite.detail})" if suite.detail else ""
        print(f"[{status}] {suite.name}: {suite.total - suite.failures}/{suite.total}{detail}")
        all_passed = all_passed and suite.passed
    print(
        f"{sum(s.passed for s in outcomes)}/{len(outcomes)} suites passed"
        if all_passed
        else f"{sum(not s.passed for s in outcomes)} suite(s) FAILED"
    )
    return 0 if all_passed else 2


def _cmd_slopes(args) -> int:
    try:
        fits = fitted_slopes_from_rows(read_csv(args.csv))
    except InvalidInputError as exc:
        raise ConfigError(f"{args.csv}: {exc}") from exc
    if not fits:
        raise ConfigError(f"{args.csv} holds no rows of an SNR sweep to fit")
    _print_slopes(fits)
    return 0


def cli_main(argv=None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (SecMimoError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()

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
        "--epsilon", type=float, default=None, help="margin of the scaled bit law"
    )
    run_p.add_argument(
        "--nf", action="append", type=int, default=None, help="fixed bit budget; repeat for several"
    )
    run_p.add_argument("--out", default=None, help="output CSV path (stdout if omitted)")
    run_p.add_argument(
        "--config", default=None, help="JSON file with the same keys; flags override it"
    )
    run_p.set_defaults(func=_cmd_run, config_keys=_config_keys(run_p))

    verify_p = sub.add_parser("verify", help="run the invariant/lemma verification suites")
    verify_p.add_argument("--trials", type=int, default=100)
    verify_p.add_argument("--seed", type=int, default=1)
    verify_p.set_defaults(func=_cmd_verify)

    slopes_p = sub.add_parser("slopes", help="fit per-curve SDoF slopes from a results CSV")
    slopes_p.add_argument("csv", help="CSV file produced by `secmimo run`")
    slopes_p.set_defaults(func=_cmd_slopes)
    return parser


def _config_keys(run_parser: argparse.ArgumentParser) -> tuple:
    """Config-file keys: the dest of each `run` flag but --config."""
    return tuple(key for key in vars(run_parser.parse_args([])) if key != "config")


def _load_config_file(path: str, keys: tuple) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError or a UnicodeDecodeError
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(data) - set(keys))
    if unknown:
        raise ConfigError(f"unknown config keys in {path}: {', '.join(unknown)}")
    # nr, nf and out name no config field, so they are checked here; type() bars true/false
    for key in ("nr", "nf"):
        ns = data.get(key, 1)
        if not (type(ns) is int or ns and type(ns) is list and all(type(n) is int for n in ns)):
            raise ConfigError(
                f"config key {key!r} in {path} must hold one or more integers, got {ns!r}"
            )
    if not isinstance(data.get("out", ""), str):
        raise ConfigError(f"config key 'out' in {path} must hold a string, got {data['out']!r}")
    return data


def _experiment_config(args) -> tuple[ExperimentConfig, str | None]:
    """The run's experiment configuration and its output path (None for stdout).

    Flags override the config file; nf fills nf_grid, and every setting but
    nr and out is the ExperimentConfig field of the same name.
    """
    flags = {key: getattr(args, key) for key in args.config_keys}
    settings = _load_config_file(args.config, args.config_keys) if args.config else {}
    settings.update({key: value for key, value in flags.items() if value is not None})
    n_r_list, nf = settings.pop("nr", None), settings.pop("nf", None)
    if isinstance(n_r_list, int):
        n_r_list = [n_r_list]
    if nf is not None:
        settings["nf_grid"] = tuple(nf) if isinstance(nf, list) else (nf,)
    out = settings.pop("out", None)
    return scenario_config(settings.pop("scenario", SCENARIOS[0]), n_r_list, **settings), out


def _cmd_run(args) -> int:
    try:
        cfg, out = _experiment_config(args)
    except InvalidInputError as exc:
        # raised by the antenna-config constructor
        raise ConfigError(str(exc)) from exc
    rows = run_experiment(cfg)
    if out:
        write_csv(rows, out)
        print(f"wrote {len(rows)} rows to {out}")
        _print_slopes(fitted_slopes_from_rows(rows))
    else:
        sys.stdout.write(render_csv(rows))
    return 0


def _print_slopes(fits: dict) -> None:
    for (n_t, n_r, n_j, n_e), fit in sorted(fits.items()):
        print(
            f"n_t={n_t} n_r={n_r} n_j={n_j} n_e={n_e} "
            f"perfect_slope={fit['perfect']:.3f} quantized_slope={fit['quantized']:.3f}"
        )


def _cmd_verify(args) -> int:
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
    fits = fitted_slopes_from_rows(read_csv(args.csv))
    if not fits:
        raise ConfigError(f"{args.csv} holds no curve of three or more SNRs, one bit budget each")
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
    except (SecMimoError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()

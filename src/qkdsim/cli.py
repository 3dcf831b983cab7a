"""Command line interface.

Subcommands: `run`, `sweep`, `usd-check`, `no-signaling-demo`. Global
flags `--seed` (overrides the config's master_seed) and `--output`
(json or csv; csv applies to run and sweep only) are accepted before or
after the subcommand. Exit codes: 0 success, 2 configuration error,
3 infeasible strategy/protocol combination.
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import (
    ConfigurationError,
    ExperimentConfig,
    InfeasibleStrategyError,
    no_signaling_demo,
    report_csv_rows,
    run_experiment,
    sweep,
    usd_check,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3


def _build_parser() -> argparse.ArgumentParser:
    # global flags are accepted before or after the subcommand; SUPPRESS
    # keeps the subparser from clobbering a value parsed at the top level
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--seed",
        type=int,
        default=argparse.SUPPRESS,
        help="override the config master_seed",
    )
    shared.add_argument(
        "--output",
        choices=("json", "csv"),
        default=argparse.SUPPRESS,
        help="report format (default json)",
    )

    parser = argparse.ArgumentParser(
        prog="qkdsim",
        description="Monte Carlo simulator of two- and four-state quantum key "
        "distribution with eavesdropper strategies and loss-based detection.",
        parents=[shared],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", parents=[shared], help="run one experiment from a JSON config")
    run_p.add_argument("--config", required=True, help="path to the config JSON file")

    sweep_p = sub.add_parser(
        "sweep", parents=[shared], help="run one experiment per parameter value"
    )
    sweep_p.add_argument("--config", required=True, help="path to the base config JSON file")
    sweep_p.add_argument(
        "--param",
        required=True,
        help="parameter to vary: delta, n_pulses, absorption, efficiency or alpha",
    )
    sweep_p.add_argument("--values", required=True, help="comma separated parameter values")

    usd_p = sub.add_parser(
        "usd-check", parents=[shared], help="feasibility report for a set of states"
    )
    usd_p.add_argument(
        "--states",
        required=True,
        help="comma separated Bloch angles, theta,phi per state (e.g. '0,0,1.5708,0')",
    )

    demo_p = sub.add_parser(
        "no-signaling-demo",
        parents=[shared],
        help="equal-mixture densities and POVM statistics walkthrough",
    )
    demo_p.add_argument(
        "--povm", default="random", help="sz, sx, idp or random (default random)"
    )
    demo_p.add_argument("--u", default="0,0", help="first direction as 'theta,phi'")
    demo_p.add_argument(
        "--u-prime", default="1.5707963267948966,0", help="second direction as 'theta,phi'"
    )
    return parser


def _load_config(path: str, seed_override: int | None) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config file is not valid JSON: {exc}") from exc
    config = ExperimentConfig.from_dict(data)
    if seed_override is not None:
        config = ExperimentConfig.from_dict({**config.to_dict(), "master_seed": seed_override})
    return config


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ConfigurationError(f"malformed {what}: {exc}") from exc


def _parse_angle_pairs(text: str) -> list[tuple[float, float]]:
    numbers = _parse_floats(text, "state angles")
    if len(numbers) % 2 != 0:
        raise ConfigurationError("state angles must come in theta,phi pairs")
    return [(numbers[i], numbers[i + 1]) for i in range(0, len(numbers), 2)]


def _parse_direction(text: str) -> tuple[float, float]:
    numbers = _parse_floats(text, "direction")
    if len(numbers) != 2:
        raise ConfigurationError("a direction needs exactly two angles: 'theta,phi'")
    return (numbers[0], numbers[1])


def _sweep_values(param: str, text: str) -> list:
    values = _parse_floats(text, "sweep values")
    if not values:
        raise ConfigurationError("--values needs at least one value")
    if param != "n_pulses":
        return values
    if not all(v.is_integer() for v in values):
        raise ConfigurationError(f"n_pulses values must be integers, got {text!r}")
    return [int(v) for v in values]


def _emit_json(document) -> None:
    print(json.dumps(document, indent=2, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    seed = getattr(args, "seed", None)
    output = getattr(args, "output", "json")
    try:
        if output == "csv" and args.command not in ("run", "sweep"):
            raise ConfigurationError(f"{args.command} reports are JSON only")
        if args.command == "run":
            report = run_experiment(_load_config(args.config, seed))
            if output == "csv":
                print("\n".join(report_csv_rows([report])))
            else:
                print(report.to_json())
        elif args.command == "sweep":
            config = _load_config(args.config, seed)
            reports = sweep(config, args.param, _sweep_values(args.param, args.values))
            if output == "csv":
                print("\n".join(report_csv_rows(reports)))
            else:
                _emit_json([r.to_dict() for r in reports])
        elif args.command == "usd-check":
            _emit_json(usd_check(_parse_angle_pairs(args.states)))
        else:
            _emit_json(
                no_signaling_demo(
                    u=_parse_direction(args.u),
                    u_prime=_parse_direction(args.u_prime),
                    povm_name=args.povm,
                    seed=seed if seed is not None else 0,
                )
            )
    except InfeasibleStrategyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

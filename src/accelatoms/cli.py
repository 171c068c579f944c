"""Command-line entry point.

Subcommands:
    run <config>          execute a scenario configuration file
    validate <config>     report all configuration violations without running
    preset <name> --out   execute a shipped preset (fig2, fig4, counter, bec_design)

Exit codes: 0 success, 2 configuration or input error, 3 integration failure.
"""

from __future__ import annotations

import argparse
import sys
from importlib import resources
from pathlib import Path

from .config import parse_config, validate
from .errors import CapacityError, ConfigError, DomainError, IntegrationError, NoRootError
from .runner import run_scenario

PRESETS = ("fig2", "fig4", "counter", "bec_design")


def _preset_text(name: str) -> str:
    if name not in PRESETS:
        raise ConfigError([f"unknown preset {name!r}; available: {', '.join(PRESETS)}"])
    return resources.files("accelatoms").joinpath(f"presets/{name}.cfg").read_text()


def positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="accelatoms",
        description="Collective dynamics of uniformly accelerated two-level atoms")
    sub = parser.add_subparsers(dest="command", required=True)
    execution = argparse.ArgumentParser(add_help=False)
    execution.add_argument("--threads", type=positive_int, default=1,
                           help="worker processes for sweep fan-out (default 1)")
    execution.add_argument("--seed", type=int, default=None,
                           help="reserved; the dynamics are deterministic")

    run_p = sub.add_parser("run", parents=[execution],
                           help="execute a scenario configuration file")
    run_p.add_argument("config", help="path to a configuration file")
    run_p.add_argument("--out", help="output directory (overrides output_path)")

    val_p = sub.add_parser("validate", help="check a configuration without running")
    val_p.add_argument("config", help="path to a configuration file")

    pre_p = sub.add_parser("preset", parents=[execution],
                           help="execute a shipped preset scenario")
    pre_p.add_argument("name", help=f"one of: {', '.join(PRESETS)}")
    pre_p.add_argument("--out", required=True, help="output directory")
    return parser


def _execute(text: str, out_dir: str | None, threads: int) -> int:
    config = parse_config(text)
    target = out_dir or config.output_path or "."
    paths = run_scenario(config, target, threads=threads)
    for path in paths:
        print(path)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _execute(Path(args.config).read_text(), args.out, args.threads)
        if args.command == "preset":
            return _execute(_preset_text(args.name), args.out, args.threads)
        # validate
        try:
            config = parse_config(Path(args.config).read_text())
        except ConfigError as exc:
            for diag in exc.diagnostics:
                print(diag)
            return 2
        diags = validate(config)
        for diag in diags:
            print(diag)
        return 2 if diags else 0
    except ConfigError as exc:
        for diag in exc.diagnostics:
            print(f"config error: {diag}", file=sys.stderr)
        return 2
    except IntegrationError as exc:
        print(f"integration failure: {exc}", file=sys.stderr)
        return 3
    except (DomainError, NoRootError, CapacityError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

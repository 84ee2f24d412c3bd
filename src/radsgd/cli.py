"""Command-line interface: analyze, sweep, train, topology.

Every subcommand reads a flat key=value config file and writes its outputs
into --out. Exit codes: 0 on success, 1 for configuration problems (bad
flags, malformed config or edge-list files, missing files), 2 for runtime
or numeric failures (divergent training, exhausted graph generation, I/O
errors while writing results).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .errors import ConfigError, EdgeListError, RadsgdError
from .experiments import cmd_analyze, cmd_sweep, cmd_topology, cmd_train, parse_config

_COMMANDS = {
    "analyze": (cmd_analyze, "throughput and consensus-rate curves over the p grid"),
    "sweep": (cmd_sweep, "training runs over a grid of access probabilities"),
    "train": (cmd_train, "a single training run at one access probability"),
    "topology": (cmd_topology, "materialize the configured graph and report its spectrum"),
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with its own codes on bad usage; route through
    # ConfigError instead so the CLI's exit-code contract holds.
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="radsgd",
        description="Decentralized SGD over a random-access broadcast channel.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--config", required=True, help="path to a key=value config file")
        sub.add_argument("--out", default=None, help="output directory (default: config's out, else .)")
        sub.add_argument("--parallel", type=int, default=1, help="worker processes")
        sub.add_argument("--seed", type=int, default=None, help="override the config's master seed")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.parallel < 1:
            raise ConfigError(f"--parallel must be >= 1, got {args.parallel}")
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
        config = parse_config(args.config)
        if args.seed is not None:
            config = dataclasses.replace(config, seed=args.seed)
        out_dir = args.out or config.out or "."
        command = _COMMANDS[args.command][0]
        command(config, out_dir=out_dir, parallel=args.parallel)
    except (ConfigError, EdgeListError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RadsgdError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

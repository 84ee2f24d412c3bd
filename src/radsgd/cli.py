"""Command-line interface: analyze, sweep, train, topology.

The first argument names the command. Every command reads a flat
key=value config file (--config, required) and writes its outputs into
--out (default "."); sweep also takes --parallel. Flags come as
"--flag value" or "--flag=value", may be shortened to any unique prefix,
and the last of a repeated flag wins; -h or --help prints the usage of
every command. The parser is getopt.getopt over the _COMMANDS table.

Exit codes: 0 on success or help, 1 for configuration problems (bad
usage, malformed config or edge-list files, missing files), 2 for runtime
or numeric failures (divergent training, exhausted graph generation, I/O
errors while writing results, arrays too large to allocate).
"""

from __future__ import annotations

import getopt
import sys

from .errors import ConfigError, EdgeListError, RadsgdError
from .experiments import cmd_analyze, cmd_sweep, cmd_topology, cmd_train, parse_config

_COMMANDS = {
    "analyze": (cmd_analyze, "throughput and consensus-rate curves over the p grid"),
    "sweep": (cmd_sweep, "training runs over a grid of access probabilities"),
    "train": (cmd_train, "a single training run at one access probability"),
    "topology": (cmd_topology, "materialize the configured graph and report its spectrum"),
}
_FLAGS = """\
  --config PATH  path to a key=value config file (required)
  --out DIR      output directory (default: .)
  --parallel K   worker processes, sweep only (default: 1)
  -h, --help     show this help and exit
"""


def _usage() -> str:
    synopses = [
        f"radsgd {name} --config PATH [--out DIR]" + (" [--parallel K]" if name == "sweep" else "")
        for name in _COMMANDS
    ]
    width = max(map(len, _COMMANDS))
    commands = [f"  {name:{width}}  {help_text}\n" for name, (_, help_text) in _COMMANDS.items()]
    return (
        "usage: " + "\n       ".join(synopses)
        + "\n\nDecentralized SGD over a random-access broadcast channel.\n\ncommands:\n"
        + "".join(commands) + "\nflags:\n" + _FLAGS
    )


def _parse(argv: list[str]):
    """The command name and its flags, or None when help is asked for."""
    name = argv[0] if argv else ""
    known = name in _COMMANDS
    longopts = ["config=", "out=", "help"] + (["parallel="] if name == "sweep" else [])
    flags, stray, rest = [], [], argv[1:] if known else argv
    try:
        # getopt stops at a stray argument, and so does gnu_getopt when the
        # environment sets POSIXLY_CORRECT: read on past each one, so flags
        # may follow a stray argument whatever the environment.
        while rest:
            found, rest = getopt.getopt(rest, "h", longopts)
            flags, stray, rest = flags + found, stray + rest[:1], rest[1:]
    except getopt.GetoptError as exc:
        if known:
            raise ConfigError(exc.msg) from None
        flags, stray = [], argv  # a mistyped command is the first thing to report
    if any(flag in ("-h", "--help") for flag, _ in flags):
        return None
    if not known:
        problem = f"unknown command {name!r}" if argv else "no command"
        raise ConfigError(f"{problem}; the first argument is one of: {', '.join(_COMMANDS)}")
    if stray:
        raise ConfigError(f"unexpected argument {stray[0]!r}")
    return name, dict(flags)


def main(argv=None) -> int:
    try:
        parsed = _parse(sys.argv[1:] if argv is None else list(argv))
        if parsed is None:
            sys.stdout.write(_usage())
            return 0
        name, flags = parsed
        if "--config" not in flags:
            raise ConfigError("--config is required")
        # The flags other than --config are the command's keyword arguments.
        options = {"out_dir": flags.get("--out", ".")}
        if "--parallel" in flags:
            text = flags["--parallel"]
            try:
                options["parallel"] = int(text)
            except ValueError:
                raise ConfigError(f"--parallel takes an integer, got {text!r}") from None
            if options["parallel"] < 1:
                raise ConfigError(f"--parallel must be >= 1, got {options['parallel']}")
        _COMMANDS[name][0](parse_config(flags["--config"]), **options)
    except (ConfigError, EdgeListError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RadsgdError, OSError, MemoryError) as exc:
        # A bare MemoryError has an empty message.
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

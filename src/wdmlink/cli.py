"""Command line interface.

Subcommands: pattern, field, sweep, avg-sweep, dump-channel, selfcheck.
Each applies an optional config file's entries, then the flags' (which
win), to a built-in profile in one :func:`wdmlink.config.apply_entries`
call and checks the result once, so a file may rely on the flags.  Every
value flag sets one entry of :data:`wdmlink.config.PARAMETERS` and is
converted exactly like its config-file key; angles are degrees.

Exit codes: 0 success, 1 invalid configuration or command line,
2 numerical failure, 3 I/O failure.

A command's runner is imported when the command runs, so the command
line itself loads no numpy: ``sweep`` and ``avg-sweep`` load it only at
their first point not found in the cache (:mod:`wdmlink.experiments`).
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import List, NoReturn, Optional

from .config import PARAMETERS, RunConfig, apply_entries, profile_by_name, read_config_entries

_COMMON_FLAGS = (
    "--out", "--svg", "--workers", "--seed", "--dx", "--dz", "--theta", "--phi", "--n-modes",
)

# subcommand: (help, value flags on top of the common ones, runner module,
# runner name, default output path)
_COMMANDS = {
    "pattern": ("radiation pattern cuts of selected modes", ("--mode-offsets", "--step"),
                "numerical", "run_pattern", "pattern.csv"),
    "field": ("received field profiles of selected modes",
              ("--mode-offsets", "--grid-points"), "numerical", "run_field", "field.csv"),
    "sweep": ("spectral efficiency over a parameter grid",
              ("--parameter", "--start", "--stop", "--count", "--cache-dir"),
              "experiments", "run_sweep", "sweep.csv"),
    "avg-sweep": ("orientation-averaged SE versus d_x",
                  ("--start", "--stop", "--count", "--draws", "--cache-dir"),
                  "experiments", "run_avg_sweep", "avg_sweep.csv"),
    "dump-channel": ("assemble and save the channel matrices", (),
                     "numerical", "run_channel_dump", "channel.wdmch"),
    "selfcheck": ("run numerical health checks", (), "numerical", "run_selfcheck", None),
}


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as invalid configuration (exit 1)."""

    def error(self, message: str) -> NoReturn:
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wdmlink",
        description="Line-of-sight wavenumber-division multiplexing link simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags, *_) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--profile", default="desk", help="base profile: desk or full")
        p.add_argument("--config", default=None, help="INI config file overriding the profile")
        p.add_argument("--no-svg", action="store_true", help="skip the SVG plot")
        # --mode-offsets sets [pattern] for the pattern command, [field] otherwise
        offsets = "pattern" if command == "pattern" else "field"
        for param in PARAMETERS:
            if param.flag in _COMMON_FLAGS + flags and (
                param.key != "mode_offsets" or param.section == offsets
            ):
                p.add_argument(param.flag, dest=f"{param.section}.{param.key}",
                               metavar="VALUE", help=f"sets [{param.section}] {param.key}")
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    entries = read_config_entries(args.config) if args.config else []
    if args.command == "avg-sweep":
        entries.append(("sweep", "parameter", "d_x"))
    entries += [
        (*dest.split("."), raw)
        for dest, raw in vars(args).items()
        if "." in dest and raw is not None
    ]
    source = f"config file {args.config} with the command line" if args.config else "command line"
    return apply_entries(profile_by_name(args.profile), entries, source)


def _numerical_failure(exc: Exception) -> bool:
    """Whether ``exc`` is a numerical failure (exit 2).

    numpy's LinAlgError subclasses ValueError.  It can only have been
    raised once numpy is loaded, so it is looked up, not imported.
    """
    numpy = sys.modules.get("numpy")
    return isinstance(exc, (RuntimeError, ArithmeticError)) or (
        numpy is not None and isinstance(exc, numpy.linalg.LinAlgError)
    )


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _resolve_config(args)
        *_, module, name, default_out = _COMMANDS[args.command]
        # looked up per call, so a rebound attribute is seen
        runner = getattr(importlib.import_module(f"{__package__}.{module}"), name)
        out = cfg.output.csv_path or default_out
        if args.command == "selfcheck":
            if not runner(cfg):
                return 2
        elif args.command == "dump-channel":
            runner(cfg, out)
            print(f"wrote {out}")
        else:
            stem = out[:-4] if out.endswith(".csv") else out
            svg_path = None if args.no_svg else cfg.output.svg_path or stem + ".svg"
            result = runner(cfg, out, svg_path)
            if args.command in ("pattern", "field"):
                print(f"wrote {out}" + (f" and {svg_path}" if svg_path else ""))
            else:
                flagged = sum(1 for r in result if r.error)
                print(
                    f"wrote {out}: {len(result)} points"
                    + (f", {flagged} flagged" if flagged else "")
                )
        return 0
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        if _numerical_failure(exc):
            print(f"numerical failure: {exc}", file=sys.stderr)
            return 2
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

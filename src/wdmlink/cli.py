"""Command line interface.

Subcommands: pattern, field, sweep, avg-sweep, dump-channel, selfcheck.
Each resolves its configuration from a built-in profile, an optional
config file and flag overrides, in that order.  Every value flag sets one
entry of :data:`wdmlink.config.PARAMETERS` and is converted exactly like
its config-file key; angles are degrees.

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
from typing import Callable, List, NoReturn, Optional

from .config import PARAMETERS, RunConfig, apply_entries, profile_by_name, read_config_entries
from .geometry import replace

_COMMON_FLAGS = (
    "--out", "--svg", "--workers", "--seed", "--dx", "--dz", "--theta", "--phi", "--n-modes",
)

# subcommand: (help, value flags on top of the common ones)
_COMMANDS = {
    "pattern": ("radiation pattern cuts of selected modes", ("--mode-offsets", "--step")),
    "field": ("received field profiles of selected modes",
              ("--mode-offsets", "--grid-points")),
    "sweep": ("spectral efficiency over a parameter grid",
              ("--parameter", "--start", "--stop", "--count", "--cache-dir")),
    "avg-sweep": ("orientation-averaged SE versus d_x",
                  ("--start", "--stop", "--count", "--draws", "--cache-dir")),
    "dump-channel": ("assemble and save the channel matrices", ()),
    "selfcheck": ("run numerical health checks", ()),
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
    for command, (help_text, flags) in _COMMANDS.items():
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
    profile = profile_by_name(args.profile)
    file_entries = read_config_entries(args.config) if args.config else []
    source = f"config file {args.config}"
    cfg = apply_entries(profile, file_entries, source)
    entries = [
        (*dest.split("."), raw)
        for dest, raw in vars(args).items()
        if "." in dest and raw is not None
    ]
    if args.command == "avg-sweep":
        given = {(section, key) for section, key, _ in file_entries + entries}
        if ("sweep", "start") not in given and cfg.sweep.parameter != "d_x":
            # profile sweeps move d_z by default; the file and the flags
            # apply on top of the 5..15 m lateral range the averaged
            # curves are read over
            ranged = replace(profile, sweep=replace(profile.sweep, start=5.0, stop=15.0))
            cfg = apply_entries(ranged, file_entries, source)
        entries = [("sweep", "parameter", "d_x")] + entries
    return apply_entries(cfg, entries, "command line")


def _runner(module: str, name: str) -> Callable:
    """``wdmlink.<module>.<name>``, looked up per call so a rebound attribute is seen."""
    return getattr(importlib.import_module(f"{__package__}.{module}"), name)


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
        if args.command == "dump-channel":
            out = cfg.output.csv_path or "channel.wdmch"
            _runner("numerical", "run_channel_dump")(cfg, out)
            print(f"wrote {out}")
        elif args.command == "selfcheck":
            if not _runner("numerical", "run_selfcheck")(cfg):
                return 2
        else:
            module, name, default_csv = {
                "pattern": ("numerical", "run_pattern", "pattern.csv"),
                "field": ("numerical", "run_field", "field.csv"),
                "sweep": ("experiments", "run_sweep", "sweep.csv"),
                "avg-sweep": ("experiments", "run_avg_sweep", "avg_sweep.csv"),
            }[args.command]
            runner = _runner(module, name)
            csv_path = cfg.output.csv_path or default_csv
            stem = csv_path[:-4] if csv_path.endswith(".csv") else csv_path
            svg_path = None if args.no_svg else cfg.output.svg_path or stem + ".svg"
            result = runner(cfg, csv_path, svg_path)
            if args.command in ("pattern", "field"):
                print(f"wrote {csv_path}" + (f" and {svg_path}" if svg_path else ""))
            else:
                flagged = sum(1 for r in result if r.error)
                print(
                    f"wrote {csv_path}: {len(result)} points"
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

"""Command line interface.

Subcommands: pattern, field, sweep, avg-sweep, dump-channel, selfcheck.
Each resolves its configuration from a built-in profile, an optional
config file and flag overrides, in that order.  Every value flag sets one
entry of :data:`wdmlink.config.PARAMETERS` and is converted exactly like
its config-file key; angles are degrees.

Exit codes: 0 success, 1 invalid configuration or command line,
2 numerical failure, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import List, NoReturn, Optional

import numpy as np

from .config import PARAMETERS, RunConfig, apply_entries, profile_by_name, read_config_entries
from .experiments import (
    run_avg_sweep,
    run_channel_dump,
    run_field,
    run_pattern,
    run_selfcheck,
    run_sweep,
)

_DEFAULT_CSV = {
    "pattern": "pattern.csv",
    "field": "field.csv",
    "sweep": "sweep.csv",
    "avg-sweep": "avg_sweep.csv",
}

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


def _csv_and_svg(cfg: RunConfig, command: str, no_svg: bool):
    csv_path = cfg.output.csv_path or _DEFAULT_CSV[command]
    if no_svg:
        return csv_path, None
    if cfg.output.svg_path:
        return csv_path, cfg.output.svg_path
    stem = csv_path[:-4] if csv_path.endswith(".csv") else csv_path
    return csv_path, stem + ".svg"


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _resolve_config(args)
        no_svg = getattr(args, "no_svg", False)
        if args.command == "pattern":
            csv_path, svg_path = _csv_and_svg(cfg, args.command, no_svg)
            run_pattern(cfg, csv_path, svg_path)
            print(f"wrote {csv_path}" + (f" and {svg_path}" if svg_path else ""))
        elif args.command == "field":
            csv_path, svg_path = _csv_and_svg(cfg, args.command, no_svg)
            run_field(cfg, csv_path, svg_path)
            print(f"wrote {csv_path}" + (f" and {svg_path}" if svg_path else ""))
        elif args.command == "sweep":
            csv_path, svg_path = _csv_and_svg(cfg, args.command, no_svg)
            records = run_sweep(cfg, csv_path, svg_path)
            flagged = sum(1 for r in records if r.error)
            print(
                f"wrote {csv_path}: {len(records)} points"
                + (f", {flagged} flagged" if flagged else "")
            )
        elif args.command == "avg-sweep":
            csv_path, svg_path = _csv_and_svg(cfg, args.command, no_svg)
            records = run_avg_sweep(cfg, csv_path, svg_path)
            flagged = sum(1 for r in records if r.error)
            print(
                f"wrote {csv_path}: {len(records)} points"
                + (f", {flagged} flagged" if flagged else "")
            )
        elif args.command == "dump-channel":
            out = cfg.output.csv_path or "channel.wdmch"
            run_channel_dump(cfg, out)
            print(f"wrote {out}")
        elif args.command == "selfcheck":
            if not run_selfcheck(cfg):
                return 2
        return 0
    # LinAlgError subclasses ValueError, so the numerical arm goes first
    except (np.linalg.LinAlgError, RuntimeError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

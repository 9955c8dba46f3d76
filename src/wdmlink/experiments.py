"""SE sweep engine: parameter sweeps and orientation-averaged sweeps.

Every runner consumes a :class:`wdmlink.config.RunConfig`, writes one
CSV (and optionally one SVG rendered from the same data) and returns the
computed records.  This module also holds the one CSV and SVG output
writer (``_write_table``), through which the sweeps here and the pattern
and field runners of :mod:`wdmlink.numerical` write their tables: the
grid column first, cells decimal with 9 significant digits and an
``error`` column last, so a failed sweep point produces a flagged row
with empty values instead of aborting the file.  For a fixed config and
seed the bytes written are identical from run to run.  The pattern,
field, dump and self-check runners compute everything they write, so
they live in :mod:`wdmlink.numerical`.

Both SE sweeps run on one engine: each grid value carries a group of
link geometries, one for a plain sweep and one per source orientation
for an averaged sweep, and the averaged runner reduces each group to
mean and standard error.  With ``[output] cache_dir`` every point's four
spectral efficiencies are stored under a checksum of its header
(:mod:`wdmlink.cache`), and the engine first looks every point up there.
This module, the cache and the CSV and SVG writers need no numpy, so a
run whose every point is found never loads it.  Only a point not found
(or whose entry is unreadable, mismatched or short) imports
:mod:`wdmlink.numerical`, and with it numpy, which maps the geometries
of those points to their SE values.  They are independent and share one
noise factor, so with ``[output] workers`` above 1 they are split into
strided slices, one per forked child (forked after the import, so it
inherits numpy), each factoring once and sending its SE values back over
a pipe; where ``os.fork`` does not exist (Windows) the run is serial.
The parent then stores every computed entry and builds every record, in
grid order: no other module reads or writes the cache.
"""

from __future__ import annotations

import csv
import functools
import math
import operator
import os
from typing import BinaryIO, Callable, List, NamedTuple, NoReturn, Optional, Sequence, Tuple, Union

from .cache import FORMAT_VERSION, channel_cache_key, load_matching_channel_set, save_channel_set
from .config import RunConfig, Scheme, WdmConfig
from .geometry import LinkGeometry, replace
from .svgplot import line_plot_svg, write_svg

__all__ = [
    "SweepRecord",
    "AvgSweepRecord",
    "run_sweep",
    "run_avg_sweep",
]

def _write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    with open(path, "w", encoding="ascii", newline="") as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


class SweepRecord(NamedTuple):
    """One sweep grid point.

    ``error`` is empty on success; on failure it carries the exception
    and the SE fields hold NaN.
    """

    value: float
    se_svd: float
    se_mmse: float
    se_mr: float
    se_plain: float
    error: str = ""


class AvgSweepRecord(NamedTuple):
    """One orientation-averaged grid point (mean and standard error)."""

    value: float
    mean: Tuple[float, float, float, float]
    stderr: Tuple[float, float, float, float]
    error: str = ""


def _cached_se(path: str, geom: LinkGeometry, wdm: WdmConfig) -> Optional[Tuple[float, ...]]:
    """The point's four SE values from its cache entry, or None to compute and store them."""
    if not path:
        return None
    try:
        return load_matching_channel_set(path, geom, wdm)
    except (ValueError, OSError):
        return None  # missing, mismatched or unusable entry


def _compute(cfg: RunConfig, geoms: Sequence[LinkGeometry]) -> List[Union[List[float], str]]:
    """SE values or failure messages of the points not found in the cache, in grid order."""
    from . import numerical  # numpy loads here, in the parent, before any child forks

    evaluate = functools.partial(numerical.evaluate_points, cfg.wdm)
    workers = min(cfg.output.workers, len(geoms))
    if workers > 1 and hasattr(os, "fork"):
        return _fork_join(evaluate, geoms, workers)
    return evaluate(geoms)


def _fork_join(
    evaluate: Callable[[Sequence[LinkGeometry]], list],
    geoms: Sequence[LinkGeometry],
    workers: int,
) -> list:
    """``evaluate(geoms)`` over ``workers`` forked children, one strided slice each.

    Child ``i`` takes ``geoms[i::workers]``: striding balances cost along
    the grid, and a run of points with the same d_x and d_z still shares
    one receive projection.  It pickles the list ``evaluate`` returns (SE
    values and failure messages; the child writes no file), or the
    exception that escaped ``evaluate``, to its pipe and leaves through
    ``os._exit``.  The parent computes nothing (so its peak memory stays
    that of the imports): it reads each pipe to EOF, reaps each child,
    re-raises a child's exception and interleaves the slices back into
    grid order.  A child that ends without a result raises RuntimeError.
    Every child not yet reaped when this returns or raises is killed and
    reaped.
    """
    import pickle
    import signal

    pipes, unreaped = [], []
    try:
        for i in range(workers):
            read_fd, write_fd = os.pipe()
            pipes.append(open(read_fd, "rb"))
            # the parent's write end closes before the next fork, so each
            # pipe reaches EOF once its own child has exited
            with open(write_fd, "wb") as writer:
                pid = os.fork()
                if pid == 0:
                    _run_child(evaluate, geoms[i::workers], writer)
                unreaped.append(pid)
        slices = []
        for pid, pipe in zip(list(unreaped), pipes):
            data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            unreaped.remove(pid)
            if status or not data:
                raise RuntimeError(
                    f"worker process {pid} ended without a result (wait status {status})"
                )
            outcome = pickle.loads(data)
            if isinstance(outcome, Exception):
                raise outcome
            slices.append(outcome)
        return [slices[j % workers][j // workers] for j in range(len(geoms))]
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in unreaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _run_child(
    evaluate: Callable[[Sequence[LinkGeometry]], list],
    geoms: Sequence[LinkGeometry],
    writer: BinaryIO,
) -> NoReturn:
    """In a forked child: send ``evaluate(geoms)`` or its exception to ``writer``, then exit.

    ``os._exit`` in every case, so the child never returns into the
    parent's stack, runs no ``atexit`` handler and flushes none of the
    parent's buffered output; exit status 0 means the outcome was sent.
    """
    import pickle

    status = 1
    try:
        try:
            outcome: object = evaluate(geoms)
        except Exception as exc:  # re-raised by the parent
            outcome = exc
        pickle.dump(outcome, writer)
        writer.flush()
        status = 0
    finally:
        os._exit(status)


def _entry_path(cache_dir: str, geom: LinkGeometry, wdm: WdmConfig) -> str:
    """Where the point's cache entry lives, "" without a cache."""
    if not cache_dir:
        return ""
    return os.path.join(cache_dir, FORMAT_VERSION, channel_cache_key(geom, wdm) + ".wdmch")


def _run_groups(
    cfg: RunConfig, groups: Sequence[Tuple[float, Sequence[LinkGeometry]]]
) -> List[List[SweepRecord]]:
    """Point records of each (grid value, geometries) group, in grid order.

    The points not found in the cache are computed together, then their
    entries stored in grid order; a failed write raises its OSError, an
    i/o failure of the run rather than of a point.
    """
    wdm, cache_dir = cfg.wdm, cfg.output.cache_dir
    geoms = [geom for _, geometries in groups for geom in geometries]
    paths = [_entry_path(cache_dir, geom, wdm) for geom in geoms]
    # each point's fields after its grid value: four SE values, or NaNs and an error
    fields: List[Optional[Sequence]] = [_cached_se(p, g, wdm) for p, g in zip(paths, geoms)]
    missed = [i for i, se in enumerate(fields) if se is None]
    if missed:
        if cache_dir:
            os.makedirs(os.path.join(cache_dir, FORMAT_VERSION), exist_ok=True)
        for i, se in zip(missed, _compute(cfg, [geoms[i] for i in missed])):
            if isinstance(se, str):
                se = [math.nan] * 4 + [se]
            elif cache_dir:
                save_channel_set(paths[i], geoms[i], wdm, se)
            fields[i] = se
    remaining = iter(fields)
    return [
        [SweepRecord(value, *next(remaining)) for _ in geometries] for value, geometries in groups
    ]


_SWEEP_LABELS = {"d_z": "d_z [m]", "theta_s": "theta_s [deg]", "d_x": "d_x [m]"}
_SCHEME_LABELS = ("SVD", "MMSE", "MR", "plain")  # plot labels of Scheme's members


def _write_table(
    csv_path: str,
    svg_path: Optional[str],
    grid: Tuple[str, Sequence[float]],
    columns: Sequence[Tuple[str, Optional[str], Sequence[float]]],
    errors: Sequence[str],
    render: Callable[[list], str],
) -> None:
    """Write a CSV table and, given ``svg_path``, its plot drawn by ``render``.

    ``grid`` is the first column's (name, values), each column a value
    column's (CSV name, plot label or None, values).  A row with an error
    gets blank value cells.  ``render`` gets each labelled column as a
    (label, grid values, values) series.
    """
    name, xs = grid
    rows = [
        [f"{x:.9g}"]
        + ([""] * len(columns) + [error] if error else [f"{c[2][i]:.9g}" for c in columns] + [""])
        for i, (x, error) in enumerate(zip(xs, errors))
    ]
    _write_csv(csv_path, [name, *(c[0] for c in columns), "error"], rows)
    if svg_path:
        write_svg(svg_path, render([(label, xs, values) for _, label, values in columns if label]))


def _se_plot(cfg: RunConfig, ylabel: str, title: str) -> Callable[[list], str]:
    """The line plot of a sweep's SE columns over its grid."""
    return functools.partial(
        line_plot_svg, xlabel=_SWEEP_LABELS[cfg.sweep.parameter], ylabel=ylabel, title=title
    )


def run_sweep(
    cfg: RunConfig, csv_path: str, svg_path: Optional[str] = None
) -> List[SweepRecord]:
    """Sum SE of all four architectures over the configured sweep grid.

    Sweeping theta_s interprets the grid in degrees; d_z and d_x grids
    are meters.
    """
    parameter = cfg.sweep.parameter
    groups = [(v, [cfg.sweep.geometry_at(cfg.geometry, v)]) for v in cfg.sweep.values()]
    records = [group[0] for group in _run_groups(cfg, groups)]
    names = [f"se_{s.value}" for s in Scheme]
    _write_table(
        csv_path,
        svg_path,
        ("value", [r.value for r in records]),
        list(zip(names, _SCHEME_LABELS, zip(*[r[1:5] for r in records]))),
        [r.error for r in records],
        _se_plot(cfg, "spectral efficiency [bit per channel use]", f"SE sweep over {parameter}"),
    )
    return records


_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


class _UniformStream:
    """The stream of numpy's ``default_rng(seed).uniform``, bit for bit.

    ``numpy.random`` costs ~20 ms and ~5.5 MB of RSS to import (numpy 2.4,
    2-core Xeon) for a handful of draws, and its ``Generator`` may change
    streams between releases, so the same numbers are computed here: numpy's SeedSequence mixes the
    32-bit words of ``seed`` (non-negative) into a 4-word pool and expands
    it to a PCG64 state and increment; each draw steps the 128-bit LCG,
    takes the XSL-RR output and scales its top 53 bits into [low, high).
    """

    def __init__(self, seed: int) -> None:
        words = [seed & _MASK32]
        while seed > _MASK32:
            seed >>= 32
            words.append(seed & _MASK32)
        hash_const = 0x43B0D7E5

        def hashmix(value: int) -> int:
            nonlocal hash_const
            value ^= hash_const
            hash_const = hash_const * 0x931E8875 & _MASK32
            value = value * hash_const & _MASK32
            return value ^ value >> 16

        def mix(x: int, y: int) -> int:
            result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
            return result ^ result >> 16

        pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in words[4:]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(word))
        hash_const, state = 0x8B51F9DD, []
        for i in range(8):
            value = pool[i % 4] ^ hash_const
            hash_const = hash_const * 0x58F38DED & _MASK32
            value = value * hash_const & _MASK32
            state.append(value ^ value >> 16)
        # little-endian 64-bit words (s0, s1, i0, i1); seed = s0:s1, seq = i0:i1
        s0, s1, i0, i1 = (state[j] | state[j + 1] << 32 for j in range(0, 8, 2))
        # PCG64 seeding: step from state 0, add the seed, step again
        self._inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        self._state = ((self._inc + (s0 << 64 | s1)) * _PCG64_MULT + self._inc) & _MASK128

    def _next_double(self) -> float:
        self._state = (self._state * _PCG64_MULT + self._inc) & _MASK128
        xored, rot = (self._state >> 64 ^ self._state) & _MASK64, self._state >> 122
        output = (xored >> rot | xored << (64 - rot)) & _MASK64
        return (output >> 11) * 2.0**-53

    def uniform(self, low: float, high: float, size: Optional[int] = None):
        """One float for ``size=None``, else a list of ``size`` draws."""
        span = high - low
        if size is None:
            return low + span * self._next_double()
        return [low + span * self._next_double() for _ in range(size)]


def _mean_stderr(values: Sequence[float]) -> Tuple[float, float]:
    """Mean and standard error of ``values`` as numpy computes them.

    The mean and the ddof=1 standard deviation over sqrt(n) of numpy's
    ``mean(axis=0)`` and ``std(axis=0, ddof=1)`` on a column, bit for bit:
    both sums run left to right without compensation (which ``sum`` adds
    for floats from Python 3.12 on).  A single value has error 0.
    """
    n = len(values)
    mean = functools.reduce(operator.add, values) / n
    if n == 1:
        return mean, 0.0 * mean
    squares = functools.reduce(operator.add, [(v - mean) * (v - mean) for v in values])
    return mean, math.sqrt(squares / (n - 1)) / math.sqrt(n)


def run_avg_sweep(
    cfg: RunConfig, csv_path: str, svg_path: Optional[str] = None
) -> List[AvgSweepRecord]:
    """Orientation-averaged SE versus d_x.

    For every grid distance the four architectures are averaged over an
    ensemble of orientations: each azimuth in ``phi_set`` is paired with
    ``draws_per_phi`` polar tilts drawn uniformly from
    [0, theta_max); the draw set comes from the configured seed once per
    sweep and is shared across grid points, so curves differ only
    through the geometry.  A grid point with a failed orientation is
    flagged with the first failure.
    """
    if cfg.sweep.parameter != "d_x":
        raise ValueError(
            f"orientation-averaged sweeps run over d_x, got {cfg.sweep.parameter!r}"
        )
    theta_draws = _UniformStream(cfg.sweep.seed).uniform(
        0.0, math.radians(cfg.sweep.theta_max_deg), cfg.sweep.draws_per_phi
    )
    oriented = [
        replace(cfg.geometry, theta_s=theta, phi_s=math.radians(phi_deg))
        for phi_deg in cfg.sweep.phi_set_deg
        for theta in theta_draws
    ]
    groups = [
        (value, [cfg.sweep.geometry_at(geom, value) for geom in oriented])
        for value in cfg.sweep.values()
    ]
    records = []
    for (value, _), group in zip(groups, _run_groups(cfg, groups)):
        # a failed orientation holds NaN, so its grid point averages to NaN
        stats = [
            _mean_stderr(column)
            for column in zip(*[(g.se_svd, g.se_mmse, g.se_mr, g.se_plain) for g in group])
        ]
        mean, stderr = (tuple(stat) for stat in zip(*stats))
        error = next((g.error for g in group if g.error), "")
        records.append(AvgSweepRecord(value, mean, stderr, error))
    names = [f"se_{s.value}_{stat}" for stat in ("mean", "stderr") for s in Scheme]
    _write_table(
        csv_path,
        svg_path,
        ("value", [r.value for r in records]),
        list(zip(names, _SCHEME_LABELS + (None,) * 4, zip(*[r.mean + r.stderr for r in records]))),
        [r.error for r in records],
        _se_plot(
            cfg, "average spectral efficiency [bit per channel use]", "Orientation-averaged SE"
        ),
    )
    return records

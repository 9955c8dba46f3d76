"""Experiment runners: pattern cuts, field profiles, SE sweeps.

Every runner consumes a :class:`wdmlink.config.RunConfig`, writes one
CSV (and optionally one SVG rendered from the same data) and returns the
computed records.  CSV cells are decimal with 9 significant digits and
every row ends with an ``error`` column: a failed sweep point produces a
flagged row with empty values instead of aborting the file.  For a fixed
config and seed the bytes written are identical from run to run.

Both SE sweeps run on one engine: each grid value carries a group of
link geometries, one for a plain sweep and one per source orientation
for an averaged sweep, and the averaged runner reduces each group to
mean and standard error.  The points are independent and share one
noise factor (:func:`wdmlink.channel.noise_factor`), so chunks of them
can go to a process pool (``[output] workers``), each chunk factoring
once; rows are emitted in grid order regardless of worker count.  With
``[output] cache_dir`` every point's four spectral efficiencies are
stored under a checksum of its header, so a point found there runs no
channel assembly, whitening or receiver; an entry that cannot be read,
does not match or holds no four SE values is recomputed and rewritten.
"""

from __future__ import annotations

import csv
import functools
import math
import os
import zipfile
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .channel import (
    FORMAT_VERSION,
    WdmConfig,
    assemble_H,
    assemble_R,
    channel_cache_key,
    load_matching_channel_set,
    noise_factor,
    save_channel_set,
    total_power,
    white_channel,
    whiten,
)
from .config import RunConfig
from .em_field import (
    EmConstants,
    ModeIndex,
    boresight_reference_peak,
    green_dyadic_ff,
    gz_kernel,
    radiation_pattern,
    received_field_profile,
)
from .geometry import LinkGeometry, source_direction
from .receivers import Scheme, spectral_efficiency, waterfill
from .svgplot import line_plot_svg, polar_plot_svg, write_svg

__all__ = [
    "SweepRecord",
    "AvgSweepRecord",
    "run_pattern",
    "run_field",
    "run_sweep",
    "run_avg_sweep",
    "run_channel_dump",
    "run_selfcheck",
]

SCHEME_ORDER = (Scheme.SVD, Scheme.MMSE, Scheme.MR, Scheme.PLAIN)


def _fmt(value: float) -> str:
    return f"{value:.9g}"


def _write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    with open(path, "w", encoding="ascii", newline="") as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _center_mode(n_modes: int) -> int:
    return (n_modes + 1) // 2


def _modes_from_offsets(
    offsets: Sequence[int], cfg: RunConfig
) -> List[ModeIndex]:
    k = EmConstants(cfg.wdm.wavelength)
    center = _center_mode(cfg.wdm.n_modes)
    modes = []
    for off in offsets:
        n = center + off
        if not 1 <= n <= cfg.wdm.n_modes:
            raise ValueError(
                f"mode offset {off} falls outside the multiplex "
                f"(center {center}, N = {cfg.wdm.n_modes})"
            )
        modes.append(
            ModeIndex.from_mode_number(n, cfg.wdm.n_modes, cfg.geometry.L_s, k)
        )
    return modes


# ---------------------------------------------------------------------------
# Radiation pattern cuts


def run_pattern(
    cfg: RunConfig, csv_path: str, svg_path: Optional[str] = None
) -> Dict[int, np.ndarray]:
    """Normalized power pattern of selected modes over the cone angle.

    Writes one row per angle on a step_deg grid spanning [0, 180]
    degrees, one column per mode.
    """
    modes = _modes_from_offsets(cfg.pattern.mode_offsets, cfg)
    k = EmConstants(cfg.wdm.wavelength)
    steps = int(round(180.0 / cfg.pattern.step_deg))
    theta_deg = np.linspace(0.0, 180.0, steps + 1)
    theta = np.radians(theta_deg)
    values = {m.n: radiation_pattern(theta, m, cfg.geometry, k) for m in modes}
    header = ["theta_deg"] + [f"mode_{m.n}" for m in modes] + ["error"]
    rows = [
        [_fmt(theta_deg[i])] + [_fmt(values[m.n][i]) for m in modes] + [""]
        for i in range(theta_deg.size)
    ]
    _write_csv(csv_path, header, rows)
    if svg_path:
        series = [
            (f"mode {m.n}", theta_deg, values[m.n]) for m in modes
        ]
        write_svg(svg_path, polar_plot_svg(series, title="Mode radiation patterns"))
    return values


# ---------------------------------------------------------------------------
# Received field profiles


def run_field(
    cfg: RunConfig, csv_path: str, svg_path: Optional[str] = None
) -> Dict[int, np.ndarray]:
    """|e_z| of selected modes along the receive segment, normalized.

    The normalization constant is the broadside peak of the centered,
    untilted configuration, so a tilted run shows its loss directly.
    Writes one row per grid height with the offset r_z - d_z in the
    first column.
    """
    modes = _modes_from_offsets(cfg.field.mode_offsets, cfg)
    geom = cfg.geometry
    k = EmConstants(cfg.wdm.wavelength)
    grid = np.linspace(
        geom.d_z - geom.L_r / 2.0, geom.d_z + geom.L_r / 2.0, cfg.field.grid_points
    )
    e0 = boresight_reference_peak(geom, k, grid, cfg.wdm.quadrature)
    profiles = {
        m.n: np.abs(received_field_profile(m, geom, k, grid, cfg.wdm.quadrature)) / e0
        for m in modes
    }
    offsets = grid - geom.d_z
    header = ["r_offset"] + [f"mode_{m.n}" for m in modes] + ["error"]
    rows = [
        [_fmt(offsets[i])] + [_fmt(profiles[m.n][i]) for m in modes] + [""]
        for i in range(grid.size)
    ]
    _write_csv(csv_path, header, rows)
    if svg_path:
        series = [(f"mode {m.n}", offsets, profiles[m.n]) for m in modes]
        write_svg(
            svg_path,
            line_plot_svg(
                series,
                xlabel="r_z - d_z [m]",
                ylabel="|e_z| / e_0",
                title="Received field profiles",
            ),
        )
    return profiles


# ---------------------------------------------------------------------------
# Spectral-efficiency sweeps


@dataclass(frozen=True)
class SweepRecord:
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


@dataclass(frozen=True)
class AvgSweepRecord:
    """One orientation-averaged grid point (mean and standard error)."""

    value: float
    mean: Tuple[float, float, float, float]
    stderr: Tuple[float, float, float, float]
    error: str = ""


def _cached_se(path: str, geom: LinkGeometry, wdm: WdmConfig) -> Optional[np.ndarray]:
    """The four SE values stored at ``path``, or None to recompute and rewrite them."""
    try:
        se = load_matching_channel_set(path, geom, wdm)["se"]
    except (ValueError, OSError, KeyError, zipfile.BadZipFile, EOFError):
        return None  # missing, truncated or mismatched entry, or one without se
    return se if se.shape == (len(SCHEME_ORDER),) and se.dtype == np.float64 else None


def _evaluate_points(
    wdm: WdmConfig, cache_dir: str, points: Sequence[Tuple[float, LinkGeometry]]
) -> List[SweepRecord]:
    """SE records of (grid value, geometry) points in order, a failed point flagged.

    The points differ only in d_x, d_z and orientation, so one noise factor,
    built at the first point not loaded from the cache, whitens them all.
    """
    power, L0, records = total_power(wdm), None, []
    for value, geom in points:
        try:
            path = cache_dir and os.path.join(
                cache_dir, FORMAT_VERSION, channel_cache_key(geom, wdm) + ".wdmch"
            )
            se = _cached_se(path, geom, wdm) if path else None
            if se is None:
                # a failed factor flags this point, and the next one tries again
                L0 = noise_factor(geom, wdm) if L0 is None else L0
                H_tilde = white_channel(geom, wdm, L0)
                se = np.array([
                    spectral_efficiency(s, H_tilde, power, wdm.mmse_form).se_total
                    for s in SCHEME_ORDER
                ])
                if path:
                    os.makedirs(os.path.dirname(path), exist_ok=True)
                    save_channel_set(path, geom, wdm, se=se)
            records.append(SweepRecord(value, *se.tolist()))
        except Exception as exc:  # flagged row per grid point, file stays complete
            error = f"{type(exc).__name__}: {exc}"
            records.append(SweepRecord(value, *[math.nan] * 4, error=error))
    return records


def _run_groups(
    cfg: RunConfig, groups: Sequence[Tuple[float, Sequence[LinkGeometry]]]
) -> List[List[SweepRecord]]:
    """Point records of each (grid value, geometries) group, in grid order."""
    evaluate = functools.partial(_evaluate_points, cfg.wdm, cfg.output.cache_dir)
    points = [(value, geom) for value, geometries in groups for geom in geometries]
    workers = cfg.output.workers
    if workers > 1 and len(points) > 1:
        # ~20 ms and 2 MB (multiprocessing, socket), so only a pooled run pays
        from concurrent.futures import ProcessPoolExecutor

        # about four chunks per worker: fewer round trips, still balanced;
        # each chunk builds its own noise factor, so the parent builds none
        size = max(1, len(points) // (4 * workers))
        chunks = [points[i : i + size] for i in range(0, len(points), size)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            flat = [rec for chunk in pool.map(evaluate, chunks) for rec in chunk]
    else:
        flat = evaluate(points)
    records = iter(flat)
    return [[next(records) for _ in geometries] for _, geometries in groups]


_SWEEP_LABELS = {"d_z": "d_z [m]", "theta_s": "theta_s [deg]", "d_x": "d_x [m]"}


def _write_se_outputs(
    cfg: RunConfig,
    csv_path: str,
    svg_path: Optional[str],
    columns: Sequence[str],
    records: Sequence,
    cells: Sequence[Sequence[float]],
    ylabel: str,
    title: str,
) -> None:
    """CSV and four-scheme SVG of sweep records.

    ``cells[i]`` are the SE columns of ``records[i]``, the SVD, MMSE, MR
    and plain values first; those four are plotted over the grid.  A
    flagged record gets blank SE cells and its error.
    """
    rows = [
        [_fmt(rec.value)]
        + ([""] * len(row) + [rec.error] if rec.error else [_fmt(v) for v in row] + [""])
        for rec, row in zip(records, cells)
    ]
    _write_csv(csv_path, ["value", *columns, "error"], rows)
    if svg_path:
        xs = np.array([rec.value for rec in records])
        series = [
            (name, xs, np.array([row[i] for row in cells]))
            for i, name in enumerate(("SVD", "MMSE", "MR", "plain"))
        ]
        write_svg(
            svg_path,
            line_plot_svg(
                series,
                xlabel=_SWEEP_LABELS[cfg.sweep.parameter],
                ylabel=ylabel,
                title=title,
            ),
        )


def run_sweep(
    cfg: RunConfig, csv_path: str, svg_path: Optional[str] = None
) -> List[SweepRecord]:
    """Sum SE of all four architectures over the configured sweep grid.

    Sweeping theta_s interprets the grid in degrees; d_z and d_x grids
    are meters.
    """
    parameter = cfg.sweep.parameter
    to_geometry = math.radians if parameter == "theta_s" else float
    groups = [
        (float(value), [replace(cfg.geometry, **{parameter: to_geometry(float(value))})])
        for value in cfg.sweep.values()
    ]
    records = [group[0] for group in _run_groups(cfg, groups)]
    _write_se_outputs(
        cfg,
        csv_path,
        svg_path,
        [f"se_{s.value}" for s in SCHEME_ORDER],
        records,
        [(r.se_svd, r.se_mmse, r.se_mr, r.se_plain) for r in records],
        ylabel="spectral efficiency [bit per channel use]",
        title=f"SE sweep over {parameter}",
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
        """One float for ``size=None``, else an array of ``size`` draws."""
        span = high - low
        if size is None:
            return low + span * self._next_double()
        return np.array([low + span * self._next_double() for _ in range(size)])


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
        replace(cfg.geometry, theta_s=float(theta), phi_s=math.radians(phi_deg))
        for phi_deg in cfg.sweep.phi_set_deg
        for theta in theta_draws
    ]
    groups = [
        (float(value), [replace(geom, d_x=float(value)) for geom in oriented])
        for value in cfg.sweep.values()
    ]
    records = []
    for (value, _), group in zip(groups, _run_groups(cfg, groups)):
        # a failed orientation holds NaN, so its grid point averages to NaN
        table = np.array(
            [[g.se_svd, g.se_mmse, g.se_mr, g.se_plain] for g in group]
        )
        n_ens = len(group)
        mean = table.mean(axis=0)
        stderr = table.std(axis=0, ddof=1) / math.sqrt(n_ens) if n_ens > 1 else 0 * mean
        error = next((g.error for g in group if g.error), "")
        records.append(AvgSweepRecord(value, tuple(mean), tuple(stderr), error))
    _write_se_outputs(
        cfg,
        csv_path,
        svg_path,
        [f"se_{s.value}_{stat}" for stat in ("mean", "stderr") for s in SCHEME_ORDER],
        records,
        [r.mean + r.stderr for r in records],
        ylabel="average spectral efficiency [bit per channel use]",
        title="Orientation-averaged SE",
    )
    return records


# ---------------------------------------------------------------------------
# Channel dump and self-check


def run_channel_dump(cfg: RunConfig, out_path: str) -> str:
    """Write the configured link's H and R, unwhitened, to ``out_path``."""
    geom, wdm = cfg.geometry, cfg.wdm
    save_channel_set(out_path, geom, wdm, H=assemble_H(geom, wdm), R=assemble_R(geom, wdm))
    return out_path


def run_selfcheck(cfg: RunConfig) -> bool:
    """Numerical health checks on the configured link.

    Verifies quadrature convergence of H and R under node doubling, the
    scalar kernel against the dyadic Green's function, the whitening
    factorization and the water-filling optimality conditions.  Prints
    one PASS/FAIL line per check and returns overall success.
    """
    checks: List[Tuple[str, bool, str]] = []
    geom, wdm = cfg.geometry, cfg.wdm

    fine = replace(
        wdm,
        quadrature=replace(
            wdm.quadrature,
            points_per_wavelength=2.0 * wdm.quadrature.points_per_wavelength,
        ),
    )
    H, R = assemble_H(geom, wdm), assemble_R(geom, wdm)
    for name, coarse, assemble in (("H", H, assemble_H), ("R", R, assemble_R)):
        ref = assemble(geom, fine)
        drift = float(np.linalg.norm(coarse - ref) / max(np.linalg.norm(ref), 1e-300))
        checks.append(
            (
                f"{name} quadrature convergence",
                drift < wdm.quadrature.rel_tol,
                f"relative drift {drift:.3e} under node doubling",
            )
        )

    k = EmConstants(wdm.wavelength)
    rng = _UniformStream(202404)
    worst = 0.0
    for _ in range(200):
        u = rng.uniform(-1.0, 1.0, 3)
        u *= (20.0 * wdm.wavelength) / np.linalg.norm(u)
        theta = rng.uniform(0.0, math.pi)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        direct = gz_kernel(u, theta, phi, k)
        dyad = green_dyadic_ff(u, np.zeros(3), k)
        via_dyad = dyad[2] @ source_direction(theta, phi)
        worst = max(worst, abs(direct - via_dyad) / abs(via_dyad))
    checks.append(
        (
            "scalar kernel vs dyad",
            worst < 1e-12,
            f"worst relative mismatch {worst:.3e} over 200 samples",
        )
    )

    C, L, _ = whiten(H, R, wdm)
    recon = float(np.linalg.norm(L @ L.conj().T - C) / np.linalg.norm(C))
    checks.append(
        (
            "noise factorization",
            recon < 1e-12,
            f"Cholesky reconstruction error {recon:.3e}",
        )
    )

    chi = rng.uniform(0.1, 10.0, wdm.n_modes)
    p, mu = waterfill(chi, total_power(wdm))
    budget = abs(p.sum() - total_power(wdm)) / total_power(wdm)
    kkt = True
    for pn, cn in zip(p, chi):
        if pn > 0.0 and abs(mu - (pn + 1.0 / cn)) > 1e-9 * mu:
            kkt = False
        if pn == 0.0 and 1.0 / cn < mu * (1.0 - 1e-12):
            kkt = False
    checks.append(
        (
            "water-filling optimality",
            kkt and budget < 1e-9,
            f"budget error {budget:.3e}",
        )
    )

    ok = True
    for name, passed, detail in checks:
        ok = ok and bool(passed)
        print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    return ok

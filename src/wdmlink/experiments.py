"""Experiment runners: pattern cuts, field profiles, SE sweeps.

Every runner consumes a :class:`wdmlink.config.RunConfig`, writes one
CSV (and optionally one SVG rendered from the same data) and returns the
computed records.  CSV cells are decimal with 9 significant digits and
every row ends with an ``error`` column: a failed sweep point produces a
flagged row with empty values instead of aborting the file.  For a fixed
config and seed the bytes written are identical from run to run.

Sweep grid points are independent, so they can be distributed over a
process pool (``[output] workers``); rows are emitted in grid order
regardless of worker count.  With ``[output] cache_dir`` every channel
set is stored under a hash of its header; an entry that cannot be read
or does not match is recomputed and rewritten.
"""

from __future__ import annotations

import csv
import math
import os
import zipfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .channel import (
    ChannelSet,
    WdmConfig,
    assemble_H,
    assemble_R,
    assemble_channel_set,
    channel_cache_key,
    load_matching_channel_set,
    save_channel_set,
    total_power,
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


@dataclass(frozen=True)
class _PointTask:
    value: float
    geometry: LinkGeometry
    wdm: WdmConfig
    mmse_form: str
    cache_dir: str


def _channel_for(geom: LinkGeometry, cfg: WdmConfig, cache_dir: str) -> ChannelSet:
    if not cache_dir:
        return assemble_channel_set(geom, cfg)
    path = os.path.join(cache_dir, channel_cache_key(geom, cfg) + ".wdmch")
    try:
        return load_matching_channel_set(path, geom, cfg)
    except (ValueError, OSError, zipfile.BadZipFile, EOFError):
        pass  # missing, truncated or mismatched entry: recompute and rewrite it
    ch = assemble_channel_set(geom, cfg)
    os.makedirs(cache_dir, exist_ok=True)
    save_channel_set(path, ch, geom, cfg)
    return ch


def _geometry_at(geom: LinkGeometry, parameter: str, value: float) -> LinkGeometry:
    return replace(geom, **{parameter: value})


def _evaluate_point(task: _PointTask) -> SweepRecord:
    try:
        ch = _channel_for(task.geometry, task.wdm, task.cache_dir)
        power = total_power(task.wdm)
        ses = [
            spectral_efficiency(kind, ch, power, task.mmse_form).se_total
            for kind in SCHEME_ORDER
        ]
        return SweepRecord(task.value, *ses)
    except Exception as exc:  # flagged row per grid point, file stays complete
        nan = float("nan")
        return SweepRecord(
            task.value, nan, nan, nan, nan, error=f"{type(exc).__name__}: {exc}"
        )


def _run_tasks(tasks: Sequence[_PointTask], workers: int) -> List[SweepRecord]:
    if workers > 1 and len(tasks) > 1:
        # about four chunks per worker: fewer round trips, still balanced
        chunk = max(1, len(tasks) // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_evaluate_point, tasks, chunksize=chunk))
    return [_evaluate_point(t) for t in tasks]


def _sweep_tasks(cfg: RunConfig) -> List[_PointTask]:
    values = cfg.sweep.values()
    tasks = []
    for value in values:
        point_value = float(value)
        if cfg.sweep.parameter == "theta_s":
            point_value = math.radians(point_value)
        geom = _geometry_at(cfg.geometry, cfg.sweep.parameter, point_value)
        tasks.append(
            _PointTask(
                value=float(value),
                geometry=geom,
                wdm=cfg.wdm,
                mmse_form=cfg.mmse_form,
                cache_dir=cfg.output.cache_dir,
            )
        )
    return tasks


_SWEEP_LABELS = {"d_z": "d_z [m]", "theta_s": "theta_s [deg]", "d_x": "d_x [m]"}


def _record_cells(rec: SweepRecord) -> List[str]:
    if rec.error:
        return [_fmt(rec.value), "", "", "", "", rec.error]
    return [
        _fmt(rec.value),
        _fmt(rec.se_svd),
        _fmt(rec.se_mmse),
        _fmt(rec.se_mr),
        _fmt(rec.se_plain),
        "",
    ]


def run_sweep(
    cfg: RunConfig, csv_path: str, svg_path: Optional[str] = None
) -> List[SweepRecord]:
    """Sum SE of all four architectures over the configured sweep grid.

    Sweeping theta_s interprets the grid in degrees; d_z and d_x grids
    are meters.
    """
    tasks = _sweep_tasks(cfg)
    records = _run_tasks(tasks, cfg.output.workers)
    header = ["value", "se_svd", "se_mmse", "se_mr", "se_plain", "error"]
    _write_csv(csv_path, header, [_record_cells(r) for r in records])
    if svg_path:
        values = np.array([r.value for r in records])
        series = []
        for name, attr in (
            ("SVD", "se_svd"),
            ("MMSE", "se_mmse"),
            ("MR", "se_mr"),
            ("plain", "se_plain"),
        ):
            series.append((name, values, np.array([getattr(r, attr) for r in records])))
        write_svg(
            svg_path,
            line_plot_svg(
                series,
                xlabel=_SWEEP_LABELS[cfg.sweep.parameter],
                ylabel="spectral efficiency [bit per channel use]",
                title=f"SE sweep over {cfg.sweep.parameter}",
            ),
        )
    return records


def run_avg_sweep(
    cfg: RunConfig, csv_path: str, svg_path: Optional[str] = None
) -> List[AvgSweepRecord]:
    """Orientation-averaged SE versus d_x.

    For every grid distance the four architectures are averaged over an
    ensemble of orientations: each azimuth in ``phi_set`` is paired with
    ``draws_per_phi`` polar tilts drawn uniformly from
    (0, theta_max]; the draw set comes from the configured seed once per
    sweep and is shared across grid points, so curves differ only
    through the geometry.
    """
    if cfg.sweep.parameter != "d_x":
        raise ValueError(
            f"orientation-averaged sweeps run over d_x, got {cfg.sweep.parameter!r}"
        )
    rng = np.random.default_rng(cfg.sweep.seed)
    theta_draws = rng.uniform(0.0, math.radians(cfg.sweep.theta_max_deg),
                              cfg.sweep.draws_per_phi)
    orientations = [
        (theta, math.radians(phi_deg))
        for phi_deg in cfg.sweep.phi_set_deg
        for theta in theta_draws
    ]
    values = cfg.sweep.values()
    tasks = []
    for value in values:
        for theta, phi in orientations:
            geom = replace(
                cfg.geometry, d_x=float(value), theta_s=float(theta), phi_s=float(phi)
            )
            tasks.append(
                _PointTask(
                    value=float(value),
                    geometry=geom,
                    wdm=cfg.wdm,
                    mmse_form=cfg.mmse_form,
                    cache_dir=cfg.output.cache_dir,
                )
            )
    flat = _run_tasks(tasks, cfg.output.workers)
    records: List[AvgSweepRecord] = []
    n_ens = len(orientations)
    for i, value in enumerate(values):
        group = flat[i * n_ens : (i + 1) * n_ens]
        failed = [g for g in group if g.error]
        if failed:
            records.append(
                AvgSweepRecord(
                    float(value),
                    (math.nan,) * 4,
                    (math.nan,) * 4,
                    error=failed[0].error,
                )
            )
            continue
        table = np.array(
            [[g.se_svd, g.se_mmse, g.se_mr, g.se_plain] for g in group]
        )
        mean = table.mean(axis=0)
        stderr = table.std(axis=0, ddof=1) / math.sqrt(n_ens) if n_ens > 1 else 0 * mean
        records.append(AvgSweepRecord(float(value), tuple(mean), tuple(stderr)))
    header = (
        ["value"]
        + [f"se_{s}_mean" for s in ("svd", "mmse", "mr", "plain")]
        + [f"se_{s}_stderr" for s in ("svd", "mmse", "mr", "plain")]
        + ["error"]
    )
    rows = []
    for rec in records:
        if rec.error:
            rows.append([_fmt(rec.value)] + [""] * 8 + [rec.error])
        else:
            rows.append(
                [_fmt(rec.value)]
                + [_fmt(v) for v in rec.mean]
                + [_fmt(v) for v in rec.stderr]
                + [""]
            )
    _write_csv(csv_path, header, rows)
    if svg_path:
        xs = np.array([r.value for r in records])
        series = [
            (name, xs, np.array([r.mean[i] if not r.error else math.nan for r in records]))
            for i, name in enumerate(("SVD", "MMSE", "MR", "plain"))
        ]
        write_svg(
            svg_path,
            line_plot_svg(
                series,
                xlabel="d_x [m]",
                ylabel="average spectral efficiency [bit per channel use]",
                title="Orientation-averaged SE",
            ),
        )
    return records


# ---------------------------------------------------------------------------
# Channel dump and self-check


def run_channel_dump(cfg: RunConfig, out_path: str) -> str:
    """Assemble the configured channel and write it to ``out_path``."""
    ch = _channel_for(cfg.geometry, cfg.wdm, cache_dir="")
    save_channel_set(out_path, ch, cfg.geometry, cfg.wdm)
    return out_path


def run_selfcheck(cfg: RunConfig, verbose: bool = True) -> bool:
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
    H = assemble_H(geom, wdm)
    H_fine = assemble_H(geom, fine)
    drift_h = float(
        np.linalg.norm(H - H_fine) / max(np.linalg.norm(H_fine), 1e-300)
    )
    checks.append(
        (
            "H quadrature convergence",
            drift_h < wdm.quadrature.rel_tol,
            f"relative drift {drift_h:.3e} under node doubling",
        )
    )
    R = assemble_R(geom, wdm)
    R_fine = assemble_R(geom, fine)
    drift_r = float(
        np.linalg.norm(R - R_fine) / max(np.linalg.norm(R_fine), 1e-300)
    )
    checks.append(
        (
            "R quadrature convergence",
            drift_r < wdm.quadrature.rel_tol,
            f"relative drift {drift_r:.3e} under node doubling",
        )
    )

    k = EmConstants(wdm.wavelength)
    rng = np.random.default_rng(202404)
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

    ch = whiten(H, R, wdm)
    recon = float(
        np.linalg.norm(ch.L @ ch.L.conj().T - ch.C) / np.linalg.norm(ch.C)
    )
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
        if verbose:
            print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    return ok

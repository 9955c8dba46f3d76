"""The numerical layer's runners: everything a CLI run computes with numpy.

:func:`evaluate_points` assembles, whitens and evaluates the sweep
points that :mod:`wdmlink.experiments` did not find in the cache, and
the pattern, field, dump and self-check runners compute everything they
write.  Importing this module loads numpy, :mod:`wdmlink.em_field`, the
quadrature rule, :mod:`wdmlink.channel` and :mod:`wdmlink.receivers`;
the sweep engine imports it at a run's first cache miss and the command
line when one of those four commands runs.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .cache import save_channel_set
from .channel import (
    H_against_direct_sum,
    ReceiveProjection,
    assemble_H,
    assemble_R,
    noise_factor,
    save_channel_dump,
    stack_size,
    white_channel,
    whiten,
)
from .config import RunConfig, WdmConfig, total_power
from .em_field import (
    ModeIndex,
    boresight_reference_peak,
    green_dyadic_ff,
    gz_kernel,
    radiation_pattern,
    received_field_profile,
    source_direction,
)
from .experiments import SCHEME_ORDER, Point, SweepRecord, _fmt, _UniformStream, _write_csv
from .geometry import LinkGeometry, replace
from .receivers import spectral_efficiency, waterfill
from .svgplot import line_plot_svg, polar_plot_svg, write_svg

__all__ = [
    "evaluate_points",
    "run_pattern",
    "run_field",
    "run_channel_dump",
    "run_selfcheck",
]


def evaluate_points(wdm: WdmConfig, points: Sequence[Point]) -> List[SweepRecord]:
    """SE records of (grid value, geometry, cache path) points in order, a failed point flagged.

    Each point's four SE values are stored at its path unless that is
    empty; a failed write raises its OSError, an i/o failure of the run
    rather than of the point.  The points differ only in d_x, d_z and
    orientation, so one noise factor, built at the first point, whitens
    them all, and one receive projection serves a run of points with the
    same d_x and d_z, rebuilt where either changes.  Such a run is
    evaluated in stacks of up to :func:`wdmlink.channel.stack_size`
    points (:func:`_stack_se`), and each point's values have the same
    bits whatever stack it is in.
    """
    power, L0, projection, records = total_power(wdm), None, None, []
    limit, start = stack_size(wdm), 0
    while start < len(points):
        geom = points[start][1]
        try:
            # a failed factor flags this point, and the next one tries again
            L0 = noise_factor(geom, wdm) if L0 is None else L0
            if projection is None or not projection.serves(geom, wdm):
                projection = ReceiveProjection(geom, wdm)
        except Exception as exc:  # flagged row per grid point, file stays complete
            stack, outcomes = points[start : start + 1], [_message(exc)]
        else:
            stop, end = start + 1, min(start + limit, len(points))
            while stop < end and projection.serves(points[stop][1], wdm):
                stop += 1
            stack = points[start:stop]
            outcomes = _stack_se(wdm, [point[1] for point in stack], L0, projection, power)
        for (value, geom, path), se in zip(stack, outcomes):
            if isinstance(se, str):
                records.append(SweepRecord(value, *[math.nan] * 4, error=se))
                continue
            if path:
                save_channel_set(path, geom, wdm, se)
            records.append(SweepRecord(value, *se))
        start += len(stack)
    return records


def _stack_se(
    wdm: WdmConfig,
    geoms: List[LinkGeometry],
    L0: np.ndarray,
    projection: ReceiveProjection,
    power: float,
) -> List[Union[List[float], str]]:
    """Each geometry's four SE values in SCHEME_ORDER, or the message of its failure.

    The geometries differ only in orientation and are whitened and
    evaluated as one stack.  A stack that raises is evaluated again one
    geometry at a time, so only a geometry that fails on its own is
    flagged, with its own message.
    """
    try:
        H_tilde = white_channel(geoms, wdm, L0, projection)
        results = spectral_efficiency(SCHEME_ORDER, H_tilde, power)
    except Exception as exc:  # flagged row per grid point, file stays complete
        if len(geoms) == 1:
            return [_message(exc)]
        return [se for geom in geoms for se in _stack_se(wdm, [geom], L0, projection, power)]
    return [[float(result.se_total[k]) for result in results] for k in range(len(geoms))]


def _message(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _center_mode(n_modes: int) -> int:
    return (n_modes + 1) // 2


def _modes_from_offsets(
    offsets: Sequence[int], cfg: RunConfig
) -> List[ModeIndex]:
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
            ModeIndex.from_mode_number(n, cfg.wdm.n_modes, cfg.geometry.L_s, cfg.wdm.wavelength)
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
    steps = int(round(180.0 / cfg.pattern.step_deg))
    theta_deg = np.linspace(0.0, 180.0, steps + 1)
    theta = np.radians(theta_deg)
    values = {m.n: radiation_pattern(theta, m, cfg.geometry, cfg.wdm.wavelength) for m in modes}
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
    geom, wdm = cfg.geometry, cfg.wdm
    grid = np.linspace(
        geom.d_z - geom.L_r / 2.0, geom.d_z + geom.L_r / 2.0, cfg.field.grid_points
    )
    e0 = boresight_reference_peak(geom, wdm.wavelength, grid, wdm.quadrature)
    profiles = {
        m.n: np.abs(received_field_profile(m, geom, wdm.wavelength, grid, wdm.quadrature)) / e0
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
# Channel dump and self-check


def run_channel_dump(cfg: RunConfig, out_path: str) -> str:
    """Write the configured link's H and R, unwhitened, to ``out_path``."""
    geom, wdm = cfg.geometry, cfg.wdm
    save_channel_dump(out_path, geom, wdm, assemble_H(geom, wdm), assemble_R(geom, wdm))
    return out_path


# Largest relative change of H under node doubling that selfcheck passes.
_H_DRIFT_TOL = 1e-6


def run_selfcheck(cfg: RunConfig) -> bool:
    """Numerical health checks on the configured link.

    Verifies quadrature convergence of H under node doubling (R is in
    closed form and has no rule), H from the reduced field against the
    direct sum over every node pair, the scalar kernel against the dyadic
    Green's function, the whitening factorization and the water-filling
    optimality conditions.  Prints one PASS/FAIL line per check and
    returns overall success.
    """
    checks: List[Tuple[str, bool, str]] = []
    geom, wdm = cfg.geometry, cfg.wdm

    doubled = 2.0 * wdm.quadrature.points_per_wavelength
    fine = replace(wdm, quadrature=replace(wdm.quadrature, points_per_wavelength=doubled))
    H, direct, sizes, tail = H_against_direct_sum(geom, wdm)
    ref = assemble_H(geom, fine)
    drift = float(np.linalg.norm(H - ref) / max(np.linalg.norm(ref), 1e-300))
    checks.append(
        (
            "H quadrature convergence",
            drift < _H_DRIFT_TOL,
            f"relative drift {drift:.3e} under node doubling (tolerance {_H_DRIFT_TOL:g})",
        )
    )

    gap = float(np.linalg.norm(H - direct) / max(np.linalg.norm(direct), 1e-300))
    checks.append(
        (
            "H reduced field vs direct sum",
            gap < _H_DRIFT_TOL,
            f"relative gap {gap:.3e} with {len(sizes)} piece{'s' * (len(sizes) > 1)}, "
            f"{sum(sizes)} Chebyshev samples, largest tail {tail:.1e} (tolerance {_H_DRIFT_TOL:g})",
        )
    )

    rng = _UniformStream(202404)
    worst = 0.0
    for _ in range(200):
        u = np.array(rng.uniform(-1.0, 1.0, 3))
        u *= (20.0 * wdm.wavelength) / np.linalg.norm(u)
        theta = rng.uniform(0.0, math.pi)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        direct = gz_kernel(u, theta, phi, wdm.wavelength)
        dyad = green_dyadic_ff(u, np.zeros(3), wdm.wavelength)
        via_dyad = dyad[2] @ source_direction(theta, phi)
        worst = max(worst, abs(direct - via_dyad) / abs(via_dyad))
    checks.append(
        (
            "scalar kernel vs dyad",
            worst < 1e-12,
            f"worst relative mismatch {worst:.3e} over 200 samples",
        )
    )

    C, L, _ = whiten(H, assemble_R(geom, wdm), wdm)
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

"""The numerical layer's runners: everything a CLI run computes with numpy.

:func:`evaluate_points` maps the geometries of the sweep points that
:mod:`wdmlink.experiments` did not find in the cache to their SE values,
which the engine stores and records, each whitened by
:func:`wdmlink.channel.whiten` against one noise factor per run; the
pattern, field, dump and self-check runners compute everything they
write, the pattern and field runners through the output writer of
:mod:`wdmlink.experiments`.  Importing this module loads numpy,
:mod:`wdmlink.em_field`, the quadrature rule, :mod:`wdmlink.channel`
and :mod:`wdmlink.receivers`; the sweep engine imports it at a run's
first cache miss and the command line when one of those four commands
runs.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .channel import (
    H_against_direct_sum,
    ReceiveProjection,
    assemble_H,
    assemble_R,
    noise_factor,
    save_channel_dump,
    stack_size,
    whiten,
)
from .config import QuadratureSpec, RunConfig, WdmConfig, total_power
from .em_field import (
    ModeIndex,
    boresight_reference_peak,
    green_dyadic_ff,
    gz_kernel,
    radiation_pattern,
    received_field_profile,
    source_direction,
)
from .experiments import _UniformStream, _write_table
from .geometry import LinkGeometry, replace
from .receivers import spectral_efficiency, waterfill
from .svgplot import line_plot_svg, polar_plot_svg

__all__ = [
    "evaluate_points",
    "run_pattern",
    "run_field",
    "run_channel_dump",
    "run_selfcheck",
]


def evaluate_points(
    wdm: WdmConfig, geoms: Sequence[LinkGeometry]
) -> List[Union[List[float], str]]:
    """Each geometry's four SE values in ``Scheme`` order, or the message of its failure, in order.

    The geometries differ only in d_x, d_z and orientation, so one noise
    factor, built at the first run, whitens them all.  A run of
    consecutive geometries with the same receive segment shares one
    receive projection and is evaluated once, in stacks of up to
    :func:`wdmlink.channel.stack_size` geometries (:func:`_stack_se`), and
    each geometry's values have the same bits whatever stack it is in.  An
    exception in a stack's factor, projection or evaluation flags every
    geometry of the stack with its message.
    """
    limit, L0, outcomes = stack_size(wdm), None, []
    # geom[:4] is (L_s, L_r, d_x, d_z), the fields of the receive segment
    for _, group in itertools.groupby(geoms, key=lambda geom: geom[:4]):
        run, projection = list(group), None
        for stack in (run[start : start + limit] for start in range(0, len(run), limit)):
            try:
                # a failed factor or projection flags this stack, and the next tries again
                L0 = noise_factor(run[0], wdm) if L0 is None else L0
                projection = projection or ReceiveProjection(run[0], wdm)
                outcomes += _stack_se(wdm, stack, L0, projection)
            except Exception as exc:  # flagged row per grid point, file stays complete
                outcomes += [_message(exc)] * len(stack)
    return outcomes


def _stack_se(
    wdm: WdmConfig, geoms: List[LinkGeometry], L0: np.ndarray, projection: ReceiveProjection
) -> List[Union[List[float], str]]:
    """Each geometry's four SE values in ``Scheme`` order, or the message of its failure.

    The geometries differ only in orientation and pass once, as one stack,
    through ``assemble_H``, ``whiten`` against the run's factor ``L0`` and
    ``spectral_efficiency``.  A geometry whose water-filling fails is
    flagged with the error of the first scheme in ``Scheme`` order that
    fails it, as it would be alone.
    """
    H_tilde = whiten(assemble_H(geoms, wdm, projection), geoms[0], wdm, L0)
    results = spectral_efficiency(H_tilde, total_power(wdm)).values()
    outcomes = []
    for k in range(len(geoms)):
        errors = [r.error[k] for r in results if r.error[k] is not None]
        outcomes.append(_message(errors[0]) if errors else [float(r.se_total[k]) for r in results])
    return outcomes


def _message(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _modes_from_offsets(
    offsets: Sequence[int], cfg: RunConfig
) -> List[ModeIndex]:
    center = (cfg.wdm.n_modes + 1) // 2
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
    _write_table(
        csv_path,
        svg_path,
        ("theta_deg", theta_deg),
        [(f"mode_{m.n}", f"mode {m.n}", values[m.n]) for m in modes],
        [""] * theta_deg.size,
        functools.partial(polar_plot_svg, title="Mode radiation patterns"),
    )
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
    _write_table(
        csv_path,
        svg_path,
        ("r_offset", grid - geom.d_z),
        [(f"mode_{m.n}", f"mode {m.n}", profiles[m.n]) for m in modes],
        [""] * grid.size,
        functools.partial(
            line_plot_svg,
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
    Green's function, the run's noise factor through its whitening at
    two heights and the water-filling optimality conditions.  Prints one
    PASS/FAIL line per check and returns overall success.
    """
    checks: List[Tuple[str, bool, str]] = []
    geom, wdm = cfg.geometry, cfg.wdm

    per_period, nodes = wdm.quadrature
    fine = replace(wdm, quadrature=QuadratureSpec(2.0 * per_period, nodes))
    H, direct, sizes, tail = H_against_direct_sum(geom, wdm)
    ref = assemble_H(geom, fine)
    drift = float(np.linalg.norm(H - ref) / max(np.linalg.norm(ref), 1e-300))
    checks.append(
        (
            "H quadrature convergence",
            drift < _H_DRIFT_TOL,
            f"relative drift {drift:.3e} at {per_period:g} -> {2.0 * per_period:g} points per "
            f"period, {nodes}-node panels, under node doubling (tolerance {_H_DRIFT_TOL:g})",
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

    # the run's L0, through the run's whiten, must take C to I at d_z and at
    # d_z + L_s/4, where D != I; W - I is measured back through L0, as
    # D C D^H - L0 L0^H, which stays at rounding against C for any cond(C)
    L0, eye, off = noise_factor(geom, wdm), np.eye(wdm.n_modes), 0.0
    heights = (geom.d_z, geom.d_z + geom.L_s / 4.0)
    for d_z in heights:
        moved = replace(geom, d_z=d_z)
        C = wdm.sigma2_emi * assemble_R(moved, wdm) + wdm.sigma2_hdw * eye
        white = whiten(whiten(C, moved, wdm, L0).conj().T, moved, wdm, L0)
        gap = L0 @ (white - eye) @ L0.conj().T
        off = max(off, float(np.linalg.norm(gap) / np.linalg.norm(C)))
    checks.append(
        (
            "noise factorization",
            off < 1e-12,
            f"whitened covariance off I by {off:.3e} (relative to C) at "
            f"d_z = {heights[0]:g} and {heights[1]:g} m",
        )
    )

    chi = rng.uniform(0.1, 10.0, wdm.n_modes)
    p, mu, _ = waterfill(chi, total_power(wdm))
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

"""Run configuration: built-in profiles, the parameter table and config files.

A run is described by a :class:`RunConfig`; its link by a
:class:`wdmlink.geometry.LinkGeometry` and a :class:`WdmConfig`, whose
integrals are sized by a :class:`QuadratureSpec`.  Like the sweep engine
(:mod:`wdmlink.experiments`) and the cache (:mod:`wdmlink.cache`), this
module needs no numpy: a sweep whose every point is cached never loads
it.  Two profiles ship with the
package: ``desk`` (a bench-sized link that keeps every experiment fast)
and ``full`` (the production-scale link).

:data:`PARAMETERS` lists every settable parameter once: its INI section
and key, the command-line flag that sets the same value, the RunConfig
field it lands in and the converter from the raw string.  Config files
(:func:`read_config_entries`) and CLI flags both turn into (section, key,
raw) entries that :func:`apply_entries` applies to a base config.  Angles
are degrees, lengths meters, powers A^2 and noise levels a power ratio in
dB.

Sections and keys:

    [geometry]   L_s, L_r, d_x, d_z, theta_s, phi_s
    [wdm]        wavelength, n_modes ("max" allowed), source_power,
                 snr_emi_db, sigma2_hdw, mmse_form
    [quadrature] points_per_wavelength, nodes_per_panel, max_panels,
                 rel_tol
    [sweep]      parameter (d_z | theta_s | d_x), start, stop, count,
                 seed, draws_per_phi, phi_set, theta_max
    [field]      mode_offsets, grid_points
    [pattern]    mode_offsets, step_deg
    [output]     csv, svg, cache_dir, workers
"""

from __future__ import annotations

import enum
import math
from collections import defaultdict
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from .geometry import LinkGeometry

__all__ = [
    "FREE_SPACE_IMPEDANCE",
    "MMSE_FORMS",
    "Scheme",
    "QuadratureSpec",
    "WdmConfig",
    "max_modes",
    "total_power",
    "emi_variance",
    "SweepSettings",
    "FieldSettings",
    "PatternSettings",
    "OutputSettings",
    "RunConfig",
    "desk_profile",
    "full_profile",
    "profile_by_name",
    "Param",
    "PARAMETERS",
    "apply_entries",
    "read_config_entries",
]

FREE_SPACE_IMPEDANCE = 376.73  # [Ohm]


class Scheme(enum.Enum):
    """Receiver architecture (:mod:`wdmlink.receivers`)."""

    SVD = "svd"
    MMSE = "mmse"
    MR = "mr"
    PLAIN = "plain"


# Variants of the MMSE filter (see :mod:`wdmlink.receivers`); the config
# key ``mmse_form`` accepts exactly these.
MMSE_FORMS = ("hermitian", "table")


@dataclass(frozen=True)
class QuadratureSpec:
    """Sizing of the composite Gauss-Legendre rule.

    Attributes:
        points_per_wavelength: Nodes laid per oscillation wavelength.
        nodes_per_panel: Gauss-Legendre order of each panel.
        max_panels: Safety cap on the panel count of one interval.
        rel_tol: Relative tolerance used by convergence self-checks.
    """

    points_per_wavelength: float = 4.0
    nodes_per_panel: int = 16
    max_panels: int = 50_000
    rel_tol: float = 1e-6

    def __post_init__(self) -> None:
        if not self.points_per_wavelength >= 2.0:
            raise ValueError(
                "points_per_wavelength must be at least 2, got "
                f"{self.points_per_wavelength}"
            )
        if not 2 <= int(self.nodes_per_panel) <= 64:
            raise ValueError(
                f"nodes_per_panel must lie in [2, 64], got {self.nodes_per_panel}"
            )
        if self.max_panels < 1:
            raise ValueError(f"max_panels must be positive, got {self.max_panels}")
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError(f"rel_tol must lie in (0, 1), got {self.rel_tol}")


@dataclass(frozen=True)
class WdmConfig:
    """Multiplexing and noise parameters.

    Attributes:
        wavelength: Carrier wavelength [m].
        n_modes: Number of multiplexed tones N.
        source_power: Current power constraint P_s [A^2].
        sigma2_emi: Interference variance at the receive segment [V^2/m^2].
        sigma2_hdw: White hardware noise variance [V^2/m^2]; zero keeps
            the noise purely interference-limited.
        quadrature: Sizing of all channel integrals.
        mmse_form: MMSE filter variant, one of :data:`MMSE_FORMS`.
    """

    wavelength: float
    n_modes: int
    source_power: float = 1e-7
    sigma2_emi: float = 1.0
    sigma2_hdw: float = 0.0
    quadrature: QuadratureSpec = QuadratureSpec()
    mmse_form: str = "hermitian"

    def __post_init__(self) -> None:
        if not (self.wavelength > 0.0 and math.isfinite(self.wavelength)):
            raise ValueError(f"wavelength must be positive, got {self.wavelength}")
        if int(self.n_modes) != self.n_modes or self.n_modes < 1:
            raise ValueError(f"n_modes must be a positive integer, got {self.n_modes}")
        if not (self.source_power >= 0.0 and math.isfinite(self.source_power)):
            raise ValueError(f"source_power must be nonnegative, got {self.source_power}")
        if self.sigma2_emi < 0.0 or self.sigma2_hdw < 0.0:
            raise ValueError("noise variances must be nonnegative")
        if self.sigma2_emi == 0.0 and self.sigma2_hdw == 0.0:
            raise ValueError("at least one noise variance must be positive")
        if self.mmse_form not in MMSE_FORMS:
            raise ValueError(f"mmse_form must be one of {MMSE_FORMS}, got {self.mmse_form!r}")


def max_modes(L_s: float, wavelength: float) -> int:
    """Largest usable mode count, 2 * floor(L_s / wavelength) + 1."""
    if not L_s > 0.0:
        raise ValueError(f"L_s must be positive, got {L_s}")
    if not wavelength > 0.0:
        raise ValueError(f"wavelength must be positive, got {wavelength}")
    return 2 * math.floor(L_s / wavelength) + 1


def total_power(cfg: WdmConfig) -> float:
    """Transmit power budget P = (kappa * Z0)^2 * P_s [V^2/m^2]."""
    kappa = 2.0 * math.pi / cfg.wavelength
    return (kappa * FREE_SPACE_IMPEDANCE) ** 2 * cfg.source_power


def emi_variance(power: float, snr_db: float) -> float:
    """Interference variance giving the ratio power/sigma2_emi in dB."""
    if not power > 0.0:
        raise ValueError(f"power must be positive, got {power}")
    return power / 10.0 ** (snr_db / 10.0)


SWEEP_PARAMETERS = ("d_z", "theta_s", "d_x")


@dataclass(frozen=True)
class SweepSettings:
    """Swept parameter grid and ensemble controls.

    ``seed``, ``draws_per_phi``, ``phi_set_deg`` and ``theta_max_deg``
    only matter for orientation-averaged sweeps.
    """

    parameter: str = "d_z"
    start: float = 0.0
    stop: float = 2.0
    count: int = 21
    seed: int = 1
    draws_per_phi: int = 20
    phi_set_deg: Tuple[float, ...] = (0.0, 22.5, 45.0, 77.5, 90.0)
    theta_max_deg: float = 30.0

    def __post_init__(self) -> None:
        if self.parameter not in SWEEP_PARAMETERS:
            raise ValueError(
                f"sweep parameter must be one of {SWEEP_PARAMETERS}, "
                f"got {self.parameter!r}"
            )
        if self.count < 1:
            raise ValueError(f"sweep count must be positive, got {self.count}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError("sweep start and stop must be finite")
        if self.count > 1 and not self.stop > self.start:
            raise ValueError("sweep needs stop > start when count > 1")
        if self.seed < 0:
            raise ValueError(f"[sweep] seed must be non-negative, got {self.seed}")
        if self.draws_per_phi < 1:
            raise ValueError("draws_per_phi must be positive")
        if not 0.0 <= self.theta_max_deg <= 180.0:
            raise ValueError("theta_max must lie in [0, 180] degrees")

    def values(self) -> List[float]:
        """The grid, bit for bit ``np.linspace(start, stop, count)``.

        The same operations in numpy's order: i * step + start, or
        (i / (count - 1)) * delta + start when the step underflows to
        zero, and the last point set to stop.
        """
        start, stop = float(self.start), float(self.stop)
        delta = stop - start
        if self.count == 1:
            return [0.0 * delta + start]
        div = self.count - 1
        step = delta / div
        if step == 0.0:
            grid = [i / div * delta + start for i in range(self.count)]
        else:
            grid = [i * step + start for i in range(self.count)]
        grid[-1] = stop
        return grid


@dataclass(frozen=True)
class FieldSettings:
    """Received field profile grid, the ``[field]`` section."""

    mode_offsets: Tuple[int, ...] = (-2, 0, 5)
    grid_points: int = 1201

    def __post_init__(self) -> None:
        if self.grid_points < 2:
            raise ValueError("grid_points must be at least 2")


@dataclass(frozen=True)
class PatternSettings:
    """Radiation pattern cut, the ``[pattern]`` section."""

    mode_offsets: Tuple[int, ...] = (-9, -5, 0, 5, 9)
    step_deg: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 < self.step_deg <= 10.0:
            raise ValueError("step_deg must lie in (0, 10] degrees")


@dataclass(frozen=True)
class OutputSettings:
    """Output paths, channel cache and worker count, the ``[output]`` section."""

    csv_path: str = ""
    svg_path: str = ""
    cache_dir: str = ""
    workers: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be positive")


@dataclass(frozen=True)
class RunConfig:
    """Everything a single experiment run needs."""

    geometry: LinkGeometry
    wdm: WdmConfig
    sweep: SweepSettings = SweepSettings()
    field: FieldSettings = FieldSettings()
    pattern: PatternSettings = PatternSettings()
    output: OutputSettings = OutputSettings()


DEFAULT_SNR_EMI_DB = 90.0


def _with_snr(wdm: WdmConfig, snr_emi_db: float) -> WdmConfig:
    """``wdm`` with sigma2_emi set snr_emi_db below its power budget."""
    return replace(wdm, sigma2_emi=emi_variance(total_power(wdm), snr_emi_db))


def _max_mode_wdm(wavelength: float, L_s: float) -> WdmConfig:
    wdm = WdmConfig(wavelength=wavelength, n_modes=max_modes(L_s, wavelength))
    return _with_snr(wdm, DEFAULT_SNR_EMI_DB)


def desk_profile() -> RunConfig:
    """Bench-sized link: 2 cm wavelength, 1 m receive segment, 21 modes."""
    geom = LinkGeometry(L_s=0.2, L_r=1.0, d_x=2.0)
    return RunConfig(geometry=geom, wdm=_max_mode_wdm(0.02, geom.L_s))


def full_profile() -> RunConfig:
    """Full-sized link: 1 cm wavelength, 3 m receive segment, 41 modes."""
    geom = LinkGeometry(L_s=0.2, L_r=3.0, d_x=5.0)
    return RunConfig(
        geometry=geom,
        wdm=_max_mode_wdm(0.01, geom.L_s),
        sweep=SweepSettings(stop=5.0),
        field=FieldSettings(mode_offsets=(-2, 0, 5)),
        pattern=PatternSettings(mode_offsets=(-17, -10, -5, 0, 5, 10, 17)),
    )


_PROFILES = {"desk": desk_profile, "full": full_profile}


def profile_by_name(name: str) -> RunConfig:
    try:
        return _PROFILES[name]()
    except KeyError:
        raise ValueError(
            f"unknown profile {name!r}, available: {sorted(_PROFILES)}"
        ) from None


def _radians(raw: str) -> float:
    return math.radians(float(raw))


def _n_modes(raw: str) -> Optional[int]:
    """Mode count; ``max`` gives None, resolved once L_s and wavelength are known."""
    return None if raw.strip().lower() == "max" else int(raw)


def _listed(kind: Callable[[str], Any]) -> Callable[[str], tuple]:
    def convert(raw: str) -> tuple:
        values = tuple(kind(part) for part in raw.split(",") if part.strip())
        if not values:
            raise ValueError("empty list")
        return values

    return convert


def _choice(*options: str) -> Callable[[str], str]:
    def convert(raw: str) -> str:
        value = raw.strip().lower()
        if value not in options:
            raise ValueError(f"not one of {options}")
        return value

    return convert


class Param(NamedTuple):
    """One settable parameter.

    Attributes:
        section: Config-file section.
        key: Config-file key within ``section``.
        flag: Command-line flag setting the same value, or None.
        field: Target as ``part.attr`` of :class:`RunConfig` (``part`` is
            a RunConfig field or ``quadrature``).
        convert: Raw string to value; raises ValueError when malformed.
    """

    section: str
    key: str
    flag: Optional[str]
    field: str
    convert: Callable[[str], Any]


# Every parameter a config file or a flag can set.  ``snr_emi_db`` has no
# WdmConfig field: it re-derives ``sigma2_emi`` (see :func:`apply_entries`).
PARAMETERS = (
    Param("geometry", "L_s", None, "geometry.L_s", float),
    Param("geometry", "L_r", None, "geometry.L_r", float),
    Param("geometry", "d_x", "--dx", "geometry.d_x", float),
    Param("geometry", "d_z", "--dz", "geometry.d_z", float),
    Param("geometry", "theta_s", "--theta", "geometry.theta_s", _radians),
    Param("geometry", "phi_s", "--phi", "geometry.phi_s", _radians),
    Param("wdm", "wavelength", None, "wdm.wavelength", float),
    Param("wdm", "n_modes", "--n-modes", "wdm.n_modes", _n_modes),
    Param("wdm", "source_power", None, "wdm.source_power", float),
    Param("wdm", "snr_emi_db", None, "wdm.snr_emi_db", float),
    Param("wdm", "sigma2_hdw", None, "wdm.sigma2_hdw", float),
    Param("wdm", "mmse_form", None, "wdm.mmse_form", _choice(*MMSE_FORMS)),
    Param("quadrature", "points_per_wavelength", None, "quadrature.points_per_wavelength", float),
    Param("quadrature", "nodes_per_panel", None, "quadrature.nodes_per_panel", int),
    Param("quadrature", "max_panels", None, "quadrature.max_panels", int),
    Param("quadrature", "rel_tol", None, "quadrature.rel_tol", float),
    Param("sweep", "parameter", "--parameter", "sweep.parameter", _choice(*SWEEP_PARAMETERS)),
    Param("sweep", "start", "--start", "sweep.start", float),
    Param("sweep", "stop", "--stop", "sweep.stop", float),
    Param("sweep", "count", "--count", "sweep.count", int),
    Param("sweep", "seed", "--seed", "sweep.seed", int),
    Param("sweep", "draws_per_phi", "--draws", "sweep.draws_per_phi", int),
    Param("sweep", "phi_set", None, "sweep.phi_set_deg", _listed(float)),
    Param("sweep", "theta_max", None, "sweep.theta_max_deg", float),
    Param("field", "mode_offsets", "--mode-offsets", "field.mode_offsets", _listed(int)),
    Param("field", "grid_points", "--grid-points", "field.grid_points", int),
    Param("pattern", "mode_offsets", "--mode-offsets", "pattern.mode_offsets", _listed(int)),
    Param("pattern", "step_deg", "--step", "pattern.step_deg", float),
    Param("output", "csv", "--out", "output.csv_path", str),
    Param("output", "svg", "--svg", "output.svg_path", str),
    Param("output", "cache_dir", "--cache-dir", "output.cache_dir", str),
    Param("output", "workers", "--workers", "output.workers", int),
)

_BY_KEY = {(p.section, p.key): p for p in PARAMETERS}


def apply_entries(
    base: RunConfig, entries: Iterable[Tuple[str, str, str]], source: str
) -> RunConfig:
    """Apply (section, key, raw string) entries to ``base``; later entries win.

    ``sigma2_emi`` keeps its base value unless ``snr_emi_db`` is given or
    the wavelength or source power changes; then it is derived from
    ``snr_emi_db`` (default 90 dB) against the new power budget.

    Raises:
        ValueError: On unknown keys, malformed values or an invalid
            result, naming ``source`` and every offender.
    """
    changes: Dict[str, Dict[str, Any]] = defaultdict(dict)
    errors = []
    for section, key, raw in entries:
        param = _BY_KEY.get((section, key))
        if param is None:
            errors.append(f"unknown key [{section}] {key}")
            continue
        try:
            value = param.convert(raw)
        except ValueError:
            errors.append(f"[{section}] {key} = {raw!r}")
            continue
        part, name = param.field.split(".")
        changes[part][name] = value
    if errors:
        raise ValueError(f"invalid {source}: " + "; ".join(errors))

    try:
        geometry = replace(base.geometry, **changes["geometry"])
        wdm_changes = changes["wdm"]
        snr_emi_db = wdm_changes.pop("snr_emi_db", None)
        if "n_modes" in wdm_changes and wdm_changes["n_modes"] is None:
            wavelength = wdm_changes.get("wavelength", base.wdm.wavelength)
            wdm_changes["n_modes"] = max_modes(geometry.L_s, wavelength)
        quadrature = replace(base.wdm.quadrature, **changes["quadrature"])
        wdm = replace(base.wdm, quadrature=quadrature, **wdm_changes)
        rescaled = (wdm.wavelength, wdm.source_power) != (
            base.wdm.wavelength, base.wdm.source_power
        )
        if snr_emi_db is None and rescaled:
            snr_emi_db = DEFAULT_SNR_EMI_DB
        if snr_emi_db is not None:
            wdm = _with_snr(wdm, snr_emi_db)
        settings = {
            part: replace(getattr(base, part), **changes[part])
            for part in ("sweep", "field", "pattern", "output")
        }
        return replace(base, geometry=geometry, wdm=wdm, **settings)
    except ValueError as exc:
        raise ValueError(f"invalid {source}: {exc}") from None


def read_config_entries(path: str) -> List[Tuple[str, str, str]]:
    """(section, key, raw string) entries of a config file in file order; ValueError if not INI."""
    import configparser  # ~3 ms with its regex compiles, so only --config pays

    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    # keys like L_s are case sensitive; the default folds them to lower case
    parser.optionxform = str
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ValueError(f"cannot parse config file {path}: {exc}") from None
    return [
        (section, key, raw)
        for section in parser.sections()
        for key, raw in parser[section].items()
    ]


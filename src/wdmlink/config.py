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
raw) entries that :func:`apply_entries` applies to a base config and
checks once.  Angles are degrees, lengths meters, powers A^2 and noise
levels a power ratio in dB.  A :class:`WdmConfig` derives ``sigma2_emi``
from ``snr_emi_db``, so the interference follows its power budget.
:func:`apply_entries` rejects a mode count above :func:`max_modes` and
gives a switch to a ``d_x`` sweep with no ``start`` the 5..15 m range.

Sections and keys:

    [geometry]   L_s, L_r, d_x, d_z, theta_s, phi_s
    [wdm]        wavelength, n_modes ("max" allowed), source_power,
                 snr_emi_db, sigma2_hdw
    [quadrature] points_per_wavelength, nodes_per_panel
    [sweep]      parameter (d_z | theta_s | d_x), start, stop, count,
                 seed, draws_per_phi, phi_set, theta_max
    [field]      mode_offsets, grid_points
    [pattern]    mode_offsets, step_deg
    [output]     csv, svg, cache_dir, workers
"""

from __future__ import annotations

import enum
import math
from collections import defaultdict, namedtuple
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from .geometry import LinkGeometry, is_azimuth, replace

__all__ = [
    "FREE_SPACE_IMPEDANCE",
    "Scheme",
    "QuadratureSpec",
    "WdmConfig",
    "max_modes",
    "check_mode_count",
    "total_power",
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


class QuadratureSpec(
    namedtuple("QuadratureSpec", "points_per_wavelength nodes_per_panel", defaults=(4.0, 16))
):
    """Sizing of the composite Gauss-Legendre rule.

    Attributes:
        points_per_wavelength: Nodes laid per oscillation wavelength.
        nodes_per_panel: Gauss-Legendre order of each panel.
    """

    __slots__ = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> "QuadratureSpec":
        self = super().__new__(cls, *args, **kwargs)
        if not self.points_per_wavelength >= 2.0:
            raise ValueError(
                "points_per_wavelength must be at least 2, got "
                f"{self.points_per_wavelength}"
            )
        if not 2 <= int(self.nodes_per_panel) <= 64:
            raise ValueError(
                f"nodes_per_panel must lie in [2, 64], got {self.nodes_per_panel}"
            )
        return self


class WdmConfig(
    namedtuple(
        "WdmConfig",
        "wavelength n_modes source_power snr_emi_db sigma2_hdw quadrature",
        defaults=(1e-7, 90.0, 0.0, QuadratureSpec()),
    )
):
    """Multiplexing and noise parameters.

    Attributes:
        wavelength: Carrier wavelength [m].
        n_modes: Number of multiplexed tones N.
        source_power: Current power constraint P_s [A^2].
        snr_emi_db: Ratio of the power budget :func:`total_power` to the
            interference variance :attr:`sigma2_emi` [dB].
        sigma2_hdw: White hardware noise variance [V^2/m^2]; zero keeps
            the noise purely interference-limited.
        quadrature: Sizing of the H and field-profile integrals.
    """

    __slots__ = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> "WdmConfig":
        self = super().__new__(cls, *args, **kwargs)
        if not (self.wavelength > 0.0 and math.isfinite(self.wavelength)):
            raise ValueError(f"wavelength must be positive, got {self.wavelength}")
        if int(self.n_modes) != self.n_modes or self.n_modes < 1:
            raise ValueError(f"n_modes must be a positive integer, got {self.n_modes}")
        if not (self.source_power > 0.0 and math.isfinite(self.source_power)):
            raise ValueError(f"source_power must be positive, got {self.source_power}")
        # within 3080 dB the ratio 10^(snr_emi_db / 10) neither over- nor underflows
        if not abs(self.snr_emi_db) <= 3080.0:
            raise ValueError(
                f"snr_emi_db must be finite and within 3080 dB of 0, got {self.snr_emi_db}"
            )
        if not (self.sigma2_emi < math.inf and 0.0 <= self.sigma2_hdw < math.inf):
            raise ValueError("noise variances must be finite and nonnegative")
        if self.sigma2_emi == 0.0 and self.sigma2_hdw == 0.0:
            raise ValueError("at least one noise variance must be positive")
        return self

    @property
    def sigma2_emi(self) -> float:
        """Interference variance at the receive segment [V^2/m^2], snr_emi_db below the budget."""
        return total_power(self) / 10.0 ** (self.snr_emi_db / 10.0)


def max_modes(L_s: float, wavelength: float) -> int:
    """Largest usable mode count, 2 * floor(L_s / wavelength) + 1."""
    if not L_s > 0.0:
        raise ValueError(f"L_s must be positive, got {L_s}")
    if not wavelength > 0.0:
        raise ValueError(f"wavelength must be positive, got {wavelength}")
    return 2 * math.floor(L_s / wavelength) + 1


def check_mode_count(geom: LinkGeometry, cfg: WdmConfig) -> None:
    """Raise ValueError if ``cfg`` multiplexes more modes than :func:`max_modes` allows."""
    n_max = max_modes(geom.L_s, cfg.wavelength)
    if cfg.n_modes > n_max:
        raise ValueError(
            f"n_modes = {cfg.n_modes} exceeds the usable maximum {n_max} "
            f"for L_s = {geom.L_s} m at wavelength {cfg.wavelength} m"
        )


def total_power(cfg: WdmConfig) -> float:
    """Transmit power budget P = (kappa * Z0)^2 * P_s [V^2/m^2]."""
    kappa = 2.0 * math.pi / cfg.wavelength
    return (kappa * FREE_SPACE_IMPEDANCE) ** 2 * cfg.source_power


SWEEP_PARAMETERS = ("d_z", "theta_s", "d_x")


class SweepSettings(
    namedtuple(
        "SweepSettings",
        "parameter start stop count seed draws_per_phi phi_set_deg theta_max_deg",
        defaults=("d_z", 0.0, 2.0, 21, 1, 20, (0.0, 22.5, 45.0, 77.5, 90.0), 30.0),
    )
):
    """Swept parameter grid and ensemble controls.

    ``seed``, ``draws_per_phi``, ``phi_set_deg`` and ``theta_max_deg``
    only matter for orientation-averaged sweeps.
    """

    __slots__ = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> "SweepSettings":
        self = super().__new__(cls, *args, **kwargs)
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
        for phi in self.phi_set_deg:
            if not is_azimuth(math.radians(phi)):
                raise ValueError(f"phi_set values must lie in [0, 360) degrees, got {phi}")
        return self

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


class FieldSettings(
    namedtuple("FieldSettings", "mode_offsets grid_points", defaults=((-2, 0, 5), 1201))
):
    """Received field profile grid, the ``[field]`` section."""

    __slots__ = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> "FieldSettings":
        self = super().__new__(cls, *args, **kwargs)
        if self.grid_points < 2:
            raise ValueError("grid_points must be at least 2")
        return self


class PatternSettings(
    namedtuple("PatternSettings", "mode_offsets step_deg", defaults=((-9, -5, 0, 5, 9), 0.1))
):
    """Radiation pattern cut, the ``[pattern]`` section."""

    __slots__ = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> "PatternSettings":
        self = super().__new__(cls, *args, **kwargs)
        if not 0.0 < self.step_deg <= 10.0:
            raise ValueError("step_deg must lie in (0, 10] degrees")
        return self


class OutputSettings(
    namedtuple("OutputSettings", "csv_path svg_path cache_dir workers", defaults=("", "", "", 1))
):
    """Output paths, channel cache and worker count, the ``[output]`` section."""

    __slots__ = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> "OutputSettings":
        self = super().__new__(cls, *args, **kwargs)
        if self.workers < 1:
            raise ValueError("workers must be positive")
        return self


class RunConfig(NamedTuple):
    """Everything a single experiment run needs."""

    geometry: LinkGeometry
    wdm: WdmConfig
    sweep: SweepSettings = SweepSettings()
    field: FieldSettings = FieldSettings()
    pattern: PatternSettings = PatternSettings()
    output: OutputSettings = OutputSettings()


def desk_profile() -> RunConfig:
    """Bench-sized link: 2 cm wavelength, 1 m receive segment, 21 modes."""
    geom = LinkGeometry(L_s=0.2, L_r=1.0, d_x=2.0)
    wdm = WdmConfig(wavelength=0.02, n_modes=max_modes(geom.L_s, 0.02))
    return RunConfig(geometry=geom, wdm=wdm)


def full_profile() -> RunConfig:
    """Full-sized link: 1 cm wavelength, 3 m receive segment, 41 modes."""
    geom = LinkGeometry(L_s=0.2, L_r=3.0, d_x=5.0)
    return RunConfig(
        geometry=geom,
        wdm=WdmConfig(wavelength=0.01, n_modes=max_modes(geom.L_s, 0.01)),
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


# Every parameter a config file or a flag can set.
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
    Param("quadrature", "points_per_wavelength", None, "quadrature.points_per_wavelength", float),
    Param("quadrature", "nodes_per_panel", None, "quadrature.nodes_per_panel", int),
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

    Entries that switch the sweep to ``d_x`` and name no ``start`` sweep
    the 5..15 m lateral range, or up to the ``stop`` they name.

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
    sweep = changes["sweep"]
    if sweep.get("parameter") == "d_x" and base.sweep.parameter != "d_x" and "start" not in sweep:
        # the profiles sweep d_z from 0; a d_x grid that names no start runs
        # over the 5..15 m lateral range, beneath the entries' own changes
        changes["sweep"] = {"start": 5.0, "stop": 15.0, **sweep}

    try:
        geometry = replace(base.geometry, **changes["geometry"])
        wdm_changes = changes["wdm"]
        if "n_modes" in wdm_changes and wdm_changes["n_modes"] is None:
            wavelength = wdm_changes.get("wavelength", base.wdm.wavelength)
            wdm_changes["n_modes"] = max_modes(geometry.L_s, wavelength)
        quadrature = replace(base.wdm.quadrature, **changes["quadrature"])
        wdm = replace(base.wdm, quadrature=quadrature, **wdm_changes)
        check_mode_count(geometry, wdm)
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

    # values are read raw: a "%" is a character, not an interpolation; and
    # [DEFAULT] is an ordinary section, so its keys are checked like any other
    parser = configparser.RawConfigParser(inline_comment_prefixes=("#", ";"), default_section=None)
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


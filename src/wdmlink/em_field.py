"""Far-field radiation of a linear current segment.

A current filament j(s) = xi * phi(s) * s_hat flowing along the tilted
transmit segment radiates, at distances large against the wavelength,
the electric field

    e(r) = j * kappa * Z0 * xi * Integral phi(s) g(r, s * s_hat) ds

with the far-field dyadic Green's function

    g(r, s) = exp(j * kappa * ||r - s||) / (4 * pi * ||r - s||)
              * (I - p_hat p_hat^T),          p = r - s.

Only the z-component of the field is picked up by the receive segment,
so most of this module works with the scalar contraction
``gz_kernel(u) = z_hat^T g(u) s_hat``, written out explicitly to avoid
assembling 3x3 dyads inside quadrature loops:

    gz(u) = exp(j kappa ||u||) / (4 pi ||u||^3)
            * ((u_x^2 + u_y^2) cos(theta_s) - u_z (u_x, u_y) . s_hat).

Every unit phasor on the path to H and R comes from ``_phasor`` in
half-angle-tangent form: with c the phase in cycles reduced to
[-1/2, 1/2] and t = tan(pi c),

    exp(2 pi j c) = ((1 - t^2) + 2 j t) / (1 + t^2),

one vectorised tangent in place of a complex exponential or a sine and
a cosine.  With numpy 2.4 on a 2-core Xeon, float64 np.tan takes about
3 ns per element, np.cos about 29 ns and complex np.exp about 48 ns.

``tone_fields`` integrates it against the transmit tones (below) at
receive heights, one bounded block of receive nodes at a time; the
coupling matrix H of :mod:`wdmlink.channel` and ``received_field_profile``
are both built on that one integral.

The approximation degrades below roughly ten wavelengths of separation;
operations that evaluate it warn (``NearFieldWarning``) instead of
failing, since grazing node pairs can dip below the guard while the
integral remains accurate.

Mode ``n`` of an N-mode multiplex excites phi_n(s) proportional to
exp(j kappa_n s), a spatial tone of wavenumber kappa_n.  Its normalized
radiated power at polar angle ``theta_bar`` from the segment axis is

    P_n(theta_bar) = sin(theta_bar)^2
                     * sinc(2 L_s / lambda * (gamma_n - cos(theta_bar)))^2

with gamma_n = kappa_n / kappa, peaking at theta_bar = acos(gamma_n)
with value 1 - gamma_n^2.  The beam therefore leaves the segment on a
cone of aperture acos(gamma_n) about its axis; ``peak_location_boresight``
and ``peak_locations_general`` intersect that cone with the receive line
to predict where |e_z| is maximal.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import List, NamedTuple

import numpy as np

from .geometry import LinkGeometry, source_direction
from .quadrature import QuadratureSpec, composite_gauss_nodes

__all__ = [
    "FREE_SPACE_IMPEDANCE",
    "EmConstants",
    "ModeIndex",
    "NearFieldWarning",
    "FieldPeak",
    "spatial_frequency",
    "green_dyadic_ff",
    "gz_kernel",
    "radiation_pattern",
    "tone_fields",
    "received_field_profile",
    "boresight_reference_peak",
    "peak_location_boresight",
    "peak_locations_general",
]

FREE_SPACE_IMPEDANCE = 376.73  # [Ohm]

# Separations below this many wavelengths trigger NearFieldWarning.
FAR_FIELD_GUARD_WAVELENGTHS = 10.0

# Node pairs per receive-node block of tone_fields.  The block's float64
# and complex128 temporaries take about 1 MB and stay cache-resident
# instead of streaming a whole (r_z, s) slab through memory.  Timed with
# the half-angle-tangent kernel and the default rule (160 s nodes at full
# scale, 80 at desk) on a 2-core Xeon (2 MiB L2 per core), five
# alternating rounds over 2**13 .. 2**17: at full 2**13, 2**14 and 2**15
# tied (18-21 ms) and 2**16, 2**17 were 30-70 % slower; at desk 2**13 was
# fastest (2.0-2.8 ms against 2.4-3.4 ms for 2**14), a saving of about
# 0.02 s over the 60 points of an orientation-averaged desk run, too small
# to resolve end to end, so the value stays.
_BLOCK_PAIRS = 2**14

# Denominator threshold below which the cone/line intersection is solved
# via its surviving linear equation.
_DEGENERATE_TOL = 1e-12


class NearFieldWarning(UserWarning):
    """Far-field expressions evaluated below the 10-wavelength guard."""


@dataclass(frozen=True)
class EmConstants:
    """Wavelength-derived constants of the propagation medium.

    Attributes:
        wavelength: Free-space wavelength [m].
        z0: Free-space impedance [Ohm].
    """

    wavelength: float
    z0: float = FREE_SPACE_IMPEDANCE

    def __post_init__(self) -> None:
        if not (self.wavelength > 0.0 and math.isfinite(self.wavelength)):
            raise ValueError(f"wavelength must be positive, got {self.wavelength}")
        if not self.z0 > 0.0:
            raise ValueError(f"z0 must be positive, got {self.z0}")

    @property
    def kappa(self) -> float:
        """Wavenumber 2*pi/wavelength [rad/m]."""
        return 2.0 * math.pi / self.wavelength


def spatial_frequency(n: int, n_modes: int, L_s: float) -> float:
    """Wavenumber of transmit mode ``n`` out of ``n_modes`` [rad/m].

    Modes are laid out symmetrically around zero with spacing
    2*pi/L_s: kappa_n = (2*pi/L_s) * (n - (n_modes + 1)/2).
    """
    if not 1 <= n <= n_modes:
        raise ValueError(f"mode index {n} outside [1, {n_modes}]")
    if not L_s > 0.0:
        raise ValueError(f"L_s must be positive, got {L_s}")
    return 2.0 * math.pi / L_s * (n - (n_modes + 1) / 2.0)


@dataclass(frozen=True)
class ModeIndex:
    """One multiplexed mode.

    Attributes:
        n: Mode number in [1, n_modes].  The synthetic broadside
            reference used for field normalization carries n = 0.
        kappa_n: Spatial frequency of the mode [rad/m].
        gamma_n: kappa_n / kappa, the cosine of the beam cone aperture.
    """

    n: int
    kappa_n: float
    gamma_n: float

    @classmethod
    def from_mode_number(
        cls, n: int, n_modes: int, L_s: float, k: EmConstants
    ) -> "ModeIndex":
        kappa_n = spatial_frequency(n, n_modes, L_s)
        return cls(n=n, kappa_n=kappa_n, gamma_n=kappa_n / k.kappa)


def green_dyadic_ff(r: np.ndarray, s: np.ndarray, k: EmConstants) -> np.ndarray:
    """Far-field dyadic Green's function between two points.

    Args:
        r: Observation point, array (3,) [m].
        s: Source point, array (3,) [m].
        k: Medium constants.

    Returns:
        Complex array (3, 3):
        exp(j kappa d) / (4 pi d) * (I - p_hat p_hat^T) with p = r - s.

    Raises:
        ValueError: If the two points coincide.

    Warns:
        NearFieldWarning: If ||r - s|| < 10 wavelengths.
    """
    p = np.asarray(r, dtype=float) - np.asarray(s, dtype=float)
    d = float(np.linalg.norm(p))
    if d == 0.0:
        raise ValueError("observation and source points coincide")
    if d < FAR_FIELD_GUARD_WAVELENGTHS * k.wavelength:
        warnings.warn(
            f"separation {d:.3g} m is below {FAR_FIELD_GUARD_WAVELENGTHS:g} "
            f"wavelengths; the far-field dyad is inaccurate here",
            NearFieldWarning,
            stacklevel=2,
        )
    p_hat = p / d
    proj = np.eye(3) - np.outer(p_hat, p_hat)
    return np.exp(1j * k.kappa * d) / (4.0 * math.pi * d) * proj


def gz_kernel(
    u: np.ndarray, theta_s: float, phi_s: float, k: EmConstants
) -> np.ndarray:
    """Scalar channel kernel z_hat^T g(u) s_hat(theta_s, phi_s).

    Vectorized over leading axes of ``u``.  No far-field guard is applied
    here (:func:`tone_fields` checks its node set once).

    Args:
        u: Separation vectors, array (..., 3) [m], nonzero.
        theta_s, phi_s: Transmit segment orientation [rad].
        k: Medium constants.

    Returns:
        Complex array of shape u.shape[:-1].
    """
    u = np.asarray(u, dtype=float)
    s_hat = source_direction(theta_s, phi_s)
    ux, uy, uz = u[..., 0], u[..., 1], u[..., 2]
    uxy2 = ux * ux + uy * uy
    lean = ux * s_hat[0] + uy * s_hat[1]
    return _gz(uxy2, lean, uz, uxy2 + uz * uz, s_hat[2], k)


def _gz(
    uxy2: np.ndarray,
    lean: np.ndarray,
    uz: np.ndarray,
    dist2: np.ndarray,
    cos_theta: float,
    k: EmConstants,
) -> np.ndarray:
    """:func:`gz_kernel` on separation terms that broadcast together.

    ``uxy2`` = u_x^2 + u_y^2, ``lean`` = (u_x, u_y) . s_hat and ``dist2``
    = ||u||^2, so the bracket is uxy2 cos(theta_s) - u_z lean.  The
    amplitude bracket / (4 pi ||u||^3) is real and scales the phasor of
    ||u|| / lambda cycles.  1 / (4 pi) is applied to ``uxy2`` and ``lean``,
    which in :func:`tone_fields` are rows over s, not to every pair.
    """
    if np.any(dist2 == 0.0):
        raise ValueError("kernel evaluated at zero separation")
    dist = np.sqrt(dist2)
    inv_4pi = 0.25 / math.pi
    amp = uxy2 * (cos_theta * inv_4pi) - uz * (lean * inv_4pi)
    amp /= dist * dist2
    return _phasor(dist / k.wavelength, amp)


def _phasor(cycles: np.ndarray, scale=1.0) -> np.ndarray:
    """scale * exp(2 pi j cycles) without sin, cos or complex exp.

    The phase is reduced to c = cycles - rint(cycles) in [-1/2, 1/2] and
    written through t = tan(pi c): cos = (1 - t^2) / (1 + t^2) and
    sin = 2 t / (1 + t^2).  At c = +/-1/2, t is finite (about 1.6e16), so
    nothing overflows and the real part is -scale up to rounding.

    Args:
        cycles: Phases in turns; their shape is the result's shape.
        scale: Real amplitude, broadcasting against ``cycles``.

    Returns:
        Complex array of cycles.shape, within about 3e-16 |scale| of
        scale * exp(2 pi j cycles) for the reduced phase.
    """
    t = np.rint(np.atleast_1d(cycles))
    np.subtract(cycles, t, out=t)
    t *= math.pi
    np.tan(t, out=t)
    t2 = t * t
    w = t2 + 1.0
    np.divide(scale, w, out=w)
    np.subtract(1.0, t2, out=t2)
    t += t
    out = np.empty(w.shape, dtype=complex)
    np.multiply(w, t2, out=out.real)
    np.multiply(w, t, out=out.imag)
    return out.reshape(np.shape(cycles))


def radiation_pattern(
    theta_bar: np.ndarray, mode: ModeIndex, geom: LinkGeometry, k: EmConstants
) -> np.ndarray:
    """Normalized radiated power of one mode versus cone angle.

    Args:
        theta_bar: Polar angle(s) from the segment axis [rad], in [0, pi].
        mode: Transmit mode.
        geom: Link geometry (only L_s enters).
        k: Medium constants.

    Returns:
        sin(theta_bar)^2 * sinc(2 L_s/lambda (gamma_n - cos theta_bar))^2,
        same shape as ``theta_bar``, values in [0, 1].
    """
    theta_bar = np.asarray(theta_bar, dtype=float)
    if np.any((theta_bar < 0.0) | (theta_bar > math.pi)):
        raise ValueError("theta_bar must lie in [0, pi]")
    st = np.sin(theta_bar)
    arg = 2.0 * geom.L_s / k.wavelength * (mode.gamma_n - np.cos(theta_bar))
    return st * st * np.sinc(arg) ** 2


def tone_fields(
    geom: LinkGeometry,
    k: EmConstants,
    r_z: np.ndarray,
    kappas: np.ndarray,
    spec: QuadratureSpec,
) -> np.ndarray:
    """Scalar fields of transmit tones along the receive line.

    Returns the (len(r_z), len(kappas)) array of Integral phi_m(s)
    gz(r - s s_hat) ds, with phi_m(s) = exp(j kappa_m s) / sqrt(L_s) and
    r = (d_x, 0, r_z).  Tone plus propagation phase oscillate at most at
    2 kappa along s, so the s-rule is sized with half a wavelength as the
    period.  The kernel is evaluated on blocks of receive nodes of about
    ``_BLOCK_PAIRS`` node pairs each, and every block is contracted with
    the weighted tones into its rows of the result, so memory stays
    bounded whatever the node count.  Of the separation r - s s_hat only
    the z-part depends on r; the x- and y-parts, and the kernel terms
    built from them alone, are rows over s.  Each block's squared
    distances serve both the kernel and the near-field guard.

    Warns:
        NearFieldWarning: If any node pair falls below the guard; the
            warning points at the caller of ``assemble_H`` or
            ``received_field_profile``.
    """
    s_nodes, s_weights = composite_gauss_nodes(
        -geom.L_s / 2.0, geom.L_s / 2.0, k.wavelength / 2.0, spec
    )
    s_hat = source_direction(geom.theta_s, geom.phi_s)
    r_z = np.asarray(r_z, dtype=float)
    ux = (geom.d_x - s_nodes * s_hat[0])[None, :]
    uy = (-s_nodes * s_hat[1])[None, :]
    uxy2 = ux * ux + uy * uy
    lean = ux * s_hat[0] + uy * s_hat[1]
    s_z = s_nodes[None, :] * s_hat[2]
    weighted_tones = _phasor(
        np.outer(s_nodes, kappas / (2.0 * math.pi)),
        (s_weights / math.sqrt(geom.L_s))[:, None],
    )
    out = np.empty((r_z.size, weighted_tones.shape[1]), dtype=complex)
    rows = max(1, _BLOCK_PAIRS // s_nodes.size)
    d2_min = math.inf
    for start in range(0, r_z.size, rows):
        uz = r_z[start : start + rows, None] - s_z
        dist2 = uxy2 + uz * uz
        d2_min = min(d2_min, float(np.min(dist2)))
        kern = _gz(uxy2, lean, uz, dist2, s_hat[2], k)
        np.matmul(kern, weighted_tones, out=out[start : start + rows])
    d_min = math.sqrt(d2_min)
    if d_min < FAR_FIELD_GUARD_WAVELENGTHS * k.wavelength:
        warnings.warn(
            f"closest source/receive separation {d_min:.3g} m is below "
            f"{FAR_FIELD_GUARD_WAVELENGTHS:g} wavelengths",
            NearFieldWarning,
            stacklevel=3,
        )
    return out


def received_field_profile(
    mode: ModeIndex,
    geom: LinkGeometry,
    k: EmConstants,
    grid: np.ndarray,
    spec: QuadratureSpec,
) -> np.ndarray:
    """Complex e_z along the receive segment for a unit-amplitude mode.

    Returns j kappa Z0 times the mode's :func:`tone_fields` column.

    Args:
        mode: Transmit mode.
        geom: Link geometry.
        k: Medium constants.
        grid: Heights r_z [m]; every point must lie on the receive
            segment.
        spec: Quadrature sizing.

    Returns:
        Complex array, e_z at each grid point [V/m].

    Warns:
        NearFieldWarning: If any node pair falls below the guard.
    """
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if np.any(np.abs(grid - geom.d_z) > geom.L_r / 2.0 + 1e-12 * geom.L_r):
        raise ValueError("grid extends beyond the receive segment")
    fields = tone_fields(geom, k, grid, np.array([mode.kappa_n]), spec)
    return 1j * k.kappa * k.z0 * fields[:, 0]


def boresight_reference_peak(
    geom: LinkGeometry, k: EmConstants, grid: np.ndarray, spec: QuadratureSpec
) -> float:
    """Field normalization constant e_0.

    Peak |e_z| of the broadside (gamma = 0) mode for the same segments
    placed at theta_s = phi_s = 0 and d_z = 0, evaluated on ``grid``
    recentered about zero.
    """
    ref_geom = replace(geom, theta_s=0.0, phi_s=0.0, d_z=0.0)
    ref_grid = np.asarray(grid, dtype=float) - geom.d_z
    ref_mode = ModeIndex(n=0, kappa_n=0.0, gamma_n=0.0)
    profile = received_field_profile(ref_mode, ref_geom, k, ref_grid, spec)
    return float(np.max(np.abs(profile)))


class FieldPeak(NamedTuple):
    """Predicted |e_z| maximum along the receive line.

    Attributes:
        r_z: Height of the predicted peak [m].
        in_segment: Whether it falls strictly inside the receive segment.
    """

    r_z: float
    in_segment: bool


def peak_location_boresight(mode: ModeIndex, geom: LinkGeometry) -> FieldPeak:
    """Peak height for the untilted segment (theta_s = 0).

    The mode's beam cone of aperture acos(gamma_n) about the z-axis meets
    the receive line at r_z = d_x * gamma_n / sqrt(1 - gamma_n^2).

    Raises:
        ValueError: If |gamma_n| >= 1 (the cone never meets the line).
    """
    g = mode.gamma_n
    if abs(g) >= 1.0:
        raise ValueError(f"no finite peak for |gamma_n| >= 1, got {g}")
    r_z = geom.d_x * g / math.sqrt(1.0 - g * g)
    return FieldPeak(r_z=r_z, in_segment=abs(r_z - geom.d_z) < geom.L_r / 2.0)


def peak_locations_general(mode: ModeIndex, geom: LinkGeometry) -> List[FieldPeak]:
    """Peak heights for an arbitrarily tilted segment.

    Intersects the mode's beam cone (axis s_hat, aperture acos(gamma_n))
    with the receive line x = d_x, y = 0.  Writing a = d_x cos(phi_s)
    sin(theta_s) and c = cos(theta_s), the heights solve

        (c^2 - gamma_n^2) r^2 + 2 a c r + a^2 - gamma_n^2 d_x^2 = 0,

    i.e. r = d_x (-cos(phi_s) sin(theta_s) cos(theta_s)
                  +/- |gamma_n| sqrt(Delta)) / (c^2 - gamma_n^2)
    with Delta = 1 - sin^2(phi_s) sin^2(theta_s) - gamma_n^2.  Only roots
    on the forward nappe of the cone are kept, which requires the signed
    condition sign(a + c r) = sign(gamma_n); squaring introduced the
    mirrored nappe.  When c^2 = gamma_n^2 the quadratic degenerates and
    the surviving linear equation is solved instead.

    Returns:
        Zero, one or two peaks, sorted by height.  Empty when Delta < 0
        (the cone misses the plane of the line entirely).
    """
    g = mode.gamma_n
    a = geom.d_x * math.cos(geom.phi_s) * math.sin(geom.theta_s)
    c = math.cos(geom.theta_s)
    delta = 1.0 - (math.sin(geom.phi_s) * math.sin(geom.theta_s)) ** 2 - g * g
    if delta < 0.0:
        return []
    denom = c * c - g * g
    roots: List[float] = []
    if abs(denom) < _DEGENERATE_TOL:
        lin = 2.0 * a * c
        if abs(lin) < _DEGENERATE_TOL * max(1.0, geom.d_x):
            return []
        roots.append((g * g * geom.d_x * geom.d_x - a * a) / lin)
    else:
        spread = abs(g) * math.sqrt(delta) * geom.d_x
        r_plus = (-a * c + spread) / denom
        r_minus = (-a * c - spread) / denom
        roots.append(r_minus)
        if r_plus != r_minus:
            roots.append(r_plus)
    peaks = []
    for r in sorted(roots):
        axial = a + c * r
        # Forward-nappe test; gamma = 0 peaks lie on the plane axial = 0.
        if g > 0.0 and axial < 0.0:
            continue
        if g < 0.0 and axial > 0.0:
            continue
        peaks.append(FieldPeak(r_z=r, in_segment=abs(r - geom.d_z) < geom.L_r / 2.0))
    return peaks

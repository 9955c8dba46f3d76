"""Far-field radiation of a linear current segment.

A current filament j(s) = xi * phi(s) * s_hat flowing along the tilted
transmit segment radiates, at distances large against the wavelength,
the electric field

    e(r) = j * kappa * Z0 * xi * Integral phi(s) g(r, s * s_hat) ds

with the far-field dyadic Green's function

    g(r, s) = exp(j * kappa * ||r - s||) / (4 * pi * ||r - s||)
              * (I - p_hat p_hat^T),          p = r - s.

The medium enters only through the wavelength lambda, which every
function here takes as a plain float: kappa = 2 pi / lambda, and Z0 is
:data:`wdmlink.config.FREE_SPACE_IMPEDANCE`.

Only the z-component of the field is picked up by the receive segment,
so most of this module works with the scalar contraction
``gz_kernel(u) = z_hat^T g(u) s_hat``, written out explicitly to avoid
assembling 3x3 dyads inside quadrature loops:

    gz(u) = exp(j kappa ||u||) / (4 pi ||u||^3)
            * ((u_x^2 + u_y^2) cos(theta_s) - u_z (u_x, u_y) . s_hat).

Every unit phasor on the path to H and R comes from ``_phasor_into``
(behind ``_phasor``) in half-angle-tangent form: with c the phase in
cycles reduced to [-1/2, 1/2] and t = tan(pi c),

    exp(2 pi j c) = ((1 - t^2) + 2 j t) / (1 + t^2),

one vectorised tangent in place of a complex exponential or a sine and
a cosine.  With numpy 2.4 on a 2-core Xeon, float64 np.tan takes about
3 ns per element, np.cos about 29 ns and complex np.exp about 48 ns.

One private generator, ``_kernel_blocks``, evaluates it on bounded
blocks of receive nodes against the transmit-segment nodes, for a stack
of orientations at once, in place into three arrays reused for every
block (``_gz_into``, which ``gz_kernel`` calls too), so the
transmit-field integral has one implementation.  It also gives the
reduced kernel gz(u) exp(-j kappa rho), rho = ||r|| the distance from
the source centre, whose phase kappa (||u|| - rho) it forms from
||u||^2 - rho^2 = s^2 - 2 s s_hat . r without cancellation.
``tone_fields`` (behind ``received_field_profile``) contracts each block
with the weighted transmit tones (below); the coupling matrix H of
:mod:`wdmlink.channel` does the same with the reduced kernel at a few
Chebyshev points of each piece of the receive segment, and its
reference, the direct sum over every node pair, contracts each block of
receive nodes with its receive tones and the transmit tones once at the
end, so none holds an array over the whole receive segment beyond its
nodes.

The approximation degrades below roughly ten wavelengths of separation;
operations that evaluate it warn (``NearFieldWarning``) instead of
failing, since grazing node pairs can dip below the guard while the
integral remains accurate.  The guard (``_near_field_guard``) looks at
the closest pair of the quadrature nodes (``_closest_separations``), for
tone_fields and H alike.

Mode ``n`` of an N-mode multiplex excites phi_n(s) proportional to
exp(j kappa_n s), a spatial tone of wavenumber kappa_n.  Its normalized
radiated power at polar angle ``theta_bar`` from the segment axis is

    P_n(theta_bar) = sin(theta_bar)^2
                     * sinc(2 L_s / lambda * (gamma_n - cos(theta_bar)))^2

with gamma_n = kappa_n / kappa, peaking at theta_bar = acos(gamma_n)
with value 1 - gamma_n^2.  The beam therefore leaves the segment on a
cone of aperture acos(gamma_n) about its axis; for an untilted segment
``peak_location_boresight`` intersects that cone with the receive line
to predict where |e_z| is maximal (any tilt: ``tests/oracles.py``).

The segment points along ``source_direction(theta_s, phi_s)``;
``rotation_matrix`` returns the orthogonal matrix Q that maps it onto
the z-axis, the rotation by ``theta_s`` about the horizontal axis
perpendicular to both, expressed directly in terms of the two angles.
"""

from __future__ import annotations

import math
import warnings
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .config import FREE_SPACE_IMPEDANCE
from .geometry import LinkGeometry, replace
from .quadrature import QuadratureSpec, composite_gauss_nodes

__all__ = [
    "ModeIndex",
    "NearFieldWarning",
    "FieldPeak",
    "spatial_frequency",
    "source_direction",
    "rotation_matrix",
    "green_dyadic_ff",
    "gz_kernel",
    "radiation_pattern",
    "tone_fields",
    "received_field_profile",
    "boresight_reference_peak",
    "peak_location_boresight",
]

# Separations below this many wavelengths trigger NearFieldWarning.  The
# far-field kernel's relative error in H is about C / (k d_min), d_min the
# smallest source/receive separation: the tests' model-error table
# (TestFarFieldModelError) measures C <= 1.0 for a broadside or mildly
# tilted source and holds it to 1.2, so the guard admits about 1.9e-2 at
# k d_min = 20 pi; a source leaning toward the receive line (theta_s =
# 1.2) reaches C ~ 2.9.
FAR_FIELD_GUARD_WAVELENGTHS = 10.0

# Node pairs per block of _kernel_blocks, and array entries per block of
# H's projection (wdmlink.channel).  A kernel block is written in place
# into two float64 arrays and one complex128 array, which at 2**13 pairs
# take at most 64 + 64 + 128 KiB: the complex one stays within glibc's
# default 128 KiB mmap threshold, so no block is mapped afresh at each
# call, and the three set the traced peak of H.  Medians of the direct
# sum over every node pair (channel._direct_H, which runs every kernel
# block of a receive segment and is now only H's reference) over 7
# alternating rounds, one process per size and round, on a 2-core Xeon
# (2 MiB L2 per core), default rule, glibc 2.36 with its default
# thresholds, and its traced peak at full scale:
#   2**12: desk 1.70 ms, full 21.4 ms, 0.40 MB
#   2**13: desk 1.37 ms, full 15.6 ms, 0.58 MB
#   2**14: desk 1.27 ms, full 14.4 ms, 0.91 MB
#   2**15: desk 1.71 ms, full 14.2 ms, 1.67 MB
# Larger blocks add half or more to the peak of every H, so 2**13 is
# kept; the pieces of H's reduced field were not timed against it.
_BLOCK_PAIRS = 2**13


class NearFieldWarning(UserWarning):
    """Far-field expressions evaluated below the 10-wavelength guard."""


def _kappas(n_modes: int, L_s: float) -> np.ndarray:
    """kappa_n of every transmit mode, n = 1..n_modes, as one array [rad/m]."""
    return 2.0 * math.pi / L_s * (np.arange(1, n_modes + 1) - (n_modes + 1) / 2.0)


def spatial_frequency(n: int, n_modes: int, L_s: float) -> float:
    """Wavenumber of transmit mode ``n`` out of ``n_modes`` [rad/m].

    Modes are laid out symmetrically around zero with spacing
    2*pi/L_s: kappa_n = (2*pi/L_s) * (n - (n_modes + 1)/2).
    """
    if not 1 <= n <= n_modes:
        raise ValueError(f"mode index {n} outside [1, {n_modes}]")
    if not L_s > 0.0:
        raise ValueError(f"L_s must be positive, got {L_s}")
    return float(_kappas(n_modes, L_s)[n - 1])


def source_direction(theta_s: float, phi_s: float) -> np.ndarray:
    """Unit vector along the transmit segment.

    Args:
        theta_s: Polar angle from the z-axis [rad].
        phi_s: Azimuth from the x-axis [rad].

    Returns:
        Array (3,) with (cos(phi_s) sin(theta_s), sin(phi_s) sin(theta_s),
        cos(theta_s)).
    """
    st = math.sin(theta_s)
    return np.array(
        [math.cos(phi_s) * st, math.sin(phi_s) * st, math.cos(theta_s)]
    )


def rotation_matrix(theta_s: float, phi_s: float) -> np.ndarray:
    """Orthogonal matrix taking the segment direction onto the z-axis.

    Satisfies Q @ source_direction(theta_s, phi_s) = (0, 0, 1), with
    det Q = +1.  For theta_s = 0 the matrix is the identity.

    Args:
        theta_s: Polar angle [rad].
        phi_s: Azimuth [rad].

    Returns:
        Array (3, 3).
    """
    ct = math.cos(theta_s)
    st = math.sin(theta_s)
    if 1.0 - ct == 0.0:
        # The general expression reduces to sin^2 + cos^2 on the diagonal,
        # which need not round to 1.0; return the exact limit instead.
        return np.eye(3)
    cp = math.cos(phi_s)
    sp = math.sin(phi_s)
    return np.array(
        [
            [sp * sp + cp * cp * ct, -sp * cp * (1.0 - ct), -cp * st],
            [-sp * cp * (1.0 - ct), cp * cp + sp * sp * ct, -sp * st],
            [cp * st, sp * st, ct],
        ]
    )


class ModeIndex(NamedTuple):
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
    def from_mode_number(cls, n: int, n_modes: int, L_s: float, wavelength: float) -> "ModeIndex":
        kappa_n = spatial_frequency(n, n_modes, L_s)
        return cls(n=n, kappa_n=kappa_n, gamma_n=kappa_n / (2.0 * math.pi / wavelength))


def green_dyadic_ff(r: np.ndarray, s: np.ndarray, wavelength: float) -> np.ndarray:
    """Far-field dyadic Green's function between two points.

    Args:
        r: Observation point, array (3,) [m].
        s: Source point, array (3,) [m].
        wavelength: Free-space wavelength [m].

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
    if d < FAR_FIELD_GUARD_WAVELENGTHS * wavelength:
        warnings.warn(
            f"separation {d:.3g} m is below {FAR_FIELD_GUARD_WAVELENGTHS:g} "
            f"wavelengths; the far-field dyad is inaccurate here",
            NearFieldWarning,
            stacklevel=2,
        )
    p_hat = p / d
    proj = np.eye(3) - np.outer(p_hat, p_hat)
    return np.exp(1j * (2.0 * math.pi / wavelength) * d) / (4.0 * math.pi * d) * proj


def gz_kernel(u: np.ndarray, theta_s: float, phi_s: float, wavelength: float) -> np.ndarray:
    """Scalar channel kernel z_hat^T g(u) s_hat(theta_s, phi_s).

    Vectorized over leading axes of ``u``.  No far-field guard is applied
    here (:func:`tone_fields` checks its node set once).

    Args:
        u: Separation vectors, array (..., 3) [m], nonzero.
        theta_s, phi_s: Transmit segment orientation [rad].
        wavelength: Free-space wavelength [m].

    Returns:
        Complex array of shape u.shape[:-1].
    """
    u = np.asarray(u, dtype=float)
    if np.any(np.sum(u * u, axis=-1) == 0.0):
        raise ValueError("kernel evaluated at zero separation")
    s_hat = source_direction(theta_s, phi_s)
    out = np.empty(u.shape[:-1], dtype=complex)
    lateral = _gz_lateral(u[..., 0], u[..., 1], s_hat)
    _gz_into(out, u[..., 2].copy(), np.empty(out.shape), lateral, wavelength)
    return out


def _gz_lateral(
    u_x: np.ndarray, u_y: np.ndarray, s_hat: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The terms of :func:`gz_kernel` built from u_x and u_y alone.

    Returns uxy2 = u_x^2 + u_y^2, uxy2 cos(theta_s) / (4 pi) and
    (u_x, u_y) . s_hat / (4 pi), so the amplitude bracket / (4 pi) is the
    second minus u_z times the third.  In :func:`_kernel_blocks` these are
    rows over s, computed once rather than for every pair.
    """
    inv_4pi = 0.25 / math.pi
    uxy2 = u_x * u_x + u_y * u_y
    lean = u_x * s_hat[0] + u_y * s_hat[1]
    return uxy2, uxy2 * (s_hat[2] * inv_4pi), lean * inv_4pi


def _gz_into(
    out: np.ndarray,
    uz: np.ndarray,
    dist2: np.ndarray,
    lateral: tuple[np.ndarray, np.ndarray, np.ndarray],
    wavelength: float,
    centre: Optional[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = None,
) -> None:
    """Write gz(u) into ``out``, or gz(u) exp(-j kappa rho) with ``centre``.

    ``uz`` holds u_z and ``lateral`` the :func:`_gz_lateral` terms, which
    broadcast against it; ``uz`` and ``dist2`` are float arrays of out's
    shape and are overwritten, and ``out`` is C-contiguous, so the kernel
    allocates nothing.  ``uz`` turns into the amplitude bracket / (4 pi
    ||u||^3), ``dist2`` into ||u||^3 and then the phase in cycles for
    :func:`_phasor_into`; ||u|| itself lives in out's memory.

    ``centre`` is (r_z, rho, q0, q1): the receive heights and their
    distances rho = ||r|| from the source centre as columns, and the rows
    q0 = s^2 - 2 s d_x s_hat_x and q1 = -2 s s_hat_z over s, so that
    q0 + r_z q1 = ||u||^2 - rho^2 exactly in exact arithmetic.  The phase
    is then (||u|| - rho) / lambda = (q0 + r_z q1) / ((||u|| + rho)
    lambda), good to rounding of a quantity of the size of L_s rather
    than of ||u||.
    """
    uxy2, bracket_xy, lean = lateral
    np.multiply(uz, uz, out=dist2)
    np.add(uxy2, dist2, out=dist2)
    amp = np.multiply(uz, lean, out=uz)
    np.subtract(bracket_xy, amp, out=amp)
    dist = np.sqrt(dist2, out=_float_halves(out)[0])
    np.multiply(dist, dist2, out=dist2)
    np.divide(amp, dist2, out=amp)
    if centre is None:
        cycles = np.divide(dist, wavelength, out=dist2)
    else:
        r_z, rho, q0, q1 = centre
        cycles = np.add(dist, rho, out=dist2)
        cycles *= wavelength
        lag = np.multiply(r_z, q1, out=dist)
        lag += q0
        np.divide(lag, cycles, out=cycles)
    _phasor_into(out, cycles, amp)


def _phasor(cycles: np.ndarray, scale=1.0) -> np.ndarray:
    """scale * exp(2 pi j cycles) without sin, cos or complex exp.

    Args:
        cycles: Phases in turns; their shape is the result's shape.
        scale: Real amplitude, broadcasting against ``cycles``.

    Returns:
        Complex array of cycles.shape, within about 3e-16 |scale| of
        scale * exp(2 pi j cycles) for the reduced phase.
    """
    work = np.array(cycles, dtype=float, ndmin=1)
    out = np.empty(work.shape, dtype=complex)
    _phasor_into(out, work, np.full(work.shape, scale, dtype=float))
    return out.reshape(np.shape(cycles))


def _phasor_into(out: np.ndarray, cycles: np.ndarray, scale: np.ndarray) -> None:
    """Write scale * exp(2 pi j cycles) into ``out``, overwriting both inputs.

    The phase is reduced to c = cycles - rint(cycles) in [-1/2, 1/2] and
    written through t = tan(pi c): cos = (1 - t^2) / (1 + t^2) and
    sin = 2 t / (1 + t^2).  At c = +/-1/2, t is finite (about 1.6e16), so
    nothing overflows and the real part is -scale up to rounding.

    ``cycles`` and ``scale`` are float arrays of out's shape, and ``out``
    is C-contiguous: t and t^2 live in the two contiguous halves of its
    memory, so every step but the two final copies runs on contiguous
    arrays.
    """
    t, t2 = _float_halves(out)
    np.rint(cycles, out=t)
    np.subtract(cycles, t, out=t)
    t *= math.pi
    np.tan(t, out=t)
    np.multiply(t, t, out=t2)
    w = np.add(t2, 1.0, out=cycles)
    np.divide(scale, w, out=w)
    np.subtract(1.0, t2, out=t2)
    t += t
    np.multiply(w, t, out=scale)
    np.multiply(w, t2, out=w)
    out.real = w
    out.imag = scale


def _float_halves(out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The memory of C-contiguous complex ``out`` as two float arrays of its shape."""
    halves = out.reshape(-1).view(float).reshape((2,) + out.shape)
    return halves[0, ...], halves[1, ...]


def radiation_pattern(
    theta_bar: np.ndarray, mode: ModeIndex, geom: LinkGeometry, wavelength: float
) -> np.ndarray:
    """Normalized radiated power of one mode versus cone angle.

    Args:
        theta_bar: Polar angle(s) from the segment axis [rad], in [0, pi].
        mode: Transmit mode.
        geom: Link geometry (only L_s enters).
        wavelength: Free-space wavelength [m].

    Returns:
        sin(theta_bar)^2 * sinc(2 L_s/lambda (gamma_n - cos theta_bar))^2,
        same shape as ``theta_bar``, values in [0, 1].
    """
    theta_bar = np.asarray(theta_bar, dtype=float)
    if np.any((theta_bar < 0.0) | (theta_bar > math.pi)):
        raise ValueError("theta_bar must lie in [0, pi]")
    st = np.sin(theta_bar)
    arg = 2.0 * geom.L_s / wavelength * (mode.gamma_n - np.cos(theta_bar))
    return st * st * np.sinc(arg) ** 2


def tone_fields(
    geom: LinkGeometry,
    wavelength: float,
    r_z: np.ndarray,
    kappas: np.ndarray,
    spec: QuadratureSpec,
) -> np.ndarray:
    """Scalar fields of transmit tones along the receive line.

    Returns the (len(r_z), len(kappas)) array of Integral phi_m(s)
    gz(r - s s_hat) ds, with phi_m(s) = exp(j kappa_m s) / sqrt(L_s) and
    r = (d_x, 0, r_z): the :func:`_tone_sums` of the :func:`_weighted_tones`
    on the s-rule (:func:`_transmit_rule`).

    Warns:
        NearFieldWarning: If any node pair falls below the guard; the
            warning points at the caller of ``received_field_profile``.
    """
    rule = _transmit_rule(geom, wavelength, spec)
    r_z = np.asarray(r_z, dtype=float)
    _near_field_guard([geom], wavelength, np.sort(r_z), rule[0], stacklevel=4)
    return _tone_sums([geom], wavelength, r_z, rule[0], _weighted_tones(geom, rule, kappas))[0]


def _tone_sums(
    geoms: Sequence[LinkGeometry],
    wavelength: float,
    r_z: np.ndarray,
    s_nodes: np.ndarray,
    weighted_tones: np.ndarray,
    reduced: bool = False,
) -> np.ndarray:
    """Each kernel block of :func:`_kernel_blocks` times ``weighted_tones``.

    The (len(geoms), len(r_z), tones) sums over the s-nodes, written
    block by block; with ``reduced``, of the reduced kernel.  Each
    orientation's block is a product of its own (numpy's per-matrix loop
    over a stack), so its sums do not depend on the rest of the stack.
    """
    out = np.empty((len(geoms), r_z.size, weighted_tones.shape[1]), dtype=complex)
    for rows, members, kern in _kernel_blocks(geoms, wavelength, r_z, s_nodes, reduced):
        np.matmul(kern, weighted_tones, out=out[members, rows])
    return out


def _transmit_rule(
    geom: LinkGeometry, wavelength: float, spec: QuadratureSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the s-rule.

    Tone plus propagation phase oscillate at most at 2 kappa along s, so
    the s-rule is sized with half a wavelength as the period.
    """
    return composite_gauss_nodes(-geom.L_s / 2.0, geom.L_s / 2.0, wavelength / 2.0, spec)


def _weighted_tones(
    geom: LinkGeometry, rule: tuple[np.ndarray, np.ndarray], kappas: np.ndarray
) -> np.ndarray:
    """The (S, len(kappas)) array w_s phi_m(s) on the s-rule ``rule``."""
    s_nodes, s_weights = rule
    tones = np.empty((s_nodes.size, kappas.size), dtype=complex)
    scale = np.repeat((s_weights / math.sqrt(geom.L_s))[:, None], kappas.size, 1)
    _phasor_into(tones, np.outer(s_nodes, kappas / (2.0 * math.pi)), scale)
    return tones


def _kernel_blocks(
    geoms: Sequence[LinkGeometry],
    wavelength: float,
    r_z: np.ndarray,
    s_nodes: np.ndarray,
    reduced: bool = False,
) -> Iterator[tuple[slice, slice, np.ndarray]]:
    """Yield (rows, members, gz(r - s s_hat)) over r_z x s_nodes, block by block.

    ``geoms`` differ at most in orientation.  The receive nodes are cut
    into blocks of about ``_BLOCK_PAIRS`` node pairs (``rows``, a slice
    of r_z), and each block is yielded for a stack of orientations
    (``members``, a slice of ``geoms``) as one (members, rows, S) array
    of at most ``_BLOCK_PAIRS`` entries, or of one orientation where a
    block alone is that large; so memory stays bounded whatever the node
    count and the number of orientations, and an orientation's blocks
    are the same rows whatever stack it is in.  Every stack is written
    in place into the same three buffers, so a yielded one is valid only
    until the next one is requested.  Of the separation r - s s_hat only
    the z-part depends on r; the x- and y-parts, and the kernel terms
    built from them alone, are rows over s, one per orientation.  With
    ``reduced`` the blocks hold gz(r - s s_hat) exp(-j kappa ||r||) (the
    ``centre`` form of :func:`_gz_into`).  No near-field guard is
    applied here (:func:`_near_field_guard`).
    """
    geom = geoms[0]
    # (3, orientations, 1, 1): each component broadcasts over a stack
    s_hat = np.array([source_direction(g.theta_s, g.phi_s) for g in geoms]).T[:, :, None, None]
    lateral = _gz_lateral(geom.d_x - s_nodes * s_hat[0], -s_nodes * s_hat[1], s_hat)
    s_z = s_nodes * s_hat[2]
    if reduced:
        rho = np.hypot(geom.d_x, r_z)
        lags = (s_nodes * (s_nodes - 2.0 * geom.d_x * s_hat[0]), -2.0 * s_z)
    step = max(1, _BLOCK_PAIRS // s_nodes.size)
    pairs = max(1, min(step, r_z.size)) * s_nodes.size
    stack = max(1, _BLOCK_PAIRS // pairs)
    # flat buffers, so each stack is a C-contiguous prefix of them
    uz, dist2 = np.empty(stack * pairs), np.empty(stack * pairs)
    kern = np.empty(stack * pairs, dtype=complex)
    for start in range(0, r_z.size, step):
        rows = slice(start, min(start + step, r_z.size))
        for first in range(0, len(geoms), stack):
            members = slice(first, min(first + stack, len(geoms)))
            shape = (members.stop - first, rows.stop - start, s_nodes.size)
            size = math.prod(shape)
            block_uz, block_dist2, block = (b[:size].reshape(shape) for b in (uz, dist2, kern))
            np.subtract(r_z[rows, None], s_z[members], out=block_uz)
            centre = None
            if reduced:
                centre = (r_z[rows, None], rho[rows, None], *(q[members] for q in lags))
            terms = tuple(term[members] for term in lateral)
            _gz_into(block, block_uz, block_dist2, terms, wavelength, centre)
            yield rows, members, block


def _closest_separations(
    geoms: Sequence[LinkGeometry], r_z: np.ndarray, s_nodes: np.ndarray
) -> np.ndarray:
    """Smallest ||r - s s_hat|| of each geometry over the node pairs r_z x s_nodes.

    r = (d_x, 0, r_z); ``geoms`` differ at most in orientation, and
    ``r_z`` is ascending.  For each s-node the lateral part of ||u||^2 is
    fixed, so the closest receive node is one of the two that bracket
    s s_hat_z in r_z (``searchsorted``): O(S log R) instead of all R S
    pairs, for every orientation at once.  ||u||^2 is formed as
    :func:`_gz_into` forms it, and rounding is monotone, so each result
    equals the all-pairs minimum bit for bit.  With no receive node there
    is no pair, and the results are inf; a receive node on a transmit
    node gives 0.
    """
    if r_z.size == 0:
        return np.full(len(geoms), math.inf)
    # (3, orientations, 1): each component broadcasts over the s-nodes
    s_hat = np.array([source_direction(g.theta_s, g.phi_s) for g in geoms]).T[:, :, None]
    # the lateral u_x^2 + u_y^2 of _gz_lateral, for the same u_x and u_y
    u_x, u_y = geoms[0].d_x - s_nodes * s_hat[0], -s_nodes * s_hat[1]
    uxy2 = u_x * u_x + u_y * u_y
    s_z = s_nodes * s_hat[2]
    # take clips the bracket at either end of r_z in place of two np.clip
    # calls, which cost ~10 us each at these sizes
    above = np.searchsorted(r_z, s_z)
    uz = np.minimum(
        np.abs(r_z.take(above - 1, mode="clip") - s_z),
        np.abs(r_z.take(above, mode="clip") - s_z),
    )
    return np.sqrt(np.min(uz * uz + uxy2, axis=1))


def _near_field_guard(
    geoms: Sequence[LinkGeometry],
    wavelength: float,
    r_z: np.ndarray,
    s_nodes: np.ndarray,
    stacklevel: int,
) -> None:
    """Warn for each geometry whose node pairs (``r_z`` ascending) come within the guard.

    One warning per such geometry, in their order, pointing ``stacklevel``
    frames up, counted from here.

    Raises:
        ValueError: At the first geometry whose receive node coincides
            with a transmit node.
    """
    for d_min in _closest_separations(geoms, r_z, s_nodes):
        if d_min == 0.0:
            raise ValueError("kernel evaluated at zero separation")
        if d_min < FAR_FIELD_GUARD_WAVELENGTHS * wavelength:
            warnings.warn(
                f"closest source/receive separation {d_min:.3g} m is below "
                f"{FAR_FIELD_GUARD_WAVELENGTHS:g} wavelengths",
                NearFieldWarning,
                stacklevel=stacklevel,
            )


def received_field_profile(
    mode: ModeIndex,
    geom: LinkGeometry,
    wavelength: float,
    grid: np.ndarray,
    spec: QuadratureSpec,
) -> np.ndarray:
    """Complex e_z along the receive segment for a unit-amplitude mode.

    Returns j kappa Z0 times the mode's :func:`tone_fields` column.

    Args:
        mode: Transmit mode.
        geom: Link geometry.
        wavelength: Free-space wavelength [m].
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
    fields = tone_fields(geom, wavelength, grid, np.array([mode.kappa_n]), spec)
    return 1j * (2.0 * math.pi / wavelength) * FREE_SPACE_IMPEDANCE * fields[:, 0]


def boresight_reference_peak(
    geom: LinkGeometry, wavelength: float, grid: np.ndarray, spec: QuadratureSpec
) -> float:
    """Field normalization constant e_0.

    Peak |e_z| of the broadside (gamma = 0) mode for the same segments
    placed at theta_s = phi_s = 0 and d_z = 0, evaluated on ``grid``
    recentered about zero.
    """
    ref_geom = replace(geom, theta_s=0.0, phi_s=0.0, d_z=0.0)
    ref_grid = np.asarray(grid, dtype=float) - geom.d_z
    ref_mode = ModeIndex(n=0, kappa_n=0.0, gamma_n=0.0)
    profile = received_field_profile(ref_mode, ref_geom, wavelength, ref_grid, spec)
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

"""Wavenumber-domain channel and noise matrices of the link.

Transmission multiplexes N spatial tones on the transmit segment,

    phi_n(s) = exp(j kappa_n s) / sqrt(L_s),      |s| <= L_s / 2,

with kappa_n = (2 pi / L_s)(n - (N + 1)/2), and projects the received
e_z onto the matching (unnormalized) tones

    psi_n(r_z) = exp(j kappa_n r_z),     |r_z - d_z| <= L_r / 2.

Tones beyond |kappa_n| = kappa radiate evanescently, which caps the
usable mode count at N_max = 2 floor(L_s / lambda) + 1.

The coupling and noise-correlation matrices are double integrals

    H[n, m] = II gz(r - s s_hat) phi_m(s) conj(psi_n(r_z)) ds dr_z,
    R[n, m] = II sinc(2 |r' - r| / lambda) conj(psi_n(r)) psi_m(r') dr dr',

both over the physical segment supports (the receive axis runs over
[d_z - L_r/2, d_z + L_r/2]).  H is the projection of the tone fields
F_m(r) = int gz(r - s s_hat) phi_m(s) ds
(:func:`wdmlink.em_field.tone_fields`) onto the receive tones, a
tensor-product composite Gauss-Legendre sum on the node set of
:mod:`wdmlink.quadrature`.  It is formed as H = sum_i M_i G_i over
pieces of the receive segment (:func:`_pieces`): G_i holds the reduced
fields G_m = exp(-j kappa rho) F_m, rho the distance from the source
centre, at the few first-kind Chebyshev points of piece i that fix them
to rounding (:func:`_reduced_fields`), and M_i interpolates them onto the
piece's receive nodes, weighs them and projects them onto the receive
tones (:class:`ReceiveProjection`).  Every default point takes one piece,
the segment itself; near the source, where one sample count for the
whole segment would follow its nearest point, each piece is sampled at
its own rate.  M does not depend on the source orientation, so a sweep
builds it once per receive segment.  The direct sum over every node
pair (:func:`_direct_H`) is only the reference of
:func:`H_against_direct_sum`.  Arrays are built over blocks of at most
``em_field._BLOCK_PAIRS`` entries and one piece at a time, so memory
grows little with L_r beyond the nodes, and the near-field guard looks
at the node set (:func:`wdmlink.em_field._near_field_guard`).

The R kernel depends only on the lag t = r' - r, and its lag integrals
over the centred segment have closed forms in the sine and cosine
integrals Si and Cin (see :func:`assemble_R`), so R needs no
quadrature rule and holds no array over the segment; the d_z
congruence R -> D^H R D, D = diag(exp(j kappa_n d_z)), moves it onto
the shifted segment.  Reductions run in a fixed order, so repeated runs
are bit-identical.

Ambient electromagnetic interference reaching the receive segment is
isotropic with spatial correlation sinc(2 ||r' - r|| / lambda), variance
sigma2_emi; hardware noise adds a white sigma2_hdw on top.  A sweep
factors C = sigma2_emi R + sigma2_hdw I once, at d_z = 0, as L0 L0^H
(:func:`noise_factor`); the factor at d_z is then D^H L0 D, and
:func:`whiten` gives each point's channel as L0^{-1} (D H), which
differs from L^{-1} H by a unit diagonal that no receiver's SE sees.

:func:`assemble_H` also takes a sequence of geometries that differ only
in orientation and returns a stack, which :func:`whiten` whitens as one,
as a sweep evaluates the orientations of one receive segment.  A stack's
kernel blocks, samples and products are matrices of their own in
numpy's per-matrix loops (3-D ``matmul``, stacked ``linalg``), never one
fused product, so each orientation gets the bits of its own call, and
no stacked array holds more than ``em_field._BLOCK_PAIRS`` entries
unless one orientation's alone does (:func:`stack_size`).

A channel dump (:func:`save_channel_dump`) is an npz archive of the
``header`` string and ``H`` and ``R``.  A sweep's cache entry is text
and needs no numpy (:mod:`wdmlink.cache`); its writer and reader are
importable from here as :func:`save_channel_set` and
:func:`load_matching_channel_set`.
"""

from __future__ import annotations

import bisect
import math
from collections import namedtuple
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from . import em_field
from .cache import channel_header, replacing
# the cache entry writer and reader, which perfbench/layers.py traces
# under these names
from .cache import load_matching_channel_set, save_channel_set
from .config import WdmConfig, check_mode_count
from .geometry import LinkGeometry, replace
from .quadrature import composite_gauss_nodes

__all__ = [
    "ReceiveProjection",
    "H_against_direct_sum",
    "assemble_H",
    "assemble_R",
    "noise_factor",
    "whiten",
    "stack_size",
    "save_channel_dump",
    "save_channel_set",
    "load_matching_channel_set",
]

# Si(x) / x and Cin(x) / x^2 as power series in x^2, highest power first;
# the last of the 20 terms is below 1e-20 for x < 4
_SI_SERIES = [(-1) ** n / ((2 * n + 1) * math.factorial(2 * n + 1)) for n in range(19, -1, -1)]
_CIN_SERIES = [(-1) ** n / ((2 * n + 2) * math.factorial(2 * n + 2)) for n in range(19, -1, -1)]


def _si_cin(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Si(x) = int_0^x sin(t) / t dt and Cin(x) = int_0^x (1 - cos t) / t dt, x >= 0.

    Below x = 4 both are power series (odd and even in x, so a
    rounding-sized negative x is harmless).  From 4 up, exp(jx) E1(jx) =
    1 / (1 + jx - 1 / (3 + jx - 4 / (5 + jx - ...))) by the modified Lentz
    method (Abramowitz & Stegun 5.2; ``cisi`` in Numerical Recipes), with
    E1(jx) = -Ci(x) + j (Si(x) - pi/2) and Cin(x) = gamma + ln x - Ci(x).
    """
    si, cin = np.empty_like(x), np.empty_like(x)
    series = x < 4.0
    x2 = x[series] ** 2
    si[series] = x[series] * np.polyval(_SI_SERIES, x2)
    cin[series] = x2 * np.polyval(_CIN_SERIES, x2)
    z = x[~series]
    b = 1.0 + 1j * z
    c, d = np.full_like(b, 1e300), 1.0 / b  # c starts "infinite": the first step sets c = b
    e1 = d
    for i in range(1, 100):
        b = b + 2.0
        c, d = b - i * i / c, 1.0 / (b - i * i * d)
        step = c * d
        e1 = e1 * step
        if (np.abs(step - 1.0) <= 2.3e-16).all():
            break
    e1 = e1 * em_field._phasor(z / (-2.0 * math.pi))
    si[~series] = 0.5 * math.pi + e1.imag
    cin[~series] = 0.5772156649015329 + np.log(z) + e1.real  # Euler's gamma
    return si, cin


# The reduced field passes at n samples once its last _TAIL_TERMS
# Chebyshev coefficients are within _TAIL_TOL of its largest sample.  Its
# rounding floor is ~1e-14 of that (the reduced kernel's phase is good to
# rounding of ~L_s, not of the distance), and H then differs from the
# direct sum by its own rounding, ~2e-13 relative at 500 wavelengths.
_TAIL_TERMS = 8
_TAIL_TOL = 1e-13


def _chebyshev_points(centre: float, half: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Angles theta_j = (2 j + 1) pi / (2 n) and the first-kind Chebyshev
    points centre + half cos(theta_j) of [centre - half, centre + half], j < n."""
    angles = (2.0 * np.arange(n) + 1.0) * (math.pi / (2.0 * n))
    return angles, centre + half * np.cos(angles)


# A piece [centre - half, centre + half] of the receive segment, its start
# count and its slice of the receive nodes (_pieces).
_Piece = namedtuple("_Piece", "centre half start rows")


# What the numpy calls of one more piece cost, in node pairs of the kernel:
# ~0.1 ms per piece against ~40 ns per node pair (the direct sum's time
# over its pairs) on desk and full scale alike, on a 2-core Xeon.
_PIECE_COST = 3000.0


def _pieces(geom: LinkGeometry, wavelength: float, nodes: np.ndarray, s_count: int) -> list:
    """The pieces of the receive segment that H samples the reduced field on.

    G_m(r) = exp(-j kappa rho) F_m(r), F_m the tone field of
    :func:`wdmlink.em_field.tone_fields` and rho = ||r||, has a local
    bandwidth (Bucci & Franceschetti, IEEE TAP 1989; Miller, Appl. Opt.
    2000): in the far field its phase moves at most at kappa (L_s/2) d_x /
    rho^2 along the receive line, so over a piece of half-length h by at
    most omega = kappa L_s h d_x / (2 rho_min^2), and the piece starts at
    n = 2 omega + 24 samples (near the source omega is an overestimate).

    n samples cost the kernel at n S node pairs and an interpolation of
    n R_i entries, R and S the receive and transmit node counts and R_i
    the piece's share of R.  The segment is one piece while n (R + S) <
    R S, the direct sum's pairs; elsewhere it is halved, and the halves
    halved again, into the pieces of least sum n_i (S + R_i) +
    _PIECE_COST.  Only the segment itself is built from d_z and L_r / 2,
    so one piece keeps the bits of one sampling over the segment.
    """
    r_count, top = nodes.size, (geom.d_z, geom.L_r / 2.0)

    def cheapest(centre: float, half: float) -> tuple[list, float]:
        gap = max(0.0, abs(centre) - half)  # height of the piece's nearest point
        omega = math.pi * geom.L_s * (2.0 * half) * geom.d_x / (
            2.0 * wavelength * (geom.d_x**2 + gap**2)
        )
        n, r, whole = math.ceil(2.0 * omega) + 24, r_count * half / top[1], half == top[1]
        own = ([(centre, half, n)], n * (s_count + r) + _PIECE_COST)
        if whole:  # one piece while n (R + S) < R S
            stop = n * (r_count + s_count) < r_count * s_count
        else:  # no split can cost less: each part has n > 24
            stop = own[1] <= 24.0 * (2.0 * s_count + r) + 2.0 * _PIECE_COST
        if stop:
            return own
        left, right = (cheapest(centre + d, half / 2.0) for d in (-half / 2.0, half / 2.0))
        split = (left[0] + right[0], left[1] + right[1])
        return split if whole or split[1] < own[1] else own

    pieces = cheapest(*top)[0]
    # every receive node interpolates from the piece it lies in
    bounds = [0, *(bisect.bisect_left(nodes, c - h) for c, h, _ in pieces[1:]), r_count]
    return [_Piece(*p, slice(a, b)) for p, a, b in zip(pieces, bounds, bounds[1:])]


class ReceiveProjection:
    """The receive half of H: the (n_i, N) transpose of one block M_i per piece.

    H = sum_i M_i G_i, G_i the reduced fields at n_i Chebyshev points of
    piece i (:func:`_pieces`, :func:`_reduced_fields`) and M_i = Psi_i^H
    W_i diag(exp(j kappa rho)) V_i over the piece's receive nodes: V_i
    interpolates (barycentric form), W_i weighs and Psi_i^H projects onto
    the receive tones.  None of it depends on the source orientation, and
    neither do the weighted transmit tones ``tx_tones`` that G_i is summed
    against, so a projection serves every orientation of one receive
    segment: every geometry whose first four fields equal those of
    ``geom``, the one it was built for, with the same ``cfg``.
    """

    def __init__(self, geom: LinkGeometry, cfg: WdmConfig) -> None:
        check_mode_count(geom, cfg)
        self.geom, self.cfg = geom, cfg
        self.kappas = em_field._kappas(cfg.n_modes, geom.L_s)
        half = geom.L_r / 2.0
        self.nodes, self.weights = composite_gauss_nodes(
            geom.d_z - half, geom.d_z + half, cfg.wavelength / 2.0, cfg.quadrature
        )
        self.s_rule = em_field._transmit_rule(geom, cfg.wavelength, cfg.quadrature)
        self.tx_tones = em_field._weighted_tones(geom, self.s_rule, self.kappas)
        self.pieces = _pieces(geom, cfg.wavelength, self.nodes, self.s_rule[0].size)
        self._blocks: dict[tuple[int, int], np.ndarray] = {}

    def block(self, i: int, n: int, keep: bool) -> np.ndarray:
        """M_i^T for n samples, over blocks of at most _BLOCK_PAIRS entries; kept if ``keep``."""
        if (i, n) in self._blocks:
            return self._blocks[i, n]
        geom, cfg = self.geom, self.cfg
        piece = self.pieces[i]
        angles, points = _chebyshev_points(piece.centre, piece.half, n)
        bary = np.sin(angles)
        bary[1::2] *= -1.0  # barycentric weights (-1)^j sin(theta_j)
        rx_cycles, n_modes = self.kappas / (-2.0 * math.pi), self.kappas.size
        m_t = np.zeros((n, n_modes), dtype=complex)
        step = max(1, em_field._BLOCK_PAIRS // max(n, n_modes))
        for start in range(piece.rows.start, piece.rows.stop, step):
            rows = slice(start, min(start + step, piece.rows.stop))
            r = self.nodes[rows]
            # the weighted conjugate receive tones times exp(j kappa rho),
            # (rows, N), written over their phases in cycles
            cycles = (np.hypot(geom.d_x, r) / cfg.wavelength)[:, None] + np.outer(r, rx_cycles)
            tones = np.empty(cycles.shape, dtype=complex)
            em_field._phasor_into(tones, cycles, np.repeat(self.weights[rows, None], n_modes, 1))
            del cycles
            m_t += _interpolation(r, points, bary).T @ tones
        if keep:
            self._blocks[i, n] = m_t
        return m_t


def _interpolation(x: np.ndarray, points: np.ndarray, bary: np.ndarray) -> np.ndarray:
    """(len(x), n) values at x of the Lagrange basis on ``points`` (barycentric form).

    The values are real, held as complex: M's product then runs on
    BLAS's complex kernels alone, as the rest of H does, where a real
    product would page in the real ones (~0.25 MB of resident code) for
    this one use.
    """
    basis = np.zeros((x.size, points.size), dtype=complex)
    values = basis.real
    np.subtract(x[:, None], points, out=values)
    # at x on a point the basis is that point's unit vector: a difference
    # of the smallest normal float gives it to rounding (|bary| <= 1, so
    # nothing overflows)
    values[values == 0.0] = np.finfo(float).tiny
    np.divide(bary, values, out=values)
    values /= values.sum(axis=1, keepdims=True)
    return basis


def _reduced_fields(
    geoms: Sequence[LinkGeometry],
    wavelength: float,
    piece: _Piece,
    s_nodes: np.ndarray,
    tx_tones: np.ndarray,
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Reduced tone fields of each orientation at n first-kind Chebyshev points of a piece.

    Each orientation's n starts at the piece's start count (:func:`_pieces`)
    and doubles until its last _TAIL_TERMS Chebyshev coefficients pass
    _TAIL_TOL.  Orientations are sampled in stacks of at most
    ``em_field._BLOCK_PAIRS`` entries.  Yields (n, indices, samples,
    tails): the indices into ``geoms`` of the orientations that passed at
    n, their (len(indices), n, N) samples and their tails, the largest of
    those coefficients over the samples' largest real or imaginary part.
    """
    pending, n = np.arange(len(geoms)), piece.start
    while pending.size:
        angles, points = _chebyshev_points(piece.centre, piece.half, n)
        # coefficient k of the Chebyshev series is (2 / n) sum_j cos(k theta_j) G(x_j)
        cosines = np.cos(np.outer(np.arange(n - _TAIL_TERMS, n), angles))
        stack = max(1, em_field._BLOCK_PAIRS // (n * tx_tones.shape[1]))
        failed = []
        for first in range(0, pending.size, stack):
            chunk = pending[first : first + stack]
            oriented = [geoms[k] for k in chunk]
            samples = em_field._tone_sums(oriented, wavelength, points, s_nodes, tx_tones, True)
            coeffs = cosines @ samples
            # the largest real or imaginary part, within sqrt(2) of max |G|
            # and, unlike np.abs, with no (n, N) temporary
            parts = samples.view(float)
            scale = np.maximum(parts.max(axis=(1, 2)), -parts.min(axis=(1, 2)))
            top = 2.0 / n * np.abs(coeffs).max(axis=(1, 2))
            passed = top <= _TAIL_TOL * scale
            if passed.any():
                tails = np.divide(top, scale, out=np.zeros_like(top), where=scale > 0.0)
                yield n, chunk[passed], samples if passed.all() else samples[passed], tails[passed]
            failed.append(chunk[~passed])
            del samples, coeffs  # before the next stack is evaluated
        pending = np.concatenate(failed)
        n *= 2


def _direct_H(geom: LinkGeometry, cfg: WdmConfig, projection: ReceiveProjection) -> np.ndarray:
    """H as the direct tensor-product sum over every receive and transmit node pair.

    Only the reference of :func:`H_against_direct_sum`.  Each kernel
    block of receive nodes meets its weighted receive tones in an (N, S)
    sum over the s-nodes, which meets the weighted transmit tones once.
    """
    rx_cycles = -projection.kappas / (2.0 * math.pi)
    s_nodes = projection.s_rule[0]
    rx_kern = np.zeros((cfg.n_modes, s_nodes.size), dtype=complex)
    for rows, _, kern in em_field._kernel_blocks([geom], cfg.wavelength, projection.nodes, s_nodes):
        r = projection.nodes[rows]
        # the block's weighted conjugate receive tones, exp(-j kappa_n r_z) w_r
        rx = np.empty((cfg.n_modes, r.size), dtype=complex)
        weights = np.repeat(projection.weights[None, rows], cfg.n_modes, 0)
        em_field._phasor_into(rx, np.outer(rx_cycles, r), weights)
        rx_kern += rx @ kern[0]
    return rx_kern @ projection.tx_tones


def _form_H(
    geoms: Sequence[LinkGeometry], cfg: WdmConfig, projection: ReceiveProjection, keep: bool
) -> tuple[np.ndarray, list, np.ndarray]:
    """H = sum_i M_i G_i of each orientation, the sample counts of its pieces and its largest tail.

    Returns the (len(geoms), N, N) stack, one list of per-piece sample
    counts per orientation and their largest tails.  Pieces are sampled
    one at a time, so only one stack of samples and, without
    ``keep``, one block of M are held at once: at full scale a 12 m
    receive segment peaks within ~0.12 MB of a 3 m one.
    """
    s_nodes = projection.s_rule[0]
    em_field._near_field_guard(geoms, cfg.wavelength, projection.nodes, s_nodes, stacklevel=4)
    H = np.empty((len(geoms), cfg.n_modes, cfg.n_modes), dtype=complex)
    sizes, tails = [[] for _ in geoms], np.zeros(len(geoms))
    for i, piece in enumerate(projection.pieces):
        block = None
        fields = _reduced_fields(geoms, cfg.wavelength, piece, s_nodes, projection.tx_tones)
        for n, members, samples, piece_tails in fields:
            if block is None or block.shape[0] != n:
                block = projection.block(i, n, keep)
            product = block.T @ samples
            if i == 0:
                H[members] = product
            else:
                H[members] += product
            del samples, product  # before the next stack is sampled
            for k in members:
                sizes[k].append(n)
            tails[members] = np.maximum(tails[members], piece_tails)
    return H, sizes, tails


def assemble_H(
    geom: Union[LinkGeometry, Sequence[LinkGeometry]],
    cfg: WdmConfig,
    projection: Optional[ReceiveProjection] = None,
) -> np.ndarray:
    """Mode coupling matrix of the link, or a stack of them.

    H[n, m] couples transmit tone m to receive tone n: it is receive
    tone n projected onto the field that tone m radiates along the
    receive segment (:func:`wdmlink.em_field.tone_fields`).  Both
    integration axes oscillate at a rate of at most 2 kappa (propagation
    phase plus tone), so both composite rules are sized with half a
    wavelength as the oscillation period.  H is sum_i M_i G_i from the
    reduced field at Chebyshev points of each piece of the receive
    segment (:func:`_reduced_fields`, :class:`ReceiveProjection`).

    Args:
        geom: One geometry, or a nonempty sequence of geometries that
            differ only in orientation, evaluated as one stack.
        projection: The receive segment's projection, built here if not
            given; a sweep passes one for all orientations of a segment.

    Returns:
        Complex array (N, N), row index = receive tone; (len(geom), N, N)
        for a sequence.

    Raises:
        ValueError: If ``projection`` serves another receive segment, or
            the geometries differ in more than orientation.

    Warns:
        NearFieldWarning: If the segments come within ten wavelengths,
            once per geometry that does, in order.
    """
    single = isinstance(geom, LinkGeometry)
    geoms = [geom] if single else list(geom)
    keep = projection is not None  # a projection built here serves this H alone
    if not keep:
        projection = ReceiveProjection(geoms[0], cfg)
    # g[:4] is (L_s, L_r, d_x, d_z), the fields of the receive segment
    if projection.cfg != cfg or any(g[:4] != projection.geom[:4] for g in geoms):
        raise ValueError("the projection was built for another receive segment or config")
    H = _form_H(geoms, cfg, projection, keep)[0]
    return H[0] if single else H


def H_against_direct_sum(
    geom: LinkGeometry, cfg: WdmConfig
) -> tuple[np.ndarray, np.ndarray, list, float]:
    """:func:`assemble_H`'s H next to the direct sum over every node pair.

    Returns H, the direct sum, the number of reduced-field samples on
    each piece of the receive segment, and their largest Chebyshev tail
    (the largest of the last coefficients over the largest sample).

    Warns:
        NearFieldWarning: As :func:`assemble_H`.
    """
    projection = ReceiveProjection(geom, cfg)
    H, sizes, tails = _form_H([geom], cfg, projection, keep=False)
    return H[0], _direct_H(geom, cfg, projection), sizes[0], float(tails[0])


def assemble_R(geom: LinkGeometry, cfg: WdmConfig) -> np.ndarray:
    """Interference correlation matrix between receive tones.

    On the centred segment of length L = L_r, with K(t) = sinc(2 t / lambda)
    and Delta = kappa_m - kappa_n, integrating over r at fixed lag t gives
    R(0) = P + P^H with

        P[n, m] = int_0^L K(t) exp(j kappa_m t) I_nm(t) dt,
        I_nm(t) = (exp(j Delta (L/2 - t)) - exp(-j Delta L/2)) / (j Delta),

    and I_nn(t) = L - t.  The t-dependence of I_nm cancels against
    exp(j kappa_m t), so with the tone transforms g_n = int K(t)
    exp(j kappa_n t) dt and h_n = int t K(t) exp(j kappa_n t) dt,

        P[n, m] = (exp(j Delta L/2) g_n - exp(-j Delta L/2) g_m) / (j Delta),
        P[n, n] = L g_n - h_n.

    With k = 2 pi / lambda, a = k + kappa_n, b = k - kappa_n (both >= 0),
    Si and Cin from :func:`_si_cin` and E(c) = int_0^L exp(j c t) dt =
    L exp(j c L/2) sinc(c L / 2 pi), which is exact at c = 0,

        g_n = (Cin(b L) - Cin(a L) + j (Si(a L) + Si(b L))) / (2 j k),
        h_n = (E(a) - E(-b)) / (2 j k).

    Then R = D^H R(0) D (``_dz_phase``), symmetrized to (R + R^H) / 2
    against rounding.  No quadrature rule enters R.

    Returns:
        Complex Hermitian PSD array (N, N).
    """
    check_mode_count(geom, cfg)
    L = geom.L_r
    k = 2.0 * math.pi / cfg.wavelength
    kappas = em_field._kappas(cfg.n_modes, geom.L_s)
    n = cfg.n_modes
    si, cin = _si_cin(np.concatenate((k + kappas, k - kappas)) * L)
    g = (cin[n:] - cin[:n] + 1j * (si[:n] + si[n:])) / (2j * k)
    c = np.concatenate((k + kappas, kappas - k))  # a, then -b
    e = np.empty(2 * n, dtype=complex)
    em_field._phasor_into(e, c * (L / (4.0 * math.pi)), L * np.sinc(c * (L / (2.0 * math.pi))))
    h = (e[:n] - e[n:]) / (2j * k)
    delta = kappas[None, :] - kappas[:, None]
    half = np.empty((n, n), dtype=complex)
    em_field._phasor_into(half, L * delta / (4.0 * math.pi), np.ones((n, n)))
    # the identity only keeps the diagonal finite; it is overwritten next
    P = (half * g[:, None] - half.conj() * g[None, :]) / (
        1j * (delta + np.eye(n))
    )
    np.fill_diagonal(P, L * g - h)
    phase = _dz_phase(geom, cfg)
    R = (P + P.conj().T) * np.outer(phase.conj(), phase)
    return 0.5 * (R + R.conj().T)


def _dz_phase(geom: LinkGeometry, cfg: WdmConfig) -> np.ndarray:
    """exp(j kappa_n d_z), the diagonal of D in R(d_z) = D^H R(0) D."""
    kappas = em_field._kappas(cfg.n_modes, geom.L_s)
    return em_field._phasor(kappas * (geom.d_z / (2.0 * math.pi)))


def stack_size(cfg: WdmConfig) -> int:
    """Most geometries a sweep assembles, whitens and evaluates as one stack.

    Every (B, N, N) array of a stack then stays within
    ``em_field._BLOCK_PAIRS`` entries, the 128 KiB under which glibc
    reuses its heap instead of mapping memory afresh; at least one.
    """
    return max(1, em_field._BLOCK_PAIRS // cfg.n_modes**2)


def noise_factor(geom: LinkGeometry, cfg: WdmConfig) -> np.ndarray:
    """Lower Cholesky factor L0 of C = sigma2_emi R + sigma2_hdw I at d_z = 0.

    Beyond the d_z congruence R depends on the geometry only through L_s
    and L_r, so one L0 serves every point of a sweep (:func:`whiten`).

    Raises:
        numpy.linalg.LinAlgError: If C is not positive definite; the
            message reports the smallest eigenvalue.
    """
    R = assemble_R(replace(geom, d_z=0.0), cfg)
    C = cfg.sigma2_emi * R + cfg.sigma2_hdw * np.eye(R.shape[0])
    try:
        return np.linalg.cholesky(C)
    except np.linalg.LinAlgError:
        smallest = float(np.linalg.eigvalsh(C)[0])
        raise np.linalg.LinAlgError(
            f"noise covariance is not positive definite "
            f"(smallest eigenvalue {smallest:.6e})"
        ) from None


def whiten(H: np.ndarray, geom: LinkGeometry, cfg: WdmConfig, L0: np.ndarray) -> np.ndarray:
    """Whitened channel L0^{-1} (D H) of ``geom``, L0 from :func:`noise_factor`.

    The factor of C at d_z is D^H L0 D, so this is D L^{-1} H, and no
    receiver's SE sees the unit diagonal on the left.  ``H`` is one
    (N, N) matrix or a (B, N, N) stack of one receive segment's
    orientations, which share ``geom.d_z``; a linear solve with L0, no
    explicit inverse.
    """
    return np.linalg.solve(L0, _dz_phase(geom, cfg)[:, None] * H)


def save_channel_dump(
    path: str, geom: LinkGeometry, cfg: WdmConfig, H: np.ndarray, R: np.ndarray
) -> None:
    """Write ``H`` and ``R`` with their header to ``path`` as an npz archive.

    The header is :func:`wdmlink.cache.channel_header`.  The archive
    replaces ``path`` only once complete
    (:func:`wdmlink.cache.replacing`), and equal inputs give equal bytes.
    """
    header = channel_header(geom, cfg)
    # a file handle keeps np.savez from appending ".npz" to the name
    with replacing(path) as out:
        np.savez(out, header=np.array(header), H=H, R=R)

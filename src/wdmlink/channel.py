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
:mod:`wdmlink.quadrature`.  It is formed as H = M G: G holds the reduced
fields G_m = exp(-j kappa rho) F_m, rho the distance from the source
centre, at the few first-kind Chebyshev points of the receive segment
that fix them to rounding (:func:`_reduced_field`), and M =
Psi^H W diag(exp(j kappa rho)) V interpolates them onto the receive
nodes, weighs them and projects them onto the receive tones
(:class:`ReceiveProjection`).  M does not depend on the source
orientation, so a sweep builds it once per receive segment.  Near the
source, where G needs so many samples that G and a fresh M would cost
as much as the direct sum over every node pair (:func:`_form_H`), H
is that sum instead (:func:`_direct_H`), contracted one kernel block
of receive nodes at a time.  Both forms
build their arrays over blocks of at most ``em_field._BLOCK_PAIRS``
entries, so memory does not grow with L_r beyond the nodes and the
samples, and both see the near-field guard over the node set
(:func:`wdmlink.em_field._near_field_guard`).

The R kernel depends only on the lag t = r' - r, and its lag integrals
over the centred segment have closed forms in the sine and cosine
integrals Si and Cin (see :func:`assemble_R`), so R needs no
quadrature rule and holds no array over the segment; the d_z
congruence R -> D^H R D, D = diag(exp(j kappa_n d_z)), moves it onto
the shifted segment.  Reductions run in a fixed order, so repeated runs
are bit-identical.

Ambient electromagnetic interference reaching the receive segment is
isotropic with spatial correlation sinc(2 ||r' - r|| / lambda), variance
sigma2_emi; hardware noise adds a white sigma2_hdw on top.  ``whiten``
factors C = sigma2_emi R + sigma2_hdw I = L L^H and returns
H_tilde = L^{-1} H for the receiver stage; a sweep factors C once
(:func:`noise_factor`) and whitens each point as L0^{-1} (D H) instead.

A channel dump (:func:`save_channel_dump`) is an npz archive of the
``header`` string and ``H`` and ``R``.  A sweep's cache entry is text
and needs no numpy (:mod:`wdmlink.cache`); its writer and reader are
importable from here as :func:`save_channel_set` and
:func:`load_matching_channel_set`.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from . import em_field
from .cache import channel_header, replacing
# the cache entry writer and reader, which perfbench/layers.py traces
# under these names
from .cache import load_matching_channel_set, save_channel_set
from .config import WdmConfig, max_modes
from .geometry import LinkGeometry, replace
from .quadrature import composite_gauss_nodes

__all__ = [
    "ReceiveProjection",
    "H_against_direct_sum",
    "assemble_H",
    "assemble_R",
    "whiten",
    "noise_factor",
    "white_channel",
    "save_channel_dump",
    "save_channel_set",
    "load_matching_channel_set",
]

def _mode_frequencies(cfg: WdmConfig, geom: LinkGeometry) -> np.ndarray:
    """kappa_n of :func:`wdmlink.em_field.spatial_frequency` for n = 1..N, as one array.

    The same two roundings as there, so the same bits.
    """
    n = cfg.n_modes
    return 2.0 * math.pi / geom.L_s * (np.arange(1, n + 1) - (n + 1) / 2.0)


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


def _validate_mode_count(geom: LinkGeometry, cfg: WdmConfig) -> None:
    n_max = max_modes(geom.L_s, cfg.wavelength)
    if cfg.n_modes > n_max:
        raise ValueError(
            f"n_modes = {cfg.n_modes} exceeds the usable maximum {n_max} "
            f"for L_s = {geom.L_s} m at wavelength {cfg.wavelength} m"
        )


# The reduced field passes at n samples once its last _TAIL_TERMS
# Chebyshev coefficients are within _TAIL_TOL of its largest sample.  Its
# rounding floor is ~1e-14 of that (the reduced kernel's phase is good to
# rounding of ~L_s, not of the distance), and H then differs from the
# direct sum by its own rounding, ~2e-13 relative at 500 wavelengths.
_TAIL_TERMS = 8
_TAIL_TOL = 1e-13


def _chebyshev_points(geom: LinkGeometry, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Angles theta_j = (2 j + 1) pi / (2 n) and the first-kind Chebyshev
    points d_z + (L_r / 2) cos(theta_j) of the receive segment, j < n."""
    angles = (2.0 * np.arange(n) + 1.0) * (math.pi / (2.0 * n))
    return angles, geom.d_z + 0.5 * geom.L_r * np.cos(angles)


class ReceiveProjection:
    """The receive half of H: the (n, N) transpose of M = Psi^H W diag(exp(j kappa rho)) V.

    H = M G, G the (n, N) reduced fields exp(-j kappa rho) F_m at n
    first-kind Chebyshev points of the receive segment
    (:func:`_reduced_field`), rho = ||r|| the distance from the source
    centre.  V interpolates those samples onto the composite rule's
    receive nodes (barycentric form), W weighs them and Psi^H projects
    onto the receive tones.  None of this depends on the source
    orientation, so one projection serves every orientation of one
    receive segment (L_s, L_r, d_x, d_z and the config alike); it keeps
    the receive rule's nodes and weights and builds M for each n asked of
    it once.
    """

    def __init__(self, geom: LinkGeometry, cfg: WdmConfig) -> None:
        self._key = (replace(geom, theta_s=0.0, phi_s=0.0), cfg)
        self.kappas = _mode_frequencies(cfg, geom)
        half = geom.L_r / 2.0
        self.nodes, self.weights = composite_gauss_nodes(
            geom.d_z - half, geom.d_z + half, cfg.wavelength / 2.0, cfg.quadrature
        )
        self._matrices: dict[int, np.ndarray] = {}

    def serves(self, geom: LinkGeometry, cfg: WdmConfig) -> bool:
        """Whether the geometry differs from this one's at most in orientation."""
        return self._key == (replace(geom, theta_s=0.0, phi_s=0.0), cfg)

    def matrix(self, n: int) -> np.ndarray:
        """M^T for n samples, built once, over blocks of at most _BLOCK_PAIRS entries."""
        if n in self._matrices:
            return self._matrices[n]
        geom, cfg = self._key
        angles, points = _chebyshev_points(geom, n)
        bary = np.sin(angles)
        bary[1::2] *= -1.0  # barycentric weights (-1)^j sin(theta_j)
        rx_cycles = self.kappas / (-2.0 * math.pi)
        m_t = np.zeros((n, self.kappas.size), dtype=complex)
        step = max(1, em_field._BLOCK_PAIRS // max(n, self.kappas.size))
        for start in range(0, self.nodes.size, step):
            rows = slice(start, start + step)
            r = self.nodes[rows]
            # the weighted conjugate receive tones times exp(j kappa rho), (rows, N)
            cycles = (np.hypot(geom.d_x, r) / cfg.wavelength)[:, None] + np.outer(r, rx_cycles)
            tones = em_field._phasor(cycles, self.weights[rows, None])
            m_t += _interpolation(r, points, bary).T @ tones
        self._matrices[n] = m_t
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


def _reduced_field(
    geom: LinkGeometry,
    cfg: WdmConfig,
    kappas: np.ndarray,
    s_rule: tuple[np.ndarray, np.ndarray],
    limit: int,
) -> tuple[Optional[np.ndarray], float]:
    """Reduced tone fields at n first-kind Chebyshev points, or None from n = limit up.

    G_m(r) = exp(-j kappa rho) F_m(r), F_m the tone field of
    :func:`wdmlink.em_field.tone_fields`, is band-limited (Bucci &
    Franceschetti, IEEE TAP 1989; Miller, Appl. Opt. 2000): in the far
    field its phase moves along the receive line at most at kappa (L_s/2)
    |d r_hat / dr| = kappa (L_s/2) d_x / rho^2, so over the half-length
    L_r/2 of the segment by at most omega = kappa L_s L_r d_x / (4
    rho_min^2).  n starts at 2 omega + 24, which the far field needs, and
    doubles until the last _TAIL_TERMS Chebyshev coefficients pass
    _TAIL_TOL; near the source omega is an overestimate that sends the
    point to the direct sum at once.  Returns the (n, N) samples, or None
    once n reaches ``limit``, and the last tail: its largest coefficient
    over the samples' largest real or imaginary part (inf if no n was
    tried).  The weighted transmit tones on ``s_rule`` are formed only
    if an n is tried.
    """
    gap = max(0.0, abs(geom.d_z) - geom.L_r / 2.0)  # height of the segment's nearest point
    omega = math.pi * geom.L_s * geom.L_r * geom.d_x / (
        2.0 * cfg.wavelength * (geom.d_x**2 + gap**2)
    )
    n = math.ceil(2.0 * omega) + 24
    if n >= limit:
        return None, math.inf
    s_nodes, tx_tones = s_rule[0], em_field._weighted_tones(geom, s_rule, kappas)
    while n < limit:
        angles, points = _chebyshev_points(geom, n)
        samples = em_field._tone_sums(geom, cfg.wavelength, points, s_nodes, tx_tones, True)
        # coefficient k of the Chebyshev series is (2 / n) sum_j cos(k theta_j) G(x_j)
        coeffs = np.cos(np.outer(np.arange(n - _TAIL_TERMS, n), angles)) @ samples
        # the largest real or imaginary part, within sqrt(2) of max |G|
        # and, unlike np.abs, with no (n, N) temporary
        parts = samples.view(float)
        scale = max(float(parts.max()), -float(parts.min()))
        top = 2.0 / n * float(np.max(np.abs(coeffs)))
        tail = top / scale if scale > 0.0 else 0.0
        if top <= _TAIL_TOL * scale:
            return samples, tail
        del samples  # before the next, larger set is evaluated
        n *= 2
    return None, tail


def _direct_H(
    geom: LinkGeometry,
    cfg: WdmConfig,
    projection: ReceiveProjection,
    s_rule: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """H as the direct tensor-product sum over the receive and transmit nodes.

    Each kernel block of receive nodes is contracted with its weighted
    receive tones into an (N, S) sum over the s-nodes, which meets the
    weighted transmit tones once.  Those are formed only then, after
    the kernel blocks are freed: at full scale with a 12 m receive
    segment that takes the traced peak from 0.80 to 0.70 MB.
    """
    rx_cycles = -projection.kappas / (2.0 * math.pi)
    rx_kern = np.zeros((cfg.n_modes, s_rule[0].size), dtype=complex)
    blocks = em_field._kernel_blocks(geom, cfg.wavelength, projection.nodes, s_rule[0])
    for rows, kern in blocks:
        # the block's weighted conjugate receive tones, exp(-j kappa_n r_z) w_r
        rx = em_field._phasor(
            np.outer(rx_cycles, projection.nodes[rows]), projection.weights[rows]
        )
        rx_kern += rx @ kern
    return rx_kern @ em_field._weighted_tones(geom, s_rule, projection.kappas)


def _form_H(
    geom: LinkGeometry, cfg: WdmConfig, projection: ReceiveProjection
) -> tuple[np.ndarray, Optional[int], float]:
    """H, and the n and tail of the reduced field it came from (n None for the direct sum).

    With R and S the receive and transmit node counts, G costs the kernel
    at n S node pairs and a fresh M an interpolation of n R entries and
    its product, against the kernel at the R S node pairs of the direct
    sum.  So H is M G only while n (R + S) < R S: n below 66 on the
    desk link and 150 on the full-scale one.  Per H with a fresh M, on a 2-core Xeon, M G took
    0.51 to 0.82 of the direct sum's time for n from 20 to 60 on desk
    and 0.39 to 0.73 for n from 62 to 140 at full scale, and first took
    longer at n ~ 1.1 S on both.  With M reused it took 0.3 to 0.4 (desk)
    and 0.06 to 0.13 (full scale).
    """
    s_rule = em_field._transmit_rule(geom, cfg.wavelength, cfg.quadrature)
    em_field._near_field_guard(geom, cfg.wavelength, projection.nodes, s_rule[0], stacklevel=4)
    r_count, s_count = projection.nodes.size, s_rule[0].size
    limit = r_count * s_count // (r_count + s_count)
    samples, tail = _reduced_field(geom, cfg, projection.kappas, s_rule, limit)
    if samples is None:
        return _direct_H(geom, cfg, projection, s_rule), None, tail
    n = samples.shape[0]
    return projection.matrix(n).T @ samples, n, tail


def assemble_H(
    geom: LinkGeometry, cfg: WdmConfig, projection: Optional[ReceiveProjection] = None
) -> np.ndarray:
    """Mode coupling matrix of the link.

    H[n, m] couples transmit tone m to receive tone n: it is receive
    tone n projected onto the field that tone m radiates along the
    receive segment (:func:`wdmlink.em_field.tone_fields`).  Both
    integration axes oscillate at a rate of at most 2 kappa (propagation
    phase plus tone), so both composite rules are sized with half a
    wavelength as the oscillation period.  H is M G from the reduced
    field at n Chebyshev points (:func:`_reduced_field`,
    :class:`ReceiveProjection`), or the direct sum over the node pairs
    (:func:`_direct_H`) where n samples would cost as much as the direct
    sum, as near the source (:func:`_form_H`).

    Args:
        projection: The receive segment's projection, built here if not
            given; a sweep passes one for all orientations of a segment.

    Returns:
        Complex array (N, N), row index = receive tone.

    Raises:
        ValueError: If ``projection`` serves another receive segment.

    Warns:
        NearFieldWarning: If the segments come within ten wavelengths.
    """
    _validate_mode_count(geom, cfg)
    if projection is None:
        projection = ReceiveProjection(geom, cfg)
    elif not projection.serves(geom, cfg):
        raise ValueError("the projection was built for another receive segment or config")
    return _form_H(geom, cfg, projection)[0]


def H_against_direct_sum(
    geom: LinkGeometry, cfg: WdmConfig
) -> tuple[np.ndarray, np.ndarray, Optional[int], float]:
    """:func:`assemble_H`'s H next to the direct sum over every node pair.

    Returns H, the direct sum, and the number n of reduced-field samples
    H came from and their Chebyshev tail (the largest of the last
    coefficients over the largest sample); n is None where H is the
    direct sum itself, and the tail is then inf if no n was tried.

    Warns:
        NearFieldWarning: As :func:`assemble_H`.
    """
    _validate_mode_count(geom, cfg)
    projection = ReceiveProjection(geom, cfg)
    H, n, tail = _form_H(geom, cfg, projection)
    s_rule = em_field._transmit_rule(geom, cfg.wavelength, cfg.quadrature)
    return H, _direct_H(geom, cfg, projection, s_rule), n, tail


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
    _validate_mode_count(geom, cfg)
    L = geom.L_r
    k = 2.0 * math.pi / cfg.wavelength
    kappas = _mode_frequencies(cfg, geom)
    n = cfg.n_modes
    si, cin = _si_cin(np.concatenate((k + kappas, k - kappas)) * L)
    g = (cin[n:] - cin[:n] + 1j * (si[:n] + si[n:])) / (2j * k)
    c = np.concatenate((k + kappas, kappas - k))  # a, then -b
    e = em_field._phasor(c * (L / (4.0 * math.pi)), L * np.sinc(c * (L / (2.0 * math.pi))))
    h = (e[:n] - e[n:]) / (2j * k)
    delta = kappas[None, :] - kappas[:, None]
    half = em_field._phasor(L * delta / (4.0 * math.pi))
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
    return em_field._phasor(_mode_frequencies(cfg, geom) * (geom.d_z / (2.0 * math.pi)))


def _factor_noise(R: np.ndarray, cfg: WdmConfig) -> tuple[np.ndarray, np.ndarray]:
    """C = sigma2_emi R + sigma2_hdw I and its lower Cholesky factor."""
    C = cfg.sigma2_emi * R + cfg.sigma2_hdw * np.eye(R.shape[0])
    try:
        return C, np.linalg.cholesky(C)
    except np.linalg.LinAlgError:
        smallest = float(np.linalg.eigvalsh(C)[0])
        raise np.linalg.LinAlgError(
            f"noise covariance is not positive definite "
            f"(smallest eigenvalue {smallest:.6e})"
        ) from None


def whiten(H: np.ndarray, R: np.ndarray, cfg: WdmConfig) -> tuple[np.ndarray, ...]:
    """Factor the noise covariance and whiten the channel.

    Args:
        H: Coupling matrix (N, N).
        R: Interference correlation (N, N), Hermitian.
        cfg: Noise variances.

    Returns:
        C = sigma2_emi R + sigma2_hdw I, its lower Cholesky factor L and
        H_tilde = L^{-1} H (a linear solve with L, no explicit inverse).

    Raises:
        numpy.linalg.LinAlgError: If C is not positive definite; the
            message reports the smallest eigenvalue.
    """
    H = np.asarray(H)
    R = np.asarray(R)
    if H.shape != R.shape or H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"H and R must be square and congruent, got {H.shape} and {R.shape}")
    C, L = _factor_noise(R, cfg)
    return C, L, np.linalg.solve(L, H)


def noise_factor(geom: LinkGeometry, cfg: WdmConfig) -> np.ndarray:
    """Lower Cholesky factor L0 of C at d_z = 0, raising as :func:`whiten`.

    Beyond the d_z congruence R depends on the geometry only through L_s
    and L_r, so one L0 serves every point of a sweep (:func:`white_channel`).
    """
    return _factor_noise(assemble_R(replace(geom, d_z=0.0), cfg), cfg)[1]


def white_channel(
    geom: LinkGeometry,
    cfg: WdmConfig,
    L0: np.ndarray,
    projection: Optional[ReceiveProjection] = None,
) -> np.ndarray:
    """Whitened channel L0^{-1} (D H) of the geometry, L0 from :func:`noise_factor`.

    The factor at d_z is D^H L0 D, so this is D times whiten's L^{-1} H,
    and no receiver's SE sees a unit diagonal on the left.  ``projection``
    goes to :func:`assemble_H`.
    """
    H = assemble_H(geom, cfg, projection)
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

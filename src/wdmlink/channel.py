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
int gz(r - s s_hat) phi_m(s) ds (:func:`wdmlink.em_field.tone_fields`)
onto the receive tones, a tensor-product composite Gauss-Legendre sum
on the node set of :mod:`wdmlink.quadrature`, contracted one kernel
block of receive nodes at a time, each block's receive tones from one
``_phasor`` of the (N, rows) phases, so its memory does not grow with
L_r beyond the nodes.  The R kernel depends only on the lag t = r' - r,
and its lag integrals over the centred segment have closed forms in the
sine and cosine integrals Si and Cin (see :func:`assemble_R`), so R
needs no quadrature rule and holds no array over the segment; the d_z
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
from dataclasses import replace

import numpy as np

from . import em_field
from .cache import channel_header, replacing
# the cache entry writer and reader, which perfbench/layers.py traces
# under these names
from .cache import load_matching_channel_set, save_channel_set
from .config import WdmConfig, max_modes
from .em_field import spatial_frequency
from .geometry import LinkGeometry
from .quadrature import composite_gauss_nodes

__all__ = [
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
    return np.array(
        [spatial_frequency(n, cfg.n_modes, geom.L_s) for n in range(1, cfg.n_modes + 1)]
    )


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


def assemble_H(geom: LinkGeometry, cfg: WdmConfig) -> np.ndarray:
    """Mode coupling matrix of the link.

    H[n, m] couples transmit tone m to receive tone n: it is receive
    tone n projected onto the field that tone m radiates along the
    receive segment (:func:`wdmlink.em_field.tone_fields`).  Both
    integration axes oscillate at a rate of at most 2 kappa (propagation
    phase plus tone), so both composite rules are sized with half a
    wavelength as the oscillation period.  Each kernel block of receive
    nodes is contracted with its weighted receive tones into an (N, S)
    sum over the s-nodes, which meets the weighted transmit tones once.

    Returns:
        Complex array (N, N), row index = receive tone.

    Warns:
        NearFieldWarning: If the segments come within ten wavelengths.
    """
    _validate_mode_count(geom, cfg)
    half = geom.L_r / 2.0
    r_nodes, r_weights = composite_gauss_nodes(
        geom.d_z - half, geom.d_z + half, cfg.wavelength / 2.0, cfg.quadrature
    )
    kappas = _mode_frequencies(cfg, geom)
    s_nodes, tx_tones = em_field._transmit_tones(geom, cfg.wavelength, kappas, cfg.quadrature)
    rx_cycles = -kappas / (2.0 * math.pi)
    rx_kern = np.zeros((cfg.n_modes, s_nodes.size), dtype=complex)
    blocks = em_field._kernel_blocks(geom, cfg.wavelength, r_nodes, s_nodes, stacklevel=3)
    for rows, kern in blocks:
        # the block's weighted conjugate receive tones, exp(-j kappa_n r_z) w_r
        rx = em_field._phasor(np.outer(rx_cycles, r_nodes[rows]), r_weights[rows])
        rx_kern += rx @ kern
    return rx_kern @ tx_tones


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


def white_channel(geom: LinkGeometry, cfg: WdmConfig, L0: np.ndarray) -> np.ndarray:
    """Whitened channel L0^{-1} (D H) of the geometry, L0 from :func:`noise_factor`.

    The factor at d_z is D^H L0 D, so this is D times whiten's L^{-1} H,
    and no receiver's SE sees a unit diagonal on the left.
    """
    return np.linalg.solve(L0, _dz_phase(geom, cfg)[:, None] * assemble_H(geom, cfg))


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

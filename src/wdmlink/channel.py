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
on the node set of :mod:`wdmlink.quadrature`.  The R kernel depends
only on the lag t = r' - r, so R is one composite sum over the lag on
the centred segment, phased by the d_z congruence R -> D^H R D,
D = diag(exp(j kappa_n d_z)), which is performance-neutral (see
:func:`assemble_R`).  The tones exp(j kappa_n x) on the receive and lag
nodes come from one recurrence over the equally spaced kappa_n
(``_tone_table``), not from N complex exponentials per node.
Reductions run in a fixed order, so repeated runs are bit-identical.

Ambient electromagnetic interference reaching the receive segment is
isotropic with spatial correlation sinc(2 ||r' - r|| / lambda), variance
sigma2_emi; hardware noise adds a white sigma2_hdw on top.  ``whiten``
factors C = sigma2_emi R + sigma2_hdw I = L L^H and returns
H_tilde = L^{-1} H for the receiver stage.

A channel file (:func:`save_channel_set`) is an npz archive:
``np.load(path)`` gives the canonical ``header`` string, ``H`` and ``R``.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
from dataclasses import dataclass, fields

import numpy as np

from . import em_field
from .em_field import EmConstants, spatial_frequency
from .geometry import LinkGeometry
from .quadrature import QuadratureSpec, composite_gauss_nodes

__all__ = [
    "WdmConfig",
    "ChannelSet",
    "max_modes",
    "spatial_frequency",
    "assemble_H",
    "assemble_R",
    "whiten",
    "assemble_channel_set",
    "total_power",
    "emi_variance",
    "channel_header",
    "save_channel_set",
    "load_matching_channel_set",
]

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
    """

    wavelength: float
    n_modes: int
    source_power: float = 1e-7
    sigma2_emi: float = 1.0
    sigma2_hdw: float = 0.0
    quadrature: QuadratureSpec = QuadratureSpec()

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


@dataclass(frozen=True)
class ChannelSet:
    """Matrices describing one link realization.

    Attributes:
        H: Mode coupling matrix (N, N).
        R: Interference correlation matrix (N, N), Hermitian PSD.
        C: Noise covariance sigma2_emi R + sigma2_hdw I.
        L: Lower Cholesky factor of C.
        H_tilde: Whitened channel L^{-1} H.
    """

    H: np.ndarray
    R: np.ndarray
    C: np.ndarray
    L: np.ndarray
    H_tilde: np.ndarray


def max_modes(L_s: float, wavelength: float) -> int:
    """Largest usable mode count, 2 * floor(L_s / wavelength) + 1."""
    if not L_s > 0.0:
        raise ValueError(f"L_s must be positive, got {L_s}")
    if not wavelength > 0.0:
        raise ValueError(f"wavelength must be positive, got {wavelength}")
    return 2 * math.floor(L_s / wavelength) + 1


def _mode_frequencies(cfg: WdmConfig, geom: LinkGeometry) -> np.ndarray:
    return np.array(
        [spatial_frequency(n, cfg.n_modes, geom.L_s) for n in range(1, cfg.n_modes + 1)]
    )


def _tone_table(x: np.ndarray, n_modes: int, L_s: float) -> np.ndarray:
    """Tones exp(j kappa_n x) of all N modes, array (N, x.size).

    The wavenumbers step by 2 pi / L_s and are symmetric about zero.  From
    the middle row (kappa = 0 for odd N, pi / L_s for even N) each row up is
    the one below times exp(2 pi j x / L_s), and the rows below the middle
    are the conjugates of those above: two phasors, about N/2 products
    and no complex exponential.  Each product adds about one rounding of
    the step phase, so the error of the outermost rows grows with N/2 and
    |x| / L_s (about 2e-13 at full scale for |x| up to 3.5 m, against
    3.6e-13 for np.exp of kappa_n x).
    """
    x = np.asarray(x, dtype=float)
    table = np.empty((n_modes, x.size), dtype=complex)
    mid = n_modes // 2  # first row with kappa_n >= 0
    table[mid] = em_field._phasor(x * ((mid + 1 - (n_modes + 1) / 2.0) / L_s))
    step = em_field._phasor(x / L_s)
    for n in range(mid + 1, n_modes):
        np.multiply(table[n - 1], step, out=table[n])
    np.conj(table[n_modes - 1 : n_modes - 1 - mid : -1], out=table[:mid])
    return table


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
    wavelength as the oscillation period.

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
    fields = em_field.tone_fields(
        geom, EmConstants(cfg.wavelength), r_nodes, kappas, cfg.quadrature
    )
    # the conjugate receive tones, exp(-j kappa_n r_z)
    rx_conj = _tone_table(-r_nodes, cfg.n_modes, geom.L_s)
    return (rx_conj * r_weights) @ fields


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

    g and h are composite Gauss-Legendre sums on [0, L_r] with the node
    count of one H axis (kernel plus tone oscillate with period lambda/2).
    Then R = D^H R(0) D, symmetrized to (R + R^H) / 2 against rounding.

    Returns:
        Complex Hermitian PSD array (N, N).
    """
    _validate_mode_count(geom, cfg)
    L = geom.L_r
    t, w = composite_gauss_nodes(0.0, L, cfg.wavelength / 2.0, cfg.quadrature)
    kappas = _mode_frequencies(cfg, geom)
    wk = w * np.sinc(2.0 * t / cfg.wavelength)
    g, h = np.stack([wk, wk * t]) @ _tone_table(t, cfg.n_modes, geom.L_s).T
    delta = kappas[None, :] - kappas[:, None]
    half = em_field._phasor(L * delta / (4.0 * math.pi))
    # the identity only keeps the diagonal finite; it is overwritten next
    P = (half * g[:, None] - half.conj() * g[None, :]) / (
        1j * (delta + np.eye(cfg.n_modes))
    )
    np.fill_diagonal(P, L * g - h)
    phase = em_field._phasor(kappas * (geom.d_z / (2.0 * math.pi)))
    R = (P + P.conj().T) * np.outer(phase.conj(), phase)
    return 0.5 * (R + R.conj().T)


def whiten(H: np.ndarray, R: np.ndarray, cfg: WdmConfig) -> ChannelSet:
    """Factor the noise covariance and whiten the channel.

    Args:
        H: Coupling matrix (N, N).
        R: Interference correlation (N, N), Hermitian.
        cfg: Noise variances.

    Returns:
        ChannelSet with C = sigma2_emi R + sigma2_hdw I, its lower
        Cholesky factor L and H_tilde = L^{-1} H (a linear solve with L,
        no explicit inverse).

    Raises:
        numpy.linalg.LinAlgError: If C is not positive definite; the
            message reports the smallest eigenvalue.
    """
    H = np.asarray(H)
    R = np.asarray(R)
    if H.shape != R.shape or H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"H and R must be square and congruent, got {H.shape} and {R.shape}")
    C = cfg.sigma2_emi * R + cfg.sigma2_hdw * np.eye(H.shape[0])
    try:
        L = np.linalg.cholesky(C)
    except np.linalg.LinAlgError:
        smallest = float(np.linalg.eigvalsh(C)[0])
        raise np.linalg.LinAlgError(
            f"noise covariance is not positive definite "
            f"(smallest eigenvalue {smallest:.6e})"
        ) from None
    H_tilde = np.linalg.solve(L, H)
    return ChannelSet(H=H, R=R, C=C, L=L, H_tilde=H_tilde)


def assemble_channel_set(geom: LinkGeometry, cfg: WdmConfig) -> ChannelSet:
    """Assemble H and R for the geometry and whiten in one step."""
    return whiten(assemble_H(geom, cfg), assemble_R(geom, cfg), cfg)


def total_power(cfg: WdmConfig) -> float:
    """Transmit power budget P = (kappa * Z0)^2 * P_s [V^2/m^2]."""
    k = EmConstants(cfg.wavelength)
    return (k.kappa * k.z0) ** 2 * cfg.source_power


def emi_variance(power: float, snr_db: float) -> float:
    """Interference variance giving the ratio power/sigma2_emi in dB."""
    if not power > 0.0:
        raise ValueError(f"power must be positive, got {power}")
    return power / 10.0 ** (snr_db / 10.0)


# ---------------------------------------------------------------------------
# Channel files: an npz archive of the header string, H and R.  C, L and
# H_tilde follow from R and the config, so loading re-runs ``whiten``.

_FORMAT_TAG = "wdmlink-channel-set v2"


def channel_header(geom: LinkGeometry, cfg: WdmConfig) -> str:
    """Canonical header describing one (geometry, config) pair.

    Stored verbatim in channel files and hashed for cache file names; two
    runs produce the same header exactly when every parameter matches.
    """
    lines = [_FORMAT_TAG]
    for f in fields(geom):
        lines.append(f"geometry.{f.name} = {getattr(geom, f.name)!r}")
    for f in fields(cfg):
        if f.name == "quadrature":
            continue
        lines.append(f"wdm.{f.name} = {getattr(cfg, f.name)!r}")
    for f in fields(cfg.quadrature):
        lines.append(f"quadrature.{f.name} = {getattr(cfg.quadrature, f.name)!r}")
    return "\n".join(lines) + "\n"


def channel_cache_key(geom: LinkGeometry, cfg: WdmConfig) -> str:
    """Stable hash of the header, suitable as a cache file stem."""
    return hashlib.sha256(channel_header(geom, cfg).encode()).hexdigest()[:24]


def save_channel_set(
    path: str, ch: ChannelSet, geom: LinkGeometry, cfg: WdmConfig
) -> None:
    """Write ``header``, ``H`` and ``R`` to ``path`` as an npz archive.

    The archive goes to a per-process temporary file next to ``path``
    and is renamed into place, so a crash never leaves a partial file
    under ``path``.  Equal inputs give equal bytes.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        # a file handle keeps np.savez from appending ".npz" to the name
        with open(tmp, "wb") as out:
            np.savez(out, header=np.array(channel_header(geom, cfg)), H=ch.H, R=ch.R)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def load_matching_channel_set(
    path: str, geom: LinkGeometry, cfg: WdmConfig
) -> ChannelSet:
    """Load the channel set at ``path``, whitened for ``cfg``.

    Raises:
        ValueError: If the stored header differs from
            ``channel_header(geom, cfg)`` or the file is no npz archive.
        OSError, zipfile.BadZipFile, EOFError: On an unreadable file.
    """
    # np.load raises on a truncated archive before it closes a file it
    # opened itself, so the file is opened and closed here
    with open(path, "rb") as fh, np.load(fh) as data:
        if str(data.get("header")) != channel_header(geom, cfg):
            raise ValueError(
                f"{path}: stored header does not match the requested geometry/config"
            )
        return whiten(data["H"], data["R"], cfg)

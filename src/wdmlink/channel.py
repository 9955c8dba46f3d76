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
block of receive nodes at a time.  The R kernel depends only on the
lag t = r' - r, so R is one composite sum over the lag on the centred
segment, phased by the d_z congruence R -> D^H R D,
D = diag(exp(j kappa_n d_z)), which is performance-neutral (see
:func:`assemble_R`).  Neither holds an array over the whole receive
segment beyond its nodes, so their memory does not grow with L_r: H
takes each kernel block's receive tones from one ``_phasor`` of the
(N, rows) phases, and R sums its lag tones one block of lag nodes at a
time, each block from one recurrence over the equally spaced kappa_n
(``_tone_table``), not from N complex exponentials per node.
Reductions run in a fixed order, so repeated runs are bit-identical.

Ambient electromagnetic interference reaching the receive segment is
isotropic with spatial correlation sinc(2 ||r' - r|| / lambda), variance
sigma2_emi; hardware noise adds a white sigma2_hdw on top.  ``whiten``
factors C = sigma2_emi R + sigma2_hdw I = L L^H and returns
H_tilde = L^{-1} H for the receiver stage; a sweep factors C once
(:func:`noise_factor`) and whitens each point as L0^{-1} (D H) instead.

A channel file (:func:`save_channel_set`) is an npz archive of the
``header`` string and named arrays: ``H`` and ``R`` from ``dump-channel``;
a sweep's cache entry holds ``se``, the point's four spectral
efficiencies, under ``<cache_dir>/<FORMAT_VERSION>/``.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass, fields, replace

import numpy as np

from . import em_field
from .em_field import EmConstants, spatial_frequency
from .geometry import LinkGeometry
from .quadrature import QuadratureSpec, composite_gauss_nodes
from .receivers import MMSE_FORMS

__all__ = [
    "WdmConfig",
    "max_modes",
    "assemble_H",
    "assemble_R",
    "whiten",
    "noise_factor",
    "white_channel",
    "total_power",
    "emi_variance",
    "FORMAT_VERSION",
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
        mmse_form: MMSE filter variant, one of
            :data:`wdmlink.receivers.MMSE_FORMS`.
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
    k = EmConstants(cfg.wavelength)
    kappas = _mode_frequencies(cfg, geom)
    s_nodes, tx_tones = em_field._transmit_tones(geom, k, kappas, cfg.quadrature)
    rx_cycles = -kappas / (2.0 * math.pi)
    rx_kern = np.zeros((cfg.n_modes, s_nodes.size), dtype=complex)
    for rows, kern in em_field._kernel_blocks(geom, k, r_nodes, s_nodes, stacklevel=3):
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

    g and h are composite Gauss-Legendre sums on [0, L_r] with the node
    count of one H axis (kernel plus tone oscillate with period lambda/2),
    accumulated over blocks of lag nodes whose (N, block) tone table
    fits in ``em_field._BLOCK_PAIRS`` complex entries.
    Then R = D^H R(0) D (``_dz_phase``), symmetrized to (R + R^H) / 2
    against rounding.

    Returns:
        Complex Hermitian PSD array (N, N).
    """
    _validate_mode_count(geom, cfg)
    L = geom.L_r
    t, w = composite_gauss_nodes(0.0, L, cfg.wavelength / 2.0, cfg.quadrature)
    kappas = _mode_frequencies(cfg, geom)
    wk = w * np.sinc(2.0 * t / cfg.wavelength)
    g = np.zeros(cfg.n_modes, dtype=complex)
    h = np.zeros(cfg.n_modes, dtype=complex)
    step = max(1, em_field._BLOCK_PAIRS // cfg.n_modes)
    for start in range(0, t.size, step):
        lags = slice(start, start + step)
        tones = _tone_table(t[lags], cfg.n_modes, geom.L_s)
        g += tones @ wk[lags]
        h += tones @ (wk[lags] * t[lags])
    delta = kappas[None, :] - kappas[:, None]
    half = em_field._phasor(L * delta / (4.0 * math.pi))
    # the identity only keeps the diagonal finite; it is overwritten next
    P = (half * g[:, None] - half.conj() * g[None, :]) / (
        1j * (delta + np.eye(cfg.n_modes))
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
# Channel files: an npz archive of the header string and named arrays.

# A sweep's cache keeps its entries in a directory of this name, so a
# format change leaves the old entries in one directory to delete.
FORMAT_VERSION = "v4"
_FORMAT_TAG = f"wdmlink-channel-set {FORMAT_VERSION}"


def channel_header(geom: LinkGeometry, cfg: WdmConfig) -> str:
    """Canonical header describing one (geometry, config) pair.

    Stored verbatim in channel files and checksummed for cache file names
    (:func:`channel_cache_key`); two runs produce the same header exactly
    when every parameter matches.
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
    """Stable 16-hex-digit digest of the header, a cache file stem.

    The header's CRC-32 and Adler-32, which depend on its bytes alone, not
    on process, platform or Python version.  zlib is already loaded by the
    zipfile reader every cached run needs, where a cryptographic hash
    would load OpenSSL (~3.5 MB).  A collision can only cost a
    recompute: :func:`load_matching_channel_set` rejects an entry whose
    stored header differs.
    """
    import zlib

    header = channel_header(geom, cfg).encode()
    return f"{zlib.crc32(header):08x}{zlib.adler32(header):08x}"


def save_channel_set(
    path: str, geom: LinkGeometry, cfg: WdmConfig, **arrays: np.ndarray
) -> None:
    """Write ``header`` and the named ``arrays`` to ``path`` as an npz archive.

    The archive goes to a per-process temporary file next to ``path``
    and is renamed into place, so a crash never leaves a partial file
    under ``path``.  Equal inputs give equal bytes.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        # a file handle keeps np.savez from appending ".npz" to the name
        with open(tmp, "wb") as out:
            np.savez(out, header=np.array(channel_header(geom, cfg)), **arrays)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def load_matching_channel_set(
    path: str, geom: LinkGeometry, cfg: WdmConfig
) -> dict[str, np.ndarray]:
    """The arrays :func:`save_channel_set` stored at ``path``, by name.

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
        return {name: data[name] for name in data.files if name != "header"}

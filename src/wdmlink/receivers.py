"""Linear transceiver architectures and their spectral efficiency.

The whitened link y = H_tilde x + z with z ~ CN(0, I) carries one stream
per mode with powers p = diag(P).  Each architecture's gains chi and
per-mode SINR follow from one statistic of H_tilde, in closed form:

    SVD    singular values S of H_tilde; the modes decouple,
           chi_n = S_n^2 and SINR_n = p_n chi_n.
    MMSE   Gram matrix G = H_tilde^H H_tilde; chi_n = G_nn and
           1 + SINR_n = 1 / d_n with d_n = [(I + P^1/2 G P^1/2)^{-1}]_nn,
           taken from one Cholesky factor.
    MR     G again; chi_n = G_nn and
           SINR_n = p_n G_nn^2 / (sum_{m != n} |G_nm|^2 p_m + G_nn).
    PLAIN  |H_tilde|^2 entrywise (no receive processing);
           chi_n = |H_tilde_nn|^2 and
           SINR_n = p_n chi_n / (sum_{m != n} |H_tilde_nm|^2 p_m + 1).

These are the SINRs of the combiner banks U behind precoder V
(H_tilde = U S V^H), (H_tilde P H_tilde^H + I)^{-1} H_tilde, H_tilde and
I (Tse & Viswanath, Fundamentals of Wireless Communication, ch. 8);
those matrices exist only in the tests' reference implementation.  SVD
keeps the singular values: the eigenvalues of G would square H_tilde's
conditioning.  Powers are water-filled against the gains,
p_n = max(0, mu - 1/chi_n) with sum p = P, solved exactly by the
sorted-breakpoint method, so a zero column of H_tilde gets no power and
SINR 0.  The sum spectral efficiency is sum log2(1 + SINR_n), for MMSE
-sum log2 d_n.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np

from .config import Scheme

__all__ = [
    "SchemeResult",
    "waterfill",
    "scheme_gains",
    "spectral_efficiency",
]


class SchemeResult(NamedTuple):
    """Outcome of one architecture on one channel.

    Attributes:
        scheme: Architecture evaluated.
        p: Water-filled per-mode powers, sum p = P.
        mu: Water level.
        sinr: Per-mode SINR; for MMSE 1/d_n - 1 (see module docs).
        se_total: Sum spectral efficiency [bit per channel use].
    """

    scheme: Scheme
    p: np.ndarray
    mu: float
    sinr: np.ndarray
    se_total: float


def waterfill(chi: np.ndarray, power: float) -> Tuple[np.ndarray, float]:
    """Exact water-filling of ``power`` over channel gains ``chi``.

    Args:
        chi: Nonnegative gains; zero-gain modes receive zero power.
        power: Total power budget, positive.

    Returns:
        (p, mu) with p_n = max(0, mu - 1/chi_n) and sum p = power.

    Raises:
        ValueError: On a negative gain, an all-zero gain vector, a
            nonpositive budget or a budget lost to rounding against the
            strongest mode's 1/chi.
    """
    chi = np.asarray(chi, dtype=float)
    if chi.ndim != 1 or chi.size == 0:
        raise ValueError("chi must be a nonempty vector")
    if np.any(chi < 0.0) or not np.all(np.isfinite(chi)):
        raise ValueError("gains must be finite and nonnegative")
    if not power > 0.0:
        raise ValueError(f"power budget must be positive, got {power}")
    active = np.flatnonzero(chi > 0.0)
    if active.size == 0:
        raise ValueError("all channel gains are zero, nothing to allocate")
    inv = 1.0 / chi[active]
    order = np.argsort(inv, kind="stable")
    inv_sorted = inv[order]
    prefix = np.cumsum(inv_sorted)
    mu = 0.0
    count = 0
    for k in range(1, inv_sorted.size + 1):
        candidate = (power + prefix[k - 1]) / k
        if candidate > inv_sorted[k - 1]:
            mu = candidate
            count = k
    if count == 0:  # power + 1/chi rounds to 1/chi for the strongest mode
        raise ValueError(
            f"water-filling found no active mode: power {power:g} + 1/chi "
            f"rounds to 1/chi = {inv_sorted[0]:g}"
        )
    p = np.zeros_like(chi)
    p[active] = np.maximum(0.0, mu - inv)
    return p, mu


def _statistic(kind: Scheme, H_tilde: np.ndarray) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Gains chi of one architecture and the matrix its SINR is read from.

    That matrix is G for MMSE, |G|^2 for MR, |H_tilde|^2 for PLAIN and
    none for SVD, whose SINR needs only chi.
    """
    if kind is Scheme.SVD:
        s = np.linalg.svd(H_tilde, compute_uv=False)
        return s * s, None
    if kind is Scheme.PLAIN:
        cross = np.abs(H_tilde) ** 2
        return cross.diagonal().copy(), cross
    if kind in (Scheme.MMSE, Scheme.MR):
        gram = H_tilde.conj().T @ H_tilde
        chi = gram.diagonal().real.copy()
        return chi, gram if kind is Scheme.MMSE else np.abs(gram) ** 2
    raise ValueError(f"unknown scheme {kind!r}")


def scheme_gains(kind: Scheme, H_tilde: np.ndarray) -> np.ndarray:
    """Water-filling gains chi_n of one architecture (see module docs)."""
    return _statistic(kind, H_tilde)[0]


def spectral_efficiency(kind: Scheme, H_tilde: np.ndarray, power: float) -> SchemeResult:
    """Water-fill one architecture and evaluate its sum rate.

    The gains chi never depend on p, so the allocation is computed first
    and the SINR (for MMSE p-dependent) afterwards.

    Args:
        kind: Architecture.
        H_tilde: Whitened channel matrix.
        power: Total power budget P.

    Returns:
        SchemeResult with ``se_total`` = sum log2(1 + SINR).
    """
    chi, stat = _statistic(kind, H_tilde)
    p, mu = waterfill(chi, power)
    if kind is Scheme.MMSE:
        root = np.sqrt(p)
        K = np.eye(p.size) + root[:, None] * stat * root[None, :]
        # K = L L^H gives K^{-1} = L^{-H} L^{-1}: d_n is column n's squared norm of L^{-1}
        d = np.sum(np.abs(np.linalg.inv(np.linalg.cholesky(K))) ** 2, axis=0)
        return SchemeResult(kind, p, mu, 1.0 / d - 1.0, -float(np.sum(np.log2(d))))
    if kind is Scheme.SVD:
        sinr = p * chi
    else:
        signal = stat.diagonal() * p
        np.fill_diagonal(stat, 0.0)  # interference sums m != n without cancelling the signal
        noise = chi if kind is Scheme.MR else 1.0
        den = stat @ p + noise
        # a zero column of H_tilde (MR's G_nn = 0) has no signal and no noise
        sinr = np.divide(signal, den, out=np.zeros_like(signal), where=den > 0.0)
    return SchemeResult(kind, p, mu, sinr, float(np.sum(np.log2(1.0 + sinr))))

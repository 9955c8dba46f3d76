"""Linear transceiver architectures and their spectral efficiency.

The whitened link y = H_tilde x + z with z ~ CN(0, I) is driven through
a precoder A (x = A x', per-mode powers p on x') and a bank of combiners
B_tilde.  Four architectures are supported:

    SVD    A = V, B_tilde = U from H_tilde = U S V^H; chi_n = S[n,n]^2.
    MMSE   A = I; B_tilde = (H_tilde P H_tilde^H + I)^{-1} H_tilde with
           P = diag(p); chi_n = ||column n of H_tilde||^2.
    MR     A = I, B_tilde = H_tilde; chi_n as for MMSE.
    PLAIN  A = I, B_tilde = I (no receive processing); chi_n =
           |H_tilde[n, n]|^2.

Powers are water-filled against the gains chi: p_n = max(0, mu - 1/chi_n)
with sum p = P, solved exactly by the sorted-breakpoint method.  The
per-mode quality is

    SINR_n = |b_n^H g_n|^2 p_n
             / (sum_{m != n} |b_n^H g_m|^2 p_m + b_n^H b_n),

where g_m are columns of the effective channel H_tilde A, and the sum
spectral efficiency is sum log2(1 + SINR_n); for SVD the exact
equivalent sum log2(1 + p_n chi_n) is used directly.

The textbook MMSE filter above differs from writing the power matrix in
front of the Gram product; ``mmse_form="table"`` switches to that
variant, (P H_tilde H_tilde^H + I)^{-1} H_tilde, for comparison.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .channel import ChannelSet

__all__ = [
    "Scheme",
    "SchemeResult",
    "waterfill",
    "scheme_gains",
    "scheme_matrices",
    "sinr",
    "spectral_efficiency",
]

_MMSE_FORMS = ("hermitian", "table")


class Scheme(enum.Enum):
    """Receiver architecture."""

    SVD = "svd"
    MMSE = "mmse"
    MR = "mr"
    PLAIN = "plain"


@dataclass(frozen=True)
class SchemeResult:
    """Outcome of one architecture on one channel.

    Attributes:
        scheme: Architecture evaluated.
        p: Water-filled per-mode powers, sum p = P.
        mu: Water level.
        sinr: Per-mode SINR.
        se_total: Sum spectral efficiency [bit per channel use].
        A: Precoder.
        B_tilde: Combiner bank (columns are per-mode combiners).
    """

    scheme: Scheme
    p: np.ndarray
    mu: float
    sinr: np.ndarray
    se_total: float
    A: np.ndarray
    B_tilde: np.ndarray


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


def scheme_gains(kind: Scheme, ch: ChannelSet) -> np.ndarray:
    """Water-filling gains chi_n of one architecture (see module docs)."""
    H_t = ch.H_tilde
    if kind is Scheme.SVD:
        s = np.linalg.svd(H_t, compute_uv=False)
        return s * s
    if kind in (Scheme.MMSE, Scheme.MR):
        return np.sum(np.abs(H_t) ** 2, axis=0)
    if kind is Scheme.PLAIN:
        return np.abs(np.diag(H_t)) ** 2
    raise ValueError(f"unknown scheme {kind!r}")


def scheme_matrices(
    kind: Scheme,
    ch: ChannelSet,
    p: Optional[np.ndarray] = None,
    mmse_form: str = "hermitian",
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Precoder, combiner bank and gains of one architecture.

    Args:
        kind: Architecture.
        ch: Whitened channel.
        p: Per-mode powers; required by MMSE (its filter depends on the
            allocation), ignored by the other architectures.
        mmse_form: "hermitian" for the textbook filter, "table" for the
            power-in-front variant.

    Returns:
        (A, B_tilde, chi).
    """
    H_t = ch.H_tilde
    n = H_t.shape[0]
    eye = np.eye(n)
    if kind is Scheme.SVD:
        u, s, vh = np.linalg.svd(H_t)
        return vh.conj().T, u, s * s
    if kind is Scheme.MR:
        return eye, H_t.copy(), scheme_gains(kind, ch)
    if kind is Scheme.PLAIN:
        return eye, eye.copy(), scheme_gains(kind, ch)
    if kind is Scheme.MMSE:
        if p is None:
            raise ValueError("MMSE combiner requires the power allocation p")
        if mmse_form not in _MMSE_FORMS:
            raise ValueError(f"mmse_form must be one of {_MMSE_FORMS}, got {mmse_form!r}")
        p = np.asarray(p, dtype=float)
        if mmse_form == "hermitian":
            gram = (H_t * p[None, :]) @ H_t.conj().T + eye
        else:
            gram = p[:, None] * (H_t @ H_t.conj().T) + eye
        return eye, np.linalg.solve(gram, H_t), scheme_gains(kind, ch)
    raise ValueError(f"unknown scheme {kind!r}")


def sinr(combiners: np.ndarray, channel: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Per-mode SINR of a combiner bank against an effective channel.

    Args:
        combiners: Combiner bank B whose column n is mode n's combiner
            b_n (nonzero).
        channel: Effective channel H_tilde A whose columns carry the
            per-mode streams.
        p: Per-mode powers.

    Returns:
        SINR_n = |b_n^H g_n|^2 p_n / (sum_{m != n} |b_n^H g_m|^2 p_m
        + ||b_n||^2) for every mode n.

    Raises:
        ValueError: If a combiner column is zero.
    """
    B = np.asarray(combiners)
    norm2 = np.sum(np.abs(B) ** 2, axis=0)
    if np.any(norm2 == 0.0):
        raise ValueError("combiners must be nonzero")
    cross = np.abs(B.conj().T @ np.asarray(channel)) ** 2
    signal = np.diag(cross) * p
    return signal / (cross @ p - signal + norm2)


def spectral_efficiency(
    kind: Scheme, ch: ChannelSet, power: float, mmse_form: str = "hermitian"
) -> SchemeResult:
    """Water-fill, build the architecture and evaluate its sum rate.

    The gains chi of Table-style water-filling never depend on p, so the
    allocation is computed first and the (possibly p-dependent) combiner
    afterwards.

    Args:
        kind: Architecture.
        ch: Whitened channel.
        power: Total power budget P.
        mmse_form: Passed through to :func:`scheme_matrices`.

    Returns:
        SchemeResult; ``se_total`` uses sum log2(1 + p chi) for SVD and
        sum log2(1 + SINR) otherwise.
    """
    if kind is Scheme.SVD:
        A, B, chi = scheme_matrices(kind, ch)
        p, mu = waterfill(chi, power)
    else:
        chi = scheme_gains(kind, ch)
        p, mu = waterfill(chi, power)
        A, B, chi = scheme_matrices(kind, ch, p, mmse_form)
    sinr_values = sinr(B, ch.H_tilde @ A, p)
    if kind is Scheme.SVD:
        se = float(np.sum(np.log2(1.0 + p * chi)))
    else:
        se = float(np.sum(np.log2(1.0 + sinr_values)))
    return SchemeResult(
        scheme=kind, p=p, mu=mu, sinr=sinr_values, se_total=se, A=A, B_tilde=B
    )

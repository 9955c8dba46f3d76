"""Linear transceiver architectures and their spectral efficiency.

The whitened link y = H_tilde x + z with z ~ CN(0, I) carries one stream
per mode with powers p.  Four architectures are supported:

    SVD    precoder V, combiners U from H_tilde = U S V^H; the modes
           decouple, SINR_n = p_n chi_n with chi_n = S[n,n]^2.
    MMSE   combiners (H_tilde P H_tilde^H + I)^{-1} H_tilde with
           P = diag(p); chi_n = ||column n of H_tilde||^2.
    MR     combiners H_tilde; chi_n as for MMSE.
    PLAIN  combiners I (no receive processing); chi_n = |H_tilde[n, n]|^2.

Only SVD's singular values are computed here; its U and V, like every
precoder and combiner matrix, exist only in the tests' reference
implementation.  The other three have no precoder, so their streams are
the columns g_m of H_tilde.  Powers are water-filled against the gains:
p_n = max(0, mu - 1/chi_n) with sum p = P, solved exactly by the
sorted-breakpoint method.  A combiner bank gives per-mode qualities

    SINR_n = |b_n^H g_n|^2 p_n
             / (sum_{m != n} |b_n^H g_m|^2 p_m + b_n^H b_n),

and the sum spectral efficiency is sum log2(1 + SINR_n).

The textbook MMSE filter above differs from writing the power matrix in
front of the Gram product; ``mmse_form="table"`` switches to that
variant, (P H_tilde H_tilde^H + I)^{-1} H_tilde, for comparison.  Its
Gram matrix is not Hermitian, and where H_tilde is ill-conditioned the
solve amplifies rounding: at desk with d_x = 0.4 m, theta_s = 1.2 and
d_z = 0.37 (cond(H_tilde) about 3e16), an exact unit diagonal on
H_tilde, which leaves every SE unchanged in exact arithmetic, moves the
table form's SE by 7.3e-13 relative against at most 3.1e-16 for the
hermitian form; 9-digit CSV cells do not show it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .config import MMSE_FORMS, Scheme

__all__ = [
    "SchemeResult",
    "waterfill",
    "scheme_gains",
    "sinr",
    "spectral_efficiency",
]


@dataclass(frozen=True)
class SchemeResult:
    """Outcome of one architecture on one channel.

    Attributes:
        scheme: Architecture evaluated.
        p: Water-filled per-mode powers, sum p = P.
        mu: Water level.
        sinr: Per-mode SINR.
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


def scheme_gains(kind: Scheme, H_tilde: np.ndarray) -> np.ndarray:
    """Water-filling gains chi_n of one architecture (see module docs)."""
    if kind is Scheme.SVD:
        s = np.linalg.svd(H_tilde, compute_uv=False)
        return s * s
    if kind in (Scheme.MMSE, Scheme.MR):
        return np.sum(np.abs(H_tilde) ** 2, axis=0)
    if kind is Scheme.PLAIN:
        return np.abs(np.diag(H_tilde)) ** 2
    raise ValueError(f"unknown scheme {kind!r}")


def _combiners(kind: Scheme, H_tilde: np.ndarray, p: np.ndarray, mmse_form: str) -> np.ndarray:
    """Combiner bank of MMSE, MR or PLAIN; column n is mode n's combiner."""
    if kind is Scheme.MR:
        return H_tilde
    eye = np.eye(H_tilde.shape[0])
    if kind is Scheme.PLAIN:
        return eye
    if mmse_form == "hermitian":
        gram = (H_tilde * p[None, :]) @ H_tilde.conj().T + eye
    else:
        gram = p[:, None] * (H_tilde @ H_tilde.conj().T) + eye
    return np.linalg.solve(gram, H_tilde)


def sinr(combiners: np.ndarray, channel: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Per-mode SINR of a combiner bank against an effective channel.

    Args:
        combiners: Combiner bank B whose column n is mode n's combiner
            b_n (nonzero).
        channel: Effective channel whose columns carry the per-mode
            streams (H_tilde for architectures without a precoder).
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
    np.fill_diagonal(cross, 0.0)  # interference sums m != n without cancelling the signal
    return signal / (cross @ p + norm2)


def spectral_efficiency(
    kind: Scheme, H_tilde: np.ndarray, power: float, mmse_form: str = "hermitian"
) -> SchemeResult:
    """Water-fill one architecture and evaluate its sum rate.

    The gains chi never depend on p, so the allocation is computed first
    and the (for MMSE p-dependent) combiner bank afterwards.

    Args:
        kind: Architecture.
        H_tilde: Whitened channel matrix.
        power: Total power budget P.
        mmse_form: One of :data:`MMSE_FORMS`, the MMSE filter variant.

    Returns:
        SchemeResult with ``se_total`` = sum log2(1 + SINR).
    """
    if mmse_form not in MMSE_FORMS:
        raise ValueError(f"mmse_form must be one of {MMSE_FORMS}, got {mmse_form!r}")
    chi = scheme_gains(kind, H_tilde)
    p, mu = waterfill(chi, power)
    if kind is Scheme.SVD:
        sinr_values = p * chi
    else:
        sinr_values = sinr(_combiners(kind, H_tilde, p, mmse_form), H_tilde, p)
    se = float(np.sum(np.log2(1.0 + sinr_values)))
    return SchemeResult(scheme=kind, p=p, mu=mu, sinr=sinr_values, se_total=se)

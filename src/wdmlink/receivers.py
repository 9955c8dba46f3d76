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

Every function here also takes a stack of channels (..., N, N) and runs
on all of it at once, with numpy's per-matrix loops (stacked ``linalg``
and ``matmul``) and a water-filling without a loop over modes or
channels, so each channel's result has the bits of its own call.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .config import Scheme

__all__ = [
    "SchemeResult",
    "waterfill",
    "scheme_gains",
    "spectral_efficiency",
]


class SchemeResult(NamedTuple):
    """Outcome of one architecture on one channel, or on a stack of them.

    For a stack every field but ``scheme`` has the stack's leading axes.

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


def waterfill(chi: np.ndarray, power: float) -> Tuple[np.ndarray, np.ndarray]:
    """Exact water-filling of ``power`` over channel gains ``chi``.

    The modes' 1/chi are sorted and mu is the largest level (power +
    sum of the k smallest 1/chi) / k that stays above the k-th smallest,
    found for every row of a stack at once (no loop over k or rows).

    Args:
        chi: Nonnegative gains along the last axis, one row per channel
            of a stack; zero-gain modes receive zero power.
        power: Total power budget, positive, the same for every row.

    Returns:
        (p, mu) with p_n = max(0, mu - 1/chi_n) and sum p = power; p has
        chi's shape and mu its shape without the last axis (a numpy
        float for one vector).  Each row has the bits of its own call.

    Raises:
        ValueError: On a negative or non-finite gain, an all-zero gain
            vector, a nonpositive budget or a budget lost to rounding
            against the strongest mode's 1/chi; for a stack, the error of
            the first row that has one, as that row alone raises it.
    """
    chi = np.asarray(chi, dtype=float)
    if chi.ndim == 0 or chi.shape[-1] == 0:
        raise ValueError("chi must be a nonempty vector")
    rows = chi.reshape(-1, chi.shape[-1])
    active = rows > 0.0
    # 1/chi of the active modes; a zero gain sorts last as inf and gets none
    inv = np.divide(1.0, rows, out=np.full_like(rows, np.inf), where=active)
    # a stable sort: numpy's default quicksort pages in its SIMD sorting
    # code, ~0.23 MB of resident memory in every cold run
    inv_sorted = np.sort(inv, axis=1, kind="stable")
    candidate = (power + np.cumsum(inv_sorted, axis=1)) / np.arange(1, rows.shape[1] + 1)
    fits = candidate > inv_sorted
    # the level of the largest k whose candidate stays above its 1/chi
    last = rows.shape[1] - 1 - np.argmax(fits[:, ::-1], axis=1)
    mu = candidate[np.arange(rows.shape[0]), last]
    valid = ((rows >= 0.0) & (rows < np.inf)).all(axis=1)
    if not (power > 0.0 and (valid & fits.any(axis=1)).all()):
        row = int(np.argmax(~(valid & fits.any(axis=1)))) if power > 0.0 else 0
        if not valid[row]:
            raise ValueError("gains must be finite and nonnegative")
        if not power > 0.0:
            raise ValueError(f"power budget must be positive, got {power}")
        if not active[row].any():
            raise ValueError("all channel gains are zero, nothing to allocate")
        # power + 1/chi rounds to 1/chi for the strongest mode
        raise ValueError(
            f"water-filling found no active mode: power {power:g} + 1/chi "
            f"rounds to 1/chi = {inv_sorted[row, 0]:g}"
        )
    p = np.subtract(mu[:, None], inv, out=np.zeros_like(rows), where=active)
    np.maximum(0.0, p, out=p)
    return p.reshape(chi.shape), mu.reshape(chi.shape[:-1])[()]


def _statistic(
    kind: Scheme, H_tilde: np.ndarray, gram: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Gains chi of one architecture and the matrix its SINR is read from.

    That matrix is G for MMSE, |G|^2 for MR, |H_tilde|^2 for PLAIN and
    none for SVD, whose SINR needs only chi.  ``H_tilde`` may be a stack
    of matrices, and ``gram``, G if already formed, is shared by MMSE and
    MR.
    """
    if kind is Scheme.SVD:
        s = np.linalg.svd(H_tilde, compute_uv=False)
        return s * s, None
    if kind is Scheme.PLAIN:
        cross = np.abs(H_tilde) ** 2
        return cross.diagonal(axis1=-2, axis2=-1).copy(), cross
    if kind in (Scheme.MMSE, Scheme.MR):
        gram = _gram(H_tilde) if gram is None else gram
        chi = gram.diagonal(axis1=-2, axis2=-1).real.copy()
        return chi, gram if kind is Scheme.MMSE else np.abs(gram) ** 2
    raise ValueError(f"unknown scheme {kind!r}")


def _gram(H_tilde: np.ndarray) -> np.ndarray:
    """G = H_tilde^H H_tilde of each matrix (numpy's per-matrix product)."""
    return H_tilde.conj().swapaxes(-1, -2) @ H_tilde


def scheme_gains(kind: Scheme, H_tilde: np.ndarray) -> np.ndarray:
    """Water-filling gains chi_n of one architecture (see module docs)."""
    return _statistic(kind, H_tilde)[0]


def spectral_efficiency(
    kind: Union[Scheme, Sequence[Scheme]], H_tilde: np.ndarray, power: float
) -> Union[SchemeResult, Tuple[SchemeResult, ...]]:
    """Water-fill one architecture, or several, and evaluate the sum rate.

    The gains chi never depend on p, so the allocation is computed first
    and the SINR (for MMSE p-dependent) afterwards.

    Args:
        kind: Architecture, or a sequence of them, which share the Gram
            matrix of MMSE and MR.
        H_tilde: Whitened channel matrix (N, N), or a stack (..., N, N).
        power: Total power budget P.

    Returns:
        SchemeResult with ``se_total`` = sum log2(1 + SINR), a float for
        one matrix and an array over the stack otherwise; for a sequence
        of architectures, a tuple of them in its order.
    """
    kinds = (kind,) if isinstance(kind, Scheme) else tuple(kind)
    H_tilde = np.asarray(H_tilde)
    gram = _gram(H_tilde) if Scheme.MMSE in kinds and Scheme.MR in kinds else None
    results = tuple(_evaluate(k, H_tilde, power, gram) for k in kinds)
    return results[0] if isinstance(kind, Scheme) else results


def _evaluate(
    kind: Scheme, H_tilde: np.ndarray, power: float, gram: Optional[np.ndarray]
) -> SchemeResult:
    """:func:`spectral_efficiency` of one architecture."""
    chi, stat = _statistic(kind, H_tilde, gram)
    p, mu = waterfill(chi, power)
    diagonal = np.arange(p.shape[-1])
    if kind is Scheme.MMSE:
        root = np.sqrt(p)
        K = np.eye(p.shape[-1]) + root[..., :, None] * stat * root[..., None, :]
        # K = L L^H gives K^{-1} = L^{-H} L^{-1}: d_n is column n's squared norm of L^{-1}
        d = np.sum(np.abs(np.linalg.inv(np.linalg.cholesky(K))) ** 2, axis=-2)
        return SchemeResult(kind, p, mu, 1.0 / d - 1.0, _total(-np.sum(np.log2(d), axis=-1)))
    if kind is Scheme.SVD:
        sinr = p * chi
    else:
        signal = stat.diagonal(axis1=-2, axis2=-1) * p
        # interference sums m != n without cancelling the signal
        stat[..., diagonal, diagonal] = 0.0
        noise = chi if kind is Scheme.MR else 1.0
        den = (stat @ p[..., None])[..., 0] + noise
        # a zero column of H_tilde (MR's G_nn = 0) has no signal and no noise
        sinr = np.divide(signal, den, out=np.zeros_like(signal), where=den > 0.0)
    return SchemeResult(kind, p, mu, sinr, _total(np.sum(np.log2(1.0 + sinr), axis=-1)))


def _total(se: np.ndarray) -> Union[float, np.ndarray]:
    """A float for one channel, the array for a stack."""
    return float(se) if se.ndim == 0 else se

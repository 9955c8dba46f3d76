"""Linear transceiver architectures and their spectral efficiency.

The whitened link y = H_tilde x + z with z ~ CN(0, I) carries one stream
per mode with powers p = diag(P).  Each architecture's gains chi and
per-mode SINR follow from one statistic of H_tilde, in closed form:

    SVD    singular values S of H_tilde; the modes decouple,
           chi_n = S_n^2 and SINR_n = p_n chi_n.
    MMSE   Gram matrix G = H_tilde^H H_tilde; chi_n = G_nn and
           1 + SINR_n = 1 / d_n with d_n = [(I + P^1/2 G P^1/2)^{-1}]_nn,
           taken from the QR factor of [H_tilde P^1/2; I], not from G.
    MR     G again, with MMSE's chi_n = G_nn and powers p, and
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

:func:`spectral_efficiency` evaluates all four architectures in one
pass: one SVD, one G, one |H_tilde|^2 and three water-fillings, since
MMSE and MR share one.  It also takes a stack of channels (..., N, N)
and runs on all of it at once, with numpy's per-matrix loops (stacked
``linalg`` and ``matmul``) and a water-filling without a loop over modes
or channels, so each channel's result has the bits of its own call.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple, Union

import numpy as np

from .config import Scheme

__all__ = [
    "SchemeResult",
    "waterfill",
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
        error: None, or the ValueError of a channel that water-filling
            failed (:func:`waterfill`), evaluated at zero power.
    """

    scheme: Scheme
    p: np.ndarray
    mu: float
    sinr: np.ndarray
    se_total: float
    error: Optional[ValueError]


def waterfill(chi: np.ndarray, power: float) -> Tuple[np.ndarray, np.ndarray, object]:
    """Exact water-filling of ``power`` over channel gains ``chi``.

    The modes' 1/chi are sorted and mu is the largest level (power +
    sum of the k smallest 1/chi) / k that stays above the k-th smallest,
    found for every row of a stack at once (no loop over k or rows).

    Args:
        chi: Nonnegative gains along the last axis, one row per channel
            of a stack; zero-gain modes receive zero power.
        power: Total power budget, positive, the same for every row.

    Returns:
        (p, mu, error) with p_n = max(0, mu - 1/chi_n) and sum p = power;
        p has chi's shape and mu and error its shape without the last
        axis (a numpy float and an object for one vector).  A row with a
        negative or non-finite gain, no nonzero gain or a budget lost to
        rounding against its strongest mode's 1/chi fails: it gets zero
        power, mu NaN and, as error, the ValueError that says why; every
        other row's error is None.  Each row has the bits of its own call.

    Raises:
        ValueError: On an empty gain vector or a nonpositive budget.
    """
    chi = np.asarray(chi, dtype=float)
    if chi.ndim == 0 or chi.shape[-1] == 0:
        raise ValueError("chi must be a nonempty vector")
    if not power > 0.0:
        raise ValueError(f"power budget must be positive, got {power}")
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
    failed = ~(valid & fits.any(axis=1))
    error = np.full(rows.shape[0], None, dtype=object)
    for row in np.flatnonzero(failed):
        # power + 1/chi rounds to 1/chi for the strongest mode in the last case
        error[row] = ValueError(
            "gains must be finite and nonnegative" if not valid[row]
            else "all channel gains are zero, nothing to allocate" if not active[row].any()
            else f"water-filling found no active mode: power {power:g} + 1/chi "
            f"rounds to 1/chi = {inv_sorted[row, 0]:g}"
        )
    mu[failed] = np.nan
    p = np.subtract(mu[:, None], inv, out=np.zeros_like(rows), where=active & ~failed[:, None])
    np.maximum(0.0, p, out=p)
    shape = chi.shape[:-1]
    return p.reshape(chi.shape), mu.reshape(shape)[()], error.reshape(shape)[()]


def spectral_efficiency(H_tilde: np.ndarray, power: float) -> Dict[Scheme, SchemeResult]:
    """Water-fill every architecture and evaluate its sum rate, in one pass.

    The gains chi never depend on p, so each allocation is computed first
    and the SINR (for MMSE p-dependent) afterwards.  MMSE and MR have the
    same gains G_nn and share one allocation, so three water-fillings
    serve the four architectures.

    Args:
        H_tilde: Whitened channel matrix (N, N), or a stack (..., N, N).
        power: Total power budget P.

    Returns:
        Each architecture's SchemeResult, keyed and ordered as ``Scheme``,
        with ``se_total`` = sum log2(1 + SINR), a float for one matrix and
        an array over the stack otherwise.
    """
    H_tilde = np.asarray(H_tilde)
    s = np.linalg.svd(H_tilde, compute_uv=False)
    chi = s * s
    p, mu, error = waterfill(chi, power)
    sinr = p * chi
    svd = SchemeResult(Scheme.SVD, p, mu, sinr, _rate(sinr), error)
    gram = H_tilde.conj().swapaxes(-1, -2) @ H_tilde
    chi = gram.diagonal(axis1=-2, axis2=-1).real.copy()
    p, mu, error = waterfill(chi, power)
    d = _mmse_d(H_tilde, p)
    # 0.0 - sum: a row whose every d_n is 1 gets +0, not -0
    se = _total(0.0 - np.sum(np.log2(d), axis=-1))
    mmse = SchemeResult(Scheme.MMSE, p, mu, 1.0 / d - 1.0, se, error)
    mr = _interference_limited(Scheme.MR, np.abs(gram) ** 2, chi, p, mu, error)
    cross = np.abs(H_tilde) ** 2
    chi = cross.diagonal(axis1=-2, axis2=-1).copy()
    plain = _interference_limited(Scheme.PLAIN, cross, 1.0, *waterfill(chi, power))
    return {result.scheme: result for result in (svd, mmse, mr, plain)}


def _interference_limited(
    kind: Scheme, cross: np.ndarray, noise: object, p: np.ndarray, mu: object, error: object
) -> SchemeResult:
    """MR's or PLAIN's result: SINR_n = p_n c_nn / (sum_{m != n} c_nm p_m + noise_n).

    ``cross`` is c, |G|^2 or |H_tilde|^2, and is overwritten; p, mu and
    error are its water-filling (:func:`waterfill`).
    """
    signal = cross.diagonal(axis1=-2, axis2=-1) * p
    # interference sums m != n without cancelling the signal
    diagonal = np.arange(p.shape[-1])
    cross[..., diagonal, diagonal] = 0.0
    den = (cross @ p[..., None])[..., 0] + noise
    # a zero column of H_tilde (MR's G_nn = 0) has no signal and no noise
    sinr = np.divide(signal, den, out=np.zeros_like(signal), where=den > 0.0)
    return SchemeResult(kind, p, mu, sinr, _rate(sinr), error)


def _mmse_d(H_tilde: np.ndarray, p: np.ndarray) -> np.ndarray:
    """d_n = [K^{-1}]_nn, K = I + P^1/2 G P^1/2, from the QR factor of [H_tilde P^1/2; I].

    That augmented matrix A has A^H A = K = R^H R, so K^{-1} = R^{-1} R^{-H}
    and d_n is row n's squared norm of R^{-1}; no Gram matrix is formed,
    and R, whose singular values are those of A, all at least 1, is never
    singular (Hassibi, ICASSP 2000; Wuebben et al., VTC-Fall 2003).  A
    stack is factored in two halves, so no (2N, N) array, nor the copy
    that ``qr`` takes of it, holds more entries than the stack itself.
    """
    n = p.shape[-1]
    d = []
    for part in np.array_split((H_tilde * np.sqrt(p)[..., None, :]).reshape(-1, n, n), 2):
        A = np.concatenate((part, np.broadcast_to(np.eye(n), part.shape)), axis=-2)
        d.append(np.sum(np.abs(np.linalg.inv(np.linalg.qr(A, mode="r"))) ** 2, axis=-1))
    return np.concatenate(d).reshape(p.shape)


def _rate(sinr: np.ndarray) -> Union[float, np.ndarray]:
    """sum log2(1 + SINR_n) over the modes."""
    return _total(np.sum(np.log2(1.0 + sinr), axis=-1))


def _total(se: np.ndarray) -> Union[float, np.ndarray]:
    """A float for one channel, the array for a stack."""
    return float(se) if se.ndim == 0 else se

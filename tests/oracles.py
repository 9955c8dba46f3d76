"""Reference implementations the tests compare wdmlink against.

Each oracle evaluates a quantity by a different route from the package:
its own kernel formula, node grid or integration order, so a defect in
the production code cannot cancel against the same defect here.  The
small link and the fine rule that several test modules share live here
too.
"""

import math
from types import SimpleNamespace
from typing import List

import numpy as np

from wdmlink.channel import assemble_H, assemble_R, whiten
from wdmlink.config import WdmConfig
from wdmlink import em_field
from wdmlink.em_field import (
    FieldPeak,
    ModeIndex,
    gz_kernel,
    source_direction,
    spatial_frequency,
)
from wdmlink.geometry import LinkGeometry
from wdmlink.quadrature import QuadratureSpec, composite_gauss_nodes
from wdmlink.receivers import Scheme

REDUCED_GEOM = LinkGeometry(L_s=0.2, L_r=0.5, d_x=1.0)
REDUCED_CFG = WdmConfig(wavelength=0.1, n_modes=3, sigma2_emi=1.0)

# The R oracle comparisons pit two discretisations of one integral against
# each other at 1e-12, so they run on a rule fine enough that quadrature
# error stays below that bound; the default rule (16-node panels at 4
# points per period) differs from the oracle by up to ~2e-11.  Its 16x
# larger node grid also makes the full-scale H memory test bite.
ORACLE_SPEC = QuadratureSpec(points_per_wavelength=16.0, nodes_per_panel=8)


def channel_set(geom, cfg):
    """H, R and whiten's C, L and H_tilde of one geometry.

    Each point whitened against its own R(d_z), the route a sweep replaced
    with one noise factor per run (``channel.noise_factor``).
    """
    H, R = assemble_H(geom, cfg), assemble_R(geom, cfg)
    C, L, H_tilde = whiten(H, R, cfg)
    return SimpleNamespace(H=H, R=R, C=C, L=L, H_tilde=H_tilde)


def tensor_sum(f, domain, osc_wavelengths, spec):
    """Tensor-product composite Gauss-Legendre sum of f over a rectangle.

    ``f(x, y)`` receives broadcastable node arrays of shape (nx, 1) and
    (1, ny); ``domain`` is (ax, bx, ay, by) and each axis gets its own
    composite rule sized from its oscillation wavelength.
    """
    ax, bx, ay, by = domain
    x, wx = composite_gauss_nodes(ax, bx, osc_wavelengths[0], spec)
    y, wy = composite_gauss_nodes(ay, by, osc_wavelengths[1], spec)
    return complex(wx @ np.asarray(f(x[:, None], y[None, :])) @ wy)


def s_rule(geom, wavelength, spec):
    """Nodes and weights on the transmit segment, as tone_fields lays them."""
    return composite_gauss_nodes(-geom.L_s / 2, geom.L_s / 2, wavelength / 2, spec)


def leggauss_oracle(order):
    """Gauss-Legendre nodes and weights by numpy's eigenvalue route.

    numpy's ``leggauss`` takes the nodes as eigenvalues of the scaled
    companion matrix (LAPACK), polishes them with one Newton step and
    normalises the weights; the package runs Newton's method on the
    three-term recurrence from cosine guesses instead.
    """
    return np.polynomial.legendre.leggauss(order)


def separation_grid(geom, r_z, s_nodes):
    """The (r_z, s, 3) array of separations r - s s_hat, r = (d_x, 0, r_z)."""
    s_hat = source_direction(geom.theta_s, geom.phi_s)
    u = np.empty((r_z.size, s_nodes.size, 3))
    u[:, :, 0] = geom.d_x - s_nodes[None, :] * s_hat[0]
    u[:, :, 1] = -s_nodes[None, :] * s_hat[1]
    u[:, :, 2] = r_z[:, None] - s_nodes[None, :] * s_hat[2]
    return u


def closest_separation_all_pairs(geom, r_z, s_nodes):
    """Smallest ||r - s s_hat|| by brute force over every (r_z, s) pair.

    ||u||^2 is u_z^2 plus u_x^2 + u_y^2, the order in which the package's
    kernel forms it, so the package's minimum must match bit for bit.
    """
    u = separation_grid(geom, np.asarray(r_z, dtype=float), s_nodes)
    uxy2 = u[..., 0] * u[..., 0] + u[..., 1] * u[..., 1]
    return math.sqrt(float(np.min(u[..., 2] * u[..., 2] + uxy2)))


def tone_fields_one_slab(geom, wavelength, r_z, kappas, spec):
    """tone_fields as one (r_z, s, 3) separation grid and one product.

    The unblocked evaluation: the same kernel values, the same weighted
    transmit tones and the same contraction per row, so the blocked form
    must match it bit for bit.
    """
    s_nodes, s_weights = s_rule(geom, wavelength, spec)
    u = separation_grid(geom, r_z, s_nodes)
    kern = gz_kernel(u, geom.theta_s, geom.phi_s, wavelength)
    weighted_tones = em_field._phasor(
        np.outer(s_nodes, kappas / (2.0 * math.pi)),
        (s_weights / math.sqrt(geom.L_s))[:, None],
    )
    return kern @ weighted_tones


def midpoint_coupling_oracle(geom, cfg, n_s, n_r):
    """Independent brute-force evaluation of the coupling matrix.

    Midpoint rule with its own inline kernel formula so that a defect in
    the production kernel cannot cancel against the same defect here.
    """
    kap = 2.0 * math.pi / cfg.wavelength
    th, ph = geom.theta_s, geom.phi_s
    sx = math.cos(ph) * math.sin(th)
    sy = math.sin(ph) * math.sin(th)
    sz = math.cos(th)
    s = -geom.L_s / 2 + (np.arange(n_s) + 0.5) * (geom.L_s / n_s)
    r = geom.d_z - geom.L_r / 2 + (np.arange(n_r) + 0.5) * (geom.L_r / n_r)
    ux = geom.d_x - s[None, :] * sx
    uy = -s[None, :] * sy
    uz = r[:, None] - s[None, :] * sz
    dist = np.sqrt(ux * ux + uy * uy + uz * uz)
    bracket = -ux * uz * sx - uy * uz * sy + (ux * ux + uy * uy) * sz
    kern = np.exp(1j * kap * dist) / (4.0 * math.pi * dist**3) * bracket
    out = np.empty((cfg.n_modes, cfg.n_modes), dtype=complex)
    for n in range(1, cfg.n_modes + 1):
        k_n = 2.0 * math.pi / geom.L_s * (n - (cfg.n_modes + 1) / 2.0)
        for m in range(1, cfg.n_modes + 1):
            k_m = 2.0 * math.pi / geom.L_s * (m - (cfg.n_modes + 1) / 2.0)
            tone_s = np.exp(1j * k_m * s) / math.sqrt(geom.L_s)
            tone_r = np.exp(-1j * k_n * r)
            out[n - 1, m - 1] = (tone_r @ kern @ tone_s) * (geom.L_s / n_s) * (geom.L_r / n_r)
    return out


def exact_gz_kernel(u, theta_s, phi_s, wavelength):
    """z_hat^T G(u) s_hat of the exact free-space dyad.

    G = g [(1 + j/kr - 1/(kr)^2) I - (1 + 3j/kr - 3/(kr)^2) u_hat u_hat^T]
    with g = exp(j kappa r) / (4 pi r) and r = ||u||; the far-field dyad
    of the package keeps only the leading 1 of each bracket.  The phase is
    taken from the separation in wavelengths reduced to [-1/2, 1/2], so it
    stays accurate however large kr grows.  Vectorized over leading axes
    of ``u``.
    """
    u = np.asarray(u, dtype=float)
    st = math.sin(theta_s)
    s_hat = np.array([st * math.cos(phi_s), st * math.sin(phi_s), math.cos(theta_s)])
    r = np.sqrt(np.sum(u * u, axis=-1))
    inv_kr = 1.0 / (2.0 * math.pi / wavelength * r)
    a = 1.0 + 1j * inv_kr - inv_kr**2
    b = 1.0 + 3j * inv_kr - 3.0 * inv_kr**2
    u_z, u_s = u[..., 2] / r, (u @ s_hat) / r
    cycles = r / wavelength
    g = np.exp(2j * math.pi * (cycles - np.rint(cycles))) / (4.0 * math.pi * r)
    return g * (a * s_hat[2] - b * u_z * u_s)


def kernel_coupling_oracle(geom, cfg, kernel):
    """Coupling matrix of an arbitrary kernel on the fine oracle rule.

    ``kernel(u)`` maps an (r_z, s, 3) separation grid to its complex
    values; tones come from np.exp on ``ORACLE_SPEC`` nodes.  Row blocks
    of 256 receive nodes bound the grid to a few MB.  Returns H and the
    smallest node separation.
    """
    s, w_s = s_rule(geom, cfg.wavelength, ORACLE_SPEC)
    r, w_r = composite_gauss_nodes(
        geom.d_z - geom.L_r / 2.0, geom.d_z + geom.L_r / 2.0, cfg.wavelength / 2.0, ORACLE_SPEC
    )
    kappas = np.array(
        [spatial_frequency(n, cfg.n_modes, geom.L_s) for n in range(1, cfg.n_modes + 1)]
    )
    rx = np.exp(-1j * np.outer(kappas, r)) * w_r
    tx = np.exp(1j * np.outer(s, kappas)) * (w_s / math.sqrt(geom.L_s))[:, None]
    out = np.zeros((cfg.n_modes, cfg.n_modes), dtype=complex)
    d2_min = math.inf
    for lo in range(0, r.size, 256):
        u = separation_grid(geom, r[lo : lo + 256], s)
        out += rx[:, lo : lo + 256] @ kernel(u) @ tx
        d2_min = min(d2_min, float(np.min(np.sum(u * u, axis=-1))))
    return out, math.sqrt(d2_min)


def R_oracle_2d(geom, cfg):
    """Noise correlation as the tensor-product sum over (r, r').

    The sinc kernel is evaluated on the full receive-node grid of the
    shifted segment, in row blocks, and contracted with the tones; no lag
    form and no d_z congruence are used, so it checks both.  Row blocks of
    2048 bound the kernel slab to a few tens of MB.
    """
    r, w = composite_gauss_nodes(
        geom.d_z - geom.L_r / 2.0, geom.d_z + geom.L_r / 2.0,
        cfg.wavelength / 2.0, cfg.quadrature,
    )
    kappas = np.array(
        [spatial_frequency(n, cfg.n_modes, geom.L_s) for n in range(1, cfg.n_modes + 1)]
    )
    tones = np.exp(1j * np.outer(r, kappas)) * w[:, None]
    out = np.zeros((cfg.n_modes, cfg.n_modes), dtype=complex)
    for lo in range(0, r.size, 2048):
        hi = min(lo + 2048, r.size)
        kern = np.sinc(2.0 * np.abs(r[lo:hi, None] - r[None, :]) / cfg.wavelength)
        out += tones[lo:hi].conj().T @ (kern @ tones)
    return 0.5 * (out + out.conj().T)


def lag_coupling_oracle(geom, cfg):
    """Coupling matrix of an untilted source (theta_s = 0) as a lag integral.

    With s_hat = z_hat the kernel depends only on the lag t = r_z - s:
    K(t) = d_x^2 exp(j kappa rho) / (4 pi rho^3), rho = sqrt(d_x^2 + t^2).
    Substituting r_z = t + s,

        H[n, m] = L_s^(-1/2) int K(t) exp(-j kappa_n t)
                  int_lo(t)^hi(t) exp(j (kappa_m - kappa_n) s) ds dt,

    lo = max(-L_s/2, d_z - L_r/2 - t), hi = min(L_s/2, d_z + L_r/2 - t).
    The inner integral is closed form; the overlap [lo, hi] bends at the
    kinks t = d_z +/- (L_r +/- L_s)/2, so the t-rule is split there.  The
    t-rule is this function's own: 24-node Gauss-Legendre panels one
    wavelength wide.

    Returns H and N L_s^(-1/2) int |K(t)| (hi - lo) dt, the Frobenius norm
    H would have if nothing cancelled.  Rounding error of any quadrature
    sum for H grows with that magnitude, not with |H|.
    """
    assert geom.theta_s == 0.0
    kap = 2.0 * math.pi / cfg.wavelength
    kappas = np.array(
        [spatial_frequency(n, cfg.n_modes, geom.L_s) for n in range(1, cfg.n_modes + 1)]
    )
    delta = kappas[None, :] - kappas[:, None]
    kinks = sorted(
        geom.d_z + outer * (geom.L_r + inner * geom.L_s) / 2.0
        for outer in (-1.0, 1.0)
        for inner in (-1.0, 1.0)
    )
    x0, w0 = leggauss_oracle(24)
    t_parts, w_parts = [], []
    for a, b in zip(kinks[:-1], kinks[1:]):
        if b <= a:  # L_r == L_s: the middle piece is empty
            continue
        edges = np.linspace(a, b, max(1, math.ceil((b - a) / cfg.wavelength)) + 1)
        half = 0.5 * np.diff(edges)[:, None]
        t_parts.append((0.5 * (edges[:-1] + edges[1:])[:, None] + half * x0).ravel())
        w_parts.append((half * w0).ravel())
    t, w = np.concatenate(t_parts), np.concatenate(w_parts)
    rho = np.sqrt(geom.d_x**2 + t * t)
    kern = geom.d_x**2 * np.exp(1j * kap * rho) / (4.0 * math.pi * rho**3)
    lo = np.maximum(-geom.L_s / 2.0, geom.d_z - geom.L_r / 2.0 - t)
    hi = np.minimum(geom.L_s / 2.0, geom.d_z + geom.L_r / 2.0 - t)
    length, mid = hi - lo, 0.5 * (hi + lo)
    out = np.zeros((cfg.n_modes, cfg.n_modes), dtype=complex)
    for i in range(0, t.size, 512):
        b = slice(i, i + 512)
        # int_lo^hi exp(j D s) ds = (hi - lo) exp(j D mid) sinc(D (hi - lo) / 2 pi)
        overlap = length[b, None, None] * np.sinc(
            delta * length[b, None, None] / (2.0 * math.pi)
        )
        rx = (w[b] * kern[b])[:, None] * np.exp(-1j * np.outer(t[b] + mid[b], kappas))
        tx = np.exp(1j * np.outer(mid[b], kappas))
        out += np.einsum("tn,tnm,tm->nm", rx, overlap, tx)
    magnitude = cfg.n_modes * np.sum(w * np.abs(kern) * length)
    return out / math.sqrt(geom.L_s), magnitude / math.sqrt(geom.L_s)


# Denominator threshold below which the cone/line intersection is solved
# via its surviving linear equation.
_DEGENERATE_TOL = 1e-12


def peak_locations_general(mode: ModeIndex, geom: LinkGeometry) -> List[FieldPeak]:
    """Peak heights for an arbitrarily tilted segment.

    Intersects the mode's beam cone (axis s_hat, aperture acos(gamma_n))
    with the receive line x = d_x, y = 0.  Writing a = d_x cos(phi_s)
    sin(theta_s) and c = cos(theta_s), the heights solve

        (c^2 - gamma_n^2) r^2 + 2 a c r + a^2 - gamma_n^2 d_x^2 = 0,

    i.e. r = d_x (-cos(phi_s) sin(theta_s) cos(theta_s)
                  +/- |gamma_n| sqrt(Delta)) / (c^2 - gamma_n^2)
    with Delta = 1 - sin^2(phi_s) sin^2(theta_s) - gamma_n^2.  Only roots
    on the forward nappe of the cone are kept, which requires the signed
    condition sign(a + c r) = sign(gamma_n); squaring introduced the
    mirrored nappe.  When c^2 = gamma_n^2 the quadratic degenerates and
    the surviving linear equation is solved instead.

    Returns:
        Zero, one or two peaks, sorted by height.  Empty when Delta < 0
        (the cone misses the plane of the line entirely).
    """
    g = mode.gamma_n
    a = geom.d_x * math.cos(geom.phi_s) * math.sin(geom.theta_s)
    c = math.cos(geom.theta_s)
    delta = 1.0 - (math.sin(geom.phi_s) * math.sin(geom.theta_s)) ** 2 - g * g
    if delta < 0.0:
        return []
    denom = c * c - g * g
    roots: List[float] = []
    if abs(denom) < _DEGENERATE_TOL:
        lin = 2.0 * a * c
        if abs(lin) < _DEGENERATE_TOL * max(1.0, geom.d_x):
            return []
        roots.append((g * g * geom.d_x * geom.d_x - a * a) / lin)
    else:
        spread = abs(g) * math.sqrt(delta) * geom.d_x
        r_plus = (-a * c + spread) / denom
        r_minus = (-a * c - spread) / denom
        roots.append(r_minus)
        if r_plus != r_minus:
            roots.append(r_plus)
    peaks = []
    for r in sorted(roots):
        axial = a + c * r
        # Forward-nappe test; gamma = 0 peaks lie on the plane axial = 0.
        if g > 0.0 and axial < 0.0:
            continue
        if g < 0.0 and axial > 0.0:
            continue
        peaks.append(FieldPeak(r_z=r, in_segment=abs(r - geom.d_z) < geom.L_r / 2.0))
    return peaks


def scheme_matrices(kind, H_t, p=None):
    """Precoder A, combiner bank B and gains chi of one architecture.

    The reference for ``wdmlink.receivers``, which builds no precoder or
    combiner matrix but reads each SINR in closed form from the singular
    values, the Gram matrix or |H_t|^2: here every architecture gets its
    full matrices, the SINR then follows from ``sinr(B, H_t @ A, p)``.  ``p`` is required by
    MMSE (its textbook filter (H_t P H_t^H + I)^{-1} H_t depends on the
    allocation) and ignored otherwise.
    """
    n = H_t.shape[0]
    eye = np.eye(n)
    col_gains = np.sum(np.abs(H_t) ** 2, axis=0)
    if kind is Scheme.SVD:
        u, s, vh = np.linalg.svd(H_t)
        return vh.conj().T, u, s * s
    if kind is Scheme.MR:
        return eye, H_t.copy(), col_gains
    if kind is Scheme.PLAIN:
        return eye, eye.copy(), np.abs(np.diag(H_t)) ** 2
    if kind is Scheme.MMSE:
        if p is None:
            raise ValueError("MMSE combiner requires the power allocation p")
        p = np.asarray(p, dtype=float)
        gram = (H_t * p[None, :]) @ H_t.conj().T + eye
        return eye, np.linalg.solve(gram, H_t), col_gains
    raise ValueError(f"unknown scheme {kind!r}")


def sinr(B, G, p):
    """Per-mode SINR of combiner bank B against effective channel G, mode by mode."""
    modes = range(G.shape[1])
    out = np.empty(G.shape[1])
    for n in modes:
        gain = [abs(np.vdot(B[:, n], G[:, m])) ** 2 for m in modes]
        others = sum(gain[m] * p[m] for m in modes if m != n)
        out[n] = gain[n] * p[n] / (others + np.vdot(B[:, n], B[:, n]).real)
    return out


def waterfill_loop(chi, power):
    """Water-filling by a Python loop over k: the receivers' previous form, kept as reference.

    mu is the candidate (power + sum of the k smallest 1/chi) / k of the
    last k whose candidate exceeds the k-th smallest 1/chi; zero gains
    take no power.  The arithmetic of each step is that of the stacked
    :func:`wdmlink.receivers.waterfill`, so the two agree bit for bit.
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
    inv_sorted = inv[np.argsort(inv, kind="stable")]
    prefix = np.cumsum(inv_sorted)
    mu, count = 0.0, 0
    for k in range(1, inv_sorted.size + 1):
        candidate = (power + prefix[k - 1]) / k
        if candidate > inv_sorted[k - 1]:
            mu, count = candidate, k
    if count == 0:
        raise ValueError(
            f"water-filling found no active mode: power {power:g} + 1/chi "
            f"rounds to 1/chi = {inv_sorted[0]:g}"
        )
    p = np.zeros_like(chi)
    p[active] = np.maximum(0.0, mu - inv)
    return p, mu

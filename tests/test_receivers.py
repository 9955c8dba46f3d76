import math

import numpy as np
import pytest

from wdmlink.config import total_power
from wdmlink.receivers import Scheme, scheme_gains, sinr, spectral_efficiency, waterfill

import oracles


class TestWaterfill:
    def test_symmetric_split(self):
        p, mu = waterfill(np.array([1.0, 1.0]), 2.0)
        assert np.array_equal(p, [1.0, 1.0])
        assert mu == 2.0

    def test_two_active_modes_exact(self):
        p, mu = waterfill(np.array([2.0, 1.0]), 1.0)
        # all quantities are exact binary fractions
        assert p[0] == 0.75 and p[1] == 0.25
        assert mu == 1.25

    def test_weak_mode_shut_off(self):
        p, mu = waterfill(np.array([10.0, 0.01]), 1.0)
        assert p[0] == pytest.approx(1.0, abs=1e-12)
        assert p[1] == 0.0
        assert mu == pytest.approx(1.1, rel=1e-12)

    def test_zero_gain_gets_zero_power(self):
        p, mu = waterfill(np.array([1.0, 0.0, 2.0]), 1.0)
        assert p[1] == 0.0
        assert np.sum(p) == pytest.approx(1.0, rel=1e-12)

    def test_budget_conservation_random(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 15))
            chi = np.abs(rng.standard_normal(n)) + 1e-6
            P = float(rng.uniform(1e-3, 1e3))
            p, _ = waterfill(chi, P)
            assert np.all(p >= 0.0)
            assert abs(np.sum(p) - P) <= 1e-9 * P

    def test_common_water_level(self, rng):
        # active modes share the level mu; inactive modes sit above it
        for _ in range(100):
            n = int(rng.integers(2, 12))
            chi = np.abs(rng.standard_normal(n)) * rng.choice([0.0, 1.0, 1.0], size=n)
            if not np.any(chi > 0.0):
                chi[0] = 1.0
            P = float(rng.uniform(0.1, 50.0))
            p, mu = waterfill(chi, P)
            for i in range(n):
                if p[i] > 0.0:
                    assert abs(mu - (p[i] + 1.0 / chi[i])) <= 1e-9 * mu
                elif chi[i] > 0.0:
                    assert mu <= 1.0 / chi[i] + 1e-12 * max(1.0, mu)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            waterfill(np.array([1.0, -0.5]), 1.0)
        with pytest.raises(ValueError):
            waterfill(np.array([0.0, 0.0]), 1.0)
        with pytest.raises(ValueError):
            waterfill(np.array([1.0]), 0.0)
        with pytest.raises(ValueError):
            waterfill(np.array([]), 1.0)
        with pytest.raises(ValueError, match=r"\+ 1/chi rounds to 1/chi"):
            waterfill(np.array([1e-18]), 1e-3)


class TestSchemeMatrices:
    def test_svd_gains_on_diagonal_channel(self):
        G = np.diag([2.0, 1.0]).astype(complex)
        A, B, chi = oracles.scheme_matrices(Scheme.SVD, G)
        assert np.allclose(chi, [4.0, 1.0])
        assert np.allclose(np.abs(np.linalg.svd(G, compute_uv=False)), [2.0, 1.0])

    def test_mr_combiner_is_the_channel(self, rng):
        G = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        A, B, chi = oracles.scheme_matrices(Scheme.MR, G)
        assert np.array_equal(B, G)
        assert np.array_equal(A, np.eye(4))
        assert np.allclose(chi, np.sum(np.abs(G) ** 2, axis=0))

    def test_plain_uses_identity_combiner(self, rng):
        G = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        A, B, chi = oracles.scheme_matrices(Scheme.PLAIN, G)
        assert np.array_equal(B, np.eye(4))
        assert np.allclose(chi, np.abs(np.diag(G)) ** 2)

    def test_mmse_reduces_to_mr_at_zero_power(self, rng):
        G = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        for form in ("hermitian", "table"):
            _, B, _ = oracles.scheme_matrices(Scheme.MMSE, G, p=np.zeros(4), mmse_form=form)
            assert np.allclose(B, G, atol=1e-13)

    def test_mmse_requires_powers(self, rng):
        G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        with pytest.raises(ValueError):
            oracles.scheme_matrices(Scheme.MMSE, G)

    def test_mmse_form_validated(self, rng):
        G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        with pytest.raises(ValueError):
            oracles.scheme_matrices(Scheme.MMSE, G, p=np.ones(3), mmse_form="other")


class TestSinr:
    def test_identity_channel(self):
        G = np.eye(3, dtype=complex)
        assert np.allclose(sinr(G, G, np.ones(3)), 1.0, rtol=1e-14, atol=0.0)

    def test_svd_interference_free(self, desk_channel, desk):
        P = total_power(desk.wdm)
        H = desk_channel.H_tilde
        res = spectral_efficiency(Scheme.SVD, H, P)
        A, B, _ = oracles.scheme_matrices(Scheme.SVD, H)
        sigma = np.linalg.svd(H, compute_uv=False)
        expected = res.p * sigma**2
        scale = np.maximum(expected, 1e-300)
        assert np.max(np.abs(sinr(B, H @ A, res.p) - expected) / scale) < 1e-9

    def test_combiner_scale_invariance(self, rng):
        G = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        p = np.abs(rng.standard_normal(5)) + 0.1
        base = sinr(G, G, p)
        assert np.allclose(sinr(5j * G, G, p), base, rtol=1e-12, atol=0.0)
        z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        assert np.allclose(sinr(G * z[None, :], G, p), base, rtol=1e-12, atol=0.0)

    def test_bank_matches_per_mode_formula(self, rng):
        G = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        B = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        p = np.abs(rng.standard_normal(6))
        assert np.allclose(sinr(B, G, p), oracles.sinr(B, G, p), rtol=1e-12, atol=0.0)

    def test_zero_combiner_rejected(self):
        with pytest.raises(ValueError):
            sinr(np.zeros((3, 3)), np.eye(3, dtype=complex), np.ones(3))
        B = np.eye(3, dtype=complex)
        B[:, 1] = 0.0
        with pytest.raises(ValueError):
            sinr(B, np.eye(3, dtype=complex), np.ones(3))


class TestSpectralEfficiency:
    def test_identity_channel_two_bits(self):
        for kind in Scheme:
            res = spectral_efficiency(kind, np.eye(2, dtype=complex), 2.0)
            assert res.se_total == pytest.approx(2.0, rel=1e-12)

    def test_svd_diagonal_analytic(self):
        res = spectral_efficiency(Scheme.SVD, np.diag([2.0, 1.0]).astype(complex), 1.0)
        assert res.p[0] == 0.875 and res.p[1] == 0.125
        expected = math.log2(4.5) + math.log2(1.125)
        assert res.se_total == pytest.approx(expected, rel=1e-14)

    def test_svd_rate_equals_sinr_sum(self, desk_channel, desk):
        P = total_power(desk.wdm)
        res = spectral_efficiency(Scheme.SVD, desk_channel.H_tilde, P)
        assert res.se_total == pytest.approx(float(np.sum(np.log2(1.0 + res.sinr))), rel=1e-9)

    def test_scheme_ordering_random_channels(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 9))
            G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            P = float(rng.uniform(0.5, 50.0))
            se_svd = spectral_efficiency(Scheme.SVD, G, P).se_total
            se_mmse = spectral_efficiency(Scheme.MMSE, G, P).se_total
            se_mr = spectral_efficiency(Scheme.MR, G, P).se_total
            assert se_svd >= se_mmse - 1e-9
            assert se_mmse >= se_mr - 1e-9

    def test_mmse_beats_mr_per_mode(self, rng):
        # same powers, same gains; the MMSE combiner maximizes each
        # per-mode ratio, so it wins pointwise, not only in the sum
        G = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        res_mmse = spectral_efficiency(Scheme.MMSE, G, 10.0)
        res_mr = spectral_efficiency(Scheme.MR, G, 10.0)
        assert np.array_equal(res_mmse.p, res_mr.p)
        assert np.all(res_mmse.sinr >= res_mr.sinr - 1e-9)

    def test_mmse_table_form_runs(self, rng):
        G = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        se_svd = spectral_efficiency(Scheme.SVD, G, 5.0).se_total
        se_table = spectral_efficiency(Scheme.MMSE, G, 5.0, mmse_form="table").se_total
        assert 0.0 < se_table <= se_svd + 1e-9

    def test_mmse_form_validated(self, rng):
        G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        for kind in Scheme:
            with pytest.raises(ValueError, match="mmse_form"):
                spectral_efficiency(kind, G, 1.0, mmse_form="other")

    def test_result_records_architecture(self, desk_channel, desk):
        P = total_power(desk.wdm)
        res = spectral_efficiency(Scheme.MR, desk_channel.H_tilde, P)
        assert res.scheme is Scheme.MR
        assert res.p.shape == res.sinr.shape == (desk_channel.H_tilde.shape[0],)
        assert np.sum(res.p) == pytest.approx(P, rel=1e-9)
        assert res.se_total >= 0.0

    def test_gains_match_scheme_gains(self, desk_channel):
        for kind in Scheme:
            chi = scheme_gains(kind, desk_channel.H_tilde)
            assert np.all(chi >= 0.0)
            assert chi.shape == (desk_channel.H_tilde.shape[0],)


class TestAgainstSchemeMatrices:
    """The SE-only path against the full precoder and combiner matrices."""

    @staticmethod
    def _rel(got, want):
        # relative to the largest entry: a mode near the water line gets a
        # tiny power whose own relative rounding is not the quantity tested
        got, want = np.atleast_1d(got), np.atleast_1d(want)
        return np.max(np.abs(got - want)) / np.max(np.abs(want))

    def test_all_schemes_match_oracle(self, desk, desk_channel, full_scale, rng):
        full = oracles.channel_set(full_scale.geometry, full_scale.wdm)
        channels = [
            (desk_channel.H_tilde, total_power(desk.wdm)),
            (full.H_tilde, total_power(full_scale.wdm)),
        ]
        for _ in range(100):
            n = int(rng.integers(2, 13))
            G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            channels.append((G, float(rng.uniform(0.5, 50.0))))
        for H, P in channels:
            for kind in Scheme:
                for form in ("hermitian", "table"):
                    res = spectral_efficiency(kind, H, P, form)
                    _, _, chi = oracles.scheme_matrices(kind, H, np.zeros(len(H)), form)
                    p, _ = waterfill(chi, P)
                    A, B, _ = oracles.scheme_matrices(kind, H, p, form)
                    ratio = oracles.sinr(B, H @ A, p)
                    se = float(np.sum(np.log2(1.0 + ratio)))
                    assert self._rel(res.p, p) <= 1e-12, (kind, form)
                    assert self._rel(res.sinr, ratio) <= 1e-12, (kind, form)
                    assert abs(res.se_total - se) <= 1e-12 * se, (kind, form)

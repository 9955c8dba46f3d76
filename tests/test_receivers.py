import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wdmlink.config import total_power
from wdmlink.receivers import Scheme, scheme_gains, spectral_efficiency, waterfill

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


# gains from zero through tiny (1/chi up to 1e300, which sums without
# overflow over 21 modes) to huge, rows of one to 21 modes
_GAIN = st.one_of(st.just(0.0), st.floats(1e-300, 1e-200), st.floats(1e-12, 1e12))
_POWER = st.one_of(st.just(1e12), st.floats(1e-6, 1e6))


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


class TestStackedWaterfill:
    """One call over a (B, N) stack gives each row the bits of its own call."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        stack=st.integers(1, 21).flatmap(
            lambda n: st.lists(st.lists(_GAIN, min_size=n, max_size=n), min_size=1, max_size=6)
        ),
        power=_POWER,
    )
    def test_rows_equal_their_own_calls_and_the_loop(self, stack, power):
        chi = np.array(stack)
        rows = []
        for row in chi:
            try:
                rows.append(waterfill(row, power))
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                    oracles.waterfill_loop(row, power)
                with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                    waterfill(chi, power)  # the first failing row's error
                return
            p_ref, mu_ref = oracles.waterfill_loop(row, power)
            assert _bits(rows[-1][0]) == _bits(p_ref) and _bits(rows[-1][1]) == _bits(mu_ref)
        p, mu = waterfill(chi, power)
        assert p.shape == chi.shape and mu.shape == chi.shape[:1]
        assert _bits(p) == _bits([r[0] for r in rows])
        assert _bits(mu) == _bits([r[1] for r in rows])

    def test_one_vector_keeps_its_types(self):
        p, mu = waterfill(np.array([2.0, 1.0]), 1.0)
        assert p.shape == (2,) and isinstance(mu, np.float64)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ([0.0, 0.0, 0.0], "all channel gains are zero, nothing to allocate"),
            ([1.0, math.nan, 2.0], "gains must be finite and nonnegative"),
            ([1.0, math.inf, 2.0], "gains must be finite and nonnegative"),
            ([1.0, -1e-300, 2.0], "gains must be finite and nonnegative"),
            ([1e-18, 0.0, 0.0], "water-filling found no active mode"),
        ],
    )
    def test_failing_row_raises_its_own_error(self, bad, message):
        good = [[1.0, 2.0, 3.0], [0.5, 0.0, 4.0]]
        with pytest.raises(ValueError) as alone:
            waterfill(np.array(bad), 1e-3)
        assert str(alone.value).startswith(message)
        for at in range(3):
            stack = np.array(good[:at] + [bad] + good[at:])
            with pytest.raises(ValueError) as stacked:
                waterfill(stack, 1e-3)
            assert str(stacked.value) == str(alone.value)
        with pytest.raises(ValueError, match="power budget must be positive"):
            waterfill(np.array(good), 0.0)


class TestStackedSpectralEfficiency:
    """A stack of channels and several schemes in one call, bit for bit as one at a time."""

    def test_stack_and_scheme_tuple_equal_single_calls(self, rng):
        for n, power in ((21, 1e3), (5, 1e12), (3, 0.5)):
            H = rng.standard_normal((7, n, n)) + 1j * rng.standard_normal((7, n, n))
            H[2, :, 1] = 0.0  # a zero column: MR's G_nn = 0 gets no power
            results = spectral_efficiency(tuple(Scheme), H, power)
            assert [r.scheme for r in results] == list(Scheme)
            for result in results:
                assert result.se_total.shape == (7,)
                for k in range(7):
                    alone = spectral_efficiency(result.scheme, H[k], power)
                    assert isinstance(alone.se_total, float)
                    assert _bits(result.se_total[k]) == _bits(alone.se_total)
                    for field in ("p", "mu", "sinr"):
                        got = getattr(result, field)[k]
                        assert _bits(got) == _bits(getattr(alone, field)), (result.scheme, field)


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
        _, B, _ = oracles.scheme_matrices(Scheme.MMSE, G, p=np.zeros(4))
        assert np.allclose(B, G, atol=1e-13)

    def test_mmse_requires_powers(self, rng):
        G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        with pytest.raises(ValueError):
            oracles.scheme_matrices(Scheme.MMSE, G)


class TestSinr:
    """The reference's combiner-bank SINR, which the receivers' closed forms must match."""

    def test_identity_channel(self):
        G = np.eye(3, dtype=complex)
        assert np.allclose(oracles.sinr(G, G, np.ones(3)), 1.0, rtol=1e-14, atol=0.0)

    def test_svd_interference_free(self, desk_channel, desk):
        P = total_power(desk.wdm)
        H = desk_channel.H_tilde
        res = spectral_efficiency(Scheme.SVD, H, P)
        A, B, _ = oracles.scheme_matrices(Scheme.SVD, H)
        sigma = np.linalg.svd(H, compute_uv=False)
        expected = res.p * sigma**2
        scale = np.maximum(expected, 1e-300)
        assert np.max(np.abs(oracles.sinr(B, H @ A, res.p) - expected) / scale) < 1e-9

    def test_combiner_scale_invariance(self, rng):
        G = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        p = np.abs(rng.standard_normal(5)) + 0.1
        base = oracles.sinr(G, G, p)
        assert np.allclose(oracles.sinr(5j * G, G, p), base, rtol=1e-12, atol=0.0)
        z = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        assert np.allclose(oracles.sinr(G * z[None, :], G, p), base, rtol=1e-12, atol=0.0)


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

    def test_zero_column_evaluates_in_every_scheme(self):
        # mode 2 reaches no receive tone: water-filling gives it no power,
        # and its SINR is exactly 0, MR's 0 / 0 included
        H = np.array([[1.0, 0.0], [0.5, 0.0]], dtype=complex)
        live = math.log2(2.25)
        expected = {Scheme.SVD: live, Scheme.MMSE: live, Scheme.MR: live, Scheme.PLAIN: 1.0}
        for kind in Scheme:
            res = spectral_efficiency(kind, H, 1.0)
            assert res.p[1] == 0.0 and res.sinr[1] == 0.0, kind
            assert res.se_total == pytest.approx(expected[kind], rel=1e-14), kind

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
                res = spectral_efficiency(kind, H, P)
                _, _, chi = oracles.scheme_matrices(kind, H, np.zeros(len(H)))
                p, _ = waterfill(chi, P)
                A, B, _ = oracles.scheme_matrices(kind, H, p)
                ratio = oracles.sinr(B, H @ A, p)
                se = float(np.sum(np.log2(1.0 + ratio)))
                assert self._rel(res.p, p) <= 1e-12, kind
                assert self._rel(res.sinr, ratio) <= 1e-12, kind
                assert abs(res.se_total - se) <= 1e-12 * se, kind

    def test_closed_forms_match_combiners_mode_by_mode(self):
        # columns spread over two decades and small budgets make water-filling
        # shut modes off; such a mode's SINR is exactly 0.  The others agree
        # to rounding of 1 + SINR, the scale at which MMSE's 1/d_n - 1 is formed
        rng = np.random.default_rng(28)
        shut = 0
        for _ in range(100):
            n = int(rng.integers(2, 13))
            H = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            H *= 10.0 ** rng.uniform(-2.0, 0.0, n)[None, :]
            P = float(rng.uniform(0.05, 5.0))
            for kind in (Scheme.MMSE, Scheme.MR, Scheme.PLAIN):
                res = spectral_efficiency(kind, H, P)
                A, B, _ = oracles.scheme_matrices(kind, H, res.p)
                ratio = oracles.sinr(B, H @ A, res.p)
                off = res.p == 0.0
                assert np.all(res.sinr[off] == 0.0), kind
                assert np.all(np.abs(res.sinr - ratio) <= 1e-12 * (1.0 + ratio)), kind
                shut += int(np.count_nonzero(off))
        assert shut > 0

    def test_high_power(self):
        # at P = 1e12 SVD's and MMSE's modes reach SINR ~1e11, ~37 bit each;
        # MR and plain stay interference-limited
        rng = np.random.default_rng(12)
        H = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        P = 1e12
        for kind in Scheme:
            res = spectral_efficiency(kind, H, P)
            A, B, _ = oracles.scheme_matrices(kind, H, res.p)
            se = float(np.sum(np.log2(1.0 + oracles.sinr(B, H @ A, res.p))))
            assert abs(res.se_total - se) <= 1e-12 * se, kind

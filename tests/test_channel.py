import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wdmlink import channel
from wdmlink.channel import (
    WdmConfig,
    assemble_H,
    assemble_R,
    assemble_channel_set,
    channel_cache_key,
    channel_header,
    emi_variance,
    load_matching_channel_set,
    max_modes,
    save_channel_set,
    total_power,
    whiten,
)
from wdmlink.em_field import EmConstants, NearFieldWarning, gz_kernel, spatial_frequency
from wdmlink.geometry import source_direction
from wdmlink.quadrature import QuadratureSpec, composite_gauss_nodes

from oracles import (
    ORACLE_SPEC,
    REDUCED_CFG,
    REDUCED_GEOM,
    R_oracle_2d,
    lag_coupling_oracle,
    midpoint_coupling_oracle,
    tensor_sum,
)


class TestMaxModes:
    def test_full_scale(self):
        assert max_modes(0.2, 0.01) == 41

    def test_half_wavelength_segment(self):
        assert max_modes(0.005, 0.01) == 1

    def test_mode_spacing(self):
        assert abs(2.0 * math.pi / 0.2 - 31.41) < 1e-2


class TestWdmConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            WdmConfig(wavelength=0.0, n_modes=3)
        with pytest.raises(ValueError):
            WdmConfig(wavelength=0.01, n_modes=0)
        with pytest.raises(ValueError):
            WdmConfig(wavelength=0.01, n_modes=3, source_power=-1.0)
        with pytest.raises(ValueError):
            WdmConfig(wavelength=0.01, n_modes=3, sigma2_emi=0.0, sigma2_hdw=0.0)

    def test_mode_count_capped_by_segment(self, desk):
        over = replace(desk.wdm, n_modes=23)  # desk maximum is 21
        with pytest.raises(ValueError):
            assemble_H(desk.geometry, over)


class TestToneTable:
    @pytest.mark.parametrize("profile", ["desk", "full_scale"])
    @pytest.mark.parametrize("parity", ["odd", "even", "one"])
    def test_matches_complex_exponentials(self, request, profile, parity):
        # on the receive nodes of assemble_H (at d_z = 0 and 2, and negated
        # for the conjugate tones) and the lag nodes of assemble_R
        prof = request.getfixturevalue(profile)
        geom, cfg = prof.geometry, prof.wdm
        n_modes = {"odd": cfg.n_modes, "even": cfg.n_modes - 1, "one": 1}[parity]
        kappas = np.array(
            [spatial_frequency(n, n_modes, geom.L_s) for n in range(1, n_modes + 1)]
        )
        period = cfg.wavelength / 2.0
        spans = [(-geom.L_r / 2, geom.L_r / 2), (2.0 - geom.L_r / 2, 2.0 + geom.L_r / 2)]
        spans.append((0.0, geom.L_r))
        node_sets = [composite_gauss_nodes(a, b, period, cfg.quadrature)[0] for a, b in spans]
        for x in node_sets + [-node_sets[1]]:
            got = channel._tone_table(x, n_modes, geom.L_s)
            assert got.shape == (n_modes, x.size)
            assert np.max(np.abs(got - np.exp(1j * np.outer(x, kappas)).T)) <= 1e-12

    @pytest.mark.parametrize("profile", ["desk", "full_scale"])
    @pytest.mark.parametrize("parity", ["odd", "even", "one"])
    def test_transmit_tones_orthonormal(self, request, profile, parity):
        # phi_n = tone / sqrt(L_s) on a rule that resolves the fastest
        # product phi_m conj(phi_n), whose period is L_s / (N - 1)
        prof = request.getfixturevalue(profile)
        geom, cfg = prof.geometry, prof.wdm
        n_modes = {"odd": cfg.n_modes, "even": cfg.n_modes - 1, "one": 1}[parity]
        L = geom.L_s
        s, w = composite_gauss_nodes(-L / 2, L / 2, L / (2 * cfg.n_modes), cfg.quadrature)
        phi = channel._tone_table(s, n_modes, L) / math.sqrt(L)
        gram = (phi * w) @ phi.conj().T
        assert np.max(np.abs(gram - np.eye(n_modes))) <= 1e-12

    @pytest.mark.parametrize("profile", ["desk", "full_scale"])
    def test_receive_tones_unit_modulus(self, request, profile):
        # each recurrence step can add one rounding to the modulus, so the
        # outermost rows may be off by about N/2 ulps
        prof = request.getfixturevalue(profile)
        geom, cfg = prof.geometry, prof.wdm
        for d_z in (0.0, 2.0):
            r, _ = composite_gauss_nodes(
                d_z - geom.L_r / 2, d_z + geom.L_r / 2, cfg.wavelength / 2.0, cfg.quadrature
            )
            tones = channel._tone_table(r, cfg.n_modes, geom.L_s)
            assert np.max(np.abs(np.abs(tones) - 1.0)) <= 1e-14


class TestAssembleH:
    def test_mirror_symmetry_broadside(self):
        # z -> -z maps mode n to N+1-n at both ends; the kernel is even in
        # u_z at broadside, so the coupling matrix equals its double flip
        # (no conjugation: the kernel phase is unchanged)
        cfg = replace(REDUCED_CFG, n_modes=5)
        H = assemble_H(REDUCED_GEOM, cfg)
        assert np.max(np.abs(H - H[::-1, ::-1])) <= 1e-12 * np.max(np.abs(H))

    def test_against_midpoint_oracle(self):
        H = assemble_H(REDUCED_GEOM, REDUCED_CFG)
        oracle = midpoint_coupling_oracle(REDUCED_GEOM, REDUCED_CFG, 1000, 1200)
        rel = np.linalg.norm(H - oracle) / np.linalg.norm(oracle)
        assert rel < 1e-4

    def test_against_midpoint_oracle_tilted(self):
        geom = replace(REDUCED_GEOM, theta_s=math.radians(20.0), phi_s=math.radians(30.0), d_z=0.2)
        # this tilt drops the closest approach just under 10 wavelengths
        with pytest.warns(NearFieldWarning) as record:
            H = assemble_H(geom, REDUCED_CFG)
        assert record[0].filename == __file__  # attributed to the caller
        oracle = midpoint_coupling_oracle(geom, REDUCED_CFG, 1000, 1200)
        rel = np.linalg.norm(H - oracle) / np.linalg.norm(oracle)
        assert rel < 1e-4

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(
        theta_s=st.floats(0.0, math.pi),
        phi_s=st.floats(1e-9, 2.0 * math.pi - 1e-9),
        d_z=st.floats(-3.0, 3.0),
    )
    def test_mirror_in_azimuth_property(self, desk, theta_s, phi_s, d_z):
        # y -> -y maps the receive line onto itself and s_hat(theta, phi)
        # onto s_hat(theta, 2 pi - phi), so the coupling matrix is unchanged
        geom = replace(desk.geometry, theta_s=theta_s, phi_s=phi_s, d_z=d_z)
        mirror = replace(geom, phi_s=2.0 * math.pi - phi_s)
        H = assemble_H(geom, desk.wdm)
        H_mirror = assemble_H(mirror, desk.wdm)
        assert np.linalg.norm(H - H_mirror) <= 1e-12 * np.linalg.norm(H)

    def test_full_scale_peak_memory(self, full_scale):
        # the receive-node blocks bound the kernel temporaries; at this rule
        # the whole (9600 x 640) node grid as one slab peaks at ~450 MB
        cfg = replace(full_scale.wdm, quadrature=ORACLE_SPEC)
        tracemalloc.start()
        try:
            assemble_H(full_scale.geometry, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64e6

    def test_quadrature_convergence(self):
        fine = replace(
            REDUCED_CFG,
            quadrature=replace(REDUCED_CFG.quadrature, points_per_wavelength=32.0),
        )
        H = assemble_H(REDUCED_GEOM, REDUCED_CFG)
        H_fine = assemble_H(REDUCED_GEOM, fine)
        assert np.linalg.norm(H - H_fine) <= 1e-6 * np.linalg.norm(H_fine)

    def test_entries_equal_direct_quadrature(self):
        # the batched assembly must reproduce a tensor-product sum entry by
        # entry: same node set, so only summation-order roundoff may differ
        geom, cfg = REDUCED_GEOM, REDUCED_CFG
        H = assemble_H(geom, cfg)
        k = EmConstants(cfg.wavelength)
        s_hat = source_direction(geom.theta_s, geom.phi_s)
        lam_half = cfg.wavelength / 2.0
        scale = np.max(np.abs(H))
        for n in range(1, cfg.n_modes + 1):
            for m in range(1, cfg.n_modes + 1):
                k_n = spatial_frequency(n, cfg.n_modes, geom.L_s)
                k_m = spatial_frequency(m, cfg.n_modes, geom.L_s)

                def f(r, s, k_n=k_n, k_m=k_m):
                    r, s = np.broadcast_arrays(r, s)
                    u = np.stack(
                        [geom.d_x - s * s_hat[0], -s * s_hat[1], r - s * s_hat[2]],
                        axis=-1,
                    )
                    kern = gz_kernel(u, geom.theta_s, geom.phi_s, k)
                    return (
                        kern
                        * np.exp(1j * k_m * s)
                        / math.sqrt(geom.L_s)
                        * np.exp(-1j * k_n * r)
                    )

                direct = tensor_sum(
                    f,
                    (-geom.L_r / 2, geom.L_r / 2, -geom.L_s / 2, geom.L_s / 2),
                    (lam_half, lam_half),
                    cfg.quadrature,
                )
                assert abs(direct - H[n - 1, m - 1]) <= 1e-12 * scale


def _rel_error(A, ref):
    return np.linalg.norm(A - ref) / np.linalg.norm(ref)


# Reference rule of the accuracy tests: the default's 16-node panels at
# eight times its points per period.
FINE_SPEC = QuadratureSpec(points_per_wavelength=32.0, nodes_per_panel=16)


class TestDefaultRuleAccuracy:
    """The default rule against a 16-node, 32-points-per-period rule.

    d_x reaches down to 12 wavelengths, where a tilted source comes
    within the near-field guard, so the warning is allowed.
    """

    @staticmethod
    def _check(geom, cfg):
        fine = replace(cfg, quadrature=FINE_SPEC)
        assert _rel_error(assemble_H(geom, cfg), assemble_H(geom, fine)) <= 1e-9
        assert _rel_error(assemble_R(geom, cfg), assemble_R(geom, fine)) <= 1e-9

    @pytest.mark.filterwarnings("ignore::wdmlink.em_field.NearFieldWarning")
    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(
        theta_s=st.floats(0.0, math.pi),
        phi_s=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
        d_z=st.floats(-3.0, 3.0),
        d_x_in_wavelengths=st.floats(12.0, 400.0),
    )
    def test_desk(self, desk, theta_s, phi_s, d_z, d_x_in_wavelengths):
        cfg = desk.wdm
        geom = replace(
            desk.geometry, theta_s=theta_s, phi_s=phi_s, d_z=d_z,
            d_x=d_x_in_wavelengths * cfg.wavelength,
        )
        self._check(geom, cfg)

    @pytest.mark.filterwarnings("ignore::wdmlink.em_field.NearFieldWarning")
    @settings(max_examples=4, deadline=None, derandomize=True)
    @given(
        theta_s=st.floats(0.0, math.pi),
        phi_s=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
        d_z=st.floats(-3.0, 3.0),
        d_x_in_wavelengths=st.floats(12.0, 2000.0),
    )
    def test_full_like(self, full_scale, theta_s, phi_s, d_z, d_x_in_wavelengths):
        # full wavelength, source and mode count on 1.05 m of the receive
        # segment, which keeps the reference rule near one second
        cfg = full_scale.wdm
        geom = replace(
            full_scale.geometry, L_r=1.05, theta_s=theta_s, phi_s=phi_s, d_z=d_z,
            d_x=d_x_in_wavelengths * cfg.wavelength,
        )
        self._check(geom, cfg)


class TestAssembleHAgainstLagOracle:
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(
        d_x_in_wavelengths=st.floats(10.0, 200.0),
        d_z=st.floats(-3.0, 3.0),
        L_r=st.floats(0.05, 0.6),
        L_s=st.floats(0.05, 0.3),
        n_modes=st.integers(1, 31),
    )
    def test_untilted_source_property(self, desk, d_x_in_wavelengths, d_z, L_r, L_s, n_modes):
        cfg = replace(
            desk.wdm, n_modes=min(n_modes, max_modes(L_s, desk.wdm.wavelength))
        )
        geom = replace(
            desk.geometry, L_s=L_s, L_r=L_r, d_z=d_z,
            d_x=d_x_in_wavelengths * cfg.wavelength,
        )
        oracle, magnitude = lag_coupling_oracle(geom, cfg)
        fine = replace(cfg, quadrature=FINE_SPEC)
        # 1e-12 relative, except where the receive segment sits in a deep
        # sidelobe: there H is up to ~5e3 below the magnitude of its
        # integrand and both sides carry rounding of ~1e-15 of the latter
        bound = max(1e-12 * np.linalg.norm(oracle), 1e-14 * magnitude)
        assert np.linalg.norm(assemble_H(geom, fine) - oracle) <= bound
        assert _rel_error(assemble_H(geom, cfg), oracle) <= 1e-9

    def test_full_scale_offset(self, full_scale):
        geom = replace(full_scale.geometry, d_z=0.4)
        oracle, _ = lag_coupling_oracle(geom, full_scale.wdm)
        assert _rel_error(assemble_H(geom, full_scale.wdm), oracle) <= 1e-9

    def test_untilted_source_ignores_azimuth(self, desk):
        # s_hat(0, phi) = z_hat for every phi, so H must not move by one bit
        geom = replace(desk.geometry, d_z=0.3)
        H = assemble_H(geom, desk.wdm)
        for phi_s in (0.4, math.pi / 2.0, 2.5, 4.0, 6.1):
            assert np.array_equal(H, assemble_H(replace(geom, phi_s=phi_s), desk.wdm))


class TestAssembleR:
    def test_hermitian(self, desk):
        R = assemble_R(desk.geometry, desk.wdm)
        assert np.array_equal(R, R.conj().T)

    def test_diagonal_real_positive(self, desk):
        R = assemble_R(desk.geometry, desk.wdm)
        d = np.diag(R)
        assert np.all(d.imag == 0.0)
        assert np.all(d.real > 0.0)

    def test_single_mode_correlation_area(self, desk):
        # integral of the isotropic correlation over a long segment:
        # approx L_r * lam / 2 once L_r >> lam
        cfg = replace(desk.wdm, n_modes=1)
        R = assemble_R(desk.geometry, cfg)
        expected = desk.geometry.L_r * desk.wdm.wavelength / 2.0
        assert R[0, 0].real == pytest.approx(expected, rel=0.02)

    def test_positive_semidefinite(self, desk):
        R = assemble_R(desk.geometry, desk.wdm)
        eig = np.linalg.eigvalsh(R)
        assert eig[0] >= -1e-10 * eig[-1]

    def test_offset_is_a_phase_congruence(self, desk):
        # shifting the segment by d_z conjugates R by diag(exp(j k_n d_z))
        d_z = 0.7
        R0 = assemble_R(desk.geometry, desk.wdm)
        Rz = assemble_R(replace(desk.geometry, d_z=d_z), desk.wdm)
        k_all = np.array(
            [
                spatial_frequency(n, desk.wdm.n_modes, desk.geometry.L_s)
                for n in range(1, desk.wdm.n_modes + 1)
            ]
        )
        D = np.diag(np.exp(1j * k_all * d_z))
        assert np.linalg.norm(Rz - D.conj().T @ R0 @ D) <= 1e-12 * np.linalg.norm(Rz)

    def test_quadrature_convergence(self, desk):
        fine = replace(
            desk.wdm, quadrature=replace(desk.wdm.quadrature, points_per_wavelength=32.0)
        )
        R = assemble_R(desk.geometry, desk.wdm)
        R_fine = assemble_R(desk.geometry, fine)
        assert np.linalg.norm(R - R_fine) <= 1e-6 * np.linalg.norm(R_fine)


def _oracle_mismatch(geom, cfg):
    cfg = replace(cfg, quadrature=ORACLE_SPEC)
    R = assemble_R(geom, cfg)
    oracle = R_oracle_2d(geom, cfg)
    return np.linalg.norm(R - oracle) / np.linalg.norm(oracle)


class TestAssembleRAgainstOracle:
    def test_desk(self, desk):
        assert _oracle_mismatch(desk.geometry, desk.wdm) <= 1e-12

    def test_reduced_full_scale_offset(self, full_scale):
        # full wavelength and mode count on 1.05 m of the 3 m receive segment;
        # 1.05 m is no multiple of L_s, so the h term of the diagonal is nonzero
        geom = replace(full_scale.geometry, L_r=1.05, d_z=2.5)
        assert _oracle_mismatch(geom, full_scale.wdm) <= 1e-12

    def test_short_segment(self, desk):
        # Delta * L_r is small here, where the 1 / (j Delta) form can cancel
        geom = replace(desk.geometry, L_r=3.0 * desk.wdm.wavelength, d_z=-0.4)
        assert _oracle_mismatch(geom, desk.wdm) <= 1e-12

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        d_z=st.floats(-3.0, 3.0),
        L_r=st.floats(0.05, 0.6),
        n_modes=st.integers(1, 21),
    )
    def test_offset_and_length_property(self, desk, d_z, L_r, n_modes):
        geom = replace(desk.geometry, L_r=L_r, d_z=d_z)
        cfg = replace(desk.wdm, n_modes=n_modes)
        assert _oracle_mismatch(geom, cfg) <= 1e-12


class TestWhiten:
    def test_white_interference_passthrough(self):
        cfg = WdmConfig(wavelength=0.1, n_modes=3, sigma2_emi=1.0, sigma2_hdw=0.0)
        H = np.arange(9, dtype=complex).reshape(3, 3) + 1j
        ch = whiten(H, np.eye(3, dtype=complex), cfg)
        assert np.allclose(ch.L, np.eye(3))
        assert np.allclose(ch.H_tilde, H)

    def test_hardware_noise_only(self):
        cfg = WdmConfig(wavelength=0.1, n_modes=3, sigma2_emi=0.0, sigma2_hdw=4.0)
        H = np.arange(9, dtype=complex).reshape(3, 3) - 2j
        ch = whiten(H, np.eye(3, dtype=complex), cfg)
        assert np.allclose(ch.L, 2.0 * np.eye(3))
        assert np.allclose(ch.H_tilde, H / 2.0)

    def test_cholesky_reconstruction(self, rng):
        n = 6
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        R = A @ A.conj().T + n * np.eye(n)
        cfg = WdmConfig(wavelength=0.1, n_modes=n, sigma2_emi=0.5, sigma2_hdw=0.25)
        ch = whiten(np.eye(n, dtype=complex), R, cfg)
        err = np.linalg.norm(ch.L @ ch.L.conj().T - ch.C) / np.linalg.norm(ch.C)
        assert err < 1e-12

    def test_whitened_noise_is_white(self, desk_channel):
        # L^{-1} C L^{-H} = I by construction
        n = desk_channel.C.shape[0]
        Linv_C = np.linalg.solve(desk_channel.L, desk_channel.C)
        white = np.linalg.solve(desk_channel.L, Linv_C.conj().T).conj().T
        assert np.allclose(white, np.eye(n), atol=1e-10)

    def test_indefinite_covariance_rejected(self):
        cfg = WdmConfig(wavelength=0.1, n_modes=2, sigma2_emi=1.0)
        R = np.diag([1.0, -0.5]).astype(complex)
        with pytest.raises(np.linalg.LinAlgError, match="eigenvalue"):
            whiten(np.eye(2, dtype=complex), R, cfg)

    def test_shape_mismatch_rejected(self):
        cfg = WdmConfig(wavelength=0.1, n_modes=2, sigma2_emi=1.0)
        with pytest.raises(ValueError):
            whiten(np.eye(2, dtype=complex), np.eye(3, dtype=complex), cfg)


class TestPowerModel:
    def test_reference_budget(self):
        cfg = WdmConfig(wavelength=0.01, n_modes=1, source_power=1e-7)
        k = EmConstants(0.01)
        assert total_power(cfg) == (k.kappa * k.z0) ** 2 * 1e-7
        assert total_power(cfg) == pytest.approx(5.603e3, rel=1e-3)

    def test_zero_source_power(self):
        cfg = WdmConfig(wavelength=0.01, n_modes=1, source_power=0.0)
        assert total_power(cfg) == 0.0

    def test_emi_variance_from_snr(self):
        assert emi_variance(5603.0, 90.0) == pytest.approx(5603.0e-9, rel=1e-12)
        with pytest.raises(ValueError):
            emi_variance(0.0, 90.0)


class TestSerialization:
    def test_roundtrip_is_bit_exact(self, tmp_path):
        ch = assemble_channel_set(REDUCED_GEOM, REDUCED_CFG)
        path = tmp_path / "link.wdmch"
        save_channel_set(str(path), ch, REDUCED_GEOM, REDUCED_CFG)
        loaded = load_matching_channel_set(str(path), REDUCED_GEOM, REDUCED_CFG)
        for name in ("H", "R", "C", "L", "H_tilde"):
            assert np.array_equal(getattr(loaded, name), getattr(ch, name))

    def test_rewrite_identical_bytes(self, tmp_path):
        ch = assemble_channel_set(REDUCED_GEOM, REDUCED_CFG)
        p1, p2 = tmp_path / "a.wdmch", tmp_path / "b.wdmch"
        save_channel_set(str(p1), ch, REDUCED_GEOM, REDUCED_CFG)
        save_channel_set(str(p2), ch, REDUCED_GEOM, REDUCED_CFG)
        assert p1.read_bytes() == p2.read_bytes()

    def test_matching_load_rejects_other_geometry(self, tmp_path):
        ch = assemble_channel_set(REDUCED_GEOM, REDUCED_CFG)
        path = tmp_path / "link.wdmch"
        save_channel_set(str(path), ch, REDUCED_GEOM, REDUCED_CFG)
        other = replace(REDUCED_GEOM, d_x=1.5)
        with pytest.raises(ValueError):
            load_matching_channel_set(str(path), other, REDUCED_CFG)

    def test_cache_key_distinguishes_configs(self):
        base = channel_cache_key(REDUCED_GEOM, REDUCED_CFG)
        assert base == channel_cache_key(REDUCED_GEOM, REDUCED_CFG)
        assert base != channel_cache_key(replace(REDUCED_GEOM, d_z=0.1), REDUCED_CFG)
        assert base != channel_cache_key(
            REDUCED_GEOM, replace(REDUCED_CFG, sigma2_emi=2.0)
        )

    def test_header_contains_every_parameter(self):
        header = channel_header(REDUCED_GEOM, REDUCED_CFG)
        for token in ("L_s", "L_r", "d_x", "d_z", "theta_s", "phi_s",
                      "wavelength", "n_modes", "source_power", "sigma2_emi",
                      "sigma2_hdw", "points_per_wavelength", "nodes_per_panel"):
            assert token in header


class TestChannelSetAssembly:
    def test_composition(self, desk, desk_channel):
        H = assemble_H(desk.geometry, desk.wdm)
        R = assemble_R(desk.geometry, desk.wdm)
        assert np.array_equal(desk_channel.H, H)
        assert np.array_equal(desk_channel.R, R)
        direct = whiten(H, R, desk.wdm)
        assert np.array_equal(desk_channel.H_tilde, direct.H_tilde)

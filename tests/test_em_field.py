import math
import warnings

import numpy as np
import pytest

from wdmlink import channel, em_field
from wdmlink.channel import assemble_H
from wdmlink.em_field import (
    ModeIndex,
    NearFieldWarning,
    boresight_reference_peak,
    green_dyadic_ff,
    gz_kernel,
    peak_location_boresight,
    radiation_pattern,
    received_field_profile,
    source_direction,
    spatial_frequency,
    tone_fields,
)
from wdmlink.geometry import LinkGeometry, replace
from wdmlink.quadrature import QuadratureSpec, composite_gauss_nodes

from oracles import (
    closest_separation_all_pairs,
    exact_gz_kernel,
    peak_locations_general,
    s_rule,
    separation_grid,
    tone_fields_one_slab,
)


class TestSpatialFrequency:
    def test_center_mode_is_dc(self):
        assert spatial_frequency(21, 41, 0.2) == 0.0

    def test_low_mode(self):
        assert spatial_frequency(19, 41, 0.2) == pytest.approx(-4.0 * math.pi / 0.2, rel=1e-15)

    def test_high_mode(self):
        assert spatial_frequency(26, 41, 0.2) == pytest.approx(10.0 * math.pi / 0.2, rel=1e-15)

    def test_mode_bounds(self):
        with pytest.raises(ValueError):
            spatial_frequency(0, 41, 0.2)
        with pytest.raises(ValueError):
            spatial_frequency(42, 41, 0.2)


class TestGreenDyadic:
    def test_axial_separation_has_no_longitudinal_field(self):
        wavelength = 0.01
        G = green_dyadic_ff(np.array([0.0, 0.0, 3.0]), np.zeros(3), wavelength)
        assert abs(G[2, 2]) < 1e-16

    def test_amplitude_law(self):
        wavelength = 0.01
        d = 0.01 * 1e6
        G = green_dyadic_ff(np.array([d, 0.0, 0.0]), np.zeros(3), wavelength)
        assert np.max(np.abs(G)) == pytest.approx(1.0 / (4.0 * math.pi * d), rel=1e-12)

    def test_transverse_entry_closed_form(self):
        wavelength = 0.01
        G = green_dyadic_ff(np.array([5.0, 0.0, 0.0]), np.zeros(3), wavelength)
        expected = np.exp(1j * (2.0 * math.pi / wavelength) * 5.0) / (20.0 * math.pi)
        assert G[1, 1] == pytest.approx(expected, rel=1e-12)

    def test_coincident_points_rejected(self):
        wavelength = 0.01
        with pytest.raises(ValueError):
            green_dyadic_ff(np.zeros(3), np.zeros(3), wavelength)

    def test_near_field_warns(self):
        wavelength = 0.01
        with pytest.warns(NearFieldWarning):
            green_dyadic_ff(np.array([0.05, 0.0, 0.0]), np.zeros(3), wavelength)


class TestGzKernel:
    def test_vertical_source_closed_form(self, rng):
        wavelength = 0.02
        u = rng.uniform(-3.0, 3.0, size=(50, 3))
        u[:, 0] += 4.0
        got = gz_kernel(u, 0.0, 0.0, wavelength)
        d = np.linalg.norm(u, axis=-1)
        # exp(j kappa d) with the phase reduced in cycles first: the same
        # value, without the ~1e-13 rounding of kappa d at hundreds of radians
        c = d / wavelength
        phase = np.exp(2j * np.pi * (c - np.rint(c)))
        expected = phase * (u[:, 0] ** 2 + u[:, 1] ** 2) / (4.0 * math.pi * d**3)
        assert np.allclose(got, expected, rtol=1e-13, atol=0.0)

    def test_axial_direction_vanishes(self):
        wavelength = 0.02
        assert gz_kernel(np.array([0.0, 0.0, 2.0]), 0.0, 0.0, wavelength) == 0.0

    def test_matches_dyadic_contraction_at_quoted_point(self):
        wavelength = 0.01
        th = math.radians(10.0)
        u = np.array([5.0, 0.0, 1.0])
        G = green_dyadic_ff(u, np.zeros(3), wavelength)
        expected = G[2, :] @ source_direction(th, 0.0)
        assert gz_kernel(u, th, 0.0, wavelength) == pytest.approx(expected, rel=1e-12)

    def test_matches_dyadic_contraction_randomized(self, rng):
        wavelength = 0.01
        worst = 0.0
        for _ in range(1000):
            u = rng.uniform(-2.0, 2.0, size=3)
            u[0] += 3.0
            th = rng.uniform(0.0, math.pi)
            ph = rng.uniform(0.0, 2.0 * math.pi)
            dyad = green_dyadic_ff(u, np.zeros(3), wavelength)
            reference = dyad[2, :] @ source_direction(th, ph)
            got = gz_kernel(u, th, ph, wavelength)
            if reference != 0.0:
                worst = max(worst, abs(got - reference) / abs(reference))
        assert worst < 1e-12


class TestExactKernelLimit:
    def test_exact_kernel_tends_to_far_field(self):
        # the exact dyad's brackets a = 1 + j/kr - 1/(kr)^2 and
        # b = 1 + 3j/kr - 3/(kr)^2 multiply terms of modulus <= 1 in units of
        # 1/(4 pi r), so the two kernels differ by at most 4/kr + 4/(kr)^2
        # there, plus rounding; separations with exact norms give both the
        # same r / lambda, so their phases agree to rounding at any kr, and
        # past kr ~ 1e17 the kernels agree to rounding (~0.8 eps seen)
        u = np.array([[3.0, 0.0, 4.0], [2.0, 3.0, 6.0], [1.0, 4.0, 8.0], [6.0, 6.0, 7.0]])
        r = np.array([5.0, 7.0, 9.0, 11.0])
        eps = np.finfo(float).eps
        for p in range(0, 64, 3):
            wavelength = 0.7 * 2.0**-p
            kr = 2.0 * math.pi / wavelength * r
            for th, ph in ((0.0, 0.0), (0.3, 1.1), (1.2, 2.5), (math.pi / 2, 0.0)):
                exact = exact_gz_kernel(u, th, ph, wavelength)
                gap = np.abs(exact - gz_kernel(u, th, ph, wavelength)) * (4.0 * math.pi * r)
                assert np.all(gap <= 4.0 / kr + 4.0 / kr**2 + 4.0 * eps)
                if kr.min() > 1e17:
                    assert np.all(gap <= 4.0 * eps)


class TestPhasor:
    def test_matches_cos_and_sin_of_reduced_angle(self, rng):
        cycles = rng.uniform(-1e4, 1e4, size=200_000)
        got = em_field._phasor(cycles)
        angle = 2.0 * np.pi * (cycles - np.rint(cycles))
        assert np.max(np.abs(got.real - np.cos(angle))) <= 1e-15
        assert np.max(np.abs(got.imag - np.sin(angle))) <= 1e-15

    def test_exact_at_eighth_turns(self):
        # c = k / 8 for k = -4..4 after reduction, c = +/-1/2 included
        eighths = np.arange(-12, 13)
        got = em_field._phasor(eighths / 8.0 + 1000.0)
        h = math.sqrt(0.5)
        unit = [1.0, h, 0.0, -h, -1.0, -h, 0.0, h]
        exact_cos = np.array([unit[k % 8] for k in eighths])
        exact_sin = np.array([unit[(k - 2) % 8] for k in eighths])
        # one unit in the last place of 1, and +/-1 itself where cos is +/-1
        assert np.max(np.abs(got.real - exact_cos)) <= 2.0**-52
        assert np.max(np.abs(got.imag - exact_sin)) <= 2.0**-52
        assert np.all(got.real[eighths % 4 == 0] == exact_cos[eighths % 4 == 0])

    def test_real_scale_broadcasts(self, rng):
        cycles = rng.uniform(-50.0, 50.0, size=(7, 5))
        scale = rng.uniform(-3.0, 3.0, size=(7, 1))
        got = em_field._phasor(cycles, scale)
        assert got.shape == cycles.shape
        expected = scale * np.exp(2j * np.pi * (cycles - np.rint(cycles)))
        assert np.max(np.abs(got - expected)) <= 1e-15 * np.max(np.abs(scale))


class TestRadiationPattern:
    def test_peak_value_identity(self, full_scale):
        wdm, geom = full_scale.wdm, full_scale.geometry
        for n in range(1, wdm.n_modes + 1):
            m = ModeIndex.from_mode_number(n, wdm.n_modes, geom.L_s, wdm.wavelength)
            g = min(1.0, max(-1.0, m.gamma_n))
            val = radiation_pattern(math.acos(g), m, geom, wdm.wavelength)
            assert abs(val - (1.0 - g * g)) < 1e-12

    def test_center_mode_broadside_maximum(self, desk):
        wavelength = desk.wdm.wavelength
        m = ModeIndex.from_mode_number(11, 21, desk.geometry.L_s, wavelength)
        value = radiation_pattern(math.pi / 2.0, m, desk.geometry, wavelength)
        assert value == pytest.approx(1.0, abs=1e-15)

    def test_grid_argmax_near_cone_angle(self, full_scale):
        # gamma = 0.25 beams toward acos(0.25) = 75.52 deg
        wavelength = full_scale.wdm.wavelength
        m = ModeIndex.from_mode_number(26, 41, full_scale.geometry.L_s, wavelength)
        assert m.gamma_n == pytest.approx(0.25, rel=1e-15)
        grid = np.radians(np.arange(0.0, 180.0001, 0.01))
        vals = radiation_pattern(grid, m, full_scale.geometry, wavelength)
        best = math.degrees(grid[int(np.argmax(vals))])
        assert abs(best - math.degrees(math.acos(0.25))) < 0.5

    def test_range_validation(self, desk):
        wavelength = desk.wdm.wavelength
        m = ModeIndex.from_mode_number(11, 21, desk.geometry.L_s, wavelength)
        with pytest.raises(ValueError):
            radiation_pattern(-0.1, m, desk.geometry, wavelength)
        with pytest.raises(ValueError):
            radiation_pattern(math.pi + 0.1, m, desk.geometry, wavelength)


# A rule whose desk receive segment (1600 nodes) spans many blocks of
# tone_fields whatever the block size; the default rule gives 400 nodes.
SEVERAL_BLOCKS_SPEC = QuadratureSpec(points_per_wavelength=16.0, nodes_per_panel=8)


def _tilted_receive_nodes(desk):
    """A tilted desk link, its wavelength and SEVERAL_BLOCKS_SPEC receive nodes.

    A 0.99 m receive segment has 1584 nodes, so the last block is short.
    """
    geom = replace(
        desk.geometry,
        L_r=0.99,
        theta_s=math.radians(35.0),
        phi_s=math.radians(70.0),
        d_z=0.3,
    )
    wavelength = desk.wdm.wavelength
    r_z, _ = composite_gauss_nodes(
        geom.d_z - geom.L_r / 2, geom.d_z + geom.L_r / 2, wavelength / 2, SEVERAL_BLOCKS_SPEC
    )
    return geom, wavelength, r_z


class TestToneFields:
    def test_ragged_blocks_match_one_slab(self, desk):
        geom, wavelength, r_z = _tilted_receive_nodes(desk)
        spec = SEVERAL_BLOCKS_SPEC
        rows = em_field._BLOCK_PAIRS // s_rule(geom, wavelength, spec)[0].size
        assert r_z.size > rows and r_z.size % rows != 0  # several blocks, last ragged
        kappas = np.array(
            [spatial_frequency(n, desk.wdm.n_modes, geom.L_s) for n in (1, 6, 11, 21)]
        )
        got = tone_fields(geom, wavelength, r_z, kappas, spec)
        assert np.array_equal(got, tone_fields_one_slab(geom, wavelength, r_z, kappas, spec))

    def test_kernel_blocks_equal_gz_kernel_bit_for_bit(self, desk):
        # each block is written in place into the same arrays, so it is
        # copied before the next one is requested
        geom, wavelength, r_z = _tilted_receive_nodes(desk)
        s_nodes, _ = s_rule(geom, wavelength, SEVERAL_BLOCKS_SPEC)
        blocks = [
            (rows, kern.copy())
            for rows, kern in em_field._kernel_blocks(geom, wavelength, r_z, s_nodes)
        ]
        assert len(blocks) > 2 and blocks[-1][1].shape[0] < blocks[0][1].shape[0]
        assert blocks[-1][0].stop == r_z.size
        u = separation_grid(geom, r_z, s_nodes)
        expected = gz_kernel(u, geom.theta_s, geom.phi_s, wavelength)
        for rows, kern in blocks:
            assert np.array_equal(kern, expected[rows])

    def test_grid_within_one_block_matches_one_slab(self, desk):
        geom = replace(desk.geometry, theta_s=math.radians(12.0))
        spec = desk.wdm.quadrature
        wavelength = desk.wdm.wavelength
        r_z = np.linspace(-0.4, 0.45, 7)
        kappas = np.array([spatial_frequency(4, desk.wdm.n_modes, geom.L_s)])
        got = tone_fields(geom, wavelength, r_z, kappas, spec)
        assert np.array_equal(got, tone_fields_one_slab(geom, wavelength, r_z, kappas, spec))


class TestReceivedFieldProfile:
    def test_center_mode_profile_is_symmetric(self, desk):
        wavelength = desk.wdm.wavelength
        m = ModeIndex.from_mode_number(11, 21, desk.geometry.L_s, wavelength)
        grid = np.linspace(-0.5, 0.5, 401)
        field = received_field_profile(m, desk.geometry, wavelength, grid, desk.wdm.quadrature)
        prof = np.abs(field)
        assert np.max(np.abs(prof - prof[::-1])) < 1e-9 * np.max(prof)

    def test_tilted_peaks_match_cone_intersection(self, desk):
        # every tilt and mode whose beam cone meets the receive line once,
        # at least 0.1 m inside the segment: the |e_z| maximum lies within
        # c04's tolerance of the intersection
        wdm = desk.wdm
        wavelength = wdm.wavelength
        grid = np.linspace(-0.5, 0.5, 1201)
        tol = max(wdm.wavelength, 2.0 * (grid[1] - grid[0]))
        checked = 0
        for theta_deg in (5, 10, 15, 20, 30):
            for phi_deg in (0, 45, 90, 135, 180, 270):
                geom = replace(
                    desk.geometry,
                    theta_s=math.radians(theta_deg),
                    phi_s=math.radians(phi_deg),
                )
                for n in range(1, wdm.n_modes + 1):
                    m = ModeIndex.from_mode_number(n, wdm.n_modes, geom.L_s, wavelength)
                    peaks = peak_locations_general(m, geom)
                    if len(peaks) != 1 or abs(peaks[0].r_z) > geom.L_r / 2 - 0.1:
                        continue
                    prof = np.abs(
                        received_field_profile(m, geom, wavelength, grid, wdm.quadrature)
                    )
                    assert abs(grid[np.argmax(prof)] - peaks[0].r_z) <= tol
                    checked += 1
        assert checked > 100

    def test_grid_outside_segment_rejected(self, desk):
        wavelength = desk.wdm.wavelength
        m = ModeIndex.from_mode_number(11, 21, desk.geometry.L_s, wavelength)
        with pytest.raises(ValueError):
            received_field_profile(
                m, desk.geometry, wavelength, np.array([0.0, 0.51]), desk.wdm.quadrature
            )

    def test_short_range_warns(self, desk):
        geom = replace(desk.geometry, d_x=0.1)  # below the 10-wavelength guard
        wavelength = desk.wdm.wavelength
        m = ModeIndex.from_mode_number(11, 21, desk.geometry.L_s, wavelength)
        with pytest.warns(NearFieldWarning) as record:
            received_field_profile(m, geom, wavelength, np.zeros(1), desk.wdm.quadrature)
        assert record[0].filename == __file__  # attributed to the caller

    def test_guard_takes_minimum_over_all_blocks(self, desk):
        # broadside segment along x: only receive heights within ~9 cm of
        # r_z = 0 come closer than 10 wavelengths (0.2 m); with four blocks
        # those heights lie in the two middle ones
        geom = replace(desk.geometry, d_x=0.28, theta_s=math.pi / 2)
        spec = desk.wdm.quadrature
        wavelength = desk.wdm.wavelength
        m = ModeIndex.from_mode_number(11, 21, geom.L_s, wavelength)
        s_nodes, _ = s_rule(geom, wavelength, spec)
        rows = em_field._BLOCK_PAIRS // s_nodes.size
        grid = np.linspace(-geom.L_r / 2, geom.L_r / 2, 4 * rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error", NearFieldWarning)
            received_field_profile(m, geom, wavelength, grid[:rows], spec)
            received_field_profile(m, geom, wavelength, grid[-rows:], spec)
        with pytest.warns(NearFieldWarning) as record:
            received_field_profile(m, geom, wavelength, grid, spec)
        assert len(record) == 1
        assert record[0].filename == __file__
        d_min = np.min(np.hypot(geom.d_x - s_nodes[None, :], grid[:, None]))
        assert f"{d_min:.3g} m" in str(record[0].message)


class TestNearFieldGuard:
    """One closest-separation search serves tone_fields and both forms of H.

    d_x from 10 to 12 wavelengths is where the guard's verdict turns on
    the orientation; the last geometry puts the receive segment 4
    wavelengths out, its near end ``near_gap`` wavelengths above the
    source centre, within the guard but on H's reduced path.
    """

    ORIENTATIONS = [(0.0, 0.0), (0.3, 1.1), (1.2, 0.5), (math.pi / 2, math.pi / 2)]
    NEAR_GAPS = [("desk", 12.5), ("full_scale", 15.0)]

    @staticmethod
    def _geometries(link, wavelength, near_gap):
        for d_x_wavelengths in (10.0, 11.0, 12.0):
            for d_z in (0.0, 0.4):
                for theta_s, phi_s in TestNearFieldGuard.ORIENTATIONS:
                    yield replace(
                        link, d_x=d_x_wavelengths * wavelength, d_z=d_z,
                        theta_s=theta_s, phi_s=phi_s,
                    )
        yield replace(link, d_x=4.0 * wavelength, d_z=0.5 + near_gap * wavelength, L_r=1.0)

    @staticmethod
    def _nodes(geom, wdm):
        r_z, _ = composite_gauss_nodes(
            geom.d_z - geom.L_r / 2, geom.d_z + geom.L_r / 2, wdm.wavelength / 2, wdm.quadrature
        )
        return r_z, s_rule(geom, wdm.wavelength, wdm.quadrature)[0]

    @pytest.mark.parametrize("profile, near_gap", NEAR_GAPS)
    def test_closest_separation_is_the_all_pairs_minimum(self, request, profile, near_gap):
        cfg = request.getfixturevalue(profile)
        for geom in self._geometries(cfg.geometry, cfg.wdm.wavelength, near_gap):
            r_z, s_nodes = self._nodes(geom, cfg.wdm)
            oracle = closest_separation_all_pairs(geom, r_z, s_nodes)
            assert em_field._closest_separation(geom, r_z, s_nodes) == oracle

    @pytest.mark.parametrize("profile, near_gap", NEAR_GAPS)
    def test_assemble_H_warns_where_the_pairs_come_within_the_guard(
        self, request, profile, near_gap
    ):
        cfg = request.getfixturevalue(profile)
        wdm = cfg.wdm
        warned = 0
        for geom in self._geometries(cfg.geometry, wdm.wavelength, near_gap):
            d_min = closest_separation_all_pairs(geom, *self._nodes(geom, wdm))
            with warnings.catch_warnings(record=True) as record:
                warnings.simplefilter("always")
                assemble_H(geom, wdm)
            messages = [str(w.message) for w in record if w.category is NearFieldWarning]
            if d_min < 10.0 * wdm.wavelength:
                assert messages == [
                    f"closest source/receive separation {d_min:.3g} m is below 10 wavelengths"
                ]
                assert record[0].filename == __file__  # attributed to the caller
                warned += 1
            else:
                assert messages == []
        assert 0 < warned < 25  # both verdicts occur
        # the last geometry warns on the reduced path of H
        with pytest.warns(NearFieldWarning):
            _, _, n, _ = channel.H_against_direct_sum(geom, wdm)
        assert messages and n is not None

    def test_no_pair_on_an_empty_grid(self, desk):
        geom, wavelength = desk.geometry, desk.wdm.wavelength
        s_nodes, _ = s_rule(geom, wavelength, desk.wdm.quadrature)
        assert em_field._closest_separation(geom, np.array([]), s_nodes) == math.inf
        m = ModeIndex.from_mode_number(11, 21, geom.L_s, wavelength)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            e_z = received_field_profile(m, geom, wavelength, [], desk.wdm.quadrature)
        assert e_z.shape == (0,) and e_z.dtype == complex

    def test_tone_fields_take_an_unsorted_grid(self, desk):
        geom = replace(desk.geometry, d_x=0.21, theta_s=math.pi / 2)
        wavelength = desk.wdm.wavelength
        s_nodes, _ = s_rule(geom, wavelength, desk.wdm.quadrature)
        grid = np.array([0.3, -0.02, 0.45, -0.4, 0.01])
        d_min = closest_separation_all_pairs(geom, grid, s_nodes)
        assert d_min < 10.0 * wavelength
        m = ModeIndex.from_mode_number(11, 21, geom.L_s, wavelength)
        with pytest.warns(NearFieldWarning, match=f"separation {d_min:.3g} m "):
            received_field_profile(m, geom, wavelength, grid, desk.wdm.quadrature)


class TestPeakLocationBoresight:
    def test_center_mode_at_segment_level(self, desk):
        wavelength = desk.wdm.wavelength
        m = ModeIndex.from_mode_number(11, 21, desk.geometry.L_s, wavelength)
        peak = peak_location_boresight(m, desk.geometry)
        assert peak.r_z == 0.0
        assert peak.in_segment

    def test_quarter_gamma(self):
        geom = LinkGeometry(L_s=0.2, L_r=3.0, d_x=5.0)
        m = ModeIndex(n=26, kappa_n=0.25 * 2.0 * math.pi / 0.01, gamma_n=0.25)
        peak = peak_location_boresight(m, geom)
        assert peak.r_z == pytest.approx(1.2910, abs=5e-5)
        assert peak.in_segment

    def test_grazing_gamma_far_outside(self):
        geom = LinkGeometry(L_s=0.2, L_r=3.0, d_x=5.0)
        m = ModeIndex(n=41, kappa_n=0.999 * 2.0 * math.pi / 0.01, gamma_n=0.999)
        peak = peak_location_boresight(m, geom)
        assert peak.r_z == pytest.approx(111.8, abs=0.1)
        assert not peak.in_segment

    def test_parallel_direction_rejected(self, desk):
        m = ModeIndex(n=1, kappa_n=0.0, gamma_n=1.0)
        with pytest.raises(ValueError):
            peak_location_boresight(m, desk.geometry)


class TestPeakLocationsGeneral:
    def test_reduces_to_boresight(self, desk):
        wavelength = desk.wdm.wavelength
        for n in (8, 10, 11, 13, 15):
            m = ModeIndex.from_mode_number(n, 21, desk.geometry.L_s, wavelength)
            peaks = peak_locations_general(m, desk.geometry)
            assert len(peaks) == 1
            reference = peak_location_boresight(m, desk.geometry)
            assert peaks[0].r_z == pytest.approx(reference.r_z, abs=1e-12)
            assert peaks[0].in_segment == reference.in_segment

    def test_tilted_center_mode(self, desk):
        th = math.radians(10.0)
        geom = replace(desk.geometry, theta_s=th)
        m = ModeIndex(n=11, kappa_n=0.0, gamma_n=0.0)
        peaks = peak_locations_general(m, geom)
        assert len(peaks) == 1
        assert peaks[0].r_z == pytest.approx(-desk.geometry.d_x * math.tan(th), rel=1e-12)
        assert peaks[0].in_segment

    def test_no_intersection_when_discriminant_negative(self, desk):
        # sin^2(phi) sin^2(theta) = 0.413 > 1 - gamma^2 = 0.36
        geom = replace(desk.geometry, theta_s=math.radians(40.0), phi_s=math.radians(90.0))
        m = ModeIndex(n=19, kappa_n=0.0, gamma_n=0.8)
        assert peak_locations_general(m, geom) == []

    def test_degenerate_denominator(self, desk):
        # cos^2(theta) == gamma^2 collapses the quadratic to a linear equation
        geom = replace(desk.geometry, theta_s=math.pi / 3.0)
        m = ModeIndex(n=16, kappa_n=0.5 * 2.0 * math.pi / 0.02, gamma_n=0.5)
        peaks = peak_locations_general(m, geom)
        assert len(peaks) == 1
        assert peaks[0].r_z == pytest.approx(-desk.geometry.d_x * math.tan(math.pi / 6.0), rel=1e-12)

    def test_roots_lie_on_beam_cone(self, desk, rng):
        # every admissible root keeps r_hat . s_hat = gamma_n
        wavelength = desk.wdm.wavelength
        checked = 0
        for _ in range(300):
            n = int(rng.integers(2, 21))
            th = rng.uniform(0.0, math.radians(60.0))
            ph = rng.uniform(0.0, 2.0 * math.pi)
            geom = replace(desk.geometry, theta_s=th, phi_s=ph)
            m = ModeIndex.from_mode_number(n, 21, desk.geometry.L_s, wavelength)
            s_hat = source_direction(th, ph)
            for peak in peak_locations_general(m, geom):
                r = np.array([geom.d_x, 0.0, peak.r_z])
                r_hat = r / np.linalg.norm(r)
                assert abs(float(r_hat @ s_hat) - m.gamma_n) < 1e-9
                checked += 1
        assert checked > 100


class TestBoresightReferencePeak:
    def test_matches_center_mode_maximum(self, desk):
        wavelength = desk.wdm.wavelength
        grid = np.linspace(-0.5, 0.5, 801)
        m = ModeIndex.from_mode_number(11, 21, desk.geometry.L_s, wavelength)
        field = received_field_profile(m, desk.geometry, wavelength, grid, desk.wdm.quadrature)
        prof = np.abs(field)
        e0 = boresight_reference_peak(desk.geometry, wavelength, grid, desk.wdm.quadrature)
        assert e0 == pytest.approx(float(np.max(prof)), rel=1e-12)

    def test_independent_of_orientation(self, desk):
        wavelength = desk.wdm.wavelength
        grid = np.linspace(-0.5, 0.5, 801)
        tilted = replace(desk.geometry, theta_s=0.4, phi_s=1.0)
        a = boresight_reference_peak(desk.geometry, wavelength, grid, desk.wdm.quadrature)
        b = boresight_reference_peak(tilted, wavelength, grid, desk.wdm.quadrature)
        assert a == b

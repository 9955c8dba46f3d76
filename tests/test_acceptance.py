"""Acceptance suite: one test per release criterion.

Each test prints a PASS/FAIL verdict line through the conftest hook, so
running ``pytest tests/test_acceptance.py`` yields one line per
criterion.  Tolerances are stated inline next to each assertion.
"""

import math

import numpy as np
import pytest

from wdmlink.channel import assemble_H, assemble_R, noise_factor
from wdmlink.config import max_modes, total_power
from wdmlink.em_field import (
    ModeIndex,
    boresight_reference_peak,
    peak_location_boresight,
    radiation_pattern,
    received_field_profile,
    rotation_matrix,
    source_direction,
)
from wdmlink.experiments import run_avg_sweep, run_sweep
from wdmlink.geometry import replace
from wdmlink.numerical import run_field, run_pattern
from wdmlink.receivers import Scheme, spectral_efficiency, waterfill

from oracles import (
    REDUCED_CFG,
    REDUCED_GEOM,
    channel_set,
    midpoint_coupling_oracle,
    scheme_matrices,
    sinr,
)


@pytest.fixture(scope="module")
def desk_dz_sweep(desk, tmp_path_factory):
    """The 21-point d_z sweep of the desk link, shared by two criteria."""
    path = tmp_path_factory.mktemp("acceptance") / "dz_sweep.csv"
    return run_sweep(desk, str(path))


def test_c01_mode_count_and_wavenumber_spacing():
    assert max_modes(0.2, 0.01) == 41
    assert abs(2.0 * math.pi / 0.2 - 31.41) < 1e-2


def test_c02_rotation_matrix_orthonormality(rng):
    eye = np.eye(3)
    for phi in (0.0, 0.7, math.pi, 5.1):
        assert np.array_equal(rotation_matrix(0.0, phi), eye)
    for _ in range(1000):
        theta = rng.uniform(0.0, math.pi)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        q = rotation_matrix(theta, phi)
        assert np.linalg.norm(q.T @ q - eye) < 1e-12
        assert abs(np.linalg.det(q) - 1.0) < 1e-12
        assert np.linalg.norm(q @ source_direction(theta, phi) - np.array([0, 0, 1.0])) < 1e-12


def test_c03_radiation_pattern_peak_values_and_locations(full_scale):
    geom, wdm = full_scale.geometry, full_scale.wdm
    wavelength = wdm.wavelength
    theta_grid = np.radians(np.linspace(0.0, 180.0, 1801))
    for n in range(1, wdm.n_modes + 1):
        mode = ModeIndex.from_mode_number(n, wdm.n_modes, geom.L_s, wavelength)
        gamma = mode.gamma_n
        on_axis = radiation_pattern(np.array([math.acos(gamma)]), mode, geom, wavelength)[0]
        assert abs(on_axis - (1.0 - gamma**2)) <= 1e-12
        if abs(gamma) <= 0.9:
            pattern = radiation_pattern(theta_grid, mode, geom, wavelength)
            grid_peak = theta_grid[int(np.argmax(pattern))]
            assert abs(math.degrees(grid_peak) - math.degrees(math.acos(gamma))) < 0.5


def test_c04_field_peak_locations_and_heights(desk):
    geom, wdm = desk.geometry, desk.wdm
    wavelength = wdm.wavelength
    grid = np.linspace(-geom.L_r / 2.0, geom.L_r / 2.0, 2001)
    tol = max(wdm.wavelength, 2.0 * (grid[1] - grid[0]))
    e0 = boresight_reference_peak(geom, wavelength, grid, wdm.quadrature)
    # modes whose beam cone meets the receive segment (|gamma| <= 0.2 here)
    for n in (9, 10, 11, 12, 13):
        mode = ModeIndex.from_mode_number(n, wdm.n_modes, geom.L_s, wavelength)
        prof = np.abs(received_field_profile(mode, geom, wavelength, grid, wdm.quadrature)) / e0
        i = int(np.argmax(prof))
        peak = peak_location_boresight(mode, geom)
        assert peak.in_segment
        assert abs(grid[i] - peak.r_z) <= tol
        expected = (1.0 - mode.gamma_n**2) ** 1.5
        assert abs(prof[i] - expected) <= 0.05 * expected
    # a 10 degree tilt walks the center beam to -d_x tan(theta_s) and
    # scales its peak by cos^2(theta_s)
    theta_s = math.radians(10.0)
    tilted = replace(geom, theta_s=theta_s)
    center = ModeIndex.from_mode_number(11, wdm.n_modes, geom.L_s, wavelength)
    prof = np.abs(received_field_profile(center, tilted, wavelength, grid, wdm.quadrature)) / e0
    i = int(np.argmax(prof))
    assert abs(grid[i] - (-geom.d_x * math.tan(theta_s))) <= tol
    expected = math.cos(theta_s) ** 2
    assert abs(prof[i] - expected) <= 0.05 * expected


def test_c05_coupling_matrix_against_midpoint_oracle():
    H = assemble_H(REDUCED_GEOM, REDUCED_CFG)
    # 1000 x 1200 midpoint nodes: 1.2e6 total, independent inline kernel
    oracle = midpoint_coupling_oracle(REDUCED_GEOM, REDUCED_CFG, 1000, 1200)
    err = np.linalg.norm(H - oracle) / np.linalg.norm(oracle)
    assert err < 1e-4


def test_c06_quadrature_convergence_under_node_doubling(desk):
    geom, wdm = desk.geometry, desk.wdm
    fine = replace(
        wdm,
        quadrature=replace(
            wdm.quadrature, points_per_wavelength=2.0 * wdm.quadrature.points_per_wavelength
        ),
    )
    H, H_fine = assemble_H(geom, wdm), assemble_H(geom, fine)
    assert np.linalg.norm(H - H_fine) / np.linalg.norm(H_fine) < 1e-6
    R, R_fine = assemble_R(geom, wdm), assemble_R(geom, fine)
    assert np.linalg.norm(R - R_fine) / np.linalg.norm(R_fine) < 1e-6


def test_c07_noise_covariance_and_whitening(desk):
    # the factor a run whitens with, against C at d_z = 0
    geom, wdm = desk.geometry, desk.wdm
    R = assemble_R(replace(geom, d_z=0.0), wdm)
    C = wdm.sigma2_emi * R + wdm.sigma2_hdw * np.eye(wdm.n_modes)
    L = noise_factor(geom, wdm)
    assert np.array_equal(R, R.conj().T)
    eigs = np.linalg.eigvalsh(R)
    assert eigs.min() >= -1e-10 * eigs.max()
    assert np.linalg.norm(L @ L.conj().T - C) / np.linalg.norm(C) < 1e-12


def test_c08_waterfilling_budget_and_kkt(rng):
    p, mu = waterfill(np.array([2.0, 1.0]), 1.0)
    assert p[0] == 0.75 and p[1] == 0.25
    for _ in range(50):
        chi = rng.uniform(0.01, 20.0, rng.integers(2, 12))
        power = float(rng.uniform(0.1, 50.0))
        p, mu = waterfill(chi, power)
        assert abs(p.sum() - power) <= 1e-9 * power
        for pn, cn in zip(p, chi):
            if pn > 0.0:
                # active modes share one water level mu = p_n + 1/chi_n
                assert abs(mu - (pn + 1.0 / cn)) <= 1e-9 * mu
            else:
                # inactive modes sit above the water line
                assert 1.0 / cn >= mu * (1.0 - 1e-12)


def test_c09_svd_receiver_consistency(desk, desk_channel):
    power = total_power(desk.wdm)
    H = desk_channel.H_tilde
    res = spectral_efficiency(Scheme.SVD, H, power)
    sigma2 = np.linalg.svd(H, compute_uv=False) ** 2
    # combining with U behind precoder V leaves the modes interference-free
    V, U, _ = scheme_matrices(Scheme.SVD, H)
    svd_sinr = sinr(U, H @ V, res.p)
    assert np.allclose(svd_sinr, res.p * sigma2, rtol=1e-9, atol=1e-12)
    se_from_sinr = float(np.sum(np.log2(1.0 + svd_sinr)))
    assert abs(res.se_total - se_from_sinr) <= 1e-9 * res.se_total
    # SINR must not depend on the combiner column's scale
    A, B, _ = scheme_matrices(Scheme.MR, H)
    effective = H @ A
    p = np.full(H.shape[0], power / H.shape[0])
    base = sinr(B, effective, p)
    for n in (0, 7, 15):
        for scale in (5.0j, 0.003 - 2.0j):
            scaled = B.copy()
            scaled[:, n] *= scale
            assert abs(sinr(scaled, effective, p)[n] - base[n]) <= 1e-12 * base[n]


def test_c10_scheme_ordering(desk_dz_sweep, rng):
    for rec in desk_dz_sweep:
        assert rec.se_svd >= rec.se_mmse >= rec.se_mr
    for _ in range(100):
        n = int(rng.integers(2, 7))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        power = float(rng.uniform(0.5, 50.0))
        se = {
            kind: spectral_efficiency(kind, g, power).se_total
            for kind in (Scheme.SVD, Scheme.MMSE, Scheme.MR)
        }
        assert se[Scheme.SVD] >= se[Scheme.MMSE] - 1e-9
        assert se[Scheme.MMSE] >= se[Scheme.MR] - 1e-9


def test_c11_geometry_trends(desk, desk_channel, desk_dz_sweep):
    first, last = desk_dz_sweep[0], desk_dz_sweep[-1]
    assert last.se_svd < first.se_svd
    assert last.se_mmse < first.se_mmse
    assert last.se_mr < first.se_mr
    assert last.se_plain < first.se_plain
    power = total_power(desk.wdm)
    plain_broadside = spectral_efficiency(Scheme.PLAIN, desk_channel.H_tilde, power).se_total
    theta = math.radians(30.0)
    tilted_x = channel_set(replace(desk.geometry, theta_s=theta), desk.wdm)
    plain_x = spectral_efficiency(Scheme.PLAIN, tilted_x.H_tilde, power).se_total
    tilted_y = channel_set(
        replace(desk.geometry, theta_s=theta, phi_s=math.radians(90.0)), desk.wdm
    )
    plain_y = spectral_efficiency(Scheme.PLAIN, tilted_y.H_tilde, power).se_total
    assert plain_x < plain_broadside
    assert plain_y > plain_x


def test_c12_byte_identical_reruns(desk, tmp_path):
    cfg = replace(desk, sweep=replace(desk.sweep, count=5))
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_sweep(cfg, str(path_a))
    run_sweep(cfg, str(path_b))
    assert path_a.read_bytes() == path_b.read_bytes()
    # every CSV-writing runner, CSV and SVG, at small sizes
    small = replace(
        desk,
        sweep=replace(desk.sweep, count=3),
        pattern=replace(desk.pattern, step_deg=10.0),
        field=replace(desk.field, grid_points=9),
    )
    avg = replace(
        small,
        sweep=replace(small.sweep, parameter="d_x", start=2.0, stop=3.0, count=2, draws_per_phi=2),
    )
    for name, runner, run_cfg in (
        ("sweep", run_sweep, small),
        ("avg", run_avg_sweep, avg),
        ("pattern", run_pattern, small),
        ("field", run_field, small),
    ):
        outputs = []
        for rerun in "ab":
            paths = [tmp_path / f"{name}_{rerun}.{ext}" for ext in ("csv", "svg")]
            runner(run_cfg, *map(str, paths))
            outputs.append([path.read_bytes() for path in paths])
        assert outputs[0] == outputs[1], name

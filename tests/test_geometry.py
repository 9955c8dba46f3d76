import math

import numpy as np
import pytest

from wdmlink.em_field import rotation_matrix, source_direction
from wdmlink.geometry import LinkGeometry


class TestLinkGeometry:
    def test_defaults_are_broadside(self):
        g = LinkGeometry(L_s=0.2, L_r=1.0, d_x=2.0)
        assert g.d_z == 0.0
        assert g.theta_s == 0.0
        assert g.phi_s == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(L_s=0.0, L_r=1.0, d_x=2.0),
            dict(L_s=0.2, L_r=-1.0, d_x=2.0),
            dict(L_s=0.2, L_r=1.0, d_x=0.0),
            dict(L_s=0.2, L_r=1.0, d_x=2.0, theta_s=-0.1),
            dict(L_s=0.2, L_r=1.0, d_x=2.0, theta_s=math.pi + 0.1),
            dict(L_s=0.2, L_r=1.0, d_x=2.0, phi_s=2.0 * math.pi),
            dict(L_s=0.2, L_r=1.0, d_x=2.0, d_z=math.inf),
        ],
    )
    def test_rejects_invalid_parameters(self, kwargs):
        with pytest.raises(ValueError):
            LinkGeometry(**kwargs)


class TestSourceDirection:
    def test_vertical(self):
        assert np.allclose(source_direction(0.0, 0.0), [0.0, 0.0, 1.0])

    def test_x_axis(self):
        assert np.allclose(source_direction(math.pi / 2, 0.0), [1.0, 0.0, 0.0], atol=1e-15)

    def test_ten_degree_tilt(self):
        s = source_direction(math.radians(10.0), 0.0)
        assert s == pytest.approx([0.17365, 0.0, 0.98481], abs=5e-6)

    def test_unit_norm(self, rng):
        for _ in range(100):
            th = rng.uniform(0.0, math.pi)
            ph = rng.uniform(0.0, 2.0 * math.pi)
            assert np.linalg.norm(source_direction(th, ph)) == pytest.approx(1.0, abs=1e-15)


class TestRotationMatrix:
    def test_zero_tilt_is_exact_identity(self):
        # bitwise identity, not merely within tolerance
        for phi in (0.0, 0.3, 2.0, 6.2):
            Q = rotation_matrix(0.0, phi)
            assert np.array_equal(Q, np.eye(3))

    def test_quarter_turn(self):
        Q = rotation_matrix(math.pi / 2, 0.0)
        expected = np.array([[0.0, 0.0, -1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        assert np.allclose(Q, expected, atol=1e-15)

    def test_orthonormality_and_alignment(self, rng):
        for _ in range(1000):
            th = rng.uniform(0.0, math.pi)
            ph = rng.uniform(0.0, 2.0 * math.pi)
            Q = rotation_matrix(th, ph)
            assert np.linalg.norm(Q.T @ Q - np.eye(3)) < 1e-12
            assert abs(np.linalg.det(Q) - 1.0) < 1e-12
            assert np.linalg.norm(Q @ source_direction(th, ph) - [0.0, 0.0, 1.0]) < 1e-12

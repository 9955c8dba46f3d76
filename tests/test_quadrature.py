import math

import numpy as np
import pytest

from wdmlink.quadrature import (
    PanelLimitError,
    QuadratureSpec,
    composite_gauss_nodes,
    panel_count,
)

from oracles import tensor_sum


class TestQuadratureSpec:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.points_per_wavelength == 4.0
        assert spec.nodes_per_panel == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureSpec(points_per_wavelength=1.0)
        with pytest.raises(ValueError):
            QuadratureSpec(nodes_per_panel=1)
        with pytest.raises(ValueError):
            QuadratureSpec(max_panels=0)


class TestPanelCount:
    def test_minimum_one_panel(self):
        spec = QuadratureSpec()
        assert panel_count(0.0, 1e-9, 1.0, spec) == 1

    def test_scales_with_interval(self):
        spec = QuadratureSpec(points_per_wavelength=16.0, nodes_per_panel=8)
        assert panel_count(0.0, 1.0, 0.1, spec) == 20
        assert panel_count(0.0, 2.0, 0.1, spec) == 40

    def test_limit_enforced(self):
        spec = QuadratureSpec(max_panels=10)
        with pytest.raises(PanelLimitError):
            composite_gauss_nodes(0.0, 1.0, 1e-6, spec)


class TestCompositeNodes:
    def test_weights_sum_to_length(self):
        spec = QuadratureSpec()
        x, w = composite_gauss_nodes(-0.3, 1.1, 0.05, spec)
        assert np.sum(w) == pytest.approx(1.4, rel=1e-14)
        assert np.all(np.diff(x) > 0)
        assert x[0] > -0.3 and x[-1] < 1.1

    def test_polynomial_exactness(self):
        # one panel of n nodes integrates degree 2n-1 exactly
        spec = QuadratureSpec(nodes_per_panel=8)
        x, w = composite_gauss_nodes(0.0, 1.0, 10.0, spec)
        for deg in range(0, 16):
            val = np.dot(w, x**deg)
            assert val == pytest.approx(1.0 / (deg + 1), rel=1e-13)


class TestIntegrate1d:
    def test_constant(self):
        x, w = composite_gauss_nodes(0.0, 1.0, 1.0, QuadratureSpec())
        assert w @ np.ones_like(x) == pytest.approx(1.0, abs=1e-14)

    def test_full_period_tone_vanishes(self):
        lam = 0.02
        x, w = composite_gauss_nodes(0.0, lam, lam, QuadratureSpec())
        assert abs(w @ np.exp(2j * math.pi * x / lam)) < 1e-12

    def test_sinc_against_midpoint_oracle(self):
        # frozen from a 10^6-node midpoint run: 0.002257058333950283
        lam = 0.01
        x, w = composite_gauss_nodes(0.0, lam, lam, QuadratureSpec())
        assert w @ np.sinc(2.0 * x / lam) == pytest.approx(0.002257058333950283, rel=1e-8)

    def test_interval_must_be_ordered(self):
        with pytest.raises(ValueError):
            composite_gauss_nodes(1.0, 0.0, 1.0, QuadratureSpec())


class TestIntegrate2d:
    def test_constant(self):
        val = tensor_sum(
            lambda x, y: np.ones(np.broadcast(x, y).shape),
            (0.0, 1.0, 0.0, 2.0),
            (1.0, 1.0),
            QuadratureSpec(),
        )
        assert val == pytest.approx(2.0 + 0.0j, abs=1e-13)

    def test_separable_product(self):
        spec = QuadratureSpec()
        lam = 0.05

        def g(x):
            return np.exp(2j * math.pi * x / lam) * x

        def h(y):
            # constant offset keeps the factor integral well away from 0
            return np.cos(2.0 * math.pi * y / lam) + 0.8

        x, wx = composite_gauss_nodes(0.0, 0.3, lam, spec)
        y, wy = composite_gauss_nodes(-0.1, 0.2, lam, spec)
        prod = (wx @ g(x)) * (wy @ h(y))
        both = tensor_sum(lambda x, y: g(x) * h(y), (0.0, 0.3, -0.1, 0.2), (lam, lam), spec)
        assert abs(both - prod) <= 1e-10 * abs(prod)

    def test_oscillatory_kernel_against_midpoint_oracle(self):
        # coupling integrand between two short segments; oracle is a
        # 2000 x 2000 midpoint rule evaluated in-line
        lam, L_s, L_r, d_x = 0.1, 0.2, 0.5, 1.0
        kap = 2.0 * math.pi / lam
        k_lo = (2.0 * math.pi / L_s) * (1 - 2.0)  # lowest of a 3-mode set

        def integrand(r, s):
            d = np.sqrt(d_x * d_x + (r - s) ** 2)
            tone = np.exp(1j * k_lo * s) / math.sqrt(L_s) * np.exp(-1j * k_lo * r)
            return np.exp(1j * kap * d) / (4.0 * math.pi * d**3) * (d_x * d_x) * tone

        val = tensor_sum(
            integrand,
            (-L_r / 2, L_r / 2, -L_s / 2, L_s / 2),
            (lam / 2.0, lam / 2.0),
            QuadratureSpec(),
        )
        n = 2000
        s = -L_s / 2 + (np.arange(n) + 0.5) * (L_s / n)
        r = -L_r / 2 + (np.arange(n) + 0.5) * (L_r / n)
        oracle = np.sum(integrand(r[:, None], s[None, :])) * (L_s / n) * (L_r / n)
        assert abs(val - oracle) <= 1e-4 * abs(oracle)


class TestDeterminism:
    def test_identical_calls_bitwise_equal(self):
        spec = QuadratureSpec()

        def f(x):
            return np.exp(2j * math.pi * x / 0.03) / (1.0 + x * x)

        x_a, w_a = composite_gauss_nodes(0.0, 0.7, 0.03, spec)
        x_b, w_b = composite_gauss_nodes(0.0, 0.7, 0.03, spec)
        assert w_a @ f(x_a) == w_b @ f(x_b)

"""Composite Gauss-Legendre quadrature for oscillatory kernels.

The integrands in this package are smooth but oscillate at a known
spatial rate, so a fixed composite rule sized from the oscillation
wavelength is both accurate and reproducible: the node set depends only
on the interval and the ``QuadratureSpec``, never on the integrand.  The
panel count is

    ceil((b - a) / osc_wavelength * points_per_wavelength / nodes_per_panel)

with at least one panel, so that every oscillation period receives
``points_per_wavelength`` nodes.  Equal arguments give bit-identical
nodes and weights, so every sum over them repeats exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

__all__ = [
    "QuadratureSpec",
    "PanelLimitError",
    "panel_count",
    "composite_gauss_nodes",
]


class PanelLimitError(RuntimeError):
    """Raised when an interval would require more panels than allowed."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Sizing of the composite Gauss-Legendre rule.

    Attributes:
        points_per_wavelength: Nodes laid per oscillation wavelength.
        nodes_per_panel: Gauss-Legendre order of each panel.
        max_panels: Safety cap on the panel count of one interval.
        rel_tol: Relative tolerance used by convergence self-checks.
    """

    points_per_wavelength: float = 4.0
    nodes_per_panel: int = 16
    max_panels: int = 50_000
    rel_tol: float = 1e-6

    def __post_init__(self) -> None:
        if not self.points_per_wavelength >= 2.0:
            raise ValueError(
                "points_per_wavelength must be at least 2, got "
                f"{self.points_per_wavelength}"
            )
        if not 2 <= int(self.nodes_per_panel) <= 64:
            raise ValueError(
                f"nodes_per_panel must lie in [2, 64], got {self.nodes_per_panel}"
            )
        if self.max_panels < 1:
            raise ValueError(f"max_panels must be positive, got {self.max_panels}")
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError(f"rel_tol must lie in (0, 1), got {self.rel_tol}")


@lru_cache(maxsize=None)
def _leggauss(order: int) -> Tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def panel_count(a: float, b: float, osc_wavelength: float, spec: QuadratureSpec) -> int:
    """Number of panels used on [a, b] for the given oscillation wavelength."""
    if not b > a:
        raise ValueError(f"interval must satisfy a < b, got [{a}, {b}]")
    if not osc_wavelength > 0.0:
        raise ValueError(f"osc_wavelength must be positive, got {osc_wavelength}")
    n = max(
        1,
        math.ceil(
            (b - a) / osc_wavelength * spec.points_per_wavelength / spec.nodes_per_panel
        ),
    )
    if n > spec.max_panels:
        raise PanelLimitError(
            f"interval [{a}, {b}] needs {n} panels at oscillation wavelength "
            f"{osc_wavelength}, above the cap of {spec.max_panels}"
        )
    return n


def composite_gauss_nodes(
    a: float, b: float, osc_wavelength: float, spec: QuadratureSpec
) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite rule on [a, b].

    Args:
        a, b: Integration interval, a < b.
        osc_wavelength: Shortest oscillation period of the integrand [m].
        spec: Rule sizing.

    Returns:
        Arrays (x, w), each of length panels * nodes_per_panel, in
        ascending node order.
    """
    n_panels = panel_count(a, b, osc_wavelength, spec)
    base_x, base_w = _leggauss(int(spec.nodes_per_panel))
    edges = np.linspace(a, b, n_panels + 1)
    half = 0.5 * (edges[1] - edges[0])
    centers = 0.5 * (edges[:-1] + edges[1:])
    x = (centers[:, None] + half * base_x[None, :]).ravel()
    w = np.broadcast_to(half * base_w, (n_panels, base_x.size)).ravel()
    return x, w.copy()

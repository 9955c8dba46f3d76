"""Geometry of a line-of-sight link between two linear segments.

The transmit segment has length ``L_s``, is centered at the origin and
points along the unit vector ``s_hat(theta_s, phi_s)``
(:func:`wdmlink.em_field.source_direction`).  The receive segment has
length ``L_r`` and lies parallel to the z-axis at lateral offset
``d_x``, vertically centered at ``d_z``:

    V_r = {(d_x, 0, r_z) : |r_z - d_z| <= L_r / 2}.

All lengths are in meters and all angles in radians.  This module needs
no numpy, so a run that only reads cached results never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["LinkGeometry"]


@dataclass(frozen=True)
class LinkGeometry:
    """Placement of the two segments.

    Attributes:
        L_s: Transmit segment length [m].
        L_r: Receive segment length [m].
        d_x: Lateral (x) offset of the receive line [m]; must be positive
            so the segments cannot touch.
        d_z: Vertical (z) offset of the receive segment center [m].
        theta_s: Polar tilt of the transmit segment [rad], in [0, pi].
        phi_s: Azimuth of the transmit segment [rad], in [0, 2*pi).
    """

    L_s: float
    L_r: float
    d_x: float
    d_z: float = 0.0
    theta_s: float = 0.0
    phi_s: float = 0.0

    def __post_init__(self) -> None:
        if not (self.L_s > 0.0 and math.isfinite(self.L_s)):
            raise ValueError(f"L_s must be a positive length, got {self.L_s}")
        if not (self.L_r > 0.0 and math.isfinite(self.L_r)):
            raise ValueError(f"L_r must be a positive length, got {self.L_r}")
        if not (self.d_x > 0.0 and math.isfinite(self.d_x)):
            raise ValueError(f"d_x must be positive, got {self.d_x}")
        if not math.isfinite(self.d_z):
            raise ValueError(f"d_z must be finite, got {self.d_z}")
        if not 0.0 <= self.theta_s <= math.pi:
            raise ValueError(f"theta_s must lie in [0, pi], got {self.theta_s}")
        if not 0.0 <= self.phi_s < 2.0 * math.pi:
            raise ValueError(f"phi_s must lie in [0, 2*pi), got {self.phi_s}")

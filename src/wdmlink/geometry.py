"""Geometry of a line-of-sight link between two linear segments.

The transmit segment has length ``L_s``, is centered at the origin and
points along the unit vector ``s_hat(theta_s, phi_s)``.  The receive
segment has length ``L_r`` and lies parallel to the z-axis at lateral
offset ``d_x``, vertically centered at ``d_z``:

    V_r = {(d_x, 0, r_z) : |r_z - d_z| <= L_r / 2}.

``rotation_matrix`` returns the orthogonal matrix Q that maps ``s_hat``
onto the z-axis; it is the rotation by ``theta_s`` about the horizontal
axis perpendicular to both, expressed directly in terms of the two
angles.  All lengths are in meters and all angles in radians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LinkGeometry",
    "source_direction",
    "rotation_matrix",
]


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


def source_direction(theta_s: float, phi_s: float) -> np.ndarray:
    """Unit vector along the transmit segment.

    Args:
        theta_s: Polar angle from the z-axis [rad].
        phi_s: Azimuth from the x-axis [rad].

    Returns:
        Array (3,) with (cos(phi_s) sin(theta_s), sin(phi_s) sin(theta_s),
        cos(theta_s)).
    """
    st = math.sin(theta_s)
    return np.array(
        [math.cos(phi_s) * st, math.sin(phi_s) * st, math.cos(theta_s)]
    )


def rotation_matrix(theta_s: float, phi_s: float) -> np.ndarray:
    """Orthogonal matrix taking the segment direction onto the z-axis.

    Satisfies Q @ source_direction(theta_s, phi_s) = (0, 0, 1), with
    det Q = +1.  For theta_s = 0 the matrix is the identity.

    Args:
        theta_s: Polar angle [rad].
        phi_s: Azimuth [rad].

    Returns:
        Array (3, 3).
    """
    ct = math.cos(theta_s)
    st = math.sin(theta_s)
    if 1.0 - ct == 0.0:
        # The general expression reduces to sin^2 + cos^2 on the diagonal,
        # which need not round to 1.0; return the exact limit instead.
        return np.eye(3)
    cp = math.cos(phi_s)
    sp = math.sin(phi_s)
    return np.array(
        [
            [sp * sp + cp * cp * ct, -sp * cp * (1.0 - ct), -cp * st],
            [-sp * cp * (1.0 - ct), cp * cp + sp * sp * ct, -sp * st],
            [cp * st, sp * st, ct],
        ]
    )

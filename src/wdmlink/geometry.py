"""Geometry of a line-of-sight link between two linear segments.

The transmit segment has length ``L_s``, is centered at the origin and
points along the unit vector ``s_hat(theta_s, phi_s)``
(:func:`wdmlink.em_field.source_direction`).  The receive segment has
length ``L_r`` and lies parallel to the z-axis at lateral offset
``d_x``, vertically centered at ``d_z``:

    V_r = {(d_x, 0, r_z) : |r_z - d_z| <= L_r / 2}.

All lengths are in meters and all angles in radians.  This module needs
no numpy, so a run that only reads cached results never loads it.

The package's records are immutable named tuples.  One that checks its
fields does so in ``__new__``, so change a field with :func:`replace`,
which builds the new record through that constructor; a named tuple's
own ``_replace`` skips the checks.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Any, TypeVar

__all__ = ["LinkGeometry", "is_azimuth", "replace"]

_Record = TypeVar("_Record", bound=tuple)


def replace(record: _Record, **changes: Any) -> _Record:
    """A copy of the named tuple ``record`` with ``changes``, checked as a new one.

    Raises:
        TypeError: If a change names no field of the record.
        ValueError: If the record's constructor rejects the result.
    """
    return type(record)(**{**record._asdict(), **changes})


def is_azimuth(phi: float) -> bool:
    """Whether ``phi`` [rad] lies in [0, 2*pi), the range of ``phi_s``."""
    return 0.0 <= phi < 2.0 * math.pi


def _both_units(angle: float) -> str:
    # config files and flags give angles in degrees, the records radians
    return f"{angle} rad ({math.degrees(angle):.6g} degrees)"


class LinkGeometry(
    namedtuple("LinkGeometry", "L_s L_r d_x d_z theta_s phi_s", defaults=(0.0, 0.0, 0.0))
):
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

    __slots__ = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> "LinkGeometry":
        self = super().__new__(cls, *args, **kwargs)
        if not (self.L_s > 0.0 and math.isfinite(self.L_s)):
            raise ValueError(f"L_s must be a positive length, got {self.L_s}")
        if not (self.L_r > 0.0 and math.isfinite(self.L_r)):
            raise ValueError(f"L_r must be a positive length, got {self.L_r}")
        if not (self.d_x > 0.0 and math.isfinite(self.d_x)):
            raise ValueError(f"d_x must be positive, got {self.d_x}")
        if not math.isfinite(self.d_z):
            raise ValueError(f"d_z must be finite, got {self.d_z}")
        if not 0.0 <= self.theta_s <= math.pi:
            raise ValueError(f"theta_s must lie in [0, pi] rad, got {_both_units(self.theta_s)}")
        if not is_azimuth(self.phi_s):
            raise ValueError(f"phi_s must lie in [0, 2*pi) rad, got {_both_units(self.phi_s)}")
        return self

"""Horizon-line / vanishing-point parametrisation of a pitch+roll perturbation.

A pitch/roll disturbance of the camera is fully described by where it
sends the image of the forward direction (the vanishing point of rays
parallel to the unperturbed optical axis) together with the apparent tilt
of the horizon.  This module converts between the two-angle form and that
image-space observation, exactly and in both directions:

    pitch = atan((cy - vp_v) / fy)        (vanishing point above the
                                           principal point => positive pitch)
    roll  = atan(slope)                   (slope := tan(roll) by convention)

The ``slope`` stored on :class:`HorizonLine` is the tangent of the roll
angle, not the raw pixel-space dv/du of the projected horizon (those two
differ by fy/fx and pitch-foreshortening factors for anisotropic
intrinsics).  Using tan(roll) makes the forward/backward conversion an
exact round trip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BehindCamera
from .geometry import (
    ROTATION_TOL,
    CameraIntrinsics,
    ExtrinsicPerturbation,
    _require_finite,
    ensure_rotation,
    image_homography,
    perturbation_matrix,
)


@dataclass(frozen=True)
class HorizonLine:
    """Horizon observation: slope (= tan roll) and the v-coordinate where
    the line crosses the principal column (u = cx of the camera that
    measured it)."""

    slope: float
    intercept_v: float

    def __post_init__(self):
        _require_finite("horizon line", self.slope, self.intercept_v)

    def v_at(self, u: float, cx: float) -> float:
        """Evaluate the line at column u, given the measuring camera's cx."""
        return self.intercept_v + self.slope * (u - cx)


@dataclass(frozen=True)
class VanishingPoint:
    """Image of the unperturbed forward direction, in pixels."""

    u: float
    v: float

    def __post_init__(self):
        _require_finite("vanishing point", self.u, self.v)


def horizon_vp_from_extrinsics(
    p: ExtrinsicPerturbation, k: CameraIntrinsics
) -> tuple[HorizonLine, VanishingPoint]:
    """Map a pitch/roll perturbation to its horizon line and vanishing point.

    The vanishing point is the image of the principal point under the
    pure-rotation homography of the perturbation (equivalently, the
    projection of the rotated forward axis).  The horizon passes through
    the vanishing point with slope tan(roll).
    """
    h = image_homography(k, perturbation_matrix(p))
    w = h @ np.array([k.cx, k.cy, 1.0])
    if w[2] <= 0:
        raise BehindCamera(
            "perturbation maps the forward direction behind the camera"
        )
    vp = VanishingPoint(u=w[0] / w[2], v=w[1] / w[2])
    slope = math.tan(p.roll)
    line = HorizonLine(slope=slope, intercept_v=vp.v + slope * (k.cx - vp.u))
    return line, vp


def extrinsics_from_horizon_vp(
    line: HorizonLine, vp: VanishingPoint, k: CameraIntrinsics
) -> ExtrinsicPerturbation:
    """Recover pitch/roll from a horizon line and vanishing point.

    Inverse of :func:`horizon_vp_from_extrinsics`: a vanishing point fy
    pixels above the principal point means tan(pitch) = 1, and the stored
    slope is tan(roll).  atan keeps both angles strictly inside
    (-pi/2, pi/2), matching the perturbation domain.
    """
    pitch = math.atan((k.cy - vp.v) / k.fy)
    roll = math.atan(line.slope)
    return ExtrinsicPerturbation(pitch=pitch, roll=roll)


def angular_error(r_est: np.ndarray, r_gt: np.ndarray) -> float:
    """Geodesic angle between two rotations, in degrees.

    Both arguments must be proper rotations, orthogonal within
    ``ROTATION_TOL`` (1e-6), the tolerance the pose parser accepts.
    The relative rotation R = R_est^T R_gt has trace 1 + 2 cos(theta) and
    antisymmetric part R - R^T = 2 sin(theta) [axis]_x.  Taking atan2 of
    the two keeps full relative accuracy at small angles, where acos of
    the trace loses it (1e-8 rad would read as 0).  Result lies in [0, 180].
    """
    r = ensure_rotation(r_est, tol=ROTATION_TOL).T @ ensure_rotation(r_gt, tol=ROTATION_TOL)
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = r.tolist()
    sin_theta = math.hypot(r21 - r12, r02 - r20, r10 - r01) / 2.0
    cos_theta = (r00 + r11 + r22 - 1.0) / 2.0
    return math.degrees(math.atan2(sin_theta, cos_theta))

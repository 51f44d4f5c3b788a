"""Pinhole camera geometry and extrinsic pitch/roll perturbations.

Coordinate conventions used throughout the package
--------------------------------------------------
Camera frame (right-handed, metres):
    +x  right
    +y  down
    +z  forward (optical axis); visible points have z > 0

Image frame (pixels, continuous coordinates):
    +u  right
    +v  down, origin at the top-left corner

A perturbation is an in-camera rotation with two degrees of freedom:

    A = R_x(pitch) @ R_z(roll)

where R_x / R_z are the standard right-handed rotations about the camera
x and z axes. Applied to point coordinates (p' = A p):

* positive ``pitch`` tips the optical axis downward, so the image of the
  forward direction (the vanishing point of forward rays) moves *up* in
  the y-down image;
* positive ``roll`` turns the scene clockwise in the image, lowering the
  right-hand end of the horizon (image-space slope dv/du > 0).

``perturbation_matrix_literal`` reproduces a commonly printed closed form
of the same two-angle parametrisation.  That closed form is not a rotation
matrix for general angles (its determinant is cos^2 - sin^2 of the roll
angle); it is provided only so the discrepancy can be measured.  All
functional code paths use ``perturbation_matrix``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BehindCamera,
    DegenerateBox,
    NonPositiveDepth,
    NotARotation,
    OutOfRange,
    SingularHomography,
)

#: Angles at or beyond this magnitude (radians) are rejected for pitch/roll.
MAX_PERTURBATION_ANGLE = math.pi / 2


def _require_finite(name: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")


def _wrap_angle(angle: float) -> float:
    """Wrap to [-pi, pi)."""
    return (angle + math.pi) % (2.0 * math.pi) - math.pi


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics: focal lengths, principal point, and skew (pixels)."""

    fx: float
    fy: float
    cx: float
    cy: float
    skew: float = 0.0

    def __post_init__(self):
        _require_finite("intrinsics", self.fx, self.fy, self.cx, self.cy, self.skew)
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError(
                f"focal lengths must be positive, got fx={self.fx}, fy={self.fy}"
            )

    def matrix(self) -> np.ndarray:
        """Return the 3x3 calibration matrix K."""
        return np.array(
            [
                [self.fx, self.skew, self.cx],
                [0.0, self.fy, self.cy],
                [0.0, 0.0, 1.0],
            ]
        )

    def inverse_matrix(self) -> np.ndarray:
        """Return K^-1 in closed form (K is upper triangular)."""
        fx, fy, cx, cy, s = self.fx, self.fy, self.cx, self.cy, self.skew
        return np.array(
            [
                [1.0 / fx, -s / (fx * fy), (s * cy - cx * fy) / (fx * fy)],
                [0.0, 1.0 / fy, -cy / fy],
                [0.0, 0.0, 1.0],
            ]
        )

    @classmethod
    def from_projection(cls, p: np.ndarray) -> "CameraIntrinsics":
        """Extract intrinsics from a 3x4 projection matrix (rectified camera)."""
        p = np.asarray(p, dtype=float)
        if p.shape != (3, 4):
            raise ValueError(f"projection matrix must be 3x4, got {p.shape}")
        return cls(fx=p[0, 0], fy=p[1, 1], cx=p[0, 2], cy=p[1, 2], skew=p[0, 1])


@dataclass(frozen=True)
class ExtrinsicPerturbation:
    """Pitch/roll disturbance angles in radians, each strictly inside (-pi/2, pi/2)."""

    pitch: float
    roll: float

    def __post_init__(self):
        _require_finite("perturbation angle", self.pitch, self.roll)
        for name, angle in (("pitch", self.pitch), ("roll", self.roll)):
            if abs(angle) >= MAX_PERTURBATION_ANGLE:
                raise OutOfRange(
                    f"{name} must satisfy |angle| < pi/2, got {angle}"
                )


@dataclass(frozen=True)
class CameraPoint:
    """A point in the camera frame (metres)."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        _require_finite("camera point", self.x, self.y, self.z)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


@dataclass(frozen=True)
class ImagePoint:
    """A pixel location, optionally annotated with the depth that produced it."""

    u: float
    v: float
    depth: float | None = None

    def __post_init__(self):
        _require_finite("image point", self.u, self.v)
        if self.depth is not None:
            _require_finite("image point depth", self.depth)


@dataclass(frozen=True)
class Box3D:
    """An upright 3D box in the camera frame.

    ``center`` is the bottom-face center (the y coordinate is the *bottom*
    of the box; the box extends upward, i.e. toward smaller y).  ``yaw`` is
    the heading about the y axis, measured so that yaw = 0 faces +z and
    yaw = pi/2 faces +x; it is stored in [-pi, pi].
    """

    center: CameraPoint
    height: float
    width: float
    length: float
    yaw: float

    def __post_init__(self):
        _require_finite("box dimensions", self.height, self.width, self.length)
        _require_finite("box yaw", self.yaw)
        if self.height <= 0 or self.width <= 0 or self.length <= 0:
            raise DegenerateBox(
                "box dimensions must be positive, got "
                f"h={self.height}, w={self.width}, l={self.length}"
            )
        if not -math.pi <= self.yaw <= math.pi:
            raise OutOfRange(f"yaw must lie in [-pi, pi], got {self.yaw}")


def rot_x(angle: float) -> np.ndarray:
    """Right-handed rotation about the camera x axis (pitch)."""
    _require_finite("angle", angle)
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_z(angle: float) -> np.ndarray:
    """Right-handed rotation about the camera z axis (roll)."""
    _require_finite("angle", angle)
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def perturbation_matrix(p: ExtrinsicPerturbation) -> np.ndarray:
    """Rotation matrix of a perturbation: R_x(pitch) @ R_z(roll)."""
    return _perturbation_matrices(np.array([p.pitch]), np.array([p.roll]))[0]


def _perturbation_matrices(pitch: np.ndarray, roll: np.ndarray) -> np.ndarray:
    """R_x(pitch) @ R_z(roll) of each (pitch, roll) pair, shape (n, 3, 3)."""
    zero, one = np.zeros_like(pitch), np.ones_like(pitch)
    cp, sp, cr, sr = np.cos(pitch), np.sin(pitch), np.cos(roll), np.sin(roll)
    r_x = np.stack([one, zero, zero, zero, cp, -sp, zero, sp, cp], axis=1)
    r_z = np.stack([cr, -sr, zero, sr, cr, zero, zero, zero, one], axis=1)
    return r_x.reshape(-1, 3, 3) @ r_z.reshape(-1, 3, 3)


def perturbation_matrix_literal(p: ExtrinsicPerturbation) -> np.ndarray:
    """A commonly printed closed form of the two-angle perturbation.

    Row layout (cp/sp = cos/sin pitch, cr/sr = cos/sin roll):

        [ cr        sr        0  ]
        [ cp*sr     cr*cp     sp ]
        [ -sp*sr   -sp*cr     cp ]

    This matrix is *not* orthogonal in general: its determinant is
    exactly cos(2*roll), so it degrades as |roll| grows and is singular
    at roll = pi/4.  Kept verbatim for comparison; do not use it to
    transform geometry.
    """
    cp, sp = math.cos(p.pitch), math.sin(p.pitch)
    cr, sr = math.cos(p.roll), math.sin(p.roll)
    return np.array(
        [
            [cr, sr, 0.0],
            [cp * sr, cr * cp, sp],
            [-sp * sr, -sp * cr, cp],
        ]
    )


#: Orthogonality tolerance for rotations read from data: 1e-6 admits the
#: seven significant digits of KITTI pose files written with ``%e``.
ROTATION_TOL = 1e-6


def ensure_rotation(m: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Validate that ``m`` is a proper rotation; return it as a float array.

    Checks shape (3, 3), finiteness, ``||M M^T - I||_inf <= tol`` and
    ``det(M) > 0``.  Raises :class:`NotARotation` otherwise.
    """
    if tol < 0:
        raise ValueError(f"tol must be non-negative, got {tol}")
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise NotARotation(f"expected a 3x3 matrix, got shape {m.shape}")
    fault = _rotation_fault(m[None], tol)
    if fault is not None:
        raise NotARotation(fault[1])
    return m


def _rotation_fault(m: np.ndarray, tol: float) -> tuple[int, str] | None:
    """First matrix of an (n, 3, 3) stack that is not a proper rotation, and why.

    The package's one rotation rule, checked in this order: finite
    entries, ``||M M^T - I||_inf <= tol``, ``det(M) > 0``.  ``None`` when
    every matrix passes.
    """
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite matrices fail below
        err = np.abs(m @ m.swapaxes(1, 2) - np.eye(3)).max(axis=(1, 2))
        bad = np.flatnonzero(~((err <= tol) & (np.linalg.det(m) > 0)))
    if bad.size == 0:
        return None
    i = int(bad[0])
    if not np.isfinite(m[i]).all():
        return i, "matrix contains non-finite entries"
    if not err[i] <= tol:
        return i, f"matrix is not orthogonal within {tol:g} (residual {err[i]:.3e})"
    return i, "matrix is orthogonal but not proper (det <= 0)"


def project(k: CameraIntrinsics, point: CameraPoint) -> ImagePoint:
    """Project a camera-frame point to pixels.

    Raises :class:`NonPositiveDepth` if the point is on or behind the
    principal plane (z <= 0).
    """
    if point.z <= 0:
        raise NonPositiveDepth(f"cannot project point with z={point.z}")
    u = (k.fx * point.x + k.skew * point.y) / point.z + k.cx
    v = k.fy * point.y / point.z + k.cy
    return ImagePoint(u=u, v=v, depth=point.z)


def backproject(k: CameraIntrinsics, pixel: ImagePoint, depth: float) -> CameraPoint:
    """Lift a pixel back to the camera frame at the given depth (z = depth)."""
    _require_finite("depth", depth)
    if depth <= 0:
        raise NonPositiveDepth(f"backprojection depth must be positive, got {depth}")
    y = (pixel.v - k.cy) * depth / k.fy
    x = ((pixel.u - k.cx) * depth - k.skew * y) / k.fx
    return CameraPoint(x=x, y=y, z=depth)


def keypoint_transfer(
    k_src: CameraIntrinsics,
    k_dst: CameraIntrinsics,
    rotation: np.ndarray,
    pixel: ImagePoint,
    depth: float,
) -> ImagePoint:
    """Map a pixel with known depth through an in-camera rotation.

    The pixel is lifted to the source camera frame at ``depth``, rotated,
    and reprojected with the destination intrinsics.  The returned point
    carries the post-rotation depth.  Raises :class:`BehindCamera` if the
    rotated point has z <= 0.
    """
    rotation = np.asarray(rotation, dtype=float)
    cam = backproject(k_src, pixel, depth)
    moved = rotation @ cam.as_array()
    if moved[2] <= 0:
        raise BehindCamera(
            f"rotated point has non-positive depth z={moved[2]}"
        )
    return project(k_dst, CameraPoint(moved[0], moved[1], moved[2]))


def transfer_matrix(
    k_src: CameraIntrinsics,
    k_dst: CameraIntrinsics,
    rotation: np.ndarray,
    depth_src: float,
    depth_dst: float,
) -> np.ndarray:
    """Return the 3x3 map (z_src / z_dst) * K_dst @ R @ K_src^-1.

    Applied to a homogeneous pixel (u, v, 1) scaled by depth_src it yields
    the destination pixel scaled by depth_dst.
    """
    _require_finite("depth_src", depth_src)
    _require_finite("depth_dst", depth_dst)
    if depth_src <= 0 or depth_dst <= 0:
        raise NonPositiveDepth(
            f"depths must be positive, got {depth_src} and {depth_dst}"
        )
    rotation = np.asarray(rotation, dtype=float)
    return (depth_src / depth_dst) * (k_dst.matrix() @ rotation @ k_src.inverse_matrix())


def image_homography(k: CameraIntrinsics, rotation: np.ndarray) -> np.ndarray:
    """Pixel-to-pixel homography K @ R @ K^-1 for a pure in-camera rotation.

    Under a pure rotation the transfer is depth independent, so a single
    3x3 map moves every pixel.  The result is divided by the magnitude of
    its (3, 3) entry whenever that entry is nonzero, so the entry becomes 1
    or -1: the homogeneous w of a mapped pixel keeps its sign, which tells
    a pixel in front of the camera (w > 0) from one behind it.  An exact
    identity rotation returns an exact identity homography.
    """
    rotation = np.asarray(rotation, dtype=float)
    if rotation.shape != (3, 3):
        raise NotARotation(f"expected a 3x3 matrix, got shape {rotation.shape}")
    if np.array_equal(rotation, np.eye(3)):
        return np.eye(3)
    h = k.matrix() @ rotation @ k.inverse_matrix()
    det = np.linalg.det(h)
    if abs(det) < 1e-12:
        raise SingularHomography(f"homography is singular (det={det:.3e})")
    if h[2, 2] != 0.0:
        h = h / abs(h[2, 2])
    return h


def _box_row(box: Box3D) -> np.ndarray:
    """A box as one (1, 7) row (x, y, z, h, w, l, yaw) of the batched kernels."""
    c = box.center
    return np.array([[c.x, c.y, c.z, box.height, box.width, box.length, box.yaw]])


def _corners(rows: np.ndarray) -> np.ndarray:
    """Corners of (n, 7) box rows, shape (n, 8, 3), ordered as :func:`box_corners`."""
    x, y, z, h, w, l, yaw = np.asarray(rows, dtype=float).T[:, :, None]
    c, s = np.cos(yaw), np.sin(yaw)
    half_l = 0.5 * l * [1.0, 1.0, -1.0, -1.0]  # along the heading
    half_w = 0.5 * w * [1.0, -1.0, -1.0, 1.0]  # right of the heading
    bx, bz = x + half_l * s + half_w * c, z + half_l * c - half_w * s
    bottom = np.stack([bx, np.broadcast_to(y, bx.shape), bz], axis=-1)
    return np.concatenate([bottom, bottom - h[..., None] * [0.0, 1.0, 0.0]], axis=1)


def box_corners(box: Box3D) -> np.ndarray:
    """Return the 8 corners of a box, shape (8, 3), in the camera frame.

    Corners 0-3 are the bottom face (y = center.y), corners 4-7 the top
    face (y = center.y - height), each face ordered counter-clockwise when
    viewed from above (-y).
    """
    return _corners(_box_row(box))[0]


def _rotate_rows(rotation: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Rotate (n, 7) box rows rigidly and re-snap them upright, as :func:`transform_box`."""
    yaw = rows[:, 6]
    heading = np.stack([np.sin(yaw), np.zeros_like(yaw), np.cos(yaw)], axis=1)
    hx, _, hz = (rotation @ heading[:, :, None])[:, :, 0].T.tolist()
    new_yaw = [math.atan2(x, z) for x, z in zip(hx, hz)]
    return np.column_stack([(rotation @ rows[:, :3, None])[:, :, 0], rows[:, 3:6], new_yaw])


def transform_box(rotation: np.ndarray, box: Box3D) -> Box3D:
    """Rotate a box rigidly, then re-snap it to an upright (yaw-only) box.

    The center is rotated exactly.  The new yaw is recovered from the
    rotated heading direction via atan2, which discards any roll/pitch the
    rotation induced on the box axes; for small rotation angles the
    discarded tilt is second order.  Dimensions are unchanged.
    """
    rotation = np.asarray(rotation, dtype=float)
    x, y, z, h, w, l, yaw = _rotate_rows(rotation, _box_row(box))[0].tolist()
    return Box3D(center=CameraPoint(x, y, z), height=h, width=w, length=l, yaw=yaw)


def rectify_center(rotation: np.ndarray, point: CameraPoint) -> CameraPoint:
    """Apply a rotation to a camera-frame point (p' = R p)."""
    rotation = np.asarray(rotation, dtype=float)
    moved = rotation @ point.as_array()
    return CameraPoint(moved[0], moved[1], moved[2])


def rectify_center_inverse(rotation: np.ndarray, point: CameraPoint) -> CameraPoint:
    """Undo a rotation on a camera-frame point (p' = R^T p)."""
    rotation = np.asarray(rotation, dtype=float)
    moved = rotation.T @ point.as_array()
    return CameraPoint(moved[0], moved[1], moved[2])

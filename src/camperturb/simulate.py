"""Deterministic pitch/roll disturbance simulation over labeled frames.

Sampling is keyed, not sequential: each frame draws its perturbation from
a generator seeded by ``blake2b(frame_id, key=seed)``, so a frame's draw
depends only on (seed, frame_id) and is stable under any processing
order, subsetting, or parallel schedule.

Applying a perturbation to a frame means rotating every labeled 3D box
into the disturbed camera (exactly, for centers; headings are re-snapped
to yaw-only boxes), recomputing the 2D boxes by projecting the rotated
corners, and warping the image with the corresponding pure-rotation
homography.  Objects whose rotated box touches or crosses the principal
plane, or whose reprojected 2D box leaves the image entirely, cannot be
represented and are dropped (counted per frame).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CamPerturbError, OutOfRange, SingularHomography
from .geometry import (
    CameraIntrinsics,
    ExtrinsicPerturbation,
    _wrap_angle,
    box_corners,
    image_homography,
    perturbation_matrix,
    transform_box,
)
from .kitti import DONTCARE, ObjectLabel
from .netpbm import RasterImage

#: Default sampling width: one degree, in radians.
DEFAULT_SIGMA = math.radians(1.0)
#: Default clamp: ten degrees, in radians.
DEFAULT_CLAMP = math.radians(10.0)


@dataclass(frozen=True)
class PerturbationSpec:
    """Sampling parameters: per-axis Gaussian widths, symmetric clamp, seed."""

    sigma_pitch: float = DEFAULT_SIGMA
    sigma_roll: float = DEFAULT_SIGMA
    clamp: float = DEFAULT_CLAMP
    seed: int = 0

    def __post_init__(self):
        for name, v in (
            ("sigma_pitch", self.sigma_pitch),
            ("sigma_roll", self.sigma_roll),
            ("clamp", self.clamp),
        ):
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        if not 0.0 < self.clamp < math.pi / 2:
            raise OutOfRange(f"clamp must lie in (0, pi/2), got {self.clamp}")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")


@dataclass(frozen=True)
class SceneFrame:
    """One input frame: identifier, intrinsics, labels, optional image."""

    frame_id: str
    intrinsics: CameraIntrinsics
    labels: tuple[ObjectLabel, ...]
    image: RasterImage | None = None
    image_size: tuple[int, int] | None = None  # (width, height)

    def __post_init__(self):
        if not self.frame_id:
            raise ValueError("frame_id must be non-empty")
        object.__setattr__(self, "labels", tuple(self.labels))

    def effective_image_size(self) -> tuple[int, int] | None:
        if self.image_size is not None:
            return self.image_size
        if self.image is not None:
            return (self.image.width, self.image.height)
        return None


@dataclass(frozen=True)
class PerturbedFrame:
    """Output for one frame: the applied angles, new labels, homography."""

    frame_id: str
    applied: ExtrinsicPerturbation
    labels: tuple[ObjectLabel, ...]
    homography: np.ndarray
    dropped: int

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))


@dataclass(frozen=True)
class SimulationResult:
    """Outputs for all frames plus per-frame failures (frame_id, reason)."""

    frames: tuple[PerturbedFrame, ...]
    images: dict[str, RasterImage] = field(default_factory=dict)
    failures: tuple[tuple[str, str], ...] = ()

    @property
    def total_dropped(self) -> int:
        return sum(f.dropped for f in self.frames)


def frame_rng(seed: int, frame_id: str) -> np.random.Generator:
    """Deterministic generator for one frame, independent of draw order.

    The stream is seeded with blake2b(frame_id, key=seed) so distinct
    frames get independent streams and the same (seed, frame_id) pair
    always yields the same stream.
    """
    key = int(seed).to_bytes(8, "little", signed=False)
    digest = hashlib.blake2b(
        frame_id.encode("utf-8"), digest_size=16, key=key
    ).digest()
    return np.random.default_rng(int.from_bytes(digest, "little"))


def sample_perturbation(spec: PerturbationSpec, frame_id: str) -> ExtrinsicPerturbation:
    """Draw the pitch/roll disturbance for one frame.

    Pitch and roll are independent N(0, sigma^2) draws (pitch first),
    each clamped to [-clamp, clamp].  With sigma == 0 the draw is exactly
    zero.
    """
    rng = frame_rng(spec.seed, frame_id)
    draws = rng.standard_normal(2)
    pitch = float(np.clip(draws[0] * spec.sigma_pitch, -spec.clamp, spec.clamp))
    roll = float(np.clip(draws[1] * spec.sigma_roll, -spec.clamp, spec.clamp))
    return ExtrinsicPerturbation(pitch=pitch, roll=roll)


def _reproject_label(
    label: ObjectLabel,
    k: CameraIntrinsics,
    rotation: np.ndarray,
    image_size: tuple[int, int] | None,
) -> ObjectLabel | None:
    """Rotate one label's box and rebuild its 2D fields; None if unrepresentable."""
    new_box = transform_box(rotation, label.box3d())
    corners = box_corners(new_box)
    if new_box.center.z <= 0 or (corners[:, 2] <= 0).any():
        return None
    x, y, z = corners.T
    us = (k.fx * x + k.skew * y) / z + k.cx
    vs = k.fy * y / z + k.cy
    left, right = us.min(), us.max()
    top, bottom = vs.min(), vs.max()
    if image_size is not None:
        w, h = image_size
        left = min(max(left, 0.0), w - 1.0)
        right = min(max(right, 0.0), w - 1.0)
        top = min(max(top, 0.0), h - 1.0)
        bottom = min(max(bottom, 0.0), h - 1.0)
    if right <= left or bottom <= top:
        return None
    alpha = _wrap_angle(new_box.yaw - math.atan2(new_box.center.x, new_box.center.z))
    moved = label.with_box3d(new_box, alpha=alpha)
    return replace(
        moved,
        bbox_left=float(left),
        bbox_top=float(top),
        bbox_right=float(right),
        bbox_bottom=float(bottom),
    )


def transform_labels(
    labels,
    k: CameraIntrinsics,
    rotation: np.ndarray,
    image_size: tuple[int, int] | None = None,
) -> tuple[list[ObjectLabel], int]:
    """Apply an in-camera rotation to every label.

    DontCare regions pass through untouched (they have no usable 3D box).
    Returns the surviving labels and the count of dropped objects (those
    rotated behind the camera or projected entirely outside the image).
    An exact identity rotation returns the labels unchanged.
    """
    rotation = np.asarray(rotation, dtype=float)
    if np.array_equal(rotation, np.eye(3)):
        return list(labels), 0
    out: list[ObjectLabel] = []
    dropped = 0
    for label in labels:
        if label.class_name == DONTCARE:
            out.append(label)
            continue
        moved = _reproject_label(label, k, rotation, image_size)
        if moved is None:
            dropped += 1
        else:
            out.append(moved)
    return out, dropped


def perturb_labels(
    labels,
    k: CameraIntrinsics,
    p: ExtrinsicPerturbation,
    image_size: tuple[int, int] | None = None,
) -> tuple[list[ObjectLabel], int]:
    """Apply a pitch/roll perturbation to labels (see :func:`transform_labels`)."""
    return transform_labels(labels, k, perturbation_matrix(p), image_size)


def warp_image(image: RasterImage, homography: np.ndarray, fill: int = 0) -> RasterImage:
    """Resample an image under a pixel homography (inverse mapping, bilinear).

    Each output pixel (u, v) is sampled at H^-1 (u, v, 1); samples falling
    outside the source, or mapping behind the camera (non-positive
    homogeneous w), take the constant ``fill`` value.  An exact identity
    homography reproduces the input byte for byte.
    """
    if not 0 <= fill <= 255:
        raise ValueError(f"fill must be a byte value, got {fill}")
    h = np.asarray(homography, dtype=float)
    if h.shape != (3, 3) or not np.isfinite(h).all():
        raise SingularHomography(f"homography must be a finite 3x3, got {h!r}")
    det = np.linalg.det(h)
    if abs(det) < 1e-12:
        raise SingularHomography(f"homography is singular (det={det:.3e})")
    if np.array_equal(h, np.eye(3)):
        return RasterImage(data=image.data.copy())
    hinv = np.linalg.inv(h)
    height, width = image.height, image.width
    us, vs = np.meshgrid(
        np.arange(width, dtype=float), np.arange(height, dtype=float)
    )
    ones = np.ones_like(us)
    src = hinv @ np.stack([us.ravel(), vs.ravel(), ones.ravel()])
    w_h = src[2]
    in_front = w_h > 1e-12
    safe_w = np.where(in_front, w_h, 1.0)
    x = src[0] / safe_w
    y = src[1] / safe_w
    # tolerate float noise at the image border (e.g. sin(pi) != 0 exactly)
    eps = 1e-9
    valid = (
        in_front
        & (x >= -eps)
        & (x <= width - 1 + eps)
        & (y >= -eps)
        & (y <= height - 1 + eps)
    )
    x = np.clip(np.where(valid, x, 0.0), 0.0, width - 1.0)
    y = np.clip(np.where(valid, y, 0.0), 0.0, height - 1.0)
    x0 = np.floor(x).astype(np.intp)
    y0 = np.floor(y).astype(np.intp)
    x1 = np.minimum(x0 + 1, width - 1)
    y1 = np.minimum(y0 + 1, height - 1)
    fx = (x - x0)[:, None]
    fy = (y - y0)[:, None]
    flat = image.data.reshape(-1, image.channels).astype(float)
    idx = lambda yy, xx: flat[yy * width + xx]  # noqa: E731
    value = (
        idx(y0, x0) * (1 - fx) * (1 - fy)
        + idx(y0, x1) * fx * (1 - fy)
        + idx(y1, x0) * (1 - fx) * fy
        + idx(y1, x1) * fx * fy
    )
    value[~valid] = float(fill)
    out = np.clip(np.rint(value), 0, 255).astype(np.uint8)
    return RasterImage(data=out.reshape(height, width, image.channels))


def simulate_dataset(frames, spec: PerturbationSpec, fill: int = 0) -> SimulationResult:
    """Perturb every frame with its keyed draw; collect per-frame failures.

    A frame that raises a domain error is recorded as a failure and
    skipped; the remaining frames are unaffected.  Output frames are
    returned in input order.
    """
    results: list[PerturbedFrame] = []
    images: dict[str, RasterImage] = {}
    failures: list[tuple[str, str]] = []
    for frame in frames:
        try:
            perturbed, image = simulate_frame(frame, spec, fill=fill)
        except CamPerturbError as exc:
            failures.append((frame.frame_id, str(exc)))
            continue
        results.append(perturbed)
        if image is not None:
            images[frame.frame_id] = image
    return SimulationResult(
        frames=tuple(results), images=images, failures=tuple(failures)
    )


def simulate_frame(
    frame: SceneFrame, spec: PerturbationSpec, fill: int = 0
) -> tuple[PerturbedFrame, RasterImage | None]:
    """Perturb a single frame: sample, move labels, warp the image if present."""
    p = sample_perturbation(spec, frame.frame_id)
    rotation = perturbation_matrix(p)
    homography = image_homography(frame.intrinsics, rotation)
    labels, dropped = transform_labels(
        frame.labels, frame.intrinsics, rotation, frame.effective_image_size()
    )
    warped = None
    if frame.image is not None:
        warped = warp_image(frame.image, homography, fill=fill)
    perturbed = PerturbedFrame(
        frame_id=frame.frame_id,
        applied=p,
        labels=tuple(labels),
        homography=homography,
        dropped=dropped,
    )
    return perturbed, warped

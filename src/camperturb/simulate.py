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
from dataclasses import dataclass, field

import numpy as np

from . import DEFAULT_CLAMP, DEFAULT_SIGMA
from .errors import CamPerturbError, OutOfRange, SingularHomography
from .geometry import (
    CameraIntrinsics,
    ExtrinsicPerturbation,
    _corners,
    _rotate_rows,
    _wrap_angle,
    image_homography,
    perturbation_matrix,
)
from .kitti import (
    _ALPHA, _BBOX_COLUMNS, _BOX_COLUMNS, DONTCARE, ObjectLabel, _LabelTable, _labels_of, _stacked,
    _table_of,
)
from .netpbm import RasterImage


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


def transform_labels(
    labels,
    k: CameraIntrinsics,
    rotation: np.ndarray,
    image_size: tuple[int, int] | None = None,
) -> tuple[list[ObjectLabel], int]:
    """Apply an in-camera rotation to every label.

    DontCare regions pass through untouched (they have no usable 3D box).
    Returns the surviving labels, in input order, and the count of dropped
    objects (those rotated behind the camera or projected entirely outside
    the image).  An exact identity rotation returns the labels unchanged.
    All boxes of the call are moved, projected and clipped as one batch.
    Raises :class:`OutOfRange` when a kept box, rotated or projected,
    leaves the float range.
    """
    labels = list(labels)
    rotation = np.asarray(rotation, dtype=float)
    moved = _move_tables([_table_of(labels)], rotation[None], [k], [image_size])[0]
    if isinstance(moved, OutOfRange):
        raise moved
    table, dropped = moved
    untouched = iter([label for label in labels if label.class_name == DONTCARE])
    out = [
        next(untouched) if name == DONTCARE else label
        for name, label in zip(table.names, _labels_of(table))
    ]
    return out, dropped


def _move_tables(tables, rotations: np.ndarray, intrinsics, sizes=None) -> list:
    """Move each frame's label table by its own rotation, all frames' rows at once.

    Frame ``i`` is ``tables[i]``, rotated by ``rotations[i]`` and projected
    with ``intrinsics[i]``; its 2D boxes are clipped to ``sizes[i]`` (width,
    height) unless that, or ``sizes``, is None.  Each frame follows the
    rules of :func:`transform_labels` and fails alone.  Returns, per frame,
    ``(table, dropped)`` or the :class:`OutOfRange` that fails it.
    """
    (names, values, scored), frame = _stacked(tables)
    identity = (rotations == np.eye(3)).all(axis=(1, 2))
    box = ~identity[frame] & np.array([name != DONTCARE for name in names], dtype=bool)
    box_frame = frame[box]
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        moved = _rotate_rows(rotations[box_frame], values[box][:, _BOX_COLUMNS])
    unrotated = _frames_with(box_frame, ~np.isfinite(moved).all(axis=1), len(tables))
    live = ~unrotated[box_frame]  # a frame that failed its rotation is not projected
    moved, live_frame = moved[live], box_frame[live]
    fx, fy, cx, cy, skew = np.array(
        [(k.fx, k.fy, k.cx, k.cy, k.skew) for k in intrinsics], dtype=float
    )[live_frame].T[:, :, None]
    x, y, z = np.moveaxis(_corners(moved), -1, 0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # checked below
        us = (fx * x + skew * y) / z + cx
        vs = fy * y / z + cy
    left, right = us.min(axis=1), us.max(axis=1)
    top, bottom = vs.min(axis=1), vs.max(axis=1)
    if sizes is not None:
        inf = math.inf
        low, u_max, v_max = np.array(
            [(-inf, inf, inf) if size is None else (0.0, size[0] - 1.0, size[1] - 1.0)
             for size in sizes]
        )[live_frame].T
        left, right = np.clip(left, low, u_max), np.clip(right, low, u_max)
        top, bottom = np.clip(top, low, v_max), np.clip(bottom, low, v_max)
    keep = (moved[:, 2] > 0) & (z > 0).all(axis=1) & (right > left) & (bottom > top)
    bboxes = np.stack([left, top, right, bottom], axis=1)[keep]
    unprojected = _frames_with(live_frame[keep], ~np.isfinite(bboxes).all(axis=1), len(tables))
    kept = np.flatnonzero(box)[live][keep]
    moved = moved[keep]
    values = values.copy()
    values[kept[:, None], _BOX_COLUMNS] = moved
    values[kept[:, None], _BBOX_COLUMNS] = bboxes
    values[kept, _ALPHA] = [
        _wrap_angle(yaw - math.atan2(px, pz)) for px, pz, yaw in moved[:, [0, 2, 6]].tolist()
    ]
    stays = ~box
    stays[kept] = True
    dropped = np.bincount(box_frame, minlength=len(tables)) - np.bincount(
        frame[kept], minlength=len(tables)
    )
    ends = np.cumsum([len(table.names) for table in tables]).tolist()
    results = []
    for i, (start, end) in enumerate(zip([0, *ends], ends)):
        if unrotated[i]:
            results.append(OutOfRange("camera point must be finite after the rotation"))
        elif unprojected[i]:
            results.append(OutOfRange("projected 2D box must be finite"))
        else:
            rows = stays[start:end]
            table = _LabelTable(
                [name for name, row in zip(names[start:end], rows) if row],
                values[start:end][rows],
                scored[start:end][rows],
            )
            results.append((table, int(dropped[i])))
    return results


def _frames_with(frame: np.ndarray, flags: np.ndarray, n_frames: int) -> np.ndarray:
    """Which of ``n_frames`` frames own a flagged row (``frame`` numbers each row)."""
    return np.bincount(frame[flags], minlength=n_frames) > 0


def perturb_labels(
    labels,
    k: CameraIntrinsics,
    p: ExtrinsicPerturbation,
    image_size: tuple[int, int] | None = None,
) -> tuple[list[ObjectLabel], int]:
    """Apply a pitch/roll perturbation to labels (see :func:`transform_labels`)."""
    return transform_labels(labels, k, perturbation_matrix(p), image_size)


#: Output rows :func:`warp_image` resamples per pass, on scratch made once
#: per call that scales with this block, not with the image (16 rows of
#: 1242 px RGB: 5.3 MB).  Fewer, larger blocks mean fewer GIL handoffs
#: between concurrent warps; 16 rows measured fastest on two threads.
_WARP_BLOCK_ROWS = 16


def warp_image(image: RasterImage, homography: np.ndarray, fill: int = 0) -> RasterImage:
    """Resample an image under a pixel homography (inverse mapping, bilinear).

    Each output pixel (u, v) is sampled at H^-1 (u, v, 1); samples falling
    outside the source, or mapping behind the camera (non-positive
    homogeneous w), take the constant ``fill`` value.  An exact identity
    homography reproduces the input byte for byte.  Output rows are
    resampled a fixed-size block at a time on one set of scratch buffers,
    so scratch memory does not grow with the image.
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
    out = np.empty(image.data.shape, dtype=np.uint8)
    block = _BlockWarp(image.data, np.linalg.inv(h), fill)
    for top in range(0, image.height, _WARP_BLOCK_ROWS):
        block(top, out[top:top + _WARP_BLOCK_ROWS].reshape(-1, image.channels).T)
    return RasterImage(data=out)


class _BlockWarp:
    """:func:`warp_image`'s kernel and scratch for one image: call it per row block.

    Every temporary of a block is written with ``out=`` into buffers made
    here, sized for a full block, so a block allocates nothing and
    concurrent warps share nothing.  Corners are stacked (low/high, x/y),
    so the pixel ``(row_j, col_i)`` is weighted ``(texel * wx_i) * wy_j``
    and the four terms summed in the order (0, 0), (0, 1), (1, 0), (1, 1).
    """

    def __init__(self, data: np.ndarray, hinv: np.ndarray, fill: int):
        height, width, channels = data.shape
        n = min(_WARP_BLOCK_ROWS, height) * width
        self.width, self.hinv, self.fill = width, hinv, float(fill)
        # channel-planar, so each blend term runs over one long row per channel
        self.planar = data.reshape(-1, channels).T.copy()
        # tolerate float noise at the image border (e.g. sin(pi) != 0 exactly)
        self.high = np.array([[width - 1 + 1e-9], [height - 1 + 1e-9]])
        self.last = np.array([[width - 1.0], [height - 1.0]])
        self.last_index = np.array([[width - 1], [height - 1]], dtype=np.intp)
        self.row = np.repeat(np.arange(n // width, dtype=float), width)
        grid = np.empty((3, n))  # (u, v, 1) of each output pixel
        grid[0] = np.tile(np.arange(width, dtype=float), n // width)
        grid[2] = 1.0
        self.scratch = (
            grid,
            np.empty((3, n)),  # H^-1 (u, v, 1)
            np.empty((2, n), dtype=bool),  # valid, invalid
            np.empty((2, 2, n), dtype=bool),  # inside, test
            np.empty((2, 2, n)),  # weights: (1 - fx, 1 - fy), (fx, fy)
            np.empty((2, 2, n), dtype=np.intp),  # corners: (x0, y0), (x1, y1)
            np.empty((2, 2, n), dtype=np.intp),  # raster index of (row j, column i)
            np.empty((channels, 2, 2, n), dtype=np.uint8),  # texels
            np.empty((channels, 2, 2, n)),  # weighted texels
        )

    def __call__(self, top: int, out: np.ndarray) -> None:
        """Warp the rows from ``top`` into ``out``, (channels, pixels) like the planar raster."""
        n = out.shape[1]
        grid, src, (valid, invalid), (inside, test), weights, corner, index, texels, terms = (
            buf[..., :n] for buf in self.scratch
        )
        np.add(self.row[:n], top, out=grid[1])
        np.matmul(self.hinv, grid, out=src)
        np.greater(src[2], 1e-12, out=valid)
        np.logical_not(valid, out=invalid)
        np.copyto(src[2], 1.0, where=invalid)
        xy = weights[1]  # x, y, then fx, fy in place
        np.divide(src[:2], src[2], out=xy)
        np.greater_equal(xy, -1e-9, out=inside)
        np.less_equal(xy, self.high, out=test)
        np.logical_and(inside, test, out=inside)
        np.logical_and(valid, inside[0], out=valid)
        np.logical_and(valid, inside[1], out=valid)
        np.logical_not(valid, out=invalid)
        np.copyto(xy, 0.0, where=invalid)
        np.clip(xy, 0.0, self.last, out=xy)
        np.copyto(corner[0], xy, casting="unsafe")  # truncation is floor, as xy >= 0
        np.add(corner[0], 1, out=corner[1])
        np.minimum(corner[1], self.last_index, out=corner[1])
        np.subtract(xy, corner[0], out=xy)
        np.subtract(1, xy, out=weights[0])
        rows = corner[:, 1]
        np.multiply(rows, self.width, out=rows)
        np.add(rows[:, None], corner[None, :, 0], out=index)
        np.take(self.planar, index, axis=1, out=texels, mode="clip")
        np.copyto(terms, texels)  # converting gathered uint8 equals converting the raster
        np.multiply(terms, weights[:, 0], out=terms)
        np.multiply(terms, weights[:, 1, None], out=terms)
        value = terms[:, 0, 0]
        np.add(value, terms[:, 0, 1], out=value)
        np.add(value, terms[:, 1, 0], out=value)
        np.add(value, terms[:, 1, 1], out=value)
        np.copyto(value, self.fill, where=invalid)
        np.rint(value, out=value)
        np.clip(value, 0, 255, out=value)
        np.copyto(out, value, casting="unsafe")


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

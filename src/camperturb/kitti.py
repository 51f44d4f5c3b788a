"""Parsers and writers for KITTI-style object labels, calibration, and poses.

Three whitespace-delimited text formats are supported:

* **Object labels** — one object per line, 15 fields (ground truth) or 16
  (detections, trailing confidence score)::

      type truncated occluded alpha left top right bottom height width
      length x y z rotation_y [score]

  ``DontCare`` lines mark regions to be excluded from evaluation; their
  3D fields carry sentinel values (-1, -10, -1000) and are accepted
  verbatim, bypassing the range checks applied to real objects.

* **Calibration** — ``KEY: v1 v2 ...`` lines; P0-P3 are 3x4 projections,
  R0_rect is 3x3, Tr_velo_to_cam is 3x4.  Unknown keys are ignored.

* **Odometry poses** — one 3x4 row-major rigid transform per line, twelve
  floats; the left 3x3 block must be a rotation (orthogonal within 1e-6).

Numeric fields are written with two decimal places (the conventional
fixed-point label format), so write-then-parse round-trips values to
within 5e-3.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import MalformedLine, MissingKey, NonFiniteValue, NotARotation
from .geometry import ROTATION_TOL, Box3D, CameraIntrinsics, CameraPoint, ensure_rotation

DONTCARE = "DontCare"

#: Minimum 2D box height (pixels) for the Easy / Moderate-and-Hard bins.
MIN_HEIGHT = {"easy": 40.0, "moderate": 25.0, "hard": 25.0}
#: Maximum occlusion level per bin (0 fully visible .. 2 largely occluded).
MAX_OCCLUSION = {"easy": 0, "moderate": 1, "hard": 2}
#: Maximum truncation fraction per bin.
MAX_TRUNCATION = {"easy": 0.15, "moderate": 0.30, "hard": 0.50}

_LABEL_FIELDS = (
    "truncated",
    "occluded",
    "alpha",
    "bbox_left",
    "bbox_top",
    "bbox_right",
    "bbox_bottom",
    "height",
    "width",
    "length",
    "x",
    "y",
    "z",
    "rotation_y",
    "score",
)


class DifficultyBin(enum.IntEnum):
    """KITTI difficulty of a ground-truth object.

    Bins are cumulative for evaluation: an object counts for bin B if its
    own difficulty is <= B.  ``IGNORED`` objects never count.
    """

    EASY = 0
    MODERATE = 1
    HARD = 2
    IGNORED = 3


@dataclass(frozen=True)
class ObjectLabel:
    """One object annotation (or detection, when ``score`` is present)."""

    class_name: str
    truncated: float
    occluded: int
    alpha: float
    bbox_left: float
    bbox_top: float
    bbox_right: float
    bbox_bottom: float
    height: float
    width: float
    length: float
    x: float
    y: float
    z: float
    rotation_y: float
    score: float | None = None

    def __post_init__(self):
        values = [
            self.truncated, self.alpha, self.bbox_left, self.bbox_top,
            self.bbox_right, self.bbox_bottom, self.height, self.width,
            self.length, self.x, self.y, self.z, self.rotation_y,
        ]
        if self.score is not None:
            values.append(self.score)
        for v in values:
            if not math.isfinite(v):
                raise ValueError(f"label field must be finite, got {v!r}")
        if not self.class_name or any(ch.isspace() for ch in self.class_name):
            raise ValueError(f"invalid class name {self.class_name!r}")
        if self.bbox_right <= self.bbox_left:
            raise ValueError(
                f"bbox_right must exceed bbox_left "
                f"({self.bbox_right} <= {self.bbox_left})"
            )
        if self.bbox_bottom <= self.bbox_top:
            raise ValueError(
                f"bbox_bottom must exceed bbox_top "
                f"({self.bbox_bottom} <= {self.bbox_top})"
            )
        if self.class_name == DONTCARE:
            return  # sentinel -1/-10/-1000 values are legal here
        if self.height <= 0 or self.width <= 0 or self.length <= 0:
            raise ValueError(
                "dimensions must be positive, got "
                f"h={self.height}, w={self.width}, l={self.length}"
            )
        if not 0.0 <= self.truncated <= 1.0:
            raise ValueError(f"truncated must lie in [0, 1], got {self.truncated}")
        if self.occluded not in (0, 1, 2, 3):
            raise ValueError(f"occluded must be one of 0..3, got {self.occluded}")
        if not -math.pi <= self.alpha <= math.pi:
            raise ValueError(f"alpha must lie in [-pi, pi], got {self.alpha}")
        if not -math.pi <= self.rotation_y <= math.pi:
            raise ValueError(
                f"rotation_y must lie in [-pi, pi], got {self.rotation_y}"
            )

    @property
    def bbox_height(self) -> float:
        return self.bbox_bottom - self.bbox_top

    def box3d(self) -> Box3D:
        """The label's 3D box (bottom-center at (x, y, z), heading rotation_y)."""
        return Box3D(
            center=CameraPoint(self.x, self.y, self.z),
            height=self.height,
            width=self.width,
            length=self.length,
            yaw=self.rotation_y,
        )

    def with_box3d(self, box: Box3D, alpha: float) -> "ObjectLabel":
        """Copy of this label with a replacement 3D box and observation angle."""
        return replace(
            self,
            alpha=alpha,
            height=box.height,
            width=box.width,
            length=box.length,
            x=box.center.x,
            y=box.center.y,
            z=box.center.z,
            rotation_y=box.yaw,
        )


def _box_rows(labels) -> np.ndarray:
    """The labels' 3D boxes as (n, 7) rows (x, y, z, h, w, l, yaw)."""
    rows = [(a.x, a.y, a.z, a.height, a.width, a.length, a.rotation_y) for a in labels]
    return np.array(rows, dtype=float).reshape(-1, 7)


@dataclass(frozen=True)
class CalibrationSet:
    """Matrices from one calibration file."""

    projections: dict[str, np.ndarray]
    rectification: np.ndarray | None
    velo_to_cam: np.ndarray | None

    def intrinsics(self, camera: str = "P2") -> CameraIntrinsics:
        """Intrinsics of the requested projection (default left color camera)."""
        if camera not in self.projections:
            raise MissingKey(camera)
        return CameraIntrinsics.from_projection(self.projections[camera])


@dataclass(frozen=True)
class OdometryPose:
    """One 3x4 camera pose (rotation + translation), row-major."""

    frame_index: int
    rotation: np.ndarray
    translation: np.ndarray


def _decode(data: bytes | str, what: str) -> str:
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data[: exc.start].count(b"\n") + 1
        raise MalformedLine(line_no, f"{what} is not valid UTF-8") from exc


def _parse_float(token: str, line_no: int, field: str) -> float:
    try:
        value = float(token)
    except ValueError as exc:
        raise MalformedLine(
            line_no, f"field '{field}': cannot parse {token!r} as a number"
        ) from exc
    if not math.isfinite(value):
        raise NonFiniteValue(line_no, field)
    return value


def parse_label_file(data: bytes | str) -> list[ObjectLabel]:
    """Parse an object label file (15 or 16 fields per line).

    Blank lines are skipped.  Raises :class:`MalformedLine` for wrong
    field counts, unparsable tokens, or out-of-range values, and
    :class:`NonFiniteValue` for NaN/inf fields; both carry the 1-based
    line number.
    """
    text = _decode(data, "label file")
    labels: list[ObjectLabel] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) not in (15, 16):
            raise MalformedLine(
                line_no, f"expected 15 or 16 fields, got {len(tokens)}"
            )
        name = tokens[0]
        values = [
            _parse_float(tok, line_no, _LABEL_FIELDS[i])
            for i, tok in enumerate(tokens[1:])
        ]
        occluded_raw = values[1]
        if occluded_raw != int(occluded_raw):
            raise MalformedLine(
                line_no, f"field 'occluded': expected an integer, got {tokens[2]!r}"
            )
        try:
            labels.append(
                ObjectLabel(
                    class_name=name,
                    truncated=values[0],
                    occluded=int(occluded_raw),
                    alpha=values[2],
                    bbox_left=values[3],
                    bbox_top=values[4],
                    bbox_right=values[5],
                    bbox_bottom=values[6],
                    height=values[7],
                    width=values[8],
                    length=values[9],
                    x=values[10],
                    y=values[11],
                    z=values[12],
                    rotation_y=values[13],
                    score=values[14] if len(values) == 15 else None,
                )
            )
        except ValueError as exc:
            raise MalformedLine(line_no, str(exc)) from exc
    return labels


def write_label_file(labels: list[ObjectLabel]) -> bytes:
    """Serialize labels in the fixed two-decimal text format.

    An empty list produces empty bytes.  ``occluded`` for DontCare rows is
    written as-is (conventionally -1 via the sentinel convention is not
    modeled; DontCare rows keep whatever integer they carry).
    """
    lines = []
    for lab in labels:
        fields = [
            lab.class_name,
            f"{lab.truncated:.2f}",
            f"{lab.occluded:d}",
            f"{lab.alpha:.2f}",
            f"{lab.bbox_left:.2f}",
            f"{lab.bbox_top:.2f}",
            f"{lab.bbox_right:.2f}",
            f"{lab.bbox_bottom:.2f}",
            f"{lab.height:.2f}",
            f"{lab.width:.2f}",
            f"{lab.length:.2f}",
            f"{lab.x:.2f}",
            f"{lab.y:.2f}",
            f"{lab.z:.2f}",
            f"{lab.rotation_y:.2f}",
        ]
        if lab.score is not None:
            fields.append(f"{lab.score:.2f}")
        lines.append(" ".join(fields))
    if not lines:
        return b""
    return ("\n".join(lines) + "\n").encode("utf-8")


_CALIB_SHAPES = {
    "P0": (3, 4), "P1": (3, 4), "P2": (3, 4), "P3": (3, 4),
    "R0_rect": (3, 3), "Tr_velo_to_cam": (3, 4),
}


def parse_calib_file(data: bytes | str) -> CalibrationSet:
    """Parse a calibration file; P2 is required, other known keys optional.

    Raises :class:`MissingKey` if P2 is absent, :class:`MalformedLine` for
    malformed rows (wrong value count, unparsable tokens, or a P2 block
    without positive focal lengths), :class:`NonFiniteValue` for NaN/inf.
    """
    text = _decode(data, "calibration file")
    found: dict[str, np.ndarray] = {}
    key_lines: dict[str, int] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        key, sep, rest = line.partition(":")
        key = key.strip()
        if not sep:
            raise MalformedLine(line_no, "expected 'KEY: values' format")
        if key not in _CALIB_SHAPES:
            continue
        shape = _CALIB_SHAPES[key]
        tokens = rest.split()
        expected = shape[0] * shape[1]
        if len(tokens) != expected:
            raise MalformedLine(
                line_no,
                f"key '{key}': expected {expected} values, got {len(tokens)}",
            )
        values = [_parse_float(tok, line_no, key) for tok in tokens]
        found[key] = np.array(values).reshape(shape)
        key_lines[key] = line_no
    if "P2" not in found:
        raise MissingKey("P2")
    p2 = found["P2"]
    if p2[0, 0] <= 0 or p2[1, 1] <= 0:
        raise MalformedLine(
            key_lines["P2"],
            f"P2 focal lengths must be positive, got {p2[0, 0]} and {p2[1, 1]}",
        )
    return CalibrationSet(
        projections={k: v for k, v in found.items() if k.startswith("P")},
        rectification=found.get("R0_rect"),
        velo_to_cam=found.get("Tr_velo_to_cam"),
    )


def parse_odometry_poses(data: bytes | str) -> list[OdometryPose]:
    """Parse an odometry pose file (twelve floats per line, row-major 3x4).

    The rotation block of every pose must pass :func:`ensure_rotation` at
    ``ROTATION_TOL`` (orthogonal within 1e-6, determinant positive);
    otherwise :class:`NotARotation` is raised with the offending line
    number attached.
    """
    text = _decode(data, "pose file")
    poses: list[OdometryPose] = []
    index = 0
    for line_no, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != 12:
            raise MalformedLine(line_no, f"expected 12 values, got {len(tokens)}")
        values = [_parse_float(tok, line_no, f"pose[{i}]") for i, tok in enumerate(tokens)]
        mat = np.array(values).reshape(3, 4)
        try:
            rot = ensure_rotation(mat[:, :3], tol=ROTATION_TOL)
        except NotARotation as exc:
            raise NotARotation(
                f"line {line_no}: pose rotation block is not a rotation ({exc})",
                line_no=line_no,
            ) from None
        poses.append(OdometryPose(frame_index=index, rotation=rot, translation=mat[:, 3]))
        index += 1
    return poses


def difficulty_of(label: ObjectLabel) -> DifficultyBin:
    """Classify a ground-truth object into its KITTI difficulty bin.

    Thresholds (2D box height, occlusion level, truncation fraction) are
    the standard benchmark cutoffs; anything failing all three bins, and
    every DontCare region, is ``IGNORED``.  Improving any single property
    never moves an object to a harder bin.
    """
    if label.class_name == DONTCARE:
        return DifficultyBin.IGNORED
    h = label.bbox_height
    if (
        h >= MIN_HEIGHT["easy"]
        and label.occluded <= MAX_OCCLUSION["easy"]
        and label.truncated <= MAX_TRUNCATION["easy"]
    ):
        return DifficultyBin.EASY
    if (
        h >= MIN_HEIGHT["moderate"]
        and label.occluded <= MAX_OCCLUSION["moderate"]
        and label.truncated <= MAX_TRUNCATION["moderate"]
    ):
        return DifficultyBin.MODERATE
    if (
        h >= MIN_HEIGHT["hard"]
        and label.occluded <= MAX_OCCLUSION["hard"]
        and label.truncated <= MAX_TRUNCATION["hard"]
    ):
        return DifficultyBin.HARD
    return DifficultyBin.IGNORED

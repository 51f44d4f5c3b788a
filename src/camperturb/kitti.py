"""Parsers and writers for KITTI-style object labels, calibration, and poses.

Three whitespace-delimited text formats are supported:

* **Object labels** — one object per line, 15 fields (ground truth) or 16
  (detections, trailing confidence score)::

      type truncated occluded alpha left top right bottom height width
      length x y z rotation_y [score]

  Every value must be finite, ``occluded`` an integer, and the 2D box must
  have ``right > left`` and ``bottom > top``.  ``DontCare`` lines mark
  regions excluded from evaluation and may carry sentinel values (-1, -10,
  -1000); every other class must also have a positive height, width and
  length, ``truncated`` in [0, 1], ``occluded`` in 0..3, and ``alpha`` and
  ``rotation_y`` in [-pi, pi] (``_LABEL_RULES``).

* **Calibration** — ``KEY: v1 v2 ...`` lines; P0-P3 are 3x4 projections,
  R0_rect is 3x3, Tr_velo_to_cam is 3x4.  Unknown keys are ignored.

* **Odometry poses** — one 3x4 row-major rigid transform per line, twelve
  floats; the left 3x3 block must be a rotation (orthogonal within 1e-6).

Box fields are written with two decimal places (the conventional
fixed-point label format), so write-then-parse round-trips them to within
5e-3.  Scores are written exactly: with two decimals when that text parses
back to the same float, and in the shortest round-trip form otherwise.
"""

from __future__ import annotations

import enum
import math
import operator
import sys
from array import array
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import MalformedLine, MissingKey, NonFiniteValue, NotARotation
from .geometry import ROTATION_TOL, Box3D, CameraIntrinsics, CameraPoint, _rotation_fault

DONTCARE = "DontCare"

#: Minimum 2D box height (pixels) for the Easy / Moderate-and-Hard bins.
MIN_HEIGHT = {"easy": 40.0, "moderate": 25.0, "hard": 25.0}
#: Maximum occlusion level per bin (0 fully visible .. 2 largely occluded).
MAX_OCCLUSION = {"easy": 0, "moderate": 1, "hard": 2}
#: Maximum truncation fraction per bin.
MAX_TRUNCATION = {"easy": 0.15, "moderate": 0.30, "hard": 0.50}
#: (minimum height, maximum occlusion, maximum truncation) of each bin, easiest first.
_BIN_LIMITS = np.array([(MIN_HEIGHT[b], MAX_OCCLUSION[b], MAX_TRUNCATION[b]) for b in MIN_HEIGHT])


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
    """One object annotation (or detection, when ``score`` is present).

    The fields are the label file's columns, in file order.
    """

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
        if fault := _rule_fault(vars(self)):
            raise ValueError(fault)

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


#: Every field of a label, and the columns after the class name, in file order.
_LABEL_ATTRIBUTES = tuple(field.name for field in fields(ObjectLabel))
_LABEL_FIELDS = _LABEL_ATTRIBUTES[1:]
_label_values = operator.attrgetter(*_LABEL_FIELDS)
#: Every column but the score: ``occluded`` as an integer, the rest to 2 decimals.
_LINE_FORMAT = " ".join(
    ["%s"] + ["%d" if name == "occluded" else "%.2f" for name in _LABEL_FIELDS[:-1]]
)


def _columns(*names: str) -> list[int]:
    return [_LABEL_FIELDS.index(name) for name in names]


#: Label table columns of the (x, y, z, h, w, l, yaw) box rows, the 2D box, and
#: the single columns the kernels read.
_BOX_COLUMNS = _columns("x", "y", "z", "height", "width", "length", "rotation_y")
_BBOX_COLUMNS = _columns("bbox_left", "bbox_top", "bbox_right", "bbox_bottom")
_TRUNCATED, _OCCLUDED, _ALPHA, _SCORE = _columns("truncated", "occluded", "alpha", "score")


_MAX = sys.float_info.max
#: The rules of a label row, in the order a failure is reported.  Each holds the
#: columns it reads; their bounds: an inclusive (low, high), a range of integers,
#: "increasing" (each column exceeds the one before) or "name" (a non-empty class
#: name without whitespace, as every name token of a file is); whether DontCare
#: rows obey it; and its message, formatted with the first failing value and the
#: row's fields.  The smallest positive float as a low bound makes it ``> 0``.
_LABEL_RULES = (
    (tuple(name for name in _LABEL_FIELDS if name != "occluded"), (-_MAX, _MAX), True,
     "label field must be finite, got {0!r}"),
    (("class_name",), "name", True, "invalid class name {0!r}"),
    (("bbox_left", "bbox_right"), "increasing", True,
     "bbox_right must exceed bbox_left ({bbox_right} <= {bbox_left})"),
    (("bbox_top", "bbox_bottom"), "increasing", True,
     "bbox_bottom must exceed bbox_top ({bbox_bottom} <= {bbox_top})"),
    (("height", "width", "length"), (math.ulp(0.0), _MAX), False,
     "dimensions must be positive, got h={height}, w={width}, l={length}"),
    (("truncated",), (0.0, 1.0), False, "truncated must lie in [0, 1], got {0}"),
    (("occluded",), range(4), False, "occluded must be one of 0..3, got {0}"),
    (("alpha",), (-math.pi, math.pi), False, "alpha must lie in [-pi, pi], got {0}"),
    (("rotation_y",), (-math.pi, math.pi), False, "rotation_y must lie in [-pi, pi], got {0}"),
)


def _rule_fault(row: dict) -> str | None:
    """The message of the first rule of :data:`_LABEL_RULES` that ``row`` (a label's
    fields by name) breaks, or None.  A ``score`` of None is no value."""
    for columns, bounds, dontcare, message in _LABEL_RULES:
        if not dontcare and row["class_name"] == DONTCARE:
            continue
        values = [row[name] for name in columns if name != "score" or row[name] is not None]
        if bounds == "increasing":
            values = [b for a, b in zip(values, values[1:]) if not b > a]
        elif bounds == "name":
            values = [v for v in values if not v or any(ch.isspace() for ch in v)]
        elif isinstance(bounds, range):
            values = [v for v in values if v not in bounds]
        else:
            values = [v for v in values if not bounds[0] <= v <= bounds[1]]
        if values:
            return message.format(values[0], **row)
    return None


def _row_bounds(rules) -> np.ndarray:
    """Inclusive (lows, highs) of the table columns for DontCare rows and every other
    class: finite, and within the bounds (a range: its ends) of each rule they obey."""
    bounds = np.full((2, 2, len(_LABEL_FIELDS)), [[-_MAX], [_MAX]])
    for columns, limits, dontcare, _ in rules:
        if not isinstance(limits, str):
            rows, cols = slice(0 if dontcare else 1, 2), _columns(*columns)
            bounds[rows, 0, cols] = np.maximum(bounds[rows, 0, cols], limits[0])
            bounds[rows, 1, cols] = np.minimum(bounds[rows, 1, cols], limits[-1])
    return bounds


#: The bounds and the increasing column pairs of :data:`_LABEL_RULES`, for :func:`_valid_rows`.
_ROW_BOUNDS = _row_bounds(_LABEL_RULES)
_INCREASING = [_columns(*columns) for columns, bounds, *_ in _LABEL_RULES if bounds == "increasing"]


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


#: Bytes of text decoded and split into lines at a time by :func:`_text_lines`.
_TEXT_BLOCK = 1 << 16


def _text_lines(data: bytes | str, what: str):
    """``(line_no, line)`` for each line of ``data``, numbered as ``splitlines``
    numbers them, decoded and split a block of ``_TEXT_BLOCK`` at a time.

    Only one block of the text is held at once.  An invalid UTF-8 byte
    anywhere in ``data`` is raised before the first line.
    """
    if not isinstance(data, str) and not data.isascii():
        _decode(data, what)  # raises at the first bad byte; the text is dropped
    newline = "\n" if isinstance(data, str) else b"\n"
    line_no = start = 0
    while start < len(data):
        end = data.find(newline, start + _TEXT_BLOCK) + 1 or len(data)
        for line in _decode(data[start:end], what).splitlines():
            line_no += 1
            yield line_no, line
        start = end


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


class _LabelTable(NamedTuple):
    """Labels as columns: class names, the other columns as one (n, 15) array in
    file order (0 in the score column of a row without a score), and which rows
    have a score."""

    names: list[str]
    values: np.ndarray
    scored: np.ndarray


def _stacked(tables) -> tuple[_LabelTable, np.ndarray]:
    """One label table of ``tables`` in order, and the index of each row's table."""
    stacked = _LabelTable(
        [name for table in tables for name in table.names],
        np.concatenate([table.values for table in tables]),
        np.concatenate([table.scored for table in tables]),
    )
    return stacked, np.repeat(np.arange(len(tables)), [len(table.names) for table in tables])


def _label_table(data: bytes | str) -> _LabelTable:
    """The labels of :func:`parse_label_file` as one table: each line converted by one
    ``map(float)``, every row checked at once (:func:`_valid_rows`), and the first line
    that fails read again by :func:`_raise_line_error`, which raises its error."""
    lines = _decode(data, "label file").splitlines()
    names: list[str] = []
    rows: list[list[float]] = []
    scored: list[bool] = []
    line_nos: list[int] = []
    failed = None
    for line_no, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens:
            continue
        try:
            row = list(map(float, tokens[1:])) if len(tokens) in (15, 16) else None
        except ValueError:
            row = None
        if row is None:
            failed = line_no
            break
        scored.append(len(row) == 15)
        names.append(sys.intern(tokens[0]))  # one string per class, not per row
        rows.append(row if len(row) == 15 else row + [0.0])
        line_nos.append(line_no)
    values = np.array(rows, dtype=float).reshape(-1, 15)
    bad = np.flatnonzero(~_valid_rows(names, values))
    if bad.size:
        failed = line_nos[bad[0]]  # the rows all come before a line that failed to convert
    if failed is not None:
        _raise_line_error(lines[failed - 1].split(), failed)
    return _LabelTable(names, values, np.array(scored, dtype=bool))


def _valid_rows(names: list[str], values: np.ndarray) -> np.ndarray:
    """Which table rows pass :data:`_LABEL_RULES` and the token rules (every value
    finite, ``occluded`` an integer on every row)."""
    low, high = _ROW_BOUNDS[[int(name != DONTCARE) for name in names]].swapaxes(0, 1)
    occluded = values[:, _OCCLUDED]
    valid = ((values >= low) & (values <= high)).all(axis=1) & (occluded == np.trunc(occluded))
    for earlier, later in _INCREASING:
        valid &= values[:, later] > values[:, earlier]
    return valid


def _raise_line_error(tokens: list[str], line_no: int):
    """Raise the error of a label line that fails the table check: the first
    token rule it breaks (15 or 16 fields, each a finite number, ``occluded`` an
    integer), else the first rule of :data:`_LABEL_RULES`."""
    if len(tokens) not in (15, 16):
        raise MalformedLine(line_no, f"expected 15 or 16 fields, got {len(tokens)}")
    values = [_parse_float(tok, line_no, field) for tok, field in zip(tokens[1:], _LABEL_FIELDS)]
    if values[1] != int(values[1]):
        raise MalformedLine(line_no, f"field 'occluded': expected an integer, got {tokens[2]!r}")
    values[1] = int(values[1])
    row = dict(zip(_LABEL_ATTRIBUTES, (tokens[0], *values, None)))  # a 15-field line: no score
    raise MalformedLine(line_no, _rule_fault(row))


def _labels_of(table: _LabelTable) -> list[ObjectLabel]:
    """The table's rows as labels.  A table holds only rows that pass
    :data:`_LABEL_RULES`, so the labels are built without checking them again."""
    labels = []
    for name, (truncated, occluded, *columns, score), scored in zip(
        table.names, table.values.tolist(), table.scored.tolist()
    ):
        label = object.__new__(ObjectLabel)
        label.__dict__.update(zip(
            _LABEL_ATTRIBUTES,
            (name, truncated, int(occluded), *columns, score if scored else None),
        ))
        labels.append(label)
    return labels


def _table_of(labels) -> _LabelTable:
    rows = [_label_values(label) for label in labels]
    values = [(*row[:-1], 0.0 if row[-1] is None else row[-1]) for row in rows]
    return _LabelTable(
        [label.class_name for label in labels],
        np.array(values, dtype=float).reshape(-1, 15),
        np.array([row[-1] is not None for row in rows], dtype=bool),
    )


def _table_text(table: _LabelTable) -> bytes:
    """The label file of :func:`write_label_file` for a table."""
    lines = []
    for name, (*columns, score), scored in zip(
        table.names, table.values.tolist(), table.scored.tolist()
    ):
        line = _LINE_FORMAT % (name, *columns)
        if scored:
            text = f"{score:.2f}"
            line += " " + (text if float(text) == score else repr(score))
        lines.append(line)
    if not lines:
        return b""
    return ("\n".join(lines) + "\n").encode("utf-8")


def parse_label_file(data: bytes | str) -> list[ObjectLabel]:
    """Parse an object label file (15 or 16 fields per line).

    Blank lines are skipped.  Raises :class:`MalformedLine` for wrong
    field counts, unparsable tokens, or out-of-range values, and
    :class:`NonFiniteValue` for NaN/inf fields; both carry the 1-based
    line number of the first bad line.
    """
    return _labels_of(_label_table(data))


def write_label_file(labels: list[ObjectLabel]) -> bytes:
    """Serialize labels in the fixed two-decimal text format, scores exactly.

    A score is written with two decimals when that text parses back to the
    same float, and as its shortest round-trip form otherwise.  An empty
    list produces empty bytes.  ``occluded`` is written as the integer each
    label carries; DontCare rows are not given the KITTI -1 sentinel.
    Raises ``ValueError`` for a label whose ``occluded`` is not an integer
    (a DontCare label may be built with one), before any text is built.
    """
    table = _table_of(labels)
    occluded = table.values[:, _OCCLUDED]
    bad = ~np.isfinite(occluded) | (occluded != np.trunc(occluded))
    if bad.any():
        raise ValueError(f"field 'occluded' must be an integer, got {float(occluded[bad][0])}")
    return _table_text(table)


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
        values = [_parse_float(token, line_no, key) for token in tokens]
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


_POSE_FIELDS = tuple(f"pose[{i}]" for i in range(12))


def parse_odometry_poses(data: bytes | str) -> list[OdometryPose]:
    """Parse an odometry pose file (twelve floats per line, row-major 3x4).

    The rotation block of every pose must be a proper rotation at
    ``ROTATION_TOL`` (orthogonal within 1e-6, determinant positive, the
    rule of :func:`ensure_rotation`); otherwise :class:`NotARotation` is
    raised with the offending line number attached.  Errors are reported
    for the first bad line in file order.
    """
    return [
        OdometryPose(frame_index=index, rotation=pose[:, :3], translation=pose[:, 3])
        for index, pose in enumerate(_pose_stack(data))
    ]


def _pose_stack(data: bytes | str) -> np.ndarray:
    """The poses of :func:`parse_odometry_poses` as one (n, 3, 4) array, checked at once.

    The text is read a block at a time (:func:`_text_lines`) into one
    preallocated array, each line converted by one ``map(float)``.  A line
    that does not give twelve values with a finite sum is read again by
    :func:`_pose_row`, which raises at its first bad value.
    """
    values = np.empty((data.count("\n" if isinstance(data, str) else b"\n") + 1, 12))
    line_nos = array("q")
    for line_no, line in _text_lines(data, "pose file"):
        tokens = line.split()
        if not tokens:
            continue
        try:
            row = list(map(float, tokens)) if len(tokens) == 12 else None
        except ValueError:
            row = None
        if row is None or not math.isfinite(sum(row)):
            try:
                row = _pose_row(tokens, line_no)
            except (MalformedLine, NonFiniteValue):
                _require_pose_rotations(values, line_nos)  # a bad rotation above comes first
                raise
        if len(line_nos) == len(values):  # more line breaks than newlines
            values = np.resize(values, (2 * len(values), 12))
        values[len(line_nos)] = row
        line_nos.append(line_no)
    return _require_pose_rotations(values, line_nos)


def _pose_row(tokens: list[str], line_no: int) -> list[float]:
    """One pose line's twelve values by the per-field rules, which raise at the first bad one."""
    if len(tokens) != 12:
        raise MalformedLine(line_no, f"expected 12 values, got {len(tokens)}")
    return [_parse_float(tok, line_no, field) for tok, field in zip(tokens, _POSE_FIELDS)]


def _require_pose_rotations(values: np.ndarray, line_nos) -> np.ndarray:
    """The parsed rows of ``values`` as an (n, 3, 4) array, every rotation block checked."""
    poses = values[:len(line_nos)].reshape(-1, 3, 4)
    fault = _rotation_fault(poses[:, :, :3], ROTATION_TOL)
    if fault is not None:
        index, reason = fault
        line_no = line_nos[index]
        raise NotARotation(
            f"line {line_no}: pose rotation block is not a rotation ({reason})",
            line_no=line_no,
        )
    return poses


def difficulty_of(label: ObjectLabel) -> DifficultyBin:
    """Classify a ground-truth object into its KITTI difficulty bin.

    Thresholds (2D box height, occlusion level, truncation fraction) are
    the standard benchmark cutoffs; anything failing all three bins, and
    every DontCare region, is ``IGNORED``.  Improving any single property
    never moves an object to a harder bin.
    """
    return DifficultyBin(_bins_of(_table_of([label]))[0])


def _bins_of(table: _LabelTable) -> np.ndarray:
    """The :class:`DifficultyBin` of each table row, by the rule of :func:`difficulty_of`."""
    values = table.values
    _, top, _, bottom = values[:, _BBOX_COLUMNS].T
    min_height, max_occlusion, max_truncation = _BIN_LIMITS.T
    fits = (  # each row against each bin, easiest first, so a bin is its index
        ((bottom - top)[:, None] >= min_height)
        & (values[:, _OCCLUDED, None] <= max_occlusion)
        & (values[:, _TRUNCATED, None] <= max_truncation)
    )
    fits[np.array([name == DONTCARE for name in table.names], dtype=bool)] = False
    return np.where(fits.any(axis=1), fits.argmax(axis=1), DifficultyBin.IGNORED)

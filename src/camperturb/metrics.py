"""Detection metrics: rotated-box IoU, matching, AP40 / AOS, center-distance errors.

Overlap of yaw-rotated boxes is computed exactly, for many box pairs at
once: the bird's-eye-view (BEV) footprints are rectangles, the vertices
of their intersection are the corners of each inside the other plus the
crossings of their edges, and sorted by angle these give the area by the
shoelace formula.  3D IoU multiplies the BEV intersection by the overlap
of the vertical extents, so ``bev`` and ``3d`` share one intersection.
The same-class pairs of a whole chunk of frames are gathered with NumPy
and scored in one kernel call per IoU group (``2d``; ``bev`` and ``3d``);
``iou_2d``/``iou_bev``/``iou_3d`` score one pair through the same kernel.

AP40 follows the 40-recall-point protocol: detections are matched
greedily in score order, the precision-recall curve is sampled after
every distinct score value (so tied scores enter the curve together and
the result is independent of tie ordering), and precision is
max-interpolated at recalls 1/40 .. 40/40.  AOS runs the same sweep with
the numerator replaced by accumulated orientation similarity
(1 + cos(delta alpha)) / 2, which makes AOS <= AP on 2D matching.
:func:`_record_chunk` scores a chunk of frames of one or more detection
sets into a flat tally of columns, a row per scored detection in visit
order (by frame, descending score): per set its ``"score"`` and
``"class"`` code (into the chunk's ``"names"``), per ``(set, kind,
bin)`` an int8 outcome (1 TP, 0 FP, -1 ignored) and for ``2d`` a
``"similarity"`` (0 unless a TP), and the ``"nuscenes"`` (ATE, ASE, AOE)
row and class code of each match.  ``num_gt`` counts in-bin ground truth
by ``(set, kind, bin, class)``.  One :func:`_greedy_by_rank` call matches
them all, every (frame, class) group side by side, one NumPy step per
detection rank.  :func:`_cell`, the one reader of a tally, selects a
cell's rows by class and outcome for :func:`class_sweep`.
"""

from __future__ import annotations

import math
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DegenerateBox, NoGroundTruth, NoMatches
from .geometry import Box3D, CameraIntrinsics, _box_row, _corners
from .kitti import (
    _ALPHA, _BBOX_COLUMNS, _BOX_COLUMNS, _SCORE, DONTCARE, DifficultyBin, ObjectLabel, _bins_of,
    _stacked, _table_of,
)

#: The 40 recall checkpoints of the AP40 protocol: 1/40, 2/40, ..., 1.
RECALL_POINTS = tuple((k + 1) / 40.0 for k in range(40))


@dataclass(frozen=True)
class DetectionFrame:
    """Ground truth and scored detections for one frame."""

    frame_id: str
    ground_truth: tuple[ObjectLabel, ...]
    detections: tuple[ObjectLabel, ...]
    intrinsics: CameraIntrinsics | None = None

    def __post_init__(self):
        object.__setattr__(self, "ground_truth", tuple(self.ground_truth))
        object.__setattr__(self, "detections", tuple(self.detections))
        _require_scores(self.frame_id, _table_of(self.detections))


def _require_scores(frame_id: str, dets) -> None:
    """Raise ``ValueError`` unless every detection row but a DontCare region has a score."""
    if not all(scored or name == DONTCARE for name, scored in zip(dets.names, dets.scored)):
        raise ValueError(f"detection without a score in frame {frame_id!r}")


def _tables(frame: DetectionFrame):
    """The frame's ground truth and detections as label tables."""
    return _table_of(frame.ground_truth), _table_of(frame.detections)


@dataclass(frozen=True)
class MatchResult:
    """Greedy matching of one frame.

    ``pairs`` holds (gt_index, det_index, iou) for true positives;
    ``unmatched_gt`` are in-bin ground-truth objects left unmatched (false
    negatives); ``unmatched_det`` are false-positive detection indices;
    ``ignored_det`` are detections absorbed by out-of-bin ground truth or
    DontCare regions (they count as neither TP nor FP).
    """

    pairs: tuple[tuple[int, int, float], ...]
    unmatched_gt: tuple[int, ...]
    unmatched_det: tuple[int, ...]
    ignored_det: tuple[int, ...]


@dataclass(frozen=True)
class PRCurve:
    """Interpolated precision at each of the 40 recall checkpoints."""

    recalls: tuple[float, ...]
    precisions: tuple[float, ...]


@dataclass(frozen=True)
class NuScenesErrors:
    """Mean true-positive errors: translation (m), scale (1-IoU), orientation (rad)."""

    ate: float
    ase: float
    aoe: float
    matches: int


def _rect_overlap(a: np.ndarray, b: np.ndarray, ia, ib):
    """Intersection (0 when disjoint) and both areas of each 2D box row pair
    (a[ia[k]], b[ib[k]]).

    Rows are (left, top, right, bottom).
    """
    iw = np.minimum(a[ia, 2], b[ib, 2]) - np.maximum(a[ia, 0], b[ib, 0])
    ih = np.minimum(a[ia, 3], b[ib, 3]) - np.maximum(a[ia, 1], b[ib, 1])
    inter = np.where((iw > 0) & (ih > 0), iw * ih, 0.0)
    area_a = (a[ia, 2] - a[ia, 0]) * (a[ia, 3] - a[ia, 1])
    return inter, area_a, (b[ib, 2] - b[ib, 0]) * (b[ib, 3] - b[ib, 1])


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _convex_intersection(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Intersection areas of paired counter-clockwise quadrilaterals, (n, 4, 2) each.

    The intersection is convex; its vertices are the corners of each
    polygon inside the other plus the 16 edge-edge crossings.  Sorted by
    angle about their mean they give the area by the shoelace formula.
    """
    n = len(p)
    p, q = p - p[:, :1], q - p[:, :1]  # small coordinates round less
    r = (np.roll(p, -1, axis=1) - p)[:, :, None]  # edge i of p: p[i] + t r[i]
    s = (np.roll(q, -1, axis=1) - q)[:, None]  # edge j of q: q[j] + u s[j]
    d = q[:, None] - p[:, :, None]
    ds, dr, den = _cross(d, s), _cross(d, r), _cross(r, s)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # (near-)parallel edges
        t, u = ds / den, dr / den
        crossings = (p[:, :, None] + t[..., None] * r).reshape(n, 16, 2)
    # crossings within 1e-14 edge lengths past a corner count: rounding loses no vertex
    lo, hi = -1e-14, 1.0 + 1e-14
    crosses = (den != 0) & (t >= lo) & (t <= hi) & (u >= lo) & (u <= hi)
    # a corner is inside the other polygon when it is left of (or on) all its edges
    keep = np.concatenate(
        [(ds >= 0).all(axis=2), (dr <= 0).all(axis=1), crosses.reshape(n, 16)], axis=1
    )
    points = np.where(keep[..., None], np.concatenate([p, q, crossings], axis=1), 0.0)
    count = keep.sum(axis=1)
    offset = points - points.sum(1, keepdims=True) / np.maximum(count, 1)[:, None, None]
    angle = np.where(keep, np.arctan2(offset[..., 1], offset[..., 0]), np.inf)
    # kept points in angle order, the last one repeated over the dropped tail
    last = np.maximum(count, 1)[:, None] - 1
    order = np.take_along_axis(np.argsort(angle, 1), np.minimum(np.arange(24), last), 1)
    x, y = np.moveaxis(np.take_along_axis(points, order[..., None], axis=1), -1, 0)
    twice = (x * np.roll(y, -1, 1)).sum(axis=1) - (y * np.roll(x, -1, 1)).sum(axis=1)
    return np.where(count >= 3, 0.5 * np.abs(twice), 0.0)


#: A compared box's 2D area, BEV area and volume stay below this, so that the
#: union of two boxes, a sum of two of them, is finite.
_MAX_MEASURE = sys.float_info.max / 2
#: Corner coordinates of a compared box stay below this in magnitude, so that the
#: edge crossings and shoelace sums of :func:`_convex_intersection` are finite.
_MAX_EXTENT = 1e152


def _row_faults(kinds: tuple[str, ...], rows: np.ndarray) -> list[tuple[str, np.ndarray]]:
    """``(reason, mask)`` of each rule that :func:`_pair_ious` holds the rows of
    an IoU group to, in the order they are checked: no BEV footprint of
    (near-)zero area, nor a volume of zero (for ``"3d"``), every measure
    below ``_MAX_MEASURE``, and every corner coordinate below ``_MAX_EXTENT``."""
    with np.errstate(over="ignore"):  # the rules catch what overflows
        if kinds == ("2d",):
            area = (rows[:, 2] - rows[:, 0]) * (rows[:, 3] - rows[:, 1])
            return [("2D box area reaches half the float range", ~(area < _MAX_MEASURE)),
                    ("2D box coordinate reaches 1e152", ~(np.abs(rows).max(axis=1) < _MAX_EXTENT))]
        area = rows[:, 4] * rows[:, 5]
        reach = np.maximum(np.abs(rows[:, 0]), np.abs(rows[:, 2])) + 0.5 * (rows[:, 4] + rows[:, 5])
        faults = [("BEV footprint has (near-)zero area", area < 1e-12),
                  ("BEV footprint area reaches half the float range", ~(area < _MAX_MEASURE))]
        if "3d" in kinds:
            volume = area * rows[:, 3]
            faults += [("box has zero volume", volume == 0.0),
                       ("box volume reaches half the float range", ~(volume < _MAX_MEASURE))]
        faults.append(("BEV footprint reaches 1e152 m from the camera", ~(reach < _MAX_EXTENT)))
        if "3d" in kinds:
            faults.append(("box top or bottom reaches 1e152 m from the camera",
                           ~(np.abs(rows[:, 1]) + rows[:, 3] < _MAX_EXTENT)))
    return faults


def _refuse(kinds: tuple[str, ...], a: np.ndarray, b: np.ndarray, ia, ib, frame_of=None):
    """Raise :class:`DegenerateBox` for the first row pair (a[ia[k]], b[ib[k]])
    that breaks a rule of :func:`_row_faults`, with the first rule it breaks,
    naming the frame ``frame_of(ia[k])`` if given."""
    broken = [(reason, bad_a[ia] | bad_b[ib])
              for (reason, bad_a), (_, bad_b) in zip(_row_faults(kinds, a), _row_faults(kinds, b))]
    bad = np.logical_or.reduce([mask for _, mask in broken])
    if bad.any():
        k = int(np.argmax(bad))
        reason = next(reason for reason, mask in broken if mask[k])
        raise DegenerateBox(f"frame {frame_of(ia[k])}: {reason}" if frame_of else reason)


#: Near box pairs (bounding circles not apart) per :func:`_convex_intersection`
#: call, which bounds the polygon temporaries of a chunk.
_NEAR_PAIRS = 128


def _pair_ious(kinds: tuple[str, ...], a: np.ndarray, b: np.ndarray, ia, ib,
               frame_of=None) -> list[np.ndarray]:
    """IoU of each row pair (a[ia[k]], b[ib[k]]) for each of ``kinds``, in order.

    Rows are (left, top, right, bottom) 2D boxes for ``("2d",)`` and
    (x, y, z, h, w, l, yaw) 3D boxes for ``"bev"`` and ``"3d"``, which share
    one BEV intersection.  Raises :class:`DegenerateBox` (:func:`_refuse`) if
    a compared box breaks a rule of :func:`_row_faults`.
    """
    _refuse(kinds, a, b, ia, ib, frame_of)
    if kinds == ("2d",):
        inter, area_a, area_b = _rect_overlap(a, b, ia, ib)
        union = area_a + area_b - inter  # 0 with an area that underflows: overlap is 0
        return [np.divide(inter, union, out=np.zeros_like(inter), where=inter > 0.0)]
    area_a = a[ia, 4] * a[ia, 5]
    area_b = b[ib, 4] * b[ib, 5]
    # bit-equal footprints overlap fully, boxes with apart bounding circles not at all
    same = np.logical_and.reduce([a[ia, c] == b[ib, c] for c in (0, 2, 4, 5, 6)])
    reach = 0.5 * (np.hypot(a[ia, 4], a[ia, 5]) + np.hypot(b[ib, 4], b[ib, 5]))
    near = np.flatnonzero(~same & (np.hypot(a[ia, 0] - b[ib, 0], a[ia, 2] - b[ib, 2]) < reach))
    inter = np.where(same, area_a, 0.0)
    for k in (near[i:i + _NEAR_PAIRS] for i in range(0, len(near), _NEAR_PAIRS)):
        p, q = _corners(a[ia[k]])[:, :4, ::2], _corners(b[ib[k]])[:, :4, ::2]
        inter[k] = _convex_intersection(p, q)
    inter = np.minimum(np.minimum(inter, area_a), area_b)
    ious = {"bev": inter / (area_a + area_b - inter)}
    if "3d" in kinds:
        top_a, top_b = a[ia, 1] - a[ia, 3], b[ib, 1] - b[ib, 3]
        y_overlap = np.minimum(a[ia, 1], b[ib, 1]) - np.maximum(top_a, top_b)
        vol_a = area_a * a[ia, 3]
        vol_b = area_b * b[ib, 3]
        inter_vol = np.minimum(np.minimum(inter * np.maximum(y_overlap, 0.0), vol_a), vol_b)
        ious["3d"] = inter_vol / (vol_a + vol_b - inter_vol)
    return [ious[kind] for kind in kinds]


#: IoU kinds scored from the same rows by one :func:`_pair_ious` call, with the
#: label table columns of those rows.
_IOU_GROUPS = {("2d",): _BBOX_COLUMNS, ("bev", "3d"): _BOX_COLUMNS}
_IOU_KINDS = ("2d", "bev", "3d")
#: The pair indices of one row against one row.
_ONE_PAIR = (np.zeros(1, dtype=np.intp),) * 2


def iou_2d(a: ObjectLabel, b: ObjectLabel) -> float:
    """Axis-aligned IoU of two labels' 2D boxes."""
    rows = _table_of([a, b]).values[:, _BBOX_COLUMNS]
    return float(_pair_ious(("2d",), rows[:1], rows[1:], *_ONE_PAIR)[0][0])


def iou_bev(a: Box3D, b: Box3D) -> float:
    """Exact IoU of two yaw-rotated BEV footprints, in [0, 1]."""
    return float(_pair_ious(("bev",), _box_row(a), _box_row(b), *_ONE_PAIR)[0][0])


def iou_3d(a: Box3D, b: Box3D) -> float:
    """Exact IoU of two upright 3D boxes.

    The vertical extent of a box runs from center.y (bottom) to
    center.y - height (top) in the y-down camera frame.
    """
    return float(_pair_ious(("3d",), _box_row(a), _box_row(b), *_ONE_PAIR)[0][0])


def _greedy_by_rank(segments) -> list[np.ndarray]:
    """The one greedy matching rule, for many groups at once: the column each row
    of each ``(group, row, column, value)`` segment claims, or -1.

    Candidate k offers row ``row[k]`` column ``column[k]`` of group
    ``group[row[k]]`` at a finite ``value[k]``.  A group's rows are visited in
    row order (the caller's visit order), each claiming the best-valued column
    that no earlier row claimed, the lowest on a tie.  All groups step together,
    one NumPy step per rank."""
    if not segments:
        return []
    sizes = np.array([(len(g), int(g.max(initial=-1)) + 1) for g, *_ in segments])
    starts = np.cumsum(sizes, axis=0) - sizes  # each segment's rows and groups apart
    group, row, column, value = (np.concatenate(part) for part in zip(*(
        (g + start[1], r + start[0], c, v) for (g, r, c, v), start in zip(segments, starts)
    )))
    live = np.flatnonzero(np.bincount(row, minlength=len(group)))  # rows with candidates
    live = live[np.argsort(group[live], kind="stable")]
    counts = np.unique(group[live], return_counts=True)[1]
    rank = np.arange(len(live)) - np.repeat(np.cumsum(counts) - counts, counts)
    # larger groups take lower slots, so the groups still visiting at rank k are the first n_k
    slot = np.empty(len(counts), dtype=np.intp)
    slot[np.argsort(-counts, kind="stable")] = np.arange(len(counts))
    live_slot = np.repeat(slot, counts)
    by_rank = np.lexsort((live_slot, rank))
    visit, slot_of = live[by_rank], live_slot[by_rank]
    at = np.empty(len(group), dtype=np.intp)
    at[visit] = np.arange(len(visit))
    pos = at[row]  # each candidate's visit position
    # the columns each group offers, renumbered 1, 2, ... in order, so the table is as
    # wide as the most any group offers; column 0 is offered to no row: a row with
    # nothing left to claim takes it, and it stays free
    width = int(column.max(initial=0)) + 1
    cells, cell = np.unique(slot_of[pos] * width + column, return_inverse=True)
    first = np.searchsorted(cells, np.arange(len(counts)) * width)  # each slot's first cell
    local = cell - first[slot_of[pos]] + 1
    values = np.full((len(visit), int(local.max(initial=0)) + 1), -np.inf)
    values[pos, local] = value
    claimed = np.zeros((len(counts), values.shape[1]))  # -inf once claimed
    taken, start = np.empty(len(visit), dtype=np.intp), 0
    for n in np.bincount(rank).tolist():
        j = (values[start:start + n] + claimed[:n]).argmax(axis=1)  # the first maximum
        claimed[np.arange(n), j] = -np.inf
        taken[start:start + n] = j
        start += n
    claims = np.full(len(group), -1, dtype=np.intp)
    claims[visit] = np.where(taken > 0, cells[first[slot_of] + taken - 1] % width, -1)
    return np.split(claims, starts[1:, 0])


def _partners(keys: np.ndarray, column_keys: np.ndarray):
    """The nonzero entries ``(k, j)`` of ``keys[:, None] == column_keys``, row-major,
    and the rank of each ``j`` among the columns of its key, in index order."""
    by_key = np.argsort(column_keys, kind="stable")
    sorted_keys = column_keys[by_key]
    first = np.searchsorted(sorted_keys, keys, "left")
    counts = np.searchsorted(sorted_keys, keys, "right") - first
    rows = np.repeat(np.arange(len(keys)), counts)
    offsets = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
    return rows, by_key[np.repeat(first, counts) + offsets], offsets


class _Chunk:
    """One detection set's ``(frame_id, gt, dets)`` frames, their tables stacked.

    Classes are coded (``names[code]``, DontCare 0).  The scored detections,
    all but DontCare regions, are visited in ``order``: by frame, descending
    score, index; ``group`` is each one's (frame, class).  The same-class
    pairs are (``order[pos[k]]``, ``gt_idx[k]``); ``column[k]`` is the rank
    of the ground truth in its group; a position's pairs are consecutive, in
    column order.
    """

    def __init__(self, frames):
        self.frames = frames
        self.gt, self.gt_frame = _stacked([frame[1] for frame in frames])
        self.dets, self.det_frame = _stacked([frame[2] for frame in frames])
        names = dict.fromkeys([DONTCARE, *self.gt.names, *self.dets.names])
        self.names = np.array(list(names), dtype=object)
        codes = {name: code for code, name in enumerate(self.names)}
        self.gt_class, self.det_class = (
            np.fromiter(map(codes.__getitem__, t.names), np.min_scalar_type(len(codes)))
            for t in (self.gt, self.dets)
        )
        scored = np.flatnonzero(self.det_class)
        self.order = scored[np.lexsort((-self.dets.values[scored, _SCORE],
                                        self.det_frame[scored]))]
        self.group = self.det_frame[self.order] * len(codes) + self.det_class[self.order]
        self.pos, self.gt_idx, self.column = _partners(
            self.group, self.gt_frame * len(codes) + self.gt_class
        )
        self.first_pair = np.searchsorted(self.pos, np.arange(len(self.order)))

    def claimed(self, claims):
        """Which detections (positions of ``order``) claim a column, and the pair each claims."""
        tp = claims >= 0
        return tp, self.first_pair[tp] + claims[tp]

    def frame_of(self, det: int) -> str:
        """The frame id of detection row ``det``."""
        return self.frames[self.det_frame[det]][0]

    def segment(self, pairs, values):
        """The :func:`_greedy_by_rank` segment of the candidate ``pairs`` at ``values[pairs]``."""
        return self.group, self.pos[pairs], self.column[pairs], values[pairs]


def _ap_segments(chunk: _Chunk, kinds, threshold: float, bins):
    """``(kind, bin, in_bin, pairs, absorbed, ious)`` of each IoU kind and difficulty:
    the kind's IoUs of the same-class pairs, the ground truth in the bin, the
    candidate pairs (at or above ``threshold``, in the bin), and the detections
    ignored if they claim none (with such a pair out of the bin, or mostly
    covered by a DontCare region).  Raises :class:`DegenerateBox` naming the
    first frame with a refused box."""
    for iou_kind in kinds:
        if iou_kind not in _IOU_KINDS:
            raise ValueError(f"iou_kind must be one of {_IOU_KINDS}, got {iou_kind!r}")
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must lie in (0, 1], got {threshold}")
    gt, dets, det_idx, gt_idx = chunk.gt, chunk.dets, chunk.order[chunk.pos], chunk.gt_idx
    covered = np.zeros(len(chunk.order), dtype=bool)
    dontcare = np.flatnonzero(chunk.gt_class == 0)
    near, dc, _ = _partners(chunk.det_frame[chunk.order], chunk.gt_frame[dontcare])
    if len(near):
        boxes_det, boxes_gt = dets.values[:, _BBOX_COLUMNS], gt.values[:, _BBOX_COLUMNS]
        ia, ib = chunk.order[near], dontcare[dc]
        _refuse(("2d",), boxes_det, boxes_gt, ia, ib, chunk.frame_of)
        inter, area_det, _ = _rect_overlap(boxes_det, boxes_gt, ia, ib)
        coverage = np.divide(inter, area_det, out=np.zeros_like(inter), where=inter > 0.0)
        covered[near[coverage > threshold]] = True
    ious = {}
    for group, columns in _IOU_GROUPS.items():
        wanted = tuple(kind for kind in group if kind in kinds)
        if wanted:
            ious.update(zip(wanted, _pair_ious(wanted, dets.values[:, columns],
                                               gt.values[:, columns], det_idx, gt_idx,
                                               chunk.frame_of)))
    levels = _bins_of(gt)  # DontCare is IGNORED, never in bin
    for kind in kinds:
        hit = np.flatnonzero(ious[kind] >= threshold)
        for bin_ in bins:
            in_bin = levels <= min(bin_, DifficultyBin.HARD)
            inside = in_bin[gt_idx[hit]]
            absorbed = covered.copy()
            absorbed[chunk.pos[hit[~inside]]] = True
            yield kind, bin_, in_bin, hit[inside], absorbed, ious[kind]


def match_frame(
    frame: DetectionFrame,
    iou_kind: str = "2d",
    threshold: float = 0.7,
    difficulty: DifficultyBin = DifficultyBin.MODERATE,
) -> MatchResult:
    """Greedily match detections to same-class ground truth.

    Detections are visited in descending score order (index order breaks
    exact ties); each claims the unmatched same-class ground-truth box of
    highest IoU at or above ``threshold``.  Ground truth harder than
    ``difficulty`` (bins are cumulative) can still absorb detections, but
    such detections are *ignored* rather than counted, as are detections
    mostly covered by a DontCare region.
    """
    chunk = _Chunk([(frame.frame_id, *_tables(frame))])
    ((*_, in_bin, pairs, absorbed, ious),) = _ap_segments(chunk, (iou_kind,), threshold,
                                                          (difficulty,))
    tp, claimed = chunk.claimed(*_greedy_by_rank([chunk.segment(pairs, ious)]))
    unmatched = in_bin.copy()
    unmatched[chunk.gt_idx[claimed]] = False
    return MatchResult(
        tuple(zip(chunk.gt_idx[claimed].tolist(), chunk.order[tp].tolist(),
                  ious[claimed].tolist())),
        tuple(np.flatnonzero(unmatched).tolist()),
        tuple(np.sort(chunk.order[~tp & ~absorbed]).tolist()),
        tuple(np.sort(chunk.order[~tp & absorbed]).tolist()),
    )


def _tally():
    """An empty ``(columns, num_gt)`` tally of :func:`_record_chunk`."""
    return defaultdict(list), Counter()


def _add_tally(total, part) -> None:
    """Add the ``(columns, num_gt)`` tally ``part`` of :func:`_record_chunk` to ``total``."""
    for key, columns in part[0].items():
        total[0][key].extend(columns)
    total[1].update(part[1])


def _add_records(chunk: _Chunk, in_bin, absorbed, tally, cell, claims) -> None:
    """Add the outcome (and ``2d`` similarity) column of one ``cell``, a ``(set, kind, bin)``,
    of ``chunk``, given its ``claims``, and its in-bin ground truth to ``tally``."""
    columns, num_gt = tally
    counts = np.bincount(chunk.gt_class[in_bin], minlength=len(chunk.names)).tolist()
    num_gt.update({(*cell, name): n for name, n in zip(chunk.names[1:], counts[1:]) if n})
    tp, claimed = chunk.claimed(claims)
    columns[cell].append(np.where(tp, 1, np.where(absorbed, -1, 0)).astype(np.int8))
    if cell[1] == "2d":
        gt_alpha = chunk.gt.values[chunk.gt_idx[claimed], _ALPHA]
        similarity = np.zeros(len(tp))
        similarity[tp] = (1.0 + np.cos(chunk.dets.values[chunk.order[tp], _ALPHA] - gt_alpha)) / 2
        columns[(*cell, "similarity")].append(similarity)


def _add_errors(chunk: _Chunk, classes, columns, cell, claims) -> None:
    """Add (ATE, ASE, AOE) of each match of ``chunk``, given its ``claims``, in visit order
    to ``columns[cell]``, its class code to ``(*cell, "class")``; ATE is ``math.hypot`` of the
    centers.  Raises :class:`DegenerateBox` naming the frame of the first match (by frame,
    ``classes`` order, visit) with a volume of zero or of ``_MAX_MEASURE``."""
    tp, claimed = chunk.claimed(claims)
    det = chunk.order[tp]
    a = chunk.dets.values[det][:, _BOX_COLUMNS]
    b = chunk.gt.values[chunk.gt_idx[claimed]][:, _BOX_COLUMNS]
    with np.errstate(over="ignore"):
        vol_a, vol_b = (box[:, 3] * box[:, 4] * box[:, 5] for box in (a, b))
    bad = ~((0.0 < vol_a) & (vol_a < _MAX_MEASURE) & (0.0 < vol_b) & (vol_b < _MAX_MEASURE))
    if bad.any():
        rank = np.array([classes.index(name) if name in classes else 0 for name in chunk.names])
        first = np.lexsort((rank[chunk.det_class[det]][bad], chunk.det_frame[det][bad]))[0]
        k = np.flatnonzero(bad)[first]
        zero = min(vol_a[k], vol_b[k]) == 0.0
        reason = "box has zero volume" if zero else "box volume reaches half the float range"
        raise DegenerateBox(f"frame {chunk.frame_of(det[k])}: {reason}")
    inter = (np.minimum(a[:, 3], b[:, 3]) * np.minimum(a[:, 4], b[:, 4])
             * np.minimum(a[:, 5], b[:, 5]))  # of the dimensions, centers and yaw aligned
    rows = np.empty((len(det), 3))
    rows[:, 0] = list(map(math.hypot, (a[:, 0] - b[:, 0]).tolist(), (a[:, 2] - b[:, 2]).tolist()))
    rows[:, 1] = 1.0 - inter / (vol_a + vol_b - inter)
    rows[:, 2] = np.abs(np.remainder(a[:, 6] - b[:, 6] + math.pi, 2.0 * math.pi) - math.pi)
    columns[cell].append(rows)
    columns[(*cell, "class")].append(chunk.det_class[det])


def _record_chunk(sets, kinds, bins, classes, threshold, match_radius):
    """The ``(columns, num_gt)`` tally (see the module docstring) of each detection set's
    ``(frame_id, gt, dets)`` frames, sets numbered in order; a set without frames records
    nothing.  Raises :class:`DegenerateBox` naming a frame with a refused box."""
    tally, plans, segments = _tally(), [], []
    for set_, chunk in ((set_, _Chunk(frames)) for set_, frames in enumerate(sets) if frames):
        tally[0][(set_, "names")].append(chunk.names)
        tally[0][(set_, "score")].append(chunk.dets.values[chunk.order, _SCORE])
        tally[0][(set_, "class")].append(chunk.det_class[chunk.order])
        for kind, bin_, in_bin, pairs, absorbed, ious in (
            _ap_segments(chunk, kinds, threshold, bins) if kinds else ()
        ):
            segments.append(chunk.segment(pairs, ious))
            plans.append(partial(_add_records, chunk, in_bin, absorbed, tally, (set_, kind, bin_)))
        if classes:
            det, gt = chunk.dets.values[chunk.order[chunk.pos]], chunk.gt.values[chunk.gt_idx]
            x, _, z = _BOX_COLUMNS[:3]
            with np.errstate(over="ignore", invalid="ignore"):  # far apart is no match
                dist = np.hypot(det[:, x] - gt[:, x], det[:, z] - gt[:, z])
            wanted = np.isin(chunk.names, classes)[chunk.gt_class[chunk.gt_idx]]
            pairs = np.flatnonzero(wanted & (dist <= match_radius))
            segments.append(chunk.segment(pairs, -dist))
            plans.append(partial(_add_errors, chunk, classes, tally[0], (set_, "nuscenes")))
    for plan, claims in zip(plans, _greedy_by_rank(segments)):
        plan(claims)
    return tally


def class_sweep(
    blocks,
    total_gt: int,
    class_name: str,
    difficulty: DifficultyBin,
    use_similarity: bool = False,
) -> tuple[float, PRCurve]:
    """Run the 40-point sweep over one cell's record ``blocks``, as :func:`_cell` selects
    them: (score, is_tp, similarity) rows, similarity (1 + cos(alpha_det - alpha_gt)) / 2 for a
    true positive and 0 otherwise, against the cell's ``total_gt`` in-bin ground truth.

    The numerator is the true-positive count (AP40) or, with
    ``use_similarity``, the summed orientation similarity (AOS), added in
    rank order (equal scores in record order).  Curve points are taken after
    each group of equal scores, so ties contribute atomically and the result
    matches an exhaustive per-threshold evaluation.  Raises
    :class:`NoGroundTruth` when ``total_gt`` is 0 (the message names
    ``class_name`` and ``difficulty``).
    """
    if total_gt == 0:
        raise NoGroundTruth(
            f"no ground truth of class {class_name!r} in difficulty bin "
            f"{difficulty.name}"
        )
    rows = np.concatenate(blocks) if blocks else np.empty((0, 3))
    rows = rows[np.argsort(-rows[:, 0], kind="stable")]
    ends = np.flatnonzero(np.append(rows[1:, 0] != rows[:-1, 0], True))[:len(rows)]
    tp = np.cumsum(rows[:, 1])[ends]
    numerator = np.cumsum(rows[:, 2])[ends] if use_similarity else tp
    values = numerator / (ends + 1)
    recalls = tp / total_gt
    # best value at or after each curve point; recalls never decrease
    best_after = np.append(np.maximum.accumulate(values[::-1])[::-1], 0.0)
    interpolated = best_after[np.searchsorted(recalls, RECALL_POINTS, "left")].tolist()
    ap = 100.0 * sum(interpolated) / len(RECALL_POINTS)
    return ap, PRCurve(recalls=RECALL_POINTS, precisions=tuple(interpolated))


def _cell(tally, set_: int, kind: str, bin_, class_name: str, use_similarity: bool = False):
    """One cell of a :func:`_record_chunk` tally: ``class_name`` in set ``set_``.

    For an IoU kind it is the :func:`class_sweep` of the class's detections not ignored in
    ``(set_, kind, bin_)``, in tally order; for kind ``"nuscenes"`` (``bin_`` None) the
    :class:`NuScenesErrors` of the class's (ATE, ASE, AOE) rows, each mean summed left to
    right.  Raises :class:`NoGroundTruth` or :class:`NoMatches` when the cell is undefined.
    """
    columns, num_gt = tally
    is_name = [names == class_name for names in columns.get((set_, "names"), ())]

    def column(*key):  # the set's chunk columns end to end; empty for a set without frames
        return np.concatenate(columns.get((set_, *key)) or [np.empty(0)])

    def of_class(*key):  # which rows of the set's chunk class codes ``key`` are the class
        chunks = zip(is_name, columns.get((set_, *key), ()))
        return np.concatenate([np.zeros(0, bool), *(lookup[codes] for lookup, codes in chunks)])

    if kind == "nuscenes":
        rows = column(kind)[of_class(kind, "class")]
        if not len(rows):
            raise NoMatches(f"no detection of class {class_name!r} matched any ground truth")
        return NuScenesErrors(*(sum(rows[:, k].tolist()) / len(rows) for k in range(3)),
                              matches=len(rows))
    outcome = column(kind, bin_)
    keep = of_class("class") & (outcome >= 0)
    similarity = column(kind, bin_, "similarity") if use_similarity else np.zeros(len(keep))
    rows = np.column_stack([column("score")[keep], outcome[keep], similarity[keep]])
    total_gt = num_gt[(set_, kind, bin_, class_name)]
    return class_sweep([rows], total_gt, class_name, bin_, use_similarity)


def _sweep(frames, class_name, iou_kind, threshold, difficulty, use_similarity=False):
    """The :func:`_cell` of ``frames``, one detection set, matched at ``iou_kind``,
    ``threshold`` and ``difficulty``.  Raises ``ValueError`` on an empty frame list."""
    tables = [(frame.frame_id, *_tables(frame)) for frame in frames]
    if not tables:
        raise ValueError("frames must be non-empty")
    tally = _record_chunk([tables], (iou_kind,), (difficulty,), (), threshold, None)
    return _cell(tally, 0, iou_kind, difficulty, class_name, use_similarity)


def average_precision_40(
    frames,
    class_name: str,
    iou_kind: str = "2d",
    threshold: float = 0.7,
    difficulty: DifficultyBin = DifficultyBin.MODERATE,
) -> tuple[float, PRCurve]:
    """AP40 for one class, as a percentage in [0, 100].

    Raises :class:`NoGroundTruth` when the class has no in-bin ground
    truth anywhere (the metric is undefined, not zero).
    """
    return _sweep(frames, class_name, iou_kind, threshold, difficulty)


def average_orientation_similarity(
    frames,
    class_name: str,
    threshold: float = 0.7,
    difficulty: DifficultyBin = DifficultyBin.MODERATE,
) -> tuple[float, PRCurve]:
    """AOS for one class (2D matching), as a percentage in [0, 100].

    Identical sweep to :func:`average_precision_40` except each true
    positive contributes (1 + cos(alpha_det - alpha_gt)) / 2 instead of 1,
    so AOS never exceeds the 2D AP at the same threshold.
    """
    return _sweep(frames, class_name, "2d", threshold, difficulty, use_similarity=True)


def nuscenes_errors(
    frames, class_name: str, match_radius: float = 2.0
) -> NuScenesErrors:
    """Mean translation / scale / orientation errors over matched pairs.

    Detections are matched by the same greedy rule as AP: in descending
    score order, each claims the unmatched same-class ground truth with
    the smallest BEV center distance (``np.hypot``, which can differ from
    ``math.hypot`` by an ulp), if within ``match_radius`` metres; the lowest
    index wins exact ties.  Per pair: ATE is the BEV center distance in
    metres (``math.hypot``), ASE is one minus the center-and-yaw-aligned IoU
    of the dimensions, AOE is the absolute yaw difference wrapped to [0, pi].
    Raises :class:`NoMatches` if no detection matches anywhere, and
    :class:`DegenerateBox` naming the frame of a matched pair with a zero or
    overflowing volume.  DontCare rows are never scored.
    """
    if not math.isfinite(match_radius) or match_radius <= 0:
        raise ValueError(f"match_radius must be positive, got {match_radius}")
    if class_name == DONTCARE:
        raise NoMatches(f"class {DONTCARE!r} marks regions and is never scored")
    tables = [(frame.frame_id, *_tables(frame)) for frame in frames]
    tally = _record_chunk([tables], (), (), (class_name,), None, match_radius)
    return _cell(tally, 0, "nuscenes", None, class_name)

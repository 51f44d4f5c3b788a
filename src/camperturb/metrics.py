"""Detection metrics: rotated-box IoU, matching, AP40 / AOS, center-distance errors.

Overlap of yaw-rotated boxes is computed exactly, for many box pairs at
once: the bird's-eye-view (BEV) footprints are rectangles, the vertices
of their intersection are the corners of each inside the other plus the
crossings of their edges, and sorted by angle these give the area by the
shoelace formula.  3D IoU multiplies the BEV intersection by the overlap
of the vertical extents, so ``bev`` and ``3d`` share one intersection.
The same-class pairs of a whole chunk of frames are gathered with NumPy
and scored in one kernel call per IoU group (``2d``; ``bev`` and ``3d``),
then split back per frame; ``iou_2d``/``iou_bev``/``iou_3d`` score one
pair through the same kernel.

AP40 follows the 40-recall-point protocol: detections are matched
greedily in score order, the precision-recall curve is sampled after
every distinct score value (so tied scores enter the curve together and
the result is independent of tie ordering), and precision is
max-interpolated at recalls 1/40 .. 40/40.  AOS runs the same sweep with
the numerator replaced by accumulated orientation similarity
(1 + cos(delta alpha)) / 2, which makes AOS <= AP on 2D matching.
Matching is class-independent and IoU difficulty-independent, so one
IoU value per pair and kind serves every class and difficulty.  A chunk
of frames is folded into a tally by one call (:func:`_record_chunk`,
which every matcher entry point uses; :func:`_center_errors` per frame),
:func:`_add_tally` appends one tally to another, and :func:`class_sweep`
turns one class's records into AP40 or AOS.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import accumulate, groupby

import numpy as np

from .errors import DegenerateBox, NoGroundTruth, NoMatches
from .geometry import Box3D, CameraIntrinsics, _box_row, _corners, _wrap_angle
from .kitti import (
    _ALPHA, _BBOX_COLUMNS, _BOX_COLUMNS, _SCORE, DONTCARE, DifficultyBin, ObjectLabel, _bins_of,
    _LabelTable, _table_of,
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
    with np.errstate(divide="ignore", invalid="ignore"):  # parallel edges
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


def _row_faults(kinds: tuple[str, ...], rows: np.ndarray) -> list[tuple[str, np.ndarray]]:
    """``(reason, mask)`` of each rule that :func:`_pair_ious` holds the rows of
    an IoU group to, in the order they are checked: no BEV footprint of
    (near-)zero area, nor a volume of zero (for ``"3d"``), and every measure
    below ``_MAX_MEASURE``."""
    with np.errstate(over="ignore"):  # the rules catch what overflows
        if kinds == ("2d",):
            area = (rows[:, 2] - rows[:, 0]) * (rows[:, 3] - rows[:, 1])
            return [("2D box area reaches half the float range", ~(area < _MAX_MEASURE))]
        area = rows[:, 4] * rows[:, 5]
        faults = [("BEV footprint has (near-)zero area", area < 1e-12),
                  ("BEV footprint area reaches half the float range", ~(area < _MAX_MEASURE))]
        if "3d" in kinds:
            volume = area * rows[:, 3]
            faults += [("box has zero volume", volume == 0.0),
                       ("box volume reaches half the float range", ~(volume < _MAX_MEASURE))]
    return faults


def _refusal(kinds: tuple[str, ...], a: np.ndarray, b: np.ndarray, ia, ib):
    """``(k, reason)`` of the first row pair (a[ia[k]], b[ib[k]]) that breaks a
    rule of :func:`_row_faults`, and the first rule it breaks; None if none does."""
    broken = [(reason, bad_a[ia] | bad_b[ib])
              for (reason, bad_a), (_, bad_b) in zip(_row_faults(kinds, a), _row_faults(kinds, b))]
    bad = np.logical_or.reduce([mask for _, mask in broken])
    if not bad.any():
        return None
    k = int(np.argmax(bad))
    return k, next(reason for reason, mask in broken if mask[k])


def _refuse_in_frame(frames, frame_of, kinds, a, b, ia, ib) -> None:
    """Raise :class:`DegenerateBox` for the first pair that :func:`_refusal`
    finds, naming its frame: ``frames[frame_of[ia[k]]]``."""
    refusal = _refusal(kinds, a, b, ia, ib)
    if refusal:
        k, reason = refusal
        raise DegenerateBox(f"frame {frames[frame_of[ia[k]]][0]}: {reason}")


#: Near box pairs (bounding circles not apart) per :func:`_convex_intersection`
#: call, which bounds the polygon temporaries of a chunk.
_NEAR_PAIRS = 128


def _pair_ious(kinds: tuple[str, ...], a: np.ndarray, b: np.ndarray, ia, ib) -> list[np.ndarray]:
    """IoU of each row pair (a[ia[k]], b[ib[k]]) for each of ``kinds``, in order.

    Rows are (left, top, right, bottom) 2D boxes for ``("2d",)`` and
    (x, y, z, h, w, l, yaw) 3D boxes for ``"bev"`` and ``"3d"``, which share
    one BEV intersection.  Raises :class:`DegenerateBox` if a compared box
    breaks a rule of :func:`_row_faults`.
    """
    refusal = _refusal(kinds, a, b, ia, ib)
    if refusal:
        raise DegenerateBox(refusal[1])
    if kinds == ("2d",):
        inter, area_a, area_b = _rect_overlap(a, b, ia, ib)
        return [np.where(inter > 0.0, inter / (area_a + area_b - inter), 0.0)]
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


def _greedy(order, rows, threshold: float, in_bin, covered):
    """The one greedy matching rule: returns ``(pairs, ignored, false_pos)``.

    Detections are visited in ``order``, (-score, index), and ``rows``
    holds each one's (column, value) candidates in column order.  Each
    claims the unclaimed column of highest value at or above ``threshold``;
    an in-bin column beats an out-of-bin one, and the lowest index wins
    exact ties.  Out-of-bin claims and ``covered`` detections are ignored.
    """
    claimed: set[int] = set()
    pairs: list[tuple[int, int, float]] = []  # (column, detection, value)
    ignored: list[int] = []
    false_pos: list[int] = []
    for di, row in zip(order, rows):
        best_j, best = -1, (False, -math.inf)
        for j, value in row:
            if value >= threshold and j not in claimed and (in_bin[j], value) > best:
                best_j, best = j, (in_bin[j], value)
        if best[0]:
            claimed.add(best_j)
            pairs.append((best_j, di, best[1]))
        elif best_j >= 0 or covered[di]:
            ignored.append(di)
        else:
            false_pos.append(di)
    return pairs, ignored, false_pos


def _partners(keys: np.ndarray, column_keys: np.ndarray):
    """The nonzero entries ``(k, j)`` of ``keys[:, None] == column_keys``, row-major."""
    by_key = np.argsort(column_keys, kind="stable")
    sorted_keys = column_keys[by_key]
    first = np.searchsorted(sorted_keys, keys, "left")
    counts = np.searchsorted(sorted_keys, keys, "right") - first
    rows = np.repeat(np.arange(len(keys)), counts)
    offsets = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
    return rows, by_key[np.repeat(first, counts) + offsets]


def _stacked(tables):
    """One label table (no score mask) of ``tables`` in order, and the first row
    of each (and the end)."""
    starts = np.cumsum([0, *(len(t.names) for t in tables)])
    names = [name for t in tables for name in t.names]
    return _LabelTable(names, np.concatenate([t.values for t in tables]), None), starts


def _match_chunk(frames, kinds, threshold: float, difficulties):
    """Yield ``(k, {(kind, difficulty): MatchResult})`` for each ``frames[k]``, a
    ``(frame_id, gt, dets)`` tuple of label tables, in order.

    The same-class pairs of all ``frames`` are scored by one :func:`_pair_ious`
    call per IoU group of ``kinds``; each detection's candidates are its pairs
    at or above ``threshold``, in column order.  Raises :class:`DegenerateBox`
    naming the first frame with a compared box that :func:`_row_faults` refuses.
    """
    for iou_kind in kinds:
        if iou_kind not in _IOU_KINDS:
            raise ValueError(f"iou_kind must be one of {_IOU_KINDS}, got {iou_kind!r}")
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must lie in (0, 1], got {threshold}")
    gt, gt_start = _stacked([frame[1] for frame in frames])
    dets, det_start = _stacked([frame[2] for frame in frames])
    gt_frame = np.repeat(np.arange(len(frames)), np.diff(gt_start))  # each row's frame
    det_frame = np.repeat(np.arange(len(frames)), np.diff(det_start))
    codes = {DONTCARE: 0}
    gt_class, det_class = (
        np.array([codes.setdefault(name, len(codes)) for name in t.names], dtype=np.int64)
        for t in (gt, dets)
    )
    scored = np.flatnonzero(det_class)  # all but DontCare regions
    # detections by frame, then descending score, then index
    order = scored[np.lexsort((-dets.values[scored, _SCORE], det_frame[scored]))]
    bounds = np.searchsorted(det_frame[order], np.arange(len(frames) + 1)).tolist()
    covered = np.zeros(len(dets.names), dtype=bool)
    dontcare = np.flatnonzero(gt_class == 0)
    pos, dc = _partners(det_frame[order], gt_frame[dontcare])
    if len(pos):
        boxes_det, boxes_gt = dets.values[:, _BBOX_COLUMNS], gt.values[:, _BBOX_COLUMNS]
        _refuse_in_frame(frames, det_frame, ("2d",), boxes_det, boxes_gt, order[pos], dontcare[dc])
        inter, area_det, _ = _rect_overlap(boxes_det, boxes_gt, order[pos], dontcare[dc])
        coverage = np.where(inter > 0.0, inter / area_det, 0.0)
        covered[order[pos[coverage > threshold]]] = True
    covered = covered.tolist()
    # same-class pairs: a frame and class is one key
    pos, gt_idx = _partners(det_frame[order] * len(codes) + det_class[order],
                            gt_frame * len(codes) + gt_class)
    det_idx, rows_by_kind = order[pos], {}
    for group, columns in _IOU_GROUPS.items():
        wanted = tuple(kind for kind in group if kind in kinds)
        if not wanted:
            continue
        rows_det, rows_gt = dets.values[:, columns], gt.values[:, columns]
        try:
            ious = _pair_ious(wanted, rows_det, rows_gt, det_idx, gt_idx)
        except DegenerateBox:
            _refuse_in_frame(frames, det_frame, wanted, rows_det, rows_gt, det_idx, gt_idx)
            raise
        for kind, values in zip(wanted, ious):
            hit = np.flatnonzero(values >= threshold)
            column = gt_idx[hit] - gt_start[gt_frame[gt_idx[hit]]]
            rows = rows_by_kind[kind] = [[] for _ in order]
            for p, j, value in zip(pos[hit].tolist(), column.tolist(), values[hit].tolist()):
                rows[p].append((j, value))
    levels = _bins_of(gt)  # DontCare is IGNORED, never in bin
    in_bins = [(levels <= min(d, DifficultyBin.HARD)).tolist() for d in difficulties]
    local_order = (order - det_start[det_frame[order]]).tolist()
    gt_start, det_start = gt_start.tolist(), det_start.tolist()
    for k in range(len(frames)):
        first, last = bounds[k], bounds[k + 1]
        frame_order = local_order[first:last]
        frame_covered = covered[det_start[k]:det_start[k + 1]]
        frame_bins = [in_bin[gt_start[k]:gt_start[k + 1]] for in_bin in in_bins]
        results = {}
        for iou_kind in kinds:
            rows = rows_by_kind[iou_kind][first:last]
            for difficulty, in_bin in zip(difficulties, frame_bins):
                pairs, ignored, false_pos = _greedy(
                    frame_order, rows, threshold, in_bin, frame_covered
                )
                claimed = {j for j, _, _ in pairs}
                unmatched_gt = tuple(j for j, b in enumerate(in_bin) if b and j not in claimed)
                results[iou_kind, difficulty] = MatchResult(
                    tuple(pairs), unmatched_gt, tuple(sorted(false_pos)), tuple(sorted(ignored))
                )
        yield k, results


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
    frames = [(frame.frame_id, *_tables(frame))]
    _, results = next(_match_chunk(frames, (iou_kind,), threshold, (difficulty,)))
    return results[iou_kind, difficulty]


def _passes(iou_kinds, difficulties) -> dict:
    """Empty ``{kind: {difficulty: (records, num_gt)}}`` for :func:`_record_chunk`."""
    return {kind: {d: (defaultdict(lambda: array("d")), Counter()) for d in difficulties}
            for kind in iou_kinds}


def _add_tally(total, part) -> None:
    """Add the ``(passes, errors)`` tally ``part`` to ``total`` (``passes`` of :func:`_passes`)."""
    (passes, errors), (part_passes, part_errors) = total, part
    for kind, by_bin in part_passes.items():
        for bin_, (records, num_gt) in by_bin.items():
            for class_name, values in records.items():
                passes[kind][bin_][0][class_name].extend(values)
            passes[kind][bin_][1].update(num_gt)
    for class_name, values in part_errors.items():
        errors[class_name].extend(values)


def _record_chunk(frames, threshold: float, passes) -> None:
    """Add the records of ``frames``, ``(frame_id, gt, dets)`` tuples of label
    tables, for each kind and difficulty of ``passes``, as :func:`match_pass`.
    The frames are matched together (:func:`_match_chunk`)."""
    bins = next(iter(passes.values()))
    for k, results in _match_chunk(frames, passes, threshold, bins):
        _, gt, dets = frames[k]
        gt_alpha, det_alpha = gt.values[:, _ALPHA].tolist(), dets.values[:, _ALPHA].tolist()
        scores = dets.values[:, _SCORE].tolist()
        for (kind, bin_), result in results.items():
            records, num_gt = passes[kind][bin_]
            num_gt.update(gt.names[j] for j, _, _ in result.pairs)
            num_gt.update(gt.names[j] for j in result.unmatched_gt)
            for j, i, _ in result.pairs:
                sim = (1.0 + math.cos(det_alpha[i] - gt_alpha[j])) / 2.0
                records[dets.names[i]].extend((scores[i], 1.0, sim))
            for i in result.unmatched_det:
                records[dets.names[i]].extend((scores[i], 0.0, 0.0))


def match_pass(
    frames,
    iou_kind: str = "2d",
    threshold: float = 0.7,
    difficulties=(DifficultyBin.MODERATE,),
) -> dict[DifficultyBin, tuple[dict[str, array], Counter]]:
    """Match every frame at each of ``difficulties``, for all classes at once.

    Returns ``{difficulty: (records, num_gt)}``.  ``records`` maps each
    class to a flat array of (score, is_tp, similarity) triples, one per
    true or false positive, in frame order (each frame's true positives
    in match order, then its false positives in index order);
    ``similarity`` is (1 + cos(alpha_det - alpha_gt)) / 2 for true
    positives and 0 otherwise.  ``num_gt`` counts each class's in-bin
    ground truth.  Raises ``ValueError`` on an empty frame list, and
    :class:`DegenerateBox` naming the frame whose box has no footprint.
    """
    frames = list(frames)
    if not frames:
        raise ValueError("frames must be non-empty")
    passes = _passes((iou_kind,), difficulties)
    _record_chunk([(frame.frame_id, *_tables(frame)) for frame in frames], threshold, passes)
    return passes[iou_kind]


def class_sweep(
    records,
    num_gt: dict[str, int],
    class_name: str,
    difficulty: DifficultyBin,
    use_similarity: bool = False,
) -> tuple[float, PRCurve]:
    """Run the 40-point sweep over one class's records of :func:`match_pass`.

    The numerator is the true-positive count (AP40) or, with
    ``use_similarity``, the summed orientation similarity (AOS).  Curve
    points are taken after each group of equal scores, so ties contribute
    atomically and the result matches an exhaustive per-threshold
    evaluation exactly.  Raises :class:`NoGroundTruth` when the class has
    no in-bin ground truth (``difficulty`` names the bin in the message).
    """
    total_gt = num_gt.get(class_name, 0)
    if total_gt == 0:
        raise NoGroundTruth(
            f"no ground truth of class {class_name!r} in difficulty bin "
            f"{difficulty.name}"
        )
    scores, is_tp, sims = (records.get(class_name, array("d"))[k::3] for k in range(3))
    ranked = sorted(range(len(scores)), key=lambda k: -scores[k])
    recalls: list[float] = []
    values: list[float] = []
    tp = 0
    fp = 0
    sim_sum = 0.0
    for _, tied in groupby(ranked, key=scores.__getitem__):
        for k in tied:
            if is_tp[k]:
                tp += 1
                sim_sum += sims[k]
            else:
                fp += 1
        recalls.append(tp / total_gt)
        values.append((sim_sum if use_similarity else tp) / (tp + fp))
    # best value at or after each curve point; recalls never decrease
    best_after = [*reversed(list(accumulate(reversed(values), max))), 0.0]
    interpolated = [best_after[bisect_left(recalls, r)] for r in RECALL_POINTS]
    ap = 100.0 * sum(interpolated) / len(RECALL_POINTS)
    return ap, PRCurve(recalls=RECALL_POINTS, precisions=tuple(interpolated))


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
    records, num_gt = match_pass(frames, iou_kind, threshold, (difficulty,))[difficulty]
    return class_sweep(records, num_gt, class_name, difficulty)


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
    records, num_gt = match_pass(frames, "2d", threshold, (difficulty,))[difficulty]
    return class_sweep(records, num_gt, class_name, difficulty, use_similarity=True)


def _aligned_dims_iou(a, b) -> float:
    """IoU of two (x, y, z, h, w, l, yaw) boxes after aligning centers and yaw.

    Raises :class:`DegenerateBox` if a volume is zero or reaches
    ``_MAX_MEASURE``, as :func:`_pair_ious` does for ``"3d"``.
    """
    inter = min(a[3], b[3]) * min(a[4], b[4]) * min(a[5], b[5])
    vol_a = a[3] * a[4] * a[5]
    vol_b = b[3] * b[4] * b[5]
    if not (0.0 < vol_a < _MAX_MEASURE and 0.0 < vol_b < _MAX_MEASURE):
        zero = min(vol_a, vol_b) == 0.0
        raise DegenerateBox("box has zero volume" if zero else
                            "box volume reaches half the float range")
    return inter / (vol_a + vol_b - inter)


def _center_errors(frame, match_radius: float, errors: dict[str, array]) -> None:
    """Append (ATE, ASE, AOE) of each match of ``frame``, a ``(frame_id, gt,
    dets)`` tuple of label tables, to ``errors[class_name]``, for each class
    ``errors`` holds.  Raises :class:`DegenerateBox` naming the frame if a
    matched pair's volume is refused (:func:`_aligned_dims_iou`)."""
    frame_id, gt, dets = frame
    gt_boxes, det_boxes = gt.values[:, _BOX_COLUMNS].tolist(), dets.values[:, _BOX_COLUMNS].tolist()
    scores = dets.values[:, _SCORE].tolist()
    ranked = sorted(range(len(scores)), key=lambda i: -scores[i])  # stable: index order breaks ties
    for class_name, class_errors in errors.items():
        if class_name == DONTCARE:  # regions, never paired
            continue
        gts = [box for name, box in zip(gt.names, gt_boxes) if name == class_name]
        boxes = [det_boxes[i] for i in ranked if dets.names[i] == class_name]
        rows = [[(j, -math.hypot(d[0] - g[0], d[2] - g[2])) for j, g in enumerate(gts)]
                for d in boxes]
        order = range(len(boxes))
        pairs, _, _ = _greedy(order, rows, -match_radius, [True] * len(gts), [False] * len(boxes))
        for j, i, value in pairs:
            try:
                ase = 1.0 - _aligned_dims_iou(boxes[i], gts[j])
            except DegenerateBox as exc:
                raise DegenerateBox(f"frame {frame_id}: {exc}") from exc
            class_errors.extend((-value, ase, abs(_wrap_angle(boxes[i][6] - gts[j][6]))))


def _mean_errors(errors: array, class_name: str) -> NuScenesErrors:
    """Means of the (ATE, ASE, AOE) triples of :func:`_center_errors`."""
    matches = len(errors) // 3
    if not matches:
        raise NoMatches(f"no detection of class {class_name!r} matched any ground truth")
    return NuScenesErrors(*(sum(errors[k::3]) / matches for k in range(3)), matches=matches)


def nuscenes_errors(
    frames, class_name: str, match_radius: float = 2.0
) -> NuScenesErrors:
    """Mean translation / scale / orientation errors over matched pairs.

    Detections are matched by the same greedy rule as AP: in descending
    score order, each claims the unmatched same-class ground truth with
    the smallest BEV center distance, if that distance is within
    ``match_radius`` metres; the lowest index wins exact ties.
    Per pair: ATE is the BEV center distance in metres, ASE is one minus
    the center-and-yaw-aligned IoU of the dimensions, AOE is the absolute
    yaw difference wrapped to [0, pi].  Raises :class:`NoMatches` if no
    detection matches anywhere, and :class:`DegenerateBox` naming the frame
    of a matched pair with a zero or overflowing volume.  DontCare rows are
    never scored, as in :func:`match_frame`.
    """
    if not math.isfinite(match_radius) or match_radius <= 0:
        raise ValueError(f"match_radius must be positive, got {match_radius}")
    if class_name == DONTCARE:
        raise NoMatches(f"class {DONTCARE!r} marks regions and is never scored")
    errors = array("d")
    for frame in frames:
        _center_errors((frame.frame_id, *_tables(frame)), match_radius, {class_name: errors})
    return _mean_errors(errors, class_name)

"""Detection metrics: rotated-box IoU, matching, AP40 / AOS, center-distance errors.

Overlap of yaw-rotated boxes is computed exactly, for many box pairs at
once: the bird's-eye-view (BEV) footprints are rectangles, the vertices
of their intersection are the corners of each inside the other plus the
crossings of their edges, and sorted by angle these give the area by the
shoelace formula.  3D IoU multiplies the BEV intersection by the overlap
of the vertical extents.  Each frame's same-class pairs are scored in
one call, once per IoU kind; ``iou_2d``/``iou_bev``/``iou_3d`` score
one pair through the same kernel.

AP40 follows the 40-recall-point protocol: detections are matched
greedily in score order, the precision-recall curve is sampled after
every distinct score value (so tied scores enter the curve together and
the result is independent of tie ordering), and precision is
max-interpolated at recalls 1/40 .. 40/40.  AOS runs the same sweep with
the numerator replaced by accumulated orientation similarity
(1 + cos(delta alpha)) / 2, which makes AOS <= AP on 2D matching.
Matching is class-independent and IoU difficulty-independent, so one
IoU table per frame and kind serves every class and difficulty; frames
are folded into tallies one at a time (:func:`_record_frame`,
:func:`_center_errors`), :func:`_add_tally` appends one tally to another,
and :func:`class_sweep` turns one class's records into AP40 or AOS.
"""

from __future__ import annotations

import math
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
    _table_of,
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


def _rect_overlap(a: np.ndarray, b: np.ndarray):
    """Intersection (0 when disjoint) and both areas of paired 2D box rows.

    Rows are (left, top, right, bottom).
    """
    iw = np.minimum(a[:, 2], b[:, 2]) - np.maximum(a[:, 0], b[:, 0])
    ih = np.minimum(a[:, 3], b[:, 3]) - np.maximum(a[:, 1], b[:, 1])
    inter = np.where((iw > 0) & (ih > 0), iw * ih, 0.0)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    return inter, area_a, (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])


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


def _pair_ious(kind: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of each row pair (a[k], b[k]) for one IoU kind.

    Rows are (left, top, right, bottom) 2D boxes for ``"2d"`` and
    (x, y, z, h, w, l, yaw) 3D boxes for ``"bev"`` and ``"3d"``.  Raises
    :class:`DegenerateBox` if a compared BEV footprint has (near-)zero area.
    """
    if kind == "2d":
        inter, area_a, area_b = _rect_overlap(a, b)
        return np.where(inter > 0.0, inter / (area_a + area_b - inter), 0.0)
    area_a = a[:, 4] * a[:, 5]
    area_b = b[:, 4] * b[:, 5]
    if (area_a < 1e-12).any() or (area_b < 1e-12).any():
        raise DegenerateBox("BEV footprint has (near-)zero area")
    # bit-equal footprints overlap fully, boxes with apart bounding circles not at all
    same = (a[:, [0, 2, 4, 5, 6]] == b[:, [0, 2, 4, 5, 6]]).all(axis=1)
    reach = 0.5 * (np.hypot(a[:, 4], a[:, 5]) + np.hypot(b[:, 4], b[:, 5]))
    near = ~same & (np.hypot(a[:, 0] - b[:, 0], a[:, 2] - b[:, 2]) < reach)
    inter = np.where(same, area_a, 0.0)
    inter[near] = _convex_intersection(
        _corners(a[near])[:, :4, ::2], _corners(b[near])[:, :4, ::2]
    )
    inter = np.minimum(np.minimum(inter, area_a), area_b)
    if kind == "bev":
        return inter / (area_a + area_b - inter)
    top_a, top_b = a[:, 1] - a[:, 3], b[:, 1] - b[:, 3]
    y_overlap = np.minimum(a[:, 1], b[:, 1]) - np.maximum(top_a, top_b)
    vol_a = area_a * a[:, 3]
    vol_b = area_b * b[:, 3]
    inter_vol = np.minimum(np.minimum(inter * np.maximum(y_overlap, 0.0), vol_a), vol_b)
    return inter_vol / (vol_a + vol_b - inter_vol)


#: Label table columns of the rows :func:`_pair_ious` compares, by IoU kind.
_IOU_COLUMNS = {"2d": _BBOX_COLUMNS, "bev": _BOX_COLUMNS, "3d": _BOX_COLUMNS}


def iou_2d(a: ObjectLabel, b: ObjectLabel) -> float:
    """Axis-aligned IoU of two labels' 2D boxes."""
    rows = _table_of([a, b]).values[:, _BBOX_COLUMNS]
    return float(_pair_ious("2d", rows[:1], rows[1:])[0])


def iou_bev(a: Box3D, b: Box3D) -> float:
    """Exact IoU of two yaw-rotated BEV footprints, in [0, 1]."""
    return float(_pair_ious("bev", _box_row(a), _box_row(b))[0])


def iou_3d(a: Box3D, b: Box3D) -> float:
    """Exact IoU of two upright 3D boxes.

    The vertical extent of a box runs from center.y (bottom) to
    center.y - height (top) in the y-down camera frame.
    """
    return float(_pair_ious("3d", _box_row(a), _box_row(b))[0])


_IOU_KINDS = tuple(_IOU_COLUMNS)


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


def _match_difficulties(gt, dets, iou_kinds, threshold: float, difficulties):
    """Yield ``(kind, difficulty, MatchResult)`` for each of ``iou_kinds`` and
    ``difficulties``, matching the ``dets`` label table to the ``gt`` one."""
    for iou_kind in iou_kinds:
        if iou_kind not in _IOU_KINDS:
            raise ValueError(f"iou_kind must be one of {_IOU_KINDS}, got {iou_kind!r}")
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must lie in (0, 1], got {threshold}")
    dontcare = [j for j, name in enumerate(gt.names) if name == DONTCARE]
    scores = dets.values[:, _SCORE].tolist()
    order = sorted(
        (i for i, name in enumerate(dets.names) if name != DONTCARE),
        key=lambda i: (-scores[i], i),
    )
    covered = np.zeros(len(dets.names), dtype=bool)
    if dontcare and order:
        det_idx, dc_idx = np.repeat(order, len(dontcare)), np.tile(dontcare, len(order))
        boxes_det = dets.values[det_idx][:, _BBOX_COLUMNS]
        inter, area_det, _ = _rect_overlap(boxes_det, gt.values[dc_idx][:, _BBOX_COLUMNS])
        coverage = np.where(inter > 0.0, inter / area_det, 0.0)
        covered[order] = (coverage > threshold).reshape(len(order), -1).any(axis=1)
    levels = _bins_of(gt)  # DontCare is IGNORED, never in bin
    in_bins = [(levels <= min(d, DifficultyBin.HARD)).tolist() for d in difficulties]
    same_class = [
        (i, j) for i in order for j, name in enumerate(gt.names) if name == dets.names[i]
    ]
    for iou_kind in iou_kinds:
        # one IoU matrix per kind for every difficulty; -1 marks the pairs never compared
        ious = np.full((len(dets.names), len(gt.names)), -1.0)
        if same_class:
            det_idx, gt_idx = np.array(same_class).T
            columns = _IOU_COLUMNS[iou_kind]
            rows_det, rows_gt = dets.values[det_idx][:, columns], gt.values[gt_idx][:, columns]
            ious[det_idx, gt_idx] = _pair_ious(iou_kind, rows_det, rows_gt)
        rows = [[(j, v) for j, v in enumerate(r) if v >= threshold] for r in ious[order].tolist()]
        for difficulty, in_bin in zip(difficulties, in_bins):
            pairs, ignored, false_pos = _greedy(order, rows, threshold, in_bin, covered)
            claimed = {j for j, _, _ in pairs}
            unmatched_gt = tuple(j for j, b in enumerate(in_bin) if b and j not in claimed)
            yield iou_kind, difficulty, MatchResult(
                tuple(pairs), unmatched_gt, tuple(sorted(false_pos)), tuple(sorted(ignored))
            )


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
    return next(_match_difficulties(*_tables(frame), (iou_kind,), threshold, (difficulty,)))[2]


def _passes(iou_kinds, difficulties) -> dict:
    """Empty ``{kind: {difficulty: (records, num_gt)}}`` for :func:`_record_frame`."""
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


def _record_frame(frame_id: str, gt, dets, threshold: float, passes) -> None:
    """Add the records of one frame's ``gt`` and ``dets`` label tables for each
    kind and difficulty of ``passes``, as :func:`match_pass`."""
    bins = next(iter(passes.values()))
    gt_alpha, det_alpha = gt.values[:, _ALPHA].tolist(), dets.values[:, _ALPHA].tolist()
    scores = dets.values[:, _SCORE].tolist()
    try:
        for kind, bin_, result in _match_difficulties(gt, dets, passes, threshold, bins):
            records, num_gt = passes[kind][bin_]
            num_gt.update(gt.names[j] for j, _, _ in result.pairs)
            num_gt.update(gt.names[j] for j in result.unmatched_gt)
            for j, i, _ in result.pairs:
                sim = (1.0 + math.cos(det_alpha[i] - gt_alpha[j])) / 2.0
                records[dets.names[i]].extend((scores[i], 1.0, sim))
            for i in result.unmatched_det:
                records[dets.names[i]].extend((scores[i], 0.0, 0.0))
    except DegenerateBox as exc:
        raise DegenerateBox(f"frame {frame_id}: {exc}") from exc


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
    for frame in frames:
        _record_frame(frame.frame_id, *_tables(frame), threshold, passes)
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
    """IoU of two (x, y, z, h, w, l, yaw) boxes after aligning centers and yaw."""
    inter = min(a[3], b[3]) * min(a[4], b[4]) * min(a[5], b[5])
    vol_a = a[3] * a[4] * a[5]
    vol_b = b[3] * b[4] * b[5]
    return inter / (vol_a + vol_b - inter)


def _center_errors(gt, dets, match_radius: float, errors: dict[str, array]) -> None:
    """Append (ATE, ASE, AOE) of each match of one frame's ``gt`` and ``dets``
    label tables to ``errors[class_name]``, for each class ``errors`` holds."""
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
            ase = 1.0 - _aligned_dims_iou(boxes[i], gts[j])
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
    detection matches anywhere.  DontCare rows are never scored, as in
    :func:`match_frame`.
    """
    if not math.isfinite(match_radius) or match_radius <= 0:
        raise ValueError(f"match_radius must be positive, got {match_radius}")
    if class_name == DONTCARE:
        raise NoMatches(f"class {DONTCARE!r} marks regions and is never scored")
    errors = array("d")
    for frame in frames:
        _center_errors(*_tables(frame), match_radius, {class_name: errors})
    return _mean_errors(errors, class_name)

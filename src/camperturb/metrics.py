"""Detection metrics: rotated-box IoU, matching, AP40 / AOS, center-distance errors.

Overlap of yaw-rotated boxes is computed exactly, for many box pairs at
once: the bird's-eye-view (BEV) footprints are rectangles, the vertices
of their intersection are the corners of each inside the other plus the
crossings of their edges, and sorted by angle these give the area by the
shoelace formula.  3D IoU multiplies the BEV intersection by the overlap
of the vertical extents.  :func:`match_frame` scores all same-class
pairs of a frame in one call; ``iou_2d``/``iou_bev``/``iou_3d`` score
one pair through the same kernel.

AP40 follows the 40-recall-point protocol: detections are matched
greedily in score order, the precision-recall curve is sampled after
every distinct score value (so tied scores enter the curve together and
the result is independent of tie ordering), and precision is
max-interpolated at recalls 1/40 .. 40/40.  AOS runs the same sweep with
the numerator replaced by accumulated orientation similarity
(1 + cos(delta alpha)) / 2, which makes AOS <= AP on 2D matching.
Matching does not depend on the class being scored, so one
:func:`match_pass` per (IoU kind, difficulty) serves every class, and
:func:`class_sweep` turns one class's share of it into AP40 or AOS.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .errors import DegenerateBox, NoGroundTruth, NoMatches
from .geometry import Box3D, CameraIntrinsics, _box_row, _corners, _wrap_angle
from .kitti import DONTCARE, DifficultyBin, ObjectLabel, _box_rows, difficulty_of

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
        for det in self.detections:
            if det.class_name != DONTCARE and det.score is None:
                raise ValueError(
                    f"detection without a score in frame {self.frame_id!r}"
                )


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


def _rows(kind: str, labels) -> np.ndarray:
    """Rows of :func:`_pair_ious` for labels: 2D boxes, or 3D boxes for BEV/3D."""
    if kind == "2d":
        rows = [(a.bbox_left, a.bbox_top, a.bbox_right, a.bbox_bottom) for a in labels]
        return np.array(rows, dtype=float).reshape(-1, 4)
    return _box_rows(labels)


def iou_2d(a: ObjectLabel, b: ObjectLabel) -> float:
    """Axis-aligned IoU of two labels' 2D boxes."""
    return float(_pair_ious("2d", _rows("2d", [a]), _rows("2d", [b]))[0])


def iou_bev(a: Box3D, b: Box3D) -> float:
    """Exact IoU of two yaw-rotated BEV footprints, in [0, 1]."""
    return float(_pair_ious("bev", _box_row(a), _box_row(b))[0])


def iou_3d(a: Box3D, b: Box3D) -> float:
    """Exact IoU of two upright 3D boxes.

    The vertical extent of a box runs from center.y (bottom) to
    center.y - height (top) in the y-down camera frame.
    """
    return float(_pair_ious("3d", _box_row(a), _box_row(b))[0])


_IOU_KINDS = ("2d", "bev", "3d")


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
    if iou_kind not in _IOU_KINDS:
        raise ValueError(f"iou_kind must be one of {_IOU_KINDS}, got {iou_kind!r}")
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must lie in (0, 1], got {threshold}")
    gt = frame.ground_truth
    dets = frame.detections
    dontcare = [i for i, g in enumerate(gt) if g.class_name == DONTCARE]
    real_gt = [i for i, g in enumerate(gt) if g.class_name != DONTCARE]
    hardest = min(difficulty, DifficultyBin.HARD)
    in_bin = {i: difficulty_of(gt[i]) <= hardest for i in real_gt}
    order = sorted(
        (i for i, d in enumerate(dets) if d.class_name != DONTCARE),
        key=lambda i: (-dets[i].score, i),
    )
    # one IoU matrix per call; -1 marks the pairs that are never compared
    ious = np.full((len(dets), len(gt)), -1.0)
    same_class = [
        (i, j) for i in order for j in real_gt if gt[j].class_name == dets[i].class_name
    ]
    if same_class:
        det_idx, gt_idx = np.array(same_class).T
        rows_det, rows_gt = _rows(iou_kind, dets), _rows(iou_kind, gt)
        ious[det_idx, gt_idx] = _pair_ious(iou_kind, rows_det[det_idx], rows_gt[gt_idx])
    covered = np.zeros(len(dets), dtype=bool)
    if dontcare and order:
        det_idx, dc_idx = np.repeat(order, len(dontcare)), np.tile(dontcare, len(order))
        boxes_det, boxes_dc = _rows("2d", dets)[det_idx], _rows("2d", gt)[dc_idx]
        inter, area_det, _ = _rect_overlap(boxes_det, boxes_dc)
        coverage = np.where(inter > 0.0, inter / area_det, 0.0)
        covered[order] = (coverage > threshold).reshape(len(order), -1).any(axis=1)
    claimed: set[int] = set()
    pairs: list[tuple[int, int, float]] = []
    ignored: list[int] = []
    false_pos: list[int] = []
    for di, row in zip(order, ious[order].tolist()):
        best_j = -1
        best_iou = 0.0
        best_eligible = False
        for j, iou in enumerate(row):
            if iou < threshold or j in claimed:
                continue
            eligible = in_bin[j]
            # an in-bin match always beats an out-of-bin one; within a
            # group, highest IoU wins (lowest index on exact ties)
            if (eligible, iou) > (best_eligible, best_iou):
                best_j, best_iou, best_eligible = j, iou, eligible
        if best_j >= 0 and best_eligible:
            claimed.add(best_j)
            pairs.append((best_j, di, best_iou))
        elif best_j >= 0 or covered[di]:
            ignored.append(di)  # out-of-bin match or DontCare: neither TP nor FP
        else:
            false_pos.append(di)
    unmatched_gt = tuple(j for j in real_gt if in_bin[j] and j not in claimed)
    return MatchResult(
        pairs=tuple(pairs),
        unmatched_gt=unmatched_gt,
        unmatched_det=tuple(sorted(false_pos)),
        ignored_det=tuple(sorted(ignored)),
    )


def match_pass(
    frames,
    iou_kind: str = "2d",
    threshold: float = 0.7,
    difficulty: DifficultyBin = DifficultyBin.MODERATE,
) -> tuple[list[tuple[str, float, bool, float]], dict[str, int]]:
    """Match every frame once, for all classes at the same time.

    Returns ``(records, num_gt)``.  ``records`` holds one
    (class_name, score, is_tp, similarity) entry per true or false
    positive, in frame order (each frame's true positives in match order,
    then its false positives in index order); ``similarity`` is
    (1 + cos(alpha_det - alpha_gt)) / 2 for true positives and 0
    otherwise.  ``num_gt`` maps each class to its in-bin ground-truth
    count.  Raises ``ValueError`` on an empty frame list.
    """
    frames = list(frames)
    if not frames:
        raise ValueError("frames must be non-empty")
    records: list[tuple[str, float, bool, float]] = []
    num_gt: Counter[str] = Counter()
    for frame in frames:
        result = match_frame(frame, iou_kind, threshold, difficulty)
        gt, dets = frame.ground_truth, frame.detections
        in_bin = [j for j, _, _ in result.pairs] + list(result.unmatched_gt)
        num_gt.update(gt[j].class_name for j in in_bin)
        for gt_j, det_i, _ in result.pairs:
            det = dets[det_i]
            sim = (1.0 + math.cos(det.alpha - gt[gt_j].alpha)) / 2.0
            records.append((det.class_name, det.score, True, sim))
        for det_i in result.unmatched_det:
            det = dets[det_i]
            records.append((det.class_name, det.score, False, 0.0))
    return records, num_gt


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
    ranked = sorted((r[1:] for r in records if r[0] == class_name), key=lambda r: -r[0])
    points: list[tuple[float, float]] = []  # (recall, value)
    tp = 0
    fp = 0
    sim_sum = 0.0
    for _, tied in groupby(ranked, key=lambda r: r[0]):
        for _, is_tp, sim in tied:
            if is_tp:
                tp += 1
                sim_sum += sim
            else:
                fp += 1
        points.append((tp / total_gt, (sim_sum if use_similarity else tp) / (tp + fp)))
    interpolated = [
        max((value for recall, value in points if recall >= r), default=0.0)
        for r in RECALL_POINTS
    ]
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
    records, num_gt = match_pass(frames, iou_kind, threshold, difficulty)
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
    records, num_gt = match_pass(frames, "2d", threshold, difficulty)
    return class_sweep(records, num_gt, class_name, difficulty, use_similarity=True)


def _aligned_dims_iou(a: Box3D, b: Box3D) -> float:
    """IoU of two boxes after aligning centers and yaw (dimension-only)."""
    inter = (
        min(a.height, b.height) * min(a.width, b.width) * min(a.length, b.length)
    )
    vol_a = a.height * a.width * a.length
    vol_b = b.height * b.width * b.length
    return inter / (vol_a + vol_b - inter)


def nuscenes_errors(
    frames, class_name: str, match_radius: float = 2.0
) -> NuScenesErrors:
    """Mean translation / scale / orientation errors over matched pairs.

    Detections are matched greedily in descending score order; each
    claims the unmatched same-class ground truth with the smallest BEV
    center distance, if that distance is within ``match_radius`` metres.
    Per pair: ATE is the BEV center distance in metres, ASE is one minus
    the center-and-yaw-aligned IoU of the dimensions, AOE is the absolute
    yaw difference wrapped to [0, pi].  Raises :class:`NoMatches` if no
    detection matches anywhere.
    """
    if not math.isfinite(match_radius) or match_radius <= 0:
        raise ValueError(f"match_radius must be positive, got {match_radius}")
    ates: list[float] = []
    ases: list[float] = []
    aoes: list[float] = []
    for frame in frames:
        gts = [
            g for g in frame.ground_truth if g.class_name == class_name
        ]
        dets = sorted(
            (d for d in frame.detections if d.class_name == class_name),
            key=lambda d: -d.score,
        )
        claimed: set[int] = set()
        for det in dets:
            best_j = -1
            best_dist = match_radius
            for j, g in enumerate(gts):
                if j in claimed:
                    continue
                dist = math.hypot(det.x - g.x, det.z - g.z)
                if dist <= best_dist:
                    best_j, best_dist = j, dist
            if best_j < 0:
                continue
            claimed.add(best_j)
            g = gts[best_j]
            ates.append(best_dist)
            ases.append(1.0 - _aligned_dims_iou(det.box3d(), g.box3d()))
            aoes.append(abs(_wrap_angle(det.rotation_y - g.rotation_y)))
    if not ates:
        raise NoMatches(f"no detection of class {class_name!r} matched any ground truth")
    return NuScenesErrors(
        ate=sum(ates) / len(ates),
        ase=sum(ases) / len(ases),
        aoe=sum(aoes) / len(aoes),
        matches=len(ates),
    )

"""Detection metrics: rotated-box IoU, matching, AP40 / AOS, center-distance errors.

Overlap of yaw-rotated boxes is computed exactly: the bird's-eye-view
(BEV) footprints are convex quadrilaterals, their intersection is found
with Sutherland-Hodgman polygon clipping, and areas come from the
shoelace formula.  3D IoU multiplies the BEV intersection by the overlap
of the vertical extents.

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
from .geometry import Box3D, CameraIntrinsics, _wrap_angle
from .kitti import DONTCARE, DifficultyBin, ObjectLabel, difficulty_of

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


def _signed_area(points) -> float:
    """Shoelace area of a polygon, positive for counter-clockwise winding."""
    pts = np.asarray(points, dtype=float)
    if len(pts) < 3:
        return 0.0
    nxt = np.concatenate((pts[1:], pts[:1]))
    return 0.5 * float(np.dot(pts[:, 0], nxt[:, 1]) - np.dot(pts[:, 1], nxt[:, 0]))


def polygon_area(points: np.ndarray) -> float:
    """Unsigned area of a simple polygon (shoelace formula)."""
    return abs(_signed_area(points))


def convex_clip(
    subject: np.ndarray, clip: np.ndarray
) -> list[tuple[float, float]]:
    """Clip a polygon against a convex polygon (Sutherland-Hodgman).

    The clip polygon may be given in either winding; it is re-oriented
    counter-clockwise internally.  Points exactly on a clip edge count as
    inside, so clipping a polygon against itself returns it unchanged.
    """
    output = [(float(p[0]), float(p[1])) for p in np.asarray(subject, dtype=float)]
    clip = np.asarray(clip, dtype=float)
    clip_pts = [(float(p[0]), float(p[1])) for p in clip]
    if _signed_area(clip) < 0:
        clip_pts.reverse()
    n = len(clip_pts)
    for i in range(n):
        if not output:
            break
        ax, ay = clip_pts[i]
        bx, by = clip_pts[(i + 1) % n]
        ex, ey = bx - ax, by - ay
        current = output
        output = []
        m = len(current)
        for j in range(m):
            px, py = current[j]
            qx, qy = current[(j + 1) % m]
            # interior of a CCW polygon is the left side of each edge
            p_in = ex * (py - ay) - ey * (px - ax) >= 0
            q_in = ex * (qy - ay) - ey * (qx - ax) >= 0
            if p_in:
                output.append((px, py))
            if p_in != q_in:
                den = ex * (qy - py) - ey * (qx - px)
                if den != 0.0:
                    t = (ex * (ay - py) - ey * (ax - px)) / den
                    output.append((px + t * (qx - px), py + t * (qy - py)))
    return output


def footprint_corners(box: Box3D) -> np.ndarray:
    """BEV footprint of a box: (4, 2) array of (x, z) corners."""
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    cx, cz = box.center.x, box.center.z
    hl, hw = 0.5 * box.length, 0.5 * box.width
    return np.array(
        [
            [cx + hl * s + hw * c, cz + hl * c - hw * s],
            [cx + hl * s - hw * c, cz + hl * c + hw * s],
            [cx - hl * s - hw * c, cz - hl * c + hw * s],
            [cx - hl * s + hw * c, cz - hl * c - hw * s],
        ]
    )


def _intersection_2d(a: ObjectLabel, b: ObjectLabel) -> float:
    """Area of the overlap of two labels' 2D boxes (0 when disjoint)."""
    iw = min(a.bbox_right, b.bbox_right) - max(a.bbox_left, b.bbox_left)
    ih = min(a.bbox_bottom, b.bbox_bottom) - max(a.bbox_top, b.bbox_top)
    return iw * ih if iw > 0 and ih > 0 else 0.0


def _area_2d(a: ObjectLabel) -> float:
    return (a.bbox_right - a.bbox_left) * (a.bbox_bottom - a.bbox_top)


def iou_2d(a: ObjectLabel, b: ObjectLabel) -> float:
    """Axis-aligned IoU of two labels' 2D boxes."""
    inter = _intersection_2d(a, b)
    if inter == 0.0:
        return 0.0
    return inter / (_area_2d(a) + _area_2d(b) - inter)


def _same_footprint(a: Box3D, b: Box3D) -> bool:
    """Bit-equal BEV footprints (a polygon clipped against itself is noisy)."""
    return (
        a.center.x == b.center.x
        and a.center.z == b.center.z
        and a.width == b.width
        and a.length == b.length
        and a.yaw == b.yaw
    )


def _bev_overlap(a: Box3D, b: Box3D) -> tuple[float, float, float]:
    """Footprint areas of both boxes and the area of their intersection."""
    area_a = a.width * a.length
    area_b = b.width * b.length
    if area_a < 1e-12 or area_b < 1e-12:
        raise DegenerateBox("BEV footprint has (near-)zero area")
    if _same_footprint(a, b):
        inter = area_a
    else:
        inter = polygon_area(convex_clip(footprint_corners(a), footprint_corners(b)))
    return area_a, area_b, min(inter, area_a, area_b)


def iou_bev(a: Box3D, b: Box3D) -> float:
    """Exact IoU of two yaw-rotated BEV footprints, in [0, 1]."""
    area_a, area_b, inter = _bev_overlap(a, b)
    return inter / (area_a + area_b - inter)


def iou_3d(a: Box3D, b: Box3D) -> float:
    """Exact IoU of two upright 3D boxes.

    The vertical extent of a box runs from center.y (bottom) to
    center.y - height (top) in the y-down camera frame.
    """
    area_a, area_b, inter_area = _bev_overlap(a, b)
    y_overlap = min(a.center.y, b.center.y) - max(
        a.center.y - a.height, b.center.y - b.height
    )
    inter_vol = inter_area * max(y_overlap, 0.0)
    vol_a = area_a * a.height
    vol_b = area_b * b.height
    inter_vol = min(inter_vol, vol_a, vol_b)
    union = vol_a + vol_b - inter_vol
    return inter_vol / union


_IOU_KINDS = ("2d", "bev", "3d")


def _overlap(kind: str, det: ObjectLabel, gt: ObjectLabel) -> float:
    if kind == "2d":
        return iou_2d(det, gt)
    if kind == "bev":
        return iou_bev(det.box3d(), gt.box3d())
    return iou_3d(det.box3d(), gt.box3d())


def _dontcare_coverage(det: ObjectLabel, dc: ObjectLabel) -> float:
    """Fraction of the detection's 2D box covered by a DontCare region."""
    inter = _intersection_2d(det, dc)
    return inter / _area_2d(det) if inter > 0.0 else 0.0


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
    claimed: set[int] = set()
    pairs: list[tuple[int, int, float]] = []
    ignored: list[int] = []
    false_pos: list[int] = []
    for di in order:
        det = dets[di]
        best_j = -1
        best_iou = 0.0
        best_eligible = False
        for j in real_gt:
            if j in claimed or gt[j].class_name != det.class_name:
                continue
            iou = _overlap(iou_kind, det, gt[j])
            if iou < threshold:
                continue
            eligible = in_bin[j]
            # an in-bin match always beats an out-of-bin one; within a
            # group, highest IoU wins (lowest index on exact ties)
            if (eligible, iou) > (best_eligible, best_iou):
                best_j, best_iou, best_eligible = j, iou, eligible
        if best_j >= 0 and best_eligible:
            claimed.add(best_j)
            pairs.append((best_j, di, best_iou))
        elif best_j >= 0:
            ignored.append(di)  # matched an out-of-bin box: neither TP nor FP
        elif any(
            _dontcare_coverage(det, gt[dc]) > threshold for dc in dontcare
        ):
            ignored.append(di)
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

"""Independent oracles used to derive expected test values.

Everything here deliberately avoids the code paths under test: IoU by
Monte-Carlo point sampling and by exact rational polygon clipping, AP by
exhaustive per-threshold evaluation, Gram matrices by direct double
summation, gradients by central finite differences, and rotations by
explicit 3x3 arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# ---------------------------------------------------------------------------
# rotated-rectangle IoU by Monte-Carlo point sampling


def point_in_footprint(points: np.ndarray, box) -> np.ndarray:
    """Membership test in a yaw-rotated BEV rectangle, by frame change.

    ``points`` is (n, 2) of (x, z).  A point is inside iff its coordinates
    in the box frame (heading component along length, lateral along width)
    are within the half-extents.
    """
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    dx = points[:, 0] - box.center.x
    dz = points[:, 1] - box.center.z
    along = dx * s + dz * c
    lateral = dx * c - dz * s
    return (np.abs(along) <= box.length / 2.0) & (np.abs(lateral) <= box.width / 2.0)


def _footprint_bounds(box) -> tuple[float, float, float, float]:
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    rx = abs(box.length / 2.0 * s) + abs(box.width / 2.0 * c)
    rz = abs(box.length / 2.0 * c) + abs(box.width / 2.0 * s)
    return (
        box.center.x - rx,
        box.center.x + rx,
        box.center.z - rz,
        box.center.z + rz,
    )


#: Points per chunk in ``mc_iou_bev``.  Chunks keep the temporaries small
#: enough to stay in cache instead of allocating 10^7-point arrays per pair;
#: the counts, and so the estimate, are the same as in one pass.
_MC_CHUNK = 1 << 18


def mc_iou_bev(box_a, box_b, unit_cloud: np.ndarray) -> float:
    """Monte-Carlo BEV IoU from a shared (n, 2) uniform cloud in [0, 1)^2.

    The cloud is rescaled into the union's bounding box, so every pair
    reuses the same random numbers; standard error is about
    sqrt(p(1-p)/n) relative to the bbox measure.
    """
    ax0, ax1, az0, az1 = _footprint_bounds(box_a)
    bx0, bx1, bz0, bz1 = _footprint_bounds(box_b)
    x0, x1 = min(ax0, bx0), max(ax1, bx1)
    z0, z1 = min(az0, bz0), max(az1, bz1)
    inter = 0
    union = 0
    for start in range(0, len(unit_cloud), _MC_CHUNK):
        chunk = unit_cloud[start:start + _MC_CHUNK]
        pts = np.empty_like(chunk)
        np.multiply(chunk[:, 0], x1 - x0, out=pts[:, 0])
        pts[:, 0] += x0
        np.multiply(chunk[:, 1], z1 - z0, out=pts[:, 1])
        pts[:, 1] += z0
        in_a = point_in_footprint(pts, box_a)
        in_b = point_in_footprint(pts, box_b)
        inter += int(np.count_nonzero(in_a & in_b))
        union += int(np.count_nonzero(in_a | in_b))
    if union == 0:
        return 0.0
    return inter / union


def _footprint_fractions(box) -> list[tuple[Fraction, Fraction]]:
    """The four (x, z) corners of a BEV footprint, as exact fractions."""
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    hl, hw = box.length / 2.0, box.width / 2.0
    return [
        (Fraction(box.center.x + a * hl * s + b * hw * c),
         Fraction(box.center.z + a * hl * c - b * hw * s))
        for a, b in ((1, 1), (1, -1), (-1, -1), (-1, 1))
    ]


def _shoelace(poly) -> Fraction:
    n = len(poly)
    return sum(
        (poly[i][0] * poly[(i + 1) % n][1] - poly[(i + 1) % n][0] * poly[i][1]
         for i in range(n)),
        Fraction(0),
    ) / 2


def exact_iou_bev(box_a, box_b) -> float:
    """BEV IoU by Sutherland-Hodgman clipping in exact rational arithmetic.

    Exact for the footprints' float corners, so it differs from the true
    IoU only by the rounding of those corners.
    """
    subject, clip = _footprint_fractions(box_a), _footprint_fractions(box_b)
    if _shoelace(clip) < 0:
        clip.reverse()
    for (ax, ay), (bx, by) in zip(clip, clip[1:] + clip[:1]):
        current, subject = subject, []
        for (px, py), (qx, qy) in zip(current, current[1:] + current[:1]):
            p_in = (bx - ax) * (py - ay) - (by - ay) * (px - ax) >= 0
            q_in = (bx - ax) * (qy - ay) - (by - ay) * (qx - ax) >= 0
            if p_in:
                subject.append((px, py))
            if p_in != q_in:
                t = ((bx - ax) * (ay - py) - (by - ay) * (ax - px)) / (
                    (bx - ax) * (qy - py) - (by - ay) * (qx - px)
                )
                subject.append((px + t * (qx - px), py + t * (qy - py)))
    inter = abs(_shoelace(subject)) if len(subject) >= 3 else Fraction(0)
    area_a = abs(_shoelace(_footprint_fractions(box_a)))
    area_b = abs(_shoelace(_footprint_fractions(box_b)))
    return float(inter / (area_a + area_b - inter))


# ---------------------------------------------------------------------------
# AP40 / AOS by exhaustive per-threshold evaluation

RECALL_POINTS_40 = [(k + 1) / 40.0 for k in range(40)]


def brute_force_ap40(
    records: list[tuple[float, bool, float]],
    total_gt: int,
    use_similarity: bool = False,
) -> float:
    """AP40 evaluated at every distinct score threshold separately.

    ``records`` are (score, is_tp, similarity).  For each threshold t in
    the set of scores, all records with score >= t are kept (ties enter
    together, by definition of thresholding) and one (recall, value)
    point is computed from scratch; interpolated precision at recall r is
    the max value over points with recall >= r.
    """
    thresholds = sorted({score for score, _, _ in records}, reverse=True)
    points = []
    for t in thresholds:
        kept = [rec for rec in records if rec[0] >= t]
        tp = sum(1 for _, is_tp, _ in kept if is_tp)
        fp = sum(1 for _, is_tp, _ in kept if not is_tp)
        if tp + fp == 0:
            continue
        recall = tp / total_gt
        if use_similarity:
            value = sum(sim for _, is_tp, sim in kept if is_tp) / (tp + fp)
        else:
            value = tp / (tp + fp)
        points.append((recall, value))
    total = 0.0
    for r in RECALL_POINTS_40:
        total += max((v for rec, v in points if rec >= r), default=0.0)
    return 100.0 * total / len(RECALL_POINTS_40)


# ---------------------------------------------------------------------------
# Gram matrix by direct double summation (the definitional form)


def naive_gram(data: np.ndarray) -> np.ndarray:
    """G[i, j] = sum_h sum_w t[i,h,w] * t[j,h,w] / (c*h*w), element by element."""
    c, h, w = data.shape
    n = c * h * w
    g = np.zeros((c, c))
    for i in range(c):
        for j in range(c):
            acc = 0.0
            for y in range(h):
                for x in range(w):
                    acc += float(data[i, y, x]) * float(data[j, y, x])
            g[i, j] = acc / n
    return g


# ---------------------------------------------------------------------------
# gradients by central finite differences


def finite_difference_gradient(fn, data: np.ndarray, step: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of a scalar function of an array."""
    grad = np.zeros_like(data, dtype=float)
    flat = data.ravel()
    for idx in range(flat.size):
        h = step * max(1.0, abs(float(flat[idx])))
        plus = data.copy()
        plus.flat[idx] += h
        minus = data.copy()
        minus.flat[idx] -= h
        grad.flat[idx] = (fn(plus) - fn(minus)) / (2.0 * h)
    return grad


# ---------------------------------------------------------------------------
# explicit small-matrix arithmetic (independent of numpy matmul)


def matmul3(a, b) -> np.ndarray:
    """3x3 matrix product written out as explicit scalar sums."""
    out = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            out[i, j] = sum(float(a[i][k]) * float(b[k][j]) for k in range(3))
    return out


def apply3(m, v) -> np.ndarray:
    """3x3 matrix times 3-vector, written out."""
    return np.array(
        [sum(float(m[i][k]) * float(v[k]) for k in range(3)) for i in range(3)]
    )


def rotation_angle_deg(r_rel: np.ndarray) -> float:
    """Geodesic angle of a single rotation matrix, trace formula by hand."""
    trace = float(r_rel[0, 0] + r_rel[1, 1] + r_rel[2, 2])
    cos_theta = max(-1.0, min(1.0, (trace - 1.0) / 2.0))
    return math.degrees(math.acos(cos_theta))

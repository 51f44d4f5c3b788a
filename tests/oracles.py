"""Independent oracles used to derive expected test values.

Everything here deliberately avoids the code paths under test: IoU by
Monte-Carlo point sampling (over a grid that counts whole cells at once)
and by exact rational polygon clipping, AP by exhaustive per-threshold
evaluation, Gram matrices by direct double summation, gradients by
central finite differences, rotations by explicit 3x3 arithmetic,
label files by the field-at-a-time parser with its own value rules, and
greedy matching by the scalar loop that visits one detection at a time.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from typing import NamedTuple

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


#: Points per chunk of the direct count.  Chunks keep the temporaries small
#: enough to stay in cache instead of allocating 10^7-point arrays per pair;
#: the counts, and so the estimate, are the same as in one pass.
_MC_CHUNK = 1 << 18
#: Cells per side of the grid a :class:`BinnedCloud` sorts its points into.
_GRID = 256
#: Distance (m) by which a whole cell must clear a footprint's edge to be counted
#: without testing its points; see :func:`_grid_counts`.
_CELL_MARGIN = 1e-3
#: Bound, with a fivefold reserve, on the float32 error of a rescaled point's
#: box-frame coordinates per metre of the largest coordinate; see :func:`_grid_counts`.
_FLOAT32_SLACK = 64 * float(np.finfo(np.float32).eps)


class BinnedCloud(NamedTuple):
    """A unit cloud sorted by cell of a ``_GRID`` x ``_GRID`` grid over [0, 1)^2.

    The points of cell ``k = i * _GRID + j`` (``i`` along x, ``j`` along z)
    are ``points[starts[k]:starts[k + 1]]``.
    """

    points: np.ndarray
    starts: np.ndarray


def bin_cloud(unit_cloud: np.ndarray) -> BinnedCloud:
    """Sort an (n, 2) cloud in [0, 1)^2 by grid cell, once for every pair it serves."""
    if not (unit_cloud.min() >= 0.0 and unit_cloud.max() < 1.0):
        raise ValueError("the cloud must lie in [0, 1)^2")
    cells = (unit_cloud * _GRID).astype(np.uint16)  # exact: a power-of-two scale
    keys = cells[:, 0] * np.uint16(_GRID) + cells[:, 1]
    starts = np.zeros(_GRID * _GRID + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=_GRID * _GRID), out=starts[1:])
    return BinnedCloud(unit_cloud[np.argsort(keys, kind="stable")], starts)


def _union_bounds(box_a, box_b) -> tuple[float, float, float, float]:
    ax0, ax1, az0, az1 = _footprint_bounds(box_a)
    bx0, bx1, bz0, bz1 = _footprint_bounds(box_b)
    return min(ax0, bx0), max(ax1, bx1), min(az0, bz0), max(az1, bz1)


def _direct_counts(box_a, box_b, unit_points: np.ndarray, bounds) -> tuple[int, int]:
    """(intersection, union) point counts: every point rescaled into ``bounds``
    in the cloud's own dtype and tested against both footprints."""
    x0, x1, z0, z1 = bounds
    inter = 0
    union = 0
    for start in range(0, len(unit_points), _MC_CHUNK):
        chunk = unit_points[start:start + _MC_CHUNK]
        pts = np.empty_like(chunk)
        np.multiply(chunk[:, 0], x1 - x0, out=pts[:, 0])
        pts[:, 0] += x0
        np.multiply(chunk[:, 1], z1 - z0, out=pts[:, 1])
        pts[:, 1] += z0
        in_a = point_in_footprint(pts, box_a)
        in_b = point_in_footprint(pts, box_b)
        inter += int(np.count_nonzero(in_a & in_b))
        union += int(np.count_nonzero(in_a | in_b))
    return inter, union


def _grid_counts(box_a, box_b, cloud: BinnedCloud, bounds) -> tuple[int, int]:
    """The counts of :func:`_direct_counts`, testing only the points of cells
    that straddle a footprint's edge.

    Cell ``(i, j)`` holds the points whose exact rescaled position lies in
    the cell's rectangle of the union's bounding box, so each is within the
    cell's circumradius ``r`` of the cell's center.  A footprint test reads
    the point's box-frame coordinates (along the length, across the width),
    and two points' coordinates differ by at most their distance, so every
    point of a cell whose center has ``|along| + r + m <= length / 2`` and
    ``|lateral| + r + m <= width / 2`` lies at least ``m`` inside the
    footprint, and every point of one with ``|along| - r - m > length / 2``
    or ``|lateral| - r - m > width / 2`` at least ``m`` outside it.

    The direct test computes those coordinates in float32: the rescale
    (a product and a sum), the shift by the box center, the rotation (two
    products and a sum) and the rounded half-extent each add at most a few
    units of float32 rounding of the largest coordinate ``M`` involved,
    about ``13 * eps32 * M`` in all (3e-4 m at M = 200 m).  The float64 cell
    test itself is off by about 1e-14 m.  So while ``64 * eps32 * M`` stays
    below the margin ``m`` of 1e-3 m (M below 131 m), every point of a
    surely-inside cell tests inside and every point of a surely-outside cell
    tests outside, and such cells are counted in bulk.  The points of every
    other cell go through :func:`_direct_counts`, with the same arithmetic
    as the direct path, so the two paths return the same integer counts.
    Beyond that range every cell is tested point by point.
    """
    x0, x1, z0, z1 = bounds
    centers = (np.arange(_GRID) + 0.5) / _GRID
    cx = (x0 + centers * (x1 - x0))[:, None]
    cz = (z0 + centers * (z1 - z0))[None, :]
    reach = math.hypot(x1 - x0, z1 - z0) / (2 * _GRID) + _CELL_MARGIN
    sure_in, sure_out = [], []
    for box in (box_a, box_b):
        c, s = math.cos(box.yaw), math.sin(box.yaw)
        dx, dz = cx - box.center.x, cz - box.center.z
        along, lateral = np.abs(dx * s + dz * c), np.abs(dx * c - dz * s)
        half_length, half_width = box.length / 2.0, box.width / 2.0
        sure_in.append(((along + reach <= half_length) & (lateral + reach <= half_width)).ravel())
        sure_out.append(((along - reach > half_length) | (lateral - reach > half_width)).ravel())
    largest = max(abs(x0), abs(x1), abs(z0), abs(z1))
    settled = (sure_in[0] | sure_out[0]) & (sure_in[1] | sure_out[1])
    settled &= _FLOAT32_SLACK * largest < _CELL_MARGIN
    counts = np.diff(cloud.starts)
    inter = int(counts[settled & sure_in[0] & sure_in[1]].sum())
    union = int(counts[settled & (sure_in[0] | sure_in[1])].sum())
    cells = np.flatnonzero(~settled)
    lengths = counts[cells]
    first = cloud.starts[cells] - (np.cumsum(lengths) - lengths)
    rows = np.repeat(first, lengths) + np.arange(lengths.sum())
    more_inter, more_union = _direct_counts(box_a, box_b, cloud.points[rows], bounds)
    return inter + more_inter, union + more_union


def mc_counts(box_a, box_b, cloud) -> tuple[int, int]:
    """(intersection, union) Monte-Carlo point counts of two BEV footprints.

    ``cloud`` is an (n, 2) uniform cloud in [0, 1)^2, every point of which is
    tested, or the same cloud as a :class:`BinnedCloud`, which gives the
    same counts from the points of boundary cells alone.
    """
    bounds = _union_bounds(box_a, box_b)
    if isinstance(cloud, BinnedCloud):
        return _grid_counts(box_a, box_b, cloud, bounds)
    return _direct_counts(box_a, box_b, cloud, bounds)


def mc_iou_bev(box_a, box_b, unit_cloud) -> float:
    """Monte-Carlo BEV IoU from a shared uniform cloud in [0, 1)^2 (an (n, 2)
    array or a :class:`BinnedCloud`).

    The cloud is rescaled into the union's bounding box, so every pair
    reuses the same random numbers; standard error is about
    sqrt(p(1-p)/n) relative to the bbox measure.
    """
    inter, union = mc_counts(box_a, box_b, unit_cloud)
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
# greedy matching, one detection at a time


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


def sequential_sweep(
    records: list[tuple[float, bool, float]],
    total_gt: int,
    use_similarity: bool = False,
) -> float:
    """AP40 by one pass over the records in rank order, one at a time.

    ``records`` are (score, is_tp, similarity), ranked by a stable sort on
    descending score; counts and the similarity sum run left to right and
    a curve point is taken after each run of equal scores.  Gives the bits
    that a left-to-right accumulation gives, which ``brute_force_ap40``,
    summing each threshold's records afresh, need not.
    """
    ranked = sorted(records, key=lambda record: -record[0])
    points, tp, fp, sim_sum = [], 0, 0, 0.0
    for k, (score, is_tp, sim) in enumerate(ranked):
        if is_tp:
            tp, sim_sum = tp + 1, sim_sum + sim
        else:
            fp += 1
        if k + 1 == len(ranked) or ranked[k + 1][0] != score:
            points.append((tp / total_gt, (sim_sum if use_similarity else tp) / (tp + fp)))
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


def pairwise_angle_deg(r_est: np.ndarray, r_gt: np.ndarray) -> float:
    """Angle of R_est^T R_gt in degrees, from one 3x3 product per pair.

    atan2 of the skew part's norm (hypot) over the trace term, the
    arithmetic the stacked ``angular_error`` kernel must reproduce bit
    for bit.
    """
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = (r_est.T @ r_gt).tolist()
    sin_theta = math.hypot(r21 - r12, r02 - r20, r10 - r01) / 2.0
    cos_theta = (r00 + r11 + r22 - 1.0) / 2.0
    return math.degrees(math.atan2(sin_theta, cos_theta))


# ---------------------------------------------------------------------------
# image warp over the whole image at once


def whole_image_warp(data: np.ndarray, homography: np.ndarray, fill: int) -> np.ndarray:
    """Inverse-mapped bilinear warp of a (h, w, c) uint8 raster in one pass.

    Every output pixel is mapped and weighted at once, in float64, with
    the expressions ``warp_image`` applies to each block of rows; the
    blocked warp must reproduce this byte for byte.
    """
    height, width, channels = data.shape
    hinv = np.linalg.inv(homography)
    us, vs = np.meshgrid(np.arange(width, dtype=float), np.arange(height, dtype=float))
    src = hinv @ np.stack([us.ravel(), vs.ravel(), np.ones(us.size)])
    in_front = src[2] > 1e-12
    safe_w = np.where(in_front, src[2], 1.0)
    x, y = src[0] / safe_w, src[1] / safe_w
    eps = 1e-9
    valid = in_front & (x >= -eps) & (x <= width - 1 + eps) & (y >= -eps) & (y <= height - 1 + eps)
    x = np.clip(np.where(valid, x, 0.0), 0.0, width - 1.0)
    y = np.clip(np.where(valid, y, 0.0), 0.0, height - 1.0)
    x0, y0 = np.floor(x).astype(np.intp), np.floor(y).astype(np.intp)
    x1, y1 = np.minimum(x0 + 1, width - 1), np.minimum(y0 + 1, height - 1)
    fx, fy = (x - x0)[:, None], (y - y0)[:, None]
    flat = data.reshape(-1, channels).astype(float)
    value = (
        flat[y0 * width + x0] * (1 - fx) * (1 - fy)
        + flat[y0 * width + x1] * fx * (1 - fy)
        + flat[y1 * width + x0] * (1 - fx) * fy
        + flat[y1 * width + x1] * fx * fy
    )
    value[~valid] = float(fill)
    return np.clip(np.rint(value), 0, 255).astype(np.uint8).reshape(data.shape)


# ---------------------------------------------------------------------------
# label files one line and one field at a time


def _label_fault(name: str, values: list) -> str | None:
    """The first value rule a parsed label line breaks, checked one field at a time.

    ``values`` are the 14 or 15 numbers after the class name, ``occluded``
    already an integer.  Finite values and a bbox that grows left to right
    and top to bottom are asked of every line; a ``DontCare`` line may then
    carry any sentinel, while every other class needs positive dimensions
    and truncation, occlusion and the two angles in range.
    """
    (truncated, occluded, alpha, left, top, right, bottom,
     height, width, length, _x, _y, _z, rotation_y) = values[:14]
    for value in values[:1] + values[2:]:
        if not math.isfinite(value):
            return f"label field must be finite, got {value!r}"
    if not name or any(ch.isspace() for ch in name):
        return f"invalid class name {name!r}"
    if right <= left:
        return f"bbox_right must exceed bbox_left ({right} <= {left})"
    if bottom <= top:
        return f"bbox_bottom must exceed bbox_top ({bottom} <= {top})"
    if name == "DontCare":
        return None
    if height <= 0 or width <= 0 or length <= 0:
        return f"dimensions must be positive, got h={height}, w={width}, l={length}"
    if not 0.0 <= truncated <= 1.0:
        return f"truncated must lie in [0, 1], got {truncated}"
    if occluded not in (0, 1, 2, 3):
        return f"occluded must be one of 0..3, got {occluded}"
    if not -math.pi <= alpha <= math.pi:
        return f"alpha must lie in [-pi, pi], got {alpha}"
    if not -math.pi <= rotation_y <= math.pi:
        return f"rotation_y must lie in [-pi, pi], got {rotation_y}"
    return None


def scalar_label_file(data: bytes):
    """A KITTI label file parsed line by line and field by field.

    Each token is converted and checked for finiteness in file order, then
    ``occluded`` must be an integer and the line must pass the value rules
    of :func:`_label_fault`, written out here rather than taken from the
    package; a broken rule becomes a ``MalformedLine``.  Only a line that
    passes builds an ``ObjectLabel``.  The first bad line decides the error;
    an invalid UTF-8 byte anywhere comes before all.
    """
    from camperturb import MalformedLine, NonFiniteValue, ObjectLabel

    fields = [f.name for f in dataclasses.fields(ObjectLabel)][1:]
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data[: exc.start].count(b"\n") + 1
        raise MalformedLine(line_no, "label file is not valid UTF-8") from exc
    labels = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) not in (15, 16):
            raise MalformedLine(line_no, f"expected 15 or 16 fields, got {len(tokens)}")
        values = []
        for field, token in zip(fields, tokens[1:]):
            try:
                value = float(token)
            except ValueError as exc:
                raise MalformedLine(
                    line_no, f"field '{field}': cannot parse {token!r} as a number"
                ) from exc
            if not math.isfinite(value):
                raise NonFiniteValue(line_no, field)
            values.append(value)
        if values[1] != int(values[1]):
            raise MalformedLine(
                line_no, f"field 'occluded': expected an integer, got {tokens[2]!r}"
            )
        values[1] = int(values[1])
        fault = _label_fault(tokens[0], values)
        if fault is not None:
            raise MalformedLine(line_no, fault)
        labels.append(ObjectLabel(tokens[0], *values))
    return labels

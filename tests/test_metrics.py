"""Rotated-box IoU, greedy matching, AP40/AOS sweeps, center-distance errors."""

import dataclasses
import math

import numpy as np
import pytest

from camperturb import (
    DegenerateBox,
    DetectionFrame,
    DifficultyBin,
    NoGroundTruth,
    NoMatches,
    average_orientation_similarity,
    average_precision_40,
    iou_2d,
    iou_3d,
    iou_bev,
    match_frame,
    nuscenes_errors,
    parse_label_file,
)

from helpers import detection_frame, make_box, make_label, with_score
from oracles import brute_force_ap40, exact_iou_bev, mc_iou_bev

DONTCARE_LINE = (
    b"DontCare -1 -1 -10 100.0 120.0 300.0 300.0 -1 -1 -1 -1000 -1000 -1000 -10"
)


def bbox_label(left, top, right, bottom, score=None, class_name="Car", alpha=0.0):
    return make_label(
        class_name=class_name,
        box=make_box(),
        bbox=(left, top, right, bottom),
        score=score,
        alpha=alpha,
    )


def random_box(rng, z_range=(5.0, 40.0)):
    return make_box(
        x=float(rng.uniform(-15, 15)),
        y=float(rng.uniform(-1, 3)),
        z=float(rng.uniform(*z_range)),
        height=float(rng.uniform(0.8, 3.0)),
        width=float(rng.uniform(0.8, 3.0)),
        length=float(rng.uniform(0.8, 6.0)),
        yaw=float(rng.uniform(-math.pi, math.pi)),
    )


# ---------------------------------------------------------------------------
# IoU


class TestIou2d:
    def test_identical(self):
        a = bbox_label(0, 0, 2, 2)
        assert iou_2d(a, a) == 1.0

    def test_disjoint(self):
        assert iou_2d(bbox_label(0, 0, 2, 2), bbox_label(5, 5, 7, 7)) == 0.0

    def test_two_thirds_overlap(self):
        # inter 2, union 6
        a = bbox_label(0, 0, 2, 2)
        b = bbox_label(1, 0, 3, 2)
        assert iou_2d(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_symmetric(self):
        a = bbox_label(0, 0, 2, 2)
        b = bbox_label(1, 1, 4, 3)
        assert iou_2d(a, b) == iou_2d(b, a)


class TestIouBev:
    def test_identical(self):
        box = make_box(x=1.0, z=10.0, yaw=0.3)
        assert iou_bev(box, box) == 1.0

    def test_rotated_unit_squares(self):
        a = make_box(x=0.0, y=0.0, z=10.0, height=1.0, width=1.0, length=1.0, yaw=0.0)
        b = dataclasses.replace(a, yaw=math.pi / 4)
        # octagon intersection: exact value is 1/sqrt(2)
        assert iou_bev(a, b) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)

    def test_distant_footprints(self):
        a = make_box(x=0.0, z=10.0, width=2.0, length=2.0)
        b = make_box(x=10.0, z=10.0, width=2.0, length=2.0)
        assert iou_bev(a, b) == 0.0

    def test_degenerate_footprint_rejected(self):
        a = make_box(width=1e-7, length=1e-7)
        with pytest.raises(DegenerateBox):
            iou_bev(a, a)

    def test_half_shift(self):
        a = make_box(x=0.0, z=10.0, width=2.0, length=2.0, yaw=0.0)
        b = make_box(x=1.0, z=10.0, width=2.0, length=2.0, yaw=0.0)
        # inter 2x1=2, union 8-2=6
        assert iou_bev(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_range_symmetry_and_identity(self):
        rng = np.random.default_rng(83)
        for _ in range(300):
            a = random_box(rng)
            b = random_box(rng)
            ab = iou_bev(a, b)
            assert 0.0 <= ab <= 1.0
            assert ab == pytest.approx(iou_bev(b, a), abs=1e-12)
        box = random_box(rng)
        assert iou_bev(box, box) == 1.0

    def test_invariant_under_common_rigid_transform(self):
        rng = np.random.default_rng(89)
        for _ in range(100):
            a = random_box(rng)
            b = dataclasses.replace(
                random_box(rng),
                center=dataclasses.replace(
                    a.center,
                    x=a.center.x + float(rng.uniform(-2, 2)),
                    z=a.center.z + float(rng.uniform(-2, 2)),
                ),
            )
            base = iou_bev(a, b)
            dx, dz = rng.uniform(-20, 20, size=2)
            dyaw = float(rng.uniform(-math.pi / 2, math.pi / 2))

            def moved(box):
                c, s = math.cos(dyaw), math.sin(dyaw)
                x = box.center.x * c + box.center.z * s + dx
                z = -box.center.x * s + box.center.z * c + dz
                yaw = (box.yaw + dyaw + math.pi) % (2 * math.pi) - math.pi
                return dataclasses.replace(
                    box,
                    center=dataclasses.replace(box.center, x=x, z=z),
                    yaw=yaw,
                )

            assert iou_bev(moved(a), moved(b)) == pytest.approx(base, abs=1e-9)

    def test_against_monte_carlo_oracle_sample(self):
        # fast sanity bridge; the full 500-pair / 1e7-sample comparison at
        # 2e-3 runs in the acceptance suite
        rng = np.random.default_rng(97)
        cloud = rng.random((1_000_000, 2), dtype=np.float32)
        for _ in range(40):
            a = random_box(rng)
            b = dataclasses.replace(
                random_box(rng),
                center=dataclasses.replace(
                    a.center,
                    x=a.center.x + float(rng.uniform(-3, 3)),
                    z=a.center.z + float(rng.uniform(-3, 3)),
                ),
            )
            assert iou_bev(a, b) == pytest.approx(mc_iou_bev(a, b, cloud), abs=6e-3)

    def test_against_exact_clipping(self):
        """Random pairs, and pairs jittered down to 1e-12 where corners nearly meet."""
        rng = np.random.default_rng(53)
        for scale in (None, 1e-1, 1e-4, 1e-8, 1e-12):
            for _ in range(40):
                a = random_box(rng)
                b = random_box(rng) if scale is None else make_box(
                    x=a.center.x + float(rng.normal(0.0, scale)),
                    z=a.center.z + float(rng.normal(0.0, scale)),
                    width=a.width * (1.0 + float(rng.normal(0.0, scale))),
                    length=a.length,
                    yaw=float(np.clip(a.yaw + rng.normal(0.0, scale), -math.pi, math.pi)),
                )
                if scale is None:  # bring the random box near enough to overlap
                    b = dataclasses.replace(b, center=dataclasses.replace(
                        a.center, x=a.center.x + float(rng.uniform(-3, 3)),
                    ))
                assert iou_bev(a, b) == pytest.approx(exact_iou_bev(a, b), abs=1e-12)


class TestIou3d:
    def test_identical(self):
        box = make_box(x=1.0, z=10.0, yaw=0.3)
        assert iou_3d(box, box) == 1.0

    def test_full_height_offset_has_zero_overlap(self):
        a = make_box(x=0.0, y=1.0, z=10.0, height=1.5)
        b = dataclasses.replace(
            a, center=dataclasses.replace(a.center, y=a.center.y - a.height)
        )
        assert iou_3d(a, b) == 0.0

    def test_half_height_offset(self):
        # 2x2 footprints, heights 2, one raised by 1: overlap 4, union 12
        a = make_box(x=0.0, y=0.0, z=10.0, height=2.0, width=2.0, length=2.0, yaw=0.0)
        b = dataclasses.replace(
            a, center=dataclasses.replace(a.center, y=a.center.y - 1.0)
        )
        assert iou_3d(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_range_symmetry_and_identity(self):
        rng = np.random.default_rng(101)
        for _ in range(300):
            a = random_box(rng)
            b = random_box(rng)
            ab = iou_3d(a, b)
            assert 0.0 <= ab <= 1.0
            assert ab == pytest.approx(iou_3d(b, a), abs=1e-12)

    def test_invariant_under_common_translation(self):
        rng = np.random.default_rng(103)
        for _ in range(100):
            a = random_box(rng)
            b = dataclasses.replace(
                random_box(rng),
                center=dataclasses.replace(
                    a.center,
                    x=a.center.x + float(rng.uniform(-2, 2)),
                    z=a.center.z + float(rng.uniform(-2, 2)),
                ),
            )
            base = iou_3d(a, b)
            dx, dy, dz = rng.uniform(-10, 10, size=3)

            def shifted(box):
                return dataclasses.replace(
                    box,
                    center=dataclasses.replace(
                        box.center,
                        x=box.center.x + dx,
                        y=box.center.y + dy,
                        z=box.center.z + dz,
                    ),
                )

            assert iou_3d(shifted(a), shifted(b)) == pytest.approx(base, abs=1e-9)


def flat_box(x=0.0, z=10.0, width=2.0, length=2.0, yaw=0.0):
    return make_box(x=x, y=0.0, z=z, height=1.0, width=width, length=length, yaw=yaw)


@pytest.mark.parametrize("iou", [iou_bev, iou_3d], ids=["bev", "3d"])
class TestOverlapKernelClosedForms:
    """Equal heights and bottoms: the 3D IoU equals the BEV IoU."""

    def test_axis_aligned_containment(self, iou):
        assert iou(flat_box(width=1.0, length=1.0), flat_box()) == pytest.approx(
            0.25, abs=1e-12
        )

    def test_rotated_containment(self, iou):
        # a unit square (half-diagonal 0.71) turned inside a 4x4 square
        inner = flat_box(x=0.3, width=1.0, length=1.0, yaw=0.7)
        outer = flat_box(width=4.0, length=4.0, yaw=-0.2)
        assert iou(inner, outer) == pytest.approx(1.0 / 16.0, abs=1e-12)

    def test_shared_edge(self, iou):
        assert iou(flat_box(), flat_box(x=2.0)) == pytest.approx(0.0, abs=1e-12)
        # the same along a turned edge: offset by one width across the heading
        yaw = 0.6
        a = flat_box(x=1.0, z=12.0, yaw=yaw)
        b = flat_box(x=1.0 + 2.0 * math.cos(yaw), z=12.0 - 2.0 * math.sin(yaw), yaw=yaw)
        assert iou(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_corner_only_touch(self, iou):
        assert iou(flat_box(), flat_box(x=2.0, z=12.0)) == pytest.approx(0.0, abs=1e-12)

    def test_yaw_pi_and_minus_pi_are_one_box(self, iou):
        # the yaws differ in bits, so the polygon path scores this pair
        a = flat_box(x=1.0, width=1.6, length=3.9, yaw=math.pi)
        b = flat_box(x=1.0, width=1.6, length=3.9, yaw=-math.pi)
        assert iou(a, b) == pytest.approx(1.0, abs=1e-12)


def jittered_frames(rng, n_frames=6):
    """GT of two classes plus jittered detections and distractors per frame."""
    frames = []
    for f in range(n_frames):
        gts = []
        for i in range(int(rng.integers(3, 8))):
            box = random_box(rng, z_range=(8.0, 30.0))
            gts.append(make_label(class_name=("Car", "Pedestrian")[i % 2], box=box))
        dets = []
        for gt in gts:
            box = gt.box3d()
            for _ in range(int(rng.integers(1, 3))):
                yaw = box.yaw + float(rng.normal(0.0, 0.2))
                moved = make_box(
                    x=box.center.x + float(rng.normal(0.0, 0.3)),
                    y=box.center.y + float(rng.normal(0.0, 0.1)),
                    z=box.center.z + float(rng.normal(0.0, 0.3)),
                    height=box.height, width=box.width * float(rng.uniform(0.9, 1.1)),
                    length=box.length, yaw=(yaw + math.pi) % (2 * math.pi) - math.pi,
                )
                label = make_label(class_name=gt.class_name, box=moved)
                dets.append(with_score(label, float(rng.uniform(0.1, 1.0))))
        for i in range(3):
            label = make_label(class_name=("Car", "Pedestrian")[i % 2], box=random_box(rng))
            dets.append(with_score(label, float(rng.uniform(0.1, 1.0))))
        frames.append(detection_frame(gts, dets, frame_id=f"{f:06d}"))
    return frames


class TestIouMatrix:
    @pytest.mark.parametrize("kind", ["2d", "bev", "3d"])
    def test_matched_ious_equal_scalar_iou_bit_for_bit(self, kind):
        scalar = {
            "2d": iou_2d,
            "bev": lambda d, g: iou_bev(d.box3d(), g.box3d()),
            "3d": lambda d, g: iou_3d(d.box3d(), g.box3d()),
        }[kind]
        pairs = 0
        for frame in jittered_frames(np.random.default_rng(47)):
            result = match_frame(frame, kind, threshold=0.3, difficulty=DifficultyBin.HARD)
            for gt_j, det_i, iou in result.pairs:
                assert iou == scalar(frame.detections[det_i], frame.ground_truth[gt_j])
            pairs += len(result.pairs)
        assert pairs >= 10


# ---------------------------------------------------------------------------
# matching


class TestMatchFrame:
    def test_single_pair(self):
        gt = bbox_label(100, 100, 200, 200)
        det = with_score(bbox_label(105, 100, 200, 200), 0.9)
        result = match_frame(detection_frame([gt], [det]), iou_kind="2d", threshold=0.7)
        assert len(result.pairs) == 1
        assert result.pairs[0][:2] == (0, 0)
        assert result.pairs[0][2] >= 0.7
        assert result.unmatched_gt == ()
        assert result.unmatched_det == ()

    def test_second_detection_on_same_gt_is_false_positive(self):
        gt = bbox_label(100, 100, 200, 200)
        strong = with_score(bbox_label(100, 100, 200, 200), 0.9)
        weak = with_score(bbox_label(101, 100, 200, 200), 0.4)
        result = match_frame(
            detection_frame([gt], [strong, weak]), iou_kind="2d", threshold=0.7
        )
        assert result.pairs == ((0, 0, 1.0),)
        assert result.unmatched_det == (1,)

    def test_higher_score_wins_regardless_of_order(self):
        gt = bbox_label(100, 100, 200, 200)
        weak = with_score(bbox_label(101, 100, 200, 200), 0.4)
        strong = with_score(bbox_label(100, 100, 200, 200), 0.9)
        result = match_frame(
            detection_frame([gt], [weak, strong]), iou_kind="2d", threshold=0.7
        )
        assert result.pairs == ((0, 1, 1.0),)
        assert result.unmatched_det == (0,)

    def test_detection_inside_dontcare_is_ignored(self):
        dc = parse_label_file(DONTCARE_LINE)[0]
        det = with_score(bbox_label(150, 150, 250, 250), 0.8)
        gt_far = bbox_label(800, 100, 900, 200)
        result = match_frame(
            detection_frame([gt_far, dc], [det]), iou_kind="2d", threshold=0.7
        )
        assert result.pairs == ()
        assert result.ignored_det == (0,)
        assert result.unmatched_det == ()

    def test_class_must_match(self):
        gt = bbox_label(100, 100, 200, 200, class_name="Pedestrian")
        det = with_score(bbox_label(100, 100, 200, 200, class_name="Car"), 0.9)
        result = match_frame(detection_frame([gt], [det]), iou_kind="2d", threshold=0.5)
        assert result.pairs == ()
        assert result.unmatched_det == (0,)

    def test_out_of_bin_gt_absorbs_detection_as_ignored(self):
        # bbox height 20 px -> Ignored bin; its detection is neither TP nor FP
        tiny_gt = bbox_label(100, 100, 140, 120)
        det = with_score(bbox_label(100, 100, 140, 120), 0.8)
        easy_gt = bbox_label(600, 100, 700, 200)
        result = match_frame(
            detection_frame([tiny_gt, easy_gt], [det]),
            iou_kind="2d",
            threshold=0.7,
            difficulty=DifficultyBin.MODERATE,
        )
        assert result.pairs == ()
        assert result.ignored_det == (0,)
        assert result.unmatched_gt == (1,)

    def test_ignored_gt_stays_out_of_bin_at_ignored_difficulty(self):
        # the IGNORED bin is not a cumulative bin: its ground truth still
        # absorbs a detection as ignored and never counts as missed
        tiny_gt = bbox_label(100, 100, 140, 120)
        det = with_score(bbox_label(100, 100, 140, 120), 0.8)
        result = match_frame(
            detection_frame([tiny_gt], [det]),
            iou_kind="2d",
            threshold=0.7,
            difficulty=DifficultyBin.IGNORED,
        )
        assert result.pairs == ()
        assert result.ignored_det == (0,)
        assert result.unmatched_det == ()
        assert result.unmatched_gt == ()

    def test_each_gt_and_det_matched_at_most_once(self):
        rng = np.random.default_rng(107)
        gts, dets = [], []
        for i in range(8):
            left = 100.0 + 150.0 * i
            gts.append(bbox_label(left, 100, left + 100, 200))
            dets.append(
                with_score(bbox_label(left + 5, 100, left + 100, 200), float(rng.random()))
            )
        result = match_frame(detection_frame(gts, dets), iou_kind="2d", threshold=0.5)
        gt_seen = [g for g, _, _ in result.pairs]
        det_seen = [d for _, d, _ in result.pairs]
        assert len(set(gt_seen)) == len(gt_seen)
        assert len(set(det_seen)) == len(det_seen)
        for _, _, iou in result.pairs:
            assert iou >= 0.5

    def test_bev_and_3d_kinds(self):
        box = make_box(x=0.0, z=15.0)
        gt = make_label(box=box)
        det = with_score(make_label(box=box), 0.9)
        for kind in ("bev", "3d"):
            result = match_frame(detection_frame([gt], [det]), iou_kind=kind, threshold=0.7)
            assert len(result.pairs) == 1

    def test_rejects_unknown_kind_and_bad_threshold(self):
        frame = detection_frame([bbox_label(0, 0, 10, 10)], [])
        with pytest.raises(ValueError):
            match_frame(frame, iou_kind="volumetric")
        with pytest.raises(ValueError):
            match_frame(frame, threshold=0.0)

    def test_detections_require_scores(self):
        with pytest.raises(ValueError):
            detection_frame([], [bbox_label(0, 0, 10, 10)])


# ---------------------------------------------------------------------------
# AP40 / AOS


def perfect_frames(n_frames=3, boxes_per_frame=4):
    frames = []
    for f in range(n_frames):
        gts, dets = [], []
        for i in range(boxes_per_frame):
            left = 50.0 + 120.0 * i
            gt = bbox_label(left, 100, left + 90, 200)
            gts.append(gt)
            dets.append(with_score(gt, 0.3 + 0.1 * i))
        frames.append(detection_frame(gts, dets, frame_id=f"{f:06d}"))
    return frames


class TestAveragePrecision40:
    def test_perfect_detection_scores_100(self):
        ap, curve = average_precision_40(perfect_frames(), "Car")
        assert ap == 100.0
        assert all(p == 1.0 for p in curve.precisions)

    def test_zero_detections_scores_0(self):
        frames = [detection_frame([bbox_label(100, 100, 200, 200)], [])]
        ap, curve = average_precision_40(frames, "Car")
        assert ap == 0.0
        assert all(p == 0.0 for p in curve.precisions)

    def test_half_recall_scores_50(self):
        gt_a = bbox_label(100, 100, 200, 200)
        gt_b = bbox_label(400, 100, 500, 200)
        det = with_score(bbox_label(100, 100, 200, 200), 0.9)
        frames = [detection_frame([gt_a, gt_b], [det])]
        ap, _ = average_precision_40(frames, "Car")
        assert ap == 50.0

    def test_no_ground_truth_is_distinct_from_zero(self):
        frames = [detection_frame([bbox_label(100, 100, 200, 200)], [])]
        with pytest.raises(NoGroundTruth):
            average_precision_40(frames, "Cyclist")

    def test_empty_frames_rejected(self):
        with pytest.raises(ValueError):
            average_precision_40([], "Car")

    def test_interpolated_precision_is_non_increasing(self):
        rng = np.random.default_rng(109)
        frames = random_matching_frames(rng, n_frames=5)
        _, curve = average_precision_40(frames, "Car", threshold=0.5)
        precisions = list(curve.precisions)
        assert all(a >= b for a, b in zip(precisions, precisions[1:]))

    def test_adding_true_positive_never_lowers_ap(self):
        gt_a = bbox_label(100, 100, 200, 200)
        gt_b = bbox_label(400, 100, 500, 200)
        det_a = with_score(bbox_label(100, 100, 200, 200), 0.9)
        base_frames = [detection_frame([gt_a, gt_b], [det_a])]
        base_ap, _ = average_precision_40(base_frames, "Car")
        for score in (0.95, 0.5, 0.1):
            det_b = with_score(bbox_label(400, 100, 500, 200), score)
            new_frames = [detection_frame([gt_a, gt_b], [det_a, det_b])]
            new_ap, _ = average_precision_40(new_frames, "Car")
            assert new_ap >= base_ap - 1e-12

    def test_adding_false_positive_never_raises_ap(self):
        frames = perfect_frames(1, 3)
        base_ap, _ = average_precision_40(frames, "Car")
        for score in (0.95, 0.5, 0.05):
            fp = with_score(bbox_label(900, 100, 1000, 200), score)
            noisy = [
                detection_frame(
                    list(frames[0].ground_truth),
                    list(frames[0].detections) + [fp],
                )
            ]
            new_ap, _ = average_precision_40(noisy, "Car")
            assert new_ap <= base_ap + 1e-12


def random_matching_frames(rng, n_frames=3, max_objects=8):
    """Frames with IoU-1-or-0 structure: dets either copy a gt box or miss."""
    frames = []
    for f in range(n_frames):
        n_gt = int(rng.integers(1, max_objects))
        gts = []
        for i in range(n_gt):
            left = 50.0 + 130.0 * i
            gts.append(
                bbox_label(left, 100, left + 90, 200, alpha=float(rng.uniform(-3, 3)))
            )
        dets = []
        n_det = int(rng.integers(0, max_objects))
        for _ in range(n_det):
            score = float(rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]))  # force tie groups
            alpha = float(rng.uniform(-3, 3))
            if rng.random() < 0.7:
                target = gts[int(rng.integers(0, n_gt))]
                dets.append(
                    with_score(
                        dataclasses.replace(target, alpha=alpha), score
                    )
                )
            else:
                left = 2000.0 + 200.0 * len(dets)
                dets.append(
                    with_score(bbox_label(left, 100, left + 90, 200, alpha=alpha), score)
                )
        frames.append(detection_frame(gts, dets, frame_id=f"{f:06d}"))
    return frames


def independent_records(frames):
    """Claim-tracking oracle for the IoU-1-or-0 frames built above."""
    records = []
    total_gt = 0
    for frame in frames:
        total_gt += len(frame.ground_truth)
        bbox_of = lambda lab: (lab.bbox_left, lab.bbox_top, lab.bbox_right, lab.bbox_bottom)
        gt_by_bbox = {bbox_of(g): (i, g) for i, g in enumerate(frame.ground_truth)}
        claimed = set()
        order = sorted(
            range(len(frame.detections)),
            key=lambda i: (-frame.detections[i].score, i),
        )
        for di in order:
            det = frame.detections[di]
            hit = gt_by_bbox.get(bbox_of(det))
            if hit is not None and hit[0] not in claimed:
                claimed.add(hit[0])
                sim = (1.0 + math.cos(det.alpha - hit[1].alpha)) / 2.0
                records.append((det.score, True, sim))
            else:
                records.append((det.score, False, 0.0))
    return records, total_gt


class TestSweepAgainstBruteForce:
    def test_ap_matches_exhaustive_thresholding(self):
        rng = np.random.default_rng(113)
        for _ in range(60):
            frames = random_matching_frames(rng)
            records, total_gt = independent_records(frames)
            expected = brute_force_ap40(records, total_gt)
            ap, _ = average_precision_40(frames, "Car", threshold=0.7)
            assert ap == pytest.approx(expected, abs=1e-12)

    def test_aos_matches_exhaustive_thresholding(self):
        rng = np.random.default_rng(127)
        for _ in range(60):
            frames = random_matching_frames(rng)
            records, total_gt = independent_records(frames)
            expected = brute_force_ap40(records, total_gt, use_similarity=True)
            aos, _ = average_orientation_similarity(frames, "Car", threshold=0.7)
            assert aos == pytest.approx(expected, abs=1e-12)


class TestAverageOrientationSimilarity:
    def test_exact_orientations_equal_ap(self):
        frames = perfect_frames()
        ap, _ = average_precision_40(frames, "Car")
        aos, _ = average_orientation_similarity(frames, "Car")
        assert aos == ap

    def test_opposite_orientations_score_zero(self):
        gt = bbox_label(100, 100, 200, 200, alpha=0.0)
        det = with_score(bbox_label(100, 100, 200, 200, alpha=math.pi), 0.9)
        frames = [detection_frame([gt], [det])]
        aos, _ = average_orientation_similarity(frames, "Car")
        assert aos == pytest.approx(0.0, abs=1e-12)

    def test_half_perpendicular_single_regime(self):
        # two TPs with equal scores (one tie group): one exact (s=1), one off
        # by pi/2 (s=0.5) -> every recall point has value 0.75
        gt_a = bbox_label(100, 100, 200, 200, alpha=0.0)
        gt_b = bbox_label(400, 100, 500, 200, alpha=0.0)
        det_a = with_score(bbox_label(100, 100, 200, 200, alpha=0.0), 0.5)
        det_b = with_score(bbox_label(400, 100, 500, 200, alpha=math.pi / 2), 0.5)
        frames = [detection_frame([gt_a, gt_b], [det_a, det_b])]
        ap, _ = average_precision_40(frames, "Car")
        aos, _ = average_orientation_similarity(frames, "Car")
        assert ap == 100.0
        assert aos == pytest.approx(0.75 * ap, abs=1e-12)

    def test_never_exceeds_ap2d(self):
        rng = np.random.default_rng(131)
        for _ in range(40):
            frames = random_matching_frames(rng)
            try:
                ap, _ = average_precision_40(frames, "Car", threshold=0.7)
                aos, _ = average_orientation_similarity(frames, "Car", threshold=0.7)
            except NoGroundTruth:
                continue
            assert aos <= ap + 1e-12


# ---------------------------------------------------------------------------
# nuScenes-style errors


class TestNuScenesErrors:
    def test_identical_boxes(self):
        box = make_box(x=2.0, z=20.0, yaw=0.4)
        gt = make_label(box=box)
        det = with_score(make_label(box=box), 0.9)
        errors = nuscenes_errors([detection_frame([gt], [det])], "Car")
        assert (errors.ate, errors.ase, errors.aoe) == (0.0, 0.0, 0.0)
        assert errors.matches == 1

    def test_one_meter_shift(self):
        box = make_box(x=2.0, z=20.0, yaw=0.4)
        shifted = dataclasses.replace(
            box, center=dataclasses.replace(box.center, x=box.center.x + 1.0)
        )
        gt = make_label(box=box)
        det = with_score(make_label(box=shifted, bbox=(100, 100, 200, 200)), 0.9)
        errors = nuscenes_errors([detection_frame([gt], [det])], "Car")
        assert errors.ate == pytest.approx(1.0, abs=1e-12)
        assert errors.ase == pytest.approx(0.0, abs=1e-12)
        assert errors.aoe == pytest.approx(0.0, abs=1e-12)

    def test_scale_error_from_dimension_ratio(self):
        big = make_box(x=0.0, z=20.0, height=2.0, width=2.0, length=2.0, yaw=0.0)
        small = dataclasses.replace(big, height=1.0, width=1.0, length=1.0)
        gt = make_label(box=big)
        det = with_score(make_label(box=small, bbox=(100, 100, 200, 200)), 0.9)
        errors = nuscenes_errors([detection_frame([gt], [det])], "Car")
        assert errors.ase == pytest.approx(0.875, abs=1e-12)

    def test_orientation_error_wraps_to_half_circle(self):
        box = make_box(x=0.0, z=20.0, yaw=-3.0)
        turned = dataclasses.replace(box, yaw=3.0)
        gt = make_label(box=box)
        det = with_score(make_label(box=turned, bbox=(100, 100, 200, 200)), 0.9)
        errors = nuscenes_errors([detection_frame([gt], [det])], "Car")
        # raw difference 6.0 rad wraps to 2*pi - 6.0
        assert errors.aoe == pytest.approx(2 * math.pi - 6.0, abs=1e-12)

    def test_no_matches_raised(self):
        gt = make_label(box=make_box(x=0.0, z=20.0))
        det = with_score(make_label(box=make_box(x=10.0, z=20.0)), 0.9)
        with pytest.raises(NoMatches):
            nuscenes_errors([detection_frame([gt], [det])], "Car")

    def test_radius_limits_matching(self):
        gt = make_label(box=make_box(x=0.0, z=20.0))
        det = with_score(make_label(box=make_box(x=1.5, z=20.0)), 0.9)
        frames = [detection_frame([gt], [det])]
        errors = nuscenes_errors(frames, "Car", match_radius=2.0)
        assert errors.matches == 1
        with pytest.raises(NoMatches):
            nuscenes_errors(frames, "Car", match_radius=1.0)

    def test_greedy_prefers_nearest_gt(self):
        near = make_label(box=make_box(x=0.0, z=20.0))
        far = make_label(box=make_box(x=1.0, z=20.0))
        det = with_score(make_label(box=make_box(x=0.2, z=20.0)), 0.9)
        errors = nuscenes_errors([detection_frame([near, far], [det])], "Car")
        assert errors.matches == 1
        assert errors.ate == pytest.approx(0.2, abs=1e-12)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            nuscenes_errors([], "Car", match_radius=0.0)

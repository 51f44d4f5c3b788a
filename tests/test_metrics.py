"""Rotated-box IoU, greedy matching, AP40/AOS sweeps, center-distance errors."""

import dataclasses
import math
import tracemalloc
import warnings
from collections import Counter

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
from camperturb import metrics
from camperturb.geometry import _box_row
from camperturb.kitti import difficulty_of
from camperturb.metrics import class_sweep, match_pass

from helpers import detection_frame, make_box, make_label, with_score
from oracles import (
    _GRID, _greedy, bin_cloud, brute_force_ap40, exact_iou_bev, mc_counts, mc_iou_bev,
    sequential_sweep,
)

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


class TestGridMonteCarloOracle:
    """The grid-indexed Monte-Carlo count against the direct one: counting whole
    cells must not change a single point's verdict."""

    @pytest.fixture(scope="class")
    def clouds(self):
        rng = np.random.default_rng(61)
        cloud = rng.random((200_000, 2), dtype=np.float32)
        # points on every cell edge and one float32 step below it
        edges = np.arange(_GRID, dtype=np.float32) / _GRID
        below = np.nextafter(edges[1:], np.float32(0))
        lines = np.concatenate([edges, below])
        other = rng.random(lines.size, dtype=np.float32)
        extra = np.concatenate([np.stack([lines, other], 1), np.stack([other, lines], 1)])
        cloud = np.concatenate([cloud, extra])
        return cloud, bin_cloud(cloud)

    def check(self, clouds, a, b):
        cloud, binned = clouds
        assert mc_counts(a, b, binned) == mc_counts(a, b, cloud)

    def test_random_pairs(self, clouds):
        rng = np.random.default_rng(62)
        for _ in range(60):
            a = random_box(rng)
            b = dataclasses.replace(random_box(rng), center=dataclasses.replace(
                a.center,
                x=a.center.x + float(rng.uniform(-2, 2)),
                z=a.center.z + float(rng.uniform(-2, 2)),
            ))
            self.check(clouds, a, b)

    def test_nested_identical_and_far_apart(self, clouds):
        a = make_box(x=1.0, z=12.0, width=2.0, length=4.0, yaw=0.4)
        self.check(clouds, a, a)
        self.check(clouds, a, dataclasses.replace(a, width=0.5, length=1.0))
        self.check(clouds, a, make_box(x=9.0, z=30.0, yaw=-1.0))

    @pytest.mark.parametrize("nudge", [0.0, 1e-9, -1e-9, 1e-6, -1e-6, 1e-4, -1e-4])
    def test_corners_on_cell_edges(self, clouds, nudge):
        """A yaw-0 box spans the union's bounding box; a second, rotated box
        inside it has a corner on (or ``nudge`` m off) a cell corner."""
        outer = make_box(x=0.5, z=20.0, width=6.4, length=8.0, yaw=0.0)
        x0, z0 = 0.5 - 3.2, 20.0 - 4.0
        rng = np.random.default_rng(63)
        for _ in range(12):
            yaw = float(rng.uniform(-math.pi, math.pi))
            hl, hw = 0.8, 0.5
            c, s = math.cos(yaw), math.sin(yaw)
            i, j = (int(k) for k in rng.integers(90, 166, size=2))
            corner_x = x0 + i * 6.4 / _GRID + nudge
            corner_z = z0 + j * 8.0 / _GRID - nudge
            inner = make_box(
                x=corner_x - (hl * s + hw * c), z=corner_z - (hl * c - hw * s),
                width=2 * hw, length=2 * hl, yaw=yaw,
            )
            self.check(clouds, outer, inner)
            self.check(clouds, inner, outer)

    def test_axis_aligned_edges_on_cell_lines(self, clouds):
        outer = make_box(x=0.0, z=20.0, width=5.12, length=5.12, yaw=0.0)
        for cells in (1, 7, 64, 128):
            side = cells * 5.12 / _GRID
            self.check(clouds, outer, make_box(x=-2.56 + side / 2, z=17.44 + side / 2,
                                               width=side, length=side, yaw=0.0))

    def test_far_from_the_origin_every_cell_is_tested(self, clouds):
        a = make_box(x=400.0, z=300.0, width=2.0, length=4.0, yaw=0.7)
        self.check(clouds, a, dataclasses.replace(a, yaw=-0.2))


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


class TestGroupedKernel:
    """One ``_pair_ious`` call over many pairs, for an IoU group, gives each pair
    the bits of the one-pair wrappers."""

    @staticmethod
    def _boxes(rng, n):
        """Boxes packed close enough that many bounding circles overlap."""
        return [
            make_box(
                x=float(rng.uniform(-4.0, 4.0)), y=float(rng.uniform(-1.0, 3.0)),
                z=float(rng.uniform(10.0, 18.0)), height=float(rng.uniform(0.8, 3.0)),
                width=float(rng.uniform(0.8, 3.0)), length=float(rng.uniform(0.8, 6.0)),
                yaw=float(rng.uniform(-math.pi, math.pi)),
            )
            for _ in range(n)
        ]

    @pytest.mark.parametrize("near_pairs", [7, metrics._NEAR_PAIRS])
    def test_grouped_and_batched_equal_one_pair_at_a_time(self, monkeypatch, near_pairs):
        monkeypatch.setattr(metrics, "_NEAR_PAIRS", near_pairs)
        rng = np.random.default_rng(61)
        a, b = self._boxes(rng, 24), self._boxes(rng, 24)
        # bit-equal footprints (other heights), and 3 x 4 boxes (bounding radius 2.5)
        # whose circles overlap by one ulp, just touch and just miss
        a.append(make_box(x=1.0, z=12.0, yaw=0.3))
        b.append(make_box(x=1.0, y=0.5, z=12.0, height=2.0, yaw=0.3))
        for x in (np.nextafter(5.0, 0.0), 5.0, np.nextafter(5.0, 10.0)):
            a.append(make_box(x=0.0, z=30.0, width=3.0, length=4.0, yaw=math.atan2(3.0, 4.0)))
            b.append(make_box(x=float(x), z=30.0, width=3.0, length=4.0, yaw=0.5))
        rows_a = np.concatenate([_box_row(box) for box in a])
        rows_b = np.concatenate([_box_row(box) for box in b])
        ia, ib = np.divmod(np.arange(len(a) * len(b)), len(b))  # every a-box with every b-box
        bev, iou3d = metrics._pair_ious(("bev", "3d"), rows_a, rows_b, ia, ib)
        for k, (i, j) in enumerate(zip(ia.tolist(), ib.tolist())):
            assert bev[k] == iou_bev(a[i], b[j])
            assert iou3d[k] == iou_3d(a[i], b[j])
        (alone,) = metrics._pair_ious(("3d",), rows_a, rows_b, ia, ib)
        assert np.array_equal(alone, iou3d)
        same = 24 * len(b) + 24
        assert bev[same] == 1.0 and 0.0 < iou3d[same] < 1.0
        touching = np.arange(25, 28) * len(b) + np.arange(25, 28)
        assert bev[touching].tolist() == [0.0, 0.0, 0.0]
        assert 0 < np.count_nonzero(bev) < len(bev)

    def test_batched_2d_equals_one_pair_at_a_time(self):
        rng = np.random.default_rng(62)
        labels = [make_label(box=box) for box in self._boxes(rng, 30)]
        rows = metrics._table_of(labels).values[:, metrics._BBOX_COLUMNS]
        ia, ib = np.divmod(np.arange(len(labels) ** 2), len(labels))
        (ious,) = metrics._pair_ious(("2d",), rows, rows, ia, ib)
        for k, (i, j) in enumerate(zip(ia.tolist(), ib.tolist())):
            assert ious[k] == iou_2d(labels[i], labels[j])
        assert 0 < np.count_nonzero(ious) < len(ious)

    def test_degenerate_box_fails_only_with_a_same_class_partner(self):
        flat = make_label("Pedestrian", make_box(width=1e-7, length=1e-7), score=0.5)
        car = make_label("Car", make_box())
        found = with_score(make_label("Car", make_box(x=0.2)), 0.9)
        lone = detection_frame([car], [found, flat], frame_id="000004")
        walker = make_label("Pedestrian", make_box(x=6.0))
        paired = detection_frame([car, walker], [found, flat], frame_id="000005")
        assert match_pass([lone], "bev", 0.5)[DifficultyBin.MODERATE][1] == {"Car": 1}
        assert match_pass([lone, paired], "2d", 0.5)
        with pytest.raises(DegenerateBox, match="^frame 000005: BEV footprint has"):
            match_pass([lone, paired, paired], "3d", 0.5)


    def test_measures_that_overflow_fail_only_with_a_partner(self):
        """A box whose area or volume reaches half the float range is refused,
        naming its frame, once it is compared; no overflow warning is raised
        (warnings fail the tests), and an uncompared one is scored around."""
        huge = make_label("Car", make_box(height=1e200, width=1e100, length=1e100),
                          bbox=(0.0, 0.0, 1e200, 1e200))
        car = make_label("Car", make_box())
        lone = detection_frame([car], [with_score(huge, 0.9)], frame_id="000001")
        walker = make_label("Pedestrian", make_box(x=6.0), bbox=(0.0, 0.0, 1e200, 1e200))
        unpaired = detection_frame([walker], [with_score(car, 0.9)], frame_id="000002")
        for kind in ("2d", "3d"):
            assert match_pass([unpaired], kind, 0.5)[DifficultyBin.MODERATE][1] == {
                "Pedestrian": 1
            }
        for kind, reason in (("2d", "2D box area"), ("bev", None), ("3d", "box volume")):
            if reason is None:
                assert match_pass([lone], kind, 0.5)[DifficultyBin.MODERATE][1] == {"Car": 1}
                continue
            with pytest.raises(DegenerateBox, match=f"^frame 000001: {reason} reaches half"):
                match_pass([unpaired, lone], kind, 0.5)
        with pytest.raises(DegenerateBox, match="^frame 000001: box volume reaches half"):
            nuscenes_errors([unpaired, lone], "Car", match_radius=30.0)

    def test_dontcare_cover_refuses_an_overflowing_2d_area(self):
        region = make_label("DontCare", make_box(), bbox=(0.0, 0.0, 50.0, 50.0))
        det = with_score(make_label("Car", make_box(), bbox=(0.0, 0.0, 1e200, 1e200)), 0.9)
        frame = detection_frame([region], [det], frame_id="000007")
        with pytest.raises(DegenerateBox, match="^frame 000007: 2D box area reaches half"):
            match_pass([frame], "3d", 0.5)

    def test_zero_volume_is_refused_for_3d_and_nuscenes(self):
        tiny = make_label("Car", make_box(height=1e-320, width=1e-5, length=1e-5),
                          bbox=(100.0, 100.0, 200.0, 200.0))
        frame = detection_frame([tiny], [with_score(tiny, 0.9)], frame_id="000009")
        assert match_pass([frame], "bev", 0.5)[DifficultyBin.MODERATE][1] == {"Car": 1}
        for run in (lambda: match_pass([frame], "3d", 0.5),
                    lambda: nuscenes_errors([frame], "Car")):
            with pytest.raises(DegenerateBox, match="^frame 000009: box has zero volume$"):
                run()


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


class TestDevkitDepartures:
    """Hand-built 2D frames on which camperturb's matching and the KITTI devkit's
    ``computeStatistics`` (``evaluate_object.cpp``) disagree.  Each test pins
    camperturb's outcome; its docstring argues the devkit's."""

    def test_overlap_equal_to_the_threshold_is_a_true_positive(self):
        """gt [0, 0, 100, 100] and a Car detection [0, 0, 100, 70] overlap in
        100 x 70 = 7000 px of a 10000 px union, an IoU of exactly 0.7.

        Devkit: a detection is a candidate for a gt only when
        ``overlap > MIN_OVERLAP``, strictly.  0.7 > 0.7 is false, so the gt
        finds no candidate: one false negative, and the unassigned detection
        is one false positive.  camperturb takes ``>=``: one true positive.
        """
        gt = bbox_label(0, 0, 100, 100)
        det = with_score(bbox_label(0, 0, 100, 70), 0.9)
        assert iou_2d(gt, det) == 0.7
        result = match_frame(detection_frame([gt], [det]), iou_kind="2d", threshold=0.7)
        assert result.pairs == ((0, 0, 0.7),)
        assert result.unmatched_gt == ()
        assert result.unmatched_det == ()

    def test_detections_are_visited_in_score_order_not_gt_order(self):
        """gt1 [0, 0, 100, 100], gt2 [10, 0, 110, 100]; detection A [8, 0, 108, 100]
        at score 0.9 overlaps them 0.852 and 0.961, detection B [0, 0, 80, 100]
        at score 0.8 overlaps them 0.800 and 0.636.  Threshold 0.7.

        Devkit: its pass is GT-major.  The outer loop visits gt1 first, and gt1
        takes its highest-overlap unassigned detection above 0.7: A (0.852
        beats B's 0.800).  Then gt2 looks for an unassigned detection above
        0.7: only B is left, at 0.636, so gt2 is missed.  B stays unassigned,
        a false positive.  Outcome: one TP, one FP, one FN.

        camperturb: detections claim gts in score order.  A claims its best gt,
        gt2 (0.961); B then claims gt1 (0.800).  Outcome: two TPs.
        """
        gt1, gt2 = bbox_label(0, 0, 100, 100), bbox_label(10, 0, 110, 100)
        det_a = with_score(bbox_label(8, 0, 108, 100), 0.9)
        det_b = with_score(bbox_label(0, 0, 80, 100), 0.8)
        ious = [[iou_2d(gt, det) for gt in (gt1, gt2)] for det in (det_a, det_b)]
        assert ious == [
            [pytest.approx(0.852, abs=5e-4), pytest.approx(0.961, abs=5e-4)],
            [pytest.approx(0.800, abs=5e-4), pytest.approx(0.636, abs=5e-4)],
        ]
        result = match_frame(
            detection_frame([gt1, gt2], [det_a, det_b]), iou_kind="2d", threshold=0.7
        )
        assert [(g, d) for g, d, _ in result.pairs] == [(1, 0), (0, 1)]
        assert result.unmatched_gt == ()
        assert result.unmatched_det == ()


# ---------------------------------------------------------------------------
# the rank kernel against the scalar greedy matcher


def random_groups(rng, n_groups, grid, in_bin_share, covered_share):
    """``(rows, in_bin, covered)`` of each of ``n_groups`` groups: each
    detection's (column, value) candidates in column order, values drawn from
    ``grid`` so that many tie exactly and some equal the threshold.  Groups
    have 0-8 detections and 0-4 columns, so some are empty and many have more
    detections than columns."""
    groups = []
    for _ in range(n_groups):
        n_det, n_col = int(rng.integers(0, 9)), int(rng.integers(0, 5))
        rows = [[(j, float(rng.choice(grid))) for j in range(n_col) if rng.random() < 0.8]
                for _ in range(n_det)]
        in_bin = (rng.random(n_col) < in_bin_share).tolist()
        groups.append((rows, in_bin, (rng.random(n_det) < covered_share).tolist()))
    return groups


def kernel_outcomes(rng, specs):
    """``(pairs, ignored, false_pos)`` of each group of each ``(groups, threshold)``
    spec, as the matcher derives them from one ``metrics._greedy_by_rank`` call over all
    specs: the candidates are the in-bin values at or above ``threshold``, and a
    detection that claims none is ignored if it has such a value out of the bin
    or is covered.  The rows of a spec's groups are interleaved at random, each
    group's in visit order."""
    segments, rows_of = [], []
    for groups, threshold in specs:
        group = rng.permutation(np.repeat(np.arange(len(groups)), [len(g[0]) for g in groups]))
        rows_of.append([np.flatnonzero(group == g).tolist() for g in range(len(groups))])
        cands = [(rows_of[-1][g][i], j, value)
                 for g, (rows, in_bin, _) in enumerate(groups)
                 for i, row in enumerate(rows) for j, value in row
                 if value >= threshold and in_bin[j]]
        row, column, value = (np.array(c, dtype=t).reshape(-1) for c, t in zip(
            zip(*cands) if cands else ((), (), ()), (np.intp, np.intp, float)))
        segments.append((group, row, column, value))
    results = []
    claims_by_spec = metrics._greedy_by_rank(segments)
    for (groups, threshold), rows, claims in zip(specs, rows_of, claims_by_spec):
        outcomes = []
        for (cand_rows, in_bin, covered), group_rows in zip(groups, rows):
            pairs, ignored, false_pos = [], [], []
            for i, r in enumerate(group_rows):
                j = int(claims[r])
                if j >= 0:
                    pairs.append((j, i, dict(cand_rows[i])[j]))
                elif covered[i] or any(v >= threshold and not in_bin[j] for j, v in cand_rows[i]):
                    ignored.append(i)
                else:
                    false_pos.append(i)
            outcomes.append((pairs, ignored, false_pos))
        results.append(outcomes)
    return results


class TestGreedyByRank:
    def test_equals_the_scalar_matcher_in_iou_and_center_distance_mode(self):
        """Both modes, interleaved, in one kernel call per chunk: IoU values on a
        grid with the threshold 0.5 on it, out-of-bin columns and covered
        detections; negated center distances with the radius 2 on the grid."""
        rng = np.random.default_rng(71)
        seen = Counter()
        for _ in range(25):
            specs = [
                (random_groups(rng, 40, [0.3, 0.5, 0.5, 0.6, 0.7, 0.7, 1.0], 0.7, 0.2), 0.5),
                (random_groups(rng, 40, [-2.5, -2.0, -2.0, -1.0, -0.5, -0.5], 1.0, 0.0), -2.0),
            ]
            for (groups, threshold), got in zip(specs, kernel_outcomes(rng, specs)):
                expected = [_greedy(range(len(rows)), rows, threshold, in_bin, covered)
                            for rows, in_bin, covered in groups]
                assert got == expected
                for (rows, in_bin, covered), (pairs, ignored, _) in zip(groups, expected):
                    seen["empty"] += not rows or not in_bin
                    seen["more detections than columns"] += len(rows) > len(in_bin) > 0
                    seen["claimed at the threshold"] += any(v == threshold for _, _, v in pairs)
                    seen["tie"] += any(len({v for _, v in row}) < len(row) for row in rows)
                    seen["out of bin"] += any(not covered[i] for i in ignored)
                    seen["covered"] += any(covered[i] for i in ignored)
        assert len(seen) == 6 and min(seen.values()) >= 10, seen

    def test_exact_ties_go_to_the_lowest_column(self):
        groups = [([[(0, 0.7), (1, 0.7), (2, 0.7)], [(1, 0.7), (2, 0.7)], [(1, 0.7)]],
                   [True] * 3, [False] * 3)]
        ((outcome,),) = kernel_outcomes(np.random.default_rng(0), [(groups, 0.5)])
        assert outcome == ([(0, 0, 0.7), (1, 1, 0.7)], [], [2])

    def test_the_table_is_as_wide_as_the_most_columns_a_group_offers(self):
        """One detection on the 20,000th ground truth of its group, beside 1000
        one-column groups: the matching table stays narrow, where one column per
        index would take 160 MB."""
        column = np.append(np.zeros(1000, dtype=np.intp), 20_000)
        tracemalloc.start()
        try:
            (claims,) = metrics._greedy_by_rank(
                [(np.arange(1001), np.arange(1001), column, np.full(1001, 0.9))]
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert claims.tolist() == column.tolist()
        assert peak < 4 * 2**20

    def test_a_chunk_without_candidates_claims_nothing(self):
        (claims,) = metrics._greedy_by_rank([(np.arange(3), *(np.zeros(0, dtype=np.intp),) * 2,
                                      np.zeros(0))])
        assert claims.tolist() == [-1, -1, -1]


def labelled_frames(rng, n_frames=8):
    """:func:`jittered_frames` with some ground truth occluded or truncated (so the
    bins differ) and a DontCare region over one detection's 2D box per frame."""
    frames = []
    for frame in jittered_frames(rng, n_frames):
        gts = [dataclasses.replace(g, occluded=int(rng.integers(0, 3)),
                                   truncated=float(rng.choice([0.0, 0.2, 0.6])))
               for g in frame.ground_truth]
        det = frame.detections[int(rng.integers(len(frame.detections)))]
        box = (det.bbox_left - 5.0, det.bbox_top - 5.0, det.bbox_right + 5.0, det.bbox_bottom)
        gts.append(make_label("DontCare", make_box(), bbox=box))
        frames.append(detection_frame(gts, frame.detections, frame_id=frame.frame_id))
    return frames


def scalar_match(frame, kind, threshold, difficulty):
    """The :class:`MatchResult` fields of ``frame`` by the scalar matcher, with
    IoUs of the one-pair functions."""
    iou = {"2d": iou_2d, "bev": lambda d, g: iou_bev(d.box3d(), g.box3d()),
           "3d": lambda d, g: iou_3d(d.box3d(), g.box3d())}[kind]
    gts, dets = frame.ground_truth, frame.detections

    def cover(det, region):
        w = min(det.bbox_right, region.bbox_right) - max(det.bbox_left, region.bbox_left)
        h = min(det.bbox_bottom, region.bbox_bottom) - max(det.bbox_top, region.bbox_top)
        area = (det.bbox_right - det.bbox_left) * (det.bbox_bottom - det.bbox_top)
        return w * h / area if w > 0 and h > 0 else 0.0

    order = sorted((i for i, d in enumerate(dets) if d.class_name != "DontCare"),
                   key=lambda i: (-dets[i].score, i))
    rows = [[(j, iou(dets[i], g)) for j, g in enumerate(gts) if g.class_name == dets[i].class_name]
            for i in order]
    in_bin = [difficulty_of(g) <= min(difficulty, DifficultyBin.HARD) for g in gts]
    covered = [any(cover(d, g) > threshold for g in gts if g.class_name == "DontCare")
               for d in dets]
    pairs, ignored, false_pos = _greedy(order, rows, threshold, in_bin, covered)
    claimed = {j for j, _, _ in pairs}
    unmatched_gt = tuple(j for j, b in enumerate(in_bin) if b and j not in claimed)
    return tuple(pairs), unmatched_gt, tuple(sorted(false_pos)), tuple(sorted(ignored))


class TestMatchFrameAgainstTheScalarMatcher:
    @pytest.mark.parametrize("kind", ["2d", "bev", "3d"])
    def test_random_frames_with_dontcare_regions_and_bins(self, kind):
        seen = Counter()
        for frame in labelled_frames(np.random.default_rng(73)):
            for difficulty in (DifficultyBin.EASY, DifficultyBin.MODERATE, DifficultyBin.HARD):
                result = match_frame(frame, kind, 0.5, difficulty)
                got = (result.pairs, result.unmatched_gt, result.unmatched_det,
                       result.ignored_det)
                assert got == scalar_match(frame, kind, 0.5, difficulty)
                seen.update(pairs=len(result.pairs), ignored=len(result.ignored_det),
                            false_pos=len(result.unmatched_det))
        assert min(seen.values()) >= 5, seen

    def test_nuscenes_errors_equal_the_scalar_matcher(self):
        """Random frames, no distance tie within an ulp: the means are bit-equal."""
        frames = labelled_frames(np.random.default_rng(79))
        for class_name in ("Car", "Pedestrian"):
            rows = []
            for frame in frames:
                gts = [g.box3d() for g in frame.ground_truth if g.class_name == class_name]
                dets = [d.box3d() for d in sorted(
                    (d for d in frame.detections if d.class_name == class_name),
                    key=lambda d: -d.score)]
                cands = [[(j, -math.hypot(d.center.x - g.center.x, d.center.z - g.center.z))
                          for j, g in enumerate(gts)] for d in dets]
                pairs, _, _ = _greedy(range(len(dets)), cands, -1.0, [True] * len(gts),
                                      [False] * len(dets))
                for j, i, value in pairs:
                    d, g = dets[i], gts[j]
                    inter = (min(d.height, g.height) * min(d.width, g.width)
                             * min(d.length, g.length))
                    vol_d, vol_g = d.height * d.width * d.length, g.height * g.width * g.length
                    yaw = (d.yaw - g.yaw + math.pi) % (2.0 * math.pi) - math.pi
                    rows.append((-value, 1.0 - inter / (vol_d + vol_g - inter), abs(yaw)))
            expected = metrics.NuScenesErrors(
                *(sum(col) / len(rows) for col in zip(*rows)), matches=len(rows)
            )
            assert len(rows) >= 10
            assert nuscenes_errors(frames, class_name, match_radius=1.0) == expected

    def test_center_matching_decides_on_numpy_hypot(self):
        """A pair whose ``np.hypot`` distance is one ulp below its ``math.hypot``
        one, with the radius at the former: the kernel matches it (a scalar matcher
        on ``math.hypot`` would not) and reports the ``math.hypot`` ATE."""
        rng = np.random.default_rng(83)
        # z - 16 is exact for z in [8, 32], so the distance is hypot(x, z - 16) exactly
        for x, z in zip(rng.uniform(0.1, 1.5, 20_000).tolist(),
                        rng.uniform(16.1, 17.5, 20_000).tolist()):
            if np.hypot(x, z - 16.0) < math.hypot(x, z - 16.0):
                break
        else:
            pytest.fail("no pair with np.hypot below math.hypot")
        gt = make_label(box=make_box(x=0.0, z=16.0))
        det = with_score(make_label(box=make_box(x=x, z=z)), 0.9)
        radius = float(np.hypot(x, z - 16.0))
        errors = nuscenes_errors([detection_frame([gt], [det])], "Car", match_radius=radius)
        assert math.hypot(x, z - 16.0) > radius
        assert errors.matches == 1 and errors.ate == math.hypot(x, z - 16.0)


class TestMatchPass:
    @pytest.mark.parametrize("kind", ["2d", "bev", "3d"])
    def test_all_difficulties_at_once_equal_match_frame_per_difficulty(self, kind):
        frames = jittered_frames(np.random.default_rng(53))
        bins = (DifficultyBin.EASY, DifficultyBin.MODERATE, DifficultyBin.HARD)
        passes = match_pass(frames, kind, 0.5, bins)
        assert list(passes) == list(bins)
        for difficulty in bins:
            records, num_gt = {}, Counter()
            for frame in frames:
                result = match_frame(frame, kind, 0.5, difficulty)
                gt, dets = frame.ground_truth, frame.detections
                num_gt.update(gt[j].class_name for j, _, _ in result.pairs)
                num_gt.update(gt[j].class_name for j in result.unmatched_gt)
                for j, i, _ in result.pairs:
                    sim = (1.0 + math.cos(dets[i].alpha - gt[j].alpha)) / 2.0
                    records.setdefault(dets[i].class_name, []).append((dets[i].score, 1, sim))
                for i in result.unmatched_det:
                    records.setdefault(dets[i].class_name, []).append((dets[i].score, 0, 0.0))
            got_records, got_num_gt = passes[difficulty]
            assert got_num_gt == num_gt
            triples = {c: list(map(tuple, np.concatenate(blocks).tolist()))
                       for c, blocks in got_records.items()}
            assert triples == records
        # the bins differ on these frames, so each difficulty was matched on its own
        assert passes[DifficultyBin.EASY][1] != passes[DifficultyBin.HARD][1]


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


class TestSweepOnArrays:
    def test_tied_scores_equal_exhaustive_thresholding(self):
        """Records on a coarse score grid, in one to three blocks, with and
        without similarity; a class with ground truth and no records scores 0.
        A left-to-right sweep gives the same bits, at every record count."""
        rng = np.random.default_rng(131)
        for _ in range(150):
            n = int(rng.integers(0, 300))
            scores = (rng.integers(1, 8, n) / 8).tolist()
            is_tp = (rng.random(n) < 0.6).tolist()
            sims = [float(rng.random()) if tp else 0.0 for tp in is_tp]
            records = list(zip(scores, is_tp, sims))
            total_gt = sum(is_tp) + int(rng.integers(0 if any(is_tp) else 1, 5))
            rows = np.array(records, dtype=float).reshape(-1, 3)
            cuts = np.sort(rng.integers(0, n + 1, int(rng.integers(0, 3))))
            by_class = {"Car": [block for block in np.split(rows, cuts) if len(block)]}
            num_gt = {"Car": total_gt, "Van": 3}
            for use_similarity in (False, True):
                ap, curve = class_sweep(by_class, num_gt, "Car", DifficultyBin.MODERATE,
                                        use_similarity)
                assert ap == pytest.approx(
                    brute_force_ap40(records, total_gt, use_similarity), abs=1e-12
                )
                assert ap == sequential_sweep(records, total_gt, use_similarity)
                assert all(type(p) is float for p in curve.precisions)
            ap, curve = class_sweep(by_class, num_gt, "Van", DifficultyBin.MODERATE)
            assert ap == brute_force_ap40([], 3) == 0.0 and set(curve.precisions) == {0.0}


def test_numpy_cos_and_remainder_equal_the_scalar_ones_bit_for_bit():
    """Records take (1 + cos(delta alpha)) / 2, and nuScenes the wrapped yaw
    difference, from NumPy over whole arrays; reports keep the bits of the
    scalar ``math.cos`` and float ``%`` only while these agree."""
    angles = np.random.default_rng(137).uniform(-2.0 * math.pi, 2.0 * math.pi, 1_000_000)
    scalar = np.array([math.cos(a) for a in angles.tolist()])
    assert np.array_equal(np.cos(angles).view(np.int64), scalar.view(np.int64))
    wrapped = np.remainder(angles + math.pi, 2.0 * math.pi) - math.pi
    scalar = np.array([(a + math.pi) % (2.0 * math.pi) - math.pi for a in angles.tolist()])
    assert np.array_equal(wrapped.view(np.int64), scalar.view(np.int64))


class TestOverflowDomain:
    """Boxes of any finite size and place either score, without a floating-point
    warning, or are refused with :class:`DegenerateBox`."""

    @staticmethod
    def _pairs(rng, n):
        """(n, 7) box rows a and b: centers up to 1e300 m out, each dimension
        from 1e-160 to 1e305 on its own (so long thin footprints of modest area
        abound), b within a's longer side of a and of a's shape."""
        yaw = rng.uniform(-math.pi, math.pi, (2, n, 1))
        center = 10.0 ** rng.uniform(-150, 300, (n, 1)) * rng.uniform(-1.0, 1.0, (n, 3))
        dims = 10.0 ** rng.uniform(-160, 305, (n, 3))
        near = center + dims[:, 1:].max(axis=1, keepdims=True) * rng.uniform(-1.0, 1.0, (n, 3))
        shaped = dims * 10.0 ** rng.uniform(-2, 2, (n, 3))
        return np.hstack([center, dims, yaw[0]]), np.hstack([near, shaped, yaw[1]])

    @pytest.mark.parametrize("kinds", [("bev", "3d"), ("bev",), ("3d",), ("2d",)])
    def test_random_extreme_boxes_score_or_are_refused(self, kinds):
        rng = np.random.default_rng(139)
        a, b = self._pairs(rng, 4000)
        if kinds == ("2d",):  # (left, top, right, bottom), right of left and below top
            size = [np.maximum(r[:, 3:5], np.abs(r[:, :2]) * 1e-12) for r in (a, b)]
            a, b = (np.hstack([r[:, :2], r[:, :2] + d]) for r, d in zip((a, b), size))
            valid = np.flatnonzero(((a[:, 2:] > a[:, :2]) & (b[:, 2:] > b[:, :2])).all(axis=1))
            a, b = a[valid], b[valid]
        refused = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bad = np.logical_or.reduce([mask_a | mask_b for (_, mask_a), (_, mask_b) in zip(
                metrics._row_faults(kinds, a), metrics._row_faults(kinds, b))])
            ok = np.flatnonzero(~bad)
            for values in metrics._pair_ious(kinds, a, b, ok, ok):
                assert np.isfinite(values).all() and (values >= 0).all() and (values <= 1).all()
            for k in np.flatnonzero(bad)[:200]:
                with pytest.raises(DegenerateBox):
                    metrics._pair_ious(kinds, a, b, np.array([k]), np.array([k]))
                refused += 1
        assert refused >= 100 and len(ok) >= 300

    def test_a_long_thin_turned_footprint_is_refused(self):
        """h w l 1.5 1e300 1e-10, 0.3 rad apart: its corners reach 5e299 m."""
        a = make_box(height=1.5, width=1e300, length=1e-10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for iou in (iou_bev, iou_3d):
                with pytest.raises(DegenerateBox,
                                   match="^BEV footprint reaches 1e152 m from the camera$"):
                    iou(a, dataclasses.replace(a, yaw=0.3))

    def test_only_3d_holds_the_vertical_extent(self):
        high = make_label("Car", make_box(y=1e152))
        frame = detection_frame([high], [with_score(high, 0.9)], frame_id="000011")
        assert match_pass([frame], "bev", 0.5)[DifficultyBin.MODERATE][1] == {"Car": 1}
        with pytest.raises(DegenerateBox, match="^frame 000011: box top or bottom reaches 1e152"):
            match_pass([frame], "3d", 0.5)

    def test_sane_scale_pairs_equal_the_monte_carlo_oracle(self):
        rng = np.random.default_rng(149)
        cloud = bin_cloud(rng.random((1_000_000, 2), dtype=np.float32))
        for _ in range(100):
            a = random_box(rng)
            b = dataclasses.replace(random_box(rng), center=dataclasses.replace(
                a.center, x=a.center.x + float(rng.uniform(-1.5, 1.5)),
                z=a.center.z + float(rng.uniform(-1.5, 1.5)),
            ))
            assert abs(iou_bev(a, b) - mc_iou_bev(a, b, cloud)) <= 3e-3


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
    def test_dontcare_is_never_scored(self):
        region = make_label("DontCare", bbox=(100, 100, 200, 200))
        frames = [detection_frame([region], [region])]
        with pytest.raises(NoMatches, match="^class 'DontCare' marks regions and is never scored$"):
            nuscenes_errors(frames, "DontCare")

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
        with pytest.raises(NoMatches):
            nuscenes_errors([], "Car")

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

    def test_exact_distance_tie_goes_to_lowest_index(self):
        det_box = make_box(x=0.0, z=20.0, width=1.8, yaw=0.2)
        first = make_label(box=make_box(x=-1.0, z=20.0, width=1.8, yaw=0.2))
        second = make_label(box=make_box(x=1.0, z=20.0, width=1.6, yaw=1.2))
        det = with_score(make_label(box=det_box), 0.9)
        errors = nuscenes_errors([detection_frame([first, second], [det])], "Car")
        assert errors.matches == 1
        assert errors.ate == 1.0
        assert (errors.ase, errors.aoe) == (0.0, 0.0)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            nuscenes_errors([], "Car", match_radius=0.0)

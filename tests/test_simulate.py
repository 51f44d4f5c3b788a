"""Gaussian pitch/roll sampling, label transfer, image warping, batch protocol."""

import dataclasses
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from camperturb import (
    ExtrinsicPerturbation,
    OutOfRange,
    PerturbationSpec,
    RasterImage,
    SceneFrame,
    SingularHomography,
    image_homography,
    parse_label_file,
    perturb_labels,
    perturbation_matrix,
    project,
    rot_z,
    sample_perturbation,
    simulate_dataset,
    simulate_frame,
    transform_box,
    transform_labels,
    warp_image,
)
from camperturb.geometry import CameraIntrinsics, CameraPoint, ImagePoint
from camperturb.kitti import _labels_of, _table_of
import camperturb.simulate as simulate_module
from camperturb.simulate import _WARP_BLOCK_ROWS, _move_tables

from helpers import DEFAULT_K, make_box, make_label
from oracles import whole_image_warp

K = DEFAULT_K


class TestPerturbationSpec:
    def test_defaults(self):
        spec = PerturbationSpec()
        assert spec.sigma_pitch == pytest.approx(math.radians(1.0))
        assert spec.sigma_roll == pytest.approx(math.radians(1.0))
        assert spec.clamp == pytest.approx(math.radians(10.0))
        assert spec.seed == 0

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            PerturbationSpec(sigma_pitch=-0.1)

    def test_clamp_must_be_strictly_inside_open_interval(self):
        with pytest.raises(OutOfRange):
            PerturbationSpec(clamp=0.0)
        with pytest.raises(OutOfRange):
            PerturbationSpec(clamp=math.pi / 2)
        PerturbationSpec(clamp=math.pi / 2 - 1e-9)

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError):
            PerturbationSpec(seed=-1)
        with pytest.raises(ValueError):
            PerturbationSpec(seed=2**64)


class TestSamplePerturbation:
    def test_zero_sigma_draws_zero(self):
        spec = PerturbationSpec(sigma_pitch=0.0, sigma_roll=0.0, seed=42)
        for frame_id in ("000000", "000123", "x"):
            p = sample_perturbation(spec, frame_id)
            assert (p.pitch, p.roll) == (0.0, 0.0)

    def test_same_inputs_same_output(self):
        spec = PerturbationSpec(seed=7)
        a = sample_perturbation(spec, "000010")
        b = sample_perturbation(spec, "000010")
        assert (a.pitch, a.roll) == (b.pitch, b.roll)

    def test_distinct_frames_get_distinct_draws(self):
        spec = PerturbationSpec(seed=7)
        draws = {sample_perturbation(spec, f"{i:06d}").pitch for i in range(50)}
        assert len(draws) == 50

    def test_distinct_seeds_get_distinct_draws(self):
        a = sample_perturbation(PerturbationSpec(seed=1), "000000")
        b = sample_perturbation(PerturbationSpec(seed=2), "000000")
        assert a.pitch != b.pitch

    def test_pitch_stream_independent_of_roll_sigma(self):
        # pitch is drawn first from the keyed stream, so zeroing the roll
        # width must not change the pitch draw
        a = sample_perturbation(PerturbationSpec(sigma_roll=0.0, seed=3), "000001")
        b = sample_perturbation(PerturbationSpec(seed=3), "000001")
        assert a.pitch == b.pitch
        assert a.roll == 0.0

    def test_sample_statistics(self):
        sigma = 0.0175
        spec = PerturbationSpec(sigma_pitch=sigma, sigma_roll=sigma, seed=2024)
        pitches = np.array(
            [sample_perturbation(spec, f"{i:06d}").pitch for i in range(100_000)]
        )
        n = pitches.size
        assert abs(pitches.mean()) < 3.0 * sigma / math.sqrt(n)
        assert abs(pitches.std() - sigma) < 0.02 * sigma

    def test_clamp_bounds_every_draw(self):
        clamp = 0.01
        spec = PerturbationSpec(sigma_pitch=1.0, sigma_roll=1.0, clamp=clamp, seed=5)
        for i in range(500):
            p = sample_perturbation(spec, f"{i:06d}")
            assert abs(p.pitch) <= clamp
            assert abs(p.roll) <= clamp


class TestPerturbLabels:
    def test_zero_perturbation_is_identity(self):
        labels = [make_label(box=make_box(x=1.0)), make_label(box=make_box(x=-2.0))]
        out, dropped = perturb_labels(labels, K, ExtrinsicPerturbation(0.0, 0.0))
        assert dropped == 0
        assert out == labels

    def test_center_matches_transform_box(self):
        box = make_box(x=0.0, y=1.7, z=20.0, yaw=0.0)
        label = make_label(box=box)
        p = ExtrinsicPerturbation(pitch=0.1, roll=0.0)
        out, dropped = perturb_labels([label], K, p)
        assert dropped == 0
        expected = transform_box(perturbation_matrix(p), box)
        moved = out[0]
        assert moved.x == pytest.approx(expected.center.x, abs=1e-12)
        assert moved.y == pytest.approx(expected.center.y, abs=1e-12)
        assert moved.z == pytest.approx(expected.center.z, abs=1e-12)
        assert moved.rotation_y == pytest.approx(expected.yaw, abs=1e-12)
        assert (moved.height, moved.width, moved.length) == (
            box.height,
            box.width,
            box.length,
        )

    def test_mixed_frame_matches_per_label_calls(self):
        dontcare = parse_label_file(
            b"DontCare -1 -1 -10 100.0 120.0 300.0 300.0 -1 -1 -1 -1000 -1000 -1000 -10"
        )[0]
        labels = [
            make_label(box=make_box(x=2.0, z=15.0, yaw=0.4)),
            dontcare,
            # straddles the principal plane, so it is dropped
            make_label(box=make_box(x=0.0, z=1.0), bbox=(500.0, 100.0, 700.0, 300.0)),
            make_label(class_name="Pedestrian", box=make_box(x=-3.0, z=25.0, yaw=-2.0)),
        ]
        rotation = perturbation_matrix(ExtrinsicPerturbation(pitch=0.05, roll=-0.03))
        out, dropped = transform_labels(labels, K, rotation, image_size=(1242, 375))
        assert dropped == 1
        assert [label.class_name for label in out] == ["Car", "DontCare", "Pedestrian"]
        assert out[1] is dontcare
        one_by_one = [transform_labels([lab], K, rotation, (1242, 375)) for lab in labels]
        assert out == [moved for labs, _ in one_by_one for moved in labs]
        assert dropped == sum(n for _, n in one_by_one)

    def test_one_batch_equals_each_frame_alone(self):
        """Frames moved together, each by its own rotation, intrinsics and
        image size, give exactly the labels, drop counts and failures of
        each frame moved alone."""
        rng = np.random.default_rng(31)
        dontcare = parse_label_file(
            b"DontCare -1 -1 -10 100.0 120.0 300.0 300.0 -1 -1 -1 -1000 -1000 -1000 -10"
        )[0]
        frames = []
        for i in range(40):
            k = CameraIntrinsics(fx=rng.uniform(500, 900), fy=rng.uniform(500, 900),
                                 cx=rng.uniform(300, 700), cy=rng.uniform(150, 250),
                                 skew=float(i % 3 == 0))
            labels = [
                make_label(box=make_box(x=rng.uniform(-15, 15), z=rng.uniform(0.5, 40),
                                        yaw=rng.uniform(-3, 3)), bbox=(100.0, 90.0, 200.0, 210.0))
                for _ in range(int(rng.integers(0, 6)))
            ]
            if i % 4 == 1:
                labels.insert(int(rng.integers(0, len(labels) + 1)), dontcare)
            angles = rng.normal(0, 0.05, 2) if i % 5 else (0.0, 0.0)
            huge = {17: ((1.79e308, -1.79e308, 1.79e308), (0.3, 0.3)),
                    23: ((2.5e305, 1.5, 2.2), (-0.01, 0.0))}
            if i in huge:
                (x, y, z), angles = huge[i]
                k = K
                labels.append(make_label(box=make_box(x=x, y=y, z=z),
                                         bbox=(500.0, 150.0, 600.0, 250.0), alpha=0.1))
            rotation = perturbation_matrix(ExtrinsicPerturbation(*angles))
            if i % 6 == 2:
                rotation = np.ascontiguousarray(rotation.T)  # C order, as np.stack gives below
            size = None if i % 3 else (int(rng.integers(600, 1300)), int(rng.integers(200, 400)))
            frames.append((labels, k, rotation, size))
        batch = _move_tables(
            [_table_of(labels) for labels, *_ in frames],
            np.stack([rotation for _, _, rotation, _ in frames]),
            [k for _, k, _, _ in frames], [size for *_, size in frames],
        )
        assert "rotation" in str(batch[17]) and "projected" in str(batch[23])
        for moved, (labels, k, rotation, size) in zip(batch, frames):
            try:
                alone = transform_labels(labels, k, rotation, size)
            except OutOfRange as exc:
                assert str(moved) == str(exc)
                continue
            table, dropped = moved
            assert (_labels_of(table), dropped) == alone
            assert table.values.tobytes() == _table_of(alone[0]).values.tobytes()

    def test_alpha_recomputed_from_geometry(self):
        box = make_box(x=3.0, y=1.7, z=15.0, yaw=0.5)
        label = make_label(box=box)
        p = ExtrinsicPerturbation(pitch=0.05, roll=-0.03)
        out, _ = perturb_labels([label], K, p)
        moved = out[0]
        expected_alpha = moved.rotation_y - math.atan2(moved.x, moved.z)
        expected_alpha = (expected_alpha + math.pi) % (2 * math.pi) - math.pi
        assert moved.alpha == pytest.approx(expected_alpha, abs=1e-12)

    def test_bbox_is_projected_corner_hull(self):
        from camperturb import box_corners

        box = make_box(x=1.0, y=1.7, z=12.0, yaw=0.3)
        label = make_label(box=box)
        p = ExtrinsicPerturbation(pitch=0.02, roll=0.01)
        out, _ = perturb_labels([label], K, p)
        moved = out[0]
        corners = box_corners(transform_box(perturbation_matrix(p), box))
        us, vs = [], []
        for corner in corners:
            pt = project(K, CameraPoint(*corner))
            us.append(pt.u)
            vs.append(pt.v)
        assert moved.bbox_left == pytest.approx(min(us), abs=1e-9)
        assert moved.bbox_right == pytest.approx(max(us), abs=1e-9)
        assert moved.bbox_top == pytest.approx(min(vs), abs=1e-9)
        assert moved.bbox_bottom == pytest.approx(max(vs), abs=1e-9)

    def test_bbox_clipped_to_image_bounds(self):
        box = make_box(x=-6.0, y=1.7, z=9.0)
        label = make_label(box=box)
        out, _ = perturb_labels(
            [label], K, ExtrinsicPerturbation(0.0, 0.15), image_size=(1242, 375)
        )
        moved = out[0]
        assert moved.bbox_left >= 0.0
        assert moved.bbox_right <= 1241.0
        assert moved.bbox_top >= 0.0
        assert moved.bbox_bottom <= 374.0

    def test_behind_camera_object_dropped_and_counted(self):
        behind = make_label(box=make_box(x=0.0, y=-5.0, z=1.0), bbox=(0, 0, 10, 10))
        ok = make_label(box=make_box(x=0.0, y=1.7, z=20.0))
        out, dropped = transform_labels(
            [behind, ok], K, perturbation_matrix(ExtrinsicPerturbation(1.5, 0.0))
        )
        assert dropped == 1
        assert len(out) == 1

    def test_dontcare_passes_through_unchanged(self):
        from camperturb import parse_label_file

        line = b"DontCare -1 -1 -10 100.0 120.0 180.0 160.0 -1 -1 -1 -1000 -1000 -1000 -10"
        dc = parse_label_file(line)[0]
        out, dropped = perturb_labels([dc], K, ExtrinsicPerturbation(0.05, 0.02))
        assert dropped == 0
        assert out == [dc]

    def test_projection_consistency_with_homography(self):
        rng = np.random.default_rng(67)
        for _ in range(100):
            box = make_box(
                x=float(rng.uniform(-4, 4)),
                y=1.65,
                z=float(rng.uniform(8, 40)),
                yaw=float(rng.uniform(-math.pi, math.pi)),
            )
            label = make_label(box=box)
            p = ExtrinsicPerturbation(*rng.normal(0.0, 0.0175, size=2))
            out, _ = perturb_labels([label], K, p)
            if not out:
                continue
            moved = out[0]
            h = image_homography(K, perturbation_matrix(p))
            before = project(K, CameraPoint(box.center.x, box.center.y, box.center.z))
            w = h @ np.array([before.u, before.v, 1.0])
            after = project(K, CameraPoint(moved.x, moved.y, moved.z))
            assert abs(after.u - w[0] / w[2]) < 1e-6
            assert abs(after.v - w[1] / w[2]) < 1e-6

    def test_inverse_recovers_centers(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            box = make_box(
                x=float(rng.uniform(-4, 4)),
                y=1.65,
                z=float(rng.uniform(8, 40)),
                yaw=float(rng.uniform(-math.pi, math.pi)),
            )
            label = make_label(box=box)
            p = ExtrinsicPerturbation(*rng.normal(0.0, 0.0175, size=2))
            r = perturbation_matrix(p)
            fwd, _ = transform_labels([label], K, r)
            back, _ = transform_labels(fwd, K, r.T)
            assert abs(back[0].x - label.x) < 1e-9
            assert abs(back[0].y - label.y) < 1e-9
            assert abs(back[0].z - label.z) < 1e-9

    def test_inverse_recovers_2d_boxes_at_small_angles(self):
        # heading re-snap discards second-order tilt, so exact 2D round-trip
        # holds only for small angles; verified at <= 2 mrad without clipping
        rng = np.random.default_rng(73)
        for _ in range(100):
            box = make_box(
                x=float(rng.uniform(-4, 4)),
                y=1.65,
                z=float(rng.uniform(8, 40)),
                yaw=float(rng.uniform(-math.pi, math.pi)),
            )
            label = make_label(box=box)
            p = ExtrinsicPerturbation(*rng.uniform(-0.002, 0.002, size=2))
            r = perturbation_matrix(p)
            fwd, _ = transform_labels([label], K, r)
            back, _ = transform_labels(fwd, K, r.T)
            for field in ("bbox_left", "bbox_top", "bbox_right", "bbox_bottom"):
                assert abs(getattr(back[0], field) - getattr(label, field)) < 1e-3


class TestWarpImage:
    def _image(self, h, w, channels=1, seed=0):
        rng = np.random.default_rng(seed)
        return RasterImage(
            data=rng.integers(0, 256, size=(h, w, channels), dtype=np.uint8)
        )

    def test_identity_is_byte_identical(self):
        img = self._image(24, 32, 3)
        out = warp_image(img, np.eye(3))
        assert np.array_equal(out.data, img.data)
        assert out.data is not img.data

    def test_half_turn_roll_equals_index_reversal(self):
        # odd dimensions put the principal point on a pixel center, so the
        # mapped grid is exactly integral and bilinear weights collapse
        k = CameraIntrinsics(fx=100.0, fy=100.0, cx=10.0, cy=10.0)
        img = self._image(21, 21, 1, seed=3)
        h = image_homography(k, rot_z(math.pi))
        out = warp_image(img, h, fill=0)
        assert np.array_equal(out.data, img.data[::-1, ::-1])

    def test_constant_image_with_matching_fill_stays_constant(self):
        img = RasterImage(data=np.full((16, 16, 3), 77, dtype=np.uint8))
        h = image_homography(K, perturbation_matrix(ExtrinsicPerturbation(0.1, 0.05)))
        out = warp_image(img, h, fill=77)
        assert np.array_equal(out.data, img.data)

    def test_out_of_bounds_sources_take_fill(self):
        img = RasterImage(data=np.full((10, 10, 1), 200, dtype=np.uint8))
        # shift right by 5 px: left strip has no source
        h = np.array([[1.0, 0.0, 5.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        out = warp_image(img, h, fill=9)
        assert np.all(out.data[:, :5] == 9)
        assert np.all(out.data[:, 5:] == 200)

    def test_rejects_singular_homography(self):
        with pytest.raises(SingularHomography):
            warp_image(self._image(4, 4), np.zeros((3, 3)))

    def test_negative_bottom_right_entry_keeps_the_pixels_in_front(self):
        """K R K^-1 of this pitch and roll has a negative (3, 3) entry; the
        normalized homography warps as the unscaled one does, and does not
        map every pixel behind the camera."""
        rotation = perturbation_matrix(ExtrinsicPerturbation(-0.88, -1.54))
        unscaled = K.matrix() @ rotation @ K.inverse_matrix()
        assert unscaled[2, 2] < 0.0
        # pixels lie in [100, 255], so the fill 77 marks exactly the unmapped ones
        data = np.random.default_rng(89).integers(100, 256, size=(375, 1242, 3), dtype=np.uint8)
        out = warp_image(RasterImage(data=data), image_homography(K, rotation), fill=77).data
        assert np.array_equal(out, warp_image(RasterImage(data=data), unscaled, fill=77).data)
        assert (out != 77).any()

    def test_rejects_non_finite_homography(self):
        with pytest.raises(SingularHomography, match="^homography must be a finite 3x3"):
            warp_image(self._image(4, 4), np.full((3, 3), np.nan))

    def test_rejects_bad_fill(self):
        with pytest.raises(ValueError):
            warp_image(self._image(4, 4), np.eye(3), fill=300)

    def test_preserves_shape_and_channels(self):
        img = self._image(13, 17, 3)
        h = image_homography(K, perturbation_matrix(ExtrinsicPerturbation(0.05, 0.02)))
        out = warp_image(img, h)
        assert out.data.shape == img.data.shape

    @pytest.mark.parametrize(
        "height", [1, _WARP_BLOCK_ROWS - 1, _WARP_BLOCK_ROWS + 1, 375]
    )
    def test_row_blocks_equal_whole_image_warp(self, height):
        # pixels lie in [100, 255], so the fill 77 appears only where no
        # source pixel maps (bilinear mixes of the raster stay >= 100)
        rng = np.random.default_rng(height)
        data = rng.integers(100, 256, size=(height, 97, 3), dtype=np.uint8)
        k = CameraIntrinsics(fx=90.0, fy=90.0, cx=48.0, cy=(height - 1) / 2.0)
        homographies = [
            image_homography(k, perturbation_matrix(ExtrinsicPerturbation(0.05, -0.3))),
            np.array([[1.0, 0.0, 7.3], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        ]
        outs = [warp_image(RasterImage(data=data), h, fill=77).data for h in homographies]
        for h, out in zip(homographies, outs):
            assert np.array_equal(out, whole_image_warp(data, h, fill=77))
        assert any((out == 77).any() for out in outs)
        assert any((out != 77).any() for out in outs)

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("block_rows", [1, 7, _WARP_BLOCK_ROWS, 64])
    def test_any_block_size_equals_whole_image_warp(self, monkeypatch, block_rows, channels):
        # 37 rows: a multiple of no block size here, and fewer than 64
        monkeypatch.setattr(simulate_module, "_WARP_BLOCK_ROWS", block_rows)
        rng = np.random.default_rng(block_rows * 10 + channels)
        data = rng.integers(100, 256, size=(37, 53, channels), dtype=np.uint8)
        k = CameraIntrinsics(fx=60.0, fy=60.0, cx=26.0, cy=18.0)
        h = image_homography(k, perturbation_matrix(ExtrinsicPerturbation(0.08, -0.25)))
        out = warp_image(RasterImage(data=data), h, fill=77).data
        assert np.array_equal(out, whole_image_warp(data, h, fill=77))
        assert (out == 77).any() and (out != 77).any()

    def test_concurrent_warps_equal_one_at_a_time(self):
        # three threads warp different images of one shape at once, switching
        # often, so a scratch shared between calls would mix their blocks
        rng = np.random.default_rng(23)
        k = CameraIntrinsics(fx=300.0, fy=300.0, cx=160.0, cy=60.0)
        work = [
            (
                RasterImage(data=rng.integers(0, 256, size=(121, 321, 3), dtype=np.uint8)),
                image_homography(
                    k, perturbation_matrix(ExtrinsicPerturbation(*rng.uniform(-0.1, 0.1, 2)))
                ),
            )
            for _ in range(6)
        ]
        expected = [warp_image(image, h, fill=77).data for image, h in work]
        start = threading.Barrier(3, timeout=60)

        def warp_all(part):
            start.wait()
            return [warp_image(image, h, fill=77).data for _ in range(2) for image, h in part]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=3) as pool:
                runs = [pool.submit(warp_all, work[i::3]) for i in range(3)]
                outs = [run.result(timeout=60) for run in runs]
        finally:
            sys.setswitchinterval(interval)
        for i, part in enumerate(outs):
            assert len(part) == 4
            for out, want in zip(part, expected[i::3] * 2):
                assert np.array_equal(out, want)

    def test_scratch_memory_is_bounded_by_a_row_block(self):
        # a whole-image float64 pass over 375x1242x3 peaks near 100 MB
        img = self._image(375, 1242, 3)
        k = CameraIntrinsics(fx=721.5, fy=721.5, cx=609.6, cy=172.9)
        h = image_homography(k, perturbation_matrix(ExtrinsicPerturbation(0.02, -0.03)))
        tracemalloc.start()
        try:
            warp_image(img, h, fill=77)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6


class TestSimulateDataset:
    def _frames(self, n=4, with_images=False):
        frames = []
        rng = np.random.default_rng(79)
        for i in range(n):
            labels = tuple(
                make_label(
                    box=make_box(
                        x=float(rng.uniform(-3, 3)),
                        z=float(rng.uniform(10, 30)),
                        yaw=float(rng.uniform(-math.pi, math.pi)),
                    )
                )
                for _ in range(3)
            )
            image = None
            if with_images:
                image = RasterImage(
                    data=rng.integers(0, 256, size=(24, 32, 1), dtype=np.uint8)
                )
            frames.append(
                SceneFrame(
                    frame_id=f"{i:06d}", intrinsics=K, labels=labels, image=image
                )
            )
        return frames

    def test_zero_sigma_keeps_labels_and_identity_homography(self):
        frames = self._frames(with_images=True)
        spec = PerturbationSpec(sigma_pitch=0.0, sigma_roll=0.0, seed=1)
        result = simulate_dataset(frames, spec)
        assert len(result.frames) == len(frames)
        for src, out in zip(frames, result.frames):
            assert out.labels == src.labels
            assert np.array_equal(out.homography, np.eye(3))
            assert np.array_equal(result.images[src.frame_id].data, src.image.data)

    def test_two_runs_are_identical(self):
        frames = self._frames()
        spec = PerturbationSpec(seed=11)
        a = simulate_dataset(frames, spec)
        b = simulate_dataset(frames, spec)
        for fa, fb in zip(a.frames, b.frames):
            assert fa.applied == fb.applied
            assert fa.labels == fb.labels
            assert np.array_equal(fa.homography, fb.homography)

    def test_result_independent_of_frame_order(self):
        frames = self._frames()
        spec = PerturbationSpec(seed=11)
        forward = {f.frame_id: f for f in simulate_dataset(frames, spec).frames}
        backward = {
            f.frame_id: f for f in simulate_dataset(frames[::-1], spec).frames
        }
        assert forward.keys() == backward.keys()
        for fid in forward:
            assert forward[fid].applied == backward[fid].applied
            assert forward[fid].labels == backward[fid].labels

    def test_behind_camera_object_is_counted_not_fatal(self):
        doomed = make_label(box=make_box(x=0.0, y=-40.0, z=1.0), bbox=(0, 0, 10, 10))
        frames = [
            SceneFrame(frame_id="000000", intrinsics=K, labels=(doomed,)),
            self._frames(1)[0],
        ]
        # default clamp caps angles at 10 degrees; make the doomed box
        # certain to cross the principal plane under any such tilt
        spec = PerturbationSpec(sigma_pitch=0.5, sigma_roll=0.0, seed=13)
        result = simulate_dataset(frames, spec)
        assert len(result.frames) == 2
        assert result.failures == ()
        assert result.total_dropped == 1
        assert result.frames[0].dropped == 1

    def test_box_beyond_the_float_range_fails_its_frame_only(self):
        far = make_label(bbox=(0, 0, 10, 10))
        far = dataclasses.replace(far, x=1.79e308, y=1.79e308, z=1.79e308)
        frames = [SceneFrame(frame_id="f", intrinsics=K, labels=(far,)), self._frames(1)[0]]
        result = simulate_dataset(frames, PerturbationSpec(seed=3))
        assert result.failures == (("f", "camera point must be finite after the rotation"),)
        assert [frame.frame_id for frame in result.frames] == [frames[1].frame_id]

    def test_scene_frame_needs_an_id_and_reports_its_given_image_size(self):
        with pytest.raises(ValueError, match="^frame_id must be non-empty$"):
            SceneFrame(frame_id="", intrinsics=K, labels=())
        frame = SceneFrame(frame_id="f", intrinsics=K, labels=(), image_size=(10, 5))
        assert frame.effective_image_size() == (10, 5)

    def test_homography_matches_applied_angles(self):
        frames = self._frames(2)
        spec = PerturbationSpec(seed=17)
        result = simulate_dataset(frames, spec)
        for out in result.frames:
            expected = image_homography(K, perturbation_matrix(out.applied))
            assert np.abs(out.homography - expected).max() < 1e-15

    def test_simulate_frame_warps_image(self):
        frame = self._frames(1, with_images=True)[0]
        spec = PerturbationSpec(seed=19)
        perturbed, warped = simulate_frame(frame, spec)
        assert warped is not None
        assert warped.data.shape == frame.image.data.shape
        assert perturbed.applied.pitch != 0.0

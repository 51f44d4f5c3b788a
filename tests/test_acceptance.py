"""Acceptance gate: ten end-to-end checks with fixed tolerances.

Each check prints one PASS/FAIL line straight to the terminal
(bypassing pytest capture) so a full run shows the gate status at a
glance.  The checks deliberately re-derive their expectations from
independent oracles (Monte-Carlo sampling, exhaustive threshold sweeps,
finite differences, explicit scalar arithmetic) rather than from the
code under test.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import helpers
from camperturb import (
    Box3D,
    CameraIntrinsics,
    CameraPoint,
    ExtrinsicPerturbation,
    FeatureTensor,
    ImagePoint,
    average_orientation_similarity,
    average_precision_40,
    content_loss,
    extrinsics_from_horizon_vp,
    gram,
    horizon_vp_from_extrinsics,
    image_homography,
    iou_3d,
    iou_bev,
    keypoint_transfer,
    loss_gradients,
    parse_calib_file,
    parse_label_file,
    parse_odometry_poses,
    perturbation_matrix,
    perturbation_matrix_literal,
    style_loss,
    total_loss,
    write_label_file,
)
from camperturb.cli import main
from camperturb.errors import CamPerturbError
from oracles import (
    bin_cloud, brute_force_ap40, finite_difference_gradient, mc_iou_bev, naive_gram,
)
from test_kitti import GOLDEN_CALIB, GOLDEN_LINE
from test_metrics import bbox_label, independent_records, random_matching_frames

K = CameraIntrinsics(fx=721.5, fy=719.2, cx=609.6, cy=172.9)


@contextmanager
def announced(capsys, label: str):
    """Print one live PASS/FAIL line for the enclosed block."""
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[acceptance] {label}: FAIL", flush=True)
        raise
    with capsys.disabled():
        print(f"[acceptance] {label}: PASS", flush=True)


def random_perturbation(rng, limit: float = 0.3) -> ExtrinsicPerturbation:
    return ExtrinsicPerturbation(
        pitch=float(rng.uniform(-limit, limit)),
        roll=float(rng.uniform(-limit, limit)),
    )


def test_01_rotation_geometry_suite(capsys):
    """10^4 random perturbations: orthogonal rotations, invertible pixel
    transfer, and homography/keypoint agreement at three depths."""
    with announced(capsys, "01 rotation geometry suite"):
        start = time.perf_counter()
        rng = np.random.default_rng(10001)
        eye = np.eye(3)
        for _ in range(10_000):
            a = perturbation_matrix(random_perturbation(rng))
            assert np.abs(a.T @ a - eye).max() <= 1e-12
            assert abs(np.linalg.det(a) - 1.0) <= 1e-12

            u = float(rng.uniform(100.0, 1100.0))
            v = float(rng.uniform(50.0, 330.0))
            z = float(rng.uniform(4.0, 60.0))
            fwd = keypoint_transfer(K, K, a, ImagePoint(u, v), z)
            back = keypoint_transfer(K, K, a.T, ImagePoint(fwd.u, fwd.v), fwd.depth)
            assert math.hypot(back.u - u, back.v - v) <= 1e-9

            h = image_homography(K, a)
            for depth in (1.0, 5.0, 50.0):
                pt = keypoint_transfer(K, K, a, ImagePoint(u, v), depth)
                w = h @ np.array([u, v, 1.0])
                assert math.hypot(w[0] / w[2] - pt.u, w[1] / w[2] - pt.v) <= 1e-9
        assert time.perf_counter() - start < 5.0


def test_02_published_form_singular_where_canonical_is_orthogonal(capsys):
    """The transcribed pitch*roll product loses rank at roll = pi/4; the
    canonical axis-factored rotation at the same angles stays orthogonal."""
    with announced(capsys, "02 literal-form singularity vs canonical rotation"):
        p = ExtrinsicPerturbation(pitch=0.0, roll=math.pi / 4.0)
        literal = perturbation_matrix_literal(p)
        assert abs(np.linalg.det(literal)) <= 1e-12
        canonical = perturbation_matrix(p)
        assert np.abs(canonical.T @ canonical - np.eye(3)).max() <= 1e-12
        assert abs(np.linalg.det(canonical) - 1.0) <= 1e-12


def test_03_horizon_vanishing_point_round_trip(capsys):
    """Estimating extrinsics back from the horizon/VP they induce recovers
    10^4 sampled angles to 1e-9 rad, and the two angles stay decoupled."""
    with announced(capsys, "03 horizon/vanishing-point round-trip and decoupling"):
        rng = np.random.default_rng(10003)
        for _ in range(10_000):
            p = random_perturbation(rng)
            horizon, vp = horizon_vp_from_extrinsics(p, K)
            est = extrinsics_from_horizon_vp(horizon, vp, K)
            assert abs(est.pitch - p.pitch) <= 1e-9
            assert abs(est.roll - p.roll) <= 1e-9
        for angle in np.linspace(-0.29, 0.29, 41):
            pitch_only = ExtrinsicPerturbation(pitch=float(angle), roll=0.0)
            horizon, vp = horizon_vp_from_extrinsics(pitch_only, K)
            est = extrinsics_from_horizon_vp(horizon, vp, K)
            assert horizon.slope == 0.0
            assert est.roll == 0.0
            roll_only = ExtrinsicPerturbation(pitch=0.0, roll=float(angle))
            horizon, vp = horizon_vp_from_extrinsics(roll_only, K)
            est = extrinsics_from_horizon_vp(horizon, vp, K)
            assert abs(est.pitch) <= 1e-12
            assert abs(vp.v - horizon.v_at(vp.u, K.cx)) <= 1e-9


def test_04_bev_iou_against_monte_carlo(capsys):
    """Polygon-clipped BEV IoU vs 10^7-point Monte-Carlo membership on 500
    random pairs, plus the closed-form octagon and stacked-box cases.  The
    cloud is binned once into grid cells, which gives the same point counts
    as testing every point (``tests/test_metrics.py::TestGridMonteCarloOracle``)."""
    with announced(capsys, "04 BEV IoU vs Monte-Carlo and worked cases"):
        rng = np.random.default_rng(10004)
        cloud = bin_cloud(rng.random((10_000_000, 2), dtype=np.float32))

        def random_box(x, z):
            return Box3D(
                center=CameraPoint(x, 1.65, z),
                height=1.5,
                width=float(rng.uniform(0.8, 2.4)),
                length=float(rng.uniform(1.5, 5.0)),
                yaw=float(rng.uniform(-math.pi, math.pi)),
            )

        for _ in range(500):
            x = float(rng.uniform(-10.0, 10.0))
            z = float(rng.uniform(5.0, 40.0))
            a = random_box(x, z)
            b = random_box(
                x + float(rng.uniform(-1.5, 1.5)), z + float(rng.uniform(-1.5, 1.5))
            )
            assert abs(iou_bev(a, b) - mc_iou_bev(a, b, cloud)) <= 2e-3

        square = Box3D(
            center=CameraPoint(0.0, 0.0, 10.0),
            height=1.0,
            width=1.0,
            length=1.0,
            yaw=0.0,
        )
        rotated = dataclasses.replace(square, yaw=math.pi / 4.0)
        assert abs(iou_bev(square, rotated) - 1.0 / math.sqrt(2.0)) <= 1e-3

        box = Box3D(
            center=CameraPoint(0.0, 0.0, 10.0),
            height=2.0,
            width=2.0,
            length=2.0,
            yaw=0.0,
        )
        raised = dataclasses.replace(box, center=CameraPoint(0.0, -1.0, 10.0))
        assert iou_3d(box, box) == 1.0
        assert abs(iou_3d(box, raised) - 1.0 / 3.0) <= 1e-12
        apart = dataclasses.replace(box, center=CameraPoint(0.0, -2.0, 10.0))
        assert iou_3d(box, apart) == 0.0


def test_05_ap_sweep_equals_exhaustive_thresholding(capsys):
    """The AP40/AOS confidence sweep must agree with brute-force evaluation
    of every distinct score threshold on 200 random instances."""
    with announced(capsys, "05 AP40 sweep vs exhaustive thresholding"):
        rng = np.random.default_rng(10005)
        for _ in range(200):
            n_frames = int(rng.integers(1, 6))
            frames = random_matching_frames(rng, n_frames=n_frames, max_objects=5)
            records, total_gt = independent_records(frames)
            try:
                ap, _ = average_precision_40(frames, "Car", threshold=0.7)
            except CamPerturbError:
                assert total_gt == 0
                continue
            assert abs(ap - brute_force_ap40(records, total_gt)) <= 1e-12
            aos, _ = average_orientation_similarity(frames, "Car", threshold=0.7)
            expected_aos = brute_force_ap40(records, total_gt, use_similarity=True)
            assert abs(aos - expected_aos) <= 1e-12
            assert aos <= ap + 1e-12

        gts = [bbox_label(100, 100, 200, 200), bbox_label(400, 100, 500, 200)]
        dets = [helpers.with_score(gts[0], 0.9)]
        frames = [helpers.detection_frame(gts, dets)]
        ap, _ = average_precision_40(frames, "Car", threshold=0.7)
        assert ap == 50.0


def test_06_desk_scale_perturb_and_rectify_protocol(capsys, tmp_path):
    """A perfect detector on 60 synthetic frames: simulating 1-degree
    extrinsic noise must cost at least 10 AP_3D@0.5 points against the
    perturbed ground truth, and rectifying the detections with the true
    per-frame angles must restore exactly 100."""
    with announced(capsys, "06 desk-scale perturb/rectify protocol"):
        start = time.perf_counter()
        frames = helpers.desk_scene_frames(n_frames=60)
        assert len(frames) >= 50 and all(len(f.labels) >= 3 for f in frames)
        gt_labels, calib_dir = helpers.write_kitti_dataset(tmp_path / "gt", frames)
        det_labels, _ = helpers.write_kitti_dataset(
            tmp_path / "det", frames, scores=True
        )

        sim = tmp_path / "sim"
        assert (
            main(
                [
                    "simulate",
                    "--labels", str(gt_labels),
                    "--calib", str(calib_dir),
                    "--out", str(sim),
                    "--seed", "77",
                ]
            )
            == 0
        )

        unrectified_report = tmp_path / "unrectified.json"
        assert (
            main(
                [
                    "evaluate",
                    "--gt", str(sim / "labels"),
                    "--det", str(det_labels),
                    "--metrics", "ap3d",
                    "--iou-threshold", "0.5",
                    "--out", str(unrectified_report),
                ]
            )
            == 0
        )
        for cell in json.loads(unrectified_report.read_text())["cells"]:
            assert cell["value"] < 100.0
            assert cell["value"] <= 90.0

        rectified = tmp_path / "rectified"
        assert (
            main(
                [
                    "rectify",
                    "--det", str(det_labels),
                    "--calib", str(calib_dir),
                    "--sidecar", str(sim / "perturbations.jsonl"),
                    "--direction", "apply",
                    "--out", str(rectified),
                ]
            )
            == 0
        )
        rectified_report = tmp_path / "rectified.json"
        assert (
            main(
                [
                    "evaluate",
                    "--gt", str(sim / "labels"),
                    "--det", str(rectified),
                    "--metrics", "ap3d",
                    "--iou-threshold", "0.5",
                    "--out", str(rectified_report),
                ]
            )
            == 0
        )
        for cell in json.loads(rectified_report.read_text())["cells"]:
            assert abs(cell["value"] - 100.0) <= 1e-9
        assert time.perf_counter() - start < 30.0


def test_07_loss_kernels_and_gradients(capsys):
    """Gram matrix forms agree; worked content/style values are exact;
    analytic gradients match central finite differences."""
    with announced(capsys, "07 loss kernels and gradients"):
        rng = np.random.default_rng(10007)
        for _ in range(50):
            shape = tuple(int(rng.integers(1, 5)) for _ in range(3))
            data = rng.normal(size=shape)
            assert np.abs(gram(FeatureTensor(data=data)) - naive_gram(data)).max() <= 1e-12

        worked = FeatureTensor(data=np.array([[[2.0]], [[3.0]]]))
        assert np.array_equal(gram(worked), np.array([[2.0, 3.0], [3.0, 4.5]]))
        zero = FeatureTensor(data=np.zeros((2, 1, 1)))
        assert style_loss(worked, zero) == 42.25
        assert content_loss(worked, worked) == 0.0

        for _ in range(100):
            c = int(rng.integers(1, 5))
            out = FeatureTensor(data=rng.normal(size=(c, int(rng.integers(1, 5)), int(rng.integers(1, 5)))))
            target = FeatureTensor(data=rng.normal(size=out.data.shape))
            styles = [
                FeatureTensor(
                    data=rng.normal(size=(c, int(rng.integers(1, 5)), int(rng.integers(1, 5))))
                )
                for _ in range(int(rng.integers(0, 3)))
            ]
            gamma_c = float(rng.uniform(0.1, 2.0))
            gamma_s = float(rng.uniform(0.1, 2.0))
            analytic = loss_gradients(out, target, styles, gamma_c, gamma_s).data
            numeric = finite_difference_gradient(
                lambda d: total_loss(
                    FeatureTensor(data=d), target, styles, gamma_c, gamma_s
                ),
                out.data,
            )
            scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-12)
            assert np.abs(analytic - numeric).max() / scale <= 1e-5


def test_08_parser_golden_files_and_fuzzing(capsys):
    """Golden label/calib/pose snippets survive round-trips at the format's
    fixed-point quantum; 10^5 random byte blobs never escape the parsers
    as anything but a structured error."""
    with announced(capsys, "08 parser golden files and fuzzing"):
        labels = parse_label_file(GOLDEN_LINE)
        assert write_label_file(labels) == GOLDEN_LINE + b"\n"
        again = parse_label_file(write_label_file(labels))
        for a, b in zip(labels, again):
            assert a == b

        calib = parse_calib_file(GOLDEN_CALIB)
        rendered = "P2: " + " ".join(
            repr(float(v)) for v in calib.projections["P2"].ravel()
        )
        recovered = parse_calib_file(rendered.encode())
        assert recovered.intrinsics() == calib.intrinsics()

        pose_line = b"1 0 0 0.01 0 1 0 -0.02 0 0 1 4.5"
        pose = parse_odometry_poses(pose_line)[0]
        rerendered = " ".join(
            repr(float(v))
            for v in np.hstack([pose.rotation, pose.translation.reshape(3, 1)]).ravel()
        )
        pose_again = parse_odometry_poses(rerendered.encode())[0]
        assert np.array_equal(pose.rotation, pose_again.rotation)
        assert np.array_equal(pose.translation, pose_again.translation)

        rng = np.random.default_rng(10008)
        parsers = (parse_label_file, parse_calib_file, parse_odometry_poses)
        for i in range(100_000):
            size = int(rng.integers(0, 120))
            blob = rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
            if i % 2:  # printable-ASCII bias reaches deeper parser states
                blob = bytes(32 + (b % 95) for b in blob)
            parse = parsers[i % 3]
            try:
                parse(blob)
            except CamPerturbError:
                pass


def test_09_cli_determinism_across_runs_and_jobs(capsys, tmp_path):
    """simulate, evaluate and evaluate --det-disturbed must emit
    byte-identical artifacts when run twice, and when run with --jobs 1
    vs --jobs 4; simulate with one shared calibration file must equal
    simulate with the (identical) per-frame directory; pose-error must emit the same report bytes twice and on
    stdout, for either kind of estimates."""
    with announced(capsys, "09 CLI determinism across runs and jobs"):
        frames = helpers.desk_scene_frames(n_frames=12)
        gt_labels, calib_dir = helpers.write_kitti_dataset(tmp_path / "gt", frames)
        det_labels, _ = helpers.write_kitti_dataset(
            tmp_path / "det", frames, scores=True
        )

        def tree(root: Path) -> dict[str, bytes]:
            return {
                str(p.relative_to(root)): p.read_bytes()
                for p in sorted(root.rglob("*"))
                if p.is_file()
            }

        sim_trees = []
        for name, jobs in (("a", "1"), ("b", "1"), ("c", "4")):
            out = tmp_path / f"sim-{name}"
            assert (
                main(
                    [
                        "simulate",
                        "--labels", str(gt_labels),
                        "--calib", str(calib_dir),
                        "--out", str(out),
                        "--seed", "5",
                        "--jobs", jobs,
                    ]
                )
                == 0
            )
            sim_trees.append(tree(out))
        # a rerun into a filled directory replaces every file with the same bytes
        assert (
            main(
                [
                    "simulate",
                    "--labels", str(gt_labels),
                    "--calib", str(calib_dir),
                    "--out", str(tmp_path / "sim-a"),
                    "--seed", "5",
                ]
            )
            == 0
        )
        sim_trees.append(tree(tmp_path / "sim-a"))
        assert sim_trees[0] == sim_trees[1] == sim_trees[2] == sim_trees[3]
        # every frame has the same calibration, so one shared --calib file
        # (parsed once per run) gives the same tree as the directory
        for name, jobs in (("shared-a", "1"), ("shared-c", "4")):
            out = tmp_path / f"sim-{name}"
            assert (
                main(
                    [
                        "simulate",
                        "--labels", str(gt_labels),
                        "--calib", str(calib_dir / "000000.txt"),
                        "--out", str(out),
                        "--seed", "5",
                        "--jobs", jobs,
                    ]
                )
                == 0
            )
            assert tree(out) == sim_trees[0]

        eval_reports = []
        for name, jobs in (("a", "1"), ("b", "1"), ("c", "4")):
            out = tmp_path / f"eval-{name}.json"
            assert (
                main(
                    [
                        "evaluate",
                        "--gt", str(gt_labels),
                        "--det", str(det_labels),
                        "--metrics", "ap3d,aos,nuscenes",
                        "--out", str(out),
                        "--jobs", jobs,
                    ]
                )
                == 0
            )
            eval_reports.append(out.read_bytes())
        assert eval_reports[0] == eval_reports[1] == eval_reports[2]

        # the A/B report: a second detection set, one object fewer per frame
        disturbed_labels, _ = helpers.write_kitti_dataset(
            tmp_path / "det-disturbed",
            [dataclasses.replace(f, labels=f.labels[:-1]) for f in frames],
            scores=True,
        )
        ab_reports = []
        for name, jobs in (("a", "1"), ("b", "1"), ("c", "4")):
            out = tmp_path / f"eval-ab-{name}.json"
            assert (
                main(
                    [
                        "evaluate",
                        "--gt", str(gt_labels),
                        "--det", str(det_labels),
                        "--det-disturbed", str(disturbed_labels),
                        "--metrics", "ap3d,aos,nuscenes",
                        "--out", str(out),
                        "--jobs", jobs,
                    ]
                )
                == 0
            )
            ab_reports.append(out.read_bytes())
        assert ab_reports[0] == ab_reports[1] == ab_reports[2]
        assert b'"decrease"' in ab_reports[0]
        # one difficulty, or the nuScenes errors alone, give the cells of the full run
        ab_args = ["evaluate", "--gt", str(gt_labels), "--det", str(det_labels),
                   "--det-disturbed", str(disturbed_labels)]

        def cells(report: bytes) -> dict:
            return {
                (c["metric"], c["class"], c["difficulty"]): c
                for c in json.loads(report)["cells"]
            }

        full = cells(ab_reports[0])
        for only in (["--metrics", "ap3d,aos,nuscenes", "--difficulties", "moderate"],
                     ["--metrics", "nuscenes"]):
            out = tmp_path / "eval-ab-part.json"
            assert main([*ab_args, *only, "--out", str(out)]) == 0
            part = cells(out.read_bytes())
            assert part and all(full[key] == cell for key, cell in part.items())

        # pose-error from a pitch/roll sidecar and from a pose file, twice to a
        # report file and once to stdout, in both formats
        rng = np.random.default_rng(9)

        def pose_lines(n: int) -> str:
            lines = []
            for i in range(n):
                rotation = perturbation_matrix(random_perturbation(rng, limit=0.2))
                pose = np.column_stack([rotation, [0.1 * i, 0.0, 1.5 * i]])
                lines.append(" ".join(repr(v) for v in pose.ravel().tolist()) + "\n")
            return "".join(lines)

        gt_poses = tmp_path / "poses.txt"
        gt_poses.write_text(pose_lines(40))
        est_sidecar = tmp_path / "est.jsonl"
        est_sidecar.write_text("".join(
            json.dumps({"frame_id": f"{i:06d}", **dataclasses.asdict(random_perturbation(rng))})
            + "\n"
            for i in range(40)
        ))
        est_poses = tmp_path / "est-poses.txt"
        est_poses.write_text(pose_lines(40))
        for est in (est_sidecar, est_poses):
            for fmt in ("json", "csv"):
                args = ["pose-error", "--est", str(est), "--gt-poses", str(gt_poses),
                        "--format", fmt]
                pose_reports = []
                for name in ("a", "b"):
                    out = tmp_path / f"pose-{est.stem}-{name}.{fmt}"
                    assert main([*args, "--report", str(out)]) == 0
                    pose_reports.append(out.read_bytes())
                capsys.readouterr()
                assert main(args) == 0
                pose_reports.append(capsys.readouterr().out.encode())
                assert pose_reports[0] == pose_reports[1] == pose_reports[2]
                assert b"angular_error_deg_per_m" in pose_reports[0]


def test_10_trajectory_angular_error_rate(capsys, tmp_path):
    """A constant 0.1 rad pitch error over a 100 m straight trajectory
    normalizes to degrees(0.1)/100 = 0.0573 deg/m."""
    with announced(capsys, "10 trajectory angular-error rate"):
        poses = tmp_path / "poses.txt"
        poses.write_text(
            "".join(f"1 0 0 0 0 1 0 0 0 0 1 {i * 10.0}\n" for i in range(11))
        )
        estimates = tmp_path / "estimates.jsonl"
        estimates.write_text(
            "".join(
                json.dumps({"frame_id": f"{i:06d}", "pitch": 0.1, "roll": 0.0}) + "\n"
                for i in range(11)
            )
        )
        report_path = tmp_path / "report.json"
        assert (
            main(
                [
                    "pose-error",
                    "--est", str(estimates),
                    "--gt-poses", str(poses),
                    "--report", str(report_path),
                ]
            )
            == 0
        )
        report = json.loads(report_path.read_text())
        rate = report["angular_error_deg_per_m"]
        assert abs(rate - math.degrees(0.1) / 100.0) <= 1e-6
        assert rate == pytest.approx(0.0573, abs=5e-5)

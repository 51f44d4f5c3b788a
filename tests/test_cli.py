"""End-to-end exercises of the command-line interface.

Every invocation goes through ``main(argv)``, so exit codes, console
text, and produced artifacts are observed exactly as a shell user would
see them.  File-producing commands are additionally checked for
determinism (same inputs -> byte-identical outputs) and for leaving
their inputs untouched.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import helpers
from camperturb import (
    ExtrinsicPerturbation,
    FeatureTensor,
    RasterImage,
    horizon_vp_from_extrinsics,
    parse_label_file,
    rot_x,
    rot_z,
    write_image,
    write_label_file,
)
from camperturb.cli import _ordered_map, build_parser, main, run
from camperturb.tensorio import save_tensor


def tree_bytes(root: Path) -> dict[str, bytes]:
    """All files below ``root`` as {relative path: content}."""
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def write_dataset(root: Path, n_frames: int = 4, scores: bool = False):
    frames = helpers.desk_scene_frames(n_frames=n_frames)
    return helpers.write_kitti_dataset(root, frames, scores=scores)


def write_sidecar(path: Path, entries: dict[str, ExtrinsicPerturbation]) -> None:
    lines = [
        json.dumps(
            {"frame_id": fid, "pitch": p.pitch, "roll": p.roll}, sort_keys=True
        )
        for fid, p in sorted(entries.items())
    ]
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# simulate


class TestSimulate:
    def test_sigma_zero_reproduces_inputs_byte_for_byte(self, tmp_path):
        label_dir, calib_dir = write_dataset(tmp_path / "in")
        out = tmp_path / "out"
        code = main(
            [
                "simulate",
                "--labels", str(label_dir),
                "--calib", str(calib_dir),
                "--out", str(out),
                "--sigma-pitch", "0",
                "--sigma-roll", "0",
            ]
        )
        assert code == 0
        for src in sorted(label_dir.glob("*.txt")):
            assert (out / "labels" / src.name).read_bytes() == src.read_bytes()
        sidecar = (out / "perturbations.jsonl").read_text().splitlines()
        assert len(sidecar) == len(list(label_dir.glob("*.txt")))
        for line in sidecar:
            record = json.loads(line)
            assert record["pitch"] == 0.0
            assert record["roll"] == 0.0

    def test_summary_lines_printed(self, tmp_path, capsys):
        label_dir, calib_dir = write_dataset(tmp_path / "in", n_frames=3)
        assert (
            main(
                [
                    "simulate",
                    "--labels", str(label_dir),
                    "--calib", str(calib_dir),
                    "--out", str(tmp_path / "out"),
                ]
            )
            == 0
        )
        stdout = capsys.readouterr().out
        assert "frames processed: 3" in stdout
        assert "objects dropped:" in stdout
        assert "frame failures: 0" in stdout

    def test_same_seed_twice_is_byte_identical(self, tmp_path):
        label_dir, calib_dir = write_dataset(tmp_path / "in")
        argv = [
            "simulate",
            "--labels", str(label_dir),
            "--calib", str(calib_dir),
            "--seed", "42",
        ]
        assert main(argv + ["--out", str(tmp_path / "a")]) == 0
        assert main(argv + ["--out", str(tmp_path / "b")]) == 0
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    def test_different_seeds_differ(self, tmp_path):
        label_dir, calib_dir = write_dataset(tmp_path / "in")
        base = [
            "simulate",
            "--labels", str(label_dir),
            "--calib", str(calib_dir),
        ]
        assert main(base + ["--seed", "1", "--out", str(tmp_path / "a")]) == 0
        assert main(base + ["--seed", "2", "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "perturbations.jsonl").read_bytes() != (
            tmp_path / "b" / "perturbations.jsonl"
        ).read_bytes()

    def test_jobs_parallelism_does_not_change_artifacts(self, tmp_path):
        label_dir, calib_dir = write_dataset(tmp_path / "in", n_frames=6)
        base = [
            "simulate",
            "--labels", str(label_dir),
            "--calib", str(calib_dir),
            "--seed", "9",
        ]
        assert main(base + ["--jobs", "1", "--out", str(tmp_path / "a")]) == 0
        assert main(base + ["--jobs", "3", "--out", str(tmp_path / "b")]) == 0
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    def test_inputs_are_not_mutated(self, tmp_path):
        label_dir, calib_dir = write_dataset(tmp_path / "in")
        before = tree_bytes(tmp_path / "in")
        assert (
            main(
                [
                    "simulate",
                    "--labels", str(label_dir),
                    "--calib", str(calib_dir),
                    "--out", str(tmp_path / "out"),
                ]
            )
            == 0
        )
        assert tree_bytes(tmp_path / "in") == before

    def test_missing_calibration_path_exits_2_and_names_it(self, tmp_path, capsys):
        label_dir, _ = write_dataset(tmp_path / "in")
        missing = tmp_path / "no-such-calib"
        code = main(
            [
                "simulate",
                "--labels", str(label_dir),
                "--calib", str(missing),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert str(missing) in capsys.readouterr().err

    def test_missing_label_dir_exits_2(self, tmp_path, capsys):
        _, calib_dir = write_dataset(tmp_path / "in")
        code = main(
            [
                "simulate",
                "--labels", str(tmp_path / "absent"),
                "--calib", str(calib_dir),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert "absent" in capsys.readouterr().err

    def test_negative_sigma_flag_exits_1(self, tmp_path, capsys):
        label_dir, calib_dir = write_dataset(tmp_path / "in")
        code = main(
            [
                "simulate",
                "--labels", str(label_dir),
                "--calib", str(calib_dir),
                "--out", str(tmp_path / "out"),
                "--sigma-pitch", "-0.1",
            ]
        )
        assert code == 1
        assert "angle" in capsys.readouterr().err

    def test_sigma_zero_images_pass_through_byte_identical(self, tmp_path):
        root = tmp_path / "in"
        k_text = "P2: 100 0 16 0 0 100 12 0 0 0 1 0\n"
        label_dir = root / "label_2"
        calib_dir = root / "calib"
        image_dir = root / "image_2"
        for d in (label_dir, calib_dir, image_dir):
            d.mkdir(parents=True)
        rng = np.random.default_rng(5)
        from camperturb import CameraIntrinsics

        k = CameraIntrinsics(fx=100.0, fy=100.0, cx=16.0, cy=12.0)
        for i in range(3):
            box = helpers.make_box(x=0.0, y=1.5, z=20.0)
            label = helpers.make_label("Car", box, k=k)
            (label_dir / f"{i:06d}.txt").write_bytes(write_label_file([label]))
            (calib_dir / f"{i:06d}.txt").write_text(k_text)
            data = rng.integers(0, 256, size=(24, 32, 3)).astype(np.uint8)
            (image_dir / f"{i:06d}.ppm").write_bytes(
                write_image(RasterImage(data=data))
            )
        out = tmp_path / "out"
        code = main(
            [
                "simulate",
                "--labels", str(label_dir),
                "--calib", str(calib_dir),
                "--images", str(image_dir),
                "--out", str(out),
                "--sigma-pitch", "0",
                "--sigma-roll", "0",
            ]
        )
        assert code == 0
        for src in sorted(image_dir.glob("*.ppm")):
            assert (out / "images" / src.name).read_bytes() == src.read_bytes()

    def test_environment_seed_overrides_flag(self, tmp_path, monkeypatch):
        label_dir, calib_dir = write_dataset(tmp_path / "in")
        base = [
            "simulate",
            "--labels", str(label_dir),
            "--calib", str(calib_dir),
        ]
        monkeypatch.delenv("CAMPERTURB_SEED", raising=False)
        assert main(base + ["--seed", "123", "--out", str(tmp_path / "plain")]) == 0
        monkeypatch.setenv("CAMPERTURB_SEED", "123")
        assert main(base + ["--seed", "7", "--out", str(tmp_path / "env")]) == 0
        assert tree_bytes(tmp_path / "plain") == tree_bytes(tmp_path / "env")

    def test_environment_seed_must_be_an_integer(self, tmp_path, monkeypatch):
        label_dir, calib_dir = write_dataset(tmp_path / "in")
        monkeypatch.setenv("CAMPERTURB_SEED", "not-a-seed")
        code = main(
            [
                "simulate",
                "--labels", str(label_dir),
                "--calib", str(calib_dir),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 1


# ---------------------------------------------------------------------------
# config files


class TestConfigFile:
    def _dataset(self, tmp_path):
        return write_dataset(tmp_path / "in")

    def test_config_supplies_flags(self, tmp_path):
        label_dir, calib_dir = self._dataset(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# zero-perturbation run\n"
            "sigma-pitch = 0.0\n"
            "sigma-roll = 0.0\n"
        )
        out = tmp_path / "out"
        code = main(
            [
                "simulate",
                "--config", str(cfg),
                "--labels", str(label_dir),
                "--calib", str(calib_dir),
                "--out", str(out),
            ]
        )
        assert code == 0
        for src in sorted(label_dir.glob("*.txt")):
            assert (out / "labels" / src.name).read_bytes() == src.read_bytes()

    def test_explicit_flags_beat_config_values(self, tmp_path):
        label_dir, calib_dir = self._dataset(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sigma-pitch = 0.3\nsigma-roll = 0.0\n")
        out = tmp_path / "out"
        code = main(
            [
                "simulate",
                "--config", str(cfg),
                "--labels", str(label_dir),
                "--calib", str(calib_dir),
                "--out", str(out),
                "--sigma-pitch", "0.0",
            ]
        )
        assert code == 0
        for line in (out / "perturbations.jsonl").read_text().splitlines():
            record = json.loads(line)
            assert record["pitch"] == 0.0
            assert record["roll"] == 0.0

    def test_unknown_config_key_exits_1(self, tmp_path, capsys):
        label_dir, calib_dir = self._dataset(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sigma = 0.1\n")
        code = main(
            [
                "simulate",
                "--config", str(cfg),
                "--labels", str(label_dir),
                "--calib", str(calib_dir),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "sigma" in err and "unknown" in err

    def test_malformed_config_line_exits_1(self, tmp_path, capsys):
        label_dir, calib_dir = self._dataset(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sigma-pitch 0.1\n")
        code = main(
            [
                "simulate",
                "--config", str(cfg),
                "--labels", str(label_dir),
                "--calib", str(calib_dir),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 1
        assert "key=value" in capsys.readouterr().err

    def test_bad_config_value_exits_1(self, tmp_path, capsys):
        label_dir, calib_dir = self._dataset(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sigma-pitch = banana\n")
        code = main(
            [
                "simulate",
                "--config", str(cfg),
                "--labels", str(label_dir),
                "--calib", str(calib_dir),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 1
        assert "sigma-pitch" in capsys.readouterr().err

    def test_non_utf8_config_exits_1(self, tmp_path, capsys):
        label_dir, calib_dir = self._dataset(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"seed=\xff\xfe\n")
        code = main(
            [
                "simulate",
                "--config", str(cfg),
                "--labels", str(label_dir),
                "--calib", str(calib_dir),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 1
        assert "cannot read config file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "subcommand", ["simulate", "evaluate", "rectify", "pose-error", "loss"]
    )
    def test_config_keys_are_exactly_the_long_flags(self, tmp_path, capsys, subcommand):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("no-such-key = 1\n")
        assert main([subcommand, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        config_keys = set(err.rsplit("known keys: ", 1)[1].strip().split(", "))
        subparsers = next(
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        flags = {
            flag[2:]
            for action in subparsers.choices[subcommand]._actions
            for flag in action.option_strings
            if flag.startswith("--")
        }
        assert config_keys == flags - {"config", "help"}


# ---------------------------------------------------------------------------
# evaluate


def write_eval_dirs(root: Path, frames, det_labels_by_frame) -> tuple[Path, Path]:
    """Ground truth from ``frames``; detections supplied per frame id."""
    gt_dir = root / "gt"
    det_dir = root / "det"
    gt_dir.mkdir(parents=True, exist_ok=True)
    det_dir.mkdir(parents=True, exist_ok=True)
    for frame in frames:
        (gt_dir / f"{frame.frame_id}.txt").write_bytes(
            write_label_file(list(frame.labels))
        )
        dets = det_labels_by_frame.get(frame.frame_id, [])
        (det_dir / f"{frame.frame_id}.txt").write_bytes(write_label_file(dets))
    return gt_dir, det_dir


class TestEvaluate:
    def _perfect_dirs(self, root: Path, n_frames: int = 4):
        """Detections identical to ground truth (plus scores)."""
        frames = helpers.desk_scene_frames(n_frames=n_frames)
        label_dir, _ = helpers.write_kitti_dataset(root / "written", frames)
        reloaded = helpers.reload_frames(label_dir, root / "written" / "calib")
        dets = {
            f.frame_id: [helpers.with_score(lab, 0.9) for lab in f.labels]
            for f in reloaded
        }
        return write_eval_dirs(root, reloaded, dets)

    def test_detections_equal_ground_truth_scores_100(self, tmp_path, capsys):
        gt_dir, det_dir = self._perfect_dirs(tmp_path)
        code = main(
            [
                "evaluate",
                "--gt", str(gt_dir),
                "--det", str(det_dir),
                "--metrics", "ap2d,apbev,ap3d,aos",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        cells = report["cells"]
        assert len(cells) == 4 * 3  # four metrics x three difficulty bins
        for cell in cells:
            assert cell["value"] == 100.0

    def test_empty_detection_directory_scores_zero(self, tmp_path, capsys):
        frames = helpers.desk_scene_frames(n_frames=3)
        gt_dir, det_dir = write_eval_dirs(tmp_path, frames, {})
        for p in det_dir.glob("*.txt"):
            p.unlink()
        code = main(["evaluate", "--gt", str(gt_dir), "--det", str(det_dir)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        for cell in report["cells"]:
            assert cell["value"] == 0.0

    def test_two_ground_truths_one_detection_scores_50(self, tmp_path, capsys):
        from camperturb import SceneFrame

        gt = [
            helpers.make_label("Car", helpers.make_box(x=-3.0, z=15.0)),
            helpers.make_label("Car", helpers.make_box(x=3.0, z=15.0)),
        ]
        frame = SceneFrame(
            frame_id="000000",
            intrinsics=helpers.DEFAULT_K,
            labels=tuple(gt),
            image_size=(1242, 375),
        )
        det = [helpers.with_score(gt[0], 0.9)]
        gt_dir, det_dir = write_eval_dirs(tmp_path, [frame], {"000000": det})
        code = main(["evaluate", "--gt", str(gt_dir), "--det", str(det_dir)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        for cell in report["cells"]:
            assert cell["value"] == 50.0

    def test_class_without_ground_truth_reports_na(self, tmp_path, capsys):
        gt_dir, det_dir = self._perfect_dirs(tmp_path, n_frames=2)
        code = main(
            [
                "evaluate",
                "--gt", str(gt_dir),
                "--det", str(det_dir),
                "--classes", "Car,Pedestrian",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        by_class = {}
        for cell in report["cells"]:
            by_class.setdefault(cell["class"], set()).add(cell["value"])
        assert by_class["Car"] == {100.0}
        assert by_class["Pedestrian"] == {"n/a"}

    def test_one_matching_pass_per_kind_and_difficulty(
        self, tmp_path, capsys, monkeypatch
    ):
        import camperturb.metrics as metrics
        from camperturb import (
            DetectionFrame,
            DifficultyBin,
            SceneFrame,
            average_orientation_similarity,
            average_precision_40,
        )

        classes = ("Car", "Pedestrian", "Cyclist")
        rng = np.random.default_rng(311)
        frames, dets = [], {}
        for i in range(5):
            gt, det = [], []
            for j in range(6):
                box = helpers.make_box(
                    x=float(rng.uniform(-8.0, 8.0)),
                    z=float(rng.uniform(8.0, 40.0)),
                    yaw=float(rng.uniform(-3.0, 3.0)),
                )
                label = helpers.make_label(classes[j % 3], box, occluded=int(rng.integers(0, 3)))
                gt.append(label)
                moved = dataclasses.replace(
                    box,
                    center=dataclasses.replace(
                        box.center,
                        x=box.center.x + float(rng.normal(0.0, 0.3)),
                        z=box.center.z + float(rng.normal(0.0, 0.5)),
                    ),
                )
                found = helpers.make_label(label.class_name, moved, alpha=label.alpha + 0.2)
                det.append(helpers.with_score(found, float(rng.random())))
            stray = helpers.make_label(classes[i % 3], helpers.make_box(x=-2.0, z=12.0))
            det.append(helpers.with_score(stray, float(rng.random())))
            frames.append(
                SceneFrame(
                    frame_id=f"{i:06d}",
                    intrinsics=helpers.DEFAULT_K,
                    labels=tuple(gt),
                    image_size=(1242, 375),
                )
            )
            dets[f"{i:06d}"] = det
        gt_dir, det_dir = write_eval_dirs(tmp_path, frames, dets)

        calls = []
        real_match_frame = metrics.match_frame

        def counting_match_frame(*args, **kwargs):
            calls.append(args[1:])
            return real_match_frame(*args, **kwargs)

        monkeypatch.setattr(metrics, "match_frame", counting_match_frame)
        code = main(
            [
                "evaluate",
                "--gt", str(gt_dir),
                "--det", str(det_dir),
                "--classes", ",".join(classes),
                "--metrics", "ap2d,apbev,ap3d,aos",
                "--iou-threshold", "0.5",
            ]
        )
        assert code == 0
        assert len(calls) == len(frames) * 3 * 3

        loaded = [
            DetectionFrame(
                frame_id=f.frame_id,
                ground_truth=tuple(
                    parse_label_file((gt_dir / f"{f.frame_id}.txt").read_bytes())
                ),
                detections=tuple(
                    parse_label_file((det_dir / f"{f.frame_id}.txt").read_bytes())
                ),
            )
            for f in frames
        ]
        cells = json.loads(capsys.readouterr().out)["cells"]
        assert len(cells) == 4 * 3 * 3
        kinds = {"ap2d": "2d", "apbev": "bev", "ap3d": "3d"}
        for cell in cells:
            bin_ = DifficultyBin[cell["difficulty"].upper()]
            if cell["metric"] == "aos":
                expected, _ = average_orientation_similarity(
                    loaded, cell["class"], 0.5, bin_
                )
            else:
                expected, _ = average_precision_40(
                    loaded, cell["class"], kinds[cell["metric"]], 0.5, bin_
                )
            assert cell["value"] == expected
        assert any(0.0 < cell["value"] < 100.0 for cell in cells)

    def test_nuscenes_cells_for_perfect_detections(self, tmp_path, capsys):
        gt_dir, det_dir = self._perfect_dirs(tmp_path, n_frames=2)
        code = main(
            [
                "evaluate",
                "--gt", str(gt_dir),
                "--det", str(det_dir),
                "--metrics", "nuscenes",
                "--match-radius", "1.5",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        cells = {c["metric"]: c for c in report["cells"]}
        assert set(cells) == {"nuscenes_ate", "nuscenes_ase", "nuscenes_aoe"}
        for cell in cells.values():
            assert cell["difficulty"] == "all"
            assert cell["threshold"] == 1.5
            assert cell["value"] == 0.0
        assert cells["nuscenes_aoe"]["value_degrees"] == 0.0

    def test_disturbed_directory_adds_decrease_column(self, tmp_path, capsys):
        gt_dir, det_dir = self._perfect_dirs(tmp_path, n_frames=3)
        empty_det = tmp_path / "empty-det"
        empty_det.mkdir()
        code = main(
            [
                "evaluate",
                "--gt", str(gt_dir),
                "--det", str(det_dir),
                "--det-disturbed", str(empty_det),
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        for cell in report["cells"]:
            assert cell["original"] == 100.0
            assert cell["disturbed"] == 0.0
            assert cell["decrease"] == -100.0
            assert "value" not in cell

    def test_report_parameters_block(self, tmp_path, capsys):
        gt_dir, det_dir = self._perfect_dirs(tmp_path, n_frames=2)
        code = main(
            [
                "evaluate",
                "--gt", str(gt_dir),
                "--det", str(det_dir),
                "--difficulties", "moderate",
                "--iou-threshold", "0.5",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["parameters"] == {
            "classes": ["Car"],
            "difficulties": ["moderate"],
            "iou_threshold": 0.5,
            "match_radius": 2.0,
            "metrics": ["ap3d"],
            "frames": 2,
        }
        assert [c["difficulty"] for c in report["cells"]] == ["moderate"]
        assert all(c["threshold"] == 0.5 for c in report["cells"])

    def test_csv_format(self, tmp_path):
        gt_dir, det_dir = self._perfect_dirs(tmp_path, n_frames=2)
        out = tmp_path / "report.csv"
        code = main(
            [
                "evaluate",
                "--gt", str(gt_dir),
                "--det", str(det_dir),
                "--format", "csv",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "metric,class,difficulty,threshold,value"
        assert len(lines) == 1 + 3
        for line in lines[1:]:
            assert line.startswith("ap3d,Car,")
            assert line.endswith(",100.0")

    def test_unknown_metric_exits_1(self, tmp_path, capsys):
        gt_dir, det_dir = self._perfect_dirs(tmp_path, n_frames=1)
        code = main(
            [
                "evaluate",
                "--gt", str(gt_dir),
                "--det", str(det_dir),
                "--metrics", "map50",
            ]
        )
        assert code == 1
        assert "map50" in capsys.readouterr().err

    def test_missing_ground_truth_dir_exits_2(self, tmp_path, capsys):
        code = main(
            [
                "evaluate",
                "--gt", str(tmp_path / "nope"),
                "--det", str(tmp_path / "nope"),
            ]
        )
        assert code == 2
        assert "nope" in capsys.readouterr().err

    def test_report_bytes_stable_across_runs_and_jobs(self, tmp_path):
        gt_dir, det_dir = self._perfect_dirs(tmp_path, n_frames=4)
        outputs = []
        for name, jobs in (("a", "1"), ("b", "1"), ("c", "3")):
            out = tmp_path / f"report-{name}.json"
            code = main(
                [
                    "evaluate",
                    "--gt", str(gt_dir),
                    "--det", str(det_dir),
                    "--jobs", jobs,
                    "--out", str(out),
                ]
            )
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]


# ---------------------------------------------------------------------------
# rectify


class TestRectify:
    def test_identity_sidecar_reproduces_inputs(self, tmp_path):
        label_dir, calib_dir = write_dataset(tmp_path / "in", n_frames=3)
        sidecar = tmp_path / "zeros.jsonl"
        write_sidecar(
            sidecar,
            {
                p.stem: ExtrinsicPerturbation(pitch=0.0, roll=0.0)
                for p in label_dir.glob("*.txt")
            },
        )
        out = tmp_path / "out"
        code = main(
            [
                "rectify",
                "--det", str(label_dir),
                "--calib", str(calib_dir),
                "--sidecar", str(sidecar),
                "--out", str(out),
            ]
        )
        assert code == 0
        for src in sorted(label_dir.glob("*.txt")):
            assert (out / src.name).read_bytes() == src.read_bytes()

    def test_undo_after_simulate_restores_centers(self, tmp_path):
        """simulate then rectify --direction undo: centers return to the
        originals up to the label format's fixed-point quantum."""
        label_dir, calib_dir = write_dataset(tmp_path / "in", n_frames=5)
        sim_out = tmp_path / "sim"
        assert (
            main(
                [
                    "simulate",
                    "--labels", str(label_dir),
                    "--calib", str(calib_dir),
                    "--out", str(sim_out),
                    "--seed", "3",
                ]
            )
            == 0
        )
        rect_out = tmp_path / "rect"
        code = main(
            [
                "rectify",
                "--det", str(sim_out / "labels"),
                "--calib", str(calib_dir),
                "--sidecar", str(sim_out / "perturbations.jsonl"),
                "--direction", "undo",
                "--out", str(rect_out),
            ]
        )
        assert code == 0
        for src in sorted(label_dir.glob("*.txt")):
            original = parse_label_file(src.read_bytes())
            restored = parse_label_file((rect_out / src.name).read_bytes())
            assert len(restored) == len(original)
            for before, after in zip(original, restored):
                assert after.class_name == before.class_name
                distance = math.sqrt(
                    (after.x - before.x) ** 2
                    + (after.y - before.y) ** 2
                    + (after.z - before.z) ** 2
                )
                assert distance < 0.02
                assert abs(after.rotation_y - before.rotation_y) < 0.02

    def test_horizon_annotations_recover_truth_extrinsics(self, tmp_path):
        """Extrinsics read back from horizon/VP annotations must agree with
        the truth sidecar to well under a millionth of a degree."""
        label_dir, calib_dir = write_dataset(tmp_path / "in", n_frames=4)
        rng = np.random.default_rng(11)
        truth = {
            p.stem: ExtrinsicPerturbation(
                pitch=float(rng.uniform(-0.05, 0.05)),
                roll=float(rng.uniform(-0.05, 0.05)),
            )
            for p in label_dir.glob("*.txt")
        }
        truth_sidecar = tmp_path / "truth.jsonl"
        write_sidecar(truth_sidecar, truth)
        annotations = tmp_path / "horizon.jsonl"
        lines = []
        for fid, p in sorted(truth.items()):
            horizon, vp = horizon_vp_from_extrinsics(p, helpers.DEFAULT_K)
            lines.append(
                json.dumps(
                    {
                        "frame_id": fid,
                        "slope": horizon.slope,
                        "intercept_v": horizon.intercept_v,
                        "vp_u": vp.u,
                        "vp_v": vp.v,
                    },
                    sort_keys=True,
                )
            )
        annotations.write_text("\n".join(lines) + "\n")
        report_path = tmp_path / "report.json"
        code = main(
            [
                "rectify",
                "--det", str(label_dir),
                "--calib", str(calib_dir),
                "--horizon", str(annotations),
                "--truth-sidecar", str(truth_sidecar),
                "--out", str(tmp_path / "out"),
                "--report", str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["angular_error"]["mean_deg"] < 1e-6
        assert len(report["angular_error"]["per_frame_deg"]) == 4

    def test_requires_exactly_one_estimate_source(self, tmp_path, capsys):
        label_dir, calib_dir = write_dataset(tmp_path / "in", n_frames=1)
        base = [
            "rectify",
            "--det", str(label_dir),
            "--calib", str(calib_dir),
            "--out", str(tmp_path / "out"),
        ]
        assert main(base) == 1
        sidecar = tmp_path / "zeros.jsonl"
        write_sidecar(sidecar, {"000000": ExtrinsicPerturbation(0.0, 0.0)})
        assert (
            main(base + ["--sidecar", str(sidecar), "--horizon", str(sidecar)]) == 1
        )

    def test_invalid_direction_exits_1(self, tmp_path, capsys):
        label_dir, calib_dir = write_dataset(tmp_path / "in", n_frames=1)
        sidecar = tmp_path / "zeros.jsonl"
        write_sidecar(sidecar, {"000000": ExtrinsicPerturbation(0.0, 0.0)})
        code = main(
            [
                "rectify",
                "--det", str(label_dir),
                "--calib", str(calib_dir),
                "--sidecar", str(sidecar),
                "--direction", "sideways",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 1
        assert "sideways" in capsys.readouterr().err

    def test_frame_missing_from_sidecar_is_reported(self, tmp_path, capsys):
        label_dir, calib_dir = write_dataset(tmp_path / "in", n_frames=2)
        sidecar = tmp_path / "partial.jsonl"
        write_sidecar(sidecar, {"000000": ExtrinsicPerturbation(0.0, 0.0)})
        code = main(
            [
                "rectify",
                "--det", str(label_dir),
                "--calib", str(calib_dir),
                "--sidecar", str(sidecar),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 0  # one frame still succeeds
        stdout = capsys.readouterr().out
        assert "frame failures: 1" in stdout
        assert "000001" in stdout

    def test_non_finite_horizon_annotation_exits_2_naming_the_line(
        self, tmp_path, capsys
    ):
        label_dir, calib_dir = write_dataset(tmp_path / "in", n_frames=2)
        annotations = tmp_path / "horizon.jsonl"
        annotations.write_text(
            '{"frame_id": "000000", "slope": 0.0, "intercept_v": 40.0, '
            '"vp_u": 60.0, "vp_v": 40.0}\n'
            '{"frame_id": "000001", "slope": Infinity, "intercept_v": 40.0, '
            '"vp_u": 60.0, "vp_v": 40.0}\n'
        )
        code = main(
            [
                "rectify",
                "--det", str(label_dir),
                "--calib", str(calib_dir),
                "--horizon", str(annotations),
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert f"horizon annotations {annotations} line 2" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# pose-error


def write_straight_poses(path: Path, n: int, step: float) -> None:
    """Identity-rotation poses marching down +z, ``step`` metres apart."""
    lines = []
    for i in range(n):
        z = i * step
        lines.append(f"1 0 0 0 0 1 0 0 0 0 1 {z}")
    path.write_text("\n".join(lines) + "\n")


def write_estimates(path: Path, n: int, pitch: float, roll: float = 0.0) -> None:
    lines = [
        json.dumps({"frame_id": f"{i:06d}", "pitch": pitch, "roll": roll})
        for i in range(n)
    ]
    path.write_text("\n".join(lines) + "\n")


class TestPoseError:
    def test_identical_rotations_give_zero(self, tmp_path, capsys):
        poses = tmp_path / "poses.txt"
        write_straight_poses(poses, 5, 10.0)
        est = tmp_path / "est.jsonl"
        write_estimates(est, 5, pitch=0.0)
        code = main(["pose-error", "--est", str(est), "--gt-poses", str(poses)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mean_angular_error_deg"] == 0.0
        assert report["angular_error_deg_per_m"] == 0.0
        assert report["path_length_m"] == 40.0
        assert report["frames"] == 5

    def test_pitch_offset_normalized_by_path_length(self, tmp_path, capsys):
        """A constant 0.1 rad pitch error over a 100 m straight drive."""
        poses = tmp_path / "poses.txt"
        write_straight_poses(poses, 11, 10.0)
        est = tmp_path / "est.jsonl"
        write_estimates(est, 11, pitch=0.1)
        code = main(["pose-error", "--est", str(est), "--gt-poses", str(poses)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        expected = math.degrees(0.1) / 100.0
        assert report["angular_error_deg_per_m"] == pytest.approx(expected, abs=1e-9)
        assert report["angular_error_deg_per_m"] == pytest.approx(0.0573, abs=5e-5)
        assert report["mean_angular_error_deg"] == pytest.approx(
            math.degrees(0.1), abs=1e-9
        )

    def test_pose_file_as_estimates(self, tmp_path, capsys):
        poses = tmp_path / "poses.txt"
        write_straight_poses(poses, 4, 5.0)
        code = main(["pose-error", "--est", str(poses), "--gt-poses", str(poses)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mean_angular_error_deg"] == 0.0

    def test_frame_count_mismatch_exits_1(self, tmp_path, capsys):
        poses = tmp_path / "poses.txt"
        write_straight_poses(poses, 5, 10.0)
        est = tmp_path / "est.jsonl"
        write_estimates(est, 3, pitch=0.0)
        code = main(["pose-error", "--est", str(est), "--gt-poses", str(poses)])
        assert code == 1
        err = capsys.readouterr().err
        assert "3" in err and "5" in err

    def test_csv_format(self, tmp_path, capsys):
        poses = tmp_path / "poses.txt"
        write_straight_poses(poses, 3, 1.0)
        est = tmp_path / "est.jsonl"
        write_estimates(est, 3, pitch=0.0)
        code = main(
            [
                "pose-error",
                "--est", str(est),
                "--gt-poses", str(poses),
                "--format", "csv",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "quantity,value"
        quantities = {line.split(",")[0] for line in lines[1:]}
        assert "angular_error_deg_per_m" in quantities

    def test_missing_estimates_file_exits_2(self, tmp_path, capsys):
        poses = tmp_path / "poses.txt"
        write_straight_poses(poses, 3, 1.0)
        code = main(
            ["pose-error", "--est", str(tmp_path / "gone"), "--gt-poses", str(poses)]
        )
        assert code == 2

    def test_poses_at_kitti_precision(self, tmp_path, capsys):
        """KITTI pose files carry %e values: 7 digits, orthogonal only to ~1e-7."""
        rng = np.random.default_rng(31)
        lines = []
        for i in range(5):
            a, b, c = rng.uniform(-math.pi / 2, math.pi / 2, size=3)
            rot = rot_x(a) @ rot_z(b) @ rot_x(c)
            pose = np.column_stack([rot, [0.0, 0.0, 10.0 * i]])
            lines.append(" ".join(f"{v:e}" for v in pose.ravel()))
        poses = tmp_path / "poses.txt"
        poses.write_text("\n".join(lines) + "\n")
        code = main(["pose-error", "--est", str(poses), "--gt-poses", str(poses)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mean_angular_error_deg"] < 1e-5


# ---------------------------------------------------------------------------
# loss


def save_feature(path: Path, data) -> Path:
    save_tensor(path, FeatureTensor(data=np.asarray(data, dtype=np.float64)))
    return path


class TestLoss:
    def test_identical_tensors_give_zero_losses(self, tmp_path, capsys):
        rng = np.random.default_rng(21)
        data = rng.normal(size=(3, 4, 5))
        out = save_feature(tmp_path / "out.ftb", data)
        content = save_feature(tmp_path / "content.ftb", data)
        style = save_feature(tmp_path / "style.ftb", data)
        code = main(
            [
                "loss",
                "--output", str(out),
                "--content", str(content),
                "--style", str(style),
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["content_loss"] == 0.0
        assert report["style_losses"] == [0.0]
        assert report["total_loss"] == 0.0

    def test_style_loss_worked_example(self, tmp_path, capsys):
        out = save_feature(tmp_path / "out.ftb", [[[2.0]], [[3.0]]])
        content = save_feature(tmp_path / "content.ftb", [[[2.0]], [[3.0]]])
        style = save_feature(tmp_path / "style.ftb", np.zeros((2, 1, 1)))
        code = main(
            [
                "loss",
                "--output", str(out),
                "--content", str(content),
                "--style", str(style),
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["content_loss"] == 0.0
        assert report["style_losses"] == [42.25]
        assert report["style_loss_sum"] == 42.25
        assert report["total_loss"] == 42.25

    def test_style_weight_scales_total(self, tmp_path, capsys):
        out = save_feature(tmp_path / "out.ftb", [[[2.0]], [[3.0]]])
        content = save_feature(tmp_path / "content.ftb", [[[2.0]], [[3.0]]])
        style = save_feature(tmp_path / "style.ftb", np.zeros((2, 1, 1)))
        code = main(
            [
                "loss",
                "--output", str(out),
                "--content", str(content),
                "--style", str(style),
                "--gamma-style", "2.0",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["total_loss"] == 84.5

    def test_gradient_check_matches_finite_differences(self, tmp_path, capsys):
        rng = np.random.default_rng(33)
        out = save_feature(tmp_path / "out.ftb", rng.normal(size=(3, 4, 5)))
        content = save_feature(
            tmp_path / "content.ftb", rng.normal(size=(3, 4, 5))
        )
        style = save_feature(tmp_path / "style.ftb", rng.normal(size=(3, 2, 6)))
        code = main(
            [
                "loss",
                "--output", str(out),
                "--content", str(content),
                "--style", str(style),
                "--grad-check",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["grad_check"]["max_relative_error"] < 1e-5
        assert report["grad_check"]["coords_checked"] == 60

    def test_shape_mismatch_exits_1_with_both_shapes(self, tmp_path, capsys):
        out = save_feature(tmp_path / "out.ftb", np.zeros((2, 1, 1)))
        content = save_feature(tmp_path / "content.ftb", np.zeros((3, 1, 1)))
        code = main(["loss", "--output", str(out), "--content", str(content)])
        assert code == 1
        err = capsys.readouterr().err
        assert "(2, 1, 1)" in err and "(3, 1, 1)" in err

    def test_channel_mismatch_exits_1(self, tmp_path, capsys):
        out = save_feature(tmp_path / "out.ftb", np.zeros((2, 2, 2)))
        content = save_feature(tmp_path / "content.ftb", np.zeros((2, 2, 2)))
        style = save_feature(tmp_path / "style.ftb", np.zeros((3, 2, 2)))
        code = main(
            [
                "loss",
                "--output", str(out),
                "--content", str(content),
                "--style", str(style),
            ]
        )
        assert code == 1
        assert "channel" in capsys.readouterr().err

    def test_report_written_to_file(self, tmp_path):
        data = np.ones((2, 2, 2))
        out = save_feature(tmp_path / "out.ftb", data)
        content = save_feature(tmp_path / "content.ftb", data)
        report_path = tmp_path / "loss.json"
        code = main(
            [
                "loss",
                "--output", str(out),
                "--content", str(content),
                "--report", str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["total_loss"] == 0.0

    def test_missing_tensor_file_exits_2(self, tmp_path, capsys):
        out = save_feature(tmp_path / "out.ftb", np.zeros((2, 1, 1)))
        code = main(
            ["loss", "--output", str(out), "--content", str(tmp_path / "gone.ftb")]
        )
        assert code == 2


# ---------------------------------------------------------------------------
# top-level behaviour


class TestEntryPoint:
    def test_no_subcommand_exits_1(self, capsys):
        assert main([]) == 1
        assert "subcommand" in capsys.readouterr().err

    def test_unknown_flag_exits_1(self, tmp_path, capsys):
        assert main(["simulate", "--no-such-flag", "1"]) == 1

    def test_missing_required_flag_exits_1(self, tmp_path, capsys):
        assert main(["simulate", "--labels", str(tmp_path)]) == 1
        assert "required" in capsys.readouterr().err

    def test_run_wrapper_raises_system_exit(self, tmp_path, monkeypatch):
        data = np.ones((1, 2, 2))
        out = save_feature(tmp_path / "out.ftb", data)
        content = save_feature(tmp_path / "content.ftb", data)
        monkeypatch.setattr(
            "sys.argv",
            [
                "camperturb",
                "loss",
                "--output", str(out),
                "--content", str(content),
                "--report", str(tmp_path / "r.json"),
            ],
        )
        with pytest.raises(SystemExit) as excinfo:
            run()
        assert excinfo.value.code == 0


@pytest.mark.parametrize("jobs", [1, 3])
def test_ordered_map_keeps_input_order_within_a_bounded_window(jobs):
    """Results come back in input order although later items finish first,
    and no more than 2 x jobs results are ever started but not yet taken."""
    lock = threading.Lock()
    started = 0
    taken = 0
    most_ahead = 0

    def fn(i):
        nonlocal started, most_ahead
        with lock:
            started += 1
            most_ahead = max(most_ahead, started - taken)
        time.sleep(0.001 * (5 - i % 5))
        return i

    results = []
    for value in _ordered_map(fn, range(40), jobs):
        with lock:
            taken += 1
        results.append(value)
        time.sleep(0.0005)
    assert results == list(range(40))
    assert 1 <= most_ahead <= 2 * jobs

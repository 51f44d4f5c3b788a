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
import hashlib
import json
import math
import operator
import os
import subprocess
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import helpers
import oracles
from camperturb import (
    ExtrinsicPerturbation,
    FeatureTensor,
    PerturbationSpec,
    RasterImage,
    horizon_vp_from_extrinsics,
    parse_label_file,
    parse_odometry_poses,
    perturbation_matrix,
    rot_x,
    rot_z,
    sample_perturbation,
    transform_labels,
    write_image,
    write_label_file,
)
from camperturb import losses
from camperturb._frames import _ordered_map
from camperturb.cli import build_parser, main, run
from camperturb.geometry import _perturbation_matrices
from camperturb.horizon import _angular_errors
from camperturb.tensorio import load_tensor, save_tensor


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


def occupy(path: Path, kind: str) -> None:
    """Put a directory entry at ``path`` that is no readable file: a dangling link
    (``kind`` "dangling") or a directory."""
    if kind == "dangling":
        path.symlink_to(path.parent / "nowhere")
    else:
        path.mkdir()


def write_image_dataset(root: Path, n_frames: int = 2) -> tuple[Path, Path, Path]:
    """Small labelled .ppm frames; returns (label_dir, calib_dir, image_dir)."""
    from camperturb import CameraIntrinsics

    label_dir, calib_dir, image_dir = root / "label_2", root / "calib", root / "image_2"
    for d in (label_dir, calib_dir, image_dir):
        d.mkdir(parents=True)
    k = CameraIntrinsics(fx=100.0, fy=100.0, cx=16.0, cy=12.0)
    rng = np.random.default_rng(17)
    for i in range(n_frames):
        label = helpers.make_label("Car", helpers.make_box(x=0.0, y=1.5, z=20.0), k=k)
        (label_dir / f"{i:06d}.txt").write_bytes(write_label_file([label]))
        helpers.write_calib(calib_dir / f"{i:06d}.txt", "P2: 100 0 16 0 0 100 12 0 0 0 1 0\n")
        data = rng.integers(0, 256, size=(24, 32, 3)).astype(np.uint8)
        (image_dir / f"{i:06d}.ppm").write_bytes(write_image(RasterImage(data=data)))
    return label_dir, calib_dir, image_dir


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
        label_dir, calib_dir, image_dir = write_image_dataset(tmp_path / "img", n_frames=6)
        base = [
            "simulate",
            "--labels", str(label_dir),
            "--calib", str(calib_dir),
            "--images", str(image_dir),
            "--seed", "9",
            "--fill", "77",
        ]
        assert main(base + ["--jobs", "1", "--out", str(tmp_path / "c")]) == 0
        assert main(base + ["--jobs", "3", "--out", str(tmp_path / "d")]) == 0
        images = tree_bytes(tmp_path / "c")
        assert images == tree_bytes(tmp_path / "d")
        assert len([name for name in images if name.startswith("images")]) == 6

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
        label_dir, calib_dir, image_dir = write_image_dataset(tmp_path / "in", n_frames=3)
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

    def test_missing_image_fails_its_frame(self, tmp_path, capsys):
        label_dir, calib_dir, image_dir = write_image_dataset(tmp_path / "in", n_frames=3)
        images = sorted(image_dir.glob("*.ppm"))
        images[1].unlink()
        argv = [
            "simulate",
            "--labels", str(label_dir),
            "--calib", str(calib_dir),
            "--images", str(image_dir),
        ]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        frame_id = images[1].stem
        assert "frames processed: 2" in out
        assert "frame failures: 1" in out
        reason = f"no image {frame_id}.ppm or {frame_id}.pgm in {image_dir}"
        assert f"  {frame_id}: {reason}" in out
        assert not (tmp_path / "out" / "labels" / f"{frame_id}.txt").exists()
        assert len((tmp_path / "out" / "perturbations.jsonl").read_text().splitlines()) == 2
        for image in images:
            image.unlink(missing_ok=True)
        assert main([*argv, "--out", str(tmp_path / "none")]) == 2
        assert "frame failures: 3" in capsys.readouterr().out

    @pytest.mark.parametrize("kind", ["dangling", "directory"])
    def test_image_entry_that_is_no_file_fails_its_frame_naming_it(self, tmp_path, capsys, kind):
        """Only a path with no directory entry is a missing image."""
        label_dir, calib_dir, image_dir = write_image_dataset(tmp_path / "in", n_frames=3)
        image = sorted(image_dir.glob("*.ppm"))[1]
        image.unlink()
        occupy(image, kind)
        assert main([
            "simulate", "--labels", str(label_dir), "--calib", str(calib_dir),
            "--images", str(image_dir), "--out", str(tmp_path / "out"),
        ]) == 0
        out = capsys.readouterr().out
        assert "frames processed: 2" in out
        assert f"  {image.stem}: cannot read image {image}: " in out

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
        real_pair_ious = metrics._pair_ious

        def counting_pair_ious(kinds, *args):
            calls.append(kinds)
            return real_pair_ious(kinds, *args)

        binned = []
        real_bins_of = metrics._bins_of

        def counting_bins_of(table):
            binned.extend(table.names)
            return real_bins_of(table)

        monkeypatch.setattr(metrics, "_pair_ious", counting_pair_ious)
        monkeypatch.setattr(metrics, "_bins_of", counting_bins_of)
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
        # the chunk's pairs are scored by one 2d call and one shared bev/3d call,
        # for all frames and all three difficulties
        assert calls == [("2d",), ("bev", "3d")]
        # and each ground-truth row is binned once, for every IoU kind
        assert len(binned) == sum(len(f.labels) for f in frames)

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

    def test_disturbed_run_reads_each_ground_truth_file_once(
        self, tmp_path, capsys, monkeypatch
    ):
        import camperturb.cli as cli

        gt_dir, det_dir = self._perfect_dirs(tmp_path, n_frames=3)
        reads = []
        read_bytes = cli._read_bytes

        def counting(path, what):
            reads.append(path)
            return read_bytes(path, what)

        monkeypatch.setattr(cli, "_read_bytes", counting)
        code = main(
            [
                "evaluate",
                "--gt", str(gt_dir),
                "--det", str(det_dir),
                "--det-disturbed", str(det_dir),
                "--metrics", "ap3d,nuscenes",
            ]
        )
        assert code == 0
        gt_reads = sorted(p.name for p in reads if p.parent == gt_dir)
        assert gt_reads == sorted(p.name for p in gt_dir.glob("*.txt"))

    def test_ab_cells_equal_two_single_set_runs(self, tmp_path, capsys):
        gt_dir, det_dir = self._perfect_dirs(tmp_path, n_frames=3)
        empty_det = tmp_path / "empty-det"  # no matches: nuScenes cells read n/a
        empty_det.mkdir()
        common = ["--gt", str(gt_dir), "--classes", "Car,Pedestrian",
                  "--metrics", "ap3d,nuscenes"]

        def cells(*extra):
            assert main(["evaluate", *common, *extra]) == 0
            return json.loads(capsys.readouterr().out)["cells"]

        original = cells("--det", str(det_dir))
        disturbed = cells("--det", str(empty_det))
        ab = cells("--det", str(det_dir), "--det-disturbed", str(empty_det))
        key = operator.itemgetter("metric", "class", "difficulty", "threshold")
        assert [key(c) for c in ab] == [key(c) for c in original]
        assert [key(c) for c in ab] == [key(c) for c in disturbed]
        for cell, one, two in zip(ab, original, disturbed):
            assert set(cell) == {"metric", "class", "difficulty", "threshold",
                                 "original", "disturbed", "decrease"}
            assert cell["original"] == one["value"]
            assert cell["disturbed"] == two["value"]
            if "n/a" in (one["value"], two["value"]):
                assert cell["decrease"] == "n/a"
            else:
                assert cell["decrease"] == two["value"] - one["value"]
        values = {(c["metric"], c["class"]): c for c in ab}
        assert values["nuscenes_aoe", "Car"]["original"] == 0.0
        assert values["nuscenes_aoe", "Car"]["decrease"] == "n/a"
        assert values["ap3d", "Pedestrian"]["original"] == "n/a"

    def test_dontcare_class_reads_na(self, tmp_path, capsys):
        from camperturb import ObjectLabel

        region = ObjectLabel("DontCare", -1.0, -1, -10.0, 100.0, 150.0, 180.0, 200.0,
                             -1.0, -1.0, -1.0, -1000.0, -1000.0, -1000.0, -10.0)
        frames = helpers.desk_scene_frames(n_frames=2)
        frames = [dataclasses.replace(f, labels=(*f.labels, region)) for f in frames]
        dets = {
            f.frame_id: [*(helpers.with_score(lab, 0.9) for lab in f.labels[:-1]), region]
            for f in frames
        }
        gt_dir, det_dir = write_eval_dirs(tmp_path, frames, dets)
        code = main(
            [
                "evaluate",
                "--gt", str(gt_dir),
                "--det", str(det_dir),
                "--classes", "DontCare",
                "--metrics", "ap3d,nuscenes",
            ]
        )
        assert code == 0
        cells = json.loads(capsys.readouterr().out)["cells"]
        assert len(cells) == 3 + 3
        assert {c["value"] for c in cells} == {"n/a"}

    @pytest.mark.parametrize("bad", ["gt", "det"])
    def test_malformed_label_names_its_file(self, tmp_path, capsys, bad):
        gt_dir, det_dir = self._perfect_dirs(tmp_path, n_frames=2)
        broken = {"gt": gt_dir, "det": det_dir}[bad] / "000001.txt"
        with broken.open("a") as f:
            f.write("Car 0 0\n")
        lines = len(broken.read_text().splitlines())
        code = main(["evaluate", "--gt", str(gt_dir), "--det", str(det_dir)])
        assert code == 2
        what = {"gt": "gt labels", "det": "detections"}[bad]
        assert (
            f"error: {what} {broken}: line {lines}: expected 15 or 16 fields, got 3"
            in capsys.readouterr().err
        )

    @staticmethod
    def _flatten_first_detection(det: Path) -> None:
        """Give the first detection of ``det`` a BEV footprint of (near-)zero area."""
        lines = det.read_text().splitlines()
        fields = lines[0].split()
        fields[9] = fields[10] = "1e-7"  # width and length
        det.write_text("\n".join([" ".join(fields), *lines[1:]]) + "\n")

    def test_degenerate_detection_footprint_names_its_frame(self, tmp_path, capsys):
        gt_dir, det_dir = self._perfect_dirs(tmp_path, n_frames=2)
        self._flatten_first_detection(det_dir / "000001.txt")
        code = main(
            ["evaluate", "--gt", str(gt_dir), "--det", str(det_dir), "--metrics", "apbev"]
        )
        assert code == 2
        assert (
            "error: frame 000001: BEV footprint has (near-)zero area"
            in capsys.readouterr().err
        )

    @pytest.mark.parametrize("jobs", ["1", "3"])
    def test_detection_without_a_score_fails_the_run(self, tmp_path, capsys, jobs):
        gt_dir, det_dir = self._perfect_dirs(tmp_path, n_frames=3)
        path = det_dir / "000001.txt"
        first, *rest = path.read_text().splitlines()
        assert first.startswith("Car ") and len(first.split()) == 16
        path.write_text("\n".join([" ".join(first.split()[:15]), *rest]) + "\n")
        code = main([
            "evaluate", "--gt", str(gt_dir), "--det", str(det_dir),
            "--det-disturbed", str(det_dir), "--metrics", "ap2d", "--jobs", jobs,
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: frame 000001: detection without a score in frame '000001'\n"
        )

    def test_unscored_dontcare_and_missing_detection_file_are_accepted(
        self, tmp_path, capsys
    ):
        """A 15-field DontCare detection needs no score, and a missing detection
        file scores as an empty one."""
        gt_dir, det_dir = self._perfect_dirs(tmp_path, n_frames=3)
        empty_dir = tmp_path / "empty"
        empty_dir.mkdir()
        for path in det_dir.glob("*.txt"):
            (empty_dir / path.name).write_bytes(path.read_bytes())
        (empty_dir / "000002.txt").write_bytes(b"")
        (det_dir / "000002.txt").unlink()
        with (det_dir / "000001.txt").open("a") as f:
            f.write("DontCare -1 -1 -10 100.00 120.00 180.00 170.00 -1 -1 -1 -1000 -1000 -1000 -10\n")
        reports = []
        for dets in (det_dir, empty_dir):
            code = main([
                "evaluate", "--gt", str(gt_dir), "--det", str(dets),
                "--metrics", "ap2d,nuscenes",
            ])
            assert code == 0
            reports.append(capsys.readouterr())
        assert reports[0] == reports[1]
        values = [c["value"] for c in json.loads(reports[0].out)["cells"]]
        assert 0.0 < values[0] < 100.0

    @pytest.mark.parametrize("jobs", ["1", "3"])
    @pytest.mark.parametrize("kind", ["dangling", "directory"])
    def test_detection_entry_that_is_no_file_exits_2_naming_it(
        self, tmp_path, capsys, kind, jobs
    ):
        """Only a path with no directory entry is a frame without detections."""
        gt_dir, det_dir = self._perfect_dirs(tmp_path, n_frames=3)
        path = det_dir / "000001.txt"
        path.unlink()
        occupy(path, kind)
        code = main([
            "evaluate", "--gt", str(gt_dir), "--det", str(det_dir), "--metrics", "ap2d",
            "--jobs", jobs,
        ])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: cannot read detections {path}: ")

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("option, value, item", [
        ("classes", "Car,Pedestrian,Car", "Car"),
        ("metrics", "ap2d,nuscenes,nuscenes", "nuscenes"),
        ("difficulties", "easy,easy", "easy"),
    ])
    def test_repeated_list_item_is_a_usage_error(
        self, tmp_path, capsys, option, value, item, source
    ):
        """A repeated item would repeat report cells."""
        gt_dir, det_dir = self._perfect_dirs(tmp_path, n_frames=2)
        args = ["evaluate", "--gt", str(gt_dir), "--det", str(det_dir)]
        if source == "flag":
            args += [f"--{option}", value]
        else:
            config = tmp_path / "run.cfg"
            config.write_text(f"{option} = {value}\n")
            args += ["--config", str(config)]
        assert main(args) == 1
        assert capsys.readouterr() == ("", f"error: --{option} lists {item!r} more than once\n")

    @pytest.mark.parametrize("jobs", ["1", "3"])
    def test_first_failing_frame_ends_the_run(self, tmp_path, capsys, jobs):
        """Of two bad frames the first in id order names the error, although it
        fails only when matched and the later one already fails to parse."""
        gt_dir, det_dir = self._perfect_dirs(tmp_path, n_frames=4)
        self._flatten_first_detection(det_dir / "000001.txt")
        with (det_dir / "000003.txt").open("a") as f:
            f.write("Car 0 0\n")
        code = main([
            "evaluate", "--gt", str(gt_dir), "--det", str(det_dir),
            "--metrics", "ap3d", "--jobs", jobs,
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: frame 000001: BEV footprint has (near-)zero area\n"
        )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_frames_are_dropped_once_scored(self, tmp_path, capsys, monkeypatch, jobs):
        """Live label tables are those of the chunks being scored, one per
        worker, whatever the frame count: each frame is one ground-truth table
        and one table per detection set, and a chunk drops its tables once it
        is scored."""
        import weakref

        import camperturb._frames as frames
        import camperturb.kitti as kitti

        monkeypatch.setattr(frames, "_CHUNK_FRAMES", 4)
        gt_dir, det_dir = self._perfect_dirs(tmp_path, n_frames=40)  # 10 chunks
        lock = threading.Lock()
        live = peak = 0
        real_label_table = kitti._label_table

        def released():
            nonlocal live
            with lock:
                live -= 1

        def counted_table(data):
            nonlocal live, peak
            table = real_label_table(data)
            with lock:
                live += 1
                peak = max(peak, live)
            weakref.finalize(table.values, released)
            return table

        monkeypatch.setattr(kitti, "_label_table", counted_table)
        code = main([
            "evaluate", "--gt", str(gt_dir), "--det", str(det_dir),
            "--det-disturbed", str(det_dir), "--metrics", "ap3d,aos,nuscenes",
            "--jobs", str(jobs),
        ])
        assert code == 0
        tables_per_frame = 1 + 2
        assert 0 < peak <= tables_per_frame * 4 * jobs
        assert json.loads(capsys.readouterr().out)["parameters"]["frames"] == 40


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

    def test_truth_errors_match_the_pairwise_oracle(self, tmp_path):
        """Each frame's error is the oracle's angle of R_est^T R_truth, bit for
        bit, over more frames than one chunk holds; most truths differ from
        their estimate by less than 1e-8 rad, and one frame has no truth."""
        label_dir, calib_dir = write_dataset(tmp_path / "in", n_frames=70)
        frame_ids = sorted(p.stem for p in label_dir.glob("*.txt"))
        rng = np.random.default_rng(29)
        estimates, truth = {}, {}
        for k, fid in enumerate(frame_ids):
            pitch, roll = (float(v) for v in rng.uniform(-0.1, 0.1, 2))
            delta = (3e-9, -7e-10, 0.0, 9e-9, 2e-3)[k % 5]
            estimates[fid] = ExtrinsicPerturbation(pitch=pitch, roll=roll)
            truth[fid] = ExtrinsicPerturbation(pitch=pitch + delta, roll=roll - delta / 3)
        del truth[frame_ids[40]]
        write_sidecar(tmp_path / "est.jsonl", estimates)
        write_sidecar(tmp_path / "truth.jsonl", truth)
        report_path = tmp_path / "report.json"
        code = main([
            "rectify", "--det", str(label_dir), "--calib", str(calib_dir),
            "--sidecar", str(tmp_path / "est.jsonl"),
            "--truth-sidecar", str(tmp_path / "truth.jsonl"),
            "--out", str(tmp_path / "out"), "--report", str(report_path), "--jobs", "2",
        ])
        assert code == 0
        expected = [
            {"frame_id": fid, "deg": oracles.pairwise_angle_deg(
                perturbation_matrix(estimates[fid]), perturbation_matrix(truth[fid])
            )}
            for fid in frame_ids if fid in truth
        ]
        per_frame = json.loads(report_path.read_text())["angular_error"]["per_frame_deg"]
        assert per_frame == expected
        tiny = [e["deg"] for e in expected if frame_ids.index(e["frame_id"]) % 5 in (0, 1, 3)]
        assert len(tiny) > 40 and all(0.0 < deg < math.degrees(1e-8) for deg in tiny)

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
        assert f"horizon annotations {annotations}: line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--sidecar", "--truth-sidecar", "--horizon"])
    def test_json_lines_error_names_file_and_line(self, tmp_path, capsys, flag):
        label_dir, calib_dir = write_dataset(tmp_path / "in", n_frames=2)
        good = tmp_path / "zeros.jsonl"
        write_sidecar(good, dict.fromkeys(("000000", "000001"), ExtrinsicPerturbation(0, 0)))
        bad = tmp_path / "bad.jsonl"
        bad.write_text('\n{"frame_id": "000001"}\n')  # a blank line 1 still counts
        if flag == "--truth-sidecar":
            sources = ["--sidecar", str(good), flag, str(bad)]
        else:
            sources = [flag, str(bad)]
        code = main(
            [
                "rectify",
                "--det", str(label_dir),
                "--calib", str(calib_dir),
                "--out", str(tmp_path / "out"),
                *sources,
            ]
        )
        assert code == 2
        what = "horizon annotations" if flag == "--horizon" else "sidecar"
        key = "slope" if flag == "--horizon" else "pitch"
        assert f"error: {what} {bad}: line 2: missing field '{key}'\n" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--sidecar", "--truth-sidecar", "--horizon"])
    def test_frame_listed_twice_exits_2_naming_both_lines(self, tmp_path, capsys, flag):
        """The second record of a frame would silently replace the first."""
        label_dir, calib_dir = write_dataset(tmp_path / "in", n_frames=2)
        good = tmp_path / "zeros.jsonl"
        write_sidecar(good, dict.fromkeys(("000000", "000001"), ExtrinsicPerturbation(0, 0)))
        if flag == "--horizon":
            key, rest = "slope", {"intercept_v": 40.0, "vp_u": 60.0, "vp_v": 40.0}
        else:
            key, rest = "pitch", {"roll": 0.0}
        lines = [json.dumps({"frame_id": frame_id, key: value, **rest})
                 for frame_id, value in [("000000", 0.01), ("000001", 0.0), ("000000", 0.5)]]
        twice = tmp_path / "twice.jsonl"
        twice.write_text("\n".join([*lines[:2], "", lines[2]]) + "\n")  # a blank line 3
        sources = ["--sidecar", str(good)] if flag == "--truth-sidecar" else []
        code = main([
            "rectify", "--det", str(label_dir), "--calib", str(calib_dir),
            "--out", str(tmp_path / "out"), *sources, flag, str(twice),
        ])
        assert code == 2
        what = "horizon annotations" if flag == "--horizon" else "sidecar"
        assert capsys.readouterr() == (
            "", f"error: {what} {twice}: line 4: frame_id '000000' repeats line 1\n"
        )
        assert not list((tmp_path / "out").glob("*.txt"))

    def test_four_decimal_scores_survive_write_and_rectify(self, tmp_path):
        label_dir, calib_dir = write_dataset(tmp_path / "in", n_frames=2)
        det_dir = tmp_path / "det"
        det_dir.mkdir()
        scores = {}
        for frame in helpers.reload_frames(label_dir, calib_dir):
            dets = [
                helpers.with_score(lab, 0.1234 + 0.0101 * i)
                for i, lab in enumerate(frame.labels)
            ]
            data = write_label_file(dets)
            assert parse_label_file(data) == dets
            (det_dir / f"{frame.frame_id}.txt").write_bytes(data)
            scores[frame.frame_id] = [lab.score for lab in dets]
        sidecar = tmp_path / "zeros.jsonl"
        write_sidecar(sidecar, dict.fromkeys(scores, ExtrinsicPerturbation(0.0, 0.0)))
        out = tmp_path / "out"
        code = main(
            [
                "rectify",
                "--det", str(det_dir),
                "--calib", str(calib_dir),
                "--sidecar", str(sidecar),
                "--out", str(out),
            ]
        )
        assert code == 0
        for frame_id, expected in scores.items():
            written = (out / f"{frame_id}.txt").read_bytes()
            assert written == (det_dir / f"{frame_id}.txt").read_bytes()
            assert [lab.score for lab in parse_label_file(written)] == expected

    @pytest.mark.parametrize(
        "center, tilt, reason",
        [
            ("1.7e308 1.7e308 1.7e308", (0.1, 0.1), "camera point must be finite after the rotation"),
            ("2.5e305 1.50 2.20", (0.01, 0.0), "projected 2D box must be finite"),
        ],
    )
    def test_huge_finite_coordinates_fail_their_frame_only(
        self, tmp_path, capsys, center, tilt, reason
    ):
        """A box whose rotated center or projected 2D box overflows fails its
        own frame with a reason; the run goes on, writes the other frame and
        warns nothing."""
        calib_dir = tmp_path / "calib"
        det_dir = tmp_path / "det"
        calib_dir.mkdir()
        det_dir.mkdir()
        boxes = {"000000": center, "000001": "1.00 1.50 20.00"}
        for frame_id, center in boxes.items():
            (det_dir / f"{frame_id}.txt").write_text(
                "Car 0.00 0 0.10 500.00 150.00 600.00 250.00 1.50 1.60 3.90 "
                f"{center} 0.10 0.90\n"
            )
            helpers.write_calib(calib_dir / f"{frame_id}.txt")
        sidecar = tmp_path / "tilt.jsonl"
        write_sidecar(sidecar, dict.fromkeys(boxes, ExtrinsicPerturbation(*tilt)))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(
                [
                    "rectify",
                    "--det", str(det_dir),
                    "--calib", str(calib_dir),
                    "--sidecar", str(sidecar),
                    "--out", str(out),
                ]
            )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "frame failures: 1" in stdout
        assert f"000000: {reason}" in stdout
        assert sorted(p.name for p in out.iterdir()) == ["000001.txt"]


@pytest.mark.parametrize("subcommand", ["simulate", "rectify"])
@pytest.mark.parametrize("bad", ["labels", "calibration", "missing calibration"])
def test_bad_frame_input_fails_its_frame_naming_the_file(tmp_path, capsys, subcommand, bad):
    label_dir, calib_dir = write_dataset(tmp_path / "in", n_frames=2)
    broken = (label_dir if bad == "labels" else calib_dir) / "000001.txt"
    if bad == "missing calibration":
        broken.unlink()
    else:
        broken.write_text("Car 0 0\n")
    what = {
        "labels": "label file" if subcommand == "simulate" else "detections",
        "calibration": "calibration",
        "missing calibration": "cannot read calibration",
    }[bad]
    if subcommand == "simulate":
        args = ["--labels", str(label_dir)]
    else:
        sidecar = tmp_path / "zeros.jsonl"
        write_sidecar(sidecar, dict.fromkeys(("000000", "000001"), ExtrinsicPerturbation(0, 0)))
        args = ["--det", str(label_dir), "--sidecar", str(sidecar)]
    code = main(
        [subcommand, *args, "--calib", str(calib_dir), "--out", str(tmp_path / "out")]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "frame failures: 1" in stdout
    assert f"  000001: {what} {broken}: " in stdout


def run_frames(subcommand: str, root: Path, calib: Path, label_dir: Path) -> list[str]:
    """simulate or rectify ``label_dir`` into ``root``; returns the argv."""
    if subcommand == "simulate":
        args = ["--labels", str(label_dir), "--seed", "4"]
    else:
        sidecar = root.parent / "tilt.jsonl"
        rng = np.random.default_rng(5)
        write_sidecar(sidecar, {
            p.stem: ExtrinsicPerturbation(*rng.uniform(-0.05, 0.05, size=2).tolist())
            for p in label_dir.glob("*.txt")
        })
        args = ["--det", str(label_dir), "--sidecar", str(sidecar),
                "--report", str(root / "report.json")]
    return [subcommand, *args, "--calib", str(calib), "--out", str(root / "out")]


@pytest.mark.parametrize("subcommand", ["simulate", "rectify"])
def test_shared_calibration_file_gives_the_directory_bytes(tmp_path, capsys, subcommand):
    label_dir, calib_dir = write_dataset(tmp_path / "in", n_frames=3)  # one calibration
    trees = []
    for name, calib in (("dir", calib_dir), ("file", calib_dir / "000000.txt")):
        for jobs in ("1", "2"):
            root = tmp_path / f"{name}-{jobs}"
            assert main([*run_frames(subcommand, root, calib, label_dir), "--jobs", jobs]) == 0
            trees.append((tree_bytes(root), capsys.readouterr()))
    assert all(tree == trees[0] for tree in trees)
    assert "frames processed: 3" in trees[0][1].out


@pytest.mark.parametrize("subcommand", ["simulate", "rectify"])
def test_shared_calibration_file_is_read_once(tmp_path, capsys, monkeypatch, subcommand):
    import camperturb.cli as cli

    label_dir, calib_dir = write_dataset(tmp_path / "in", n_frames=3)
    shared = calib_dir / "000000.txt"
    reads = []
    read_bytes = cli._read_bytes

    def counting(path, what):
        reads.append(path)
        return read_bytes(path, what)

    monkeypatch.setattr(cli, "_read_bytes", counting)
    assert main(run_frames(subcommand, tmp_path / "run", shared, label_dir)) == 0
    assert [p for p in reads if p.parent == calib_dir] == [shared]
    assert sorted(p.name for p in reads if p.parent == label_dir) == [
        "000000.txt", "000001.txt", "000002.txt"
    ]


def counting_calibration_parses(monkeypatch) -> list[bytes]:
    """Record the bytes of every ``parse_calib_file`` call the CLI makes."""
    import camperturb.kitti as kitti

    parses = []
    parse = kitti.parse_calib_file

    def counting(data):
        parses.append(data)
        return parse(data)

    monkeypatch.setattr(kitti, "parse_calib_file", counting)
    return parses


@pytest.mark.parametrize("subcommand", ["simulate", "rectify"])
def test_directory_parses_each_distinct_calibration_once(
    tmp_path, capsys, monkeypatch, subcommand
):
    """Six files with two contents parse twice, and every frame still gets
    its own file's intrinsics: the bytes equal a run whose six files all
    differ (by a line the parser skips)."""
    label_dir, calib_dir = write_dataset(tmp_path / "in", n_frames=6)
    cameras = [helpers.CALIB_TEXT, helpers.CALIB_TEXT.replace("700 180", "690 170")]
    parses = counting_calibration_parses(monkeypatch)
    runs = []
    for name, note in (("shared", lambda i: ""), ("distinct", lambda i: f"note: frame {i}\n")):
        for i, path in enumerate(sorted(calib_dir.iterdir())):
            path.write_text(cameras[i % 2] + note(i))
        parses.clear()
        root = tmp_path / name
        assert main([*run_frames(subcommand, root, calib_dir, label_dir), "--jobs", "1"]) == 0
        runs.append((tree_bytes(root / "out"), capsys.readouterr().out, len(parses)))
    (shared, shared_out, shared_parses), (distinct, distinct_out, distinct_parses) = runs
    assert (shared_parses, distinct_parses) == (2, 6)
    assert shared == distinct and shared_out == distinct_out
    assert "frames processed: 6" in shared_out


@pytest.mark.parametrize("subcommand", ["simulate", "rectify"])
def test_malformed_calibration_among_identical_ones_fails_its_frames(
    tmp_path, capsys, monkeypatch, subcommand
):
    """A bad parse is not kept: two files with the same bad bytes each fail
    their own frame, naming their own path, and the good frames go on."""
    label_dir, calib_dir = write_dataset(tmp_path / "in", n_frames=5)
    bad = [calib_dir / "000001.txt", calib_dir / "000003.txt"]
    for path in bad:
        path.write_text("P2: 1 2 3\n")
    parses = counting_calibration_parses(monkeypatch)
    root = tmp_path / "run"
    assert main(run_frames(subcommand, root, calib_dir, label_dir)) == 0
    stdout = capsys.readouterr().out
    assert "frames processed: 3" in stdout
    assert "frame failures: 2" in stdout
    for path in bad:
        line = f"  {path.stem}: calibration {path}: line 1: key 'P2': expected 12 values, got 3\n"
        assert line in stdout
    assert len(parses) == 3  # the good bytes once, the bad bytes at each use
    assert sorted(p.name for p in (root / "out").rglob("0*.txt")) == [
        "000000.txt", "000002.txt", "000004.txt"
    ]


def test_calibration_memo_keeps_at_most_its_bound(tmp_path, monkeypatch):
    """All-distinct files: after ``bound + 4`` of them, the latest ``bound``
    parses are kept and the four oldest were let go."""
    import camperturb._frames as frames

    bound = frames._CALIB_MEMO
    frame_ids = [f"{i:06d}" for i in range(bound + 4)]
    for i, frame_id in enumerate(frame_ids):
        helpers.write_calib(tmp_path / f"{frame_id}.txt", helpers.CALIB_TEXT + f"note: {i}\n")
    parses = counting_calibration_parses(monkeypatch)
    source = frames._intrinsics_source(str(tmp_path))
    first = [source(frame_id) for frame_id in frame_ids]
    assert len(parses) == bound + 4
    assert [source(frame_id) for frame_id in frame_ids[4:]] == first[4:]
    assert len(parses) == bound + 4
    assert [source(frame_id) for frame_id in frame_ids[:4]] == first[:4]
    assert len(parses) == bound + 8


def test_calibration_memo_under_threads_gives_each_frame_its_file(tmp_path):
    """Four threads resolve 24 frames of 12 contents, more than the memo
    keeps, switching often; every frame gets its own file's focal length."""
    import camperturb._frames as frames

    frame_ids = [f"{i:06d}" for i in range(24)]
    for i, frame_id in enumerate(frame_ids):
        fx = 600 + i % 12
        helpers.write_calib(tmp_path / f"{frame_id}.txt", f"P2: {fx} 0 600 0 0 700 180 0 0 0 1 0\n")
    source = frames._intrinsics_source(str(tmp_path))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            fxs = [k.fx for k in pool.map(source, frame_ids * 20, timeout=60)]
    finally:
        sys.setswitchinterval(interval)
    assert fxs == [600.0 + i % 12 for i in range(24)] * 20


@pytest.mark.parametrize("subcommand", ["simulate", "rectify"])
def test_malformed_shared_calibration_ends_the_run(tmp_path, capsys, subcommand):
    label_dir, _ = write_dataset(tmp_path / "in", n_frames=3)
    shared = tmp_path / "calib.txt"
    shared.write_text("P2: 1 2 3\n")
    root = tmp_path / "run"
    root.mkdir()
    code = main(run_frames(subcommand, root, shared, label_dir))
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: calibration {shared}: line 1: key 'P2': expected 12 values, got 3\n"
    )
    assert list(root.iterdir()) == []


# ---------------------------------------------------------------------------
# JSON-lines inputs


_GOOD_RECORD = {
    "--sidecar": {"frame_id": "000000", "pitch": 0.0, "roll": 0.0},
    "--horizon": {
        "frame_id": "000000", "slope": 0.0, "intercept_v": 40.0, "vp_u": 60.0, "vp_v": 40.0
    },
}


@pytest.mark.parametrize(
    "flag, line, message",
    [
        ("--sidecar", b'{"frame_id": "000001", "pitch": true, "roll": 0.0}',
         "'pitch' must be a JSON number, got True"),
        ("--sidecar", b'{"frame_id": "000001", "pitch": 0.0, "roll": "0.01"}',
         "'roll' must be a JSON number, got '0.01'"),
        ("--sidecar", b'{"frame_id": 1, "pitch": 0.0, "roll": 0.0}',
         "'frame_id' must be a JSON string, got 1"),
        ("--sidecar", b'{"frame_id": "000001", "pitch": 0.0, "roll": 1' + b"0" * 400 + b"}",
         "int too large to convert to float"),
        ("--sidecar", b'{"frame_id": "00000\xff1", "pitch": 0.0, "roll": 0.0}',
         "JSON-lines file is not valid UTF-8"),
        ("--truth-sidecar", b'{"frame_id": "000001", "pitch": false, "roll": 0.0}',
         "'pitch' must be a JSON number, got False"),
        ("--horizon", b'{"frame_id": "000001", "slope": true, "intercept_v": 40.0, '
                      b'"vp_u": 60.0, "vp_v": 40.0}',
         "'slope' must be a JSON number, got True"),
        ("--horizon", b'{"frame_id": 1, "slope": 0.0, "intercept_v": 40.0, '
                      b'"vp_u": 60.0, "vp_v": 40.0}',
         "'frame_id' must be a JSON string, got 1"),
        ("--horizon", b'{"frame_id": "000001", "slope": 0.0, "intercept_v": 40.0, '
                      b'"vp_u": "60", "vp_v": 40.0}',
         "'vp_u' must be a JSON number, got '60'"),
        ("--est", b'{"frame_id": "000001", "pitch": true, "roll": 0.0}',
         "'pitch' must be a JSON number, got True"),
        ("--sidecar", b'{"frame_id": "000001", "pitch": 0.0}', "missing field 'roll'"),
        ("--sidecar", b'["000001", 0.0, 0.0]', "expected a JSON object"),
        ("--sidecar", b"[" * 100_000, "JSON nested too deeply"),
        ("--truth-sidecar", b"null", "expected a JSON object"),
        ("--horizon", b'{"frame_id": "000001", "slope": 0.0, "intercept_v": 40.0, '
                      b'"vp_u": 60.0}', "missing field 'vp_v'"),
        ("--horizon", b'["000001", 0.0, 40.0, 60.0, 40.0]', "expected a JSON object"),
        ("--horizon", b"[" * 100_000, "JSON nested too deeply"),
        ("--est", b'{"frame_id": "000001", "roll": 0.0}', "missing field 'pitch'"),
        ("--est", b"[0.0, 0.0]", "expected a JSON object"),
        ("--est", b"[" * 100_000, "JSON nested too deeply"),
    ],
    ids=[
        "sidecar-bool", "sidecar-string", "sidecar-int-frame-id", "sidecar-huge-int",
        "sidecar-not-utf8", "truth-bool", "horizon-bool", "horizon-int-frame-id",
        "horizon-string", "est-bool", "sidecar-missing-field", "sidecar-array",
        "sidecar-deep", "truth-null", "horizon-missing-field", "horizon-array", "horizon-deep",
        "est-missing-field", "est-array", "est-deep",
    ],
)
def test_json_lines_values_must_be_utf8_json_numbers_and_strings(
    tmp_path, capsys, flag, line, message
):
    """A record field of the wrong JSON type or missing, a line that is not a
    JSON object, is nested too deeply or is not UTF-8, ends the run naming the
    file and line instead of being coerced."""
    label_dir, calib_dir = write_dataset(tmp_path / "in", n_frames=2)
    good = _GOOD_RECORD["--horizon" if flag == "--horizon" else "--sidecar"]
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(json.dumps(good).encode() + b"\n" + line + b"\n")
    if flag == "--est":
        poses = tmp_path / "poses.txt"
        write_straight_poses(poses, 2, 1.0)
        argv = ["pose-error", "--est", str(bad), "--gt-poses", str(poses)]
        what = "estimates"
    else:
        sources = [flag, str(bad)]
        if flag == "--truth-sidecar":
            zeros = tmp_path / "zeros.jsonl"
            write_sidecar(zeros, dict.fromkeys(("000000", "000001"), ExtrinsicPerturbation(0, 0)))
            sources = ["--sidecar", str(zeros), *sources]
        argv = ["rectify", "--det", str(label_dir), "--calib", str(calib_dir),
                "--out", str(tmp_path / "out"), *sources]
        what = "horizon annotations" if flag == "--horizon" else "sidecar"
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {what} {bad}: line 2: {message}\n"


# ---------------------------------------------------------------------------
# outputs


def test_rerun_replaces_outputs_instead_of_rewriting_them(tmp_path):
    """A rerun into the same directories creates every output as a new file:
    a hard link to the first run's labels, image, sidecar or report keeps
    the first run's bytes, and the path holds the rerun's."""
    label_dir, calib_dir, image_dir = write_image_dataset(tmp_path / "in")
    truth = tmp_path / "zeros.jsonl"
    write_sidecar(truth, dict.fromkeys(["000000", "000001"], ExtrinsicPerturbation(0.0, 0.0)))

    def run_pipeline(seed: str, root: Path) -> list[Path]:
        sim, report = root / "sim", root / "rectify.json"
        simulate = [
            "simulate",
            "--labels", str(label_dir),
            "--calib", str(calib_dir),
            "--images", str(image_dir),
            "--out", str(sim),
            "--seed", seed,
        ]
        assert main(simulate) == 0
        rectify = [
            "rectify",
            "--det", str(sim / "labels"),
            "--calib", str(calib_dir),
            "--sidecar", str(sim / "perturbations.jsonl"),
            "--truth-sidecar", str(truth),
            "--out", str(root / "rect"),
            "--report", str(report),
        ]
        assert main(rectify) == 0
        outputs = ("labels/000000.txt", "images/000000.ppm", "perturbations.jsonl")
        return [sim / name for name in outputs] + [report]

    paths = run_pipeline("1", tmp_path / "rerun")
    first = [p.read_bytes() for p in paths]
    links = [tmp_path / f"link-{i}" for i in range(len(paths))]
    for link, path in zip(links, paths):
        link.hardlink_to(path)
    assert run_pipeline("2", tmp_path / "rerun") == paths
    fresh = run_pipeline("2", tmp_path / "fresh")
    for link, path, old, new in zip(links, paths, first, fresh):
        assert link.read_bytes() == old, path
        assert path.read_bytes() == new.read_bytes() != old, path


# ---------------------------------------------------------------------------
# pose-error


def write_straight_poses(path: Path, n: int, step: float) -> None:
    """Identity-rotation poses marching down +z, ``step`` metres apart."""
    lines = []
    for i in range(n):
        z = i * step
        lines.append(f"1 0 0 0 0 1 0 0 0 0 1 {z}")
    path.write_text("\n".join(lines) + "\n")


def pose_text(translation: str) -> str:
    """An identity-rotation pose line at ``translation`` ("x y z")."""
    x, y, z = translation.split()
    return f"1 0 0 {x} 0 1 0 {y} 0 0 1 {z}\n"


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

    def test_path_length_is_the_running_sum_of_step_norms(self, tmp_path, capsys):
        """Bit for bit: float(np.linalg.norm(step)) per step, added left to right."""
        rng = np.random.default_rng(61)
        translations = np.cumsum(rng.normal(0.0, 1.5, size=(3000, 3)), axis=0)
        poses = tmp_path / "poses.txt"
        poses.write_text("".join(
            f"1 0 0 {x!r} 0 1 0 {y!r} 0 0 1 {z!r}\n" for x, y, z in translations.tolist()
        ))
        code = main(["pose-error", "--est", str(poses), "--gt-poses", str(poses)])
        assert code == 0
        expected = 0.0
        for prev, curr in zip(translations, translations[1:]):
            expected += float(np.linalg.norm(curr - prev))
        assert json.loads(capsys.readouterr().out)["path_length_m"] == expected

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

    @pytest.mark.parametrize("missing", ["est", "gt-poses"])
    def test_missing_pose_input_reads_cannot_read(self, tmp_path, capsys, missing):
        paths = {"est": tmp_path / "est.txt", "gt-poses": tmp_path / "poses.txt"}
        write_straight_poses(paths["est" if missing == "gt-poses" else "gt-poses"], 3, 1.0)
        code = main(
            ["pose-error", "--est", str(paths["est"]), "--gt-poses", str(paths["gt-poses"])]
        )
        assert code == 2
        what = {"est": "estimates", "gt-poses": "ground-truth poses"}[missing]
        assert capsys.readouterr().err.startswith(
            f"error: cannot read {what} {paths[missing]}: "
        )

    @pytest.mark.parametrize("bad", ["est", "gt-poses"])
    def test_bad_pose_line_names_its_file(self, tmp_path, capsys, bad):
        paths = {"est": tmp_path / "est.txt", "gt-poses": tmp_path / "poses.txt"}
        for path in paths.values():
            write_straight_poses(path, 6, 1.0)
        with paths[bad].open("a") as f:
            f.write("1 0 0\n")
        code = main(
            ["pose-error", "--est", str(paths["est"]), "--gt-poses", str(paths["gt-poses"])]
        )
        assert code == 2
        what = {"est": "estimates", "gt-poses": "ground-truth poses"}[bad]
        assert (
            f"error: {what} {paths[bad]}: line 7: expected 12 values, got 3"
            in capsys.readouterr().err
        )

    def test_json_lines_estimates_are_read_once(self, tmp_path, capsys, monkeypatch):
        import camperturb.cli as cli

        poses = tmp_path / "poses.txt"
        write_straight_poses(poses, 4, 1.0)
        est = tmp_path / "est.jsonl"
        write_estimates(est, 4, pitch=0.01)
        reads = []
        read_bytes = cli._read_bytes

        def counting(path, what):
            reads.append(path)
            return read_bytes(path, what)

        monkeypatch.setattr(cli, "_read_bytes", counting)
        assert main(["pose-error", "--est", str(est), "--gt-poses", str(poses)]) == 0
        assert sorted(reads) == sorted([est, poses])

    def test_bad_json_estimate_names_file_and_line(self, tmp_path, capsys):
        poses = tmp_path / "poses.txt"
        write_straight_poses(poses, 2, 1.0)
        est = tmp_path / "est.jsonl"
        est.write_text(
            '{"frame_id": "000000", "pitch": 0.0, "roll": 0.0}\n'
            '{"frame_id": "000001", "pitch": 2.0, "roll": 0.0}\n'
        )
        code = main(["pose-error", "--est", str(est), "--gt-poses", str(poses)])
        assert code == 2
        assert (
            f"error: estimates {est}: line 2: pitch must satisfy |angle| < pi/2, got 2.0\n"
            in capsys.readouterr().err
        )

    @pytest.mark.parametrize("line_no, bad, after, reason", [
        (2, '"pitch": 0.0, "roll": NaN', "not JSON", "perturbation angle must be finite, got nan"),
        (2, '"pitch": 0.0, "roll": -1.6', '"roll": "x"', "roll must satisfy |angle| < pi/2, got -1.6"),
        (2, '"pitch": "0.1", "roll": 0.0', '"pitch": 2.0', "'pitch' must be a JSON number, got '0.1'"),
        (2999, '"pitch": 1.6, "roll": 0.0', "not JSON", "pitch must satisfy |angle| < pi/2, got 1.6"),
    ])
    def test_first_bad_json_estimate_line_decides(
        self, tmp_path, capsys, line_no, bad, after, reason
    ):
        """The first bad line decides, also several text blocks into the file."""
        poses = tmp_path / "poses.txt"
        write_straight_poses(poses, line_no + 1, 1.0)
        est = tmp_path / "est.jsonl"
        good = '{"frame_id": "000000", "pitch": 0.0, "roll": 0.0}\n'
        est.write_text(good * (line_no - 1) + f"{{{bad}}}\n{{{after}}}\n")
        code = main(["pose-error", "--est", str(est), "--gt-poses", str(poses)])
        assert code == 2
        assert f"error: estimates {est}: line {line_no}: {reason}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("est_kind", ["sidecar", "poses"])
    def test_report_equals_one_built_from_pose_objects(self, tmp_path, capsys, est_kind):
        """The report from the pose stacks is the bytes that per-pose
        ``OdometryPose`` rotations and translations give."""
        rng = np.random.default_rng(83)
        n = 300

        def random_poses(path: Path) -> None:
            angles = rng.uniform(-math.pi / 2, math.pi / 2, size=(n, 3))
            translations = np.cumsum(rng.normal(0.0, 2.0, size=(n, 3)), axis=0)
            lines = []
            for (a, b, c), t in zip(angles, translations):
                pose = np.column_stack([rot_x(a) @ rot_z(b) @ rot_x(c), t])
                lines.append(" ".join(repr(v) for v in pose.ravel().tolist()) + "\n")
            path.write_text("".join(lines))

        poses = tmp_path / "poses.txt"
        random_poses(poses)
        if est_kind == "sidecar":
            est = tmp_path / "est.jsonl"
            pitch, roll = rng.uniform(-0.2, 0.2, size=(2, n))
            est.write_text("".join(
                json.dumps({"frame_id": f"{i:06d}", "pitch": p, "roll": r}) + "\n"
                for i, (p, r) in enumerate(zip(pitch.tolist(), roll.tolist()))
            ))
            r_est = _perturbation_matrices(pitch, roll)
        else:
            est = tmp_path / "est.txt"
            random_poses(est)
            r_est = np.array([p.rotation for p in parse_odometry_poses(est.read_bytes())])
        assert main(["pose-error", "--est", str(est), "--gt-poses", str(poses)]) == 0

        gt = parse_odometry_poses(poses.read_bytes())
        errors = _angular_errors(r_est, np.array([p.rotation for p in gt]))
        path_length = 0.0
        for prev, curr in zip(gt, gt[1:]):
            path_length += float(np.linalg.norm(curr.translation - prev.translation))
        mean_deg = sum(errors) / len(errors)
        expected = {
            "frames": n,
            "per_frame_deg": errors,
            "mean_angular_error_deg": mean_deg,
            "mean_angular_error_rad": math.radians(mean_deg),
            "max_angular_error_deg": max(errors),
            "path_length_m": path_length,
            "angular_error_deg_per_m": mean_deg / path_length,
        }
        assert capsys.readouterr().out == json.dumps(expected, indent=2, sort_keys=True) + "\n"

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

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("translations, line", [
        (["1e308 0 0", "-1e308 0 0"], 2),  # a step beyond the float range
        (["0 0 0", "1e200 1e200 0"], 2),  # a step whose squared length is beyond it
        (["0 0 0", "1 0 0", "1 0 2e154"], 3),  # the second step's square is beyond it
        ([None, "0 0 0", "1 0 0", "0 1e200 1e200"], 4),  # a blank line keeps its number
    ])
    def test_path_beyond_the_float_range_is_refused(
        self, tmp_path, capsys, translations, line, fmt
    ):
        """A path longer than the float range fails the run with exit 2, naming
        the ground-truth pose file and the line of the first pose beyond it,
        with no warning and no report holding Infinity."""
        poses = tmp_path / "poses.txt"
        poses.write_text("".join("\n" if t is None else pose_text(t) for t in translations))
        est = tmp_path / "est.jsonl"
        write_estimates(est, sum(t is not None for t in translations), pitch=0.0)
        report = tmp_path / "pe.out"
        code = main(["pose-error", "--est", str(est), "--gt-poses", str(poses),
                     "--format", fmt, "--report", str(report)])
        assert code == 2
        assert capsys.readouterr() == ("", (
            f"error: ground-truth poses {poses}: line {line}: the path to this pose is "
            "longer than the float range\n"
        ))
        assert not report.exists()

    def test_a_long_finite_path_is_reported_as_a_json_number(self, tmp_path, capsys):
        poses = tmp_path / "poses.txt"
        poses.write_text("".join(pose_text(t) for t in ["0 0 0", "1e150 1e150 0", "0 0 0"]))
        est = tmp_path / "est.jsonl"
        write_estimates(est, 3, pitch=0.1)
        assert main(["pose-error", "--est", str(est), "--gt-poses", str(poses)]) == 0

        def refuse_constant(name):
            raise ValueError(f"{name} is not JSON")

        report = json.loads(capsys.readouterr().out, parse_constant=refuse_constant)
        assert report["path_length_m"] == pytest.approx(2 * math.sqrt(2) * 1e150)
        assert report["angular_error_deg_per_m"] > 0


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

    @pytest.mark.parametrize("step, where, styled", [
        ("1e300", (0, 0, 0), True),  # the step itself overflows: the moved value is inf
        ("1e200", (0, 0, 0), True),  # the moved value is finite, its loss is not
        ("1e140", (1, 0, 2), False),  # only the probe of the 3e38 value overflows
    ])
    def test_grad_check_probe_out_of_float_range_is_a_usage_error(
        self, tmp_path, capsys, step, where, styled
    ):
        """A step that takes a probe's loss past the float range ends the run
        with exit 1 and names the coordinate and the step, not a traceback or
        a report holding NaN."""
        data = np.zeros((2, 2, 3))
        data[where] = 3e38
        out = save_feature(tmp_path / "out.ftb", data)
        content = save_feature(tmp_path / "content.ftb", np.zeros((2, 2, 3)))
        report = tmp_path / "loss.json"
        style = ["--style", str(content)] if styled else []
        code = main([
            "loss", "--output", str(out), "--content", str(content), *style,
            "--grad-check", "--fd-step", step, "--report", str(report),
        ])
        assert code == 1
        assert capsys.readouterr() == ("", (
            f"error: --fd-step {float(step)!r}: the probe of output coordinate {where} "
            "leaves the float range; use a smaller step\n"
        ))
        assert not report.exists()

    @pytest.mark.parametrize("grad_check", [[], ["--grad-check"]])
    @pytest.mark.parametrize("gamma_content, gamma_style, blamed", [
        ("1e308", "1", "--gamma-content 1e+308"),
        ("1", "1e308", "--gamma-style 1e+308"),
        ("1e308", "1e308", "--gamma-content 1e+308 and --gamma-style 1e+308"),
        # each weighted term is finite, their sum is not
        ("1.5e307", "2.2e306", "--gamma-content 1.5e+307 and --gamma-style 2.2e+306"),
    ])
    def test_weighted_total_out_of_float_range_is_a_usage_error(
        self, tmp_path, capsys, gamma_content, gamma_style, blamed, grad_check
    ):
        """Finite weights whose total loss leaves the float range end the run
        with exit 1 and name the weight, before any probe step is blamed."""
        out = save_feature(tmp_path / "out.ftb", [[[2.0]], [[3.0]]])
        zeros = save_feature(tmp_path / "zeros.ftb", np.zeros((2, 1, 1)))  # losses 6.5 and 42.25
        report = tmp_path / "loss.json"
        code = main([
            "loss", "--output", str(out), "--content", str(zeros), "--style", str(zeros),
            "--gamma-content", gamma_content, "--gamma-style", gamma_style, *grad_check,
            "--report", str(report),
        ])
        assert code == 1
        assert capsys.readouterr() == ("", (
            f"error: {blamed}: the weighted total loss leaves the float range; "
            "use a smaller weight\n"
        ))
        assert not report.exists()

    def test_grad_check_computes_each_style_gram_once(self, tmp_path, capsys, monkeypatch):
        rng = np.random.default_rng(35)
        out = save_feature(tmp_path / "out.ftb", rng.normal(size=(3, 4, 5)))
        content = save_feature(tmp_path / "content.ftb", rng.normal(size=(3, 4, 5)))
        styles = [
            save_feature(tmp_path / f"style{k}.ftb", rng.normal(size=(3, 2 + k, 6)))
            for k in range(3)
        ]
        seen = []
        real_gram = losses.gram

        def counting_gram(t):
            seen.append(t.data.copy())
            return real_gram(t)

        monkeypatch.setattr(losses, "gram", counting_gram)
        code = main(
            [
                "loss",
                "--output", str(out),
                "--content", str(content),
                "--style", ",".join(str(p) for p in styles),
                "--grad-check",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["grad_check"]["max_relative_error"] < 1e-5
        for path in styles:
            target = load_tensor(path).data
            assert sum(np.array_equal(data, target) for data in seen) == 1

    @pytest.mark.parametrize("shape", [(3, 4, 5), (2, 24, 24)])
    def test_each_probe_loss_has_the_bits_of_the_moved_tensor(
        self, tmp_path, capsys, monkeypatch, shape
    ):
        """The probes keep one content difference up to date instead of taking
        ``out - content`` afresh; each probe's loss is still the loss of the moved
        tensor, bit for bit, and the difference is restored after each probe
        (every coordinate below 512 values, a stride above)."""
        rng = np.random.default_rng(37)
        out = save_feature(tmp_path / "out.ftb", rng.normal(size=shape))
        content = save_feature(tmp_path / "content.ftb", rng.normal(size=shape))
        style = save_feature(tmp_path / "style.ftb", rng.normal(size=(shape[0], 3, 4)))
        real_total = losses._total_loss
        moved = []

        def checked_total(scratch, target, grams, gamma_c, gamma_s, diff=None):
            if diff is None:  # the report's own total
                return real_total(scratch, target, grams, gamma_c, gamma_s)
            assert np.array_equal(diff, (scratch - target).ravel())
            value = real_total(scratch, target, grams, gamma_c, gamma_s, diff)
            assert value == real_total(scratch.copy(), target, grams, gamma_c, gamma_s)
            moved.append(int(np.count_nonzero(scratch != load_tensor(out).data)))
            return value

        monkeypatch.setattr(losses, "_total_loss", checked_total)
        assert main(["loss", "--output", str(out), "--content", str(content),
                     "--style", str(style), "--gamma-content", "0.75", "--grad-check"]) == 0
        checked = json.loads(capsys.readouterr().out)["grad_check"]["coords_checked"]
        assert checked == (60 if shape == (3, 4, 5) else 64)
        assert moved == [1] * (2 * checked)

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

    def test_report_written_through_symlink(self, tmp_path):
        data = np.ones((2, 2, 2))
        out = save_feature(tmp_path / "out.ftb", data)
        content = save_feature(tmp_path / "content.ftb", data)
        target = tmp_path / "target.json"
        target.write_text("old\n")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        code = main(
            ["loss", "--output", str(out), "--content", str(content), "--report", str(link)]
        )
        assert code == 0
        assert link.is_symlink()
        assert json.loads(target.read_text())["total_loss"] == 0.0

    def test_report_written_into_fifo(self, tmp_path):
        data = np.ones((2, 2, 2))
        out = save_feature(tmp_path / "out.ftb", data)
        content = save_feature(tmp_path / "content.ftb", data)
        fifo = tmp_path / "report.fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            code = main(
                ["loss", "--output", str(out), "--content", str(content), "--report", str(fifo)]
            )
            received = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert code == 0
        assert fifo.is_fifo()
        assert json.loads(received)["total_loss"] == 0.0

    def test_missing_tensor_file_exits_2(self, tmp_path, capsys):
        out = save_feature(tmp_path / "out.ftb", np.zeros((2, 1, 1)))
        code = main(
            ["loss", "--output", str(out), "--content", str(tmp_path / "gone.ftb")]
        )
        assert code == 2

    def test_missing_tensor_file_reads_cannot_read(self, tmp_path, capsys):
        out = save_feature(tmp_path / "out.ftb", np.zeros((2, 1, 1)))
        gone = tmp_path / "gone.ftb"
        code = main(["loss", "--output", str(out), "--content", str(out), "--style", str(gone)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read style tensor {gone}: ")

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("magic", "bad magic b'XXXX' (want b'FTB1')"),
            ("sidecar", "sidecar shape (3, 1, 1) disagrees with header (2, 1, 1)"),
        ],
    )
    def test_malformed_tensor_names_it(self, tmp_path, capsys, fault, message):
        out = save_feature(tmp_path / "out.ftb", np.zeros((2, 1, 1)))
        content = save_feature(tmp_path / "content.ftb", np.zeros((2, 1, 1)))
        if fault == "magic":
            content.write_bytes(b"XXXX" + content.read_bytes()[4:])
        else:
            sidecar = tmp_path / "content.ftb.json"
            sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "channels": 3}))
        code = main(["loss", "--output", str(out), "--content", str(content)])
        assert code == 2
        assert f"error: content tensor {content}: {message}\n" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sidecar",
        [b"\xff\xfe{}", b"[1, 2]\n", b"[" * 100_000, b'{"channels": ' + b"1" * 5000 + b"}"],
        ids=["not-utf8", "not-an-object", "deep", "int-too-long"],
    )
    def test_malformed_sidecar_exits_2_naming_it(self, tmp_path, capsys, sidecar):
        out = save_feature(tmp_path / "out.ftb", np.zeros((2, 1, 1)))
        content = save_feature(tmp_path / "content.ftb", np.zeros((2, 1, 1)))
        (tmp_path / "content.ftb.json").write_bytes(sidecar)
        code = main(["loss", "--output", str(out), "--content", str(content)])
        assert code == 2
        assert str(tmp_path / "content.ftb.json") in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["dangling", "directory"])
    def test_sidecar_entry_that_is_no_file_exits_2_naming_it(self, tmp_path, capsys, kind):
        """Only a path with no directory entry is a tensor without a sidecar."""
        out = save_feature(tmp_path / "out.ftb", np.zeros((2, 1, 1)))
        content = save_feature(tmp_path / "content.ftb", np.zeros((2, 1, 1)))
        sidecar = tmp_path / "content.ftb.json"
        sidecar.unlink()
        assert main(["loss", "--output", str(out), "--content", str(content)]) == 0
        capsys.readouterr()
        occupy(sidecar, kind)
        code = main(["loss", "--output", str(out), "--content", str(content)])
        assert code == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.startswith(f"error: content tensor {content}: unreadable sidecar {sidecar}: ")

    def test_a_style_target_may_be_listed_twice(self, tmp_path, capsys):
        out = save_feature(tmp_path / "out.ftb", np.arange(8.0).reshape(2, 2, 2))
        style = save_feature(tmp_path / "style.ftb", np.ones((2, 2, 2)))
        code = main([
            "loss", "--output", str(out), "--content", str(out), "--style", f"{style},{style}",
        ])
        assert code == 0
        first, second = json.loads(capsys.readouterr().out)["style_losses"]
        assert first == second > 0.0


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


    def test_module_run_as_a_script_reports_command_errors(self, tmp_path):
        """``python -m camperturb.cli``: a subcommand's error is reported with
        its exit code, not raised as a traceback."""
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "camperturb.cli", "pose-error", "--est", "no.jsonl",
             "--gt-poses", "no.txt"],
            cwd=tmp_path, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("error: cannot read estimates no.jsonl: ")

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


# ---------------------------------------------------------------------------
# simulate and rectify move a chunk of frames at a time


def write_chunk_dataset(root: Path, n_frames: int) -> tuple[Path, Path]:
    """Frames of 3-5 cars, every seventh with a DontCare region and a scored
    car, every eleventh empty; returns (label_dir, calib_dir)."""
    label_dir, calib_dir = write_dataset(root, n_frames=n_frames)
    dontcare = write_label_file(parse_label_file(
        b"DontCare -1 -1 -10 100.00 120.00 300.00 300.00 -1 -1 -1 -1000 -1000 -1000 -10"
    ))
    for i in range(n_frames):
        path = label_dir / f"{i:06d}.txt"
        if i % 11 == 5:
            path.write_bytes(b"")
        elif i % 7 == 3:
            scored = path.read_bytes().splitlines()[0] + b" 0.8125\n"
            path.write_bytes(dontcare + path.read_bytes() + scored)
    return label_dir, calib_dir


def tilt_sidecar(path: Path, frame_ids, seed: int = 9) -> dict[str, ExtrinsicPerturbation]:
    rng = np.random.default_rng(seed)
    tilts = {fid: ExtrinsicPerturbation(*rng.uniform(-0.05, 0.05, size=2).tolist())
             for fid in frame_ids}
    write_sidecar(path, tilts)
    return tilts


def frame_by_frame(label_dir: Path, rotations: dict[str, np.ndarray]) -> dict[str, bytes]:
    """Each frame's labels moved alone through the public per-frame API."""
    return {
        f"{fid}.txt": write_label_file(transform_labels(
            parse_label_file((label_dir / f"{fid}.txt").read_bytes()), helpers.DEFAULT_K, r,
        )[0])
        for fid, r in rotations.items()
    }


@pytest.mark.parametrize("n_frames", [1, 63, 64, 65, 129])
def test_chunked_frames_match_frame_by_frame_at_any_jobs(tmp_path, capsys, n_frames):
    """Around the 64-frame chunk size, every written label file equals that
    frame moved alone, in simulate and in rectify, at --jobs 1 and 3."""
    label_dir, calib_dir = write_chunk_dataset(tmp_path / "in", n_frames)
    ids = [f"{i:06d}" for i in range(n_frames)]
    spec = PerturbationSpec(seed=3)
    drawn = {fid: perturbation_matrix(sample_perturbation(spec, fid)) for fid in ids}
    tilts = tilt_sidecar(tmp_path / "tilt.jsonl", ids)
    undone = {fid: perturbation_matrix(p).T for fid, p in tilts.items()}
    for jobs in ("1", "3"):
        sim, rect = tmp_path / f"sim{jobs}", tmp_path / f"rect{jobs}"
        assert main(["simulate", "--labels", str(label_dir), "--calib", str(calib_dir),
                     "--out", str(sim), "--seed", "3", "--jobs", jobs]) == 0
        assert main(["rectify", "--det", str(label_dir), "--calib", str(calib_dir),
                     "--sidecar", str(tmp_path / "tilt.jsonl"), "--out", str(rect),
                     "--jobs", jobs]) == 0
        assert tree_bytes(sim / "labels") == frame_by_frame(label_dir, drawn)
        assert tree_bytes(rect) == frame_by_frame(label_dir, undone)
        assert [json.loads(line)["frame_id"] for line in
                (sim / "perturbations.jsonl").read_text().splitlines()] == ids
    assert tree_bytes(tmp_path / "sim1") == tree_bytes(tmp_path / "sim3")
    out = capsys.readouterr().out
    assert out.count(f"frames processed: {n_frames}\n") == 4


@pytest.mark.parametrize("jobs", ["1", "3"])
@pytest.mark.parametrize("bad", ["malformed", "overflow", "missing estimate"])
def test_bad_frame_in_a_chunk_fails_alone(tmp_path, capsys, jobs, bad):
    """A bad frame in the middle of a chunk fails with its own reason, and
    every other frame's output equals a run without that frame."""
    label_dir, calib_dir = write_chunk_dataset(tmp_path / "in", 70)
    ids = [f"{i:06d}" for i in range(70)]
    sidecar = tmp_path / "tilt.jsonl"
    tilts = tilt_sidecar(sidecar, ids)
    clean = tmp_path / "clean"
    clean.mkdir()
    for fid in ids:
        if fid != "000030":
            (clean / f"{fid}.txt").write_bytes((label_dir / f"{fid}.txt").read_bytes())
    if bad == "malformed":
        (label_dir / "000030.txt").write_text("Car 0.00 0 0.1 1 2 3 4\n")
        reason = f"detections {label_dir / '000030.txt'}: line 1: expected 15 or 16 fields, got 8"
    elif bad == "overflow":
        with open(label_dir / "000030.txt", "a") as f:
            f.write("Car 0.00 0 0.10 500.00 150.00 600.00 250.00 1.50 1.60 3.90 "
                    "1.79e308 -1.79e308 1.79e308 0.10\n")
        write_sidecar(sidecar, {**tilts, "000030": ExtrinsicPerturbation(0.3, 0.3)})
        reason = "camera point must be finite after the rotation"
    else:
        lines = sidecar.read_text().splitlines()
        sidecar.write_text("".join(f"{line}\n" for line in lines if '"000030"' not in line))
        reason = "frame 000030 missing from sidecar"
    outputs = {}
    for name, det in (("bad", label_dir), ("clean", clean)):
        code = main(["rectify", "--det", str(det), "--calib", str(calib_dir),
                     "--sidecar", str(sidecar), "--out", str(tmp_path / name), "--jobs", jobs])
        assert code == 0
        outputs[name] = (tree_bytes(tmp_path / name), capsys.readouterr().out)
    assert outputs["bad"][0] == outputs["clean"][0]
    assert "frames processed: 69\n" in outputs["bad"][1]
    assert f"frame failures: 1\n  000030: {reason}\n" in outputs["bad"][1]


@pytest.mark.parametrize("jobs", ["1", "3"])
@pytest.mark.parametrize("command", ["simulate", "rectify", "evaluate"])
@pytest.mark.parametrize("stage", [("_move_tables", "_record_chunk"), ("_label_table",)])
def test_unexpected_error_in_a_chunk_ends_the_run(
    tmp_path, capsys, monkeypatch, jobs, command, stage
):
    """An error that is not a frame's input or domain error (here a
    RuntimeError from the batch kernel, the matcher or the label reader)
    leaves ``main`` on a worker too; it is not counted as a frame failure."""
    from camperturb import kitti, metrics, simulate

    home = {"_move_tables": simulate, "_record_chunk": metrics, "_label_table": kitti}

    def broken(*args):
        raise RuntimeError("kernel fault")

    label_dir, calib_dir = write_chunk_dataset(tmp_path / "in", 70)
    tilt_sidecar(tmp_path / "tilt.jsonl", [f"{i:06d}" for i in range(70)])
    (tmp_path / "no_dets").mkdir()
    for name in stage:
        monkeypatch.setattr(home[name], name, broken)
    out, calib = ["--out", str(tmp_path / "out")], ["--calib", str(calib_dir)]
    args = {
        "simulate": ["simulate", "--labels", str(label_dir), *calib, *out],
        "rectify": ["rectify", "--det", str(label_dir), "--sidecar", str(tmp_path / "tilt.jsonl"),
                    *calib, *out],
        "evaluate": ["evaluate", "--gt", str(label_dir), "--det", str(tmp_path / "no_dets"), *out],
    }[command]
    with pytest.raises(RuntimeError, match="kernel fault"):
        main([*args, "--jobs", jobs])
    assert "frame failures" not in capsys.readouterr().out


def write_ab_detections(label_dir: Path, root: Path) -> tuple[Path, Path]:
    """Two scored detection sets of ``label_dir``'s objects: one in place, one
    with its boxes (3D and 2D) moved sideways; scores are drawn on a coarse grid,
    so some tie."""
    rng = np.random.default_rng(5)
    det_dirs = root / "det", root / "det_disturbed"
    for det_dir, shift in zip(det_dirs, (0.0, 0.4)):
        det_dir.mkdir(parents=True)
        for path in sorted(label_dir.glob("*.txt")):
            lines = []
            for line in path.read_text().splitlines():
                fields = line.split()[:15]
                if fields[0] != "DontCare":
                    dx = shift * rng.normal()
                    fields[11] = f"{float(fields[11]) + dx:.4f}"
                    for k in (4, 6):
                        fields[k] = f"{float(fields[k]) + 40.0 * dx:.2f}"
                    fields.append(f"{rng.integers(1, 20) / 20:.2f}")
                lines.append(" ".join(fields) + "\n")
            (det_dir / path.name).write_text("".join(lines))
    return det_dirs


@pytest.fixture(scope="module")
def ab_chunk_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("ab_chunks")
    label_dir, _ = write_chunk_dataset(root / "in", 129)
    return label_dir, *write_ab_detections(label_dir, root)


@pytest.mark.parametrize("n_frames", [1, 63, 64, 65, 129])
def test_evaluate_report_does_not_depend_on_chunk_boundaries(
    tmp_path, capsys, monkeypatch, ab_chunk_dataset, n_frames
):
    """Frames are matched a chunk at a time; the A/B report is the same as
    matching one frame per chunk, at every frame count around the boundary."""
    import camperturb._frames as frames

    dirs = []
    for source in ab_chunk_dataset:
        target = tmp_path / source.name
        target.mkdir()
        for i in range(n_frames):
            (target / f"{i:06d}.txt").write_bytes((source / f"{i:06d}.txt").read_bytes())
        dirs.append(str(target))
    gt, det, disturbed = dirs

    def report(jobs: str) -> bytes:
        out = tmp_path / f"report_{jobs}_{frames._CHUNK_FRAMES}.json"
        assert main([
            "evaluate", "--gt", gt, "--det", det, "--det-disturbed", disturbed,
            "--classes", "Car,Pedestrian", "--metrics", "ap2d,apbev,ap3d,aos,nuscenes",
            "--iou-threshold", "0.5", "--out", str(out), "--jobs", jobs,
        ]) == 0
        return out.read_bytes()

    chunked = {jobs: report(jobs) for jobs in ("1", "3")}
    monkeypatch.setattr(frames, "_CHUNK_FRAMES", 1)
    one_by_one = report("1")
    assert chunked == {"1": one_by_one, "3": one_by_one}
    assert json.loads(one_by_one)["parameters"]["frames"] == n_frames
    assert capsys.readouterr() == ("", "")


#: SHA-256 of the A/B report of the ``ab_chunk_dataset`` frames (every metric,
#: IoU threshold 0.5) per format, as the one-detection-at-a-time matcher and the
#: record-at-a-time sweep wrote it.
_AB_REPORT_SHA256 = {
    "json": "90a34248ab6335984346ab66e8cf9b94d60398f7894025ff352e2a519d8aa1c2",
    "csv": "de8fe88380fde866bf0b45c8f5f78e200cc833d53085fda200d37ccfaa4fbe86",
}


@pytest.mark.parametrize("jobs", ["1", "3"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_ab_report_bytes_are_pinned(tmp_path, capsys, ab_chunk_dataset, fmt, jobs):
    """Any change to the bits of a match, a record or a sweep changes the report."""
    gt, det, disturbed = ab_chunk_dataset
    out = tmp_path / f"report.{fmt}"
    assert main([
        "evaluate", "--gt", str(gt), "--det", str(det), "--det-disturbed", str(disturbed),
        "--classes", "Car,Pedestrian,DontCare", "--metrics", "ap2d,apbev,ap3d,aos,nuscenes",
        "--iou-threshold", "0.5", "--format", fmt, "--out", str(out), "--jobs", jobs,
    ]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _AB_REPORT_SHA256[fmt]
    assert capsys.readouterr() == ("", "")


#: SHA-256 of the one-set report of the ``ab_chunk_dataset`` frames (every metric,
#: so ``value_degrees`` too; IoU threshold 0.5) per format.
_ONE_SET_REPORT_SHA256 = {
    "json": "dadf7e20d29be93910f455300cd7ab0f9b3527d9aeab2b16b09141fd2337ec03",
    "csv": "e8104d3aa016ad01e4e9099be69f14d01f52546874aeee5b59ac790c2e1ab709",
}


@pytest.mark.parametrize("jobs", ["1", "3"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_one_set_report_bytes_are_pinned(tmp_path, capsys, ab_chunk_dataset, fmt, jobs):
    """Any change to the bits of a one-set report cell changes the report."""
    gt, det, _ = ab_chunk_dataset
    out = tmp_path / f"report.{fmt}"
    assert main([
        "evaluate", "--gt", str(gt), "--det", str(det),
        "--classes", "Car,Pedestrian,DontCare", "--metrics", "ap2d,apbev,ap3d,aos,nuscenes",
        "--iou-threshold", "0.5", "--format", fmt, "--out", str(out), "--jobs", jobs,
    ]) == 0
    if fmt == "json":
        assert any("value_degrees" in cell for cell in json.loads(out.read_bytes())["cells"])
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _ONE_SET_REPORT_SHA256[fmt]
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("jobs", ["1", "3"])
def test_first_bad_frame_of_a_later_chunk_names_the_error(
    tmp_path, capsys, ab_chunk_dataset, jobs
):
    """In the second chunk a disturbed detection with no footprint (frame 70)
    comes before a flat detection of the first set (frame 72) and a malformed
    detection file (frame 75): the first frame in id order is named."""
    gt, det, disturbed = (tmp_path / name for name in ("gt", "det", "det_disturbed"))
    for source, target in zip(ab_chunk_dataset, (gt, det, disturbed)):
        target.mkdir()
        for path in source.glob("*.txt"):
            (target / path.name).write_bytes(path.read_bytes())
    for path in (disturbed / "000070.txt", det / "000072.txt"):
        TestEvaluate._flatten_first_detection(path)
    with (det / "000075.txt").open("a") as f:
        f.write("Car 0 0\n")
    args = ["evaluate", "--gt", str(gt), "--det", str(det), "--metrics", "ap3d",
            "--jobs", jobs]
    assert main([*args, "--det-disturbed", str(disturbed)]) == 2
    assert capsys.readouterr().err == (
        "error: frame 000070: BEV footprint has (near-)zero area\n"
    )
    assert main(args) == 2
    assert capsys.readouterr().err == (
        "error: frame 000072: BEV footprint has (near-)zero area\n"
    )


def refuse_constant(name: str):
    raise ValueError(f"report holds {name}, which is not JSON")


def evaluate_one_pair(root: Path, bbox: str, dims: str, metrics: str):
    """``evaluate`` of frame 000003, whose ground truth and detection are one
    and the same Car with 2D box ``bbox`` and dimensions ``dims`` (h w l)."""
    line = f"Car 0.00 0 0.00 {bbox} {dims} 1.00 1.65 20.00 0.00"
    for name, text in (("gt", line), ("det", f"{line} 0.9")):
        (root / name).mkdir(exist_ok=True)
        (root / name / "000003.txt").write_text(text + "\n")
    report = root / "report.json"
    report.unlink(missing_ok=True)
    code = main(["evaluate", "--gt", str(root / "gt"), "--det", str(root / "det"),
                 "--metrics", metrics, "--out", str(report)])
    return code, report


_BBOX = "100.00 100.00 200.00 200.00"
_DIMS = "1.50 1.60 3.90"


@pytest.mark.parametrize("bbox, dims, metrics, reason", [
    pytest.param("0 0 1e200 1e200", _DIMS, "ap2d", "2D box area reaches half the float range",
                 id="2d-ap2d"),
    pytest.param("0 0 1e200 1e200", _DIMS, "aos", "2D box area reaches half the float range",
                 id="2d-aos"),
    pytest.param(_BBOX, "1e200 1e200 1e200", "apbev",
                 "BEV footprint area reaches half the float range", id="bev-apbev"),
    pytest.param(_BBOX, "1e200 1e200 1e200", "ap3d",
                 "BEV footprint area reaches half the float range", id="bev-ap3d"),
    pytest.param(_BBOX, "1e200 1e100 1e100", "ap3d", "box volume reaches half the float range",
                 id="volume-ap3d"),
    pytest.param(_BBOX, "1e200 1e100 1e100", "nuscenes",
                 "box volume reaches half the float range", id="volume-nuscenes"),
    pytest.param(_BBOX, "1e-320 1e-5 1e-5", "ap3d", "box has zero volume", id="zero-ap3d"),
    pytest.param(_BBOX, "1e-320 1e-5 1e-5", "nuscenes", "box has zero volume",
                 id="zero-nuscenes"),
    pytest.param("0 0 1e152 1", _DIMS, "ap2d", "2D box coordinate reaches 1e152",
                 id="extent-ap2d"),
    pytest.param(_BBOX, "1.5 1e300 1e-10", "apbev",
                 "BEV footprint reaches 1e152 m from the camera", id="extent-apbev"),
    pytest.param(_BBOX, "1e152 1 1", "ap3d", "box top or bottom reaches 1e152 m from the camera",
                 id="extent-ap3d"),
])
def test_box_measures_beyond_the_float_range_are_refused(
    tmp_path, capsys, bbox, dims, metrics, reason
):
    """A compared box whose area or volume overflows (or whose volume underflows
    to zero), or whose corners reach 1e152, fails its frame with exit 2 and no
    warning, rather than scoring 0 or writing NaN into the report."""
    code, report = evaluate_one_pair(tmp_path, bbox, dims, metrics)
    assert code == 2
    assert capsys.readouterr().err == f"error: frame 000003: {reason}\n"
    assert not report.exists()


def test_a_long_thin_turned_footprint_fails_its_frame_without_a_warning(tmp_path, capsys):
    """h w l 1.5 1e300 1e-10, and the detection turned 0.3 rad: the BEV kernel
    would overflow its edge crossings, so the frame is refused before it runs."""
    line = "Car 0.00 0 0.00 100.00 100.00 200.00 200.00 1.5 1e300 1e-10 1.00 1.65 20.00 {}"
    for name, text in (("gt", line.format("0.00")), ("det", line.format("0.30") + " 0.9")):
        (tmp_path / name).mkdir()
        (tmp_path / name / "000003.txt").write_text(text + "\n")
    args = ["evaluate", "--gt", str(tmp_path / "gt"), "--det", str(tmp_path / "det"),
            "--metrics", "apbev,ap3d"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args) == 2
    assert capsys.readouterr() == (
        "", "error: frame 000003: BEV footprint reaches 1e152 m from the camera\n"
    )


@pytest.mark.parametrize("bbox, dims, metrics", [
    pytest.param("0 0 1e150 1e150", _DIMS, "ap2d,aos", id="2d"),
    pytest.param(_BBOX, "1e200 1e100 1e100", "apbev", id="bev"),
    pytest.param(_BBOX, "1e100 1e100 1e100", "ap2d,apbev,ap3d,aos,nuscenes", id="volume"),
])
def test_box_measures_within_the_float_range_score_in_full(tmp_path, bbox, dims, metrics):
    code, report = evaluate_one_pair(tmp_path, bbox, dims, metrics)
    assert code == 0
    cells = json.loads(report.read_text(), parse_constant=refuse_constant)["cells"]
    assert {cell["metric"].split("_")[0] for cell in cells} == set(metrics.split(","))
    for cell in cells:
        assert cell["value"] == (0.0 if cell["metric"].startswith("nuscenes") else 100.0), cell


def test_zero_sigma_keeps_every_label_of_every_chunk(tmp_path, capsys):
    label_dir, calib_dir = write_chunk_dataset(tmp_path / "in", 130)
    out = tmp_path / "out"
    assert main(["simulate", "--labels", str(label_dir), "--calib", str(calib_dir),
                 "--out", str(out), "--sigma-pitch", "0", "--sigma-roll", "0",
                 "--jobs", "2"]) == 0
    assert tree_bytes(out / "labels") == tree_bytes(label_dir)
    assert "objects dropped: 0\n" in capsys.readouterr().out


@pytest.mark.parametrize("jobs", [1, 2])
def test_simulate_images_holds_few_images(tmp_path, capsys, monkeypatch, jobs):
    """Images go one frame at a time: live images (read and warped) stay
    within the read-ahead window, whatever the frame count."""
    import weakref

    import camperturb.netpbm as netpbm
    import camperturb.simulate as simulate

    label_dir, calib_dir, image_dir = write_image_dataset(tmp_path / "in", n_frames=12)
    lock = threading.Lock()
    live = peak = 0
    real_image = RasterImage

    def released():
        nonlocal live
        with lock:
            live -= 1

    def counted_image(*args, **kwargs):
        nonlocal live, peak
        image = real_image(*args, **kwargs)
        with lock:
            live += 1
            peak = max(peak, live)
        weakref.finalize(image, released)
        return image

    monkeypatch.setattr(netpbm, "RasterImage", counted_image)
    monkeypatch.setattr(simulate, "RasterImage", counted_image)
    code = main(["simulate", "--labels", str(label_dir), "--calib", str(calib_dir),
                 "--images", str(image_dir), "--out", str(tmp_path / "out"),
                 "--jobs", str(jobs)])
    assert code == 0
    assert "frames processed: 12\n" in capsys.readouterr().out
    assert 2 <= peak <= 2 * jobs + 2


# ---------------------------------------------------------------------------
# refusals on the paths of each subcommand


@pytest.mark.parametrize("subcommand", ["simulate", "evaluate"])
def test_empty_label_directory_exits_2_naming_it(tmp_path, capsys, subcommand):
    empty = tmp_path / "empty"
    empty.mkdir()
    calib = tmp_path / "calib.txt"
    helpers.write_calib(calib)
    argv = {
        "simulate": ["simulate", "--labels", str(empty), "--calib", str(calib)],
        "evaluate": ["evaluate", "--gt", str(empty), "--det", str(empty)],
    }[subcommand]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: no .txt label files found in {empty}\n"


def test_clamp_beyond_a_right_angle_is_a_usage_error(tmp_path, capsys):
    label_dir, calib_dir = write_dataset(tmp_path / "in", n_frames=1)
    code = main(["simulate", "--labels", str(label_dir), "--calib", str(calib_dir),
                 "--out", str(tmp_path / "out"), "--clamp", "2"])
    assert code == 1
    assert capsys.readouterr().err == "error: clamp must lie in (0, pi/2), got 2.0\n"


def test_rectify_with_no_frame_in_its_sidecar_exits_2_after_its_report(tmp_path, capsys):
    """Every frame fails before the move, so each chunk moves no frame; the
    report still lists the failures."""
    label_dir, calib_dir = write_dataset(tmp_path / "in", n_frames=2)
    sidecar = tmp_path / "other.jsonl"
    write_sidecar(sidecar, {"999999": ExtrinsicPerturbation(0.0, 0.0)})
    report = tmp_path / "report.json"
    code = main(["rectify", "--det", str(label_dir), "--calib", str(calib_dir),
                 "--sidecar", str(sidecar), "--out", str(tmp_path / "out"),
                 "--report", str(report)])
    assert code == 2
    out, err = capsys.readouterr()
    assert err == "error: no frame could be processed\n"
    assert "frames processed: 0\n" in out and "frame failures: 2\n" in out
    assert json.loads(report.read_text()) == {
        "direction": "undo",
        "frames_processed": 0,
        "objects_dropped": 0,
        "failures": [{"frame_id": f"{i:06d}", "reason": f"frame {i:06d} missing from sidecar"}
                     for i in range(2)],
    }


def test_pose_error_with_no_poses_is_a_usage_error(tmp_path, capsys):
    est, poses = tmp_path / "est.jsonl", tmp_path / "poses.txt"
    est.write_bytes(b"")
    poses.write_bytes(b"")
    assert main(["pose-error", "--est", str(est), "--gt-poses", str(poses)]) == 1
    assert capsys.readouterr().err == "error: no poses to compare\n"


@pytest.mark.parametrize("subcommand", ["simulate", "rectify"])
def test_shared_calibration_with_a_negative_focal_length_ends_the_run(
    tmp_path, capsys, subcommand
):
    label_dir, _ = write_dataset(tmp_path / "in", n_frames=2)
    shared = tmp_path / "calib.txt"
    shared.write_text(
        "P0: 721.5377 0 609.5593 0 0 721.5377 172.854 0 0 0 1 0\n"
        "P1: 721.5377 0 609.5593 -387.5744 0 721.5377 172.854 0 0 0 1 0\n"
        "P2: -721.5377 0 609.5593 44.85728 0 721.5377 172.854 0.2163791 0 0 1 0.002745884\n"
    )
    root = tmp_path / "run"
    root.mkdir()
    assert main(run_frames(subcommand, root, shared, label_dir)) == 2
    assert capsys.readouterr().err == (
        f"error: calibration {shared}: line 3: "
        "P2 focal lengths must be positive, got -721.5377 and 721.5377\n"
    )


@pytest.mark.parametrize("value, grad_check", [("yes", True), ("off", False), ("maybe", None)])
def test_loss_config_sets_a_boolean(tmp_path, capsys, value, grad_check):
    """A boolean config key reads yes/no words; any other word is a usage error."""
    out = save_feature(tmp_path / "out.ftb", np.arange(6.0).reshape(2, 1, 3))
    content = save_feature(tmp_path / "content.ftb", np.ones((2, 1, 3)))
    config = tmp_path / "loss.cfg"
    config.write_text(f"grad-check = {value}\n")
    code = main(["loss", "--config", str(config), "--output", str(out),
                 "--content", str(content)])
    stdout, err = capsys.readouterr()
    if grad_check is None:
        assert code == 1
        assert err == f"error: config key grad-check: expected a boolean, got {value!r}\n"
    else:
        assert code == 0
        assert ("grad_check" in json.loads(stdout)) is grad_check


def test_class_list_of_no_names_is_a_usage_error(tmp_path, capsys):
    label_dir, _ = write_dataset(tmp_path / "in", n_frames=1, scores=True)
    code = main(["evaluate", "--gt", str(label_dir), "--det", str(label_dir),
                 "--classes", ","])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: argument --classes: expected a comma-separated list, got ','\n"
    )


@pytest.mark.parametrize("subcommand", ["simulate", "evaluate"])
def test_output_under_a_regular_file_exits_2(tmp_path, capsys, subcommand):
    label_dir, calib_dir = write_dataset(tmp_path / "in", n_frames=1, scores=True)
    blocker = tmp_path / "file"
    blocker.write_text("x\n")
    argv = {
        "simulate": ["simulate", "--labels", str(label_dir), "--calib", str(calib_dir),
                     "--out", str(blocker / "out")],
        "evaluate": ["evaluate", "--gt", str(label_dir), "--det", str(label_dir),
                     "--out", str(blocker / "out" / "report.json")],
    }[subcommand]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: cannot create output directory: ")
    assert blocker.read_text() == "x\n"


def test_report_path_that_is_a_directory_exits_2(tmp_path, capsys):
    poses, est = tmp_path / "poses.txt", tmp_path / "est.jsonl"
    write_straight_poses(poses, 3, 1.0)
    write_estimates(est, 3, pitch=0.0)
    report = tmp_path / "report"
    report.mkdir()
    code = main(["pose-error", "--est", str(est), "--gt-poses", str(poses),
                 "--report", str(report)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write report {report}: ")
    assert list(report.iterdir()) == []

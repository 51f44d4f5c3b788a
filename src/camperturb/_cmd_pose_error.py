"""``camperturb pose-error``: geodesic angular error of estimated extrinsics vs. pose truth."""

import math
import re
from pathlib import Path

import numpy as np

from . import horizon, kitti
from ._extrinsics import _angles, _json_lines, _rotations
from .cli import _csv_text, _emit_report, _json_dumps, _parse_file, _UsageError
from .errors import MalformedLine


def _load_estimates(data: bytes) -> np.ndarray:
    """Estimated rotations as one (n, 3, 3) stack, from a pitch/roll JSON-lines
    sidecar or a pose file.

    Sidecar entries align with ground-truth pose lines by file order.
    """
    if re.match(rb"\s*{", data):
        angles = (pair for _, pair in _json_lines(data, _angles))
        return _rotations(np.fromiter(angles, np.dtype((float, 2))))
    return kitti._pose_stack(data)[0][:, :, :3]


def _poses_and_path(data: bytes) -> tuple[np.ndarray, float]:
    """The (n, 3, 4) poses of a pose file and the length of the path through them.

    Each step's length is taken as ``np.linalg.norm`` takes it (one BLAS
    dot), and the steps are summed left to right.  A step whose length
    leaves the float range raises :class:`MalformedLine` at the pose it
    leads to; finite steps, each below 1.4e154 m, cannot overflow the sum.
    """
    poses, line_nos = kitti._pose_stack(data)
    with np.errstate(over="ignore"):  # refused below
        steps = np.diff(poses[:, :, 3], axis=0)
        lengths = np.sqrt(steps[:, None, :] @ steps[:, :, None]).ravel()
    path_length = 0.0
    for step in lengths.tolist():
        path_length += step
    if not math.isfinite(path_length):
        line_no = line_nos[int(np.argmax(~np.isfinite(lengths))) + 1]
        raise MalformedLine(line_no, "the path to this pose is longer than the float range")
    return poses, path_length


def run(cfg) -> None:
    estimates = _parse_file(Path(cfg.est), "estimates", _load_estimates)
    poses, path_length = _parse_file(Path(cfg.gt_poses), "ground-truth poses", _poses_and_path)
    if len(estimates) != len(poses):
        raise _UsageError(
            f"frame count mismatch: {len(estimates)} estimates vs "
            f"{len(poses)} ground-truth poses"
        )
    if not len(poses):
        raise _UsageError("no poses to compare")
    # both stacks were checked when parsed or built from angles
    errors_deg = horizon._angular_errors(estimates, poses[:, :, :3])
    mean_deg = sum(errors_deg) / len(errors_deg)
    deg_per_m = (mean_deg / path_length) if path_length > 0 else "n/a"
    report = {
        "frames": len(poses),
        "per_frame_deg": errors_deg,
        "mean_angular_error_deg": mean_deg,
        "mean_angular_error_rad": math.radians(mean_deg),
        "max_angular_error_deg": max(errors_deg),
        "path_length_m": path_length,
        "angular_error_deg_per_m": deg_per_m,
    }
    if cfg.format == "json":
        text = _json_dumps(report)
    else:
        rows = [[key, report[key]] for key in report if key != "per_frame_deg"]
        text = _csv_text(["quantity", "value"], rows)
    _emit_report(text, cfg.report)

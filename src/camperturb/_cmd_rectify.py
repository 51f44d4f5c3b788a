"""``camperturb rectify``: move detections between camera viewports given extrinsics."""

import math
from pathlib import Path

from . import _frames, horizon, simulate
from ._extrinsics import _angles, _json_lines, _label_mover, _number, _rotations
from .cli import (
    _emit_report, _IOFailure, _json_dumps, _make_dir, _parse_file, _require, _UsageError,
)
from .errors import MalformedLine


def _frame_id(record) -> str:
    """``record["frame_id"]``, which must be a JSON string."""
    value = record["frame_id"]
    if not isinstance(value, str):
        raise TypeError(f"'frame_id' must be a JSON string, got {value!r}")
    return value


def _by_frame(entry):
    """A parser of JSON-lines data into ``{frame_id: value}``, ``entry(record)`` giving
    ``(frame_id, value)``; a frame id on a second line raises :class:`MalformedLine`."""

    def parse(data: bytes) -> dict:
        found, first_line = {}, {}
        for line_no, (frame_id, value) in _json_lines(data, entry):
            if frame_id in found:
                raise MalformedLine(
                    line_no, f"frame_id {frame_id!r} repeats line {first_line[frame_id]}"
                )
            found[frame_id], first_line[frame_id] = value, line_no
        return found

    return parse


def _load_sidecar(path: Path) -> dict[str, tuple[float, float]]:
    """Read a {frame_id, pitch, roll} JSON-lines sidecar: (pitch, roll) by frame id."""
    entry = lambda record: (_frame_id(record), _angles(record))  # noqa: E731
    return _parse_file(path, "sidecar", _by_frame(entry))


def _horizon_entry(record):
    """``(frame_id, (HorizonLine, VanishingPoint))`` of a horizon annotation."""
    return _frame_id(record), (
        horizon.HorizonLine(
            slope=_number(record, "slope"), intercept_v=_number(record, "intercept_v")
        ),
        horizon.VanishingPoint(u=_number(record, "vp_u"), v=_number(record, "vp_v")),
    )


def run(cfg) -> None:
    if bool(cfg.sidecar) == bool(cfg.horizon):
        raise _UsageError("exactly one of --sidecar or --horizon is required")
    det_dir = _require(cfg.det, "detection")
    calib = _frames._intrinsics_source(cfg.calib)
    out_dir = Path(cfg.out)
    _make_dir(out_dir)

    if cfg.sidecar:
        source, estimates = "sidecar", _load_sidecar(Path(cfg.sidecar))
    else:
        source = "horizon annotations"
        estimates = _parse_file(Path(cfg.horizon), source, _by_frame(_horizon_entry))
    truth = _load_sidecar(Path(cfg.truth_sidecar)) if cfg.truth_sidecar else {}

    def prepare(frame_id: str, table, intrinsics):
        if frame_id not in estimates:
            raise _IOFailure(f"frame {frame_id} missing from {source}")
        estimate = estimates[frame_id]
        if cfg.horizon:
            p = horizon.extrinsics_from_horizon_vp(*estimate, intrinsics)
            estimate = p.pitch, p.roll
        return table, intrinsics, estimate, (frame_id, estimate, truth.get(frame_id))

    move = _label_mover(simulate._move_tables, cfg.direction == "undo")
    records, dropped, failures = _frames._stream_frames(
        det_dir, "detections", calib, out_dir, prepare, move, cfg.jobs
    )
    scored = [record for record in records if record[2] is not None]
    report: dict = {
        "direction": cfg.direction,
        "frames_processed": len(records),
        "objects_dropped": dropped,
        "failures": [{"frame_id": f, "reason": str(exc)} for f, exc in failures],
    }
    if scored:
        frame_ids, estimated, true = zip(*scored)
        # both stacks are rotations, built from checked angles
        degs = horizon._angular_errors(_rotations(estimated), _rotations(true))
        mean_deg = sum(degs) / len(degs)
        max_deg = max(degs)
        report["angular_error"] = {
            "per_frame_deg": [{"frame_id": f, "deg": e} for f, e in zip(frame_ids, degs)],
            "mean_deg": mean_deg,
            "mean_rad": math.radians(mean_deg),
            "max_deg": max_deg,
            "max_rad": math.radians(max_deg),
        }
        print(
            f"angular error vs truth: mean {mean_deg:.9f} deg "
            f"({math.radians(mean_deg):.3e} rad), max {max_deg:.9f} deg"
        )
    if cfg.report:
        _emit_report(_json_dumps(report), cfg.report)
    if not records:
        raise _IOFailure("no frame could be processed")

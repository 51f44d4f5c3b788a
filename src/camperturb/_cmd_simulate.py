"""``camperturb simulate``: sample per-frame pitch/roll, rewrite labels, warp images."""

import json
import os
from pathlib import Path

from . import _frames, kitti, netpbm, simulate
from ._extrinsics import _label_mover
from .cli import _IOFailure, _make_dir, _parse_file, _require, _UsageError, _write
from .errors import CamPerturbError


def run(cfg) -> None:
    try:
        spec = simulate.PerturbationSpec(
            sigma_pitch=cfg.sigma_pitch,
            sigma_roll=cfg.sigma_roll,
            clamp=cfg.clamp,
            seed=cfg.seed,
        )
    except (ValueError, CamPerturbError) as exc:
        raise _UsageError(str(exc)) from exc
    label_dir = _require(cfg.labels, "label")
    calib = _frames._intrinsics_source(cfg.calib)
    image_dir = _require(cfg.images, "image") if cfg.images else None
    out_dir = Path(cfg.out)
    out_labels = out_dir / "labels"
    out_images = out_dir / "images"
    _make_dir(out_labels)
    if image_dir is not None:
        _make_dir(out_images)

    def sidecar_line(frame_id: str, p) -> str:  # p: ExtrinsicPerturbation
        record = {"frame_id": frame_id, "pitch": p.pitch, "roll": p.roll}
        return json.dumps(record, sort_keys=True) + "\n"

    def draw(frame_id: str, table, intrinsics):
        p = simulate.sample_perturbation(spec, frame_id)
        return table, intrinsics, (p.pitch, p.roll), sidecar_line(frame_id, p)

    def load_image(frame_id: str, table, intrinsics):
        for extension in (".ppm", ".pgm"):
            candidate = image_dir / f"{frame_id}{extension}"
            if os.path.lexists(candidate):  # a dangling link or a directory fails its read
                image = _parse_file(candidate, "image", netpbm.read_image)
                break
        else:
            raise _IOFailure(f"no image {frame_id}.ppm or {frame_id}.pgm in {image_dir}")
        labels = kitti._labels_of(table)
        frame = simulate.SceneFrame(frame_id, intrinsics, labels=labels, image=image)
        return frame, out_images / f"{frame_id}{extension}"

    def warp_one(frame, image_path: Path):
        perturbed, warped = simulate.simulate_frame(frame, spec, fill=cfg.fill)
        files = [(image_path, netpbm.write_image(warped))]
        record = sidecar_line(frame.frame_id, perturbed.applied)
        return kitti._table_of(perturbed.labels), perturbed.dropped, files, record

    def warp(prepared):
        return [_frames._outcome(warp_one, *frame) for frame in prepared]

    if image_dir is None:
        prepare, chunk = draw, _frames._CHUNK_FRAMES
        move = _label_mover(simulate._move_tables)
    else:  # one frame per chunk, so each worker holds one image at a time
        prepare, move, chunk = load_image, warp, 1
    records, _, _ = _frames._stream_frames(
        label_dir, "label file", calib, out_labels, prepare, move, cfg.jobs, chunk
    )
    _write(out_dir / "perturbations.jsonl", "".join(records), "sidecar")
    if not records:
        raise _IOFailure("no frame could be processed")

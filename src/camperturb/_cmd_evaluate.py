"""``camperturb evaluate``: AP40 / AOS / center-distance metric tables, optional A/B diff."""

import math
import os
from pathlib import Path

from . import _frames, kitti, metrics
from .cli import (
    _csv_text, _emit_report, _IOFailure, _json_dumps, _parse_file, _require, _UsageError,
)
from .errors import DegenerateBox, NoGroundTruth, NoMatches

_KIND_BY_METRIC = {"ap2d": "2d", "apbev": "bev", "ap3d": "3d", "aos": "2d"}
_NUSCENES_FIELDS = {"nuscenes_ate": "ate", "nuscenes_ase": "ase", "nuscenes_aoe": "aoe"}
_CELL_FIELDS = ("metric", "class", "difficulty", "threshold")


def _value(tally, set_: int, metric: str, class_name: str, bin_):
    """One cell's value for detection set ``set_`` of a metrics tally; 'n/a' when undefined.

    ``bin_`` is the cell's ``DifficultyBin`` (None for a nuScenes cell).
    """
    kind = _KIND_BY_METRIC.get(metric, "nuscenes")
    try:
        value = metrics._cell(tally, set_, kind, bin_, class_name, metric == "aos")
    except (NoGroundTruth, NoMatches):
        return "n/a"
    return getattr(value, _NUSCENES_FIELDS[metric]) if kind == "nuscenes" else value[0]


def _cell_keys(cfg):
    """The ``_CELL_FIELDS`` values of each report cell, in report order."""
    for metric in cfg.metrics:
        for class_name in cfg.classes:
            if metric == "nuscenes":
                for name in _NUSCENES_FIELDS:
                    yield name, class_name, "all", cfg.match_radius
            else:
                for difficulty in cfg.difficulties:
                    yield metric, class_name, difficulty, cfg.iou_threshold


def run(cfg) -> None:
    for option in ("classes", "metrics", "difficulties"):  # a repeat would repeat report cells
        items = getattr(cfg, option)
        repeated = [item for i, item in enumerate(items) if item in items[:i]]
        if repeated:
            raise _UsageError(f"--{option} lists {repeated[0]!r} more than once")
    gt_dir = _require(cfg.gt, "ground-truth")
    det_dirs = [_require(cfg.det, "detection")]
    if cfg.det_disturbed:
        det_dirs.append(_require(cfg.det_disturbed, "disturbed detection"))
    frame_ids = _frames._frame_ids(gt_dir)
    # workers read and score a chunk of frames, all detection sets at once, into one tally
    # of AP/AOS records and nuScenes error triples; tallies are added here in id order
    kinds = dict.fromkeys(_KIND_BY_METRIC[m] for m in cfg.metrics if m in _KIND_BY_METRIC)
    bin_of = {d: kitti.DifficultyBin[d.upper()] for d in cfg.difficulties}  # matcher reads .name
    bins = list(bin_of.values())
    classes = cfg.classes if "nuscenes" in cfg.metrics else ()

    def detections(det_dir: Path, frame_id: str):
        """The frame's detection table; a path with no directory entry is a frame without
        detections (a dangling link or a directory is read, and fails)."""
        path = det_dir / f"{frame_id}.txt"
        dets = _parse_file(path, "detections", kitti._label_table) if os.path.lexists(path) else (
            kitti._label_table(b"")
        )
        try:
            metrics._require_scores(frame_id, dets)
        except ValueError as exc:
            raise _IOFailure(f"frame {frame_id}: {exc}") from exc
        return dets

    def score(chunk: list[str]):  # a missing detection file is a set without detections
        sets, failure = [[] for _ in det_dirs], None  # (frame_id, gt, dets) per set
        for frame_id in chunk:  # up to the first that fails to read
            try:
                gt = _parse_file(gt_dir / f"{frame_id}.txt", "gt labels", kitti._label_table)
                det_tables = [detections(det_dir, frame_id) for det_dir in det_dirs]
            except _IOFailure as exc:
                failure = exc
                break
            for set_frames, dets in zip(sets, det_tables):
                set_frames.append((frame_id, gt, dets))
        plan = (kinds, bins, classes, cfg.iou_threshold, cfg.match_radius)
        try:
            part = metrics._record_chunk(sets, *plan)
        except DegenerateBox:  # of several bad frames (and sets) the first in id order names it
            for frame in zip(*sets):
                for set_frame in frame:
                    metrics._record_chunk([[set_frame]], *plan)
            raise
        if failure:
            raise failure
        return part

    tally = metrics._tally()
    chunks = _frames._chunks(frame_ids, _frames._CHUNK_FRAMES)
    for part in _frames._ordered_map(score, chunks, cfg.jobs):
        metrics._add_tally(tally, part)
        del part  # so no chunk's tally outlives its adding
    value_columns = ["value"] if len(det_dirs) == 1 else ["original", "disturbed", "decrease"]
    cells = []
    for key in _cell_keys(cfg):
        cell = dict(zip(_CELL_FIELDS, key))
        metric, class_name, difficulty = key[:3]
        values = [_value(tally, set_, metric, class_name, bin_of.get(difficulty))
                  for set_ in range(len(det_dirs))]
        if len(values) == 1:
            cell["value"] = value = values[0]
            if cell["metric"] == "nuscenes_aoe" and value != "n/a":
                cell["value_degrees"] = math.degrees(value)
        else:
            original, disturbed = values
            decrease = "n/a" if "n/a" in values else disturbed - original
            cell.update(original=original, disturbed=disturbed, decrease=decrease)
        cells.append(cell)
    report = {
        "parameters": {
            "classes": list(cfg.classes),
            "difficulties": list(cfg.difficulties),
            "iou_threshold": cfg.iou_threshold,
            "match_radius": cfg.match_radius,
            "metrics": list(cfg.metrics),
            "frames": len(frame_ids),
        },
        "cells": cells,
    }
    if cfg.format == "json":
        text = _json_dumps(report)
    else:
        header = [*_CELL_FIELDS, *value_columns]
        text = _csv_text(header, [[c[k] for k in header] for c in cells])
    _emit_report(text, cfg.out)

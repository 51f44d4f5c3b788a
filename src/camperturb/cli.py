"""Command-line front end: reproducible perturbation experiments.

Subcommands
-----------
simulate    sample per-frame pitch/roll, rewrite labels, warp images
evaluate    AP40 / AOS / center-distance metric tables, optional A/B diff
rectify     move detections between camera viewports given extrinsics
pose-error  geodesic angular error of estimated extrinsics vs. pose truth
loss        content/style loss kernels over serialized feature tensors

Conventions
-----------
* All angles on the command line are **radians**; reports additionally
  show degrees where an angle is reported.
* Every run is deterministic given its inputs and flags: reports carry no
  timestamps, map keys are sorted, and ``--jobs N`` produces artifacts
  byte-identical to ``--jobs 1``.
* ``--jobs N`` runs N worker threads (``--jobs 1``: one).  They take chunks
  of frames and do all of a chunk's work: read, move or score, and write.
  The main thread gathers the outcomes in id order with at most 2 x N
  chunks in flight, so memory does not grow with the number of frames;
  ``evaluate`` keeps only the records its report is built from.
  Chunks hold 64 frames: labels-only ``simulate`` and ``rectify`` move
  a chunk as one batch, and ``evaluate`` scores it into one tally.
  ``simulate --images`` takes one frame at a time.
* An output path that holds a regular file gets a new file: the old one is
  unlinked first, never truncated in place.  Any other path (a symlink, a
  device such as ``/dev/stdout``, a FIFO) is opened and written through.
* A flat ``key=value`` config file (``--config``) may supply any flag of
  its subcommand, spelled without the leading dashes; explicit flags win.
  The ``CAMPERTURB_SEED`` environment variable overrides the seed from
  either source (master override for CI matrices).
* Exit codes: 0 success, 1 usage/config error, 2 I/O or data error.
"""

from __future__ import annotations

import argparse
import collections
import functools
import json
import math
import os
import re
import stat
import sys
from pathlib import Path

import numpy as np

# The layers are imported where they run, so that a process loads only its
# subcommand's: each cmd_* imports them on its first lines, on the main thread.
# A helper called a few times per command, or once per chunk, imports its own
# names first thing (after its command's imports, a lookup); a helper that runs
# per record or per frame takes them from its command.
from . import DEFAULT_CLAMP, DEFAULT_SIGMA
from .errors import (
    CamPerturbError,
    ChannelMismatch,
    DegenerateBox,
    MalformedLine,
    NoGroundTruth,
    NoMatches,
    ShapeMismatch,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2

SEED_ENV_VAR = "CAMPERTURB_SEED"


class _UsageError(Exception):
    """Bad flags or config values: reported on stderr, exit code 1."""


class _IOFailure(Exception):
    """Missing or unreadable inputs: reported on stderr, exit code 2."""


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so exit codes stay ours."""

    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# config file / flag resolution


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _read_config_file(path: str) -> dict[str, str]:
    """Read a flat key=value file; '#' starts a comment, blank lines skipped."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise _UsageError(
                f"config file {path} line {line_no}: expected key=value, got {raw!r}"
            )
        values[key.strip()] = value.strip()
    return values


class _Option:
    """One option of a subcommand: name, converter, help text, default.

    A subcommand's ``_Option`` table is the only place its options are
    declared: ``build_parser`` makes one flag per entry, and the entry
    names are exactly the keys its config file accepts.
    """

    def __init__(self, name, convert, help, default=None, required=False):
        self.name = name            # flag without "--" and config-file key
        self.dest = name.replace("-", "_")
        self.convert = convert
        self.help = help
        self.default = default
        self.required = required


def _resolve_options(args: argparse.Namespace, options: list[_Option]):
    """Merge flag values over config-file values over defaults.

    ``CAMPERTURB_SEED`` then overrides the seed of a subcommand that has one.
    """
    config: dict[str, str] = {}
    if args.config:
        config = _read_config_file(args.config)
        known = {opt.name for opt in options}
        unknown = sorted(set(config) - known)
        if unknown:
            raise _UsageError(
                f"unknown config key(s) {', '.join(unknown)}; "
                f"known keys: {', '.join(sorted(known))}"
            )
    resolved = {}
    for opt in options:
        value = getattr(args, opt.dest)
        if value is None and opt.name in config:
            try:
                value = opt.convert(config[opt.name])
            except (ValueError, TypeError) as exc:
                raise _UsageError(
                    f"config key {opt.name}: {exc}"
                ) from exc
        if value is None:
            value = opt.default
        if value is None and opt.required:
            raise _UsageError(f"--{opt.name} is required")
        resolved[opt.dest] = value
    raw_seed = os.environ.get(SEED_ENV_VAR)
    if "seed" in resolved and raw_seed is not None:
        try:
            resolved["seed"] = _seed_value(raw_seed)
        except ValueError as exc:
            raise _UsageError(f"{SEED_ENV_VAR}: {exc}") from exc
    return argparse.Namespace(**resolved)


def _flag_type(convert):
    """Wrap a converter so argparse reports failures as usage errors."""

    def parse(text):
        try:
            return convert(text)
        except (ValueError, TypeError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return parse


def _nonneg_angle(text: str) -> float:
    value = float(text)
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"angle must be finite and >= 0, got {text!r}")
    return value


def _seed_value(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {value}")
    return value


def _jobs_value(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"jobs must be >= 1, got {value}")
    return value


def _fill_value(text: str) -> int:
    value = int(text)
    if not 0 <= value <= 255:
        raise ValueError(f"fill must be a byte value 0..255, got {value}")
    return value


def _threshold_value(text: str) -> float:
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise ValueError(f"iou threshold must lie in (0, 1], got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value) or value <= 0:
        raise ValueError(f"expected a positive number, got {text!r}")
    return value


def _nonneg_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"expected a non-negative number, got {text!r}")
    return value


def _comma_list(text: str) -> tuple[str, ...]:
    items = tuple(part.strip() for part in text.split(",") if part.strip())
    if not items:
        raise ValueError(f"expected a comma-separated list, got {text!r}")
    return items


def _one_of(what: str, choices: tuple[str, ...]):
    """Converter that accepts one of ``choices``; ``what`` names it in errors."""

    def convert(text: str) -> str:
        if text not in choices:
            raise ValueError(f"unknown {what} {text!r}; choose from {', '.join(choices)}")
        return text

    return convert


def _list_of(convert):
    """Converter for a comma list whose every item passes ``convert``."""

    def parse(text: str) -> tuple[str, ...]:
        return tuple(convert(item) for item in _comma_list(text))

    return parse


_JOBS_OPTION = _Option(
    "jobs", _jobs_value, "worker threads; frames stream through a window of 2 x jobs", 1
)
_CALIB_OPTION = _Option(
    "calib", str, "calibration file, or directory of per-frame files", required=True
)


# ---------------------------------------------------------------------------
# shared I/O helpers


def _require(path: str, what: str, kind: str = "directory") -> Path:
    """``path`` as a Path; it must exist as a "directory" or as any "path"."""
    p = Path(path)
    if not {"directory": p.is_dir, "path": p.exists}[kind]():
        raise _IOFailure(f"{what} {kind} does not exist: {p}")
    return p


def _make_dir(path: Path) -> None:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _IOFailure(f"cannot create output directory: {exc}") from exc


def _write(path: Path, data: bytes | str, what: str) -> None:
    """Write ``data`` to ``path``; a regular file there is replaced, not truncated.

    A rerun into a filled directory then creates its files as a run into an
    empty one does, instead of truncating files written moments before, and
    a hard link to an old output keeps the old bytes.  Anything else at the
    path (a symlink, a device, a FIFO) is opened and written through.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    try:
        try:
            replace = stat.S_ISREG(os.lstat(path).st_mode)
        except FileNotFoundError:
            replace = True
        if replace:
            path.unlink(missing_ok=True)
        with open(path, "xb" if replace else "wb") as f:
            f.write(data)
    except OSError as exc:
        raise _IOFailure(f"cannot write {what} {path}: {exc}") from exc


def _read_bytes(path: Path, what: str) -> bytes:
    try:
        return path.read_bytes()
    except OSError as exc:
        raise _IOFailure(f"cannot read {what} {path}: {exc}") from exc


def _parse_file(path: Path, what: str, parse):
    """``parse(data)`` of the file at ``path``; a parse error names the file."""
    data = _read_bytes(path, what)
    try:
        return parse(data)
    except CamPerturbError as exc:
        raise _IOFailure(f"{what} {path}: {exc}") from exc


def _json_lines(data: bytes, build):
    """Yield ``build(record)`` for each record of JSON-lines ``data``, in file order.

    Blank lines are skipped, and the text is read a block at a time.  A
    line that is not JSON, or whose record ``build`` rejects, raises
    :class:`MalformedLine` with its number.
    """
    from .kitti import _text_lines

    for line_no, line in _text_lines(data, "JSON-lines file"):
        if not line.strip():
            continue
        try:
            yield build(json.loads(line))
        except (KeyError, TypeError, ValueError, OverflowError, CamPerturbError) as exc:
            raise MalformedLine(line_no, str(exc)) from exc


def _number(record, key: str) -> float:
    """``record[key]``, which must be a JSON number (``true`` is not one)."""
    value = record[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"'{key}' must be a JSON number, got {value!r}")
    return float(value)


def _frame_id(record) -> str:
    """``record["frame_id"]``, which must be a JSON string."""
    value = record["frame_id"]
    if not isinstance(value, str):
        raise TypeError(f"'frame_id' must be a JSON string, got {value!r}")
    return value


def _angle_reader():
    """``record -> (pitch, roll)``, under the rules of :class:`ExtrinsicPerturbation`."""
    from .geometry import MAX_PERTURBATION_ANGLE, ExtrinsicPerturbation

    def angles(record) -> tuple[float, float]:
        pitch, roll = _number(record, "pitch"), _number(record, "roll")
        if not (abs(pitch) < MAX_PERTURBATION_ANGLE and abs(roll) < MAX_PERTURBATION_ANGLE):
            ExtrinsicPerturbation(pitch=pitch, roll=roll)  # raises with its own message
        return pitch, roll

    return angles


def _load_sidecar(path: Path) -> dict[str, tuple[float, float]]:
    """Read a {frame_id, pitch, roll} JSON-lines sidecar: (pitch, roll) by frame id."""
    angles = _angle_reader()
    entry = lambda record: (_frame_id(record), angles(record))  # noqa: E731
    return _parse_file(path, "sidecar", lambda data: dict(_json_lines(data, entry)))


def _frame_ids(label_dir: Path) -> list[str]:
    ids = sorted(p.stem for p in label_dir.glob("*.txt"))
    if not ids:
        raise _IOFailure(f"no .txt label files found in {label_dir}")
    return ids


def _ordered_map(fn, items, jobs: int):
    """Yield ``fn(item)`` for each item, in input order.

    The calls run on ``jobs`` threads, but at most ``2 * jobs`` results
    exist that the caller has not taken yet, so memory stays flat however
    many items there are.  An exception that ``fn`` raises is raised here.
    """
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        window = collections.deque()
        for item in items:
            if len(window) == 2 * jobs:
                yield window.popleft().result()
            window.append(pool.submit(fn, item))
        while window:
            yield window.popleft().result()


#: Frames a worker takes at a time: labels-only simulate and rectify move them as
#: one batch, and evaluate scores them into one tally.
_CHUNK_FRAMES = 64


def _chunks(items: list, size: int) -> list[list]:
    return [items[i:i + size] for i in range(0, len(items), size)]


def _outcome(fn, *args):
    """``fn(*args)``, or the exception that fails it on its input."""
    try:
        return fn(*args)
    except (CamPerturbError, _IOFailure) as exc:
        return exc


def _stream_frames(
    label_dir: Path, what: str, intrinsics_of, out_dir: Path, prepare, move, jobs: int,
    chunk: int = _CHUNK_FRAMES,
):
    """The frame pipeline of simulate and rectify.

    The ``<id>.txt`` label files of ``label_dir`` (``what`` names them in
    errors) go to the workers ``chunk`` frames at a time.  For each frame
    ``prepare(id, table, intrinsics_of(id))`` reads the rest of its
    inputs; ``move`` then takes the chunk's prepared frames together and
    returns, for each, ``(table, dropped, files, record)`` or the exception
    that fails it.  The worker writes the moved table to
    ``out_dir/<id>.txt``, followed by ``files``, the frame's other ``(path,
    bytes)`` outputs.  An input or domain error fails that frame alone.
    Outcomes are gathered in id order.  Prints the summary and returns
    ``(records, dropped, failures)``, ``failures`` holding ``(frame_id,
    exception)`` pairs.
    """
    from .kitti import _label_table, _table_text

    def load(frame_id: str):
        table = _parse_file(label_dir / f"{frame_id}.txt", what, _label_table)
        return prepare(frame_id, table, intrinsics_of(frame_id))

    def attempt(frame_ids: list[str]):
        loaded = [_outcome(load, frame_id) for frame_id in frame_ids]
        moved = iter(move([frame for frame in loaded if not isinstance(frame, Exception)]))
        outcomes = []
        for frame_id, frame in zip(frame_ids, loaded):
            result = frame if isinstance(frame, Exception) else next(moved)
            if not isinstance(result, Exception):
                table, dropped, files, record = result
                for path, data in [(out_dir / f"{frame_id}.txt", _table_text(table)), *files]:
                    _write(path, data, "output")
                result = dropped, record
            outcomes.append((frame_id, result))
        return outcomes

    records = []
    dropped = 0
    failures: list[tuple[str, Exception]] = []
    for outcomes in _ordered_map(attempt, _chunks(_frame_ids(label_dir), chunk), jobs):
        for frame_id, result in outcomes:
            if isinstance(result, Exception):
                failures.append((frame_id, result))
            else:
                dropped += result[0]
                records.append(result[1])

    print(f"frames processed: {len(records)}")
    print(f"objects dropped: {dropped}")
    print(f"frame failures: {len(failures)}")
    for frame_id, exc in failures:
        print(f"  {frame_id}: {exc}")
    return records, dropped, failures


def _rotations(angles) -> np.ndarray:
    """R_x(pitch) @ R_z(roll) of each (pitch, roll) pair, as one (n, 3, 3) stack."""
    from .geometry import _perturbation_matrices

    return _perturbation_matrices(*np.array(angles, dtype=float).reshape(-1, 2).T)


def _label_mover(undo: bool = False):
    """The ``move`` of the labels-only pipeline: one batch for a chunk's frames.

    Each prepared frame is ``(table, intrinsics, (pitch, roll), record)``.
    Its labels rotate by R_x(pitch) @ R_z(roll), or by the transpose of
    that with ``undo``.
    """
    from .simulate import _move_tables

    def move(prepared) -> list:
        if not prepared:
            return []
        tables, intrinsics, angles, records = zip(*prepared)
        rotations = _rotations(angles)
        if undo:
            rotations = rotations.swapaxes(1, 2)
        return [
            moved if isinstance(moved, Exception) else (*moved, [], record)
            for moved, record in zip(_move_tables(tables, rotations, intrinsics), records)
        ]

    return move


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _emit_report(text: str, out_path: str | None) -> None:
    if out_path:
        path = Path(out_path)
        _make_dir(path.parent)
        _write(path, text, "report")
    else:
        sys.stdout.write(text)


def _csv_text(header: list[str], rows: list[list]) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


_CALIB_MEMO = 8  # distinct calibration contents a --calib directory keeps parsed


def _intrinsics_source(calib: str):
    """``frame_id -> CameraIntrinsics`` for ``--calib``: a directory is read per
    frame, as ``<calib>/<frame_id>.txt``, and parsed once per content among the
    last ``_CALIB_MEMO`` good ones; one file is parsed here, once."""
    from .kitti import parse_calib_file

    path = _require(calib, "calibration", "path")
    parse = lambda data: parse_calib_file(data).intrinsics()  # noqa: E731
    if path.is_dir():
        parse = functools.lru_cache(maxsize=_CALIB_MEMO)(parse)
        return lambda frame_id: _parse_file(path / f"{frame_id}.txt", "calibration", parse)
    intrinsics = _parse_file(path, "calibration", parse)
    return lambda frame_id: intrinsics


# ---------------------------------------------------------------------------
# simulate


_SIMULATE_OPTIONS = [
    _Option("labels", str, "directory of KITTI label .txt files", required=True),
    _CALIB_OPTION,
    _Option("images", str, "optional directory of .ppm/.pgm images"),
    _Option("out", str, "output directory", required=True),
    _Option(
        "sigma-pitch", _nonneg_angle,
        f"pitch sampling sigma in radians (default {DEFAULT_SIGMA:.6f} = 1 deg)",
        DEFAULT_SIGMA,
    ),
    _Option(
        "sigma-roll", _nonneg_angle,
        f"roll sampling sigma in radians (default {DEFAULT_SIGMA:.6f} = 1 deg)",
        DEFAULT_SIGMA,
    ),
    _Option(
        "clamp", _nonneg_angle,
        f"symmetric clamp in radians (default {DEFAULT_CLAMP:.6f} = 10 deg)",
        DEFAULT_CLAMP,
    ),
    _Option(
        "seed", _seed_value, f"unsigned 64-bit seed (default 0); {SEED_ENV_VAR} overrides", 0
    ),
    _Option("fill", _fill_value, "byte value for out-of-view warp samples (default 0)", 0),
    _JOBS_OPTION,
]


def cmd_simulate(cfg: argparse.Namespace) -> int:
    from .kitti import _labels_of, _table_of
    from .netpbm import read_image, write_image
    from .simulate import PerturbationSpec, SceneFrame, sample_perturbation, simulate_frame

    try:
        spec = PerturbationSpec(
            sigma_pitch=cfg.sigma_pitch,
            sigma_roll=cfg.sigma_roll,
            clamp=cfg.clamp,
            seed=cfg.seed,
        )
    except (ValueError, CamPerturbError) as exc:
        raise _UsageError(str(exc)) from exc
    label_dir = _require(cfg.labels, "label")
    calib = _intrinsics_source(cfg.calib)
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
        p = sample_perturbation(spec, frame_id)
        return table, intrinsics, (p.pitch, p.roll), sidecar_line(frame_id, p)

    def load_image(frame_id: str, table, intrinsics):
        for extension in (".ppm", ".pgm"):
            candidate = image_dir / f"{frame_id}{extension}"
            if candidate.is_file():
                image = _parse_file(candidate, "image", read_image)
                break
        else:
            raise _IOFailure(f"no image {frame_id}.ppm or {frame_id}.pgm in {image_dir}")
        frame = SceneFrame(frame_id, intrinsics, labels=_labels_of(table), image=image)
        return frame, out_images / f"{frame_id}{extension}"

    def warp_one(frame: SceneFrame, image_path: Path):
        perturbed, warped = simulate_frame(frame, spec, fill=cfg.fill)
        files = [(image_path, write_image(warped))]
        record = sidecar_line(frame.frame_id, perturbed.applied)
        return _table_of(perturbed.labels), perturbed.dropped, files, record

    def warp(prepared):
        return [_outcome(warp_one, *frame) for frame in prepared]

    if image_dir is None:
        prepare, move, chunk = draw, _label_mover(), _CHUNK_FRAMES
    else:  # one frame per chunk, so each worker holds one image at a time
        prepare, move, chunk = load_image, warp, 1
    records, _, _ = _stream_frames(
        label_dir, "label file", calib, out_labels, prepare, move, cfg.jobs, chunk
    )
    _write(out_dir / "perturbations.jsonl", "".join(records), "sidecar")
    if not records:
        raise _IOFailure("no frame could be processed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# evaluate


#: The difficulty names; each is a ``DifficultyBin`` member's name in lower case.
_DIFFICULTIES = ("easy", "moderate", "hard")
_METRIC_CHOICES = ("ap2d", "apbev", "ap3d", "aos", "nuscenes")
_FORMAT_OPTION = _Option(
    "format", _one_of("format", ("json", "csv")), "report format: json (default) or csv",
    "json",
)

_EVALUATE_OPTIONS = [
    _Option("gt", str, "ground-truth label directory", required=True),
    _Option("det", str, "detection label directory (16-field files)", required=True),
    _Option(
        "det-disturbed", str,
        "second detection directory: emit original/disturbed/decrease rows",
    ),
    _Option("out", str, "report file (default: stdout)"),
    _Option("classes", _comma_list, "comma list (default Car)", ("Car",)),
    _Option(
        "metrics", _list_of(_one_of("metric", _METRIC_CHOICES)),
        f"comma list from {{{','.join(_METRIC_CHOICES)}}} (default ap3d)",
        ("ap3d",),
    ),
    _Option(
        "difficulties", _list_of(_one_of("difficulty", _DIFFICULTIES)),
        "comma list from {easy,moderate,hard} (default all three)",
        _DIFFICULTIES,
    ),
    _Option(
        "iou-threshold", _threshold_value,
        "IoU threshold for AP/AOS matching (default 0.7)", 0.7,
    ),
    _Option(
        "match-radius", _positive_float,
        "BEV center-distance radius in metres for nuscenes (default 2.0)", 2.0,
    ),
    _FORMAT_OPTION,
    _JOBS_OPTION,
]


_KIND_BY_METRIC = {"ap2d": "2d", "apbev": "bev", "ap3d": "3d", "aos": "2d"}
_NUSCENES_FIELDS = {"nuscenes_ate": "ate", "nuscenes_ase": "ase", "nuscenes_aoe": "aoe"}
_CELL_FIELDS = ("metric", "class", "difficulty", "threshold")


def _value(tally, metric: str, class_name: str, bin_):
    """One report cell's value from a ``(passes, errors)`` tally; 'n/a' when undefined.

    ``bin_`` is the cell's ``DifficultyBin`` (None for a nuScenes cell).
    """
    from .metrics import _mean_errors, class_sweep

    passes, errors = tally
    try:
        if metric in _NUSCENES_FIELDS:
            return getattr(_mean_errors(errors[class_name], class_name), _NUSCENES_FIELDS[metric])
        records, num_gt = passes[_KIND_BY_METRIC[metric]][bin_]
        return class_sweep(records, num_gt, class_name, bin_, metric == "aos")[0]
    except (NoGroundTruth, NoMatches):
        return "n/a"


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


def cmd_evaluate(cfg: argparse.Namespace) -> int:
    from .kitti import DifficultyBin, _label_table
    from .metrics import _add_tally, _passes, _record_chunk, _require_scores

    gt_dir = _require(cfg.gt, "ground-truth")
    det_dirs = [_require(cfg.det, "detection")]
    if cfg.det_disturbed:
        det_dirs.append(_require(cfg.det_disturbed, "disturbed detection"))
    frame_ids = _frame_ids(gt_dir)
    # workers read and score a chunk of frames into a (passes, errors) tally per detection
    # set, of AP/AOS records and nuScenes error triples; tallies are added here in id order
    kinds = dict.fromkeys(_KIND_BY_METRIC[m] for m in cfg.metrics if m in _KIND_BY_METRIC)
    bin_of = {d: DifficultyBin[d.upper()] for d in cfg.difficulties}  # the matcher reads .name
    bins = list(bin_of.values())
    classes = cfg.classes if "nuscenes" in cfg.metrics else ()
    tally = lambda: (_passes(kinds, bins), {c: [] for c in classes})  # noqa: E731

    def detections(det_dir: Path, frame_id: str):
        """The frame's detection table; a missing file is a frame without detections."""
        path = det_dir / f"{frame_id}.txt"
        dets = _parse_file(path, "detections", _label_table) if path.is_file() else (
            _label_table(b"")
        )
        try:
            _require_scores(frame_id, dets)
        except ValueError as exc:
            raise _IOFailure(f"frame {frame_id}: {exc}") from exc
        return dets

    def score(chunk: list[str]):  # a missing detection file is a set without detections
        parts = [tally() for _ in det_dirs]
        sets, failure = [[] for _ in det_dirs], None  # (frame_id, gt, dets) per set
        for frame_id in chunk:  # up to the first that fails to read
            try:
                gt = _parse_file(gt_dir / f"{frame_id}.txt", "gt labels", _label_table)
                det_tables = [detections(det_dir, frame_id) for det_dir in det_dirs]
            except _IOFailure as exc:
                failure = exc
                break
            for set_frames, dets in zip(sets, det_tables):
                set_frames.append((frame_id, gt, dets))
        try:
            if sets[0]:
                _record_chunk(sets, parts, cfg.iou_threshold, cfg.match_radius)
        except DegenerateBox:  # of several bad frames (and sets) the first in id order names it
            for frame in zip(*sets):
                for set_frame in frame:
                    _record_chunk([[set_frame]], [tally()], cfg.iou_threshold, cfg.match_radius)
            raise
        if failure:
            raise failure
        return parts

    tallies = [tally() for _ in det_dirs]
    for parts in _ordered_map(score, _chunks(frame_ids, _CHUNK_FRAMES), cfg.jobs):
        for total in tallies:  # popped, so no chunk's tally outlives its adding
            _add_tally(total, parts.pop(0))
    value_columns = ["value"] if len(tallies) == 1 else ["original", "disturbed", "decrease"]
    cells = []
    for key in _cell_keys(cfg):
        cell = dict(zip(_CELL_FIELDS, key))
        metric, class_name, difficulty = key[:3]
        values = [_value(tally, metric, class_name, bin_of.get(difficulty)) for tally in tallies]
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
    return EXIT_OK


# ---------------------------------------------------------------------------
# rectify


_RECTIFY_OPTIONS = [
    _Option("det", str, "detection label directory", required=True),
    _CALIB_OPTION,
    _Option("out", str, "output label directory", required=True),
    _Option("sidecar", str, "{frame_id,pitch,roll} JSON-lines extrinsics"),
    _Option("horizon", str, "{frame_id,slope,intercept_v,vp_u,vp_v} JSON-lines annotations"),
    _Option(
        "truth-sidecar", str, "optional truth extrinsics; reports per-frame angular error"
    ),
    _Option(
        "direction", _one_of("direction", ("undo", "apply")),
        "undo: rotate by the inverse (default); apply: rotate forward", "undo",
    ),
    _Option("report", str, "optional JSON report file"),
    _JOBS_OPTION,
]


def cmd_rectify(cfg: argparse.Namespace) -> int:
    from .horizon import HorizonLine, VanishingPoint, _angular_errors, extrinsics_from_horizon_vp

    if bool(cfg.sidecar) == bool(cfg.horizon):
        raise _UsageError("exactly one of --sidecar or --horizon is required")
    det_dir = _require(cfg.det, "detection")
    calib = _intrinsics_source(cfg.calib)
    out_dir = Path(cfg.out)
    _make_dir(out_dir)

    if cfg.sidecar:
        source, estimates = "sidecar", _load_sidecar(Path(cfg.sidecar))
    else:
        source = "horizon annotations"

        def horizon_entry(record):
            return _frame_id(record), (
                HorizonLine(
                    slope=_number(record, "slope"), intercept_v=_number(record, "intercept_v")
                ),
                VanishingPoint(u=_number(record, "vp_u"), v=_number(record, "vp_v")),
            )

        estimates = _parse_file(
            Path(cfg.horizon), source, lambda d: dict(_json_lines(d, horizon_entry))
        )
    truth = _load_sidecar(Path(cfg.truth_sidecar)) if cfg.truth_sidecar else {}

    def prepare(frame_id: str, table, intrinsics):
        if frame_id not in estimates:
            raise _IOFailure(f"frame {frame_id} missing from {source}")
        estimate = estimates[frame_id]
        if cfg.horizon:
            p = extrinsics_from_horizon_vp(*estimate, intrinsics)
            estimate = p.pitch, p.roll
        return table, intrinsics, estimate, (frame_id, estimate, truth.get(frame_id))

    records, dropped, failures = _stream_frames(
        det_dir, "detections", calib, out_dir, prepare, _label_mover(cfg.direction == "undo"),
        cfg.jobs,
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
        degs = _angular_errors(_rotations(estimated), _rotations(true))
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
    return EXIT_OK


# ---------------------------------------------------------------------------
# pose-error


_POSE_ERROR_OPTIONS = [
    _Option(
        "est", str, "estimates: pitch/roll JSON-lines sidecar or 3x4 pose file",
        required=True,
    ),
    _Option("gt-poses", str, "ground-truth 3x4 pose file", required=True),
    _Option("report", str, "report file (default: stdout)"),
    _FORMAT_OPTION,
]


def _load_estimates(data: bytes) -> np.ndarray:
    """Estimated rotations as one (n, 3, 3) stack, from a pitch/roll JSON-lines
    sidecar or a pose file.

    Sidecar entries align with ground-truth pose lines by file order.
    """
    from .kitti import _pose_stack

    if re.match(rb"\s*{", data):
        return _rotations(np.fromiter(_json_lines(data, _angle_reader()), np.dtype((float, 2))))
    return _pose_stack(data)[:, :, :3]


def cmd_pose_error(cfg: argparse.Namespace) -> int:
    from .horizon import _angular_errors
    from .kitti import _pose_stack

    estimates = _parse_file(Path(cfg.est), "estimates", _load_estimates)
    poses = _parse_file(Path(cfg.gt_poses), "ground-truth poses", _pose_stack)
    if len(estimates) != len(poses):
        raise _UsageError(
            f"frame count mismatch: {len(estimates)} estimates vs "
            f"{len(poses)} ground-truth poses"
        )
    if not len(poses):
        raise _UsageError("no poses to compare")
    # both stacks were checked when parsed or built from angles
    errors_deg = _angular_errors(estimates, poses[:, :, :3])
    steps = np.diff(poses[:, :, 3], axis=0)
    path_length = 0.0
    # each step's length as np.linalg.norm computes it (one BLAS dot), summed left to right
    for step in np.sqrt(steps[:, None, :] @ steps[:, :, None]).ravel().tolist():
        path_length += step
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
    return EXIT_OK


# ---------------------------------------------------------------------------
# loss


_LOSS_OPTIONS = [
    _Option("output", str, "serialized output/generated feature tensor", required=True),
    _Option("content", str, "serialized content-target tensor", required=True),
    _Option("style", _comma_list, "comma list of serialized style-target tensors", ()),
    _Option("gamma-content", _nonneg_float, "content weight (default 1.0)", 1.0),
    _Option("gamma-style", _nonneg_float, "style weight (default 1.0)", 1.0),
    _Option(
        "grad-check", _parse_bool,
        "verify analytic gradients against central finite differences", False,
    ),
    _Option(
        "fd-step", _positive_float, "finite-difference relative step (default 1e-4)", 1e-4
    ),
    _Option("report", str, "report file (default: stdout)"),
]

#: Gradient check probes every coordinate up to this tensor size, then strides.
_GRAD_CHECK_FULL_SIZE = 512
_GRAD_CHECK_SAMPLES = 64


def _finite_difference_check(out, content, target_grams, gamma_c, gamma_s, step):
    """Central finite differences vs. analytic gradient on probe coordinates.

    The style targets enter through their Gram matrices, computed once by
    the caller; each probe moves one coordinate of one scratch copy of the
    output, and of the content difference kept with it, and computes the
    loss, and so the Gram matrix, of that copy.  A probe whose loss leaves
    the float range is a usage error: ``step`` is too large for the tensor.
    ``out`` and ``content`` are feature tensors.
    """
    from .losses import _loss_gradients, _total_loss

    analytic = _loss_gradients(out.data, content.data, target_grams, gamma_c, gamma_s)
    scratch = out.data.copy()
    flat, target = scratch.reshape(-1), content.data.reshape(-1)
    with np.errstate(over="ignore"):  # the content loss has warned of it
        diff = flat - target  # scratch - content, as each probe moves it
    size = flat.size
    if size <= _GRAD_CHECK_FULL_SIZE:
        coords = range(size)
    else:
        stride = max(1, size // _GRAD_CHECK_SAMPLES)
        coords = range(0, size, stride)

    def loss_moved(idx: int, value: float) -> float:
        flat[idx], diff[idx] = value, value - target[idx]
        return _total_loss(scratch, content.data, target_grams, gamma_c, gamma_s, diff)

    fd_values = []
    an_values = []
    for idx in coords:
        x = flat[idx]
        with np.errstate(over="ignore", invalid="ignore"):
            h = step * max(1.0, abs(x))
            fd = (loss_moved(idx, x + h) - loss_moved(idx, x - h)) / (2.0 * h)
            flat[idx], diff[idx] = x, x - target[idx]
        if not math.isfinite(fd):
            coordinate = tuple(int(i) for i in np.unravel_index(idx, scratch.shape))
            raise _UsageError(
                f"--fd-step {step!r}: the probe of output coordinate {coordinate} leaves "
                "the float range; use a smaller step"
            )
        fd_values.append(fd)
        an_values.append(float(analytic.flat[idx]))
    fd = np.array(fd_values)
    an = np.array(an_values)
    scale = max(float(np.abs(fd).max()), float(np.abs(an).max()), 1e-12)
    max_rel = float(np.abs(an - fd).max() / scale)
    return {
        "coords_checked": len(fd_values),
        "step": step,
        "max_relative_error": max_rel,
    }


def cmd_loss(cfg: argparse.Namespace) -> int:
    from .losses import _style_losses, _target_grams, _total_loss, content_loss
    from .tensorio import _check_sidecar, tensor_from_bytes

    def load(path: str, what: str):
        path = Path(path)
        return _parse_file(path, what, lambda d: _check_sidecar(path, tensor_from_bytes(d)))

    out_tensor = load(cfg.output, "output tensor")
    content_tensor = load(cfg.content, "content tensor")
    style_tensors = [load(p, "style tensor") for p in cfg.style]
    content_value = content_loss(out_tensor, content_tensor)
    target_grams = _target_grams(out_tensor, style_tensors)
    style_values = _style_losses(out_tensor.data, target_grams)
    total_value = _total_loss(
        out_tensor.data, content_tensor.data, target_grams, cfg.gamma_content, cfg.gamma_style
    )
    report = {
        "content_loss": content_value,
        "style_losses": style_values,
        "style_loss_sum": sum(style_values),
        "total_loss": total_value,
        "gamma_content": cfg.gamma_content,
        "gamma_style": cfg.gamma_style,
    }
    if cfg.grad_check:
        report["grad_check"] = _finite_difference_check(
            out_tensor,
            content_tensor,
            target_grams,
            cfg.gamma_content,
            cfg.gamma_style,
            cfg.fd_step,
        )
    _emit_report(_json_dumps(report), cfg.report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


#: (name, one-line help, option table, handler) of each subcommand.
_SUBCOMMANDS = (
    ("simulate", "perturb a labeled dataset with sampled pitch/roll",
     _SIMULATE_OPTIONS, cmd_simulate),
    ("evaluate", "detection metric tables (AP40/AOS/nuScenes)",
     _EVALUATE_OPTIONS, cmd_evaluate),
    ("rectify", "move detections between viewports given extrinsics",
     _RECTIFY_OPTIONS, cmd_rectify),
    ("pose-error", "angular error of estimated extrinsics vs pose truth",
     _POSE_ERROR_OPTIONS, cmd_pose_error),
    ("loss", "content/style loss kernels over tensors",
     _LOSS_OPTIONS, cmd_loss),
)


def build_parser() -> _Parser:
    parser = _Parser(
        prog="camperturb",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    for name, summary, options, handler in _SUBCOMMANDS:
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", help="flat key=value config file; flags win")
        for opt in options:
            if opt.convert is _parse_bool:
                p.add_argument(
                    f"--{opt.name}", action="store_const", const=True, help=opt.help
                )
            else:
                p.add_argument(
                    f"--{opt.name}", type=_flag_type(opt.convert), help=opt.help
                )
        p.set_defaults(handler=handler, options=options)
    return parser


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "subcommand", None):
            raise _UsageError("a subcommand is required (see --help)")
        return args.handler(_resolve_options(args, args.options))
    except (_UsageError, ShapeMismatch, ChannelMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (_IOFailure, CamPerturbError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def run() -> None:
    """Console-script wrapper."""
    raise SystemExit(main())


if __name__ == "__main__":
    run()

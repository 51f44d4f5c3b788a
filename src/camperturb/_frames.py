"""The frame pipeline that simulate, rectify and evaluate share: chunks of frames on threads."""

import collections
import functools
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import kitti
from .cli import _IOFailure, _parse_file, _require, _write
from .errors import CamPerturbError


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

    def load(frame_id: str):
        table = _parse_file(label_dir / f"{frame_id}.txt", what, kitti._label_table)
        return prepare(frame_id, table, intrinsics_of(frame_id))

    def attempt(frame_ids: list[str]):
        loaded = [_outcome(load, frame_id) for frame_id in frame_ids]
        moved = iter(move([frame for frame in loaded if not isinstance(frame, Exception)]))
        outcomes = []
        for frame_id, frame in zip(frame_ids, loaded):
            result = frame if isinstance(frame, Exception) else next(moved)
            if not isinstance(result, Exception):
                table, dropped, files, record = result
                for path, data in [(out_dir / f"{frame_id}.txt", kitti._table_text(table)), *files]:
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


_CALIB_MEMO = 8  # distinct calibration contents a --calib directory keeps parsed


def _intrinsics_source(calib: str):
    """``frame_id -> CameraIntrinsics`` for ``--calib``: a directory is read per
    frame, as ``<calib>/<frame_id>.txt``, and parsed once per content among the
    last ``_CALIB_MEMO`` good ones; one file is parsed here, once."""
    path = _require(calib, "calibration", "path")
    parse = lambda data: kitti.parse_calib_file(data).intrinsics()  # noqa: E731
    if path.is_dir():
        parse = functools.lru_cache(maxsize=_CALIB_MEMO)(parse)
        return lambda frame_id: _parse_file(path / f"{frame_id}.txt", "calibration", parse)
    intrinsics = _parse_file(path, "calibration", parse)
    return lambda frame_id: intrinsics

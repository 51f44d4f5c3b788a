"""Per-frame pitch/roll extrinsics: JSON-lines records, rotation stacks and the labels-only move."""

import json

import numpy as np

from . import geometry, kitti
from .errors import CamPerturbError, MalformedLine
from .geometry import MAX_PERTURBATION_ANGLE


def _json_lines(data: bytes, build):
    """Yield ``(line_no, build(record))`` for each record of JSON-lines ``data``, in file order.

    Blank lines are skipped, and the text is read a block at a time.  A
    line that is not JSON, is nested too deeply, is not a JSON object, or
    whose record lacks a field or is otherwise rejected by ``build``, raises
    :class:`MalformedLine` with its number.
    """
    for line_no, line in kitti._text_lines(data, "JSON-lines file"):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except RecursionError as exc:
            raise MalformedLine(line_no, "JSON nested too deeply") from exc
        except ValueError as exc:
            raise MalformedLine(line_no, str(exc)) from exc
        if not isinstance(record, dict):
            raise MalformedLine(line_no, "expected a JSON object")
        try:
            yield line_no, build(record)
        except KeyError as exc:
            raise MalformedLine(line_no, f"missing field {exc.args[0]!r}") from exc
        except (TypeError, ValueError, OverflowError, CamPerturbError) as exc:
            raise MalformedLine(line_no, str(exc)) from exc


def _number(record, key: str) -> float:
    """``record[key]``, which must be a JSON number (``true`` is not one)."""
    value = record[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"'{key}' must be a JSON number, got {value!r}")
    return float(value)


def _angles(record) -> tuple[float, float]:
    """``(pitch, roll)`` of ``record``, under the rules of :class:`ExtrinsicPerturbation`."""
    pitch, roll = _number(record, "pitch"), _number(record, "roll")
    if not (abs(pitch) < MAX_PERTURBATION_ANGLE and abs(roll) < MAX_PERTURBATION_ANGLE):
        geometry.ExtrinsicPerturbation(pitch=pitch, roll=roll)  # raises with its own message
    return pitch, roll


def _rotations(angles) -> np.ndarray:
    """R_x(pitch) @ R_z(roll) of each (pitch, roll) pair, as one (n, 3, 3) stack."""
    return geometry._perturbation_matrices(*np.array(angles, dtype=float).reshape(-1, 2).T)


def _label_mover(move_tables, undo: bool = False):
    """The ``move`` of the labels-only frame pipeline: one ``move_tables`` call
    for a chunk's frames.  The caller passes the simulate layer's batch
    kernel, which ``pose-error``, sharing this module, does not load.

    Each prepared frame is ``(table, intrinsics, (pitch, roll), record)``.
    Its labels rotate by R_x(pitch) @ R_z(roll), or by the transpose of
    that with ``undo``.
    """

    def move(prepared) -> list:
        if not prepared:
            return []
        tables, intrinsics, angles, records = zip(*prepared)
        rotations = _rotations(angles)
        if undo:
            rotations = rotations.swapaxes(1, 2)
        return [
            moved if isinstance(moved, Exception) else (*moved, [], record)
            for moved, record in zip(move_tables(tables, rotations, intrinsics), records)
        ]

    return move

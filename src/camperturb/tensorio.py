"""Binary serialization of feature tensors, with a JSON shape sidecar.

Wire format (little-endian):

    bytes 0-3    magic ``FTB1``
    bytes 4-15   channels, height, width as uint32
    bytes 16-    float32 values, channel-major (c, then rows, then columns)

``save_tensor`` additionally writes ``<file>.json`` next to the tensor
recording the shape and dtype; ``load_tensor`` cross-checks the sidecar
against the header when the sidecar exists: any directory entry at its
path, even a dangling link, is a sidecar that must be read.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

from .errors import MalformedTensor, OutOfRange
from .losses import FeatureTensor

MAGIC = b"FTB1"
_HEADER = struct.Struct("<4sIII")


def tensor_to_bytes(t: FeatureTensor) -> bytes:
    """Serialize a feature tensor (values are narrowed to float32); raises
    :class:`OutOfRange`, naming the first, if a value narrows to infinity."""
    with np.errstate(over="ignore"):  # reported below, with the value
        values = t.data.astype("<f4")
    if not np.isfinite(values).all():
        at = tuple(np.argwhere(~np.isfinite(values))[0].tolist())
        value = float(t.data[at])
        raise OutOfRange(f"feature tensor value {value!r} at {at} is beyond the float32 range")
    header = _HEADER.pack(MAGIC, t.channels, t.height, t.width)
    return header + values.tobytes()


def tensor_from_bytes(data: bytes) -> FeatureTensor:
    """Parse serialized tensor bytes; raises :class:`MalformedTensor`."""
    if len(data) < _HEADER.size:
        raise MalformedTensor(
            f"too short for a header: {len(data)} bytes < {_HEADER.size}"
        )
    magic, c, h, w = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise MalformedTensor(f"bad magic {magic!r} (want {MAGIC!r})")
    if min(c, h, w) < 1:
        raise MalformedTensor(f"degenerate shape ({c}, {h}, {w})")
    expected = _HEADER.size + 4 * c * h * w
    if len(data) != expected:
        raise MalformedTensor(
            f"payload size mismatch: expected {expected} bytes for shape "
            f"({c}, {h}, {w}), got {len(data)}"
        )
    values = np.frombuffer(data, dtype="<f4", offset=_HEADER.size)
    try:
        return FeatureTensor(data=values.reshape(c, h, w).astype(float))
    except ValueError as exc:  # non-finite payloads
        raise MalformedTensor(str(exc)) from exc


def _sidecar_path(path: Path) -> Path:
    return path.with_name(path.name + ".json")


def save_tensor(path, t: FeatureTensor) -> None:
    """Write tensor bytes to ``path`` and its JSON sidecar to ``path + '.json'``."""
    path = Path(path)
    path.write_bytes(tensor_to_bytes(t))
    sidecar = {
        "channels": t.channels,
        "height": t.height,
        "width": t.width,
        "dtype": "float32",
        "layout": "chw",
    }
    _sidecar_path(path).write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n"
    )


def load_tensor(path) -> FeatureTensor:
    """Read a tensor; if the JSON sidecar exists it must be readable and agree with the header."""
    path = Path(path)
    return _check_sidecar(path, tensor_from_bytes(path.read_bytes()))


def _check_sidecar(path: Path, tensor: FeatureTensor) -> FeatureTensor:
    """``tensor`` read from ``path``, once its JSON sidecar, if any, agrees with it."""
    sidecar_file = _sidecar_path(path)
    if os.path.lexists(sidecar_file):  # a dangling link or a directory fails its read
        try:
            meta = json.loads(sidecar_file.read_bytes().decode("utf-8"))
        except (OSError, ValueError, RecursionError) as exc:  # ValueError: not UTF-8 or JSON
            raise MalformedTensor(f"unreadable sidecar {sidecar_file}: {exc}") from exc
        if not isinstance(meta, dict):
            raise MalformedTensor(f"sidecar {sidecar_file} is not a JSON object")
        declared = (meta.get("channels"), meta.get("height"), meta.get("width"))
        actual = (tensor.channels, tensor.height, tensor.width)
        if declared != actual:
            raise MalformedTensor(
                f"sidecar shape {declared} disagrees with header {actual}"
            )
    return tensor

"""Minimal binary netpbm (P5 grayscale / P6 color) image reading and writing.

Only 8-bit images (maxval 255) are supported.  The header tokenizer
accepts arbitrary whitespace and ``#`` comments between tokens, per the
netpbm convention; exactly one whitespace byte separates the maxval from
the raster.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MalformedImage


@dataclass(frozen=True)
class RasterImage:
    """An 8-bit image, shape (height, width, channels), channels 1 or 3."""

    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.ndim != 3 or data.shape[2] not in (1, 3):
            raise MalformedImage(
                f"image array must be (h, w, 1|3), got shape {data.shape}"
            )
        if data.shape[0] < 1 or data.shape[1] < 1:
            raise MalformedImage(f"image must be non-empty, got shape {data.shape}")
        if data.dtype != np.uint8:
            raise MalformedImage(f"image dtype must be uint8, got {data.dtype}")
        object.__setattr__(self, "data", data)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]


def _read_header_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """Skip whitespace/comments, then read one token; returns (token, new pos)."""
    n = len(data)
    while pos < n:
        byte = data[pos : pos + 1]
        if byte.isspace():
            pos += 1
        elif byte == b"#":
            while pos < n and data[pos : pos + 1] != b"\n":
                pos += 1
        else:
            break
    start = pos
    while pos < n and not data[pos : pos + 1].isspace():
        pos += 1
    if start == pos:
        raise MalformedImage("truncated header")
    return data[start:pos], pos


def read_image(data: bytes) -> RasterImage:
    """Decode binary PGM (P5) or PPM (P6) bytes."""
    if not isinstance(data, (bytes, bytearray)):
        raise MalformedImage(f"expected bytes, got {type(data).__name__}")
    data = bytes(data)
    magic, pos = _read_header_token(data, 0)
    if magic == b"P5":
        channels = 1
    elif magic == b"P6":
        channels = 3
    else:
        raise MalformedImage(f"unsupported magic {magic!r} (want P5 or P6)")
    dims = []
    for name in ("width", "height", "maxval"):
        token, pos = _read_header_token(data, pos)
        try:
            dims.append(int(token))
        except ValueError:
            raise MalformedImage(f"non-integer {name} token {token!r}") from None
    width, height, maxval = dims
    if width < 1 or height < 1:
        raise MalformedImage(f"image must be non-empty, got {width}x{height}")
    if maxval != 255:
        raise MalformedImage(f"only maxval 255 is supported, got {maxval}")
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise MalformedImage("missing whitespace byte before raster")
    pos += 1
    expected = width * height * channels
    if len(data) - pos < expected:
        raise MalformedImage(
            f"raster truncated: expected {expected} bytes, got {len(data) - pos}"
        )
    # a view of the raster in place, copied once into the image
    array = np.frombuffer(data, np.uint8, expected, pos).reshape(height, width, channels)
    return RasterImage(data=array.copy())


def write_image(image: RasterImage) -> bytes:
    """Encode an image as binary PGM (1 channel) or PPM (3 channels)."""
    magic = b"P5" if image.channels == 1 else b"P6"
    header = magic + b"\n%d %d\n255\n" % (image.width, image.height)
    return header + image.data.tobytes()

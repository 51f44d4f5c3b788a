"""Binary PGM (P5) / PPM (P6) round trips and malformed-input handling."""

import re

import numpy as np
import pytest

from camperturb import MalformedImage, RasterImage, read_image, write_image


def gray(h, w, seed=0):
    rng = np.random.default_rng(seed)
    return RasterImage(data=rng.integers(0, 256, size=(h, w, 1), dtype=np.uint8))


def color(h, w, seed=0):
    rng = np.random.default_rng(seed)
    return RasterImage(data=rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8))


class TestRasterImage:
    def test_properties(self):
        img = color(4, 7)
        assert (img.height, img.width, img.channels) == (4, 7, 3)

    def test_rejects_bad_shapes(self):
        with pytest.raises(MalformedImage):
            RasterImage(data=np.zeros((4, 7, 2), dtype=np.uint8))
        with pytest.raises(MalformedImage):
            RasterImage(data=np.zeros((4, 7), dtype=np.uint8))
        with pytest.raises(MalformedImage):
            RasterImage(data=np.zeros((0, 7, 1), dtype=np.uint8))

    def test_rejects_wrong_dtype(self):
        with pytest.raises(MalformedImage):
            RasterImage(data=np.zeros((2, 2, 1), dtype=np.float32))


class TestRoundTrip:
    def test_grayscale(self):
        img = gray(13, 9)
        back = read_image(write_image(img))
        assert np.array_equal(back.data, img.data)
        assert back.channels == 1

    def test_color(self):
        img = color(6, 11)
        back = read_image(write_image(img))
        assert np.array_equal(back.data, img.data)
        assert back.channels == 3

    def test_write_is_deterministic(self):
        img = color(5, 5)
        assert write_image(img) == write_image(img)

    def test_magic_numbers(self):
        assert write_image(gray(2, 2)).startswith(b"P5")
        assert write_image(color(2, 2)).startswith(b"P6")


class TestReadImage:
    def test_header_comments_and_whitespace(self):
        raw = b"P5\n# a comment\n 3 # another\n2\n255\n" + bytes(range(6))
        img = read_image(raw)
        assert (img.width, img.height) == (3, 2)
        assert img.data.ravel().tolist() == list(range(6))

    def test_rejects_unknown_magic(self):
        with pytest.raises(MalformedImage):
            read_image(b"P4\n2 2\n255\n\x00\x00\x00\x00")

    def test_rejects_wrong_maxval(self):
        with pytest.raises(MalformedImage):
            read_image(b"P5\n2 2\n65535\n" + bytes(8))

    def test_rejects_truncated_raster(self):
        with pytest.raises(MalformedImage):
            read_image(b"P5\n4 4\n255\n" + bytes(3))

    @pytest.mark.parametrize(
        "raw, message",
        [
            ("P5\n1 1\n255\n\x00", "expected bytes, got str"),
            (b"P5\na 1\n255\n\x00", "non-integer width token b'a'"),
            (b"P5\n0 1\n255\n", "image must be non-empty, got 0x1"),
            (b"P5\n1 1\n255", "missing whitespace byte before raster"),
        ],
        ids=["str", "width-token", "width-zero", "no-whitespace"],
    )
    def test_rejects_a_bad_header_naming_the_fault(self, raw, message):
        with pytest.raises(MalformedImage, match=f"^{re.escape(message)}$"):
            read_image(raw)

    def test_never_crashes_on_arbitrary_bytes(self):
        rng = np.random.default_rng(61)
        for _ in range(300):
            blob = bytes(rng.integers(0, 256, size=rng.integers(0, 64), dtype=np.uint8))
            try:
                read_image(blob)
            except MalformedImage:
                pass

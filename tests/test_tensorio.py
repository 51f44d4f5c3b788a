"""Binary feature-tensor container (magic + dims header + float32 payload)."""

import json

import numpy as np
import pytest

from camperturb import (
    FeatureTensor,
    MalformedTensor,
    OutOfRange,
    load_tensor,
    save_tensor,
    tensor_from_bytes,
    tensor_to_bytes,
)


def sample_tensor(seed=0, shape=(3, 4, 5)):
    rng = np.random.default_rng(seed)
    return FeatureTensor(data=rng.normal(size=shape))


class TestBytesRoundTrip:
    def test_round_trip_preserves_float32_values(self):
        t = sample_tensor()
        back = tensor_from_bytes(tensor_to_bytes(t))
        assert back.data.shape == t.data.shape
        assert np.array_equal(back.data, t.data.astype(np.float32).astype(float))

    def test_exact_round_trip_for_float32_representable_values(self):
        t = FeatureTensor(data=np.arange(24, dtype=float).reshape(2, 3, 4))
        back = tensor_from_bytes(tensor_to_bytes(t))
        assert np.array_equal(back.data, t.data)

    def test_header_layout(self):
        t = FeatureTensor(data=np.zeros((2, 3, 4)))
        raw = tensor_to_bytes(t)
        assert raw[:4] == b"FTB1"
        assert len(raw) == 16 + 2 * 3 * 4 * 4

    def test_serialization_is_deterministic(self):
        t = sample_tensor(7)
        assert tensor_to_bytes(t) == tensor_to_bytes(t)


class TestFloat32Range:
    def test_float32_extremes_round_trip(self):
        top = float(np.finfo(np.float32).max)
        t = FeatureTensor(data=np.array([top, -top, 1e-45]).reshape(1, 1, 3))
        back = tensor_from_bytes(tensor_to_bytes(t))
        assert back.data.ravel().tolist() == [top, -top, float(np.float32(1e-45))]

    def test_value_beyond_float32_is_refused_naming_the_first(self):
        data = np.zeros((2, 3, 4))
        data[1, 0, 2] = 1e200
        data[1, 2, 3] = -1e39
        with pytest.raises(OutOfRange, match=r"value 1e\+200 at \(1, 0, 2\) is beyond"):
            tensor_to_bytes(FeatureTensor(data=data))


class TestMalformedInput:
    def test_rejects_short_buffer(self):
        with pytest.raises(MalformedTensor):
            tensor_from_bytes(b"FTB1")

    def test_rejects_wrong_magic(self):
        raw = bytearray(tensor_to_bytes(sample_tensor()))
        raw[:4] = b"XXXX"
        with pytest.raises(MalformedTensor):
            tensor_from_bytes(bytes(raw))

    @pytest.mark.parametrize("shape", [(0, 1, 1), (2, 0, 1), (2, 1, 0)])
    def test_rejects_a_zero_dimension(self, shape):
        raw = tensor_to_bytes(sample_tensor())[:4] + np.array(shape, "<u4").tobytes()
        with pytest.raises(MalformedTensor, match=r"^degenerate shape \("):
            tensor_from_bytes(raw)

    def test_rejects_truncated_payload(self):
        raw = tensor_to_bytes(sample_tensor())
        with pytest.raises(MalformedTensor):
            tensor_from_bytes(raw[:-4])

    def test_rejects_trailing_garbage(self):
        raw = tensor_to_bytes(sample_tensor())
        with pytest.raises(MalformedTensor):
            tensor_from_bytes(raw + b"\x00")

    def test_rejects_nonfinite_payload(self):
        t = FeatureTensor(data=np.ones((1, 1, 2)))
        raw = bytearray(tensor_to_bytes(t))
        raw[16:20] = np.array([np.inf], dtype="<f4").tobytes()
        with pytest.raises(MalformedTensor):
            tensor_from_bytes(bytes(raw))

    def test_never_crashes_on_arbitrary_bytes(self):
        rng = np.random.default_rng(199)
        for _ in range(300):
            blob = bytes(rng.integers(0, 256, size=rng.integers(0, 80), dtype=np.uint8))
            try:
                tensor_from_bytes(blob)
            except MalformedTensor:
                pass


class TestFileIo:
    def test_save_writes_sidecar(self, tmp_path):
        t = sample_tensor(3, shape=(2, 5, 7))
        path = tmp_path / "feat.ftb"
        save_tensor(path, t)
        sidecar = json.loads((tmp_path / "feat.ftb.json").read_text())
        assert sidecar["channels"] == 2
        assert sidecar["height"] == 5
        assert sidecar["width"] == 7
        assert sidecar["dtype"] == "float32"

    def test_save_refuses_value_beyond_float32_and_writes_nothing(self, tmp_path):
        data = np.ones((1, 2, 2))
        data[0, 1, 0] = -1e200
        with pytest.raises(OutOfRange, match="beyond the float32 range"):
            save_tensor(tmp_path / "feat.ftb", FeatureTensor(data=data))
        assert list(tmp_path.iterdir()) == []

    def test_load_round_trip(self, tmp_path):
        t = sample_tensor(4)
        path = tmp_path / "feat.ftb"
        save_tensor(path, t)
        back = load_tensor(path)
        assert np.array_equal(back.data, t.data.astype(np.float32).astype(float))

    def test_load_without_sidecar_is_fine(self, tmp_path):
        t = sample_tensor(5)
        path = tmp_path / "feat.ftb"
        path.write_bytes(tensor_to_bytes(t))
        back = load_tensor(path)
        assert back.data.shape == t.data.shape

    def test_sidecar_disagreement_rejected(self, tmp_path):
        t = sample_tensor(6, shape=(2, 2, 2))
        path = tmp_path / "feat.ftb"
        save_tensor(path, t)
        sidecar_path = tmp_path / "feat.ftb.json"
        meta = json.loads(sidecar_path.read_text())
        meta["channels"] = 9
        sidecar_path.write_text(json.dumps(meta))
        with pytest.raises(MalformedTensor):
            load_tensor(path)

    @pytest.mark.parametrize(
        "sidecar", [b'{"channels": 2, "height": \xff}', b"[1, 2]\n"],
        ids=["not-utf8", "not-an-object"],
    )
    def test_malformed_sidecar_rejected_naming_it(self, tmp_path, sidecar):
        path = tmp_path / "feat.ftb"
        save_tensor(path, sample_tensor(7, shape=(2, 2, 2)))
        (tmp_path / "feat.ftb.json").write_bytes(sidecar)
        with pytest.raises(MalformedTensor, match="feat.ftb.json"):
            load_tensor(path)

import os
import struct

import numpy as np
import pytest

from segquality.tensor_io import (
    HEADER_SIZE,
    FrameFiles,
    ManifestError,
    StreamManifest,
    TensorFormatError,
    read_manifest,
    read_tensor,
    tensor_file_size,
    write_manifest,
    write_tensor,
)


def test_round_trip_2d(tmp_path):
    path = tmp_path / "t.tmsg"
    values = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
    write_tensor(path, values)
    back = read_tensor(path, (2, 2))
    assert back.dtype == np.float32
    assert np.array_equal(back, values)


def test_round_trip_bit_exact_random(tmp_path):
    rng = np.random.default_rng(7)
    path = tmp_path / "t.tmsg"
    values = rng.standard_normal((5, 7, 3)).astype(np.float32)
    write_tensor(path, values)
    assert np.array_equal(read_tensor(path), values)
    # writing the read-back values reproduces the file byte for byte
    path2 = tmp_path / "t2.tmsg"
    write_tensor(path2, read_tensor(path))
    assert path.read_bytes() == path2.read_bytes()


def test_big_endian_float64_input_is_written_little_endian(tmp_path):
    path = tmp_path / "t.tmsg"
    values = (np.arange(24, dtype=">f8").reshape(2, 3, 4) - 11.5) / 7.0
    write_tensor(path, values)
    payload = path.read_bytes()[HEADER_SIZE:]
    assert payload == np.asarray(values, "<f4").tobytes()
    assert np.array_equal(read_tensor(path, (2, 3, 4)), values.astype(np.float32))


def test_read_rejects_nan(tmp_path):
    path = tmp_path / "t.tmsg"
    values = np.array([[1.0, 2.0], [float("nan"), 4.0]], dtype=np.float32)
    header = struct.pack("<4sHHIII", b"TMSG", 1, 2, 2, 2, 1)
    path.write_bytes(header + values.tobytes())
    with pytest.raises(TensorFormatError, match=r"non-finite.*\(1, 0\)"):
        read_tensor(path)


def test_read_rejects_wrong_shape(tmp_path):
    path = tmp_path / "t.tmsg"
    write_tensor(path, np.zeros((3, 4), dtype=np.float32))
    with pytest.raises(TensorFormatError, match="shape mismatch"):
        read_tensor(path, (4, 3))


def test_read_rejects_bad_magic(tmp_path):
    path = tmp_path / "t.tmsg"
    write_tensor(path, np.zeros((2, 2), dtype=np.float32))
    data = bytearray(path.read_bytes())
    data[:4] = b"XXXX"
    path.write_bytes(bytes(data))
    with pytest.raises(TensorFormatError, match="magic"):
        read_tensor(path)


def test_read_rejects_truncated_payload(tmp_path):
    path = tmp_path / "t.tmsg"
    write_tensor(path, np.zeros((4, 4, 2), dtype=np.float32))
    data = path.read_bytes()
    path.write_bytes(data[:-4])
    with pytest.raises(TensorFormatError, match="payload size mismatch"):
        read_tensor(path)


def _write_stream(tmp_path, h=4, w=4, c=2, blocks=2, frames=1):
    frame_files = []
    rng = np.random.default_rng(0)
    for t in range(frames):
        files = FrameFiles(f"s{t}.tmsg", f"c{t}.tmsg", f"g{t}.tmsg")
        probs = np.full((h, w, c), 1.0 / c, dtype=np.float32)
        write_tensor(tmp_path / files.softmax, probs)
        write_tensor(tmp_path / files.cell_state, rng.standard_normal((h, w, blocks)))
        write_tensor(tmp_path / files.ground_truth, np.zeros((h, w)))
        frame_files.append(files)
    manifest = StreamManifest(
        height=h,
        width=w,
        num_classes=c,
        num_blocks=blocks,
        num_frames=frames,
        frames=frame_files,
        base_dir=str(tmp_path),
    )
    write_manifest(manifest, tmp_path / "manifest.json")
    return manifest


def test_manifest_round_trip(tmp_path):
    _write_stream(tmp_path)
    manifest = read_manifest(tmp_path / "manifest.json")
    assert (manifest.height, manifest.width) == (4, 4)
    assert manifest.num_classes == 2
    assert manifest.num_blocks == 2
    assert manifest.num_frames == 1
    assert manifest.load_softmax(0).shape == (4, 4, 2)
    assert manifest.load_ground_truth(0).dtype == np.int32


def test_manifest_rejects_single_class(tmp_path):
    _write_stream(tmp_path)
    import json

    doc = json.loads((tmp_path / "manifest.json").read_text())
    doc["num_classes"] = 1
    (tmp_path / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(ManifestError, match="num_classes < 2"):
        read_manifest(tmp_path / "manifest.json")


def test_manifest_rejects_short_file(tmp_path):
    h = w = 4
    c = 2
    _write_stream(tmp_path, h=h, w=w, c=c)
    # softmax payload 4 bytes short of h*w*c*4
    good = (tmp_path / "s0.tmsg").read_bytes()
    (tmp_path / "s0.tmsg").write_bytes(good[:-4])
    with pytest.raises(ManifestError, match=r"s0\.tmsg"):
        read_manifest(tmp_path / "manifest.json")


def test_manifest_rejects_missing_file(tmp_path):
    _write_stream(tmp_path)
    os.remove(tmp_path / "c0.tmsg")
    with pytest.raises(ManifestError, match="missing file"):
        read_manifest(tmp_path / "manifest.json")


def test_tensor_file_size_matches_disk(tmp_path):
    path = tmp_path / "t.tmsg"
    write_tensor(path, np.zeros((6, 5, 3)))
    assert os.path.getsize(path) == tensor_file_size((6, 5, 3))


# The byte ranges of the header's magic, version, ndim and dims fields.
_HEADER_FIELDS = ((0, 4), (4, 6), (6, 8), (8, HEADER_SIZE))


def _assert_rejected(path, data, shape):
    """`data` written to `path` is refused with one line that names the file."""
    path.write_bytes(bytes(data))
    with pytest.raises(TensorFormatError) as err:
        read_tensor(path, shape)
    message = str(err.value)
    assert message.startswith(f"{path}: ") and "\n" not in message, message


@pytest.mark.parametrize("shape", [(6, 5), (4, 7, 3)], ids=["2d", "3d"])
def test_seeded_corruptions_are_one_line_errors(tmp_path, shape):
    """Flipped header bits, truncations and non-finite payload values, each
    read with the expected shape as the stream loaders read them (a 2-D file
    whose ndim reads 3 holds a valid (h, w, 1) tensor; only the shape check
    can refuse it)."""
    rng = np.random.default_rng(19)
    good = tmp_path / "good.tmsg"
    write_tensor(good, rng.standard_normal(shape))
    original = good.read_bytes()
    path = tmp_path / "bad.tmsg"
    for start, end in _HEADER_FIELDS:
        for _ in range(25):
            data = bytearray(original)
            data[int(rng.integers(start, end))] ^= 1 << int(rng.integers(8))
            _assert_rejected(path, data, shape)
    for cut in rng.integers(0, len(original), size=50):
        _assert_rejected(path, original[:cut], shape)
    count = len(original[HEADER_SIZE:]) // 4
    for value in ("nan", "inf", "-inf"):
        for index in rng.integers(0, count, size=10):
            data = bytearray(original)
            offset = HEADER_SIZE + 4 * int(index)
            data[offset : offset + 4] = struct.pack("<f", float(value))
            _assert_rejected(path, data, shape)
    assert np.array_equal(read_tensor(good, shape), read_tensor(good))

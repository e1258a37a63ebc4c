"""On-disk stream format: binary frame tensors and JSON manifests."""

from __future__ import annotations

import dataclasses
import json
import os
import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"TMSG"
FORMAT_VERSION = 1
MANIFEST_FORMAT = "segquality-stream/1"

# magic (4s), version (u16), ndim (u16), three u32 dims; unused dims stored as 1.
_HEADER = struct.Struct("<4sHHIII")
HEADER_SIZE = _HEADER.size


class TensorFormatError(ValueError):
    """A tensor file violates the binary format contract."""


class ManifestError(ValueError):
    """A stream manifest is missing, malformed, or inconsistent with its files."""


def tensor_file_size(shape) -> int:
    """Exact byte size of a tensor file with the given payload shape."""
    return HEADER_SIZE + 4 * int(np.prod(shape))


def write_tensor(path, values) -> None:
    """Write a 2-D or 3-D float tensor as little-endian float32 with header."""
    arr = np.ascontiguousarray(values, dtype="<f4")
    if arr.ndim not in (2, 3):
        raise TensorFormatError(f"tensor must be 2-D or 3-D, got ndim={arr.ndim}")
    if not np.isfinite(arr).all():
        idx = tuple(int(v) for v in np.unravel_index(int(np.argmax(~np.isfinite(arr))), arr.shape))
        raise TensorFormatError(f"non-finite value at index {idx}")
    dims = tuple(arr.shape) + (1,) * (3 - arr.ndim)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, arr.ndim, *dims))
        fh.write(arr.data)


def read_tensor(path, expected_shape) -> np.ndarray:
    """Read a tensor file, validating header, payload size, finiteness and
    shape.

    Returns the stored float32 array (bit-exact round trip with write_tensor).
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        raise TensorFormatError(f"{path}: file not found") from None
    if len(data) < HEADER_SIZE:
        raise TensorFormatError(f"{path}: truncated header ({len(data)} bytes)")
    magic, version, ndim, d0, d1, d2 = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise TensorFormatError(f"{path}: bad magic {magic!r}")
    if version != FORMAT_VERSION:
        raise TensorFormatError(f"{path}: unsupported version {version}")
    if ndim not in (2, 3):
        raise TensorFormatError(f"{path}: bad ndim {ndim}")
    dims = (d0, d1, d2)
    if any(d < 1 for d in dims) or any(d != 1 for d in dims[ndim:]):
        raise TensorFormatError(f"{path}: bad dims {dims} for ndim {ndim}")
    shape = dims[:ndim]
    expected_bytes = 4 * int(np.prod(shape))
    if len(data) - HEADER_SIZE != expected_bytes:
        raise TensorFormatError(
            f"{path}: payload size mismatch, expected {expected_bytes} bytes "
            f"for shape {shape}, got {len(data) - HEADER_SIZE}"
        )
    arr = np.frombuffer(data, dtype="<f4", offset=HEADER_SIZE).reshape(shape).copy()
    finite = np.isfinite(arr)
    if not finite.all():
        idx = tuple(int(v) for v in np.unravel_index(int(np.argmax(~finite)), shape))
        raise TensorFormatError(f"{path}: non-finite value at index {idx}")
    if tuple(shape) != tuple(expected_shape):
        raise TensorFormatError(
            f"{path}: shape mismatch, expected {tuple(expected_shape)}, got {shape}"
        )
    return arr


@dataclass(frozen=True)
class FrameFiles:
    """Relative paths of the three tensors that make up one frame."""

    softmax: str
    cell_state: str
    ground_truth: str


FRAME_KINDS = tuple(field.name for field in dataclasses.fields(FrameFiles))


@dataclass
class StreamManifest:
    """Validated description of an on-disk segmentation stream."""

    height: int
    width: int
    num_classes: int
    num_blocks: int
    num_frames: int
    frames: list[FrameFiles]
    class_names: list[str] | None = None
    base_dir: str = "."

    def shape(self, kind: str) -> tuple[int, ...]:
        """Payload shape of a frame's tensor of `kind`, a `FrameFiles` field."""
        depth = {"softmax": (self.num_classes,), "cell_state": (self.num_blocks,)}
        return (self.height, self.width) + depth.get(kind, ())

    def path(self, frame: int, kind: str) -> str:
        rel = getattr(self.frames[frame], kind)
        return os.path.join(self.base_dir, rel)

    def load_softmax(self, frame: int) -> np.ndarray:
        return read_tensor(self.path(frame, "softmax"), self.shape("softmax"))

    def load_cell_state(self, frame: int) -> np.ndarray:
        return read_tensor(self.path(frame, "cell_state"), self.shape("cell_state"))

    def load_ground_truth(self, frame: int) -> np.ndarray:
        """Load a label frame, checking integrality and class range."""
        arr = read_tensor(self.path(frame, "ground_truth"), self.shape("ground_truth"))
        rounded = np.rint(arr)
        if not np.array_equal(arr, rounded):
            idx = tuple(int(v) for v in np.unravel_index(int(np.argmax(arr != rounded)), arr.shape))
            raise TensorFormatError(
                f"{self.path(frame, 'ground_truth')}: non-integral label at {idx}"
            )
        labels = rounded.astype(np.int32)
        if labels.min() < 0 or labels.max() >= self.num_classes:
            raise TensorFormatError(
                f"{self.path(frame, 'ground_truth')}: label outside "
                f"[0, {self.num_classes - 1}]"
            )
        return labels

    def validate(self) -> None:
        for name, low in (
            ("height", 3), ("width", 3), ("num_classes", 2), ("num_blocks", 2), ("num_frames", 1)
        ):
            if getattr(self, name) < low:
                raise ManifestError(f"{name} < {low} (got {getattr(self, name)})")
        if len(self.frames) != self.num_frames:
            raise ManifestError(
                f"frames: expected {self.num_frames} entries, got {len(self.frames)}"
            )
        if self.class_names is not None and len(self.class_names) != self.num_classes:
            raise ManifestError(
                f"class_names: expected {self.num_classes} names, "
                f"got {len(self.class_names)}"
            )
        for i in range(self.num_frames):
            for kind in FRAME_KINDS:
                path, shape = self.path(i, kind), self.shape(kind)
                if not os.path.isfile(path):
                    raise ManifestError(f"frames[{i}].{kind}: missing file {path}")
                want = tensor_file_size(shape)
                got = os.path.getsize(path)
                if got != want:
                    raise ManifestError(
                        f"frames[{i}].{kind}: {path} has {got} bytes, "
                        f"expected {want} for shape {shape}"
                    )


def read_manifest(path) -> StreamManifest:
    """Read and fully validate a stream manifest JSON document."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ManifestError(f"{path}: file not found") from None
    except json.JSONDecodeError as exc:
        raise ManifestError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ManifestError(f"{path}: manifest must be a JSON object")
    if doc.get("format") != MANIFEST_FORMAT:
        raise ManifestError(f"format: expected {MANIFEST_FORMAT!r}, got {doc.get('format')!r}")
    for key in ("height", "width", "num_classes", "num_blocks", "num_frames"):
        if not isinstance(doc.get(key), int):
            raise ManifestError(f"{key}: missing or not an integer")
    raw_frames = doc.get("frames")
    if not isinstance(raw_frames, list):
        raise ManifestError("frames: missing or not a list")
    frames = []
    for i, entry in enumerate(raw_frames):
        if not isinstance(entry, dict):
            raise ManifestError(f"frames[{i}]: not an object")
        for key in FRAME_KINDS:
            if not isinstance(entry.get(key), str):
                raise ManifestError(f"frames[{i}].{key}: missing or not a string")
        frames.append(FrameFiles(*(entry[key] for key in FRAME_KINDS)))
    class_names = doc.get("class_names")
    if class_names is not None and (
        not isinstance(class_names, list)
        or not all(isinstance(n, str) for n in class_names)
    ):
        raise ManifestError("class_names: must be a list of strings")
    manifest = StreamManifest(
        height=doc["height"],
        width=doc["width"],
        num_classes=doc["num_classes"],
        num_blocks=doc["num_blocks"],
        num_frames=doc["num_frames"],
        frames=frames,
        class_names=class_names,
        base_dir=os.path.dirname(os.path.abspath(path)),
    )
    manifest.validate()
    return manifest


def write_manifest(manifest: StreamManifest, path) -> None:
    doc = {
        "format": MANIFEST_FORMAT,
        "height": manifest.height,
        "width": manifest.width,
        "num_classes": manifest.num_classes,
        "num_blocks": manifest.num_blocks,
        "num_frames": manifest.num_frames,
        "frames": [dataclasses.asdict(f) for f in manifest.frames],
    }
    if manifest.class_names is not None:
        doc["class_names"] = manifest.class_names
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")

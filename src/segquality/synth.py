"""Deterministic synthetic segmentation-prediction streams.

Moving rectangles and ellipses over a background class provide the ground
truth.  The predicted stream corrupts it with controllable per-object events:
class flips that force a zero-quality segment, boundary jitter, and one-frame
flashes.  Cell-state stacks carry a smooth base signal in block 1 and AR(1)
perturbations in later blocks whose magnitude is amplified on mis-predicted
segments, so the stability heatmaps contain error signal by construction.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, fields

import numpy as np
from scipy import ndimage

from .tensor_io import FrameFiles, StreamManifest, write_manifest, write_tensor


def _is_number(value, number_type) -> bool:
    return isinstance(value, number_type) and not isinstance(value, bool)


@dataclass
class SynthConfig:
    height: int = 64
    width: int = 96
    num_classes: int = 10
    num_blocks: int = 10
    num_frames: int = 300
    num_objects: int = 8
    velocity_min: float = 0.4
    velocity_max: float = 1.2
    error_rate: float = 0.15
    jitter: int = 1
    flash_rate: float = 0.03
    cell_noise: float = 0.06
    error_noise_gain: float = 3.0
    seed: int = 42
    # softmax construction
    correct_confidence: tuple[float, float] = (0.78, 0.985)
    error_confidence: tuple[float, float] = (0.60, 0.95)
    background_confidence: float = 0.97
    soften_width: float = 0.7
    soften_offset: float = 1.0
    runner_share: float = 0.7
    # object geometry
    min_half_extent: float = 4.0
    max_half_extent: float = 7.0
    ar_coeff: float = 0.5

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if field.type == "int":
                ok, kind = _is_number(value, numbers.Integral), "an integer"
            elif field.type == "float":
                ok, kind = _is_number(value, numbers.Real), "a number"
            else:  # a (low, high) pair
                ok = isinstance(value, (tuple, list)) and len(value) == 2
                ok = ok and all(_is_number(v, numbers.Real) for v in value)
                kind = "a pair of numbers"
            if not ok:
                raise ValueError(f"{field.name} must be {kind}, got {value!r}")
        if self.height < 3 or self.width < 3:
            raise ValueError("frame dimensions must be >= 3")
        if self.num_classes < 2:
            raise ValueError(f"num_classes < 2 (got {self.num_classes})")
        if self.num_blocks < 2:
            raise ValueError(f"num_blocks < 2 (got {self.num_blocks})")
        if self.num_frames < 1 or self.num_objects < 1:
            raise ValueError("num_frames and num_objects must be >= 1")
        for name in ("error_rate", "flash_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")
        if self.cell_noise < 0 or self.error_noise_gain < 1:
            raise ValueError("cell_noise must be >= 0 and error_noise_gain >= 1")
        if not 0 <= self.velocity_min <= self.velocity_max:
            raise ValueError("velocity range must satisfy 0 <= min <= max")
        # a top probability above 0.5 keeps the label the argmax
        if not 0.5 < self.background_confidence <= 1.0:
            raise ValueError(
                f"background_confidence must be in (0.5, 1], got {self.background_confidence}"
            )
        for name in ("correct_confidence", "error_confidence"):
            low, high = getattr(self, name)
            if not (0.5 < low <= 1.0 and 0.5 < high <= 1.0):
                raise ValueError(f"{name} ends must be in (0.5, 1], got ({low}, {high})")
            if low > high:
                raise ValueError(f"{name} must satisfy low <= high, got ({low}, {high})")
        if not self.soften_width > 0:
            raise ValueError(f"soften_width must be > 0, got {self.soften_width}")
        if not 0.0 <= self.runner_share <= 1.0:
            raise ValueError(f"runner_share must be in [0, 1], got {self.runner_share}")
        if not 0 < self.min_half_extent <= self.max_half_extent:
            raise ValueError(
                f"min_half_extent must be in (0, max_half_extent={self.max_half_extent}], "
                f"got {self.min_half_extent}"
            )


@dataclass
class _MovingObject:
    class_id: int
    shape: str
    half: tuple[float, float]
    center: list[float]
    velocity: list[float]

    def footprint(self, height: int, width: int):
        """The object's pixels as a mask over the frame window it can reach
        (its bounding box grown by one pixel, clipped to the frame), and that
        window's top-left pixel."""
        top, bottom = _span(self.center[0], self.half[0], height)
        left, right = _span(self.center[1], self.half[1], width)
        rows = np.arange(top, bottom)[:, None] - self.center[0]
        cols = np.arange(left, right)[None, :] - self.center[1]
        if self.shape == "rect":
            mask = (np.abs(rows) <= self.half[0]) & (np.abs(cols) <= self.half[1])
        else:
            mask = (rows / self.half[0]) ** 2 + (cols / self.half[1]) ** 2 <= 1.0
        return mask, top, left

    def advance(self, height: int, width: int) -> None:
        for axis, limit in ((0, height), (1, width)):
            self.center[axis] += self.velocity[axis]
            low = self.half[axis] + 1.0
            high = limit - self.half[axis] - 2.0
            if self.center[axis] < low:
                self.center[axis] = low + (low - self.center[axis])
                self.velocity[axis] = -self.velocity[axis]
            elif self.center[axis] > high:
                self.center[axis] = high - (self.center[axis] - high)
                self.velocity[axis] = -self.velocity[axis]
            self.center[axis] = min(max(self.center[axis], low), high)


def _span(center: float, half: float, limit: int) -> tuple[int, int]:
    """Pixel range [start, stop) of the frame within one pixel of
    [center - half, center + half]."""
    start = min(max(math.floor(center - half) - 1, 0), limit)
    return start, min(max(math.ceil(center + half) + 2, start), limit)


def _place(mask: np.ndarray, top: int, left: int, height: int, width: int):
    """The frame window a mask with top-left pixel (top, left) covers, and the
    part of the mask inside the frame."""
    r0 = min(max(top, 0), height)
    r1 = min(max(top + mask.shape[0], 0), height)
    c0 = min(max(left, 0), width)
    c1 = min(max(left + mask.shape[1], 0), width)
    window = (slice(r0, r1), slice(c0, c1))
    return window, mask[r0 - top : r1 - top, c0 - left : c1 - left]


def _spawn_objects(config: SynthConfig, rng: np.random.Generator):
    objects = []
    for i in range(config.num_objects):
        class_id = 1 + i % (config.num_classes - 1)
        shape = "rect" if rng.random() < 0.5 else "ellipse"
        half = tuple(rng.uniform(config.min_half_extent, config.max_half_extent, 2))
        center = None
        for _ in range(200):
            cand = [
                rng.uniform(half[0] + 2, config.height - half[0] - 3),
                rng.uniform(half[1] + 2, config.width - half[1] - 3),
            ]
            clear = all(
                abs(cand[0] - o.center[0]) > half[0] + o.half[0] + 3
                or abs(cand[1] - o.center[1]) > half[1] + o.half[1] + 3
                for o in objects
            )
            if clear:
                center = cand
                break
        if center is None:
            center = [config.height / 2.0, config.width / 2.0]
        angle = rng.uniform(0.0, 2.0 * math.pi)
        speed = rng.uniform(config.velocity_min, config.velocity_max)
        objects.append(
            _MovingObject(
                class_id=class_id,
                shape=shape,
                half=half,
                center=center,
                velocity=[speed * math.sin(angle), speed * math.cos(angle)],
            )
        )
    return objects


def _bbox(center, half, pad):
    return (
        center[0] - half[0] - pad,
        center[0] + half[0] + pad,
        center[1] - half[1] - pad,
        center[1] + half[1] + pad,
    )


def _bbox_overlap(a, b) -> bool:
    return a[0] <= b[1] and b[0] <= a[1] and a[2] <= b[3] and b[2] <= a[3]


def _flip_candidates(config: SynthConfig, objects, idx: int) -> list[int]:
    """Classes an object may be flipped to without touching same-class truth.

    Excludes the background, the object's own class, and the class of any
    object whose padded bounding box intersects this object's, so the flipped
    segment cannot intersect a ground-truth component of its predicted class.
    """
    pad = config.jitter + 2
    own = _bbox(objects[idx].center, objects[idx].half, pad)
    blocked = {0, objects[idx].class_id}
    for j, other in enumerate(objects):
        if j != idx and _bbox_overlap(own, _bbox(other.center, other.half, pad)):
            blocked.add(other.class_id)
    return [cls for cls in range(1, config.num_classes) if cls not in blocked]


def _softmax_from_labels(
    labels: np.ndarray, confidence: np.ndarray, config: SynthConfig
) -> np.ndarray:
    """Per-pixel distributions peaked at the label, softened near boundaries.

    The top probability falls off toward 0.5 with a logistic ramp in the
    distance to the nearest differently-labelled pixel; a share of the
    remainder goes to that neighboring class, the rest is spread uniformly.

    Each class is transformed on its window: its bounding box grown by one
    pixel and clipped to the frame.  A grown border holds only other-class
    pixels, and a pixel beyond it is strictly farther from every class pixel
    than its clamp onto that border, so the window gives the whole frame's
    distances and nearest pixels.
    """
    height, width = labels.shape
    c = config.num_classes
    top_prob = np.empty((height, width))
    runner_class = np.zeros((height, width), dtype=np.int64)
    for cls, box in enumerate(ndimage.find_objects(labels + 1)):
        if box is None:
            continue
        window = tuple(slice(max(s.start - 1, 0), s.stop + 1) for s in box)
        local = labels[window]
        region = local == cls
        if region.all():  # the window is the whole frame
            top_prob[:] = confidence
            runner_class[:] = (cls + 1) % c
            break
        dist, (iy, ix) = ndimage.distance_transform_edt(region, return_indices=True)
        ramp = 1.0 / (
            1.0 + np.exp(-(dist[region] - config.soften_offset) / config.soften_width)
        )
        top_prob[window][region] = 0.5 + (confidence[window][region] - 0.5) * ramp
        runner_class[window][region] = local[iy[region], ix[region]]
    rest = 1.0 - top_prob
    runner_prob = config.runner_share * rest if c > 2 else rest
    # the runner-up keeps its share of the uniform floor, so rows sum to 1
    spread = (rest - runner_prob) / (c - 1)
    probs = np.empty((height, width, c))
    probs[...] = spread[..., None]
    flat = probs.reshape(-1)
    starts = np.arange(0, flat.size, c)
    flat[starts + labels.ravel()] = top_prob.ravel()
    flat[starts + runner_class.ravel()] += runner_prob.ravel()
    return probs


def generate_stream(config: SynthConfig, out_dir) -> StreamManifest:
    """Write a full synthetic stream (tensors + manifest) and return the manifest."""
    config.validate()
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(config.seed)
    objects = _spawn_objects(config, rng)
    height, width = config.height, config.width
    ys = np.linspace(0.0, 1.0, height)[:, None]
    xs = np.linspace(0.0, 1.0, width)[None, :]
    base = 0.45 + 0.25 * np.sin(2.0 * math.pi * xs) + 0.20 * np.cos(
        2.0 * math.pi * 1.7 * ys
    )
    # block 0 is the base in every frame; later blocks are rewritten per frame
    stack = np.empty((height, width, config.num_blocks))
    stack[..., 0] = base
    perturbation = np.empty((height, width))

    frames = []
    for t in range(config.num_frames):
        if t > 0:
            for obj in objects:
                obj.advance(height, width)

        gt = np.zeros((height, width), dtype=np.int32)
        footprints = []
        for obj in objects:
            footprints.append(obj.footprint(height, width))
            window, mask = _place(*footprints[-1], height, width)
            gt[window][mask] = obj.class_id

        pred = np.zeros((height, width), dtype=np.int32)
        confidence = np.full((height, width), config.background_confidence)
        error_mask = np.zeros((height, width), dtype=bool)
        for i, obj in enumerate(objects):
            flashed = rng.random() < config.flash_rate
            flipped = rng.random() < config.error_rate
            if config.jitter > 0:
                offset = rng.integers(-config.jitter, config.jitter + 1, size=2)
            else:
                offset = np.zeros(2, dtype=np.int64)
            if flashed:
                continue
            pred_class = obj.class_id
            is_error = False
            if flipped:
                candidates = _flip_candidates(config, objects, i)
                if candidates:
                    pred_class = int(candidates[rng.integers(len(candidates))])
                    is_error = True
            # the footprint moved by the jitter offset; what leaves the frame is dropped
            mask, top, left = footprints[i]
            window, mask = _place(
                mask, top + int(offset[0]), left + int(offset[1]), height, width
            )
            if is_error:
                conf = rng.uniform(*config.error_confidence)
            else:
                conf = rng.uniform(*config.correct_confidence)
            pred[window][mask] = pred_class
            confidence[window][mask] = conf
            error_mask[window][mask] = is_error

        probs = _softmax_from_labels(pred, confidence, config)

        noise_scale = config.cell_noise * np.where(
            error_mask, config.error_noise_gain, 1.0
        )
        perturbation.fill(0.0)
        for block in range(1, config.num_blocks):
            draw = rng.standard_normal((height, width))
            perturbation *= config.ar_coeff
            draw *= noise_scale
            perturbation += draw
            np.add(base, perturbation, out=stack[..., block])

        names = FrameFiles(
            softmax=f"frame_{t:05d}_softmax.tmsg",
            cell_state=f"frame_{t:05d}_cellstate.tmsg",
            ground_truth=f"frame_{t:05d}_gt.tmsg",
        )
        write_tensor(os.path.join(out_dir, names.softmax), probs)
        write_tensor(os.path.join(out_dir, names.cell_state), stack)
        write_tensor(os.path.join(out_dir, names.ground_truth), gt.astype(np.float32))
        frames.append(names)

    manifest = StreamManifest(
        height=height,
        width=width,
        num_classes=config.num_classes,
        num_blocks=config.num_blocks,
        num_frames=config.num_frames,
        frames=frames,
        base_dir=str(out_dir),
    )
    manifest.validate()
    write_manifest(manifest, os.path.join(out_dir, "manifest.json"))
    return manifest

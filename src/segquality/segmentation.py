"""Connected-component segments with inner/boundary pixel classification."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

_STRUCTURE_8 = np.ones((3, 3), dtype=bool)


@dataclass
class Segment:
    """One 8-connected same-class component of a label frame.

    Pixels are stored in raster order; `inner` flags the pixels whose eight
    neighbors all exist and belong to this component.
    """

    frame_index: int
    component_index: int
    class_id: int
    pixels: np.ndarray
    inner: np.ndarray
    center: tuple[float, float]

    @property
    def size(self) -> int:
        return len(self.pixels)

    @property
    def size_inner(self) -> int:
        return int(self.inner.sum())

    @property
    def size_boundary(self) -> int:
        return self.size - self.size_inner

    @property
    def inner_pixels(self) -> np.ndarray:
        return self.pixels[self.inner]

    @property
    def boundary_pixels(self) -> np.ndarray:
        return self.pixels[~self.inner]

    def mask(self, shape) -> np.ndarray:
        out = np.zeros(shape, dtype=bool)
        out[self.pixels[:, 0], self.pixels[:, 1]] = True
        return out


def label_components(labels: np.ndarray) -> np.ndarray:
    """Map each pixel to its 8-connected same-class component index.

    Component indices are deterministic: 0, 1, ... in raster-scan order of each
    component's first pixel.
    """
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise ValueError("label frame must be 2-D")
    combined = np.zeros(labels.shape, dtype=np.int64)
    offset = 0
    for cls in np.unique(labels):
        lab, count = ndimage.label(labels == cls, structure=_STRUCTURE_8)
        sel = lab > 0
        combined[sel] = lab[sel] + offset
        offset += count
    flat = combined.ravel()
    values, first_index = np.unique(flat, return_index=True)
    order = np.argsort(np.argsort(first_index))
    lut = np.empty(offset + 1, dtype=np.int32)
    lut[values] = order
    return lut[flat].reshape(labels.shape)


def inner_mask(comp_map: np.ndarray) -> np.ndarray:
    """Pixels whose eight neighbors all exist and share the pixel's component."""
    h, w = comp_map.shape
    out = np.zeros((h, w), dtype=bool)
    if h < 3 or w < 3:
        return out
    core = np.ones((h - 2, w - 2), dtype=bool)
    center = comp_map[1:-1, 1:-1]
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dy == 0 and dx == 0:
                continue
            core &= comp_map[1 + dy : h - 1 + dy, 1 + dx : w - 1 + dx] == center
    out[1:-1, 1:-1] = core
    return out


class FrameSegments(list):
    """A frame's segments in component order, plus the component map and
    interior mask they were cut from, for frame-level reductions."""

    def __init__(self, segments, comp_map: np.ndarray, inner: np.ndarray):
        super().__init__(segments)
        self.comp_map = comp_map
        self.inner = inner


def connected_components(labels: np.ndarray, frame_index: int = 0) -> FrameSegments:
    """Partition a label frame into Segment records (raster-deterministic order)."""
    labels = np.asarray(labels)
    comp_map = label_components(labels)
    inner = inner_mask(comp_map)
    num = int(comp_map.max()) + 1
    h, w = labels.shape
    order = np.argsort(comp_map.ravel(), kind="stable")
    counts = np.bincount(comp_map.ravel(), minlength=num)
    bounds = np.concatenate(([0], np.cumsum(counts)))
    rows_all, cols_all = np.divmod(order, w)
    inner_flat = inner.ravel()[order]
    segments = []
    for idx in range(num):
        lo, hi = bounds[idx], bounds[idx + 1]
        pixels = np.stack([rows_all[lo:hi], cols_all[lo:hi]], axis=1).astype(np.int32)
        center = (float(pixels[:, 0].mean()), float(pixels[:, 1].mean()))
        segments.append(
            Segment(
                frame_index=frame_index,
                component_index=idx,
                class_id=int(labels[pixels[0, 0], pixels[0, 1]]),
                pixels=pixels,
                inner=inner_flat[lo:hi].copy(),
                center=center,
            )
        )
    return FrameSegments(segments, comp_map, inner)

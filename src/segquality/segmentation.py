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
    def boundary_pixels(self) -> np.ndarray:
        return self.pixels[~self.inner]


def label_components(labels: np.ndarray) -> np.ndarray:
    """Map each pixel to its 8-connected same-class component index.

    Component indices are deterministic: 0, 1, ... in raster-scan order of each
    component's first pixel.
    """
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise ValueError("label frame must be 2-D")
    # Number the components 0, 1, ... class by class, then renumber them in
    # raster order of their first pixel.
    combined = np.zeros(labels.shape, dtype=np.intp)
    offset = 0
    for cls in np.unique(labels):
        mask = labels == cls
        lab, count = ndimage.label(mask, structure=_STRUCTURE_8)
        np.add(lab, offset - 1, out=combined, where=mask)
        offset += count
    flat = combined.ravel()
    first = np.full(offset, flat.size)
    np.minimum.at(first, flat, np.arange(flat.size))
    lut = np.empty(offset, dtype=np.int32)
    lut[np.argsort(first)] = np.arange(offset, dtype=np.int32)
    return lut[combined]


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
    flat = comp_map.ravel()
    h, w = labels.shape
    counts = np.bincount(flat)
    bounds = np.concatenate(([0], np.cumsum(counts)))
    order = np.argsort(flat, kind="stable")
    pixels = np.empty((h * w, 2), dtype=np.int32)
    pixels[:, 0], pixels[:, 1] = np.divmod(order, w)
    rows, cols = np.indices((h, w)).reshape(2, -1)
    # integer coordinate sums are exact, so each center is the rounded mean
    center_rows = np.bincount(flat, weights=rows) / counts
    center_cols = np.bincount(flat, weights=cols) / counts
    inner_sorted = inner.ravel()[order]
    classes = labels.ravel()[order[bounds[:-1]]]
    segments = [
        Segment(frame_index, idx, cls, pixels[lo:hi], inner_sorted[lo:hi], (r, c))
        for idx, (cls, lo, hi, r, c) in enumerate(
            zip(
                classes.tolist(),
                bounds[:-1].tolist(),
                bounds[1:].tolist(),
                center_rows.tolist(),
                center_cols.tolist(),
            )
        )
    ]
    return FrameSegments(segments, comp_map, inner)

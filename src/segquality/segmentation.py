"""Connected-component segments with inner/boundary pixel classification."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

_STRUCTURE_8 = np.ones((3, 3), dtype=bool)


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


@dataclass(eq=False)
class FrameSegments:
    """A frame's 8-connected same-class segments, as arrays indexed by
    component (0, 1, ... in raster order of each segment's first pixel).

    `comp_map` (H, W) holds each pixel's component and `inner` (H, W) flags
    the pixels whose eight neighbors all exist and share it.
    """

    comp_map: np.ndarray
    inner: np.ndarray
    classes: np.ndarray  # (n,) class of each segment
    centers: np.ndarray  # (n, 2) mean row and column of each segment
    sizes: np.ndarray  # (n,) pixel count of each segment

    def __len__(self) -> int:
        return len(self.classes)


def connected_components(labels: np.ndarray) -> FrameSegments:
    """Partition a label frame into its segments (raster-deterministic order)."""
    labels = np.asarray(labels)
    comp_map = label_components(labels)
    flat = comp_map.ravel()
    counts = np.bincount(flat)
    # every pixel of a segment has the segment's class
    classes = np.empty(len(counts), dtype=labels.dtype)
    classes[flat] = labels.ravel()
    rows, cols = np.indices(labels.shape).reshape(2, -1)
    # integer coordinate sums are exact, so each center is the rounded mean
    centers = np.stack(
        [np.bincount(flat, weights=rows), np.bincount(flat, weights=cols)], axis=1
    )
    centers /= counts[:, None]
    return FrameSegments(comp_map, inner_mask(comp_map), classes, centers, counts)

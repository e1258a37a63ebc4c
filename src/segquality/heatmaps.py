"""Pixel-wise dispersion heatmaps and cell-state stability heatmaps."""

from __future__ import annotations

import numpy as np

SOFTMAX_TOL = 1e-5


def _class_major(probs, tol: float = SOFTMAX_TOL) -> np.ndarray:
    """Validate a (H, W, c) softmax frame; return it renormalized as (c, H*W).

    The frame must be finite and non-negative, with c >= 2 classes and every
    pixel's float64 sum within `tol` of 1.  The returned float64 array holds
    each pixel's probabilities divided by that sum.
    """
    probs = np.asarray(probs)
    if probs.ndim != 3:
        raise ValueError(f"softmax frame must be 3-D, got ndim={probs.ndim}")
    h, w, c = probs.shape
    if c < 2:
        raise ValueError(f"softmax frame needs >= 2 classes, got {c}")
    p = np.moveaxis(probs, 2, 0).astype(np.float64, order="C").reshape(c, h * w)
    sums = p.sum(axis=0)
    if not np.isfinite(sums).all():  # a NaN or infinite value makes its sum so
        raise ValueError("softmax frame has non-finite values")
    if p.min() < 0:
        raise ValueError("softmax frame has negative probabilities")
    err = np.abs(sums - 1.0).max()
    if err > tol:
        raise ValueError(f"softmax rows deviate from sum 1 by {err:.3g} (tol {tol:g})")
    p /= sums
    return p


def predicted_labels(probs: np.ndarray) -> np.ndarray:
    """Per-pixel argmax class, ties broken by the lowest class index."""
    return np.argmax(np.asarray(probs), axis=2).astype(np.int32)


def dispersion_heatmaps(probs: np.ndarray) -> np.ndarray:
    """(3, H, W) entropy, variation ratio, and probability margin heatmaps.

    Inputs are validated and renormalized per pixel.  Entropy uses the natural
    log with a 1/log(c) normalizer and the convention 0*log(0) = 0; all three
    outputs lie in [0, 1].  The margin reads the two largest probabilities
    from a running maximum and second maximum over the classes.
    """
    p = _class_major(probs)
    num_classes = p.shape[0]
    plogp = np.log(p, out=np.zeros_like(p), where=p > 0)
    plogp *= p
    largest = np.maximum(p[0], p[1])
    second = np.minimum(p[0], p[1])
    for row in p[2:]:
        np.maximum(second, np.minimum(largest, row), out=second)
        np.maximum(largest, row, out=largest)
    out = np.empty((3, p.shape[1]))
    np.clip(-plogp.sum(axis=0) / np.log(num_classes), 0.0, 1.0, out=out[0])
    np.subtract(1.0, largest, out=out[1])
    np.clip(out[1] + second, 0.0, 1.0, out=out[2])
    return out.reshape((3,) + np.shape(probs)[:2])


def build_cell_state_stack(blocks: np.ndarray) -> np.ndarray:
    """Validate a (H, W, l) stack of per-block mean states.

    Returns a float64 (H, W, l) view of a blocks-first (l, H, W) array, so
    each block's map is contiguous.
    """
    by_block = np.moveaxis(blocks, 2, 0).astype(np.float64, order="C")
    if len(by_block) < 2:
        raise ValueError(f"cell state stack needs >= 2 blocks, got {len(by_block)}")
    if not np.isfinite(by_block).all():
        raise ValueError("cell state stack has non-finite values")
    return np.moveaxis(by_block, 0, 2)


def stability_heatmaps(stack: np.ndarray) -> np.ndarray:
    """(l - 1, H, W): absolute difference between the first block's mean state
    and each later one."""
    blocks = np.moveaxis(build_cell_state_stack(stack), 2, 0)
    rest = blocks[1:]  # the stack is a fresh array, so it is reused for the maps
    np.subtract(blocks[0], rest, out=rest)
    return np.abs(rest, out=rest)

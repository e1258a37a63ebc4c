"""Pixel-wise dispersion heatmaps and cell-state stability heatmaps."""

from __future__ import annotations

import numpy as np

SOFTMAX_TOL = 1e-5


def check_softmax(probs) -> np.ndarray:
    """Validate a (H, W, c) softmax frame; return each pixel's float64 sum.

    The frame must be finite and non-negative, with c >= 2 classes and every
    pixel's sum within `SOFTMAX_TOL` of 1.  The classes are added in order,
    without a float64 copy of the frame.
    """
    probs = np.asarray(probs)
    if probs.ndim != 3:
        raise ValueError(f"softmax frame must be 3-D, got ndim={probs.ndim}")
    if probs.shape[2] < 2:
        raise ValueError(f"softmax frame needs >= 2 classes, got {probs.shape[2]}")
    sums = probs[..., 0].astype(np.float64)
    for k in range(1, probs.shape[2]):
        sums += probs[..., k]
    if not np.isfinite(sums).all():  # a NaN or infinite value makes its sum so
        raise ValueError("softmax frame has non-finite values")
    if probs.min() < 0:
        raise ValueError("softmax frame has negative probabilities")
    err = np.abs(sums - 1.0).max()
    if err > SOFTMAX_TOL:
        raise ValueError(
            f"softmax rows deviate from sum 1 by {err:.3g} (tol {SOFTMAX_TOL:g})"
        )
    return sums


def predicted_labels(probs: np.ndarray) -> np.ndarray:
    """Per-pixel argmax class, ties broken by the lowest class index."""
    return np.argmax(np.asarray(probs), axis=2).astype(np.int32)


def dispersion_heatmaps(probs: np.ndarray) -> np.ndarray:
    """(3, H, W) entropy, variation ratio, and probability margin heatmaps.

    Inputs are validated by `check_softmax` and renormalized per pixel, in a
    float64 class-major copy.  Entropy uses the natural log with a 1/log(c)
    normalizer and the convention 0*log(0) = 0; all three outputs lie in
    [0, 1].  The margin reads the two largest probabilities from a running
    maximum and second maximum over the classes.
    """
    probs = np.asarray(probs)
    sums = check_softmax(probs)
    h, w, num_classes = probs.shape
    p = np.moveaxis(probs, 2, 0).astype(np.float64, order="C").reshape(num_classes, h * w)
    p /= sums.ravel()
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
    return out.reshape(3, h, w)


def stability_heatmaps(stack: np.ndarray) -> np.ndarray:
    """(l - 1, H, W): absolute difference between the first block's mean state
    and each later one, from a finite (H, W, l) stack of l >= 2 per-block
    mean states."""
    # a fresh float64 blocks-first copy: each block's map is contiguous, and
    # the copy is reused for the maps
    blocks = np.moveaxis(stack, 2, 0).astype(np.float64, order="C")
    if len(blocks) < 2:
        raise ValueError(f"cell state stack needs >= 2 blocks, got {len(blocks)}")
    if not np.isfinite(blocks).all():
        raise ValueError("cell state stack has non-finite values")
    rest = blocks[1:]
    np.subtract(blocks[0], rest, out=rest)
    return np.abs(rest, out=rest)

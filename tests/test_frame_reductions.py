"""The frame-level reductions against the brute-force oracles.

`frame_features` and `frame_adjusted_iou` score every segment of a frame in
one pass; here each row is checked against `tests/oracles.py`, on random
frames that include 1xN and 2xN frames (no segment has an interior) and
single-segment frames.
"""

import numpy as np

import oracles
from segquality import heatmaps
from segquality.seg_metrics import (
    adjusted_iou,
    assemble_features,
    feature_names,
    frame_adjusted_iou,
    frame_features,
)
from segquality.segmentation import connected_components

NUM_STABILITY = 2
TOL = 1e-12


def _blocky(rng, h, w, c, block):
    """Labels constant on block x block tiles, so segments have interiors."""
    tiles = rng.integers(0, c, size=(-(-h // block), -(-w // block)))
    return np.kron(tiles, np.ones((block, block), dtype=int))[:h, :w]


def _frames(rng):
    """(labels, gt) pairs over the shapes the batched path must handle."""
    for w in (1, 2, 7, 30):
        for h in (1, 2):
            c = int(rng.integers(2, 5))
            yield rng.integers(0, c, size=(h, w)), rng.integers(0, c, size=(h, w))
    for h, w in ((1, 1), (3, 3), (6, 9)):
        yield np.full((h, w), 2), rng.integers(0, 3, size=(h, w))
    for _ in range(12):
        h, w = (int(v) for v in rng.integers(3, 20, size=2))
        c = int(rng.integers(2, 6))
        block = int(rng.integers(1, 4))
        yield _blocky(rng, h, w, c, block), _blocky(rng, h, w, c, block)
    for _ in range(4):  # many small components, most of them single pixels
        yield rng.integers(0, 8, size=(2, 40)), rng.integers(0, 8, size=(2, 40))


def _inputs(rng, labels):
    h, w = labels.shape
    c = int(labels.max()) + 2
    softmax = oracles.random_softmax(rng, h, w, c)
    stack = rng.random((3 + NUM_STABILITY, h, w))
    return softmax, stack


def test_frame_features_match_oracles():
    rng = np.random.default_rng(11)
    checked = {"rows": 0, "no_interior": 0, "single": 0}
    for labels, _ in _frames(rng):
        h, w = labels.shape
        softmax, stack = _inputs(rng, labels)
        segments = connected_components(labels)
        matrix = frame_features(segments, stack, softmax)
        c = softmax.shape[2]
        names = feature_names(c, NUM_STABILITY)
        assert matrix.shape == (len(segments), len(names))
        _, components = oracles.flood_fill_components(labels)
        assert len(components) == len(segments)
        for row, (_, pixels) in zip(matrix, components):
            inner = oracles.inner_pixels(pixels, h, w)
            size, size_in, size_bd = len(pixels), len(inner), len(pixels) - len(inner)
            expected = [size, size_in, size_bd, size / size_bd, size_in / size_bd]
            expected += oracles.center(pixels)
            for j in range(3):
                expected += oracles.aggregate(pixels, inner, stack[j])
            expected += oracles.class_prob_means(pixels, softmax)
            for j in range(3, 3 + NUM_STABILITY):
                expected += oracles.aggregate(pixels, inner, stack[j])
            np.testing.assert_allclose(row, expected, rtol=TOL, atol=TOL)
            checked["rows"] += 1
            checked["no_interior"] += size_in == 0
        checked["single"] += len(segments) == 1
    assert checked["no_interior"] > 20 and checked["single"] >= 3


def test_frame_adjusted_iou_equals_oracle_exactly():
    rng = np.random.default_rng(12)
    for labels, gt in _frames(rng):
        segments = connected_components(labels)
        ious = frame_adjusted_iou(segments, gt)
        _, components = oracles.flood_fill_components(labels)
        expected = [oracles.adjusted_iou(p, cls, gt) for cls, p in components]
        assert ious.tolist() == expected


def test_per_segment_adapters_are_rows_of_the_frame_matrix():
    rng = np.random.default_rng(14)
    probs = oracles.random_softmax(rng, 12, 15, 4)
    labels = heatmaps.predicted_labels(probs)
    gt = _blocky(rng, 12, 15, 4, 3)
    maps = list(heatmaps.dispersion_heatmaps(probs)) + [rng.random((12, 15))]
    segments = connected_components(labels)
    matrix = frame_features(segments, np.stack(maps), probs)
    ious = frame_adjusted_iou(segments, gt)
    assert len(matrix) == len(ious) == len(segments)
    for i, (row, iou) in enumerate(zip(matrix, ious)):
        vector = assemble_features(segments, i, np.stack(maps), probs)
        assert np.array_equal(vector, row)
        assert adjusted_iou(segments, i, gt) == iou

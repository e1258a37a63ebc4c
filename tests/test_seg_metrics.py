import numpy as np
import pytest

import oracles
from segquality import heatmaps
from segquality.segmentation import connected_components
from segquality.seg_metrics import (
    BASE_FEATURE_COUNT,
    ENTROPY_MEAN_INDEX,
    feature_count,
    feature_names,
    frame_adjusted_iou,
    frame_features,
)


def _single_segment(labels):
    segments = connected_components(np.asarray(labels))
    assert len(segments) == 1
    return segments


def _sets(segments, i):
    """Pixel set and inner pixel set of segment i."""
    pixels, inner = oracles.segment_pixels(segments, i)
    return set(map(tuple, pixels.tolist())), set(map(tuple, pixels[inner].tolist()))


def _class_segment(segments, class_id):
    """Index of the (first) segment of class `class_id`."""
    return segments.classes.tolist().index(class_id)


def _features(segments, heatmap=None, softmax=None):
    """frame_features rows with `heatmap` as the entropy map (zero maps and
    a uniform two-class softmax where an input is not given)."""
    shape = segments.comp_map.shape
    stack = np.zeros((3,) + shape)
    if heatmap is not None:
        stack[0] = heatmap
    if softmax is None:
        softmax = np.full(shape + (2,), 0.5)
    return frame_features(segments, stack, softmax)


def _aggregates(labels, heatmap):
    """(mean, mean_in, mean_bd, rel, rel_in) of `heatmap` over each segment."""
    rows = _features(connected_components(np.asarray(labels)), heatmap)
    return rows[:, ENTROPY_MEAN_INDEX : ENTROPY_MEAN_INDEX + 5]


def _class_probs(labels, softmax):
    """Per-class mean softmax of each segment."""
    rows = _features(connected_components(np.asarray(labels)), softmax=softmax)
    return rows[:, BASE_FEATURE_COUNT : BASE_FEATURE_COUNT + softmax.shape[2]]


def test_aggregate_constant_field():
    (row,) = _aggregates(np.zeros((4, 4), dtype=int), np.full((4, 4), 0.7))
    mean, mean_in, mean_bd, rel, rel_in = row
    assert mean == pytest.approx(0.7)
    assert mean_in == pytest.approx(0.7)
    assert mean_bd == pytest.approx(0.7)
    assert rel == pytest.approx(0.7 * 16 / 12)
    assert rel_in == pytest.approx(0.7 * 4 / 12)


def test_aggregate_hand_values_3x3():
    heatmap = np.zeros((3, 3))
    heatmap[1, 1] = 1.0
    (row,) = _aggregates(np.zeros((3, 3), dtype=int), heatmap)
    mean, mean_in, mean_bd, rel, rel_in = row
    assert mean == pytest.approx(1 / 9)
    assert mean_in == pytest.approx(1.0)
    assert mean_bd == pytest.approx(0.0)
    assert rel == pytest.approx(1 / 8)
    assert rel_in == pytest.approx(1 / 8)


def test_aggregate_empty_interior_convention():
    labels = np.zeros((1, 5), dtype=int)
    (row,) = _aggregates(labels, np.full((1, 5), 0.4))
    mean, mean_in, mean_bd, rel, rel_in = row
    assert _single_segment(labels).inner.sum() == 0
    assert mean_in == 0.0
    assert rel_in == 0.0
    assert mean == pytest.approx(0.4)
    assert mean_bd == pytest.approx(0.4)


def test_aggregate_matches_bruteforce_on_random_frames():
    rng = np.random.default_rng(0)
    for _ in range(5):
        labels = rng.integers(0, 3, size=(9, 9))
        heatmap = rng.random((9, 9))
        rows = _aggregates(labels, heatmap)
        segments = connected_components(labels)
        assert len(rows) == len(segments)
        for i, actual in enumerate(rows):
            pixels, inner = _sets(segments, i)
            expected = oracles.aggregate(pixels, inner, heatmap)
            assert np.allclose(actual, expected, atol=1e-9)


def test_mean_class_probs_constant_one_hot():
    labels = np.zeros((3, 3), dtype=int)
    softmax = np.zeros((3, 3, 3))
    softmax[:, :, 0] = 1.0
    (probs,) = _class_probs(labels, softmax)
    assert np.allclose(probs, [1.0, 0.0, 0.0])


def test_mean_class_probs_two_pixel_average():
    softmax = np.array([[[0.6, 0.4], [0.2, 0.8]]])
    (probs,) = _class_probs(np.zeros((1, 2), dtype=int), softmax)
    assert np.allclose(probs, [0.4, 0.6])


def test_mean_class_probs_sum_to_one():
    rng = np.random.default_rng(1)
    probs = oracles.random_softmax(rng, 7, 7, 4)
    labels = heatmaps.predicted_labels(probs)
    totals = _class_probs(labels, probs).sum(axis=1)
    assert len(totals) == len(connected_components(labels))
    for total in totals:
        assert total == pytest.approx(1.0, abs=1e-5)


def test_feature_names_and_counts():
    assert feature_count(5, 0) == 27
    assert feature_count(17, 9) == 84
    names = feature_names(3, 2)
    assert len(names) == feature_count(3, 2) == 22 + 3 + 10
    assert names[0] == "size"
    assert names[5] == "center_row"
    assert names[7] == "entropy_mean"
    assert names[22:25] == ["classprob_0", "classprob_1", "classprob_2"]
    assert names[25] == "cellstab1_mean"
    assert names[-1] == "cellstab2_in_rel"


def test_assemble_features_prefix_consistency():
    rng = np.random.default_rng(2)
    probs = oracles.random_softmax(rng, 8, 8, 4)
    labels = heatmaps.predicted_labels(probs)
    dispersion = list(heatmaps.dispersion_heatmaps(probs))
    stacks = [rng.random((8, 8)) for _ in range(3)]
    segments = connected_components(labels)
    full = frame_features(segments, np.stack(dispersion + stacks), probs)
    for m in range(3):
        partial = frame_features(segments, np.stack(dispersion + stacks[:m]), probs)
        assert partial.shape[1] == feature_count(4, m)
        assert np.array_equal(partial, full[:, : partial.shape[1]])


def test_assemble_features_canonical_values():
    labels = np.zeros((3, 3), dtype=int)
    segments = _single_segment(labels)
    softmax = np.zeros((3, 3, 2))
    softmax[:, :, 0] = 0.9
    softmax[:, :, 1] = 0.1
    maps = heatmaps.dispersion_heatmaps(softmax)
    (vec,) = frame_features(segments, maps, softmax)
    names = feature_names(2, 0)
    row = dict(zip(names, vec))
    assert row["size"] == 9
    assert row["size_in"] == 1
    assert row["size_bd"] == 8
    assert row["size_rel"] == pytest.approx(9 / 8)
    assert row["size_in_rel"] == pytest.approx(1 / 8)
    assert (row["center_row"], row["center_col"]) == (1.0, 1.0)
    assert row["classprob_0"] == pytest.approx(0.9)
    assert row["classprob_1"] == pytest.approx(0.1)
    assert row["varratio_mean"] == pytest.approx(0.1, abs=1e-12)


def test_adjusted_iou_exact_match():
    gt = np.zeros((6, 6), dtype=int)
    gt[1:4, 1:4] = 1
    pred_segments = connected_components(gt)
    i = _class_segment(pred_segments, 1)
    assert frame_adjusted_iou(pred_segments, gt)[i] == 1.0


def test_adjusted_iou_no_intersection_is_zero():
    gt = np.zeros((6, 6), dtype=int)
    gt[4:, 4:] = 1
    pred = np.zeros((6, 6), dtype=int)
    pred[0:2, 0:2] = 1
    segments = connected_components(pred)
    i = _class_segment(segments, 1)
    assert frame_adjusted_iou(segments, gt)[i] == 0.0


def test_adjusted_iou_ignores_disjoint_components():
    # prediction k: 10 pixels; GT component Q1 shares 6, Q2 (5 px) is disjoint
    gt = np.zeros((8, 12), dtype=int)
    gt[1:3, 1:5] = 1  # Q1: 8 pixels
    gt[6, 1:6] = 1  # Q2: 5 pixels, far from the prediction
    pred = np.zeros((8, 12), dtype=int)
    pred[1:3, 2:7] = 1  # k: 10 pixels, 6 shared with Q1
    segments = connected_components(pred)
    i = _class_segment(segments, 1)
    value = frame_adjusted_iou(segments, gt)[i]
    assert value == pytest.approx(6 / 12)
    pixels, _ = _sets(segments, i)
    assert oracles.plain_class_iou(pixels, 1, gt) == pytest.approx(6 / 17)
    assert value >= oracles.plain_class_iou(pixels, 1, gt)


def test_adjusted_iou_matches_oracle_and_dominates_plain_iou():
    rng = np.random.default_rng(3)
    for _ in range(20):
        pred = rng.integers(0, 3, size=(10, 10))
        gt = rng.integers(0, 3, size=(10, 10))
        segments = connected_components(pred)
        ious = frame_adjusted_iou(segments, gt)
        for i, ours in enumerate(ious):
            pixels, _ = _sets(segments, i)
            class_id = int(segments.classes[i])
            expected = oracles.adjusted_iou(pixels, class_id, gt)
            assert ours == pytest.approx(expected, abs=1e-12)
            assert 0.0 <= ours <= 1.0
            assert ours >= oracles.plain_class_iou(pixels, class_id, gt) - 1e-12


def test_frame_adjusted_iou_rejects_ground_truth_of_another_shape():
    segments = connected_components(np.zeros((4, 6), dtype=int))
    for shape in ((6, 4), (4, 7)):
        with pytest.raises(
            ValueError,
            match=rf"^ground truth \({shape[0]}, {shape[1]}\) must have the "
            r"prediction's shape \(4, 6\)$",
        ):
            frame_adjusted_iou(segments, np.zeros(shape, dtype=int))

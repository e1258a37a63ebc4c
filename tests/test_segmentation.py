import csv

import numpy as np
import pytest

import oracles
from segquality.pipeline import extract_frame, write_segment_csv
from segquality.segmentation import (
    connected_components,
    inner_mask,
    label_components,
)


def _pixel_set(segments, i):
    return set(map(tuple, oracles.segment_pixels(segments, i)[0].tolist()))


def _inner_count(segments, i):
    return int(oracles.segment_pixels(segments, i)[1].sum())


def test_uniform_frame_single_segment():
    labels = np.full((4, 5), 2, dtype=int)
    segments = connected_components(labels)
    assert len(segments) == 1
    assert segments.sizes[0] == 20
    assert segments.classes[0] == 2


def test_two_by_three_hand_labeling():
    labels = np.array([[0, 0, 1], [0, 1, 1]])
    segments = connected_components(labels)
    assert len(segments) == 2
    sets = [_pixel_set(segments, i) for i in range(len(segments))]
    assert sets[0] == {(0, 0), (0, 1), (1, 0)}
    assert sets[1] == {(0, 2), (1, 1), (1, 2)}
    assert segments.classes[0] == 0
    assert segments.classes[1] == 1


def test_checkerboard_two_segments():
    rows, cols = np.indices((6, 6))
    labels = (rows + cols) % 2
    segments = connected_components(labels)
    # 8-connectivity joins each color diagonally into one segment per color
    assert len(segments) == 2
    assert sorted(segments.classes.tolist()) == [0, 1]
    assert all(size == 18 for size in segments.sizes)


def test_matches_flood_fill_oracle_on_random_frames():
    rng = np.random.default_rng(0)
    for _ in range(10):
        labels = rng.integers(0, 3, size=(9, 11))
        segments = connected_components(labels)
        _, oracle_components = oracles.flood_fill_components(labels)
        ours = sorted(
            (int(segments.classes[i]), tuple(sorted(_pixel_set(segments, i))))
            for i in range(len(segments))
        )
        theirs = sorted(
            (cls, tuple(sorted(pixels))) for cls, pixels in oracle_components
        )
        assert ours == theirs


@pytest.mark.parametrize("shape", [(9, 11), (1, 17), (17, 1), (1, 1)])
def test_label_components_match_flood_fill_with_any_class_ids(shape):
    rng = np.random.default_rng(6)
    for _ in range(5):
        labels = rng.choice(np.array([-1, 0, 7, 255]), size=shape)
        comp, _ = oracles.flood_fill_components(labels)
        assert np.array_equal(label_components(labels), comp)


def test_partition_property():
    rng = np.random.default_rng(1)
    labels = rng.integers(0, 4, size=(12, 10))
    segments = connected_components(labels)
    seen = set()
    for i in range(len(segments)):
        pixels = _pixel_set(segments, i)
        assert not (pixels & seen)
        seen |= pixels
    assert len(seen) == labels.size


def test_component_order_is_raster_of_first_pixel():
    labels = np.array(
        [
            [0, 0, 1],
            [2, 0, 1],
            [2, 2, 1],
        ]
    )
    segments = connected_components(labels)
    firsts = [tuple(oracles.segment_pixels(segments, i)[0][0]) for i in range(3)]
    assert firsts == sorted(firsts)
    assert [segments.comp_map[first] for first in firsts] == [0, 1, 2]


def test_determinism_on_identical_frames():
    rng = np.random.default_rng(2)
    labels = rng.integers(0, 3, size=(15, 15))
    a = connected_components(labels.copy())
    b = connected_components(labels.copy())
    assert len(a) == len(b)
    for name in ("comp_map", "inner", "classes", "centers", "sizes"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_inner_boundary_3x3_single_segment():
    labels = np.zeros((3, 3), dtype=int)
    segments = connected_components(labels)
    assert len(segments) == 1
    pixels, inner = oracles.segment_pixels(segments, 0)
    assert inner.sum() == 1
    assert segments.sizes[0] - inner.sum() == 8
    assert tuple(pixels[inner][0]) == (1, 1)


def test_inner_boundary_1x5_all_boundary():
    labels = np.zeros((1, 5), dtype=int)
    segments = connected_components(labels)
    assert len(segments) == 1
    assert _inner_count(segments, 0) == 0
    assert segments.sizes[0] - _inner_count(segments, 0) == 5


def test_inner_boundary_5x5_hand_count():
    labels = np.zeros((5, 5), dtype=int)
    segments = connected_components(labels)
    assert len(segments) == 1
    assert _inner_count(segments, 0) == 9
    assert segments.sizes[0] - _inner_count(segments, 0) == 16


def test_split_inner_boundary_agrees_with_vectorized_path():
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 2, size=(10, 8))
    h, w = labels.shape
    segments = connected_components(labels)
    for i in range(len(segments)):
        pixels, flags = oracles.segment_pixels(segments, i)
        pixel_set = set(map(tuple, pixels.tolist()))
        inner = oracles.inner_pixels(pixel_set, h, w)
        boundary = pixels[~flags]
        assert inner == set(map(tuple, pixels[flags].tolist()))
        assert pixel_set - inner == set(map(tuple, boundary.tolist()))
        assert segments.sizes[i] == flags.sum() + len(boundary)
        assert segments.sizes[i] - flags.sum() >= 1


def test_inner_pixels_have_all_neighbors_in_segment():
    rng = np.random.default_rng(4)
    labels = rng.integers(0, 3, size=(14, 9))
    comp_map = label_components(labels)
    h, w = labels.shape
    segments = connected_components(labels)
    for i in range(len(segments)):
        pixels, inner = oracles.segment_pixels(segments, i)
        pixel_set = set(map(tuple, pixels.tolist()))
        for r, c in pixels[inner]:
            assert 0 < r < h - 1 and 0 < c < w - 1
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    assert (r + dr, c + dc) in pixel_set
    assert inner_mask(comp_map).sum() == sum(
        _inner_count(segments, i) for i in range(len(segments))
    )


def test_geometric_center_examples():
    single = np.zeros((5, 9), dtype=int)
    single[3, 7] = 1
    assert tuple(connected_components(single).centers[1]) == (3.0, 7.0)
    block = connected_components(np.zeros((3, 3), dtype=int))
    assert len(block) == 1
    assert tuple(block.centers[0]) == (1.0, 1.0)
    tri = connected_components(np.array([[1, 1], [1, 0]]))
    assert tri.sizes[0] == 3
    assert tri.centers[0, 0] == pytest.approx(1 / 3)
    assert tri.centers[0, 1] == pytest.approx(1 / 3)


def test_geometric_center_matches_oracle():
    rng = np.random.default_rng(5)
    labels = rng.integers(0, 3, size=(8, 8))
    segments = connected_components(labels)
    for i in range(len(segments)):
        expected = oracles.center(_pixel_set(segments, i))
        assert segments.centers[i, 0] == pytest.approx(expected[0], abs=1e-12)
        assert segments.centers[i, 1] == pytest.approx(expected[1], abs=1e-12)


def test_write_segment_csv_schema(tmp_path):
    labels = np.array([[0, 1], [0, 1], [0, 0]])
    softmax = np.where(labels[..., None] == np.arange(2), 0.9, 0.1)
    _, rows = extract_frame(softmax, None, None, 4, num_stability=0)
    rows.track_ids[0] = 9
    path = tmp_path / "segments.csv"
    write_segment_csv([rows], path)
    with open(path, newline="", encoding="utf-8") as fh:
        header, first, second = csv.reader(fh)
    assert dict(zip(header, first)) == {
        "frame": "4",
        "component": "0",
        "class": "0",
        "size": "4",
        "size_in": "0",
        "size_bd": "4",
        "center_row": "1.25",
        "center_col": "0.25",
        "track_id": "9",
    }
    assert second[header.index("track_id")] == "-1"

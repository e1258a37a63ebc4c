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


def test_uniform_frame_single_segment():
    labels = np.full((4, 5), 2, dtype=int)
    segments = connected_components(labels)
    assert len(segments) == 1
    assert segments[0].size == 20
    assert segments[0].class_id == 2


def test_two_by_three_hand_labeling():
    labels = np.array([[0, 0, 1], [0, 1, 1]])
    segments = connected_components(labels)
    assert len(segments) == 2
    sets = [set(map(tuple, s.pixels.tolist())) for s in segments]
    assert sets[0] == {(0, 0), (0, 1), (1, 0)}
    assert sets[1] == {(0, 2), (1, 1), (1, 2)}
    assert segments[0].class_id == 0
    assert segments[1].class_id == 1


def test_checkerboard_two_segments():
    rows, cols = np.indices((6, 6))
    labels = (rows + cols) % 2
    segments = connected_components(labels)
    # 8-connectivity joins each color diagonally into one segment per color
    assert len(segments) == 2
    assert sorted(s.class_id for s in segments) == [0, 1]
    assert all(s.size == 18 for s in segments)


def test_matches_flood_fill_oracle_on_random_frames():
    rng = np.random.default_rng(0)
    for _ in range(10):
        labels = rng.integers(0, 3, size=(9, 11))
        segments = connected_components(labels)
        _, oracle_components = oracles.flood_fill_components(labels)
        ours = sorted(
            (s.class_id, tuple(sorted(map(tuple, s.pixels.tolist()))))
            for s in segments
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
    for s in segments:
        pixels = set(map(tuple, s.pixels.tolist()))
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
    firsts = [tuple(s.pixels[0]) for s in segments]
    assert firsts == sorted(firsts)
    assert [s.component_index for s in segments] == [0, 1, 2]


def test_determinism_on_identical_frames():
    rng = np.random.default_rng(2)
    labels = rng.integers(0, 3, size=(15, 15))
    a = connected_components(labels.copy())
    b = connected_components(labels.copy())
    assert len(a) == len(b)
    for sa, sb in zip(a, b):
        assert sa.class_id == sb.class_id
        assert np.array_equal(sa.pixels, sb.pixels)
        assert np.array_equal(sa.inner, sb.inner)


def test_inner_boundary_3x3_single_segment():
    labels = np.zeros((3, 3), dtype=int)
    (segment,) = connected_components(labels)
    assert segment.size_inner == 1
    assert segment.size - segment.size_inner == 8
    assert tuple(segment.pixels[segment.inner][0]) == (1, 1)


def test_inner_boundary_1x5_all_boundary():
    labels = np.zeros((1, 5), dtype=int)
    (segment,) = connected_components(labels)
    assert segment.size_inner == 0
    assert segment.size - segment.size_inner == 5


def test_inner_boundary_5x5_hand_count():
    labels = np.zeros((5, 5), dtype=int)
    (segment,) = connected_components(labels)
    assert segment.size_inner == 9
    assert segment.size - segment.size_inner == 16


def test_split_inner_boundary_agrees_with_vectorized_path():
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 2, size=(10, 8))
    h, w = labels.shape
    for segment in connected_components(labels):
        pixels = set(map(tuple, segment.pixels.tolist()))
        inner = oracles.inner_pixels(pixels, h, w)
        assert inner == set(map(tuple, segment.pixels[segment.inner].tolist()))
        assert pixels - inner == set(map(tuple, segment.boundary_pixels.tolist()))
        assert segment.size == segment.size_inner + len(segment.boundary_pixels)
        assert segment.size - segment.size_inner >= 1


def test_inner_pixels_have_all_neighbors_in_segment():
    rng = np.random.default_rng(4)
    labels = rng.integers(0, 3, size=(14, 9))
    comp_map = label_components(labels)
    h, w = labels.shape
    for segment in connected_components(labels):
        pixels = set(map(tuple, segment.pixels.tolist()))
        for r, c in segment.pixels[segment.inner]:
            assert 0 < r < h - 1 and 0 < c < w - 1
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    assert (r + dr, c + dc) in pixels
    assert inner_mask(comp_map).sum() == sum(
        s.size_inner for s in connected_components(labels)
    )


def test_geometric_center_examples():
    single = np.zeros((5, 9), dtype=int)
    single[3, 7] = 1
    assert connected_components(single)[1].center == (3.0, 7.0)
    (block,) = connected_components(np.zeros((3, 3), dtype=int))
    assert block.center == (1.0, 1.0)
    tri = connected_components(np.array([[1, 1], [1, 0]]))[0]
    assert tri.size == 3
    assert tri.center[0] == pytest.approx(1 / 3)
    assert tri.center[1] == pytest.approx(1 / 3)


def test_geometric_center_matches_oracle():
    rng = np.random.default_rng(5)
    labels = rng.integers(0, 3, size=(8, 8))
    for segment in connected_components(labels):
        expected = oracles.center(set(map(tuple, segment.pixels.tolist())))
        assert segment.center[0] == pytest.approx(expected[0], abs=1e-12)
        assert segment.center[1] == pytest.approx(expected[1], abs=1e-12)


def test_write_segment_csv_schema(tmp_path):
    labels = np.array([[0, 1], [0, 1], [0, 0]])
    softmax = np.where(labels[..., None] == np.arange(2), 0.9, 0.1)
    _, rows = extract_frame(softmax, None, None, 4, num_stability=0)
    rows[0].track_id = 9
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

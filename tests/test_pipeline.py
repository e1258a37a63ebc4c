import numpy as np
import pytest

from segquality.dataset import write_dataset
from segquality.pipeline import (
    apply_tracking,
    assemble_dataset,
    extract_frame,
    process_stream,
    read_feature_csv,
    read_tracking_csv,
    write_feature_csv,
    write_tracking_csv,
)
from segquality.synth import SynthConfig, generate_stream
from segquality.tracking import TrackingParams


@pytest.fixture(scope="module")
def small_stream(tmp_path_factory):
    config = SynthConfig(
        height=40,
        width=56,
        num_classes=8,
        num_blocks=4,
        num_frames=8,
        num_objects=4,
        error_rate=0.2,
        seed=3,
    )
    out = tmp_path_factory.mktemp("stream")
    return generate_stream(config, out)


def test_extract_frame_row_count_matches_segments(small_stream):
    softmax = small_stream.load_softmax(0)
    cells = small_stream.load_cell_state(0)
    gt = small_stream.load_ground_truth(0)
    segments, rows = extract_frame(softmax, cells, gt, 0, num_stability=2)
    assert len(segments) == len(rows)
    assert (rows.frame_index, rows.num_stability) == (0, 2)
    assert rows.components.tolist() == list(range(len(segments)))
    assert np.array_equal(rows.features[:, 0], segments.sizes)
    assert np.array_equal(rows.classes, segments.classes)
    assert (rows.track_ids == -1).all()
    assert ((0.0 <= rows.iou) & (rows.iou <= 1.0)).all()
    assert rows.features.shape == (len(segments), 22 + 8 + 5 * 2)


def test_feature_rows_iterate_as_read_only_rows(small_stream):
    softmax = small_stream.load_softmax(0)
    cells = small_stream.load_cell_state(0)
    _, rows = extract_frame(softmax, cells, None, 0, num_stability=2)
    listed = list(rows)
    assert len(listed) == len(rows) > 1
    for i, row in enumerate(listed):
        assert row.component_index == rows.components[i]
        assert row.class_id == rows.classes[i]
        assert row.num_stability == 2
        assert np.array_equal(row.features, rows.features[i])
    with pytest.raises(AttributeError):
        listed[0].class_id = 5


def test_extract_frame_requires_cells_for_stability():
    softmax = np.full((4, 4, 2), 0.5)
    with pytest.raises(ValueError, match="cell states required"):
        extract_frame(softmax, None, None, 0, num_stability=1)


def test_process_stream_fills_track_ids(small_stream):
    rows_by_frame, assignments = process_stream(
        small_stream, 1, params=TrackingParams()
    )
    assert len(rows_by_frame) == small_stream.num_frames
    assert len(assignments) == small_stream.num_frames
    for rows, frame_assignments in zip(rows_by_frame, assignments):
        assert rows.track_ids.tolist() == [a.track_id for a in frame_assignments]
        assert (rows.track_ids >= 0).all()


def test_process_stream_rejects_bad_stability(small_stream):
    with pytest.raises(ValueError, match="num_stability"):
        process_stream(small_stream, small_stream.num_blocks)


def test_feature_csv_round_trip(small_stream, tmp_path):
    rows_by_frame, assignments = process_stream(
        small_stream, 2, params=TrackingParams()
    )
    path = tmp_path / "features.csv"
    write_feature_csv(rows_by_frame, path, small_stream.num_classes, 2)
    back = read_feature_csv(path, small_stream.num_classes, 2)
    assert len(back) == len(rows_by_frame)
    for a, b in zip(rows_by_frame, back):
        assert (a.frame_index, a.num_stability) == (b.frame_index, b.num_stability)
        assert np.array_equal(a.components, b.components)
        assert np.array_equal(a.classes, b.classes)
        assert np.array_equal(a.track_ids, b.track_ids)
        assert np.array_equal(a.iou, b.iou)
        assert np.array_equal(a.features, b.features)


def test_read_feature_csv_rejects_a_non_finite_feature(small_stream, tmp_path):
    rows_by_frame, _ = process_stream(small_stream, 2, params=TrackingParams())
    path = tmp_path / "features.csv"
    write_feature_csv(rows_by_frame, path, small_stream.num_classes, 2)
    lines = path.read_text().splitlines()
    columns = lines[0].split(",")
    fields = lines[3].split(",")
    fields[columns.index("iou_adj")] = "nan"  # no ground truth: still legal
    lines[3] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    back = read_feature_csv(path, small_stream.num_classes, 2)
    assert np.isnan(back[0].iou[2])
    fields[columns.index("entropy_mean")] = "-inf"
    lines[3] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as err:
        read_feature_csv(path, small_stream.num_classes, 2)
    assert str(err.value) == f"{path}, line 4: entropy_mean is -inf, not a finite number"


def test_tracking_csv_round_trip_and_apply(small_stream, tmp_path):
    rows_by_frame, assignments = process_stream(
        small_stream, 0, params=TrackingParams()
    )
    path = tmp_path / "tracking.csv"
    write_tracking_csv(assignments, path)
    table = read_tracking_csv(path)
    fresh_rows, _ = process_stream(small_stream, 0, params=None)
    apply_tracking(fresh_rows, table)
    for orig_rows, fresh in zip(rows_by_frame, fresh_rows):
        assert np.array_equal(orig_rows.track_ids, fresh.track_ids)


def test_assemble_dataset_feature_length_contract(small_stream):
    rows_by_frame, _ = process_stream(small_stream, 3, params=TrackingParams())
    for history in (0, 2):
        table = assemble_dataset(rows_by_frame, history, small_stream.num_classes, 3)
        expected_dim = 22 + small_stream.num_classes + 5 * 3
        assert table.features.shape[1:] == (history + 1, expected_dim)
        assert table.flat_features(3).shape[1] == (history + 1) * expected_dim
        # every record corresponds to a segment with non-empty interior
        assert len(table) > 0
        assert (table.mask[:, 0] == 1.0).all()


def test_rerun_produces_identical_artifacts(small_stream, tmp_path):
    for tag in ("x", "y"):
        rows_by_frame, assignments = process_stream(
            small_stream, 2, params=TrackingParams()
        )
        write_feature_csv(
            rows_by_frame, tmp_path / f"f_{tag}.csv", small_stream.num_classes, 2
        )
        write_tracking_csv(assignments, tmp_path / f"t_{tag}.csv")
        table = assemble_dataset(rows_by_frame, 2, small_stream.num_classes, 2)
        write_dataset(table, tmp_path / f"d_{tag}.csv", tmp_path / f"d_{tag}.json")
    for name in ("f", "t", "d"):
        assert (tmp_path / f"{name}_x.csv").read_bytes() == (
            tmp_path / f"{name}_y.csv"
        ).read_bytes()
    assert (tmp_path / "d_x.json").read_bytes() == (tmp_path / "d_y.json").read_bytes()

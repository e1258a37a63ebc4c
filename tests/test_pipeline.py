import numpy as np
import pytest

from segquality.dataset import build_time_series, write_dataset
from segquality.pipeline import (
    apply_tracking,
    extract_frame,
    process_stream,
    read_feature_csv,
    read_tracking_csv,
    stream_segments,
    write_feature_csv,
    write_tracking_csv,
)
from segquality.synth import SynthConfig, generate_stream
from segquality.tracking import TrackingParams, track_stream


def tracked_stream(manifest, num_stability):
    """The stream's feature rows with the track ids of the track stage's
    default tracker, and that tracker's per-frame tracks."""
    rows_by_frame = process_stream(manifest, num_stability)
    shape = (manifest.height, manifest.width)
    tracks = track_stream(stream_segments(manifest), TrackingParams(), shape)
    for rows, frame in zip(rows_by_frame, tracks, strict=True):
        rows.track_ids[:] = frame.track_ids
    return rows_by_frame, tracks


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


def test_process_stream_rows_take_the_track_stage_ids(small_stream, tmp_path):
    rows_by_frame = process_stream(small_stream, 1)
    assert len(rows_by_frame) == small_stream.num_frames
    assert all((rows.track_ids == -1).all() for rows in rows_by_frame)
    shape = (small_stream.height, small_stream.width)
    tracks = track_stream(stream_segments(small_stream), TrackingParams(), shape)
    assert len(tracks) == small_stream.num_frames
    path = tmp_path / "tracking.csv"
    write_tracking_csv(tracks, path)
    apply_tracking(rows_by_frame, read_tracking_csv(path))
    for rows, frame in zip(rows_by_frame, tracks):
        assert rows.track_ids.tolist() == [a.track_id for a in frame]
        assert (rows.track_ids >= 0).all()


def test_process_stream_rejects_bad_stability(small_stream):
    with pytest.raises(ValueError, match="num_stability"):
        process_stream(small_stream, small_stream.num_blocks)


def test_feature_csv_round_trip(small_stream, tmp_path):
    rows_by_frame, _ = tracked_stream(small_stream, 2)
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
    rows_by_frame, _ = tracked_stream(small_stream, 2)
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
    rows_by_frame, tracks = tracked_stream(small_stream, 0)
    path = tmp_path / "tracking.csv"
    write_tracking_csv(tracks, path)
    table = read_tracking_csv(path)
    assert np.array_equal(table, np.concatenate([t.table() for t in tracks]))
    fresh_rows = process_stream(small_stream, 0)
    apply_tracking(fresh_rows, table)
    for orig_rows, fresh in zip(rows_by_frame, fresh_rows):
        assert np.array_equal(orig_rows.track_ids, fresh.track_ids)


def test_assemble_dataset_feature_length_contract(small_stream):
    rows_by_frame, _ = tracked_stream(small_stream, 3)
    for history in (0, 2):
        table = build_time_series(rows_by_frame, history, small_stream.num_classes, 3)
        expected_dim = 22 + small_stream.num_classes + 5 * 3
        assert table.features.shape[1:] == (history + 1, expected_dim)
        assert table.flat_features(3).shape[1] == (history + 1) * expected_dim
        # every record corresponds to a segment with non-empty interior
        assert len(table) > 0
        assert (table.mask[:, 0] == 1.0).all()


def test_rerun_produces_identical_artifacts(small_stream, tmp_path):
    for tag in ("x", "y"):
        rows_by_frame, tracks = tracked_stream(small_stream, 2)
        write_feature_csv(
            rows_by_frame, tmp_path / f"f_{tag}.csv", small_stream.num_classes, 2
        )
        write_tracking_csv(tracks, tmp_path / f"t_{tag}.csv")
        table = build_time_series(rows_by_frame, 2, small_stream.num_classes, 2)
        write_dataset(table, tmp_path / f"d_{tag}.csv", tmp_path / f"d_{tag}.json")
    for name in ("f", "t", "d"):
        assert (tmp_path / f"{name}_x.csv").read_bytes() == (
            tmp_path / f"{name}_y.csv"
        ).read_bytes()
    assert (tmp_path / "d_x.json").read_bytes() == (tmp_path / "d_y.json").read_bytes()

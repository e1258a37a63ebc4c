import numpy as np
import oracles
import pytest

from segquality.dataset import (
    SplitSpec,
    build_time_series,
    read_dataset,
    split_indices,
    standardize,
    write_dataset,
)
from segquality.evaluation import _prepare_split
from segquality.meta_models import ModelSpec
from segquality.seg_metrics import FeatureRows, feature_count


def _row(frame, component, track, iou, size=20, size_in=4, fill=None):
    """One feature row: its sizes, then `fill` (default: the frame) in every
    other feature column."""
    return frame, component, track, iou, size, size_in, fill


def _stream(rows, num_classes=3, num_stability=2):
    """FeatureRows for frames 0, 1, ... up to the last frame of `rows`."""
    dim = feature_count(num_classes, num_stability)
    last = max((row[0] for row in rows), default=-1)
    frames = []
    for frame in range(last + 1):
        mine = [row for row in rows if row[0] == frame]
        features = np.zeros((len(mine), dim))
        for i, (_, _, _, _, size, size_in, fill) in enumerate(mine):
            features[i] = float(frame) if fill is None else fill
            features[i, :2] = size, size_in
        frames.append(
            FeatureRows(
                frame_index=frame,
                num_stability=num_stability,
                components=np.array([row[1] for row in mine], dtype=np.int64),
                classes=np.ones(len(mine), dtype=np.int64),
                track_ids=np.array([row[2] for row in mine], dtype=np.int64),
                iou=np.array([row[3] for row in mine], dtype=np.float64),
                features=features,
            )
        )
    return frames


def test_history_zero_contains_only_current():
    rows = _stream([_row(0, 0, 0, 0.5)])
    table = build_time_series(rows, history=0, num_classes=3, num_stability=2)
    assert table.features.shape == (1, 1, feature_count(3, 2))
    assert table.mask.tolist() == [[1.0]]
    assert table.iou.tolist() == [0.5]
    assert table.labels.tolist() == [0]


def test_history_mask_for_young_track():
    rows = _stream([_row(t, 0, 7, 0.8) for t in range(3)])
    table = build_time_series(rows, history=5, num_classes=3, num_stability=2)
    # the record at frame 2 has two frames of history available
    record = np.flatnonzero(table.frames == 2)[0]
    assert table.mask[record].tolist() == [1.0, 1.0, 1.0, 0.0, 0.0, 0.0]
    # absent slots stay zero-filled
    assert np.all(table.features[record, 3:] == 0.0)
    # present slots carry the right frames' features (fill value = frame index)
    assert table.features[record, 0, 2] == 2.0
    assert table.features[record, 1, 2] == 1.0
    assert table.features[record, 2, 2] == 0.0


def test_constant_video_history_equals_current():
    rows = _stream([_row(t, 0, 3, 1.0, fill=42.0) for t in range(6)])
    table = build_time_series(rows, history=4, num_classes=3, num_stability=2)
    record = np.flatnonzero(table.frames == 5)[0]
    assert table.mask[record].tolist() == [1.0] * 5
    for slot in range(5):
        assert np.all(table.features[record, slot, 2:] == 42.0)


def test_records_only_for_nonempty_interior():
    no_interior = _row(0, 1, 1, 0.2, size_in=0)
    rows = _stream([_row(0, 0, 0, 0.9), no_interior])
    table = build_time_series(rows, history=0, num_classes=3, num_stability=2)
    assert len(table) == 1
    assert table.components.tolist() == [0]


def test_empty_interior_rows_still_serve_as_history():
    past = _row(0, 0, 5, 0.9, size_in=0, fill=7.0)
    rows = _stream([past, _row(1, 0, 5, 0.9, fill=8.0)])
    table = build_time_series(rows, history=1, num_classes=3, num_stability=2)
    assert len(table) == 1
    assert table.mask[0].tolist() == [1.0, 1.0]
    assert np.all(table.features[0, 1, 2:] == 7.0)


def test_shared_track_id_uses_largest_component_for_history():
    a = _row(0, 0, 5, 0.9, fill=1.0, size=10)
    b = _row(0, 1, 5, 0.9, fill=2.0, size=50)
    rows = _stream([a, b, _row(1, 0, 5, 0.9, fill=3.0)])
    table = build_time_series(rows, history=1, num_classes=3, num_stability=2)
    record = np.flatnonzero(table.frames == 1)[0]
    assert np.all(table.features[record, 1, 2:] == 2.0)


def _random_stream(rng, frames=40, num_classes=3, num_stability=2):
    """Frames of 0-6 rows with shuffled components, track ids in [-1, 5),
    sizes in [1, 4) and interiors in [0, 3), so that same-frame rows share
    track ids with tied sizes, tracks skip frames, predecessors lack an
    interior, rows are untracked, and frames have no rows."""
    dim = feature_count(num_classes, num_stability)
    stream = []
    for frame in range(frames):
        n = int(rng.integers(0, 7))
        features = rng.random((n, dim))
        features[:, 0] = rng.integers(1, 4, n)
        features[:, 1] = rng.integers(0, 3, n)
        stream.append(
            FeatureRows(
                frame_index=frame,
                num_stability=num_stability,
                components=rng.permutation(n).astype(np.int64),
                classes=rng.integers(0, num_classes, n),
                track_ids=rng.integers(-1, 5, n),
                iou=rng.random(n),
                features=features,
            )
        )
    return stream


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("history", [0, 1, 3])
def test_time_series_join_matches_dict_oracle(seed, history):
    stream = _random_stream(np.random.default_rng(seed))
    rows = []
    for r in stream:
        for i in range(len(r)):
            size, size_in = r.features[i, :2].astype(int).tolist()
            rows.append(
                (r.frame_index, int(r.components[i]), int(r.track_ids[i]), size,
                 size_in, float(r.iou[i]), r.features[i, : feature_count(3, 1)])
            )
    # the cases the representative rule and the slot search must handle
    tracked = [row for row in rows if row[2] >= 0]
    groups = {}
    for row in tracked:
        groups.setdefault(row[:1] + row[2:3], []).append(row[3])
    assert any(sizes.count(max(sizes)) > 1 for sizes in groups.values())
    assert any(row[2] < 0 for row in rows)
    assert any(row[4] == 0 for row in tracked)
    assert any(len(r) == 0 for r in stream)

    table = build_time_series(stream, history, num_classes=3, num_stability=1)
    expected = oracles.build_time_series(rows, history)
    assert len(table) == len(expected) > 0
    assert table.frames.tolist() == [rec[0] for rec in expected]
    assert table.components.tolist() == [rec[1] for rec in expected]
    assert table.track_ids.tolist() == [rec[2] for rec in expected]
    assert table.iou.tolist() == [rec[3] for rec in expected]
    assert np.array_equal(table.features, np.stack([rec[4] for rec in expected]))
    assert np.array_equal(table.mask, np.stack([rec[5] for rec in expected]))
    if history:
        assert table.mask[:, 1:].any() and not table.mask[:, 1:].all()


def test_track_ids_too_large_for_the_join_keys_are_refused():
    # (track, frame) keys are track * span + frame in int64; a wrapped key
    # could match the wrong track
    rows = _stream([_row(0, 0, 2**62, 0.5), _row(3, 0, 2**62, 0.5)])
    with pytest.raises(ValueError, match="too large for int64 join keys"):
        build_time_series(rows, history=1, num_classes=3, num_stability=2)


def test_any_negative_track_id_is_untracked():
    # a key from a very negative track id must not wrap onto a tracked one
    # (span 4 here, and -2**62 * 4 wraps to 0, the key of track 0)
    rows = _stream([_row(1, 0, 0, 0.5), _row(2, 0, -(2**62), 0.5), _row(2, 1, -5, 0.5)])
    table = build_time_series(rows, history=1, num_classes=3, num_stability=2)
    assert table.mask.tolist() == [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]


def test_build_time_series_rejects_more_stability_maps_than_the_rows_carry():
    with pytest.raises(ValueError, match=r"num_stability must be in \[0, 2\], got 3"):
        build_time_series(_stream([_row(0, 0, 0, 0.5)]), 0, 3, 3)


def test_history_range_validation():
    with pytest.raises(ValueError, match="history"):
        build_time_series([], history=11, num_classes=3, num_stability=0)


def test_binary_label_is_iou_zero_indicator():
    rows = _stream([_row(0, 0, 0, 0.0), _row(0, 1, 1, 0.25)])
    table = build_time_series(rows, history=0, num_classes=3, num_stability=2)
    assert table.labels.tolist() == [1, 0]


def test_flat_inputs_layout_and_masks():
    rows = _stream([_row(t, 0, 3, 0.5 * (t % 2)) for t in range(8)])
    table = build_time_series(rows, history=2, num_classes=3, num_stability=2)
    spec = SplitSpec()
    parts_idx = split_indices(len(table), spec, 0)
    assert [len(idx) for idx in parts_idx] == [6, 1, 1]
    flat_spec = ModelSpec("linear", "regression")
    dim = feature_count(3, 2)
    flat = table.features.reshape(len(table), -1)
    parts, (mean, std) = _prepare_split(table, flat_spec, 2, spec, 0)
    scaled = standardize(*(flat[idx] for idx in parts_idx))
    assert np.array_equal(mean, scaled[3]) and np.array_equal(std, scaled[4])
    for (x, y), z, idx in zip(parts, scaled, parts_idx):
        # standardized slots, then the mask columns appended
        assert x.shape == (len(idx), 3 * dim + 3)
        assert np.array_equal(x[:, : 3 * dim], z)
        assert np.array_equal(x[:, 3 * dim :], table.mask[idx])
        assert np.array_equal(y, table.iou[idx])

    # m = 0 keeps the prefix of every slot
    small_dim = feature_count(3, 0)
    small, _ = _prepare_split(table, flat_spec, 0, spec, 0)
    prefix = np.concatenate(
        [np.arange(s * dim, s * dim + small_dim) for s in range(3)]
        + [np.arange(3 * dim, 3 * dim + 3)]
    )
    for (x_small, _), (x, _) in zip(small, parts):
        assert np.array_equal(x_small, x[:, prefix])

    # sequences run oldest first, with the mask reversed alike
    seq_parts, _ = _prepare_split(
        table, ModelSpec("shallow_lstm", "classification"), 2, spec, 0
    )
    for (seq, mask, y), (x, _), idx in zip(seq_parts, parts, parts_idx):
        assert seq.shape == (len(idx), 3, dim)
        slots = x[:, : 3 * dim].reshape(len(idx), 3, dim)
        assert np.array_equal(seq, slots[:, [2, 1, 0]])
        assert np.array_equal(mask, table.mask[idx][:, [2, 1, 0]])
        assert np.array_equal(y, table.labels[idx])
        # the frame-0 record has no history: only its newest (last) slot is set
        for i in np.flatnonzero(table.frames[idx] == 0):
            assert mask[i].tolist() == [0.0, 0.0, 1.0]

    for bad_m in (-1, 3):
        with pytest.raises(ValueError, match="outside"):
            _prepare_split(table, flat_spec, bad_m, spec, 0)


def test_split_sizes_exact_fractions():
    spec = SplitSpec(base_seed=1)
    train, val, test = split_indices(1000, spec, 0)
    assert (len(train), len(val), len(test)) == (700, 100, 200)


def test_split_deterministic_and_partition():
    spec = SplitSpec(sample_size=80, base_seed=5)
    a = split_indices(100, spec, 3)
    b = split_indices(100, spec, 3)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    union = np.concatenate(a)
    assert len(union) == 80
    assert len(set(union.tolist())) == 80


def test_split_runs_differ():
    spec = SplitSpec(base_seed=5)
    a = split_indices(100, spec, 0)
    b = split_indices(100, spec, 1)
    assert not np.array_equal(a[0], b[0])


def test_split_insufficient_records():
    spec = SplitSpec(sample_size=101)
    with pytest.raises(ValueError, match="sample_size"):
        split_indices(100, spec, 0)


def test_split_spec_validation():
    with pytest.raises(ValueError, match="runs"):
        SplitSpec(runs=0)
    for size in (0, -5):
        with pytest.raises(ValueError, match=f"sample_size must be >= 1, got {size}"):
            SplitSpec(sample_size=size)


@pytest.mark.parametrize(
    "n, sample_size, sizes",
    [(100, 4, "3 train, 0 val, 1 test"), (3, None, "2 train, 0 val, 1 test")],
)
def test_split_with_an_empty_part_raises(n, sample_size, sizes):
    spec = SplitSpec(sample_size=sample_size)
    with pytest.raises(ValueError, match=f"leaves a part empty: {sizes}$"):
        split_indices(n, spec, 0)


def test_standardize_hand_values():
    train = np.array([[2.0], [4.0]])
    out_train, mean, std = standardize(train)
    assert out_train.tolist() == [[-1.0], [1.0]]
    assert mean[0] == 3.0
    assert std[0] == 1.0  # population convention


def test_standardize_constant_column_maps_to_zero():
    train = np.array([[5.0, 1.0], [5.0, 3.0]])
    test = np.array([[9.0, 2.0]])
    out_train, out_test, mean, std = standardize(train, test)
    assert out_train[:, 0].tolist() == [0.0, 0.0]
    # even off-mean test values collapse to zero for dead columns
    assert out_test[0, 0] == 0.0
    assert out_test[0, 1] == 0.0  # (2 - 2) / 1


def test_standardize_uses_train_statistics_only():
    rng = np.random.default_rng(0)
    train = rng.normal(10.0, 2.0, size=(200, 1))
    test = rng.normal(0.0, 1.0, size=(100, 1))
    _, out_test, mean, std = standardize(train, test)
    # test distribution is far from the train mean, so transformed mean is ~ -5
    assert out_test.mean() < -4.0
    assert mean[0] == pytest.approx(train.mean())


def test_dataset_csv_round_trip(tmp_path):
    rows = _stream([_row(t, c, t + c, 0.5 * c) for t in range(3) for c in range(2)])
    table = build_time_series(rows, history=2, num_classes=3, num_stability=2)
    csv_path = tmp_path / "data.csv"
    header_path = tmp_path / "data.json"
    write_dataset(table, csv_path, header_path)
    back = read_dataset(csv_path, header_path)
    assert np.array_equal(back.frames, table.frames)
    assert np.array_equal(back.components, table.components)
    assert np.array_equal(back.track_ids, table.track_ids)
    assert np.array_equal(back.mask, table.mask)
    assert np.array_equal(back.features, table.features)
    assert np.array_equal(back.iou, table.iou)
    assert np.array_equal(back.labels, table.labels)


def test_read_dataset_names_a_renamed_column(tmp_path):
    rows = _stream([_row(t, 0, 0, 0.5) for t in range(3)])
    table = build_time_series(rows, history=1, num_classes=3, num_stability=2)
    csv_path = tmp_path / "data.csv"
    header_path = tmp_path / "data.json"
    write_dataset(table, csv_path, header_path)
    text = csv_path.read_text()
    csv_path.write_text(text.replace("iou_adj", "iou", 1))
    with pytest.raises(ValueError, match="column 3 is 'iou', expected 'iou_adj'"):
        read_dataset(csv_path, header_path)


@pytest.mark.parametrize(
    "column, value", [("t0_size", "nan"), ("t1_varratio_mean", "inf"), ("iou_adj", "nan")]
)
def test_read_dataset_rejects_a_non_finite_value(tmp_path, column, value):
    # one NaN feature used to pass silently, and standardizing mapped its whole
    # column to 0
    rows = _stream([_row(t, 0, 0, 0.5) for t in range(3)])
    table = build_time_series(rows, history=1, num_classes=3, num_stability=2)
    csv_path = tmp_path / "data.csv"
    header_path = tmp_path / "data.json"
    write_dataset(table, csv_path, header_path)
    lines = csv_path.read_text().splitlines()
    fields = lines[2].split(",")
    fields[lines[0].split(",").index(column)] = value
    lines[2] = ",".join(fields)
    csv_path.write_text("\n".join(lines) + "\n")
    message = f"{csv_path}, line 3: {column} is {value}, not a finite number"
    with pytest.raises(ValueError) as err:
        read_dataset(csv_path, header_path)
    assert str(err.value) == message

import numpy as np
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
from segquality.seg_metrics import SegmentFeatures, feature_count


def _row(frame, component, track, iou, num_classes=3, num_stability=2, size=20, fill=None):
    dim = feature_count(num_classes, num_stability)
    features = np.full(dim, float(frame) if fill is None else fill)
    return SegmentFeatures(
        frame_index=frame,
        component_index=component,
        class_id=1,
        size=size,
        size_inner=4,
        iou_adj=iou,
        features=features,
        num_classes=num_classes,
        num_stability=num_stability,
        track_id=track,
    )


def test_history_zero_contains_only_current():
    rows = [[_row(0, 0, 0, 0.5)]]
    table = build_time_series(rows, history=0, num_classes=3, num_stability=2)
    assert table.features.shape == (1, 1, feature_count(3, 2))
    assert table.mask.tolist() == [[1.0]]
    assert table.iou.tolist() == [0.5]
    assert table.labels.tolist() == [0]


def test_history_mask_for_young_track():
    rows = [[_row(t, 0, 7, 0.8)] for t in range(3)]
    table = build_time_series(rows, history=5, num_classes=3, num_stability=2)
    # the record at frame 2 has two frames of history available
    record = np.flatnonzero(table.frames == 2)[0]
    assert table.mask[record].tolist() == [1.0, 1.0, 1.0, 0.0, 0.0, 0.0]
    # absent slots stay zero-filled
    assert np.all(table.features[record, 3:] == 0.0)
    # present slots carry the right frames' features (fill value = frame index)
    assert table.features[record, 0, 0] == 2.0
    assert table.features[record, 1, 0] == 1.0
    assert table.features[record, 2, 0] == 0.0


def test_constant_video_history_equals_current():
    rows = [[_row(t, 0, 3, 1.0, fill=42.0)] for t in range(6)]
    table = build_time_series(rows, history=4, num_classes=3, num_stability=2)
    record = np.flatnonzero(table.frames == 5)[0]
    assert table.mask[record].tolist() == [1.0] * 5
    for slot in range(5):
        assert np.all(table.features[record, slot] == 42.0)


def test_records_only_for_nonempty_interior():
    no_interior = _row(0, 1, 1, 0.2)
    no_interior.size_inner = 0
    rows = [[_row(0, 0, 0, 0.9), no_interior]]
    table = build_time_series(rows, history=0, num_classes=3, num_stability=2)
    assert len(table) == 1
    assert table.components.tolist() == [0]


def test_empty_interior_rows_still_serve_as_history():
    past = _row(0, 0, 5, 0.9, fill=7.0)
    past.size_inner = 0
    rows = [[past], [_row(1, 0, 5, 0.9, fill=8.0)]]
    table = build_time_series(rows, history=1, num_classes=3, num_stability=2)
    assert len(table) == 1
    assert table.mask[0].tolist() == [1.0, 1.0]
    assert np.all(table.features[0, 1] == 7.0)


def test_shared_track_id_uses_largest_component_for_history():
    a = _row(0, 0, 5, 0.9, fill=1.0, size=10)
    b = _row(0, 1, 5, 0.9, fill=2.0, size=50)
    rows = [[a, b], [_row(1, 0, 5, 0.9, fill=3.0)]]
    table = build_time_series(rows, history=1, num_classes=3, num_stability=2)
    record = np.flatnonzero(table.frames == 1)[0]
    assert np.all(table.features[record, 1] == 2.0)


def test_history_range_validation():
    with pytest.raises(ValueError, match="history"):
        build_time_series([], history=11, num_classes=3, num_stability=0)


def test_binary_label_is_iou_zero_indicator():
    rows = [[_row(0, 0, 0, 0.0), _row(0, 1, 1, 0.25)]]
    table = build_time_series(rows, history=0, num_classes=3, num_stability=2)
    assert table.labels.tolist() == [1, 0]


def test_flat_inputs_layout_and_masks():
    rows = [[_row(t, 0, 3, 0.5 * (t % 2))] for t in range(8)]
    table = build_time_series(rows, history=2, num_classes=3, num_stability=2)
    spec = SplitSpec(fractions=(0.5, 0.25, 0.25))
    parts_idx = split_indices(len(table), spec, 0)
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
    with pytest.raises(ValueError, match="sum to 1"):
        SplitSpec(fractions=(0.5, 0.2, 0.2))
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
    rows = [[_row(t, c, t + c, 0.5 * c) for c in range(2)] for t in range(3)]
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
    rows = [[_row(t, 0, 0, 0.5)] for t in range(3)]
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
    rows = [[_row(t, 0, 0, 0.5)] for t in range(3)]
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

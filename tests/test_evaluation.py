import numpy as np
import pytest

import oracles
from segquality.dataset import SplitSpec, build_time_series
from segquality.evaluation import (
    accuracy,
    auroc,
    naive_baseline_accuracy,
    r_squared,
    regression_sigma,
    run_experiment,
    run_time_series_experiment,
)
from segquality.seg_metrics import ENTROPY_MEAN_INDEX, FeatureRows, feature_count


def test_accuracy_examples():
    assert accuracy([1, 0, 1], [0.9, 0.1, 0.8]) == 1.0
    assert accuracy([1, 0], [0.1, 0.9]) == 0.0
    assert accuracy([1, 0, 1, 0], [0.9, 0.2, 0.4, 0.6]) == 0.5


def test_accuracy_empty_raises():
    with pytest.raises(ValueError, match="non-empty"):
        accuracy([], [])


def test_auroc_examples():
    assert auroc([1, 1, 0, 0], [0.9, 0.8, 0.2, 0.1]) == 1.0
    assert auroc([1, 0, 1, 0], [0.5, 0.5, 0.5, 0.5]) == 0.5
    assert auroc([1, 0, 1, 0], [0.9, 0.8, 0.3, 0.1]) == pytest.approx(0.75)


def test_auroc_single_class_raises():
    with pytest.raises(ValueError, match="positive"):
        auroc([1, 1], [0.3, 0.4])


def test_auroc_equals_threshold_sweep_with_ties():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(5, 60))
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        # quantized scores guarantee plenty of ties
        scores = np.round(rng.random(n), 1)
        ours = auroc(labels, scores)
        sweep = oracles.auroc_threshold_sweep(labels, scores)
        assert ours == pytest.approx(sweep, abs=1e-9)


def test_auroc_invariant_under_monotone_transform():
    rng = np.random.default_rng(1)
    labels = rng.integers(0, 2, 50)
    labels[0], labels[1] = 0, 1
    scores = rng.random(50)
    base = auroc(labels, scores)
    assert auroc(labels, 3.0 * scores + 2.0) == pytest.approx(base, abs=1e-12)
    assert auroc(labels, np.exp(scores)) == pytest.approx(base, abs=1e-12)


def test_roc_points_area_equals_auroc():
    rng = np.random.default_rng(4)
    for _ in range(30):
        n = int(rng.integers(5, 40))
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = np.round(rng.random(n), 1)
        points = oracles.roc_points(labels, scores)
        assert points[0][:2] == (0.0, 0.0)
        assert points[-1][:2] == (1.0, 1.0)
        fprs = [p[0] for p in points]
        tprs = [p[1] for p in points]
        assert fprs == sorted(fprs)
        area = sum(
            (x1 - x0) * (y0 + y1) / 2.0
            for (x0, y0), (x1, y1) in zip(zip(fprs, tprs), zip(fprs[1:], tprs[1:]))
        )
        assert area == pytest.approx(auroc(labels, scores), abs=1e-12)


def test_r_squared_examples():
    targets = np.array([0.0, 0.5, 1.0])
    assert r_squared(targets, targets) == 1.0
    assert r_squared(targets, np.full(3, targets.mean())) == 0.0
    assert r_squared(targets, [0.1, 0.5, 0.9]) == pytest.approx(0.96)


def test_r_squared_zero_variance_raises():
    with pytest.raises(ValueError, match="variance"):
        r_squared([0.3, 0.3], [0.2, 0.4])


def test_r_squared_of_train_mean_is_zero():
    rng = np.random.default_rng(2)
    targets = rng.random(100)
    assert r_squared(targets, np.full(100, targets.mean())) == pytest.approx(0.0)


def test_regression_sigma_examples():
    assert regression_sigma([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert regression_sigma([0.5, 0.5], [0.6, 0.4]) == pytest.approx(0.1)
    assert regression_sigma([0.0, 1.0], [0.25, 1.25]) == pytest.approx(0.25)


def test_naive_baseline_reference_counts():
    weak = naive_baseline_accuracy(110739, 7649)
    strong = naive_baseline_accuracy(113286, 5622)
    assert abs(weak * 100 - 93.09) < 0.01
    assert abs(strong * 100 - 95.04) < 0.01
    assert naive_baseline_accuracy(100, 50) == 0.5


def test_naive_baseline_validation():
    with pytest.raises(ValueError):
        naive_baseline_accuracy(0, 0)
    with pytest.raises(ValueError):
        naive_baseline_accuracy(10, 11)


def test_accuracy_at_constant_score_equals_naive_baseline():
    rng = np.random.default_rng(3)
    labels = (rng.random(500) < 0.1).astype(int)
    n_zero = int(labels.sum())
    naive = naive_baseline_accuracy(500, n_zero)
    # predicting the majority class with a constant score achieves the bound
    constant = 1.0 if n_zero > 250 else 0.0
    assert accuracy(labels, np.full(500, constant)) == pytest.approx(naive)


def _frame_rows(frame, features, iou, track_ids):
    """A frame's FeatureRows at m = 0, components 0, 1, ... of class 1."""
    n = len(iou)
    return FeatureRows(
        frame_index=frame,
        num_stability=0,
        components=np.arange(n),
        classes=np.ones(n, dtype=np.int64),
        track_ids=np.asarray(track_ids, dtype=np.int64),
        iou=np.asarray(iou, dtype=np.float64),
        features=np.asarray(features, dtype=np.float64),
    )


def _synthetic_table(entropy_signal, n=400, seed=0, num_classes=3):
    """Single-frame records whose entropy column optionally predicts failure."""
    rng = np.random.default_rng(seed)
    rows = []
    dim = feature_count(num_classes, 0)
    for i in range(n):
        bad = rng.random() < 0.3
        features = rng.random(dim)
        if entropy_signal:
            features[ENTROPY_MEAN_INDEX] = (0.8 if bad else 0.2) + 0.1 * rng.random()
        features[1] = 5.0  # size_in: every segment has an interior
        iou = 0.0 if bad else 0.3 + 0.7 * rng.random()
        rows.append(_frame_rows(i, [features], [iou], [i]))
    return build_time_series(rows, 0, num_classes, 0)


def _entropy_cells(table, spec, tasks=("classification", "regression")):
    """The entropy baseline cells of a report with no grid cells."""
    report = run_experiment(table, (), tasks, (), spec)
    return [c for c in report.baselines if c.family == "entropy_gb"]


def test_entropy_baseline_separable_fixture():
    table = _synthetic_table(entropy_signal=True)
    spec = SplitSpec(runs=3, base_seed=7)
    cells = _entropy_cells(table, spec)
    cls = next(c for c in cells if c.task == "classification")
    mean_auroc, std_auroc = cls.metrics["auroc"]
    assert mean_auroc > 0.99
    assert std_auroc >= 0.0
    reg = next(c for c in cells if c.task == "regression")
    assert "sigma" in reg.metrics and "r2" in reg.metrics


def test_entropy_baseline_uninformative_feature_is_chance_level():
    aurocs = []
    for seed in range(10):
        table = _synthetic_table(entropy_signal=False, seed=seed)
        spec = SplitSpec(runs=1, base_seed=seed)
        cells = _entropy_cells(table, spec, tasks=("classification",))
        aurocs.append(cells[0].metrics["auroc"][0])
    assert abs(float(np.mean(aurocs)) - 0.5) < 0.05


def test_run_experiment_report_shape_and_determinism():
    table = _synthetic_table(entropy_signal=True, n=300)
    spec = SplitSpec(runs=2, base_seed=3)
    report = run_experiment(
        table,
        families=("linear", "gradient_boosting"),
        tasks=("classification", "regression"),
        m_values=(0,),
        split_spec=spec,
    )
    assert len(report.cells) == 4
    for cell in report.cells:
        expected = (
            {"acc", "auroc"} if cell.task == "classification" else {"sigma", "r2"}
        )
        assert set(cell.metrics) == expected
        for mean, std in cell.metrics.values():
            assert std >= 0.0
        for values in cell.per_run.values():
            assert len(values) == 2
    # baselines: naive + entropy (both tasks)
    families = [c.family for c in report.baselines]
    assert families.count("naive") == 1
    assert families.count("entropy_gb") == 2
    assert report.best["gradient_boosting/classification/auroc"]["m"] == 0
    rerun = run_experiment(
        table,
        families=("linear", "gradient_boosting"),
        tasks=("classification", "regression"),
        m_values=(0,),
        split_spec=spec,
    )
    assert rerun.to_dict() == report.to_dict()


def test_run_time_series_experiment_merges_history_sweep():
    rng = np.random.default_rng(5)
    rows_by_frame = []
    dim = feature_count(3, 0)
    for frame in range(40):
        features, iou = np.zeros((4, dim)), []
        for comp in range(4):
            bad = rng.random() < 0.3
            features[comp] = rng.random(dim)
            features[comp, ENTROPY_MEAN_INDEX] = (0.8 if bad else 0.2) + 0.1 * rng.random()
            features[comp, 1] = 5.0  # size_in: every segment has an interior
            iou.append(0.0 if bad else 0.4 + 0.6 * rng.random())
        # four persistent tracks
        rows_by_frame.append(_frame_rows(frame, features, iou, range(4)))
    report = run_time_series_experiment(
        rows_by_frame,
        num_classes=3,
        num_stability=0,
        t_values=(0, 2),
        families=("linear",),
        tasks=("classification",),
        split_spec=SplitSpec(runs=2, base_seed=1),
    )
    histories = sorted({c.history for c in report.cells})
    assert histories == [0, 2]
    assert all(c.num_stability == 0 for c in report.cells)
    # baselines attach to the T=0 table only
    assert all(b.history == 0 for b in report.baselines)
    key = "linear/classification/auroc"
    assert report.best[key]["T"] in (0, 2)


def test_run_experiment_rejects_bad_m():
    table = _synthetic_table(entropy_signal=True, n=50)
    with pytest.raises(ValueError, match="m=3"):
        run_experiment(
            table,
            families=("linear",),
            tasks=("classification",),
            m_values=(3,),
            split_spec=SplitSpec(runs=1),
        )


def test_report_serialization(tmp_path):
    table = _synthetic_table(entropy_signal=True, n=200)
    report = run_experiment(
        table,
        families=("linear",),
        tasks=("classification",),
        m_values=(0,),
        split_spec=SplitSpec(runs=2),
    )
    report.save_json(tmp_path / "report.json")
    report.save_csv(tmp_path / "report.csv")
    import csv as csv_mod
    import json

    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["format"] == "segquality-report/1"
    assert len(doc["cells"]) == 1
    with open(tmp_path / "report.csv", newline="") as fh:
        rows = list(csv_mod.reader(fh))
    assert rows[0][:4] == ["family", "task", "m", "T"]
    assert len(rows) == 1 + 1 + len(report.baselines)


def test_run_experiment_in_two_workers_equals_serial():
    table = _synthetic_table(entropy_signal=True, n=200)
    kwargs = dict(
        families=("linear", "gradient_boosting"),
        tasks=("classification", "regression"),
        m_values=(0,),
        split_spec=SplitSpec(runs=2, base_seed=4),
    )
    serial = run_experiment(table, workers=1, **kwargs)
    pooled = run_experiment(table, workers=2, **kwargs)
    assert len(pooled.baselines) == 3  # naive and both entropy_gb cells
    assert pooled.to_dict() == serial.to_dict()

"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the end-to-end criterion builds the default synthetic stream once and
is the only slow test here.
"""

import time

import numpy as np
import pytest

import oracles
from segquality import heatmaps
from segquality.dataset import SplitSpec, build_time_series
from segquality.evaluation import auroc, naive_baseline_accuracy, run_experiment
from segquality.meta_models.neural import _FeedForwardCore, _RecurrentCore
from segquality.pipeline import process_stream, stream_segments
from segquality.seg_metrics import (
    BASE_FEATURE_COUNT,
    ENTROPY_MEAN_INDEX,
    feature_count,
    feature_names,
    frame_adjusted_iou,
    frame_features,
)
from segquality.segmentation import connected_components
from segquality.synth import SynthConfig, generate_stream
from segquality.tracking import TrackingParams, _make_group, _overlap, track_stream
from test_meta_models import finite_difference_check
from test_pipeline import tracked_stream


def _means(report):
    """{(family, task, m, T): {metric: mean}} over grid and baseline cells."""
    return {
        (cell.family, cell.task, cell.num_stability, cell.history): {
            name: mean for name, (mean, _) in cell.metrics.items()
        }
        for cell in report.cells + report.baselines
    }


@pytest.fixture(scope="module")
def default_stream(tmp_path_factory):
    """The default synthetic stream: seed 42, p_err = 0.15, >= 2000 segments."""
    out = tmp_path_factory.mktemp("default_stream")
    manifest = generate_stream(SynthConfig(), out)
    rows_by_frame, tracks = tracked_stream(manifest, 9)
    return manifest, rows_by_frame, tracks


def _passed(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS - {detail}")


def test_criterion_1_naive_baseline_reference_counts():
    weak = naive_baseline_accuracy(110739, 7649) * 100
    strong = naive_baseline_accuracy(113286, 5622) * 100
    assert abs(weak - 93.09) < 0.01
    assert abs(strong - 95.04) < 0.01
    _passed(1, f"naive accuracy {weak:.4f}% / {strong:.4f}%")


def test_criterion_2_formula_oracles_on_random_frames():
    start = time.time()
    rng = np.random.default_rng(20)
    shift_rng = np.random.default_rng(21)
    checked = {"disp": 0, "agg": 0, "probs": 0, "center": 0, "overlap": 0, "iou": 0}
    for frame in range(100):
        c = int(rng.integers(2, 7))
        probs = oracles.random_softmax(rng, 32, 32, c)
        ent, var, mar = heatmaps.dispersion_heatmaps(probs)
        ent_o, var_o, mar_o = oracles.dispersion_frames(probs)
        assert np.abs(ent - ent_o).max() < 1e-9
        assert np.abs(var - var_o).max() < 1e-9
        assert np.abs(mar - mar_o).max() < 1e-9
        checked["disp"] += 1

        labels = heatmaps.predicted_labels(probs)
        segments = connected_components(labels)
        rows = frame_features(segments, np.stack([ent, var, mar]), probs)
        gt = np.asarray(rng.integers(0, c, size=(32, 32)))
        ious = frame_adjusted_iou(segments, gt)
        heatmap = ent
        # a handful of segments per frame keeps the slow oracles affordable
        for i in range(0, len(segments), max(1, len(segments) // 5)):
            segment_pixels, segment_inner = oracles.segment_pixels(segments, i)
            pixels = set(map(tuple, segment_pixels.tolist()))
            inner = set(map(tuple, segment_pixels[segment_inner].tolist()))
            expected = oracles.aggregate(pixels, inner, heatmap)
            aggregates = rows[i, ENTROPY_MEAN_INDEX : ENTROPY_MEAN_INDEX + 5]
            assert np.allclose(aggregates, expected, atol=1e-9)
            checked["agg"] += 1
            expected_probs = oracles.class_prob_means(pixels, probs)
            class_probs = rows[i, BASE_FEATURE_COUNT : BASE_FEATURE_COUNT + c]
            assert np.allclose(class_probs, expected_probs, atol=1e-9)
            checked["probs"] += 1
            expected_center = oracles.center(pixels)
            actual_center = segments.centers[i]
            assert abs(actual_center[0] - expected_center[0]) < 1e-9
            assert abs(actual_center[1] - expected_center[1]) < 1e-9
            checked["center"] += 1
            expected_iou = oracles.adjusted_iou(pixels, int(segments.classes[i]), gt)
            assert abs(ious[i] - expected_iou) < 1e-9
            checked["iou"] += 1
        # overlap of segment 0 with a ground-truth component moved by a
        # random shift, read from the ground truth's component map; the
        # component is the one the shift brings onto a pixel of segment 0
        # (clipped into the frame, so the source may lie outside)
        dy, dx = (int(v) for v in shift_rng.integers(-6, 7, size=2))
        gt_segments = connected_components(gt)
        j_pixels, _ = oracles.segment_pixels(segments, 0)
        source = np.clip(j_pixels[0] - (dy, dx), 0, 31)
        k = int(gt_segments.comp_map[source[0], source[1]])
        j_set = set(map(tuple, j_pixels.tolist()))
        k_pixels, _ = oracles.segment_pixels(gt_segments, k)
        k_set = {(r + dy, col + dx) for r, col in k_pixels.tolist()}
        expected = oracles.overlap_ratio(j_set, k_set)
        flat = np.flatnonzero(segments.comp_map.ravel() == 0)
        group = _make_group(0, int(segments.classes[0]), flat, 32)
        actual = _overlap(gt_segments.comp_map, group, k, dy, dx)
        assert abs(actual - expected) < 1e-9
        checked["overlap"] += 1
    elapsed = time.time() - start
    assert elapsed < 30.0
    assert min(checked.values()) >= 100
    _passed(2, f"{sum(checked.values())} oracle comparisons in {elapsed:.1f}s")


def test_criterion_3_normalization_and_range_suite():
    rng = np.random.default_rng(30)
    segment_pairs = 0
    for _ in range(30):
        c = int(rng.integers(2, 7))
        probs = oracles.random_softmax(rng, 24, 24, c, one_hot_fraction=0.15)
        ent, var, mar = heatmaps.dispersion_heatmaps(probs)
        for hm in (ent, var, mar):
            assert hm.min() >= 0.0 and hm.max() <= 1.0
        one_hot = np.isclose(probs.max(axis=2), 1.0, atol=0)
        assert np.all(ent[one_hot] == 0.0)
        assert np.all(var[one_hot] == 0.0)
        assert np.all(mar[one_hot] == 0.0)
        assert np.all(mar >= var - 1e-12)

        labels = heatmaps.predicted_labels(probs)
        gt = np.asarray(rng.integers(0, c, size=(24, 24)))
        segments = connected_components(labels)
        rows = frame_features(segments, np.stack([ent, var, mar]), probs)
        ious = frame_adjusted_iou(segments, gt)
        assert len(rows) == len(ious) == len(segments)
        for i, (row, value) in enumerate(zip(rows, ious)):
            total = row[BASE_FEATURE_COUNT : BASE_FEATURE_COUNT + c].sum()
            assert abs(total - 1.0) <= 1e-5
            assert 0.0 <= value <= 1.0
            segment_pixels, _ = oracles.segment_pixels(segments, i)
            pixels = set(map(tuple, segment_pixels.tolist()))
            plain = oracles.plain_class_iou(pixels, int(segments.classes[i]), gt)
            assert value >= plain - 1e-12
            segment_pairs += 1
        if segment_pairs >= 1000:
            break
    assert segment_pairs >= 1000
    _passed(3, f"ranges verified on {segment_pairs} segment/GT pairs")


def test_criterion_4_tracking_invariants(tmp_path, default_stream):
    # (a) constant 50-frame synthetic video: ids constant over time
    config = SynthConfig(
        height=48,
        width=64,
        num_classes=6,
        num_blocks=2,
        num_frames=50,
        num_objects=4,
        velocity_min=0.0,
        velocity_max=0.0,
        error_rate=0.0,
        jitter=0,
        flash_rate=0.0,
        cell_noise=0.0,
        correct_confidence=(0.9, 0.9),
        seed=4,
    )
    manifest = generate_stream(config, tmp_path / "constant")
    shape = (manifest.height, manifest.width)
    assignments = track_stream(stream_segments(manifest), TrackingParams(), shape)
    first = {a.component_index: a.track_id for a in assignments[0]}
    for frame_assignments in assignments[1:]:
        assert {a.component_index: a.track_id for a in frame_assignments} == first
    assert len(set(first.values())) == len(first)

    # (b) step-2 fixture: shifted-overlap match fires step 2 and inherits the id
    shape = (100, 100)
    f0 = np.zeros(shape, dtype=int)
    f0[48:53, 48:53] = 1
    f1 = np.zeros(shape, dtype=int)
    f1[58:63, 58:63] = 1
    f2 = np.zeros(shape, dtype=int)
    f2[68:73, 68:78] = 1  # overlap with the (10,10)-shifted block is 25/50
    frames = [connected_components(f) for f in (f0, f1, f2)]
    results = track_stream(frames, TrackingParams(), shape)

    def find(frame, cls):
        i = frames[frame].classes.tolist().index(cls)
        return next(a for a in results[frame] if a.component_index == i)

    assert find(2, 1).track_id == find(0, 1).track_id
    assert find(2, 1).matched_step == 2

    # (c) step-4 fixture: one-frame gap bridged by center extrapolation
    shape4 = (60, 40)
    seq = []
    for row in (20, 26):
        f = np.zeros(shape4, dtype=int)
        f[row - 2 : row + 3, 18:23] = 1
        seq.append(f)
    seq.append(np.zeros(shape4, dtype=int))
    f3 = np.zeros(shape4, dtype=int)
    f3[34:39, 18:23] = 1
    seq.append(f3)
    frames4 = [connected_components(f) for f in seq]
    results4 = track_stream(frames4, TrackingParams(), shape4)

    def find4(frame):
        i = frames4[frame].classes.tolist().index(1)
        return next(a for a in results4[frame] if a.component_index == i)

    assert find4(3).track_id == find4(0).track_id
    assert find4(3).matched_step == 4

    # (d) per-frame id uniqueness on every generated stream: ids are unique
    # across tracked entities; only step-1 group members share their root's id
    _, _, default_assignments = default_stream
    for stream_assignments in (assignments, default_assignments):
        for frame_assignments in stream_assignments:
            root_ids = [
                a.track_id for a in frame_assignments if a.matched_step != 1
            ]
            assert len(root_ids) == len(set(root_ids))
            member_ids = {
                a.track_id for a in frame_assignments if a.matched_step == 1
            }
            assert member_ids <= set(root_ids)

    # (e) full determinism across reruns
    manifest_d, _, _ = default_stream
    segs = []
    for i in range(0, manifest_d.num_frames, 10):
        labels = heatmaps.predicted_labels(manifest_d.load_softmax(i))
        segs.append(connected_components(labels))
    run_a = track_stream(segs, TrackingParams(), (manifest_d.height, manifest_d.width))
    run_b = track_stream(segs, TrackingParams(), (manifest_d.height, manifest_d.width))
    flat_a = [
        (a.frame_index, a.component_index, a.track_id, a.matched_step)
        for fa in run_a
        for a in fa
    ]
    flat_b = [
        (a.frame_index, a.component_index, a.track_id, a.matched_step)
        for fa in run_b
        for a in fa
    ]
    assert flat_a == flat_b
    _passed(4, "constant ids, step-2/step-4 fixtures, uniqueness, determinism")


def test_criterion_5_gradient_checks():
    start = time.time()
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        task = "classification" if seed % 2 == 0 else "regression"
        y = (
            rng.integers(0, 2, 5).astype(float)
            if task == "classification"
            else rng.random(5)
        )
        x = rng.standard_normal((5, 12))
        core = _FeedForwardCore(_FeedForwardCore.init_params(12, 50, rng), task)
        worst = max(worst, finite_difference_check(core, (x,), y))

        xs = rng.standard_normal((5, 3, 6))
        mask = np.ones((5, 3))
        mask[0, 0] = 0.0
        lstm = _RecurrentCore(_RecurrentCore.init_params(6, 12, rng), task, 12)
        worst = max(worst, finite_difference_check(lstm, (xs, mask), y))
    elapsed = time.time() - start
    assert worst <= 1e-4
    assert elapsed < 60.0
    _passed(5, f"max relative gradient error {worst:.2e} in {elapsed:.1f}s")


def test_criterion_6_auroc_equivalence():
    rng = np.random.default_rng(60)
    worst = 0.0
    for case in range(1000):
        n = int(rng.integers(4, 80))
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        if case % 3 == 0:
            scores = rng.random(n)  # continuous, ties unlikely
        elif case % 3 == 1:
            scores = np.round(rng.random(n), 1)  # heavy ties
        else:
            scores = rng.integers(0, 4, n).astype(float)  # few levels, many ties
        ours = auroc(labels, scores)
        sweep = oracles.auroc_threshold_sweep(labels, scores)
        worst = max(worst, abs(ours - sweep))
    assert worst < 1e-9
    _passed(6, f"rank vs threshold-sweep agreement within {worst:.2e}")


def test_criterion_7_end_to_end_signal_recovery(default_stream):
    start = time.time()
    manifest, rows_by_frame, _ = default_stream
    table = build_time_series(rows_by_frame, 0, manifest.num_classes, 9)
    assert len(table) >= 2000  # one record per segment with an interior
    split_spec = SplitSpec(runs=10, base_seed=0)

    report = run_experiment(
        table,
        families=("gradient_boosting",),
        tasks=("classification", "regression"),
        m_values=(9,),
        split_spec=split_spec,
        include_baselines=True,
    )
    means = _means(report)
    gb_auroc = means["gradient_boosting", "classification", 9, 0]["auroc"]
    gb_r2 = means["gradient_boosting", "regression", 9, 0]["r2"]
    entropy_auroc = means["entropy_gb", "classification", 0, 0]["auroc"]

    linear_report = run_experiment(
        table,
        families=("linear",),
        tasks=("classification",),
        m_values=(0, 9),
        split_spec=split_spec,
        include_baselines=False,
    )
    means = _means(linear_report)
    lin_m0 = means["linear", "classification", 0, 0]["auroc"]
    lin_m9 = means["linear", "classification", 9, 0]["auroc"]

    elapsed = time.time() - start
    # (a) strong meta classification, clearly above the entropy baseline
    assert gb_auroc >= 0.80
    assert gb_auroc >= entropy_auroc + 0.02
    # (b) meta regression recovers the quality signal
    assert gb_r2 >= 0.50
    # (c) cell-state metrics must not hurt the linear model (and should help)
    assert lin_m9 >= lin_m0 - 0.005
    assert elapsed < 300.0
    _passed(
        7,
        f"GB auroc {gb_auroc:.3f} (entropy {entropy_auroc:.3f}), "
        f"GB r2 {gb_r2:.3f}, linear m9 {lin_m9:.3f} vs m0 {lin_m0:.3f}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_8_baseline_feature_set_guard(tmp_path):
    # exact counts for the single-frame baseline set
    assert feature_count(5, 0) == 27
    assert feature_count(17, 0) == 39
    for c in (5, 10, 17):
        for m in range(10):
            assert feature_count(c, m) == 22 + c + 5 * m
            assert len(feature_names(c, m)) == 22 + c + 5 * m

    # the m=0 pipeline emits exactly the baseline features, bit for bit equal
    # to the prefix of the full vector, for both class counts
    for c, objects in ((5, 3), (17, 10)):
        config = SynthConfig(
            height=40,
            width=56,
            num_classes=c,
            num_blocks=4,
            num_frames=2,
            num_objects=objects,
            seed=8,
        )
        manifest = generate_stream(config, tmp_path / f"c{c}")
        rows_m0 = process_stream(manifest, num_stability=0)
        rows_m3 = process_stream(manifest, num_stability=3)
        for frame_m0, frame_m3 in zip(rows_m0, rows_m3):
            assert frame_m0.features.shape[1] == 22 + c
            assert frame_m3.features.shape[1] == 22 + c + 15
            assert np.array_equal(frame_m0.features, frame_m3.features[:, : 22 + c])
    _passed(8, "feature counts 22+c+5m and bit-exact baseline prefix")

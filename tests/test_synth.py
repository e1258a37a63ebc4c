import hashlib
import json
import os

import numpy as np
import oracles
import pytest

from segquality import heatmaps
from segquality.pipeline import process_stream
from segquality.synth import (
    SynthConfig,
    _MovingObject,
    _place,
    _softmax_from_labels,
    generate_stream,
)
from segquality.tensor_io import read_manifest


def _config(**overrides):
    base = dict(
        height=48,
        width=64,
        num_classes=8,
        num_blocks=4,
        num_frames=12,
        num_objects=5,
        seed=11,
    )
    base.update(overrides)
    return SynthConfig(**base)


def test_clean_stream_has_perfect_quality(tmp_path):
    config = _config(error_rate=0.0, jitter=0, flash_rate=0.0)
    manifest = generate_stream(config, tmp_path / "clean")
    rows_by_frame, _ = process_stream(manifest, 0)
    for rows in rows_by_frame:
        assert (rows.iou == 1.0).all()


def test_same_seed_is_byte_identical(tmp_path):
    config = _config(num_frames=4)
    m1 = generate_stream(config, tmp_path / "a")
    m2 = generate_stream(_config(num_frames=4), tmp_path / "b")
    for i in range(4):
        for kind in ("softmax", "cell_state", "ground_truth"):
            a = open(m1.path(i, kind), "rb").read()
            b = open(m2.path(i, kind), "rb").read()
            assert a == b
    assert (
        open(tmp_path / "a" / "manifest.json", "rb").read()
        == open(tmp_path / "b" / "manifest.json", "rb").read()
    )


def test_different_seed_differs(tmp_path):
    m1 = generate_stream(_config(num_frames=2), tmp_path / "a")
    m2 = generate_stream(_config(num_frames=2, seed=12), tmp_path / "b")
    assert open(m1.path(0, "softmax"), "rb").read() != open(
        m2.path(0, "softmax"), "rb"
    ).read()


def test_manifest_is_valid_and_loadable(tmp_path):
    generate_stream(_config(num_frames=3), tmp_path)
    manifest = read_manifest(tmp_path / "manifest.json")
    assert manifest.num_frames == 3
    probs = manifest.load_softmax(0)
    oracles.validate_softmax(probs)
    labels = manifest.load_ground_truth(0)
    assert set(np.unique(labels)) <= set(range(8))
    # at least background plus some objects
    assert len(np.unique(labels)) >= 3


def test_predicted_labels_match_generated_segments(tmp_path):
    # the softened softmax must still argmax to the intended label field
    config = _config(error_rate=0.3, jitter=1, num_frames=5)
    manifest = generate_stream(config, tmp_path)
    for i in range(manifest.num_frames):
        probs = manifest.load_softmax(i)
        labels = heatmaps.predicted_labels(probs)
        # every predicted class is a valid class and boundaries are softened
        ent, _, _ = heatmaps.dispersion_heatmaps(probs)
        assert labels.min() >= 0 and labels.max() < config.num_classes
        assert ent.max() > 0.1  # boundary softening leaves entropy signal


def test_error_rate_binomial_fraction(tmp_path):
    config = SynthConfig(
        height=48,
        width=64,
        num_classes=10,
        num_blocks=3,
        num_frames=70,
        num_objects=8,
        error_rate=0.2,
        jitter=0,
        flash_rate=0.0,
        seed=42,
    )
    manifest = generate_stream(config, tmp_path)
    rows_by_frame, _ = process_stream(manifest, 0)
    iou = np.concatenate([rows.iou for rows in rows_by_frame])
    assert len(iou) >= 500
    zero_fraction = float(np.mean(iou == 0.0))
    # 8 of 9 segments per frame are objects, each failing with p 0.2
    assert abs(zero_fraction - 0.2 * 8 / 9) < 0.05
    assert abs(zero_fraction - 0.2) < 0.05


def test_flipped_segments_have_amplified_stability(tmp_path):
    config = SynthConfig(
        height=48,
        width=64,
        num_classes=10,
        num_blocks=6,
        num_frames=40,
        num_objects=6,
        error_rate=0.25,
        jitter=0,
        flash_rate=0.0,
        seed=5,
    )
    manifest = generate_stream(config, tmp_path)
    rows_by_frame, _ = process_stream(manifest, num_stability=manifest.num_blocks - 1)
    from segquality.seg_metrics import feature_names

    names = feature_names(config.num_classes, manifest.num_blocks - 1)
    stab_idx = names.index("cellstab1_mean")
    err, good = [], []
    for rows in rows_by_frame:
        objects = rows.classes != 0  # not the background
        err += rows.features[objects & (rows.iou == 0.0), stab_idx].tolist()
        good += rows.features[objects & (rows.iou != 0.0), stab_idx].tolist()
    assert len(err) > 20 and len(good) > 20
    assert float(np.mean(err)) > float(np.mean(good))
    # planted gain of 3x: demand a clear margin, not just an inequality
    assert float(np.mean(err)) > 1.5 * float(np.mean(good))


def test_stationary_zero_corruption_stream_is_constant(tmp_path):
    # confidence ranges pinned to a point so the per-frame draws are constant
    config = _config(
        velocity_min=0.0,
        velocity_max=0.0,
        error_rate=0.0,
        jitter=0,
        flash_rate=0.0,
        cell_noise=0.0,
        correct_confidence=(0.9, 0.9),
        num_frames=6,
    )
    manifest = generate_stream(config, tmp_path)
    first = {
        kind: open(manifest.path(0, kind), "rb").read()
        for kind in ("softmax", "cell_state", "ground_truth")
    }
    for i in range(1, 6):
        for kind, payload in first.items():
            assert open(manifest.path(i, kind), "rb").read() == payload


def test_config_validation():
    with pytest.raises(ValueError, match="error_rate"):
        _config(error_rate=1.5)
    with pytest.raises(ValueError, match="num_classes"):
        _config(num_classes=1)
    with pytest.raises(ValueError, match="velocity"):
        _config(velocity_min=2.0, velocity_max=1.0)


def _label_maps(rng):
    """Label frames that stress the class windows of the softmax kernel."""
    h, w = 20, 31
    touching = np.zeros((h, w), dtype=np.int32)
    touching[:6, :8] = 1  # corner objects touching two frame edges
    touching[:6, 8:14] = 2  # touching object 1
    touching[6:12, :5] = 3  # touching object 1 and the left edge
    touching[h - 4 :, w - 9 :] = 4
    touching[h - 4 :, 10:20] = 5  # bottom edge
    touching[8:14, w - 3 :] = 6  # right edge
    yield "touching", touching, 8
    split = np.zeros((h, w), dtype=np.int32)
    split[1:4, 1:4] = 2
    split[h - 5 : h - 1, w - 6 : w - 1] = 2  # the same class, far apart
    split[8:12, 12:18] = 1
    yield "one class in two objects", split, 4
    almost = np.full((h, w), 3, dtype=np.int32)
    almost[7, 19] = 0
    yield "class covering all but one pixel", almost, 5
    corner = np.full((h, w), 2, dtype=np.int32)
    corner[h - 1, 0] = 1
    yield "all but one corner pixel", corner, 3
    dots = np.zeros((h, w), dtype=np.int32)
    for k, (r, c) in enumerate([(0, 0), (0, w - 1), (h - 1, 0), (5, 5), (5, 6), (12, 20)]):
        dots[r, c] = 1 + k % 4
    yield "single pixels", dots, 5
    yield "one class", np.full((h, w), 1, dtype=np.int32), 4
    two = np.zeros((h, w), dtype=np.int32)
    two[3:9, 0:7] = 1
    two[12:, 20:] = 1
    yield "two classes", two, 2
    for k in range(6):
        blocks = np.zeros((h, w), dtype=np.int32)
        for _ in range(int(rng.integers(1, 9))):
            r, c = rng.integers(0, h), rng.integers(0, w)
            dr, dc = rng.integers(1, 8, size=2)
            blocks[r : r + dr, c : c + dc] = rng.integers(0, 6)
        yield f"random rectangles {k}", blocks, 6


def test_windowed_softmax_matches_full_frame_oracle():
    rng = np.random.default_rng(2024)
    for name, labels, num_classes in _label_maps(rng):
        confidence = rng.uniform(0.6, 0.99, size=labels.shape)
        config = SynthConfig(num_classes=num_classes)
        got = _softmax_from_labels(labels, confidence, config)
        want = oracles.softmax_from_labels(labels, confidence, config)
        assert got.tobytes() == want.tobytes(), name


def test_placed_footprint_matches_rolled_full_frame_mask():
    # centers off the frame and offsets beyond it included
    rng = np.random.default_rng(5)
    h, w = 12, 17
    for _ in range(300):
        obj = _MovingObject(
            class_id=1,
            shape="rect" if rng.random() < 0.5 else "ellipse",
            half=tuple(rng.uniform(0.5, 7.0, 2)),
            center=[rng.uniform(-6, h + 6), rng.uniform(-6, w + 6)],
            velocity=[0.0, 0.0],
        )
        offset = rng.integers(-14, 15, size=2)
        mask, top, left = obj.footprint(h, w)
        window, part = _place(mask, top + int(offset[0]), left + int(offset[1]), h, w)
        got = np.zeros((h, w), dtype=bool)
        got[window][part] = True
        want = oracles.jittered_footprint(obj, h, w, offset)
        assert np.array_equal(got, want), (obj, offset)


def test_streams_match_pinned_sha256(tmp_path):
    # recorded with the full-frame kernel; the windowed one must not move a byte
    pins = json.loads(
        open(os.path.join(os.path.dirname(__file__), "data", "synth_sha256.json")).read()
    )
    for name, pin in pins.items():
        out = tmp_path / name
        generate_stream(SynthConfig(**pin["config"]), out)
        got = {
            f: hashlib.sha256((out / f).read_bytes()).hexdigest()
            for f in sorted(os.listdir(out))
            if f.endswith(".tmsg")
        }
        assert got == pin["sha256"], name


@pytest.mark.parametrize(
    "field, value",
    [
        ("soften_width", 0.0),
        ("soften_width", -0.5),
        ("runner_share", 1.5),
        ("runner_share", -0.1),
        ("background_confidence", 1.2),
        ("background_confidence", 0.5),
        ("correct_confidence", (0.3, 0.4)),
        ("correct_confidence", (0.9, 1.1)),
        ("correct_confidence", (0.95, 0.8)),
        ("error_confidence", (0.5, 0.9)),
        ("error_confidence", (0.9, 0.7)),
        ("min_half_extent", 9.0),
        ("min_half_extent", 0.0),
    ],
)
def test_config_rejects_values_that_break_the_stream(field, value):
    with pytest.raises(ValueError, match=field) as info:
        _config(**{field: value})
    assert "\n" not in str(info.value)

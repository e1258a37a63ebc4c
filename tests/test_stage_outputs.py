"""CLI stage outputs: the label-only track stage, the segment table, and the
errors and warnings for inputs that cannot make a complete dataset."""

import csv
import hashlib
import json
import os

import numpy as np
import pytest
from click.testing import CliRunner

from segquality import heatmaps, seg_metrics
from segquality.cli import main
from segquality.dataset import build_time_series
from segquality.pipeline import (
    apply_tracking,
    read_feature_csv,
    read_tracking_csv,
    write_feature_csv,
)
from segquality.synth import SynthConfig, generate_stream
from test_cli import SYNTH_ARGS
from test_pipeline import tracked_stream

DATA = os.path.join(os.path.dirname(__file__), "data")


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def small_dir(runner, tmp_path_factory):
    """The test_cli stream, tracked, with features extracted with ground truth
    and tracking, and without either."""
    root = tmp_path_factory.mktemp("stages")
    manifest = root / "stream" / "manifest.json"
    steps = [
        SYNTH_ARGS + ["--out", str(root / "stream")],
        ["track", "--manifest", str(manifest), "--out", str(root / "tracking.csv")],
        [
            "extract", "--manifest", str(manifest),
            "--out", str(root / "features.csv"), "--m", "3",
            "--tracking", str(root / "tracking.csv"),
            "--segments-csv", str(root / "segments.csv"),
        ],
        [
            "extract", "--manifest", str(manifest),
            "--out", str(root / "features_nogt.csv"), "--m", "3", "--no-gt",
        ],
    ]
    for args in steps:
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
    return root


def test_segment_csv_is_byte_identical_to_recorded_output(small_dir):
    # recorded from the per-segment implementation that re-labeled each frame
    with open(os.path.join(DATA, "segments_seed9.csv"), "rb") as fh:
        expected = fh.read()
    assert (small_dir / "segments.csv").read_bytes() == expected


def _track_stage_output(runner, config, tmp_path):
    generate_stream(config, tmp_path / "stream")
    out = tmp_path / "tracking.csv"
    manifest_path = tmp_path / "stream" / "manifest.json"
    result = runner.invoke(
        main, ["track", "--manifest", str(manifest_path), "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    return out.read_bytes()


def test_track_stage_reproduces_recorded_default_stream(runner, tmp_path):
    # recorded before the tracker dropped tracks it can no longer match
    with open(os.path.join(DATA, "tracking_default.csv"), "rb") as fh:
        expected = fh.read()
    assert _track_stage_output(runner, SynthConfig(), tmp_path) == expected


def test_track_stage_reproduces_recorded_crowded_stream(runner, tmp_path):
    # recorded with per-track frame masks; steps [37, 893, 3, 42, 220], so
    # all five steps match, the plain-overlap step 3 included
    config = SynthConfig(height=128, width=256, num_objects=40, num_frames=30, seed=0)
    with open(os.path.join(DATA, "tracking_crowded.csv"), "rb") as fh:
        expected = fh.read()
    assert _track_stage_output(runner, config, tmp_path) == expected


with open(os.path.join(DATA, "tracking_sha256.json"), encoding="utf-8") as _fh:
    TRACKING_SHA256 = json.load(_fh)


@pytest.mark.parametrize("name", sorted(TRACKING_SHA256))
def test_track_stage_reproduces_recorded_sha256(runner, tmp_path, name):
    """Seeds 1-3 of the default stream and the 256x512, 60-object stress
    stream, recorded while `track_frame` returned one object per segment."""
    recorded = TRACKING_SHA256[name]
    output = _track_stage_output(runner, SynthConfig(**recorded["config"]), tmp_path)
    assert hashlib.sha256(output).hexdigest() == recorded["sha256"]


# Columns that come from integer counts, exact coordinate sums and the
# tracker; every other column is a floating-point reduction over pixels.
EXACT_FEATURE_COLUMNS = (
    "frame", "component", "class", "track_id", "iou_adj",
    "size", "size_in", "size_bd", "size_rel", "size_in_rel",
    "center_row", "center_col",
)


def test_feature_csv_matches_recorded_output(tmp_path):
    # recorded from the per-pixel-last dispersion maps (sorted top two,
    # numpy's last-axis sums) and separate total and inner/boundary sums
    manifest = generate_stream(SynthConfig(num_frames=24, seed=9), tmp_path)
    rows_by_frame, _ = tracked_stream(manifest, 9)
    out = tmp_path / "features.csv"
    write_feature_csv(rows_by_frame, out, manifest.num_classes, 9)
    with open(os.path.join(DATA, "features_seed9.csv"), newline="") as fh:
        expected = list(csv.reader(fh))
    with open(out, newline="") as fh:
        actual = list(csv.reader(fh))
    assert actual[0] == expected[0]
    assert len(actual) == len(expected) > 200
    for j, name in enumerate(expected[0]):
        ours = [row[j] for row in actual[1:]]
        recorded = [row[j] for row in expected[1:]]
        if name in EXACT_FEATURE_COLUMNS:
            assert ours == recorded, name
        else:
            ours, recorded = np.array(ours, float), np.array(recorded, float)
            assert (np.abs(ours - recorded) <= 1e-12 * np.abs(recorded)).all(), name


def test_dataset_stage_reproduces_recorded_sha256(runner, tmp_path):
    """The dataset CSV and header at T = 0 and T = 2, m = 9, from the tracked
    seed-9 stream, byte for byte as recorded before the feature rows became
    arrays."""
    with open(os.path.join(DATA, "dataset_sha256.json"), encoding="utf-8") as fh:
        recorded = json.load(fh)["seed9_24_frames_m9"]
    generate_stream(SynthConfig(**recorded["config"]), tmp_path / "stream")
    manifest = str(tmp_path / "stream" / "manifest.json")
    tracking, features = str(tmp_path / "tracking.csv"), str(tmp_path / "features.csv")
    steps = [
        ["track", "--manifest", manifest, "--out", tracking],
        [
            "extract", "--manifest", manifest, "--m", "9",
            "--tracking", tracking, "--out", features,
        ],
    ]
    for history in (0, 2):
        steps.append(
            [
                "dataset", "--features", features, "--tracking", tracking,
                "--classes", "10", "--m", "9", "--history", str(history),
                "--out", str(tmp_path / f"history_{history}.csv"),
                "--header", str(tmp_path / f"history_{history}.json"),
            ]
        )
    for args in steps:
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in recorded["sha256"]
    }
    assert digests == recorded["sha256"]


def test_track_stage_computes_no_features(runner, small_dir, monkeypatch, tmp_path):
    def forbidden(*args, **kwargs):
        raise AssertionError("the track stage computed a feature input")

    monkeypatch.setattr(heatmaps, "dispersion_heatmaps", forbidden)
    monkeypatch.setattr(heatmaps, "stability_heatmaps", forbidden)
    monkeypatch.setattr(seg_metrics, "frame_features", forbidden)
    manifest = small_dir / "stream" / "manifest.json"
    out = tmp_path / "tracking.csv"
    result = runner.invoke(
        main, ["track", "--manifest", str(manifest), "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    assert out.read_bytes() == (small_dir / "tracking.csv").read_bytes()


def test_no_gt_features_cannot_build_a_dataset(small_dir):
    rows_by_frame = read_feature_csv(small_dir / "features_nogt.csv", 8, 3)
    assert all(np.isnan(rows.iou).all() for rows in rows_by_frame)
    with pytest.raises(ValueError, match="--no-gt"):
        build_time_series(rows_by_frame, 0, 8, 3)


def test_dataset_cli_rejects_no_gt_features(runner, small_dir, tmp_path):
    result = runner.invoke(
        main,
        [
            "dataset",
            "--features", str(small_dir / "features_nogt.csv"),
            "--tracking", str(small_dir / "tracking.csv"),
            "--out", str(tmp_path / "dataset.csv"),
            "--header", str(tmp_path / "dataset.json"),
            "--classes", "8", "--m", "3",
        ],
    )
    assert result.exit_code != 0
    assert "--no-gt" in result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / "dataset.csv").exists()


def test_truncated_tracking_csv_warns_with_count(small_dir, tmp_path):
    lines = (small_dir / "tracking.csv").read_text().splitlines(keepends=True)
    truncated = tmp_path / "tracking.csv"
    truncated.write_text("".join(lines[:-5]))
    rows_by_frame = read_feature_csv(small_dir / "features_nogt.csv", 8, 3)
    with pytest.warns(UserWarning, match="^5 feature rows have no entry"):
        apply_tracking(rows_by_frame, read_tracking_csv(truncated))
    untracked = sum(int((rows.track_ids < 0).sum()) for rows in rows_by_frame)
    assert untracked == 5


def test_complete_tracking_csv_does_not_warn(small_dir, recwarn):
    rows_by_frame = read_feature_csv(small_dir / "features_nogt.csv", 8, 3)
    apply_tracking(rows_by_frame, read_tracking_csv(small_dir / "tracking.csv"))
    assert all((rows.track_ids >= 0).all() for rows in rows_by_frame)
    assert not [w for w in recwarn if "tracking CSV" in str(w.message)]


def _within(ours, recorded, rel=1e-12):
    """Same structure and values, floats within `rel` relative."""
    if isinstance(recorded, dict):
        return ours.keys() == recorded.keys() and all(
            _within(ours[k], recorded[k], rel) for k in recorded
        )
    if isinstance(recorded, list):
        return len(ours) == len(recorded) and all(
            _within(a, b, rel) for a, b in zip(ours, recorded)
        )
    if isinstance(recorded, float):
        return abs(ours - recorded) <= rel * abs(recorded)
    return ours == recorded


def _csv_values(text):
    def value(field):
        try:
            return float(field)
        except ValueError:
            return field

    return [[value(f) for f in row] for row in csv.reader(text.splitlines())]


def test_eval_report_matches_recorded_output(runner, tmp_path):
    """Grid and baseline cells, serial and in a worker pool, equal the report
    recorded when the entropy baseline had its own serial fit loop."""
    dataset, header = tmp_path / "dataset.csv", tmp_path / "dataset.json"
    result = runner.invoke(
        main,
        [
            "dataset", "--features", os.path.join(DATA, "features_seed9.csv"),
            "--classes", "10", "--m", "9", "--history", "0",
            "--out", str(dataset), "--header", str(header),
        ],
    )
    assert result.exit_code == 0, result.output
    assert result.output == f"wrote 204 records to {dataset}\n"
    reports = []
    for threads in ("1", "2"):
        prefix = tmp_path / f"report_t{threads}"
        result = runner.invoke(
            main,
            [
                "eval", "--dataset", str(dataset), "--header", str(header),
                "--families", "linear,gradient_boosting", "--m-values", "0,9",
                "--runs", "2", "--threads", threads, "--out-prefix", str(prefix),
            ],
        )
        assert result.exit_code == 0, result.output
        paths = (tmp_path / f"report_t{threads}.{ext}" for ext in ("json", "csv"))
        reports.append([path.read_text() for path in paths])
    assert reports[0] == reports[1]
    ours_json, ours_csv = reports[0]
    with open(os.path.join(DATA, "report_seed9.json"), encoding="utf-8") as fh:
        recorded = json.load(fh)
    assert _within(json.loads(ours_json), recorded)
    with open(os.path.join(DATA, "report_seed9.csv"), encoding="utf-8") as fh:
        recorded_csv = fh.read()
    assert _within(_csv_values(ours_csv), _csv_values(recorded_csv))


def _edited_csv(small_dir, tmp_path, name, edit):
    """A copy of one of small_dir's CSVs with its lines changed by `edit`."""
    lines = (small_dir / name).read_text().splitlines()
    edit(lines)
    bad = tmp_path / "in" / name
    bad.parent.mkdir()
    bad.write_text("\n".join(lines) + "\n")
    return bad


def _set_field(lines, number, column, value):
    fields = lines[number - 1].split(",")
    fields[column] = value
    lines[number - 1] = ",".join(fields)


def _repeat_line(lines, number, at, track=None):
    """Insert a copy of line `number` as line `at`, with a new track id."""
    fields = lines[number - 1].split(",")
    if track is not None:
        fields[2] = track
    lines.insert(at - 1, ",".join(fields))


@pytest.mark.parametrize(
    "source, edit, message",
    [
        # a negative frame used to drop its row without a word
        ("features.csv", lambda lines: _set_field(lines, 3, 0, "-1"),
         "line 3: frame is -1, not >= 0"),
        ("features.csv", lambda lines: _set_field(lines, 4, 1, "-2"),
         "line 4: component is -2, not >= 0"),
        # a repeated row used to become a second record
        ("features.csv", lambda lines: _repeat_line(lines, 2, 5),
         "line 5: frame 0, component 0 repeats line 2"),
        # in the tracking CSV, the last copy used to win
        ("tracking.csv", lambda lines: _repeat_line(lines, 3, 6, track="99"),
         "line 6: frame 0, component 1 repeats line 3"),
    ],
    ids=["negative_frame", "negative_component", "repeated_feature_row", "repeated_track_row"],
)
def test_bad_csv_keys_are_a_one_line_error(runner, small_dir, tmp_path, source, edit, message):
    bad = _edited_csv(small_dir, tmp_path, source, edit)
    features, tracking = (
        bad if source == name else small_dir / name
        for name in ("features.csv", "tracking.csv")
    )
    out = tmp_path / "out"
    out.mkdir()
    result = runner.invoke(
        main,
        [
            "dataset", "--features", str(features), "--tracking", str(tracking),
            "--classes", "8", "--m", "3",
            "--out", str(out / "dataset.csv"), "--header", str(out / "dataset.json"),
        ],
    )
    assert isinstance(result.exception, SystemExit)  # a ClickException, no traceback
    assert result.output == f"Error: {bad}, {message}\n"
    assert not list(out.iterdir())


@pytest.mark.parametrize(
    "classes, m, mismatch",
    [
        ("8", "2", "50 columns, expected 45; column 45 is 'cellstab3_mean', expected none"),
        ("8", "4", "50 columns, expected 55; column 50 is none, expected 'cellstab4_mean'"),
        ("10", "3", "50 columns, expected 52; column 35 is 'cellstab1_mean', expected 'classprob_8'"),
    ],
)
def test_feature_csv_of_other_classes_or_m_names_the_column(
    runner, small_dir, tmp_path, classes, m, mismatch
):
    features = small_dir / "features.csv"
    result = runner.invoke(
        main,
        [
            "dataset", "--features", str(features), "--classes", classes, "--m", m,
            "--out", str(tmp_path / "dataset.csv"), "--header", str(tmp_path / "dataset.json"),
        ],
    )
    assert isinstance(result.exception, SystemExit)  # a ClickException, no traceback
    assert result.output == (
        f"Error: {features}: unexpected feature CSV header for classes={classes}, "
        f"m={m}: {mismatch}\n"
    )
    assert not list(tmp_path.iterdir())


def test_header_only_feature_csv_reads_as_no_rows(small_dir, tmp_path, recwarn):
    path = tmp_path / "features.csv"
    path.write_text((small_dir / "features.csv").read_text().splitlines()[0] + "\r\n")
    assert read_feature_csv(path, 8, 3) == []
    assert not recwarn.list

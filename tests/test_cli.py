import hashlib
import itertools
import json
import os
import re
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from segquality.cli import main
from segquality.dataset import SplitSpec, read_dataset, split_indices
from segquality.evaluation import fit_split
from segquality.meta_models import FAMILIES, TASKS, ModelSpec, load_model
from segquality.seg_metrics import feature_names
from segquality.synth import SynthConfig, generate_stream
from segquality.tensor_io import HEADER_SIZE

DATA = os.path.join(os.path.dirname(__file__), "data")


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


SYNTH_ARGS = [
    "synth",
    "--height", "40",
    "--width", "56",
    "--classes", "8",
    "--blocks", "4",
    "--frames", "24",
    "--objects", "4",
    "--error-rate", "0.3",
    "--seed", "9",
]


@pytest.fixture(scope="module")
def pipeline_dir(runner, tmp_path_factory):
    """Full synth -> extract -> track -> dataset chain in one directory."""
    root = tmp_path_factory.mktemp("cli")
    stream = root / "stream"
    result = runner.invoke(main, SYNTH_ARGS + ["--out", str(stream)])
    assert result.exit_code == 0, result.output
    manifest = stream / "manifest.json"
    result = runner.invoke(
        main,
        ["track", "--manifest", str(manifest), "--out", str(root / "tracking.csv")],
    )
    assert result.exit_code == 0, result.output
    result = runner.invoke(
        main,
        [
            "extract",
            "--manifest", str(manifest),
            "--out", str(root / "features.csv"),
            "--m", "3",
            "--tracking", str(root / "tracking.csv"),
            "--segments-csv", str(root / "segments.csv"),
        ],
    )
    assert result.exit_code == 0, result.output
    result = runner.invoke(
        main,
        [
            "dataset",
            "--features", str(root / "features.csv"),
            "--tracking", str(root / "tracking.csv"),
            "--out", str(root / "dataset.csv"),
            "--header", str(root / "dataset.json"),
            "--classes", "8",
            "--m", "3",
            "--history", "2",
        ],
    )
    assert result.exit_code == 0, result.output
    return root


def test_pipeline_artifacts_exist(pipeline_dir):
    for name in (
        "tracking.csv",
        "features.csv",
        "segments.csv",
        "dataset.csv",
        "dataset.json",
    ):
        assert (pipeline_dir / name).exists()
    header = json.loads((pipeline_dir / "dataset.json").read_text())
    assert header["num_classes"] == 8
    assert header["num_stability"] == 3
    assert header["history"] == 2
    assert len(header["feature_names"]) == 22 + 8 + 15


def test_train_and_eval_smoke(runner, pipeline_dir):
    model_path = pipeline_dir / "model.json"
    result = runner.invoke(
        main,
        [
            "train",
            "--dataset", str(pipeline_dir / "dataset.csv"),
            "--header", str(pipeline_dir / "dataset.json"),
            "--out", str(model_path),
            "--family", "gradient_boosting",
            "--task", "classification",
            "--m", "3",
            "--run", "0",
        ],
    )
    assert result.exit_code == 0, result.output
    doc = json.loads(model_path.read_text())
    assert doc["format"] == "segquality-model/1"
    assert doc["family"] == "gradient_boosting"

    result = runner.invoke(
        main,
        [
            "eval",
            "--dataset", str(pipeline_dir / "dataset.csv"),
            "--header", str(pipeline_dir / "dataset.json"),
            "--out-prefix", str(pipeline_dir / "report"),
            "--families", "linear",
            "--tasks", "classification",
            "--m-values", "0,3",
            "--runs", "2",
            "--no-baselines",
        ],
    )
    assert result.exit_code == 0, result.output
    report = json.loads((pipeline_dir / "report.json").read_text())
    assert len(report["cells"]) == 2
    assert (pipeline_dir / "report.csv").exists()


def _train(runner, pipeline_dir, out, family, m, *extra):
    return runner.invoke(
        main,
        [
            "train",
            "--dataset", str(pipeline_dir / "dataset.csv"),
            "--header", str(pipeline_dir / "dataset.json"),
            "--out", str(out),
            "--family", family,
            "--task", "classification",
            "--m", str(m),
            *extra,
        ],
    )


@pytest.mark.parametrize("m", [-1, 4])  # the dataset was built with m=3
def test_train_rejects_m_out_of_range(runner, pipeline_dir, tmp_path, m):
    result = _train(runner, pipeline_dir, tmp_path / "model.json", "linear", m)
    assert result.exit_code != 0
    assert f"m={m} outside [0, 3] for this dataset" in result.output
    assert not (tmp_path / "model.json").exists()


def test_train_rejects_negative_run(runner, pipeline_dir, tmp_path):
    out = tmp_path / "model.json"
    result = _train(runner, pipeline_dir, out, "linear", 0, "--run", "-1")
    assert isinstance(result.exception, SystemExit)  # a ClickException, no traceback
    assert "Error: run must be >= 0, got -1" in result.output
    assert not out.exists()


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--epochs", "0", "network parameters must be >= 1"),
        ("--epochs", "-1", "network parameters must be >= 1"),
        ("--sample-size", "-5", "sample_size must be >= 1, got -5"),
        ("--sample-size", "4", "a split of 4 records leaves a part empty: 3 train, 0 val, 1 test"),
    ],
)
def test_train_rejects_bad_options(runner, pipeline_dir, tmp_path, option, value, message):
    out = tmp_path / "model.json"
    result = _train(runner, pipeline_dir, out, "linear", 0, option, value)
    assert isinstance(result.exception, SystemExit)  # a ClickException, no traceback
    assert re.search(f"^Error: {message}$", result.output, re.MULTILINE)
    assert not out.exists()


def _eval(runner, pipeline_dir, prefix, *extra):
    return runner.invoke(
        main,
        [
            "eval",
            "--dataset", str(pipeline_dir / "dataset.csv"),
            "--header", str(pipeline_dir / "dataset.json"),
            "--out-prefix", str(prefix),
            "--families", "linear",
            "--tasks", "classification",
            "--no-baselines",
            *extra,
        ],
    )


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--runs", "0", "runs must be >= 1"),
        ("--seed", "-1", "seed must be >= 0, got -1"),
        ("--sample-size", "-5", "sample_size must be >= 1, got -5"),
        ("--sample-size", "4", "a split of 4 records leaves a part empty: 3 train, 0 val, 1 test"),
    ],
)
def test_eval_rejects_bad_split_options(
    runner, pipeline_dir, tmp_path, option, value, message
):
    result = _eval(runner, pipeline_dir, tmp_path / "report", option, value)
    assert isinstance(result.exception, SystemExit)  # a ClickException, no traceback
    assert f"Error: {message}" in result.output
    assert not (tmp_path / "report.json").exists()


@pytest.fixture(scope="module")
def mismatched_datasets(runner, pipeline_dir, tmp_path_factory):
    """(dataset CSV, header) pairs that do not fit together: a T=0 CSV with
    the T=2 header, and the T=2 CSV with an unknown header format, a header
    that is not a JSON object, a header that lacks the history length, or a
    header with a size field that is not a non-negative integer."""
    root = tmp_path_factory.mktemp("mismatch")
    result = runner.invoke(
        main,
        [
            "dataset",
            "--features", str(pipeline_dir / "features.csv"),
            "--out", str(root / "t0.csv"),
            "--header", str(root / "t0.json"),
            "--classes", "8",
            "--m", "3",
        ],
    )
    assert result.exit_code == 0, result.output
    header = json.loads((pipeline_dir / "dataset.json").read_text())
    (root / "format_x.json").write_text(json.dumps({**header, "format": "x"}))
    (root / "list.json").write_text(json.dumps([header]))
    bad_fields = {
        "str": ("num_classes", "8"),
        "null": ("history", None),
        "float": ("num_stability", 1.5),
        "bool": ("history", True),
        "negative": ("num_stability", -1),
    }
    for case, (key, value) in bad_fields.items():
        (root / f"{case}.json").write_text(json.dumps({**header, key: value}))
    del header["history"]
    (root / "no_history.json").write_text(json.dumps(header))
    return {
        "history": (root / "t0.csv", pipeline_dir / "dataset.json"),
        "format": (pipeline_dir / "dataset.csv", root / "format_x.json"),
        "list": (pipeline_dir / "dataset.csv", root / "list.json"),
        "keys": (pipeline_dir / "dataset.csv", root / "no_history.json"),
        **{case: (pipeline_dir / "dataset.csv", root / f"{case}.json") for case in bad_fields},
    }


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize(
    "case, message",
    [
        # d = 22 + 8 + 5 * 3 = 45 features; 4 + (T + 1) * 46 columns
        (
            "history",
            r"t0\.csv does not match its header .*: 50 columns, expected 142; "
            r"column 5 is 't0_size', expected 'mask_1'",
        ),
        ("format", "unsupported dataset header format: x"),
        ("list", "unsupported dataset header format: None"),
        ("keys", r"no_history\.json: dataset header lacks history"),
        ("str", r"str\.json: dataset header field num_classes must be a non-negative integer, got '8'"),
        ("null", "field history must be a non-negative integer, got None"),
        ("float", "field num_stability must be a non-negative integer, got 1.5"),
        ("bool", "field history must be a non-negative integer, got True"),
        ("negative", "field num_stability must be a non-negative integer, got -1"),
    ],
    ids=["history", "format", "list", "keys", "str", "null", "float", "bool", "negative"],
)
def test_dataset_header_mismatch_is_a_one_line_error(
    runner, mismatched_datasets, tmp_path, command, case, message
):
    dataset, header = mismatched_datasets[case]
    args = ["--dataset", str(dataset), "--header", str(header)]
    if command == "train":
        args += ["--out", str(tmp_path / "model.json"), "--family", "linear"]
        args += ["--task", "classification"]
    else:
        args += ["--out-prefix", str(tmp_path / "report"), "--families", "linear"]
    result = runner.invoke(main, [command] + args)
    assert isinstance(result.exception, SystemExit)  # a ClickException, no traceback
    assert re.search(f"^Error: .*{message}$", result.output, re.MULTILINE)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "family, epochs", [("gradient_boosting", 200), ("shallow_lstm", 5)]
)
def test_train_model_file_scores_raw_features(
    runner, pipeline_dir, tmp_path, family, epochs
):
    """The saved standardizer and layout rebuild the inputs from raw features."""
    path = tmp_path / "model.json"
    run_epochs = ("--run", "1", "--epochs", str(epochs))
    result = _train(runner, pipeline_dir, path, family, 2, *run_epochs)
    assert result.exit_code == 0, result.output
    model = load_model(path)
    inputs = model.metadata["inputs"]
    table = read_dataset(pipeline_dir / "dataset.csv", pipeline_dir / "dataset.json")
    assert inputs["num_stability"] == 2
    assert inputs["history"] == table.history == 2
    assert inputs["feature_names"] == feature_names(8, 2)

    spec = ModelSpec(family, "classification", seed=0, max_epochs=epochs)
    split_spec = SplitSpec(base_seed=0)
    fitted, test, _ = fit_split(table, spec, 2, split_spec, 1)
    expected = fitted.predict(*test[:-1])

    test_idx = split_indices(len(table), split_spec, 1)[2]
    mean = np.array(inputs["mean"])
    std = np.array(inputs["std"])
    live = std > 0
    raw = table.flat_features(2)[test_idx]
    x = (raw - mean) / np.where(live, std, 1.0)
    x[:, ~live] = 0.0
    mask = table.mask[test_idx]
    if family == "shallow_lstm":
        assert inputs["layout"] == "sequence_oldest_first"
        seq = x.reshape(len(test_idx), 3, -1)[:, [2, 1, 0]]
        scores = model.predict(seq, mask[:, [2, 1, 0]])
    else:
        assert inputs["layout"] == "flat+mask"
        scores = model.predict(np.concatenate([x, mask], axis=1))
    assert np.array_equal(scores, expected)


def test_extract_rejects_m_beyond_blocks(runner, pipeline_dir):
    result = runner.invoke(
        main,
        [
            "extract",
            "--manifest", str(pipeline_dir / "stream" / "manifest.json"),
            "--out", str(pipeline_dir / "bad.csv"),
            "--m", "4",  # stream has l=4 blocks, so m must be <= 3
        ],
    )
    assert result.exit_code != 0
    assert "--m must be in [0, 3]" in result.output


def test_missing_manifest_fails_cleanly(runner, tmp_path):
    result = runner.invoke(
        main,
        ["track", "--manifest", str(tmp_path / "nope.json"), "--out", str(tmp_path / "t.csv")],
    )
    assert result.exit_code != 0
    assert "not found" in result.output


def test_synth_rejects_unknown_config_field(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"heigth": 32}))
    result = runner.invoke(
        main, ["synth", "--out", str(tmp_path / "s"), "--config", str(cfg)]
    )
    assert result.exit_code != 0
    assert "unknown synth config fields" in result.output


def test_synth_rejects_broken_config_value_before_writing(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"soften_width": 0, "num_frames": 3}))
    out = tmp_path / "s"
    result = runner.invoke(main, ["synth", "--out", str(out), "--config", str(cfg)])
    assert result.exit_code != 0
    assert result.output.strip().splitlines() == [
        "Error: soften_width must be > 0, got 0"
    ]
    assert not out.exists()


@pytest.mark.parametrize(
    "config, message",
    [
        ({"height": "x"}, "height must be an integer, got 'x'"),
        ([1, 2], "the synth config must be a JSON object"),
        ({"num_frames": 2.5}, "num_frames must be an integer, got 2.5"),
    ],
)
def test_synth_config_of_the_wrong_type_is_a_one_line_error(
    runner, tmp_path, config, message
):
    """These used to end in a TypeError traceback, the last after creating
    the output directory."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "s"
    result = runner.invoke(main, ["synth", "--out", str(out), "--config", str(cfg)])
    assert result.exit_code == 1
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: ")
    assert lines[0].endswith(message)
    assert not out.exists()


def test_stage_rerun_is_byte_identical(runner, tmp_path):
    for tag in ("a", "b"):
        out = tmp_path / tag
        result = runner.invoke(main, SYNTH_ARGS + ["--frames", "3", "--out", str(out)])
        assert result.exit_code == 0, result.output
        result = runner.invoke(
            main,
            [
                "extract",
                "--manifest", str(out / "manifest.json"),
                "--out", str(out / "features.csv"),
                "--m", "1",
            ],
        )
        assert result.exit_code == 0, result.output
    assert (tmp_path / "a" / "features.csv").read_bytes() == (
        tmp_path / "b" / "features.csv"
    ).read_bytes()


def test_dataset_requires_tracking_for_history(runner, pipeline_dir, tmp_path):
    result = runner.invoke(
        main,
        [
            "dataset",
            "--features", str(pipeline_dir / "features.csv"),
            "--out", str(tmp_path / "d.csv"),
            "--header", str(tmp_path / "d.json"),
            "--classes", "8",
            "--m", "3",
            "--history", "2",
        ],
    )
    assert result.exit_code != 0
    assert "--tracking is required" in result.output


def test_eval_time_series_grid(runner, pipeline_dir, tmp_path):
    result = runner.invoke(
        main,
        [
            "eval",
            "--features", str(pipeline_dir / "features.csv"),
            "--tracking", str(pipeline_dir / "tracking.csv"),
            "--families", "all",
            "--tasks", "all",
            "--m-values", "0,3",
            "--t-values", "0,1",
            "--runs", "1",
            "--out-prefix", str(tmp_path / "grid"),
        ],
    )
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "grid.json").read_text())
    # all four families x both tasks x two m values x two history lengths
    assert len(report["cells"]) == 4 * 2 * 2 * 2
    histories = {cell["T"] for cell in report["cells"]}
    assert histories == {0, 1}
    families = {cell["family"] for cell in report["cells"]}
    assert families == {"linear", "gradient_boosting", "shallow_nn", "shallow_lstm"}


def test_eval_grid_requires_inputs(runner, tmp_path):
    result = runner.invoke(main, ["eval", "--out-prefix", str(tmp_path / "x")])
    assert result.exit_code != 0
    assert result.output == (
        "Error: eval reads --dataset with --header, or --features with --tracking\n"
    )


def test_eval_threads_match_serial(runner, pipeline_dir, tmp_path):
    args = [
        "eval",
        "--dataset", str(pipeline_dir / "dataset.csv"),
        "--header", str(pipeline_dir / "dataset.json"),
        "--families", "linear",
        "--tasks", "regression",
        "--m-values", "0",
        "--runs", "2",
        "--no-baselines",
    ]
    r1 = runner.invoke(main, args + ["--out-prefix", str(tmp_path / "serial")])
    assert r1.exit_code == 0, r1.output
    r2 = runner.invoke(
        main, args + ["--out-prefix", str(tmp_path / "parallel"), "--threads", "2"]
    )
    assert r2.exit_code == 0, r2.output
    assert (tmp_path / "serial.json").read_text() == (
        tmp_path / "parallel.json"
    ).read_text()


@pytest.mark.parametrize("name", ["c-near", "c-over", "c-dist", "c-lin"])
def test_track_rejects_nan_constant(runner, pipeline_dir, tmp_path, name):
    out = tmp_path / "tracking.csv"
    manifest = pipeline_dir / "stream" / "manifest.json"
    result = runner.invoke(
        main,
        ["track", "--manifest", str(manifest), "--out", str(out), f"--{name}", "nan"],
    )
    assert isinstance(result.exception, SystemExit)  # a ClickException, no traceback
    constant = name.replace("-", "_")
    assert result.output == f"Error: {constant} must be a number, got nan\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["extract", "dataset", "eval"])
def test_wrong_tracking_csv_is_a_one_line_error(
    runner, pipeline_dir, tmp_path, command
):
    """A feature CSV passed as --tracking names the file instead of failing
    while unpacking its rows."""
    wrong = pipeline_dir / "features.csv"
    common = ["--tracking", str(wrong)]
    args = {
        "extract": [
            "--manifest", str(pipeline_dir / "stream" / "manifest.json"),
            "--out", str(tmp_path / "features.csv"), "--m", "3",
        ],
        "dataset": [
            "--features", str(wrong), "--classes", "8", "--m", "3",
            "--out", str(tmp_path / "dataset.csv"),
            "--header", str(tmp_path / "dataset.json"),
        ],
        "eval": ["--features", str(wrong), "--out-prefix", str(tmp_path / "grid")],
    }[command]
    result = runner.invoke(main, [command] + args + common)
    assert isinstance(result.exception, SystemExit)  # a ClickException, no traceback
    assert re.search(
        r"^Error: .*features\.csv: not a tracking CSV, its columns must be "
        r"frame, component, track_id, matched_step$",
        result.output,
        re.MULTILINE,
    )
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("fault", ["short", "not_int"])
@pytest.mark.parametrize("source", ["tracking.csv", "features.csv", "dataset.csv"])
def test_bad_csv_row_is_a_one_line_error(
    runner, pipeline_dir, tmp_path, source, fault
):
    """A data row of the wrong width or with a non-integer id names the file
    and the line instead of failing while unpacking or indexing it."""
    lines = (pipeline_dir / source).read_text().splitlines()
    fields = lines[2].split(",")
    lines[2] = ",".join(fields[:3] if fault == "short" else ["zero"] + fields[1:])
    bad = tmp_path / "in" / source
    bad.parent.mkdir()
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    out.mkdir()
    features, tracking = (
        bad if source == name else pipeline_dir / name
        for name in ("features.csv", "tracking.csv")
    )
    if source == "dataset.csv":
        args = [
            "eval", "--dataset", str(bad),
            "--header", str(pipeline_dir / "dataset.json"),
            "--families", "linear", "--out-prefix", str(out / "report"),
        ]
    else:
        args = [
            "dataset", "--features", str(features), "--tracking", str(tracking),
            "--classes", "8", "--m", "3",
            "--out", str(out / "dataset.csv"), "--header", str(out / "dataset.json"),
        ]
    result = runner.invoke(main, args)
    assert isinstance(result.exception, SystemExit)  # a ClickException, no traceback
    message = {
        "short": f"3 fields, expected {len(lines[0].split(','))}",
        "not_int": "invalid literal for int() with base 10: 'zero'",
    }[fault]
    assert result.output == f"Error: {bad}, line 3: {message}\n"
    assert not list(out.iterdir())


def test_eval_rejects_non_integer_t_values(runner, pipeline_dir, tmp_path):
    result = runner.invoke(
        main,
        [
            "eval",
            "--features", str(pipeline_dir / "features.csv"),
            "--tracking", str(pipeline_dir / "tracking.csv"),
            "--t-values", "0,x",
            "--out-prefix", str(tmp_path / "grid"),
        ],
    )
    assert isinstance(result.exception, SystemExit)  # a ClickException, no traceback
    assert result.output == "Error: --t-values must be integers, got '0,x'\n"
    assert not list(tmp_path.iterdir())


def _time_series_eval(runner, pipeline_dir, prefix, t_values):
    return runner.invoke(
        main,
        [
            "eval",
            "--features", str(pipeline_dir / "features.csv"),
            "--tracking", str(pipeline_dir / "tracking.csv"),
            "--families", "all", "--tasks", "all", "--m-values", "0,3",
            "--t-values", t_values, "--runs", "1",
            "--out-prefix", str(prefix),
        ],
    )


def test_eval_repeated_t_values_write_one_report(runner, pipeline_dir, tmp_path):
    once = _time_series_eval(runner, pipeline_dir, tmp_path / "once", "0")
    assert once.exit_code == 0, once.output
    twice = _time_series_eval(runner, pipeline_dir, tmp_path / "twice", "0,0")
    assert twice.exit_code == 0, twice.output
    for suffix in (".json", ".csv"):
        assert (tmp_path / f"once{suffix}").read_bytes() == (
            tmp_path / f"twice{suffix}"
        ).read_bytes()


def test_eval_checks_every_t_before_fitting(runner, pipeline_dir, tmp_path, monkeypatch):
    from segquality import evaluation

    def no_fit(*args, **kwargs):
        raise AssertionError("a model was fitted before every T was checked")

    monkeypatch.setattr(evaluation, "train_model", no_fit)
    for t_values, bad in (("0,11", 11), ("0,-1", -1)):
        result = _time_series_eval(runner, pipeline_dir, tmp_path / "grid", t_values)
        assert isinstance(result.exception, SystemExit)  # a ClickException
        assert result.output == f"Error: history must be in [0, 10], got {bad}\n"
        assert not list(tmp_path.iterdir())


@pytest.fixture(scope="module")
def clean_stream(tmp_path_factory):
    out = tmp_path_factory.mktemp("clean") / "stream"
    generate_stream(SynthConfig(num_frames=4, seed=1), out)
    return out


def _first_value(value):
    """Corruption that writes `value` over a tensor file's first payload value."""

    def corrupt(data):
        data[HEADER_SIZE : HEADER_SIZE + 4] = struct.pack("<f", value)
        return data

    return corrupt


def _rescaled(data):
    payload = np.frombuffer(bytes(data), "<f4", offset=HEADER_SIZE) * np.float32(0.9)
    return data[:HEADER_SIZE] + payload.astype("<f4").tobytes()


_NON_FINITE = r"non-finite value at index \(0, 0, 0\)"
_BAD_SUM = r"softmax rows deviate from sum 1 by 0\.1 .*"
_NEGATIVE = "softmax frame has negative probabilities"


@pytest.mark.parametrize(
    "command, name, corrupt, message",
    [
        ("track", "frame_00002_softmax", _first_value(float("nan")), _NON_FINITE),
        ("extract", "frame_00002_softmax", _first_value(float("nan")), _NON_FINITE),
        ("extract", "frame_00003_gt", _first_value(2.5), r"non-integral label at \(0, 0\)"),
        ("extract", "frame_00001_softmax", _rescaled, _BAD_SUM),
        ("track", "frame_00001_softmax", _rescaled, _BAD_SUM),
        ("extract", "frame_00001_softmax", _first_value(-0.5), _NEGATIVE),
        ("track", "frame_00001_softmax", _first_value(-0.5), _NEGATIVE),
    ],
    ids=[
        "track-nan", "extract-nan", "extract-gt", "extract-sum",
        "track-sum", "extract-negative", "track-negative",
    ],
)
def test_corrupt_frame_is_a_one_line_error(
    runner, clean_stream, tmp_path, command, name, corrupt, message
):
    """A frame that passes the manifest's size checks but holds a NaN, a
    non-integral label, a negative probability or rows that do not sum to 1
    ends the stage with one line naming the file, not a traceback."""
    stream = tmp_path / "stream"
    shutil.copytree(clean_stream, stream)
    path = stream / f"{name}.tmsg"
    path.write_bytes(bytes(corrupt(bytearray(path.read_bytes()))))
    out = tmp_path / "out.csv"
    result = runner.invoke(
        main, [command, "--manifest", str(stream / "manifest.json"), "--out", str(out)]
    )
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # a ClickException, no traceback
    assert re.fullmatch(f"Error: {re.escape(str(path))}: {message}\n", result.output)
    assert not out.exists()


def test_cli_import_leaves_scipy_spatial_sparse_and_linalg_unloaded():
    """No stage needs scipy.spatial (step 1's boundary distance is numpy), so
    importing the CLI loads neither it nor the sparse and linalg subpackages
    that it would pull in."""
    import segquality

    src = os.path.dirname(os.path.dirname(segquality.__file__))
    code = (
        "import sys, segquality.cli; "
        "print([m for m in ('scipy.spatial', 'scipy.sparse', 'scipy.linalg') "
        "if m in sys.modules])"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout == "[]\n"


def _series_inputs(pipeline_dir):
    return [
        "--features", str(pipeline_dir / "features.csv"),
        "--tracking", str(pipeline_dir / "tracking.csv"),
    ]


@pytest.fixture(scope="module")
def t0_inputs(runner, pipeline_dir, tmp_path_factory):
    """The eval options of the test stream's T = 0 dataset (m = 3)."""
    root = tmp_path_factory.mktemp("t0")
    paths = ["--out", str(root / "t0.csv"), "--header", str(root / "t0.json")]
    result = runner.invoke(
        main,
        ["dataset", "--features", str(pipeline_dir / "features.csv"), *paths,
         "--classes", "8", "--m", "3"],
    )
    assert result.exit_code == 0, result.output
    return ["--dataset", str(root / "t0.csv"), "--header", str(root / "t0.json")]


@pytest.mark.parametrize(
    "report, axes",
    [
        ("single_frame", ["--m-values", "all"]),
        ("time_series", ["--m-values", "0,3", "--t-values", "0,1"]),
    ],
)
def test_eval_reproduces_the_removed_grid_modes(
    runner, pipeline_dir, t0_inputs, tmp_path, report, axes
):
    """All families and tasks with an m (and T) axis write the reports of the
    removed `--grid single-frame` and `--grid time-series` modes, byte for
    byte, as recorded in eval_grid_sha256.json."""
    inputs = t0_inputs if report == "single_frame" else _series_inputs(pipeline_dir)
    prefix = tmp_path / "report"
    result = runner.invoke(
        main,
        ["eval", *inputs, "--families", "all", "--tasks", "all", *axes,
         "--runs", "1", "--out-prefix", str(prefix)],
    )
    assert result.exit_code == 0, result.output
    with open(os.path.join(DATA, "eval_grid_sha256.json"), encoding="utf-8") as fh:
        pins = json.load(fh)[report]["sha256"]
    for suffix, digest in pins.items():
        data = (tmp_path / f"report.{suffix}").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, suffix


def test_eval_full_m_by_t_grid(runner, pipeline_dir, tmp_path):
    result = runner.invoke(
        main,
        ["eval", *_series_inputs(pipeline_dir), "--families", "all", "--tasks", "all",
         "--m-values", "all", "--t-values", "0,1", "--runs", "1",
         "--out-prefix", str(tmp_path / "grid")],
    )
    assert result.exit_code == 0, result.output
    cells = json.loads((tmp_path / "grid.json").read_text())["cells"]
    assert len(cells) == 4 * 2 * 4 * 2
    keys = {(c["family"], c["task"], c["m"], c["T"]) for c in cells}
    assert keys == set(itertools.product(FAMILIES, TASKS, range(4), (0, 1)))


@pytest.mark.parametrize("source", ["dataset", "series"])
def test_eval_honours_families_and_no_baselines_on_either_input(
    runner, pipeline_dir, t0_inputs, tmp_path, source
):
    inputs = t0_inputs if source == "dataset" else _series_inputs(pipeline_dir)
    if source == "series":
        inputs = inputs + ["--t-values", "0"]
    reports = {}
    for name, extra in (("with", []), ("without", ["--no-baselines"])):
        result = runner.invoke(
            main,
            ["eval", *inputs, "--families", "linear", "--runs", "1", *extra,
             "--out-prefix", str(tmp_path / name)],
        )
        assert result.exit_code == 0, result.output
        reports[name] = json.loads((tmp_path / f"{name}.json").read_text())
    families = [(c["family"], c["task"]) for c in reports["with"]["cells"]]
    assert families == [("linear", "classification"), ("linear", "regression")]
    assert {b["family"] for b in reports["with"]["baselines"]} == {"naive", "entropy_gb"}
    assert reports["without"]["baselines"] == []
    assert reports["without"]["cells"] == reports["with"]["cells"]


_EVAL_INPUTS = "eval reads --dataset with --header, or --features with --tracking"


@pytest.mark.parametrize(
    "inputs, extra, message",
    [
        ("dataset+header+features+tracking", [], f"{_EVAL_INPUTS}, not both"),
        ("dataset+tracking", [], f"{_EVAL_INPUTS}, not both"),
        ("features", [], _EVAL_INPUTS),
        ("tracking", [], _EVAL_INPUTS),
        ("dataset", [], _EVAL_INPUTS),
        (
            "dataset+header",
            ["--t-values", "0"],
            "--t-values needs --features and --tracking; a dataset has one T",
        ),
        ("dataset+header", ["--threads", "0"], "workers must be >= 1, got 0"),
        ("features+tracking", ["--threads", "-3"], "workers must be >= 1, got -3"),
        ("dataset+header", ["--families", ","], "the grid has no families"),
        ("features+tracking", ["--families", ","], "the grid has no families"),
        ("dataset+header", ["--tasks", ""], "the grid has no tasks"),
        ("dataset+header", ["--m-values", ""], "the grid has no m values"),
        ("features+tracking", ["--m-values", ","], "the grid has no m values"),
        ("features+tracking", ["--t-values", ","], "the grid has no T values"),
        ("dataset+header", ["--families", "linear,lasso"], "unknown family 'lasso'"),
        ("features+tracking", ["--tasks", "ranking"], "unknown task 'ranking'"),
        ("dataset+header", ["--m-values", "all,1"], "--m-values must be integers, got 'all,1'"),
        ("dataset+header", ["--m-values", "4"], "m=4 outside [0, 3] for this dataset"),
        ("features+tracking", ["--m-values", "4"], "m=4 outside [0, 3] for this dataset"),
        ("features+tracking", ["--m-values=-1,2"], "m=-1 outside [0, 3] for this dataset"),
    ],
)
def test_eval_refusal_is_one_error_line_before_any_fit(
    runner, pipeline_dir, tmp_path, monkeypatch, inputs, extra, message
):
    from segquality import evaluation

    def no_fit(*args, **kwargs):
        raise AssertionError("a model was fitted before the grid was checked")

    monkeypatch.setattr(evaluation, "train_model", no_fit)
    paths = {
        "dataset": pipeline_dir / "dataset.csv",
        "header": pipeline_dir / "dataset.json",
        "features": pipeline_dir / "features.csv",
        "tracking": pipeline_dir / "tracking.csv",
    }
    args = [arg for name in inputs.split("+") for arg in (f"--{name}", str(paths[name]))]
    out = tmp_path / "report"
    result = runner.invoke(main, ["eval", *args, *extra, "--out-prefix", str(out)])
    assert isinstance(result.exception, SystemExit)  # a ClickException, no traceback
    assert result.output == f"Error: {message}\n"
    assert not list(tmp_path.iterdir())


def test_eval_tracking_csv_as_features_is_a_one_line_error(runner, pipeline_dir, tmp_path):
    tracking = pipeline_dir / "tracking.csv"
    result = runner.invoke(
        main,
        ["eval", "--features", str(tracking), "--tracking", str(tracking),
         "--out-prefix", str(tmp_path / "report")],
    )
    assert isinstance(result.exception, SystemExit)  # a ClickException, no traceback
    assert re.fullmatch(
        f"Error: {re.escape(str(tracking))}: unexpected feature CSV header [^\n]*\n",
        result.output,
    )
    assert "classes=" not in result.output  # a tracking CSV has no class count
    assert not list(tmp_path.iterdir())


def test_eval_threads_above_the_core_count_warn_in_one_line(pipeline_dir, tmp_path):
    """Over two T values, one pooled grid: one `Warning:` line."""
    import segquality

    src = os.path.dirname(os.path.dirname(segquality.__file__))
    code = (
        "import os, sys; os.cpu_count = lambda: 1; "
        "from segquality.cli import main; main(sys.argv[1:])"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, "eval", *_series_inputs(pipeline_dir),
         "--families", "linear", "--tasks", "classification", "--t-values", "0,1",
         "--runs", "2", "--threads", "2", "--out-prefix", str(tmp_path / "report")],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == "Warning: workers=2 exceeds os.cpu_count()=1\n"

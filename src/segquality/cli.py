"""Command-line pipeline: synth | extract | track | dataset | train | eval.

Every stage reads and writes on-disk artifacts, so stages are resumable and
their outputs are pure functions of the declared inputs and seeds.  Bad input
is a `ValueError` wherever it is found, and `main` ends any stage it stops
with a one-line error.
"""

from __future__ import annotations

import dataclasses
import json

import click

from .dataset import SplitSpec, read_dataset, write_dataset
# called by this name: perfbench/tracing.py times cli.assemble_dataset
from .dataset import build_time_series as assemble_dataset
from .evaluation import fit_split, run_experiment, run_time_series_experiment
from .meta_models import FAMILIES, TASKS, ModelSpec
from .pipeline import (
    apply_tracking,
    process_stream,
    read_feature_csv,
    read_tracking_csv,
    stream_segments,
    write_feature_csv,
    write_segment_csv,
    write_tracking_csv,
)
from .seg_metrics import feature_names
from .synth import SynthConfig, generate_stream
from .tensor_io import read_manifest
from .tracking import TrackingParams, track_stream


def _fail(message: str) -> None:
    raise click.ClickException(message)


def _tracking_options(func):
    defaults = TrackingParams()
    for name, default, help_text in reversed(
        [
            ("c-near", defaults.c_near, "same-frame grouping distance (pixels)"),
            ("c-over", defaults.c_over, "overlap ratio threshold"),
            ("c-dist", defaults.c_dist, "center distance threshold (pixels)"),
            ("c-lin", defaults.c_lin, "regression match distance (pixels)"),
            ("window", defaults.history_window, "frames kept for center regression"),
        ]
    ):
        func = click.option(
            f"--{name}", default=default, show_default=True, help=help_text
        )(func)
    return func


class _Main(click.Group):
    """The command group; a `ValueError` from any stage (`TensorFormatError`,
    `ManifestError` and `json.JSONDecodeError` are ones) ends it with one
    `Error:` line and exit status 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValueError as exc:
            raise click.ClickException(str(exc)) from None


@click.group(cls=_Main)
@click.version_option()
def main():
    """Segment-wise quality prediction for video segmentation streams."""


@main.command("synth")
@click.option("--out", required=True, type=click.Path(), help="output directory")
@click.option("--config", type=click.Path(exists=True), help="JSON config file")
@click.option("--height", type=int, default=None)
@click.option("--width", type=int, default=None)
@click.option("--classes", "num_classes", type=int, default=None)
@click.option("--blocks", "num_blocks", type=int, default=None)
@click.option("--frames", "num_frames", type=int, default=None)
@click.option("--objects", "num_objects", type=int, default=None)
@click.option("--error-rate", type=float, default=None)
@click.option("--jitter", type=int, default=None)
@click.option("--flash-rate", type=float, default=None)
@click.option("--cell-noise", type=float, default=None)
@click.option("--seed", type=int, default=None)
def synth_cmd(out, config, **overrides):
    """Generate a deterministic synthetic stream."""
    values = {}
    if config:
        with open(config, "r", encoding="utf-8") as fh:
            values.update(json.load(fh))
    values.update({k: v for k, v in overrides.items() if v is not None})
    known = {f.name for f in dataclasses.fields(SynthConfig)}
    unknown = set(values) - known
    if unknown:
        _fail(f"unknown synth config fields: {sorted(unknown)}")
    manifest = generate_stream(SynthConfig(**values), out)
    click.echo(
        f"wrote {manifest.num_frames} frames "
        f"({manifest.height}x{manifest.width}, c={manifest.num_classes}, "
        f"l={manifest.num_blocks}) to {out}"
    )


@main.command("extract")
@click.option("--manifest", "manifest_path", required=True, type=click.Path())
@click.option("--out", required=True, type=click.Path(), help="feature CSV path")
@click.option("--m", "num_stability", default=0, show_default=True, type=int)
@click.option("--tracking", "tracking_path", type=click.Path(exists=True))
@click.option("--segments-csv", type=click.Path(), help="also export segment table")
@click.option("--no-gt", is_flag=True, help="skip ground-truth quality targets")
def extract_cmd(manifest_path, out, num_stability, tracking_path, segments_csv, no_gt):
    """Compute per-segment dispersion/stability features (and quality targets)."""
    manifest = read_manifest(manifest_path)
    if not 0 <= num_stability <= manifest.num_blocks - 1:
        _fail(
            f"--m must be in [0, {manifest.num_blocks - 1}] for this stream, "
            f"got {num_stability}"
        )
    track_table = read_tracking_csv(tracking_path) if tracking_path else None
    rows_by_frame = process_stream(manifest, num_stability, with_gt=not no_gt)
    if track_table is not None:
        apply_tracking(rows_by_frame, track_table)
    write_feature_csv(rows_by_frame, out, manifest.num_classes, num_stability)
    if segments_csv:
        write_segment_csv(rows_by_frame, segments_csv)
    total = sum(len(rows) for rows in rows_by_frame)
    click.echo(f"wrote {total} segment rows to {out}")


@main.command("track")
@click.option("--manifest", "manifest_path", required=True, type=click.Path())
@click.option("--out", required=True, type=click.Path(), help="tracking CSV path")
@_tracking_options
def track_cmd(manifest_path, out, c_near, c_over, c_dist, c_lin, window):
    """Assign persistent track ids across the stream (labels and segments only)."""
    manifest = read_manifest(manifest_path)
    params = TrackingParams(
        c_near=c_near, c_over=c_over, c_dist=c_dist, c_lin=c_lin, history_window=window
    )
    shape = (manifest.height, manifest.width)
    tracks = track_stream(stream_segments(manifest), params, shape)
    write_tracking_csv(tracks, out)
    total = sum(len(frame) for frame in tracks)
    click.echo(f"wrote {total} assignments to {out}")


@main.command("dataset")
@click.option("--features", "features_path", required=True, type=click.Path(exists=True))
@click.option("--tracking", "tracking_path", type=click.Path(exists=True))
@click.option("--out", required=True, type=click.Path(), help="dataset CSV path")
@click.option("--header", "header_path", required=True, type=click.Path())
@click.option("--classes", "num_classes", required=True, type=int)
@click.option("--m", "num_stability", default=0, show_default=True, type=int)
@click.option("--history", "history", default=0, show_default=True, type=int)
def dataset_cmd(
    features_path, tracking_path, out, header_path, num_classes, num_stability, history
):
    """Assemble per-segment time-series records from feature and tracking CSVs."""
    rows_by_frame = read_feature_csv(features_path, num_classes, num_stability)
    if tracking_path:
        apply_tracking(rows_by_frame, read_tracking_csv(tracking_path))
    if not tracking_path and history > 0:
        _fail("--tracking is required when --history > 0")
    table = assemble_dataset(rows_by_frame, history, num_classes, num_stability)
    write_dataset(table, out, header_path)
    click.echo(f"wrote {len(table)} records to {out}")


@main.command("train")
@click.option("--dataset", "dataset_path", required=True, type=click.Path(exists=True))
@click.option("--header", "header_path", required=True, type=click.Path(exists=True))
@click.option("--out", required=True, type=click.Path(), help="model JSON path")
@click.option("--family", type=click.Choice(FAMILIES), required=True)
@click.option("--task", type=click.Choice(TASKS), required=True)
@click.option("--m", "num_stability", default=0, show_default=True, type=int)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--run", default=0, show_default=True, type=int, help="split run index")
@click.option("--sample-size", default=None, type=int)
@click.option("--epochs", default=200, show_default=True, type=int)
def train_cmd(
    dataset_path,
    header_path,
    out,
    family,
    task,
    num_stability,
    seed,
    run,
    sample_size,
    epochs,
):
    """Train one meta model on one deterministic split.

    With the same --seed and --sample-size, split --run r and its model inputs
    are those of eval's run r.  The model file also records the input layout
    and the standardizer.
    """
    spec = ModelSpec(family=family, task=task, seed=seed, max_epochs=epochs)
    table = read_dataset(dataset_path, header_path)
    split_spec = SplitSpec(sample_size=sample_size, base_seed=seed)
    model, test, (mean, std) = fit_split(table, spec, num_stability, split_spec, run)
    model.metadata["inputs"] = {
        "num_stability": num_stability,
        "history": table.history,
        "feature_names": feature_names(table.num_classes, num_stability),
        # test is (X, y) or (sequence, mask, y)
        "layout": "flat+mask" if len(test) == 2 else "sequence_oldest_first",
        "mean": mean.tolist(),
        "std": std.tolist(),
    }
    model.save(out)
    click.echo(f"trained {family}/{task} on run {run}, saved to {out}")


@main.command("eval")
@click.option("--dataset", "dataset_path", type=click.Path(exists=True))
@click.option("--header", "header_path", type=click.Path(exists=True))
@click.option("--out-prefix", required=True, help="writes <prefix>.json and <prefix>.csv")
@click.option(
    "--families",
    default="gradient_boosting,linear",
    show_default=True,
    help="comma-separated model families",
)
@click.option("--tasks", default="classification,regression", show_default=True)
@click.option("--m-values", default="0", show_default=True, help="comma-separated")
@click.option(
    "--grid",
    type=click.Choice(["single-frame", "time-series"]),
    help="run the full experiment shape: all four families, both tasks, and "
    "the m sweep (single-frame) or the T sweep (time-series)",
)
@click.option(
    "--features",
    "features_path",
    type=click.Path(exists=True),
    help="feature CSV (time-series grid input)",
)
@click.option(
    "--tracking",
    "tracking_path",
    type=click.Path(exists=True),
    help="tracking CSV (time-series grid input)",
)
@click.option("--classes", "num_classes", type=int, help="time-series grid input")
@click.option("--m", "num_stability", type=int, help="time-series grid input")
@click.option(
    "--t-values",
    default="0,1,2,3,4,5,6,7,8,9,10",
    show_default=True,
    help="history lengths for the time-series grid",
)
@click.option("--runs", default=10, show_default=True, type=int)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--sample-size", default=None, type=int)
@click.option("--threads", default=1, show_default=True, type=int)
@click.option("--no-baselines", is_flag=True)
def eval_cmd(
    dataset_path,
    header_path,
    out_prefix,
    families,
    tasks,
    m_values,
    grid,
    features_path,
    tracking_path,
    num_classes,
    num_stability,
    t_values,
    runs,
    seed,
    sample_size,
    threads,
    no_baselines,
):
    """Run the experiment grid and emit a mean/std report (JSON and CSV)."""
    split_spec = SplitSpec(sample_size=sample_size, runs=runs, base_seed=seed)
    family_list = [f.strip() for f in families.split(",") if f.strip()]
    task_list = [t.strip() for t in tasks.split(",") if t.strip()]
    if grid is not None:
        family_list = list(FAMILIES)
        task_list = list(TASKS)
    for family in family_list:
        if family not in FAMILIES:
            _fail(f"unknown family {family!r}")
    for task in task_list:
        if task not in TASKS:
            _fail(f"unknown task {task!r}")

    if grid == "time-series":
        for flag, value in (
            ("--features", features_path),
            ("--tracking", tracking_path),
            ("--classes", num_classes),
            ("--m", num_stability),
        ):
            if value is None:
                _fail(f"{flag} is required for the time-series grid")
        try:
            t_list = [int(v) for v in t_values.split(",") if v.strip()]
        except ValueError:
            _fail(f"--t-values must be integers, got {t_values!r}")
        rows_by_frame = read_feature_csv(features_path, num_classes, num_stability)
        apply_tracking(rows_by_frame, read_tracking_csv(tracking_path))
        report = run_time_series_experiment(
            rows_by_frame,
            num_classes,
            num_stability,
            t_list,
            family_list,
            task_list,
            split_spec,
            workers=threads,
        )
    else:
        if dataset_path is None or header_path is None:
            _fail("--dataset and --header are required")
        table = read_dataset(dataset_path, header_path)
        if grid == "single-frame":
            if table.history != 0:
                _fail("the single-frame grid needs a dataset built with history 0")
            m_list = list(range(table.num_stability + 1))
        else:
            try:
                m_list = [int(v) for v in m_values.split(",") if v.strip()]
            except ValueError:
                _fail(f"--m-values must be integers, got {m_values!r}")
        report = run_experiment(
            table,
            family_list,
            task_list,
            m_list,
            split_spec,
            include_baselines=not no_baselines,
            workers=threads,
        )
    report.save_json(f"{out_prefix}.json")
    report.save_csv(f"{out_prefix}.csv")
    click.echo(f"wrote report to {out_prefix}.json and {out_prefix}.csv")


if __name__ == "__main__":
    main()

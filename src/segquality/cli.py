"""Command-line pipeline: synth | extract | track | dataset | train | eval.

Every stage reads and writes on-disk artifacts, so stages are resumable and
their outputs are pure functions of the declared inputs and seeds.  Bad input
is a `ValueError` wherever it is found, and `main` ends any stage it stops
with a one-line error.
"""

from __future__ import annotations

import dataclasses
import json
import warnings

import click
from click.core import ParameterSource

from .dataset import MAX_HISTORY, SplitSpec, read_dataset, write_dataset
# called by this name: perfbench/tracing.py times cli.assemble_dataset
from .dataset import build_time_series as assemble_dataset
from .evaluation import check_grid, fit_split, run_experiment
from .meta_models import FAMILIES, TASKS, ModelSpec
from .pipeline import (
    apply_tracking,
    feature_csv_shape,
    process_stream,
    read_feature_csv,
    read_tracking_csv,
    stream_segments,
    write_feature_csv,
    write_segment_csv,
    write_tracking_csv,
)
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
    `Error:` line and exit status 1, and a warning is one `Warning:` line."""

    def invoke(self, ctx):
        formatwarning = warnings.formatwarning
        warnings.formatwarning = lambda message, *_: f"Warning: {message}\n"
        try:
            return super().invoke(ctx)
        except ValueError as exc:
            raise click.ClickException(str(exc)) from None
        finally:
            warnings.formatwarning = formatwarning


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
            values = json.load(fh)
        if not isinstance(values, dict):
            _fail(f"{config}: the synth config must be a JSON object")
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
    model, _, inputs = fit_split(table, spec, num_stability, split_spec, run)
    model.metadata["inputs"] = inputs
    model.save(out)
    click.echo(f"trained {family}/{task} on run {run}, saved to {out}")


def _axis(option: str, value: str, every=None, parse=str) -> list:
    """A comma-separated grid axis; `all` stands for every value in `every`."""
    if every is not None and value.strip() == "all":
        return list(every)
    try:
        return [parse(v.strip()) for v in value.split(",") if v.strip()]
    except ValueError:
        _fail(f"{option} must be integers, got {value!r}")


@main.command("eval")
@click.option("--dataset", "dataset_path", type=click.Path(exists=True))
@click.option("--header", "header_path", type=click.Path(exists=True))
@click.option("--features", "features_path", type=click.Path(exists=True))
@click.option("--tracking", "tracking_path", type=click.Path(exists=True))
@click.option("--out-prefix", required=True, help="writes <prefix>.json and <prefix>.csv")
@click.option("--families", default="gradient_boosting,linear", show_default=True)
@click.option("--tasks", default="classification,regression", show_default=True)
@click.option("--m-values", default="0", show_default=True)
@click.option("--t-values", default="0,1,2,3,4,5,6,7,8,9,10", show_default=True)
@click.option("--runs", default=10, show_default=True, type=int)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--sample-size", default=None, type=int)
@click.option("--threads", default=1, show_default=True, type=int)
@click.option("--no-baselines", is_flag=True)
@click.pass_context
def eval_cmd(
    ctx,
    dataset_path,
    header_path,
    features_path,
    tracking_path,
    out_prefix,
    families,
    tasks,
    m_values,
    t_values,
    runs,
    seed,
    sample_size,
    threads,
    no_baselines,
):
    """Run the (family, task, m, T) grid and emit a mean/std report (JSON and CSV).

    The input is --dataset with --header, one table at the T it was built
    with, or --features with --tracking, one table built at the largest of
    --t-values, each T read as its first T + 1 history slots.  --families,
    --tasks and --m-values are comma-separated lists, or `all`.
    """
    inputs = "eval reads --dataset with --header, or --features with --tracking"
    if (dataset_path or header_path) and (features_path or tracking_path):
        _fail(f"{inputs}, not both")
    if features_path or tracking_path:
        if not (features_path and tracking_path):
            _fail(inputs)
        t_list = _axis("--t-values", t_values, parse=int)
        num_classes, max_m = feature_csv_shape(features_path)
    else:
        if dataset_path is None or header_path is None:
            _fail(inputs)
        if ctx.get_parameter_source("t_values") is not ParameterSource.DEFAULT:
            _fail("--t-values needs --features and --tracking; a dataset has one T")
        table = read_dataset(dataset_path, header_path)
        max_m, t_list = table.num_stability, None
    grid = (
        _axis("--families", families, FAMILIES),
        _axis("--tasks", tasks, TASKS),
        _axis("--m-values", m_values, range(max_m + 1), int),
    )
    split_spec = SplitSpec(sample_size=sample_size, runs=runs, base_seed=seed)
    if features_path:
        # the grid against the CSV, then one table at the largest T and m
        check_grid(*grid, t_list, max_m, MAX_HISTORY)
        rows_by_frame = read_feature_csv(features_path, num_classes, max_m)
        apply_tracking(rows_by_frame, read_tracking_csv(tracking_path))
        table = assemble_dataset(rows_by_frame, max(t_list), num_classes, max(grid[2]))
    options = dict(include_baselines=not no_baselines, workers=threads)
    report = run_experiment(table, *grid, split_spec, t_values=t_list, **options)
    report.save_json(f"{out_prefix}.json")
    report.save_csv(f"{out_prefix}.csv")
    click.echo(f"wrote report to {out_prefix}.json and {out_prefix}.csv")


if __name__ == "__main__":
    main()

"""Spans and counters recorded from outside the program.

`Tracer` keeps every span (name, start, end, parent id) in memory; the run
writes them out when it ends.  `traced_layers` replaces public functions of
each segquality layer, at the module attribute its caller looks up, with a
wrapper that opens a span and records counts read from the arguments and
return values.  Nothing under `src/` changes; the originals are put back when
the context exits.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import Counter

SPAN_FIELDS = ("id", "name", "parent", "phase", "start", "end")


class Tracer:
    """In-memory span and counter store for one traced round."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.phase = ""
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [span_id, name, parent, self.phase, time.perf_counter(), None]
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield
        finally:
            record[5] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount=1) -> None:
        self.counts[(self.phase, name)] += amount

    def total(self, name: str, phase: str | None = None):
        return sum(
            v for (p, n), v in self.counts.items() if n == name and phase in (None, p)
        )

    def self_times(self) -> list[tuple[str, str, float]]:
        """(name, phase, self seconds) per span: duration minus direct children."""
        child_time = [0.0] * len(self.spans)
        for span_id, _, parent, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        return [
            (name, phase, (end - start) - child_time[span_id])
            for span_id, name, _, phase, start, end in self.spans
        ]

    def to_json(self) -> dict:
        return {
            "fields": list(SPAN_FIELDS),
            "spans": self.spans,
            "counts": [[p, n, v] for (p, n), v in sorted(self.counts.items())],
        }


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def _wrap(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(args, result)
        return result

    return wrapper


@contextlib.contextmanager
def traced_layers(tracer: Tracer):
    """Install span wrappers on every layer's public entry points."""
    from segquality import (
        cli,
        dataset,
        evaluation,
        heatmaps,
        pipeline,
        seg_metrics,
        segmentation,
        tensor_io,
        tracking,
    )

    count = tracer.count

    def tensor_bytes(args, result):
        count("tensor_io.read_bytes", 4 * result.size)  # stored as float32

    def segments_out(args, result):
        count("segmentation.segments", len(result))

    def labeled(args, result):
        count("segmentation.labelings")

    def feature_computed(args, result):
        count("seg_metrics.features_computed")

    def tracked(args, result):
        for a in result:
            count(f"tracking.step{a.matched_step}")
        count("tracking.tracks", len({a.track_id for a in result if a.matched_step == 5}))

    def csv_path(position):
        def after(args, result):
            count("pipeline.csv_bytes", os.path.getsize(args[position]))

        return after

    def features_written(args, result):
        csv_path(1)(args, result)
        count("seg_metrics.features_written", sum(len(rows) for rows in args[0]))

    def built(args, result):
        count("dataset.records", len(result))

    original_train = evaluation.train_model

    def train_model(spec, train, val):
        with tracer.span(f"meta_models.{spec.family}.fit"):
            model = original_train(spec, train, val)
        meta = model.metadata
        prefix = f"meta_models.{spec.family}"
        count(f"{prefix}.fits")
        if "iterations" in meta:
            count(f"{prefix}.iterative_fits")
            count(f"{prefix}.iterations", meta["iterations"])
            count(f"{prefix}.converged", int(meta["iterations"] < spec.gd_max_iter))
        if "rounds_trained" in meta:
            count(f"{prefix}.rounds_trained", meta["rounds_trained"])
            count(f"{prefix}.rounds_kept", meta["rounds_kept"])
        if "epochs_trained" in meta:
            count(f"{prefix}.epochs", meta["epochs_trained"])
            count(f"{prefix}.best_epoch", meta["best_epoch"])
        model.predict = _wrap(tracer, "meta_models.predict", model.predict)
        return model

    manifest_cls = tensor_io.StreamManifest
    targets = [
        (manifest_cls, "load_softmax", "tensor_io.read", tensor_bytes),
        (manifest_cls, "load_cell_state", "tensor_io.read", tensor_bytes),
        (manifest_cls, "load_ground_truth", "tensor_io.read", tensor_bytes),
        (heatmaps, "predicted_labels", "segmentation.components", None),
        (heatmaps, "dispersion_heatmaps", "heatmaps.dispersion", None),
        (heatmaps, "stability_heatmaps", "heatmaps.stability", None),
        (segmentation, "connected_components", "segmentation.components", segments_out),
        (segmentation, "label_components", "segmentation.components", labeled),
        (seg_metrics, "assemble_features", "seg_metrics.features", feature_computed),
        (seg_metrics, "adjusted_iou", "seg_metrics.iou", None),
        (tracking, "track_frame", "tracking.track", tracked),
        (pipeline, "extract_frame", "pipeline.extract_frame", None),
        (cli, "process_stream", "pipeline.process_stream", None),
        (cli, "apply_tracking", "pipeline.apply_tracking", None),
        (cli, "write_feature_csv", "pipeline.csv", features_written),
        (cli, "read_feature_csv", "pipeline.csv", csv_path(0)),
        (cli, "write_tracking_csv", "pipeline.csv", csv_path(1)),
        (cli, "read_tracking_csv", "pipeline.csv", csv_path(0)),
        (cli, "assemble_dataset", "dataset.build", built),
        (cli, "write_dataset", "dataset.io", None),
        (dataset, "read_dataset", "dataset.io", None),
        (evaluation, "run_experiment", "evaluation.run_experiment", None),
        (evaluation, "_prepare_split", "evaluation.pack", None),
        (evaluation, "split_indices", "dataset.split", None),
        (evaluation, "standardize", "dataset.standardize", None),
        (evaluation, "accuracy", "evaluation.score", None),
        (evaluation, "auroc", "evaluation.score", None),
        (evaluation, "regression_sigma", "evaluation.score", None),
        (evaluation, "r_squared", "evaluation.score", None),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in targets]
    saved.append((evaluation, "train_model", original_train))
    try:
        for owner, attr, name, after in targets:
            setattr(owner, attr, _wrap(tracer, name, getattr(owner, attr), after))
        evaluation.train_model = train_model
        yield tracer
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)

"""The benchmark's tracer wraps program functions by module attribute name.

A renamed or removed target would only show up in a `--trace 1` benchmark
run; this test enters the tracer around a small grid so it shows up here.
"""

import os
import sys

import numpy as np

from segquality import evaluation
from segquality.dataset import MetaRecordTable, SplitSpec
from segquality.seg_metrics import feature_count

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))

import tracing  # noqa: E402


def _tiny_table(n=40):
    rng = np.random.default_rng(0)
    iou = np.where(np.arange(n) % 3 == 0, 0.0, rng.uniform(0.2, 1.0, n))
    features = rng.normal(size=(n, 1, feature_count(3, 1)))
    features[:, 0, 0] += 2.0 * (iou == 0)
    return MetaRecordTable(
        num_classes=3,
        num_stability=1,
        history=0,
        frames=np.arange(n),
        components=np.zeros(n, dtype=np.int64),
        track_ids=np.arange(n),
        features=features,
        mask=np.ones((n, 1)),
        iou=iou,
    )


def test_grid_records_pack_and_standardize_spans():
    tracer = tracing.Tracer()
    with tracing.traced_layers(tracer):
        report = evaluation.run_experiment(
            _tiny_table(),
            ["linear"],
            ["classification"],
            [1],
            SplitSpec(runs=1),
            include_baselines=False,
        )
    assert len(report.cells) == 1
    names = {span[1] for span in tracer.spans}
    assert {
        "evaluation.run_experiment",
        "evaluation.pack",
        "dataset.split",
        "dataset.standardize",
        "meta_models.linear.fit",
        "meta_models.predict",
    } <= names

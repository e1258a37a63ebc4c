"""Stream-level orchestration: extraction, tracking, and dataset assembly."""

from __future__ import annotations

import csv
import warnings

import numpy as np

from . import heatmaps, seg_metrics, segmentation, tracking
from .dataset import (
    MetaRecordTable,
    build_time_series,
    check_finite_columns,
    for_each_csv_row,
)
from .seg_metrics import SegmentFeatures, feature_names
from .tensor_io import StreamManifest


def extract_frame(
    softmax: np.ndarray,
    cell_stack: np.ndarray | None,
    gt_labels: np.ndarray | None,
    frame_index: int,
    num_stability: int,
) -> tuple[segmentation.FrameSegments, list[SegmentFeatures]]:
    """Segments and feature rows for one frame.

    `num_stability` selects how many stability heatmaps go into the canonical
    feature vector; the ground truth is only needed for quality targets.
    """
    labels = heatmaps.predicted_labels(softmax)
    segments = segmentation.connected_components(labels)
    maps = heatmaps.dispersion_heatmaps(softmax)
    if num_stability > 0:
        if cell_stack is None:
            raise ValueError("cell states required when num_stability > 0")
        stability = heatmaps.stability_heatmaps(cell_stack)
        if len(stability) < num_stability:
            raise ValueError(
                f"stream provides {len(stability)} stability maps, "
                f"requested {num_stability}"
            )
        maps = np.concatenate([maps, stability[:num_stability]])
    features = seg_metrics.frame_features(segments, maps, softmax)
    if gt_labels is not None:
        ious = seg_metrics.frame_adjusted_iou(
            segments, gt_labels, segmentation.label_components(gt_labels)
        )
    else:
        ious = np.full(len(segments), np.nan)
    # feature columns 0-1 are the exact pixel counts size and size_in
    sizes = features[:, :2].astype(np.int64).tolist()
    rows = [
        SegmentFeatures(
            frame_index=frame_index,
            component_index=index,
            class_id=class_id,
            size=size,
            size_inner=size_inner,
            iou_adj=float(iou),
            features=vector,
            num_classes=softmax.shape[2],
            num_stability=num_stability,
        )
        for index, (class_id, (size, size_inner), vector, iou) in enumerate(
            zip(segments.classes.tolist(), sizes, features, ious)
        )
    ]
    return segments, rows


def process_stream(
    manifest: StreamManifest,
    num_stability: int,
    params: tracking.TrackingParams | None = None,
    with_gt: bool = True,
):
    """One pass over a stream: per-frame feature rows plus track assignments.

    Returns (rows_by_frame, assignments_by_frame); assignments are None when
    no tracking parameters are given.  Track ids are filled into the rows.
    """
    if not 0 <= num_stability <= manifest.num_blocks - 1:
        raise ValueError(
            f"num_stability must be in [0, {manifest.num_blocks - 1}], "
            f"got {num_stability}"
        )
    state = tracking.TrackState()
    shape = (manifest.height, manifest.width)
    rows_by_frame = []
    assignments_by_frame = [] if params is not None else None
    for frame_index in range(manifest.num_frames):
        softmax = manifest.load_softmax(frame_index)
        cell_stack = (
            manifest.load_cell_state(frame_index) if num_stability > 0 else None
        )
        gt = manifest.load_ground_truth(frame_index) if with_gt else None
        segments, rows = extract_frame(
            softmax, cell_stack, gt, frame_index, num_stability
        )
        if params is not None:
            assignments = tracking.track_frame(
                state, segments, frame_index, params, shape
            )
            by_component = {a.component_index: a.track_id for a in assignments}
            for row in rows:
                row.track_id = by_component[row.component_index]
            assignments_by_frame.append(assignments)
        rows_by_frame.append(rows)
    return rows_by_frame, assignments_by_frame


def stream_segments(manifest: StreamManifest):
    """Each frame's predicted segments, one frame at a time."""
    for frame_index in range(manifest.num_frames):
        labels = heatmaps.predicted_labels(manifest.load_softmax(frame_index))
        yield segmentation.connected_components(labels)


def assemble_dataset(
    rows_by_frame: list[list[SegmentFeatures]],
    history: int,
    num_classes: int,
    num_stability: int,
) -> MetaRecordTable:
    return build_time_series(rows_by_frame, history, num_classes, num_stability)


FEATURE_CSV_META = ("frame", "component", "class", "track_id", "iou_adj")


def write_feature_csv(rows_by_frame, path, num_classes: int, num_stability: int):
    """Per-segment feature table in canonical column order."""
    names = feature_names(num_classes, num_stability)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(FEATURE_CSV_META) + names)
        for rows in rows_by_frame:
            for row in rows:
                writer.writerow(
                    [
                        row.frame_index,
                        row.component_index,
                        row.class_id,
                        row.track_id,
                        repr(float(row.iou_adj)),
                    ]
                    + [repr(float(v)) for v in row.features]
                )


def read_feature_csv(path, num_classes: int, num_stability: int):
    """Inverse of write_feature_csv; returns rows grouped by frame."""
    names = feature_names(num_classes, num_stability)
    rows_by_frame: dict[int, list[SegmentFeatures]] = {}
    feature_rows = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != list(FEATURE_CSV_META) + names:
            raise ValueError(f"{path}: unexpected feature CSV header")
        size_idx = 5 + names.index("size")
        size_in_idx = 5 + names.index("size_in")

        def read_row(record):
            features = np.array([float(v) for v in record[5:]])
            feature_rows.append(features)
            row = SegmentFeatures(
                frame_index=int(record[0]),
                component_index=int(record[1]),
                class_id=int(record[2]),
                size=int(float(record[size_idx])),
                size_inner=int(float(record[size_in_idx])),
                iou_adj=float(record[4]),
                features=features,
                num_classes=num_classes,
                num_stability=num_stability,
                track_id=int(record[3]),
            )
            rows_by_frame.setdefault(row.frame_index, []).append(row)

        for_each_csv_row(reader, path, len(header), read_row)
    # iou_adj may be NaN (no ground truth); the features may not
    check_finite_columns(np.reshape(feature_rows, (-1, len(names))), path, names)
    if not rows_by_frame:
        return []
    last = max(rows_by_frame)
    return [rows_by_frame.get(i, []) for i in range(last + 1)]


TRACKING_CSV_COLUMNS = ("frame", "component", "track_id", "matched_step")


def write_tracking_csv(assignments_by_frame, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACKING_CSV_COLUMNS)
        for assignments in assignments_by_frame:
            for a in assignments:
                writer.writerow(
                    [a.frame_index, a.component_index, a.track_id, a.matched_step]
                )


def read_tracking_csv(path):
    """Track/step lookup keyed by (frame, component)."""
    table = {}
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(TRACKING_CSV_COLUMNS):
            raise ValueError(
                f"{path}: not a tracking CSV, its columns must be "
                f"{', '.join(TRACKING_CSV_COLUMNS)}"
            )

        def read_row(row):
            frame, component, track_id, step = (int(v) for v in row)
            table[(frame, component)] = (track_id, step)

        for_each_csv_row(reader, path, len(header), read_row)
    return table


def apply_tracking(rows_by_frame, track_table) -> None:
    """Fill track ids from a tracking CSV lookup into feature rows.

    Rows the lookup does not cover keep the track id they had (-1 unless
    tracked before); a warning gives their count.
    """
    missing = 0
    for rows in rows_by_frame:
        for row in rows:
            entry = track_table.get((row.frame_index, row.component_index))
            if entry is not None:
                row.track_id = entry[0]
            else:
                missing += 1
    if missing:
        warnings.warn(
            f"{missing} feature rows have no entry in the tracking CSV and "
            "keep their previous track id (-1 when untracked)",
            stacklevel=2,
        )


SEGMENT_CSV_COLUMNS = (
    "frame", "component", "class", "size", "size_in", "size_bd",
    "center_row", "center_col", "track_id",
)
_CENTER_ROW = feature_names(0, 0).index("center_row")


def write_segment_csv(rows_by_frame, path):
    """Exportable segment table (sizes, centers, track ids) from feature rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SEGMENT_CSV_COLUMNS)
        for rows in rows_by_frame:
            for row in rows:
                center = row.features[_CENTER_ROW : _CENTER_ROW + 2]
                writer.writerow(
                    [
                        row.frame_index,
                        row.component_index,
                        row.class_id,
                        row.size,
                        row.size_inner,
                        row.size - row.size_inner,
                        repr(float(center[0])),
                        repr(float(center[1])),
                        row.track_id,
                    ]
                )

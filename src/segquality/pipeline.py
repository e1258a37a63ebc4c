"""Stream-level orchestration: extraction, tracking, and dataset assembly."""

from __future__ import annotations

import warnings

import numpy as np

from . import heatmaps, seg_metrics, segmentation
from .dataset import check_finite_columns, read_csv, write_csv
from .seg_metrics import FeatureRows, feature_names
from .tensor_io import StreamManifest


def extract_frame(
    softmax: np.ndarray,
    cell_stack: np.ndarray | None,
    gt_labels: np.ndarray | None,
    frame_index: int,
    num_stability: int,
) -> tuple[segmentation.FrameSegments, FeatureRows]:
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
        ious = seg_metrics.frame_adjusted_iou(segments, gt_labels)
    else:
        ious = np.full(len(segments), np.nan)
    n = len(segments)
    rows = FeatureRows(
        frame_index=frame_index,
        num_stability=num_stability,
        components=np.arange(n, dtype=np.int64),
        classes=segments.classes.astype(np.int64),
        track_ids=np.full(n, -1, dtype=np.int64),
        iou=ious,
        features=features,
    )
    return segments, rows


def process_stream(
    manifest: StreamManifest, num_stability: int, with_gt: bool = True
) -> list[FeatureRows]:
    """One pass over a stream: each frame's feature rows, untracked (track
    ids -1; `apply_tracking` fills them from a tracking CSV)."""
    if not 0 <= num_stability <= manifest.num_blocks - 1:
        raise ValueError(
            f"num_stability must be in [0, {manifest.num_blocks - 1}], "
            f"got {num_stability}"
        )
    rows_by_frame = []
    for frame_index in range(manifest.num_frames):
        softmax = manifest.load_softmax(frame_index)
        cell_stack = (
            manifest.load_cell_state(frame_index) if num_stability > 0 else None
        )
        gt = manifest.load_ground_truth(frame_index) if with_gt else None
        try:
            _, rows = extract_frame(softmax, cell_stack, gt, frame_index, num_stability)
        except ValueError as exc:
            # the loaders checked shapes, finiteness and labels; what is left
            # to refuse is the softmax's content (a negative value, a bad sum)
            path = manifest.path(frame_index, "softmax")
            raise ValueError(f"{path}: {exc}") from None
        rows_by_frame.append(rows)
    return rows_by_frame


def stream_segments(manifest: StreamManifest):
    """Each frame's predicted segments, one frame at a time; a softmax that
    `extract` would refuse is refused here with the same message."""
    for frame_index in range(manifest.num_frames):
        softmax = manifest.load_softmax(frame_index)
        try:
            heatmaps.check_softmax(softmax)
        except ValueError as exc:
            raise ValueError(f"{manifest.path(frame_index, 'softmax')}: {exc}") from None
        yield segmentation.connected_components(heatmaps.predicted_labels(softmax))


FEATURE_CSV_META = ("frame", "component", "class", "track_id", "iou_adj")


def write_feature_csv(rows_by_frame, path, num_classes: int, num_stability: int):
    """Per-segment feature table in canonical column order."""
    columns = list(FEATURE_CSV_META) + feature_names(num_classes, num_stability)
    write_csv(path, columns, ([r.ids(), r.iou, r.features] for r in rows_by_frame))


def feature_csv_shape(path) -> tuple[int, int]:
    """The class count and m that a feature CSV's header names;
    `read_feature_csv` with them checks the whole header.  A header that
    does not start with the feature CSV's id columns is refused, with the
    first column that differs."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\r\n").split(",")
    for i, name in enumerate(FEATURE_CSV_META):
        if header[i : i + 1] != [name]:
            found = repr(header[i]) if i < len(header) else "none"
            raise ValueError(
                f"{path}: unexpected feature CSV header at column {i}: {found}, "
                f"expected {name!r}"
            )
    num_classes = sum(name.startswith("classprob_") for name in header)
    return num_classes, len({n.split("_")[0] for n in header if n.startswith("cellstab")})


def read_feature_csv(path, num_classes: int, num_stability: int):
    """Inverse of write_feature_csv; returns rows grouped by frame, with an
    empty record for every frame before the last that has no rows."""
    names = feature_names(num_classes, num_stability)
    columns = list(FEATURE_CSV_META) + names
    context = f"{path}: unexpected feature CSV header for classes={num_classes}"
    ids, values = read_csv(
        path, columns, 4, lambda mismatch: f"{context}, m={num_stability}: {mismatch}"
    )
    # iou_adj may be NaN (no ground truth); the features may not
    check_finite_columns(values[:, 1:], path, names)
    frames = ids[:, 0]
    # grouped by frame 0, 1, ... last, each frame's rows in file order
    order = np.argsort(frames, kind="stable")
    last = frames.max(initial=-1)
    groups = np.split(order, np.searchsorted(frames[order], np.arange(1, last + 1)))
    return [
        FeatureRows(
            frame_index=frame,
            num_stability=num_stability,
            components=ids[rows, 1],
            classes=ids[rows, 2],
            track_ids=ids[rows, 3],
            iou=values[rows, 0],
            features=values[rows, 1:],
        )
        for frame, rows in enumerate(groups[: last + 1])
    ]


TRACKING_CSV_COLUMNS = ("frame", "component", "track_id", "matched_step")


def write_tracking_csv(tracks_by_frame, path):
    """The tracker's `FrameTracks`, one row per segment."""
    write_csv(path, TRACKING_CSV_COLUMNS, ([t.table()] for t in tracks_by_frame))


def read_tracking_csv(path):
    """The tracking CSV's rows as an (n, 4) int64 array: frame, component,
    track id and matched step."""
    columns = ", ".join(TRACKING_CSV_COLUMNS)
    message = f"{path}: not a tracking CSV, its columns must be {columns}"
    return read_csv(path, TRACKING_CSV_COLUMNS, 4, lambda mismatch: message)[0]


def apply_tracking(rows_by_frame, track_table) -> None:
    """Fill track ids from `read_tracking_csv`'s table into feature rows.

    Rows the table does not cover keep the track id they had (-1 unless
    tracked before); a warning gives their count.
    """
    order = np.lexsort((track_table[:, 1], track_table[:, 0]))
    frames, components, track_ids = track_table[order, :3].T
    missing = 0
    for rows in rows_by_frame:
        # the frame's table rows, in component order
        lo, hi = np.searchsorted(frames, [rows.frame_index, rows.frame_index + 1])
        pos = lo + np.searchsorted(components[lo:hi], rows.components)
        found = pos < hi
        found[found] = components[pos[found]] == rows.components[found]
        rows.track_ids[found] = track_ids[pos[found]]
        missing += len(rows) - np.count_nonzero(found)
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

    def blocks(rows):
        ids = rows.ids()
        # feature columns 0-1 are the exact pixel counts size and size_in
        sizes = rows.features[:, :2].astype(np.int64)
        centers = rows.features[:, _CENTER_ROW : _CENTER_ROW + 2]
        return [ids[:, :3], sizes, sizes[:, :1] - sizes[:, 1:], centers, ids[:, 3]]

    write_csv(path, SEGMENT_CSV_COLUMNS, map(blocks, rows_by_frame))

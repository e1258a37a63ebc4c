"""Per-segment time-series records, split sampling, and standardization."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .seg_metrics import SegmentFeatures, feature_count, feature_names

MAX_HISTORY = 10


@dataclass
class SplitSpec:
    fractions: tuple[float, float, float] = (0.70, 0.10, 0.20)
    sample_size: int | None = None
    runs: int = 10
    base_seed: int = 0

    def __post_init__(self):
        if len(self.fractions) != 3 or abs(sum(self.fractions) - 1.0) > 1e-9:
            raise ValueError(f"fractions must sum to 1, got {self.fractions}")
        if min(self.fractions) <= 0:
            raise ValueError("fractions must be positive")
        if self.sample_size is not None and self.sample_size < 1:
            raise ValueError(f"sample_size must be >= 1, got {self.sample_size}")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.base_seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.base_seed}")


@dataclass
class MetaRecordTable:
    """Dense table of per-segment records with zero-filled, masked history.

    `features[i, s]` holds the feature vector of record i at history slot s
    (slot 0 = current frame, slot s = s frames back); `mask[i, s]` is 1 where
    the track provided that slot.  Only segments with non-empty interior get a
    record; history slots may come from empty-interior predecessors.
    """

    num_classes: int
    num_stability: int
    history: int
    frames: np.ndarray
    components: np.ndarray
    track_ids: np.ndarray
    features: np.ndarray
    mask: np.ndarray
    iou: np.ndarray
    labels: np.ndarray = field(init=False)

    def __post_init__(self):
        self.labels = (self.iou == 0.0).astype(np.int64)
        expected = feature_count(self.num_classes, self.num_stability)
        if self.features.shape[1:] != (self.history + 1, expected):
            raise ValueError(
                f"features must have shape (n, {self.history + 1}, {expected})"
            )

    def __len__(self) -> int:
        return len(self.iou)

    def flat_features(self, num_stability: int) -> np.ndarray:
        """Per-record concatenation of all history slots, each cut to its
        first m stability blocks (no mask columns)."""
        dim = feature_count(self.num_classes, num_stability)
        return self.features[:, :, :dim].reshape(len(self), -1)


def check_history(history: int) -> None:
    if not 0 <= history <= MAX_HISTORY:
        raise ValueError(f"history must be in [0, {MAX_HISTORY}], got {history}")


def build_time_series(
    rows_by_frame: list[list[SegmentFeatures]],
    history: int,
    num_classes: int,
    num_stability: int,
) -> MetaRecordTable:
    """Assemble MetaRecords from per-frame feature rows carrying track ids.

    History slot s of a record is filled from the segment with the same track
    id at `frame - s`; absent slots stay zero with mask 0.  When several
    same-frame segments share a track id, the largest (ties: first component)
    acts as the track's representative.
    """
    check_history(history)
    dim = feature_count(num_classes, num_stability)
    by_track: dict[tuple[int, int], SegmentFeatures] = {}
    for rows in rows_by_frame:
        for row in rows:
            if row.track_id < 0:
                continue
            key = (row.track_id, row.frame_index)
            best = by_track.get(key)
            if best is None or (-row.size, row.component_index) < (
                -best.size,
                best.component_index,
            ):
                by_track[key] = row

    frames, components, track_ids, feats, masks, ious = [], [], [], [], [], []
    for rows in rows_by_frame:
        for row in rows:
            if not row.has_interior:
                continue
            frames.append(row.frame_index)
            components.append(row.component_index)
            track_ids.append(row.track_id)
            slot_feats = np.zeros((history + 1, dim))
            slot_mask = np.zeros(history + 1)
            slot_feats[0] = row.vector(num_stability)
            slot_mask[0] = 1.0
            for back in range(1, history + 1):
                if row.track_id < 0:
                    break
                past = by_track.get((row.track_id, row.frame_index - back))
                if past is not None:
                    slot_feats[back] = past.vector(num_stability)
                    slot_mask[back] = 1.0
            feats.append(slot_feats)
            masks.append(slot_mask)
            ious.append(row.iou_adj)

    missing = int(np.isnan(ious).sum())
    if missing:
        raise ValueError(
            f"{missing} records have no quality target (iou_adj is NaN): "
            "features extracted with --no-gt cannot build a dataset"
        )
    n = len(frames)
    return MetaRecordTable(
        num_classes=num_classes,
        num_stability=num_stability,
        history=history,
        frames=np.array(frames, dtype=np.int64),
        components=np.array(components, dtype=np.int64),
        track_ids=np.array(track_ids, dtype=np.int64),
        features=(
            np.stack(feats) if n else np.zeros((0, history + 1, dim))
        ),
        mask=np.stack(masks) if n else np.zeros((0, history + 1)),
        iou=np.array(ious, dtype=np.float64),
    )


def split_indices(n: int, spec: SplitSpec, run: int):
    """Deterministic disjoint train/val/test index arrays for one run."""
    if run < 0:
        raise ValueError(f"run must be >= 0, got {run}")
    take = n if spec.sample_size is None else spec.sample_size
    if take > n:
        raise ValueError(f"sample_size {take} exceeds dataset size {n}")
    rng = np.random.default_rng([spec.base_seed, run])
    perm = rng.permutation(n)[:take]
    n_train = int(round(spec.fractions[0] * take))
    n_val = int(round(spec.fractions[1] * take))
    train = perm[:n_train]
    val = perm[n_train : n_train + n_val]
    test = perm[n_train + n_val :]
    if min(len(train), len(val), len(test)) == 0:
        raise ValueError(
            f"a split of {take} records leaves a part empty: {len(train)} train, "
            f"{len(val)} val, {len(test)} test"
        )
    return train, val, test


def standardize(train: np.ndarray, *others: np.ndarray):
    """Z-score all matrices with the training statistics (population std).

    Columns with zero training variance are mapped to 0 everywhere.  Returns
    the transformed matrices followed by the (mean, std) pair.
    """
    if len(train) == 0:
        raise ValueError("standardize needs a non-empty training set")
    mean = train.mean(axis=0)
    std = train.std(axis=0)
    live = std > 0
    safe = np.where(live, std, 1.0)

    def apply(x):
        out = (x - mean) / safe
        out[:, ~live] = 0.0
        return out

    return tuple(apply(x) for x in (train, *others)) + (mean, std)


def dataset_header(table: MetaRecordTable) -> dict:
    names = feature_names(table.num_classes, table.num_stability)
    return {
        "format": "segquality-dataset/1",
        "num_classes": table.num_classes,
        "num_stability": table.num_stability,
        "history": table.history,
        "feature_names": names,
    }


def _dataset_columns(num_classes: int, num_stability: int, history: int) -> list:
    names = feature_names(num_classes, num_stability)
    columns = ["frame", "component", "track_id", "iou_adj"]
    columns += [f"mask_{s}" for s in range(history + 1)]
    for s in range(history + 1):
        columns += [f"t{s}_{name}" for name in names]
    return columns


def _column_mismatch(got: list, expected: list) -> str:
    if len(got) != len(expected):
        return f"{len(got)} columns, expected {len(expected)}"
    i = next(i for i, (a, b) in enumerate(zip(got, expected)) if a != b)
    return f"column {i} is {got[i]!r}, expected {expected[i]!r}"


def for_each_csv_row(reader, path, width: int, read_row) -> None:
    """Call `read_row(row)` on every row left in a csv reader.

    A row without `width` fields, or one `read_row` rejects with a ValueError,
    raises a ValueError that names the file and the line.
    """
    for row in reader:
        try:
            if len(row) != width:
                raise ValueError(f"{len(row)} fields, expected {width}")
            read_row(row)
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None


def check_finite_columns(values: np.ndarray, path, names) -> None:
    """Reject the first non-finite entry of the (rows, columns) values read
    from a CSV of one header line and one line per row, naming its file, line
    and column in the message `for_each_csv_row` gives."""
    finite = np.isfinite(values)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise ValueError(
            f"{path}, line {row + 2}: {names[col]} is {values[row, col]}, "
            "not a finite number"
        )


def write_dataset(table: MetaRecordTable, csv_path, header_path=None) -> None:
    """Serialize a record table as CSV (one row per record) plus a JSON header."""
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            _dataset_columns(table.num_classes, table.num_stability, table.history)
        )
        for i in range(len(table)):
            row = [
                int(table.frames[i]),
                int(table.components[i]),
                int(table.track_ids[i]),
                repr(float(table.iou[i])),
            ]
            row += [int(v) for v in table.mask[i]]
            for s in range(table.history + 1):
                row += [repr(float(v)) for v in table.features[i, s]]
            writer.writerow(row)
    if header_path is not None:
        with open(header_path, "w", encoding="utf-8") as fh:
            json.dump(dataset_header(table), fh, indent=2, sort_keys=True)
            fh.write("\n")


def read_dataset(csv_path, header_path) -> MetaRecordTable:
    with open(header_path, "r", encoding="utf-8") as fh:
        header = json.load(fh)
    header_format = header.get("format") if isinstance(header, dict) else None
    if header_format != "segquality-dataset/1":
        raise ValueError(f"unsupported dataset header format: {header_format}")
    missing = [k for k in ("num_classes", "num_stability", "history") if k not in header]
    if missing:
        raise ValueError(f"{header_path}: dataset header lacks {', '.join(missing)}")
    for key in ("num_classes", "num_stability", "history"):
        value = header[key]
        if type(value) is not int or value < 0:  # bool is an int subclass
            raise ValueError(
                f"{header_path}: dataset header field {key} must be a "
                f"non-negative integer, got {value!r}"
            )
    num_classes = header["num_classes"]
    num_stability = header["num_stability"]
    history = header["history"]
    dim = feature_count(num_classes, num_stability)
    frames, components, track_ids, ious, masks, feats = [], [], [], [], [], []
    expected = _dataset_columns(num_classes, num_stability, history)
    with open(csv_path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        columns = next(reader, [])
        if columns != expected:
            raise ValueError(
                f"{csv_path} does not match its header {header_path} "
                f"(classes={num_classes}, m={num_stability}, history={history}): "
                + _column_mismatch(columns, expected)
            )

        def read_row(row):
            frames.append(int(row[0]))
            components.append(int(row[1]))
            track_ids.append(int(row[2]))
            ious.append(float(row[3]))
            base = 4
            masks.append([float(v) for v in row[base : base + history + 1]])
            base += history + 1
            values = np.array([float(v) for v in row[base:]])
            feats.append(values.reshape(history + 1, dim))

        for_each_csv_row(reader, csv_path, len(expected), read_row)
    n = len(frames)
    features = np.stack(feats) if n else np.zeros((0, history + 1, dim))
    mask = np.array(masks) if n else np.zeros((0, history + 1))
    iou = np.array(ious, dtype=np.float64)
    # iou_adj, masks and features: every value a model reads
    blocks = ((iou[:, None], 3), (mask, 4), (features.reshape(n, -1), 5 + history))
    for block, first in blocks:
        check_finite_columns(block, csv_path, expected[first:])
    return MetaRecordTable(
        num_classes=num_classes,
        num_stability=num_stability,
        history=history,
        frames=np.array(frames, dtype=np.int64),
        components=np.array(components, dtype=np.int64),
        track_ids=np.array(track_ids, dtype=np.int64),
        features=features,
        mask=mask,
        iou=iou,
    )

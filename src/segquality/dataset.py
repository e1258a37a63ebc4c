"""Per-segment time-series records, split sampling, and standardization."""

from __future__ import annotations

import csv
import itertools
import json
import operator
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .seg_metrics import FeatureRows, feature_count, feature_names

MAX_HISTORY = 10
SPLIT_FRACTIONS = (0.70, 0.10, 0.20)  # train, val, test


@dataclass
class SplitSpec:
    sample_size: int | None = None
    runs: int = 10
    base_seed: int = 0

    def __post_init__(self):
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

    def upto(self, history: int) -> MetaRecordTable:
        """The same records with history slots 0..history, as views of this
        table's arrays: the table `build_time_series` gives at that T.  The
        table itself at its own T."""
        if not 0 <= history <= self.history:
            raise ValueError(
                f"history must be in [0, {self.history}], got {history}"
            )
        if history == self.history:
            return self
        features, mask = self.features[:, : history + 1], self.mask[:, : history + 1]
        return replace(self, history=history, features=features, mask=mask)


def build_time_series(
    rows_by_frame: list[FeatureRows],
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
    if not 0 <= history <= MAX_HISTORY:
        raise ValueError(f"history must be in [0, {MAX_HISTORY}], got {history}")
    for rows in rows_by_frame:
        if not 0 <= num_stability <= rows.num_stability:
            raise ValueError(
                f"num_stability must be in [0, {rows.num_stability}], "
                f"got {num_stability}"
            )
    dim = feature_count(num_classes, num_stability)
    # the stream's rows in stream order; a leading empty block sets each shape
    blocks = [(np.zeros((0, 4), np.int64), np.zeros(0), np.zeros((0, dim)))]
    blocks += [(r.ids(), r.iou, r.features[:, :dim]) for r in rows_by_frame]
    ids, iou, vectors = (np.concatenate(column) for column in zip(*blocks))
    frames, components, tracks = ids[:, 0], ids[:, 1], ids[:, 3]
    # feature columns 0-1 are the sizes; a record needs a non-empty interior
    records = np.flatnonzero(vectors[:, 1] > 0)
    missing = int(np.isnan(iou[records]).sum())
    if missing:
        raise ValueError(
            f"{missing} records have no quality target (iou_adj is NaN): "
            "features extracted with --no-gt cannot build a dataset"
        )
    # One representative per (track, frame): sorted by track, frame, size
    # descending and component, the first row of each (track, frame) run.
    tracked = np.flatnonzero(tracks >= 0)
    sort_keys = components, -vectors[:, 0], frames, tracks
    order = tracked[np.lexsort([key[tracked] for key in sort_keys])]
    # (track, frame) as one int64 key: frame - s for s <= history stays in
    # [base, base + span), and untracked rows (track < 0) get negative keys.
    base = int(frames.min(initial=0)) - history
    span = int(frames.max(initial=0)) - base + 1
    if (int(tracks.max(initial=0)) + 1) * span > np.iinfo(np.int64).max:
        raise ValueError("track ids and frame indices too large for int64 join keys")
    keys = tracks[order] * span + (frames[order] - base)
    first = np.diff(keys, prepend=-1) != 0
    # a sentinel above every query keeps each search position in range
    keys = np.append(keys[first], np.iinfo(np.int64).max)
    representatives = order[first]

    n = len(records)
    features = np.zeros((n, history + 1, dim))
    mask = np.zeros((n, history + 1))
    features[:, 0] = vectors[records]
    mask[:, 0] = 1.0
    queries = np.maximum(tracks[records], -1) * span + (frames[records] - base)
    for back in range(1, history + 1):
        pos = np.searchsorted(keys, queries - back)
        found = keys[pos] == queries - back
        features[found, back] = vectors[representatives[pos[found]]]
        mask[found, back] = 1.0
    return MetaRecordTable(
        num_classes=num_classes,
        num_stability=num_stability,
        history=history,
        frames=frames[records],
        components=components[records],
        track_ids=tracks[records],
        features=features,
        mask=mask,
        iou=iou[records],
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
    n_train = int(round(SPLIT_FRACTIONS[0] * take))
    n_val = int(round(SPLIT_FRACTIONS[1] * take))
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
    """The column counts if they differ, then the first column that does."""
    pairs = enumerate(itertools.zip_longest(got, expected))
    i = next(i for i, (a, b) in pairs if a != b)
    found, wanted = (repr(c[i]) if i < len(c) else "none" for c in (got, expected))
    column = f"column {i} is {found}, expected {wanted}"
    if len(got) == len(expected):
        return column
    return f"{len(got)} columns, expected {len(expected)}; {column}"


def write_csv(path, columns, chunks) -> None:
    """Write a CSV of a header row and one row per record.

    Each chunk is a list of row-aligned (n,) or (n, k) arrays that holds the
    next n rows; only one chunk at a time is turned into Python values.  Each
    value is written as `str` of its Python value, so integers as digits and
    floats as their shortest round-trip repr.  Rows end in CRLF, like
    `csv.writer`.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\r\n")
        for blocks in chunks:
            parts = [(b[:, None] if b.ndim == 1 else b).tolist() for b in blocks]
            fh.writelines(
                ",".join(map(str, itertools.chain.from_iterable(row))) + "\r\n"
                for row in zip(*parts)
            )


def _check_keys(path, frames, components) -> None:
    """Reject the first row with a negative frame or component, or with the
    (frame, component) pair of an earlier row."""
    negative = np.flatnonzero((frames < 0) | (components < 0))
    if len(negative):
        i = negative[0]
        name = "frame" if frames[i] < 0 else "component"
        value = frames[i] if frames[i] < 0 else components[i]
        raise ValueError(f"{path}, line {i + 2}: {name} is {value}, not >= 0")
    # a stable sort keeps repeats of a pair adjacent, in file order
    order = np.lexsort((components, frames))
    repeat = (np.diff(frames[order]) == 0) & (np.diff(components[order]) == 0)
    if repeat.any():
        later, earlier = order[1:][repeat], order[:-1][repeat]
        j = later.argmin()
        raise ValueError(
            f"{path}, line {later[j] + 2}: frame {frames[later[j]]}, component "
            f"{components[later[j]]} repeats line {earlier[j] + 2}"
        )


def read_csv(path, columns, int_width: int, header_error):
    """Read a CSV of a header row and one row per segment or record.

    The header must equal `columns`, else `header_error(mismatch)` gives the
    message, `mismatch` naming the first column that differs.  Returns the
    first `int_width` columns as (n, int_width) int64 and the rest as
    float64.  Columns 0-1 are a frame and a component: each pair must be
    non-negative and unique.  A row with the wrong field count, or a value
    `int()` (first columns) or `float()` (the rest) rejects, raises a
    ValueError naming the file and the line.
    """
    width = len(columns)
    dtype = [("ints", np.int64, int_width), ("floats", np.float64, width - int_width)]
    with open(path, "r", encoding="utf-8") as fh:
        header = next(csv.reader([fh.readline()]), [])
        if header != list(columns):
            raise ValueError(header_error(_column_mismatch(header, list(columns))))
        # count the lines as loadtxt streams them, without holding them
        counter = itertools.count()
        lines = map(operator.itemgetter(0), zip(fh, counter))
        try:
            with warnings.catch_warnings():  # loadtxt warns on no lines
                warnings.simplefilter("ignore", UserWarning)
                table = np.loadtxt(lines, dtype, delimiter=",", comments=None, ndmin=1)
        except (ValueError, OverflowError):
            table = None
    if table is None or len(table) != next(counter):  # loadtxt skips blank lines
        _raise_bad_line(path, [int] * int_width + [float] * (width - int_width))
    _check_keys(path, table["ints"][:, 0], table["ints"][:, 1])
    return table["ints"], table["floats"]


def _raise_bad_line(path, parsers) -> None:
    """Parse a CSV's rows one by one, one parser per field, to name the line
    that the fast parse rejected."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader, None)  # the header
        for row in reader:
            try:
                if len(row) != len(parsers):
                    raise ValueError(f"{len(row)} fields, expected {len(parsers)}")
                for parse, value in zip(parsers, row):
                    parse(value)
            except (ValueError, OverflowError) as exc:
                raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
    raise ValueError(f"{path}: rows must be plain comma-separated numbers")


def check_finite_columns(values: np.ndarray, path, names) -> None:
    """Reject the first non-finite entry of the (rows, columns) values read
    from a CSV of one header line and one line per row, naming its file, line
    and column in the message `read_csv` gives."""
    finite = np.isfinite(values)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise ValueError(
            f"{path}, line {row + 2}: {names[col]} is {values[row, col]}, "
            "not a finite number"
        )


def write_dataset(table: MetaRecordTable, csv_path, header_path) -> None:
    """Serialize a record table as CSV (one row per record) plus a JSON header."""
    blocks = [
        np.stack([table.frames, table.components, table.track_ids], axis=1),
        table.iou,
        table.mask.astype(np.int64),
        table.features.reshape(len(table), -1),
    ]
    write_csv(
        csv_path,
        _dataset_columns(table.num_classes, table.num_stability, table.history),
        # 32 rows at a time: a T = 10 row holds about a thousand values
        ([b[i : i + 32] for b in blocks] for i in range(0, len(table), 32)),
    )
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
    expected = _dataset_columns(num_classes, num_stability, history)
    ids, values = read_csv(
        csv_path,
        expected,
        3,
        lambda mismatch: (
            f"{csv_path} does not match its header {header_path} "
            f"(classes={num_classes}, m={num_stability}, history={history}): {mismatch}"
        ),
    )
    # iou_adj, masks and features: every value a model reads
    check_finite_columns(values, csv_path, expected[3:])
    dim = feature_count(num_classes, num_stability)
    return MetaRecordTable(
        num_classes=num_classes,
        num_stability=num_stability,
        history=history,
        frames=ids[:, 0].copy(),
        components=ids[:, 1].copy(),
        track_ids=ids[:, 2].copy(),
        features=values[:, history + 2 :].reshape(len(ids), history + 1, dim).copy(),
        mask=values[:, 1 : history + 2].copy(),
        iou=values[:, 0].copy(),
    )

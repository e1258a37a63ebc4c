"""Output checks: the chain's files and the grid's cells against committed
reference values, and every online frame against the chain's files.

The reference values (`reference.json`) were recorded from the seed commit by
`reference.py`.  Counts must match exactly; feature-column and `iou_adj` sums
are compared with a relative tolerance of 1e-9 (`math.fsum` makes each sum
independent of row order, so only a change in how a value is computed can
move it, and a reordered reduction moves it by far less than 1e-9).

A grid cell fails when its test AUROC drops more than AUROC_TOL, or its test
R^2 more than R2_TOL, below the reference (absolute).  The tolerances leave
room for a meta-model that fits differently but as well (a converged logistic
regression, binned boosting splits); a rise is never a failure.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from workloads import NUM_STABILITY, GridResult

SUM_RTOL = 1e-9
AUROC_TOL = 0.03
R2_TOL = 0.05
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def load_reference(workload: str, seed: int) -> dict | None:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


class ChainOutputs:
    """The tracking, feature and dataset CSVs the chain wrote, parsed directly."""

    def __init__(self, paths):
        self.tracking = {}  # (frame, component) -> (track_id, step)
        self.components = {}  # frame -> set of component indices
        with open(paths.tracking, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            next(reader)
            for frame, comp, track, step in reader:
                self.tracking[(int(frame), int(comp))] = (int(track), int(step))
                self.components.setdefault(int(frame), set()).add(int(comp))
        self.features = {}  # (frame, component) -> (class, track_id, iou, vector)
        with open(paths.features, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            self.feature_names = next(reader)[5:]
            for row in reader:
                key = (int(row[0]), int(row[1]))
                vector = np.array([float(v) for v in row[5:]])
                self.features[key] = (int(row[2]), int(row[3]), float(row[4]), vector)
        self.records = 0
        self.zero_iou = 0
        with open(paths.dataset, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            next(reader)
            for row in reader:
                self.records += 1
                self.zero_iou += float(row[3]) == 0.0

    def values(self) -> dict:
        """The values `reference.json` holds for one workload and seed."""
        steps = [0] * 5
        for _, step in self.tracking.values():
            steps[step - 1] += 1
        vectors = [entry[3] for entry in self.features.values()]
        columns = np.array(vectors).T if vectors else np.zeros((0, 0))
        return {
            "segments": len(self.tracking),
            "steps": steps,
            "tracks": len({track for track, _ in self.tracking.values()}),
            "records": self.records,
            "zero_iou": self.zero_iou,
            "iou_sum": math.fsum(entry[2] for entry in self.features.values()),
            "feature_sums": [math.fsum(col) for col in columns],
        }


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=SUM_RTOL, abs_tol=SUM_RTOL)


def stage_problems(outputs: ChainOutputs, reference: dict | None) -> dict:
    """Problems found per chain stage; an empty dict means every stage passed."""
    problems = {"track": [], "extract": [], "dataset": []}
    got = outputs.values()
    # invariants that hold for every seed
    tracks = sorted({track for track, _ in outputs.tracking.values()})
    if tracks != list(range(len(tracks))):
        problems["track"].append("track ids are not 0..n-1")
    if set(outputs.features) != set(outputs.tracking):
        problems["extract"].append("feature rows do not match tracking rows")
    for key, (_, track, iou, _) in outputs.features.items():
        if outputs.tracking.get(key, (track,))[0] != track:
            problems["extract"].append(f"track id of {key} differs from tracking CSV")
            break
        if not 0.0 <= iou <= 1.0:
            problems["extract"].append(f"iou_adj {iou} of {key} outside [0, 1]")
            break
    size_in = outputs.feature_names.index("size_in")
    interior = sum(1 for entry in outputs.features.values() if entry[3][size_in] > 0)
    if outputs.records != interior:
        problems["dataset"].append(
            f"{outputs.records} records for {interior} segments with an interior"
        )
    if reference is not None:
        for key, stage in (("segments", "track"), ("steps", "track"), ("tracks", "track"),
                           ("records", "dataset"), ("zero_iou", "dataset")):
            if got[key] != reference[key]:
                problems[stage].append(f"{key}: got {got[key]}, reference {reference[key]}")
        if not _close(got["iou_sum"], reference["iou_sum"]):
            problems["extract"].append(
                f"iou_adj sum {got['iou_sum']!r} vs reference {reference['iou_sum']!r}"
            )
        ref_sums = reference["feature_sums"]
        if len(got["feature_sums"]) != len(ref_sums):
            problems["extract"].append("feature column count differs from reference")
        else:
            for name, a, b in zip(outputs.feature_names, got["feature_sums"], ref_sums):
                if not _close(a, b):
                    problems["extract"].append(f"sum of {name}: {a!r} vs reference {b!r}")
    return {stage: msgs for stage, msgs in problems.items() if msgs}


def frame_problem(index: int, output, outputs: ChainOutputs | None) -> str | None:
    """Compare one online frame with the chain's tracking and feature rows.

    Both paths run the same extraction and tracker on the same stream, so
    track ids, matched steps and the m=9 feature vectors must be identical.
    """
    rows, assignments = output
    if len(rows) != len(assignments):
        return f"{len(rows)} feature rows for {len(assignments)} assignments"
    if outputs is None:
        return None
    if {a.component_index for a in assignments} != outputs.components.get(index, set()):
        return "segments differ from the tracking CSV"
    for a in assignments:
        if outputs.tracking[(index, a.component_index)] != (a.track_id, a.matched_step):
            return f"component {a.component_index}: track/step differ from the tracking CSV"
    for row in rows:
        cls, _, _, vector = outputs.features[(index, row.component_index)]
        if row.class_id != cls or row.num_stability != NUM_STABILITY:
            return f"component {row.component_index}: class or m differs"
        if not np.array_equal(row.features, vector):
            return f"component {row.component_index}: features differ from the feature CSV"
    return None


_RANGES = {"acc": (0.0, 1.0), "auroc": (0.0, 1.0), "sigma": (0.0, 1.0), "r2": (-math.inf, 1.0)}
_TOLERANCES = {"auroc": AUROC_TOL, "r2": R2_TOL}


def reference_cells(grid: GridResult) -> dict:
    """The per-cell values `reference.json` holds: AUROC or R^2 per cell."""
    return {
        key: {name: value for name, value in means.items() if name in _TOLERANCES}
        for key, means in grid.cells.items()
    }


def grid_problems(grid: GridResult, reference: dict | None) -> dict:
    """Problems per grid cell (or "grid" for a failure of the whole grid)."""
    if grid.error:
        return {"grid": grid.error}
    problems = {}
    if len(grid.cells) != grid.fits:
        problems["grid"] = f"{len(grid.cells)} cells for {grid.fits} fits"
    ref_cells = reference.get("cells", {}) if reference else {}
    for key, means in grid.cells.items():
        for name, value in means.items():
            lo, hi = _RANGES[name]
            if not (math.isfinite(value) and lo <= value <= hi):
                problems[key] = f"{name} {value!r} non-finite or out of range"
                break
            floor = ref_cells.get(key, {}).get(name)
            if floor is not None and value < floor - _TOLERANCES[name]:
                problems[key] = f"{name} {value:.4f} below reference {floor:.4f}"
                break
        else:
            if reference is not None and key not in ref_cells:
                problems[key] = "cell missing from reference"
    return problems

"""Five-step overlap/center tracking for segmentation sequences.

Per frame, segments are processed largest first.  Step 1 ties together nearby
same-class segments of the current frame (they share one track id but remain
separate records); the steps 2-4 match each remaining segment group against
tracked entities of previous frames (shifted overlap / center distance, plain
overlap, and linear center extrapolation); step 5 mints fresh ids.  A segment
is matched at most once, and a previous-frame track is consumed by at most one
group per frame.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .segmentation import Segment


@dataclass
class TrackingParams:
    c_near: float = 10.0
    c_over: float = 0.35
    c_dist: float = 100.0
    c_lin: float = 50.0
    history_window: int = 5

    def __post_init__(self):
        if min(self.c_near, self.c_over, self.c_dist, self.c_lin) <= 0:
            raise ValueError("tracking constants must be positive")
        if self.c_over > 1:
            raise ValueError(f"c_over must be in (0, 1], got {self.c_over}")
        if self.history_window < 2:
            raise ValueError("history_window must be >= 2")


@dataclass
class TrackAssignment:
    frame_index: int
    component_index: int
    track_id: int
    matched_step: int


@dataclass
class _TrackEntry:
    frame_index: int
    mask: np.ndarray
    center: tuple[float, float]


class TrackState:
    """Per-track history of recent frame entities (one entry per frame)."""

    def __init__(self):
        self.next_id = 0
        self.entries: dict[int, list[_TrackEntry]] = {}
        self.classes: dict[int, int] = {}

    def new_id(self, class_id: int) -> int:
        track_id = self.next_id
        self.next_id += 1
        self.entries[track_id] = []
        self.classes[track_id] = class_id
        return track_id

    def entry_at(self, track_id: int, frame_index: int) -> _TrackEntry | None:
        for entry in self.entries[track_id]:
            if entry.frame_index == frame_index:
                return entry
        return None


def overlap(j, k_mask: np.ndarray) -> float:
    """Fraction of segment j's pixels covered by the pixel set k."""
    pixels = j.pixels if isinstance(j, Segment) else np.asarray(j)
    if len(pixels) == 0:
        raise ValueError("overlap of an empty segment")
    hit = k_mask[pixels[:, 0], pixels[:, 1]]
    return float(hit.sum()) / len(pixels)


def predict_center_linreg(history, horizon: int) -> tuple[float, float]:
    """Least-squares line through (frame, center) points, evaluated at horizon."""
    if len(history) < 2:
        raise ValueError("center regression needs >= 2 observations")
    t = np.array([frame for frame, _ in history], dtype=np.float64)
    coords = np.array([center for _, center in history], dtype=np.float64)
    t_mean = t.mean()
    denom = ((t - t_mean) ** 2).sum()
    out = []
    for axis in range(2):
        y = coords[:, axis]
        slope = ((t - t_mean) * (y - y.mean())).sum() / denom
        intercept = y.mean() - slope * t_mean
        out.append(slope * horizon + intercept)
    return out[0], out[1]


def _shift_mask(mask: np.ndarray, dy: int, dx: int) -> np.ndarray:
    out = np.zeros_like(mask)
    h, w = mask.shape
    ys = slice(max(dy, 0), h + min(dy, 0))
    xs = slice(max(dx, 0), w + min(dx, 0))
    ys_src = slice(max(-dy, 0), h + min(-dy, 0))
    xs_src = slice(max(-dx, 0), w + min(-dx, 0))
    if ys.start < ys.stop and xs.start < xs.stop:
        out[ys, xs] = mask[ys_src, xs_src]
    return out


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _boundary_distance(a: Segment, b: Segment) -> float:
    pa = a.boundary_pixels.astype(np.float64)
    pb = b.boundary_pixels.astype(np.float64)
    if len(pa) > len(pb):
        pa, pb = pb, pa
    tree = cKDTree(pb)
    dist, _ = tree.query(pa, k=1)
    return float(np.min(dist))


def _euclid(a, b) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


@dataclass
class _Group:
    root: int
    members: list[int]
    pixels: np.ndarray = field(default=None)
    mask: np.ndarray = field(default=None)
    center: tuple[float, float] = field(default=None)
    class_id: int = 0

    @property
    def size(self) -> int:
        return len(self.pixels)


def _segment_order(segments: list[Segment]) -> list[int]:
    return sorted(
        range(len(segments)),
        key=lambda i: (-segments[i].size, segments[i].first_pixel_flat),
    )


def _step2_candidates(state, group, frame_index, params, consumed):
    for track_id, entries in state.entries.items():
        if track_id in consumed or state.classes[track_id] != group.class_id:
            continue
        e1 = state.entry_at(track_id, frame_index - 1)
        if e1 is None:
            continue
        e2 = state.entry_at(track_id, frame_index - 2)
        if e2 is not None:
            delta = (e1.center[0] - e2.center[0], e1.center[1] - e2.center[1])
            shifted = _shift_mask(
                e1.mask, _round_half_up(delta[0]), _round_half_up(delta[1])
            )
            ratio = overlap(group.pixels, shifted)
            shifted_center = (e1.center[0] + delta[0], e1.center[1] + delta[1])
            dist = _euclid(group.center, shifted_center)
            if ratio > params.c_over or dist < params.c_dist:
                yield track_id, ratio, dist
        else:
            dist = _euclid(group.center, e1.center)
            if dist < params.c_dist:
                yield track_id, 0.0, dist


def _step3_candidates(state, group, frame_index, params, consumed):
    for track_id in state.entries:
        if track_id in consumed or state.classes[track_id] != group.class_id:
            continue
        e1 = state.entry_at(track_id, frame_index - 1)
        if e1 is None:
            continue
        ratio = overlap(group.pixels, e1.mask)
        if ratio >= params.c_over:
            yield track_id, ratio, _euclid(group.center, e1.center)


def _step4_candidates(state, group, frame_index, params, consumed):
    for track_id, entries in state.entries.items():
        if track_id in consumed or state.classes[track_id] != group.class_id:
            continue
        window = [
            e
            for e in entries
            if frame_index - params.history_window <= e.frame_index < frame_index
        ]
        if len(window) < 2:
            continue
        predicted = predict_center_linreg(
            [(e.frame_index, e.center) for e in window], frame_index
        )
        dist = _euclid(group.center, predicted)
        if dist < params.c_lin:
            yield track_id, 0.0, dist


_STEP_CANDIDATES = {2: _step2_candidates, 3: _step3_candidates, 4: _step4_candidates}


def track_frame(
    state: TrackState,
    segments: list[Segment],
    frame_index: int,
    params: TrackingParams,
    frame_shape,
) -> list[TrackAssignment]:
    """Assign track ids to one frame's segments and update the track state."""
    if not segments:
        return []
    order = _segment_order(segments)

    # Step 1: same-frame grouping of nearby same-class segments (transitive).
    root = list(range(len(segments)))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    matched_step = {}
    processed: list[int] = []
    rank = {idx: pos for pos, idx in enumerate(order)}
    for idx in order:
        seg = segments[idx]
        best = None
        for other in processed:
            if segments[other].class_id != seg.class_id:
                continue
            dist = _boundary_distance(seg, segments[other])
            if dist >= params.c_near:
                continue
            key = (dist, _euclid(seg.center, segments[other].center), rank[other])
            if best is None or key < best[0]:
                best = (key, other)
        if best is not None:
            root[idx] = find(best[1])
            matched_step[idx] = 1
        processed.append(idx)

    groups: dict[int, _Group] = {}
    for idx in order:
        r = find(idx)
        groups.setdefault(r, _Group(root=r, members=[])).members.append(idx)
    for group in groups.values():
        pixels = np.concatenate([segments[i].pixels for i in group.members])
        group.pixels = pixels
        group.mask = np.zeros(frame_shape, dtype=bool)
        group.mask[pixels[:, 0], pixels[:, 1]] = True
        group.center = (float(pixels[:, 0].mean()), float(pixels[:, 1].mean()))
        group.class_id = segments[group.root].class_id
    group_order = sorted(
        groups.values(), key=lambda g: (-g.size, segments[g.root].first_pixel_flat)
    )

    # Steps 2-4 match groups against tracked entities; each track is consumed
    # by at most one group per frame, each group matches at most once.
    assigned: dict[int, tuple[int, int]] = {}
    consumed: set[int] = set()
    for step in (2, 3, 4):
        finder = _STEP_CANDIDATES[step]
        for group in group_order:
            if group.root in assigned:
                continue
            candidates = list(finder(state, group, frame_index, params, consumed))
            if not candidates:
                continue
            track_id, _, _ = min(candidates, key=lambda c: (-c[1], c[2], c[0]))
            assigned[group.root] = (track_id, step)
            consumed.add(track_id)

    # Step 5: fresh ids for everything still unmatched.
    for group in group_order:
        if group.root not in assigned:
            assigned[group.root] = (state.new_id(group.class_id), 5)

    assignments = []
    for idx in range(len(segments)):
        r = find(idx)
        track_id, step = assigned[r]
        assignments.append(
            TrackAssignment(
                frame_index=frame_index,
                component_index=segments[idx].component_index,
                track_id=track_id,
                matched_step=matched_step.get(idx, step),
            )
        )
        segments[idx].track_id = track_id

    for group in group_order:
        track_id, _ = assigned[group.root]
        entry = _TrackEntry(
            frame_index=frame_index, mask=group.mask, center=group.center
        )
        self_entries = state.entries[track_id]
        self_entries.append(entry)
        cutoff = frame_index - params.history_window
        state.entries[track_id] = [
            e for e in self_entries if e.frame_index >= cutoff
        ]
    return assignments


def track_stream(
    per_frame_segments: Iterable[list[Segment]],
    params: TrackingParams,
    frame_shape,
) -> list[list[TrackAssignment]]:
    """Track a whole sequence of per-frame segment lists (any iterable, so a
    generator can produce one frame at a time)."""
    state = TrackState()
    results = []
    for frame_index, segments in enumerate(per_frame_segments):
        results.append(
            track_frame(state, segments, frame_index, params, frame_shape)
        )
    return results

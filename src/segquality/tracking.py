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
from collections import deque, namedtuple
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .segmentation import FrameSegments


@dataclass
class TrackingParams:
    c_near: float = 10.0
    c_over: float = 0.35
    c_dist: float = 100.0
    c_lin: float = 50.0
    history_window: int = 5

    def __post_init__(self):
        for name in ("c_near", "c_over", "c_dist", "c_lin"):
            if math.isnan(getattr(self, name)):
                raise ValueError(f"{name} must be a number, got nan")
        if min(self.c_near, self.c_over, self.c_dist, self.c_lin) <= 0:
            raise ValueError("tracking constants must be positive")
        if self.c_over > 1:
            raise ValueError(f"c_over must be in (0, 1], got {self.c_over}")
        window = self.history_window
        if isinstance(window, bool) or not isinstance(window, int):
            raise ValueError(f"history_window must be an integer, got {window!r}")
        if window < 2:
            raise ValueError("history_window must be >= 2")


# One row of a `FrameTracks` record, read-only.
TrackAssignment = namedtuple(
    "TrackAssignment", "frame_index component_index track_id matched_step"
)


@dataclass(eq=False)
class FrameTracks:
    """A frame's track assignments, as arrays indexed by component.

    Component i of frame `frame_index` has track id `track_ids[i]` and was
    matched by step `matched_steps[i]` (1-5).  Iterating yields one
    `TrackAssignment` per component, for callers that read them one at a time
    (the benchmark's tracer and frame check, `perfbench/`).
    """

    frame_index: int
    track_ids: np.ndarray  # (n,) int64
    matched_steps: np.ndarray  # (n,) int64

    def __len__(self) -> int:
        return len(self.track_ids)

    def table(self) -> np.ndarray:
        """(n, 4) int64 frame, component, track id and matched step of each
        component: the rows of the tracking CSV."""
        n = len(self)
        frames = np.full(n, self.frame_index, dtype=np.int64)
        components = np.arange(n, dtype=np.int64)
        return np.stack([frames, components, self.track_ids, self.matched_steps], 1)

    def __iter__(self):
        for row in self.table().tolist():
            yield TrackAssignment(*row)


@dataclass
class _Track:
    """What steps 2-4 read of a track: its class and the (frame, center)
    pairs of its latest `history_window` entries, oldest first."""

    class_id: int
    history: deque


class TrackState:
    """The tracks a later frame can still match, the next free id, and the
    track id of every pixel of the last frame that had segments.

    A track is dropped once its latest entry is `history_window` or more
    frames old: step 4 needs two entries in the last `history_window` frames,
    steps 2 and 3 one in the previous frame, so no step could match it again.
    Steps 2 and 3 read a track's pixels only when its latest entry is the
    previous frame, and then they are the entries of `track_map` equal to its
    id.
    """

    def __init__(self):
        self.next_id = 0
        self.tracks: dict[int, _Track] = {}
        self.last_frame: int | None = None
        self.track_map: np.ndarray | None = None


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


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


_CHUNK_PAIRS = 1 << 15


def _boundary_distance(pa: np.ndarray, pb: np.ndarray) -> float:
    """Least distance between two non-empty (n, 2) integer point sets: the
    sqrt of the least exact squared distance, taken over chunks of the larger
    set so that no temporary holds more than about `_CHUNK_PAIRS` pairs."""
    if len(pa) > len(pb):
        pa, pb = pb, pa

    def least_squared(chunk):
        squared = np.subtract.outer(pa[:, 0], chunk[:, 0]) ** 2
        squared += np.subtract.outer(pa[:, 1], chunk[:, 1]) ** 2
        return int(squared.min())

    step = max(1, _CHUNK_PAIRS // len(pa))
    return math.sqrt(
        min(least_squared(pb[start : start + step]) for start in range(0, len(pb), step))
    )


def _box_gap(a, b) -> float:
    """Distance between two boxes: no pixel of one is closer than this to a
    pixel of the other.  Rounded as the pixel distances are (sqrt of an exact
    integer), so it never exceeds the nearest pixel pair's distance."""
    dy = max(a[0] - b[1], b[0] - a[1], 0)
    dx = max(a[2] - b[3], b[2] - a[3], 0)
    return math.sqrt(dy * dy + dx * dx)


def _euclid(a, b) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


@dataclass
class _Group:
    """A step-1 group: its root segment, class, and the flat indices, rows,
    columns and center of its pixels (those of all its members)."""

    root: int
    class_id: int
    flat: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    center: tuple[float, float]

    @property
    def size(self) -> int:
        return len(self.flat)


def _make_group(root: int, class_id: int, flat: np.ndarray, width: int):
    rows, cols = np.divmod(flat, width)
    return _Group(
        root=root,
        class_id=class_id,
        flat=flat,
        rows=rows,
        cols=cols,
        center=(float(rows.mean()), float(cols.mean())),
    )


def _overlap(track_map: np.ndarray, group: _Group, track_id: int, dy=0, dx=0):
    """Share of the group's pixels covered by track `track_id` of `track_map`
    moved by (dy, dx); a pixel whose source lies outside the frame is not
    covered."""
    source = group.flat
    if dy or dx:
        h, w = track_map.shape
        rows = group.rows - dy
        cols = group.cols - dx
        inside = (rows >= 0) & (rows < h) & (cols >= 0) & (cols < w)
        source = source[inside] - (dy * w + dx)
    return np.count_nonzero(track_map.ravel()[source] == track_id) / group.size


def _segment_order(segments: FrameSegments) -> list[int]:
    """Largest first; ties in component order, which is the raster order of
    each segment's first pixel."""
    return np.argsort(-segments.sizes, kind="stable").tolist()


def _open_tracks(state, group, consumed):
    """Tracks of the group's class that no other group took in this frame."""
    for track_id, track in state.tracks.items():
        if track_id not in consumed and track.class_id == group.class_id:
            yield track_id, track


def _step2_candidates(state, group, frame_index, params, consumed):
    for track_id, track in _open_tracks(state, group, consumed):
        frame1, center1 = track.history[-1]
        if frame1 != frame_index - 1:
            continue
        if len(track.history) > 1 and track.history[-2][0] == frame_index - 2:
            center2 = track.history[-2][1]
            delta = (center1[0] - center2[0], center1[1] - center2[1])
            dy, dx = _round_half_up(delta[0]), _round_half_up(delta[1])
            ratio = _overlap(state.track_map, group, track_id, dy, dx)
            shifted_center = (center1[0] + delta[0], center1[1] + delta[1])
            dist = _euclid(group.center, shifted_center)
            if ratio > params.c_over or dist < params.c_dist:
                yield track_id, ratio, dist
        else:
            dist = _euclid(group.center, center1)
            if dist < params.c_dist:
                yield track_id, 0.0, dist


def _step3_candidates(state, group, frame_index, params, consumed):
    for track_id, track in _open_tracks(state, group, consumed):
        frame1, center1 = track.history[-1]
        if frame1 != frame_index - 1:
            continue
        ratio = _overlap(state.track_map, group, track_id)
        if ratio >= params.c_over:
            yield track_id, ratio, _euclid(group.center, center1)


def _step4_candidates(state, group, frame_index, params, consumed):
    start = frame_index - params.history_window
    for track_id, track in _open_tracks(state, group, consumed):
        window = [(frame, center) for frame, center in track.history if frame >= start]
        if len(window) < 2:
            continue
        dist = _euclid(group.center, predict_center_linreg(window, frame_index))
        if dist < params.c_lin:
            yield track_id, 0.0, dist


_STEP_CANDIDATES = {2: _step2_candidates, 3: _step3_candidates, 4: _step4_candidates}


def track_frame(
    state: TrackState,
    segments: FrameSegments,
    frame_index: int,
    params: TrackingParams,
    frame_shape,
) -> FrameTracks:
    """Assign track ids to one frame's segments and update the track state.

    Frames must come in increasing `frame_index` order and share one
    `frame_shape`, the shape of the segments' component map; a frame without
    segments leaves the state as it is.  The segments are not modified.
    """
    if state.last_frame is not None and frame_index <= state.last_frame:
        raise ValueError(
            f"frame_index must increase: got {frame_index} after {state.last_frame}"
        )
    if not segments:
        return FrameTracks(frame_index, np.zeros(0, np.int64), np.zeros(0, np.int64))
    frame_shape = tuple(frame_shape)
    if segments.comp_map.shape != frame_shape:
        raise ValueError(
            f"frame_shape {frame_shape} differs from the segments' frame "
            f"{segments.comp_map.shape}"
        )
    if state.track_map is not None and state.track_map.shape != frame_shape:
        raise ValueError(
            f"frame_shape {frame_shape} differs from the previous frame's "
            f"{state.track_map.shape}"
        )
    state.last_frame = frame_index
    cutoff = frame_index - params.history_window
    state.tracks = {
        track_id: track
        for track_id, track in state.tracks.items()
        if track.history[-1][0] > cutoff
    }
    width = frame_shape[1]
    classes = segments.classes.tolist()
    centers = segments.centers.tolist()
    inner = segments.inner.ravel()
    order = _segment_order(segments)
    # the flat pixel indices grouped by segment, raster order within each
    by_segment = np.argsort(segments.comp_map.ravel(), kind="stable")
    bounds = np.concatenate(([0], np.cumsum(segments.sizes))).tolist()

    def pixels(i):
        return by_segment[bounds[i] : bounds[i + 1]]

    # Step 1: same-frame grouping of nearby same-class segments (transitive).
    # each root is set once, to a segment that is its own root: no chains
    root = list(range(len(segments)))
    processed: list[int] = []
    rank = {idx: pos for pos, idx in enumerate(order)}
    boxes: dict[int, tuple[int, int, int, int]] = {}

    def box(i):
        # a segment's extreme pixels are boundary pixels: this is the box of
        # its boundary, computed when the segment is first compared; its
        # first and last pixels in raster order lie on its top and bottom rows
        if i not in boxes:
            flat = pixels(i)
            cols = flat % width
            top, bottom = int(flat[0]) // width, int(flat[-1]) // width
            boxes[i] = (top, bottom, int(cols.min()), int(cols.max()))
        return boxes[i]

    def boundary(i):
        flat = pixels(i)
        return np.stack(np.divmod(flat[~inner[flat]], width), axis=1)

    for idx in order:
        best = None
        for other in processed:
            if classes[other] != classes[idx]:
                continue
            # a pair whose boxes are c_near apart cannot be nearer: not measured
            if _box_gap(box(idx), box(other)) >= params.c_near:
                continue
            dist = _boundary_distance(boundary(idx), boundary(other))
            if dist >= params.c_near:
                continue
            key = (dist, _euclid(centers[idx], centers[other]), rank[other])
            if best is None or key < best[0]:
                best = (key, other)
        if best is not None:
            root[idx] = root[best[1]]
        processed.append(idx)

    members: dict[int, list[int]] = {}
    for idx in order:
        members.setdefault(root[idx], []).append(idx)
    groups = [
        _make_group(r, classes[r], np.concatenate([pixels(i) for i in m]), width)
        for r, m in members.items()
    ]
    group_order = sorted(groups, key=lambda g: (-g.size, g.root))

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
            assigned[group.root] = (state.next_id, 5)
            state.tracks[state.next_id] = _Track(
                group.class_id, deque(maxlen=params.history_window)
            )
            state.next_id += 1

    # a step-1 member keeps step 1 and takes its root's track id
    track_ids = np.empty(len(segments), dtype=np.int64)
    matched_steps = np.ones(len(segments), dtype=np.int64)
    for group in group_order:
        track_id, step = assigned[group.root]
        track_ids[members[group.root]] = track_id
        matched_steps[group.root] = step
        state.tracks[track_id].history.append((frame_index, group.center))
    # every pixel belongs to a segment
    state.track_map = track_ids.take(segments.comp_map)
    return FrameTracks(frame_index, track_ids, matched_steps)


def track_stream(
    per_frame_segments: Iterable[FrameSegments],
    params: TrackingParams,
    frame_shape,
) -> list[FrameTracks]:
    """Track a whole sequence of per-frame segments (any iterable, so a
    generator can produce one frame at a time)."""
    state = TrackState()
    results = []
    for frame_index, segments in enumerate(per_frame_segments):
        results.append(
            track_frame(state, segments, frame_index, params, frame_shape)
        )
    return results

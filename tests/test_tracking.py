import re
import tracemalloc

import numpy as np
import pytest

import oracles
from segquality.pipeline import stream_segments
from segquality.segmentation import connected_components
from segquality.synth import SynthConfig, generate_stream
from segquality.tracking import (
    TrackingParams,
    TrackState,
    _CHUNK_PAIRS,
    _boundary_distance,
    _make_group,
    _overlap,
    predict_center_linreg,
    track_frame,
    track_stream,
)

PARAMS = TrackingParams()


def _segments(labels):
    return connected_components(np.asarray(labels))


def _frames_to_assignments(frames):
    shape = np.asarray(frames[0]).shape
    per_frame = [_segments(f) for f in frames]
    return per_frame, track_stream(per_frame, PARAMS, shape)


def _group(segments, i, width):
    flat = np.flatnonzero(segments.comp_map.ravel() == i)
    return _make_group(i, int(segments.classes[i]), flat, width)


def _pixels(segments, i):
    """(n, 2) rows and columns of segment i."""
    return oracles.segment_pixels(segments, i)[0]


def _of_class(segments, class_id):
    """Index of the (first) segment of class `class_id`."""
    return segments.classes.tolist().index(class_id)


def _assignment(per_frame, assignments, frame, cls):
    """The assignment of the (first) class-`cls` segment of `frame`."""
    i = _of_class(per_frame[frame], cls)
    return next(a for a in assignments[frame] if a.component_index == i)


def _track_map(shape, *pixel_sets):
    """Track-id map with track i on the pixels of the i-th pixel array."""
    out = np.full(shape, -1, dtype=np.int64)
    for track_id, pixels in enumerate(pixel_sets):
        out[pixels[:, 0], pixels[:, 1]] = track_id
    return out


def _block(labels, value, r0, r1, c0, c1):
    labels[r0:r1, c0:c1] = value
    return labels


def test_overlap_identity_and_disjoint():
    labels = np.zeros((4, 4), dtype=int)
    labels[:2, :2] = 1
    segments = _segments(labels)
    i = _of_class(segments, 1)
    group = _group(segments, i, 4)
    same = _track_map((4, 4), _pixels(segments, i))
    assert _overlap(same, group, 0) == 1.0
    assert _overlap(same, group, 1) == 0.0
    assert _overlap(np.full((4, 4), -1), group, 0) == 0.0


def test_overlap_hand_value():
    labels = np.zeros((3, 4), dtype=int)
    labels[:2, :2] = 1  # segment 0: pixels (0, 0), (0, 1), (1, 0), (1, 1)
    group = _group(_segments(labels), 0, 4)
    track_map = _track_map((3, 4), np.array([[1, 1], [1, 2]]))
    assert _overlap(track_map, group, 0) == 0.25
    # moved by (1, 1), track pixel (0, 0) covers (1, 1); the sources of the
    # other three pixels lie above or left of the frame
    track_map = _track_map((3, 4), np.array([[0, 0]]))
    assert _overlap(track_map, group, 0, 1, 1) == 0.25
    assert _overlap(track_map, group, 0, -1, 0) == 0.0


def test_overlap_matches_set_oracle():
    """The map reader against set intersection on random layouts, with shifts
    that move track pixels out of every border (and must not wrap around)."""
    rng = np.random.default_rng(0)
    crossed = set()
    for _ in range(40):
        h, w = (int(v) for v in rng.integers(3, 12, size=2))
        current = _segments(rng.integers(0, 2, size=(h, w)))
        previous = _segments(rng.integers(0, 3, size=(h, w)))
        track_map = previous.comp_map.astype(np.int64)
        for i in range(len(current)):
            group = _group(current, i, w)
            j_set = set(map(tuple, _pixels(current, i).tolist()))
            for k in range(len(previous)):
                dy, dx = (int(v) for v in rng.integers(-4, 5, size=2))
                k_pixels = _pixels(previous, k) + np.array([dy, dx])
                crossed |= {
                    name
                    for name, out in (
                        ("top", k_pixels[:, 0] < 0),
                        ("bottom", k_pixels[:, 0] >= h),
                        ("left", k_pixels[:, 1] < 0),
                        ("right", k_pixels[:, 1] >= w),
                    )
                    if out.any()
                }
                expected = oracles.overlap_ratio(
                    j_set, set(map(tuple, k_pixels.tolist()))
                )
                actual = _overlap(track_map, group, k, dy, dx)
                assert actual == expected
    assert crossed == {"top", "bottom", "left", "right"}


def test_linreg_exact_line():
    pred = predict_center_linreg([(0, (10.0, 10.0)), (1, (20.0, 20.0))], 2)
    assert pred == (pytest.approx(30.0), pytest.approx(30.0))


def test_linreg_constant_centers():
    pred = predict_center_linreg([(0, (5.0, 7.0)), (1, (5.0, 7.0)), (3, (5.0, 7.0))], 9)
    assert pred == (pytest.approx(5.0), pytest.approx(7.0))


def test_linreg_ols_three_points():
    pred = predict_center_linreg(
        [(0, (0.0, 0.0)), (1, (10.0, 0.0)), (2, (18.0, 0.0))], 3
    )
    assert pred[0] == pytest.approx(82 / 3)
    assert pred[1] == pytest.approx(0.0)


def test_linreg_needs_two_points():
    with pytest.raises(ValueError, match=">= 2"):
        predict_center_linreg([(0, (1.0, 1.0))], 1)


def test_constant_video_keeps_ids():
    labels = np.zeros((20, 20), dtype=int)
    _block(labels, 1, 2, 7, 2, 7)
    _block(labels, 2, 10, 16, 10, 17)
    frames = [labels] * 50
    _, assignments = _frames_to_assignments(frames)
    first = {a.component_index: a.track_id for a in assignments[0]}
    for frame_assignments in assignments[1:]:
        current = {a.component_index: a.track_id for a in frame_assignments}
        assert current == first
    # three distinct segments, three distinct ids
    assert len(set(first.values())) == 3


def test_new_object_gets_next_id():
    base = np.zeros((20, 20), dtype=int)
    _block(base, 1, 2, 6, 2, 6)
    with_new = base.copy()
    _block(with_new, 2, 12, 16, 12, 16)
    _, assignments = _frames_to_assignments([base, with_new])
    ids_0 = {a.track_id for a in assignments[0]}
    new_segment = [
        a
        for a in assignments[1]
        if a.track_id not in ids_0
    ]
    assert len(new_segment) == 1
    assert new_segment[0].track_id == max(ids_0) + 1
    assert new_segment[0].matched_step == 5


def test_step2_shifted_overlap_match():
    """A moving segment is matched through the center-shift prediction."""
    shape = (100, 100)
    f0 = np.zeros(shape, dtype=int)
    _block(f0, 1, 48, 53, 48, 53)  # 5x5 centered (50, 50)
    f1 = np.zeros(shape, dtype=int)
    _block(f1, 1, 58, 63, 58, 63)  # centered (60, 60): delta (10, 10)
    f2 = np.zeros(shape, dtype=int)
    # shifted prediction covers rows 68-72, cols 68-72; j is 5x10 so the
    # overlap ratio |j ∩ shifted| / |j| = 25 / 50 = 0.5 > c_over
    _block(f2, 1, 68, 73, 68, 78)
    per_frame, assignments = _frames_to_assignments([f0, f1, f2])

    def tid(frame, cls):
        return _assignment(per_frame, assignments, frame, cls)

    assert tid(1, 1).track_id == tid(0, 1).track_id
    a2 = tid(2, 1)
    assert a2.track_id == tid(0, 1).track_id
    assert a2.matched_step == 2
    # sanity: the raw overlap ratio of the fixture is exactly 0.5
    seg1 = _pixels(per_frame[1], _of_class(per_frame[1], 1))
    group = _group(per_frame[2], _of_class(per_frame[2], 1), shape[1])
    assert _overlap(_track_map(shape, seg1), group, 0, 10, 10) == 0.5


def test_step4_linear_reappearance_match():
    """A segment absent for one frame is recovered by center extrapolation."""
    shape = (60, 40)
    frames = []
    for center_row in (20, 26):  # frames 0 and 1, moving +6 per frame
        f = np.zeros(shape, dtype=int)
        _block(f, 1, center_row - 2, center_row + 3, 18, 23)
        frames.append(f)
    frames.append(np.zeros(shape, dtype=int))  # frame 2: object gone
    f3 = np.zeros(shape, dtype=int)
    # extrapolated center at frame 3 is row 38; reappear at row 36 (within c_lin)
    _block(f3, 1, 34, 39, 18, 23)
    frames.append(f3)
    per_frame, assignments = _frames_to_assignments(frames)

    def assignment(frame):
        return _assignment(per_frame, assignments, frame, 1)

    assert assignment(1).track_id == assignment(0).track_id
    a3 = assignment(3)
    assert a3.track_id == assignment(0).track_id
    assert a3.matched_step == 4


def test_step3_plain_overlap_match():
    """A block moved by 3 px is too far for step 2's center distance but
    overlaps its previous position by 7/10."""
    shape = (40, 40)
    f0 = _block(np.zeros(shape, dtype=int), 1, 20, 30, 20, 30)
    f1 = _block(np.zeros(shape, dtype=int), 1, 23, 33, 20, 30)
    per_frame = [_segments(f) for f in (f0, f1)]
    assignments = track_stream(per_frame, TrackingParams(c_dist=0.5), shape)
    moved = _assignment(per_frame, assignments, 1, 1)
    assert moved.track_id == _assignment(per_frame, assignments, 0, 1).track_id
    assert moved.matched_step == 3


def test_step2_shifted_track_crossing_the_border():
    """The shifted track runs 2 px past the right border; the pixels left
    inside cover the whole clipped block, so step 2 matches on overlap."""
    shape = (20, 42)
    f0 = _block(np.zeros(shape, dtype=int), 1, 8, 14, 32, 38)
    f1 = _block(np.zeros(shape, dtype=int), 1, 8, 14, 35, 41)  # step 3, 3/6
    f2 = _block(np.zeros(shape, dtype=int), 1, 8, 14, 38, 42)  # shift (0, 3)
    per_frame = [_segments(f) for f in (f0, f1, f2)]
    assignments = track_stream(per_frame, TrackingParams(c_dist=0.5), shape)
    first = _assignment(per_frame, assignments, 0, 1).track_id
    assert _assignment(per_frame, assignments, 1, 1).matched_step == 3
    clipped = _assignment(per_frame, assignments, 2, 1)
    assert clipped.track_id == first
    assert clipped.matched_step == 2


def _gap_frames(gap):
    """A still 5x5 block in frames 0 and 1, absent for `gap` frames, then back."""
    shape = (40, 40)
    present = np.zeros(shape, dtype=int)
    _block(present, 1, 18, 23, 18, 23)
    absent = np.zeros(shape, dtype=int)
    return [present, present] + [absent] * gap + [present]


@pytest.mark.parametrize(
    "gap, step",
    [(PARAMS.history_window - 2, 4), (PARAMS.history_window - 1, 5)],
)
def test_step4_gap_boundary(gap, step):
    """Step 4 needs two entries in the last `history_window` frames; one frame
    later the track is gone and the block gets a fresh id."""
    per_frame, assignments = _frames_to_assignments(_gap_frames(gap))

    def block(frame):
        return _assignment(per_frame, assignments, frame, 1)

    back = block(len(per_frame) - 1)
    assert back.matched_step == step
    if step == 4:
        assert back.track_id == block(0).track_id
    else:
        # ids 0 (background) and 1 (first block) are taken
        assert back.track_id == 2


def test_state_keeps_only_tracks_of_the_last_window(tmp_path):
    manifest = generate_stream(SynthConfig(), tmp_path / "stream")
    state = TrackState()
    shape = (manifest.height, manifest.width)
    window = PARAMS.history_window
    ids_by_frame = []
    for f, segments in enumerate(stream_segments(manifest)):
        assignments = track_frame(state, segments, f, PARAMS, shape)
        ids_by_frame.append({a.track_id for a in assignments})
        recent = set().union(*ids_by_frame[max(0, f - window + 1) :])
        assert set(state.tracks) == recent


def test_frame_index_must_increase():
    state = TrackState()
    segments = _segments(np.zeros((5, 5), dtype=int))
    track_frame(state, segments, 3, PARAMS, (5, 5))
    for frame_index in (3, 2):
        with pytest.raises(ValueError, match="frame_index must increase"):
            track_frame(state, segments, frame_index, PARAMS, (5, 5))


def test_step1_groups_nearby_same_class_segments():
    shape = (30, 30)
    f = np.zeros(shape, dtype=int)
    _block(f, 1, 5, 10, 5, 10)
    _block(f, 1, 5, 10, 13, 18)  # 3 px gap, within c_near=10
    _block(f, 2, 20, 25, 20, 25)  # different class, irrelevant
    per_frame, assignments = _frames_to_assignments([f])
    by_class = {}
    for i, class_id in enumerate(per_frame[0].classes.tolist()):
        a = next(x for x in assignments[0] if x.component_index == i)
        by_class.setdefault(class_id, []).append(a)
    ones = by_class[1]
    assert len(ones) == 2
    assert ones[0].track_id == ones[1].track_id
    steps = sorted(a.matched_step for a in ones)
    assert steps == [1, 5]  # the smaller one grouped, the root minted a new id
    assert by_class[2][0].track_id != ones[0].track_id


def test_track_ids_unique_per_frame_at_entity_level():
    rng = np.random.default_rng(1)
    frames = []
    labels = np.zeros((30, 30), dtype=int)
    _block(labels, 1, 3, 9, 3, 9)
    _block(labels, 2, 15, 22, 14, 21)
    for t in range(12):
        frame = np.roll(labels, shift=(t, t // 2), axis=(0, 1))
        frames.append(frame)
    _, assignments = _frames_to_assignments(frames)
    for frame_assignments in assignments:
        roots = [a for a in frame_assignments if a.matched_step != 1]
        ids = [a.track_id for a in roots]
        assert len(ids) == len(set(ids))
        member_ids = {a.track_id for a in frame_assignments if a.matched_step == 1}
        assert member_ids <= set(ids)


def test_tracking_determinism():
    rng = np.random.default_rng(2)
    frames = [rng.integers(0, 3, size=(15, 15)) for _ in range(6)]
    _, first = _frames_to_assignments(frames)
    _, second = _frames_to_assignments(frames)
    assert [
        (a.frame_index, a.component_index, a.track_id, a.matched_step)
        for fa in first
        for a in fa
    ] == [
        (a.frame_index, a.component_index, a.track_id, a.matched_step)
        for fa in second
        for a in fa
    ]


def test_matched_segments_never_rematch():
    # every assignment carries exactly one step; steps are in 1..5
    rng = np.random.default_rng(3)
    frames = [rng.integers(0, 2, size=(12, 12)) for _ in range(5)]
    _, assignments = _frames_to_assignments(frames)
    for frame_assignments in assignments:
        for a in frame_assignments:
            assert 1 <= a.matched_step <= 5


def test_empty_frame_list_and_degenerate_frames():
    state = TrackState()
    empty = track_frame(state, [], 0, PARAMS, (5, 5))
    assert len(empty) == 0 and list(empty) == []
    assert empty.table().shape == (0, 4) and empty.table().dtype == np.int64
    labels = np.zeros((5, 5), dtype=int)
    segs = _segments(labels)
    out = track_frame(state, segs, 0, PARAMS, (5, 5))
    assert len(out) == 1 and out.matched_steps.tolist() == [5]


def test_frame_tracks_iterate_as_read_only_table_rows():
    labels = np.zeros((30, 30), dtype=int)
    _block(labels, 1, 5, 10, 5, 10)
    _block(labels, 1, 5, 10, 13, 18)  # 3 px from the first: a step-1 pair
    _block(labels, 2, 20, 25, 20, 25)
    state = TrackState()
    track_frame(state, _segments(labels), 3, PARAMS, labels.shape)
    out = track_frame(state, _segments(labels), 4, PARAMS, labels.shape)
    assert out.frame_index == 4
    assert out.track_ids.dtype == out.matched_steps.dtype == np.int64
    table = out.table()
    assert table.dtype == np.int64
    assert table.tolist() == [list(row) for row in out]
    assert table[:, 0].tolist() == [4] * len(out)
    assert table[:, 1].tolist() == list(range(len(out)))
    assert sorted(table[:, 3].tolist()) == [1, 2, 2, 2]
    rows = list(out)
    assert rows[1]._fields == (
        "frame_index", "component_index", "track_id", "matched_step"
    )
    with pytest.raises(AttributeError):
        rows[0].track_id = 7


def test_state_memory_is_one_map_plus_a_little_per_track(tmp_path):
    """Retained tracker state after a crowded stream: one int64 track-id map
    of the frame, plus at most 4 KB for each live track."""
    config = SynthConfig(height=128, width=256, num_objects=40, num_frames=30, seed=0)
    manifest = generate_stream(config, tmp_path / "stream")
    shape = (manifest.height, manifest.width)
    per_frame = list(stream_segments(manifest))
    tracemalloc.start()
    try:
        state = TrackState()
        for f, segments in enumerate(per_frame):
            track_frame(state, segments, f, PARAMS, shape)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(state.tracks) > 40
    assert retained < 8 * shape[0] * shape[1] + 4096 * len(state.tracks)


def test_tracking_params_validation():
    with pytest.raises(ValueError, match="positive"):
        TrackingParams(c_near=0)
    for name in ("c_near", "c_over", "c_dist", "c_lin"):
        with pytest.raises(ValueError, match=f"^{name} must be a number, got nan"):
            TrackingParams(**{name: float("nan")})
    with pytest.raises(ValueError, match="c_over"):
        TrackingParams(c_over=1.5)
    with pytest.raises(ValueError, match="history_window"):
        TrackingParams(history_window=1)
    # a non-integer window used to fail at the first frame, inside deque
    for window in (2.5, 3.0, True, "5", np.int64(3)):
        message = f"history_window must be an integer, got {window!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TrackingParams(history_window=window)


def test_step1_measures_no_distance_for_far_pairs(monkeypatch):
    import segquality.tracking as tracking

    measured = []

    def counting_distance(pa, pb):
        measured.append((len(pa), len(pb)))
        return _boundary_distance(pa, pb)

    monkeypatch.setattr(tracking, "_boundary_distance", counting_distance)
    far = np.zeros((40, 60), dtype=int)
    _block(far, 1, 2, 8, 2, 8)
    _block(far, 1, 30, 37, 50, 57)  # same class, boxes 42 px apart
    _, assignments = _frames_to_assignments([far])
    assert measured == []
    assert sorted(a.matched_step for a in assignments[0]) == [5, 5, 5]
    # boxes 8 px apart along each axis are 11.3 px >= c_near apart: not measured
    _block(far, 1, 15, 19, 15, 19)
    _, assignments = _frames_to_assignments([far])
    assert measured == []
    # a 3 px gap needs the distance, and the pair is grouped
    near = _block(np.zeros((30, 30), dtype=int), 1, 5, 10, 5, 10)
    _block(near, 1, 5, 10, 13, 18)
    _, assignments = _frames_to_assignments([near])
    assert len(measured) == 1
    assert sorted(a.matched_step for a in assignments[0]) == [1, 5, 5]


def _point_sets(rng, n, m, span):
    return rng.integers(0, span, (n, 2)), rng.integers(0, span, (m, 2))


def test_boundary_distance_matches_the_all_pairs_oracle():
    rng = np.random.default_rng(21)
    cases = [
        # disjoint sets: no point in common
        (np.array([[0, 0], [0, 1]]), np.array([[5, 7], [9, 9]])),
        # a shared point is distance 0
        (np.array([[3, 4], [8, 8]]), np.array([[8, 8]])),
        # single points
        (np.array([[2, 3]]), np.array([[7, 15]])),
        # ties: four points at distance 5 from the center
        (np.array([[10, 10]]), np.array([[13, 14], [7, 6], [14, 7], [6, 13]])),
    ]
    cases += [_point_sets(rng, *rng.integers(1, 60, 2), 40) for _ in range(40)]
    # larger than one chunk, in either order of the arguments
    big = _point_sets(rng, 300, 400, 2000)
    assert len(big[0]) * len(big[1]) > 2 * _CHUNK_PAIRS
    cases += [big, _point_sets(rng, 1, 100_000, 100_000)]
    for pa, pb in cases:
        expected = oracles.boundary_distance(pa, pb)
        assert _boundary_distance(pa, pb) == expected
        assert _boundary_distance(pb, pa) == expected


def test_boundary_distance_of_large_sets_allocates_under_a_megabyte():
    """A background-sized boundary against another: a million pairs, measured
    a chunk at a time."""
    pa, pb = _point_sets(np.random.default_rng(5), 1000, 1000, 4000)
    tracemalloc.start()
    try:
        _boundary_distance(pa, pb)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_frame_shape_must_be_the_segments_frame():
    segments = _segments(np.zeros((8, 10), dtype=int))
    with pytest.raises(
        ValueError,
        match=r"^frame_shape \(10, 8\) differs from the segments' frame \(8, 10\)$",
    ):
        track_frame(TrackState(), segments, 0, PARAMS, (10, 8))


def test_frame_shape_must_stay_the_previous_frames():
    state = TrackState()
    track_frame(state, _segments(np.zeros((8, 10), dtype=int)), 0, PARAMS, (8, 10))
    with pytest.raises(
        ValueError,
        match=r"^frame_shape \(10, 8\) differs from the previous frame's \(8, 10\)$",
    ):
        track_frame(state, _segments(np.zeros((10, 8), dtype=int)), 1, PARAMS, (10, 8))
    assert state.last_frame == 0


def _random_layouts(rng, h, w, frames):
    """Label frames of a few same- and different-class blocks that drift,
    vanish for a frame or two and come back, over a little label noise."""
    blocks = []
    for _ in range(int(rng.integers(2, 7))):
        size = rng.integers(2, 7, size=2)
        start = rng.uniform((0, 0), (h - size[0], w - size[1]))
        velocity = rng.uniform(-2, 2, size=2)
        blocks.append((int(rng.integers(1, 4)), size, start, velocity))
    for t in range(frames):
        labels = np.where(rng.random((h, w)) < 0.02, rng.integers(0, 4, (h, w)), 0)
        for class_id, size, start, velocity in blocks:
            if rng.random() < 0.15:
                continue
            r, c = np.clip(start + t * velocity, 0, (h - size[0], w - size[1]))
            r, c = int(r), int(c)
            labels[r : r + size[0], c : c + size[1]] = class_id
        yield labels


def test_tracker_invariants_on_random_layouts():
    """Seeded random streams: one assignment per segment in component order,
    step-1 members share a same-class root's id, no id serves two groups of
    a frame, and step 5 issues the next ids, above every id issued before."""
    steps = set()
    for seed in range(12):
        rng = np.random.default_rng(seed)
        h, w = (int(v) for v in rng.integers(12, 40, size=2))
        # a small center distance leaves some matches to steps 3 and 4
        params = TrackingParams(
            c_near=float(rng.uniform(1, 10)), c_dist=float(rng.choice([1.0, 100.0]))
        )
        state = TrackState()
        issued = 0
        for f, labels in enumerate(_random_layouts(rng, h, w, 15)):
            segments = _segments(labels)
            out = track_frame(state, segments, f, params, (h, w))
            assert [a.component_index for a in out] == list(range(len(segments)))
            assert {a.frame_index for a in out} == {f}
            classes = segments.classes.tolist()
            roots = {
                a.track_id: classes[a.component_index]
                for a in out
                if a.matched_step != 1
            }
            assert len(roots) == sum(a.matched_step != 1 for a in out)
            for a in out:
                if a.matched_step == 1:
                    assert roots[a.track_id] == classes[a.component_index]
            fresh = sorted(a.track_id for a in out if a.matched_step == 5)
            assert fresh == list(range(issued, issued + len(fresh)))
            assert all(
                a.track_id < issued for a in out if a.matched_step in (2, 3, 4)
            )
            issued += len(fresh)
            assert state.next_id == issued
            steps |= {a.matched_step for a in out}
    assert steps == {1, 2, 3, 4, 5}

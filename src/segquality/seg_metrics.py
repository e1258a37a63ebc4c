"""Segment-level aggregation of heatmaps into feature vectors and IoU targets."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .segmentation import FrameSegments, Segment, label_components

BASE_FEATURE_COUNT = 22  # 5 sizes + 2 center + 3 dispersions x 5 aggregates
STABILITY_FEATURE_COUNT = 5

_DISPERSIONS = ("entropy", "varratio", "margin")
_AGGREGATES = ("mean", "in", "bd", "rel", "in_rel")


def feature_count(num_classes: int, num_stability: int) -> int:
    return BASE_FEATURE_COUNT + num_classes + STABILITY_FEATURE_COUNT * num_stability


def feature_names(num_classes: int, num_stability: int) -> list[str]:
    """Canonical feature order; external contract for CSV headers and models."""
    names = ["size", "size_in", "size_bd", "size_rel", "size_in_rel"]
    names += ["center_row", "center_col"]
    for disp in _DISPERSIONS:
        names += [f"{disp}_{agg}" for agg in _AGGREGATES]
    names += [f"classprob_{y}" for y in range(num_classes)]
    for j in range(1, num_stability + 1):
        names += [f"cellstab{j}_{agg}" for agg in _AGGREGATES]
    return names


ENTROPY_MEAN_INDEX = feature_names(0, 0).index("entropy_mean")


# Every per-segment quantity below is a label-indexed reduction: each pixel
# carries the index of its segment, and one `np.bincount` per map sums that
# map over every segment at once.  The frame-level functions label pixels with
# the frame's component map; the per-segment adapters label every pixel of
# their one segment with 0.


def _sums(labels: np.ndarray, values, n: int) -> np.ndarray:
    """(k, n) sums of each row of `values` (k, P) over the pixels of each of
    the n labels in `labels` (P,)."""
    return np.stack([np.bincount(labels, weights=row, minlength=n) for row in values])


def _sizes(labels: np.ndarray, inner: np.ndarray, n: int):
    """Pixel, inner-pixel and boundary-pixel counts per label, as floats."""
    split = np.bincount(2 * labels + inner, minlength=2 * n).reshape(n, 2)
    size_bd, size_in = split.T.astype(np.float64)
    return size_in + size_bd, size_in, size_bd


def _aggregates(labels, inner, values, sizes) -> np.ndarray:
    """(n, k, 5): mean, mean_in, mean_bd, rel, rel_in of each map per label.

    `sizes` are the (size, size_in, size_bd) count vectors of the n labels.
    One reduction per map keyed by (label, inner flag) gives the inner and
    boundary sums; their sum is the total.
    """
    size, size_in, size_bd = sizes
    n = len(size)
    split = _sums(2 * labels + inner, values, 2 * n).reshape(-1, n, 2)
    mean = (split[..., 0] + split[..., 1]) / size
    mean_in = np.divide(
        split[..., 1], size_in, out=np.zeros_like(mean), where=size_in > 0
    )
    mean_bd = split[..., 0] / size_bd
    rel = mean * size / size_bd
    rel_in = mean_in * size_in / size_bd
    return np.stack([mean, mean_in, mean_bd, rel, rel_in], axis=2).transpose(1, 0, 2)


def _feature_matrix(labels, inner, centers, heatmaps, probs) -> np.ndarray:
    """(n, d) canonical feature rows from per-pixel inputs.

    `labels` (P,) segment index per pixel, `inner` (P,) interior flags,
    `centers` (n, 2) segment centers, `heatmaps` (3 + m, P) the three
    dispersion maps then the stability maps, `probs` (c, P) the softmax.
    """
    n = len(centers)
    sizes = _sizes(labels, inner, n)
    size, size_in, size_bd = sizes
    aggregates = _aggregates(labels, inner, heatmaps, sizes).reshape(n, -1)
    dispersion_width = len(_DISPERSIONS) * len(_AGGREGATES)
    return np.concatenate(
        [
            np.stack(
                [size, size_in, size_bd, size / size_bd, size_in / size_bd], axis=1
            ),
            np.asarray(centers, dtype=np.float64),
            aggregates[:, :dispersion_width],
            (_sums(labels, probs, n) / size).T,
            aggregates[:, dispersion_width:],
        ],
        axis=1,
    )


def frame_features(
    segments: FrameSegments, heatmap_stack: np.ndarray, softmax: np.ndarray
) -> np.ndarray:
    """Feature matrix of a frame: row i is the canonical vector of segment i.

    `segments` is the frame's `connected_components` output, which carries
    the component map and interior mask; `heatmap_stack` is (3 + m, H, W):
    entropy, variation ratio and margin, then m stability heatmaps.
    """
    h, w = segments.comp_map.shape
    heatmap_stack = np.asarray(heatmap_stack, dtype=np.float64)
    softmax = np.asarray(softmax, dtype=np.float64)
    if heatmap_stack.shape[1:] != (h, w) or softmax.shape[:2] != (h, w):
        raise ValueError(
            f"heatmap stack {heatmap_stack.shape} and softmax {softmax.shape} "
            f"must be (k, {h}, {w}) and ({h}, {w}, c)"
        )
    return _feature_matrix(
        segments.comp_map.ravel().astype(np.intp),
        segments.inner.ravel(),
        [segment.center for segment in segments],
        heatmap_stack.reshape(-1, h * w),
        np.moveaxis(softmax, 2, 0).reshape(softmax.shape[2], h * w),
    )


def _segment_labels(segment: Segment) -> np.ndarray:
    return np.zeros(segment.size, dtype=np.intp)


def _at_pixels(segment: Segment, frame: np.ndarray) -> np.ndarray:
    """Values of an (H, W, ...) array at the segment's pixels, as float64."""
    frame = np.asarray(frame, dtype=np.float64)
    return frame[segment.pixels[:, 0], segment.pixels[:, 1]]


def assemble_features(
    segment: Segment,
    entropy_map: np.ndarray,
    varratio_map: np.ndarray,
    margin_map: np.ndarray,
    stability_maps,
    softmax: np.ndarray,
) -> np.ndarray:
    """Feature vector in canonical order: sizes, center, dispersion aggregates,
    class probabilities, then one aggregate block per stability heatmap.

    The vector for m stability maps is a prefix of the vector for m' > m maps.
    """
    maps = [entropy_map, varratio_map, margin_map, *stability_maps]
    return _feature_matrix(
        _segment_labels(segment),
        segment.inner,
        [segment.center],
        np.stack([_at_pixels(segment, m) for m in maps]),
        _at_pixels(segment, softmax).T,
    )[0]


def frame_adjusted_iou(
    comp_map: np.ndarray,
    classes: np.ndarray,
    gt_labels: np.ndarray,
    gt_components: np.ndarray | None = None,
) -> np.ndarray:
    """Adjusted IoU of every predicted component of a frame at once.

    `classes[i]` is the class of component i of `comp_map`.  Component i is
    scored against the union of the same-class ground-truth components it
    intersects (0 when it intersects none), read off one predicted x
    ground-truth overlap table.  All counts are integers, so each value is the
    correctly rounded ratio.
    """
    gt_labels = np.asarray(gt_labels)
    if gt_components is None:
        gt_components = label_components(gt_labels)
    pred = comp_map.ravel()
    gt = gt_components.ravel()
    n_pred = len(classes)
    n_gt = int(gt.max()) + 1
    # Nonzero cells of the overlap table, over the pixels whose predicted
    # component and ground-truth component share a class.
    same = np.asarray(classes)[pred] == gt_labels.ravel()
    cells, counts = np.unique(
        pred[same].astype(np.int64) * n_gt + gt[same], return_counts=True
    )
    k, q = np.divmod(cells, n_gt)
    intersection = np.bincount(k, weights=counts, minlength=n_pred)
    gt_size = np.bincount(gt, minlength=n_gt)
    pred_size = np.bincount(pred, minlength=n_pred)
    union = pred_size + np.bincount(k, weights=gt_size[q], minlength=n_pred)
    union -= intersection
    return np.divide(
        intersection, union, out=np.zeros(n_pred), where=intersection > 0
    )


def adjusted_iou(
    segment: Segment, gt_labels: np.ndarray, gt_components: np.ndarray | None = None
) -> float:
    """IoU of a predicted segment against the union of the same-class
    ground-truth components it intersects; 0 when it intersects none.

    `gt_components` may carry a precomputed `label_components(gt_labels)` map
    to amortize the labeling over many segments of one frame.
    """
    gt_labels = np.asarray(gt_labels)
    comp_map = np.ones(gt_labels.shape, dtype=np.intp)  # 1: rest of the frame
    comp_map[segment.pixels[:, 0], segment.pixels[:, 1]] = 0
    classes = np.array([segment.class_id, -1])  # class -1 matches no pixel
    return float(frame_adjusted_iou(comp_map, classes, gt_labels, gt_components)[0])


@dataclass
class SegmentFeatures:
    """One segment's feature vector plus its quality target.

    `features` holds the canonical feature vector for the maximal number of
    stability maps the stream provides; `vector` slices the prefix for any
    smaller metric set.
    """

    frame_index: int
    component_index: int
    class_id: int
    size: int
    size_inner: int
    iou_adj: float
    features: np.ndarray
    num_classes: int
    num_stability: int
    track_id: int = -1

    @property
    def has_interior(self) -> bool:
        return self.size_inner > 0

    def vector(self, num_stability: int) -> np.ndarray:
        if not 0 <= num_stability <= self.num_stability:
            raise ValueError(
                f"num_stability must be in [0, {self.num_stability}], "
                f"got {num_stability}"
            )
        return self.features[: feature_count(self.num_classes, num_stability)]

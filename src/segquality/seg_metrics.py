"""Segment-level aggregation of heatmaps into feature vectors and IoU targets."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .segmentation import FrameSegments, label_components

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
# carries the index of its segment in the frame's component map, and one
# `np.bincount` per map sums that map over every segment at once.


def _sums(labels: np.ndarray, values, n: int) -> np.ndarray:
    """(k, n) sums of each row of `values` (k, P) over the pixels of each of
    the n labels in `labels` (P,)."""
    return np.stack([np.bincount(labels, weights=row, minlength=n) for row in values])


def _aggregates(keys, values, sizes) -> np.ndarray:
    """(n, k, 5): mean, mean_in, mean_bd, rel, rel_in of each map per label.

    `keys` (P,) are 2 * label + inner flag, `sizes` the (size, size_in,
    size_bd) count vectors of the n labels.  One reduction per map keyed by
    (label, inner flag) gives the inner and boundary sums; their sum is the
    total.
    """
    size, size_in, size_bd = sizes
    n = len(size)
    split = _sums(keys, values, 2 * n).reshape(-1, n, 2)
    mean = (split[..., 0] + split[..., 1]) / size
    mean_in = np.divide(
        split[..., 1], size_in, out=np.zeros_like(mean), where=size_in > 0
    )
    mean_bd = split[..., 0] / size_bd
    rel = mean * size / size_bd
    rel_in = mean_in * size_in / size_bd
    return np.stack([mean, mean_in, mean_bd, rel, rel_in], axis=2).transpose(1, 0, 2)


def frame_features(
    segments: FrameSegments, heatmap_stack: np.ndarray, softmax: np.ndarray
) -> np.ndarray:
    """Feature matrix of a frame: row i is the canonical vector of segment i.

    Canonical order: sizes, center, dispersion aggregates, class
    probabilities, then one aggregate block per stability heatmap, so the
    row for m stability maps is a prefix of the row for m' > m maps.
    `segments` is the frame's `connected_components` output;
    `heatmap_stack` is (3 + m, H, W): entropy, variation ratio and margin,
    then m stability heatmaps.
    """
    h, w = segments.comp_map.shape
    heatmap_stack = np.asarray(heatmap_stack, dtype=np.float64)
    softmax = np.asarray(softmax, dtype=np.float64)
    if heatmap_stack.shape[1:] != (h, w) or softmax.shape[:2] != (h, w):
        raise ValueError(
            f"heatmap stack {heatmap_stack.shape} and softmax {softmax.shape} "
            f"must be (k, {h}, {w}) and ({h}, {w}, c)"
        )
    labels = segments.comp_map.ravel().astype(np.intp)
    keys = 2 * labels + segments.inner.ravel()
    n = len(segments)
    split = np.bincount(keys, minlength=2 * n).reshape(n, 2)
    size_bd, size_in = split.T.astype(np.float64)
    size = size_in + size_bd
    aggregates = _aggregates(
        keys, heatmap_stack.reshape(-1, h * w), (size, size_in, size_bd)
    ).reshape(n, -1)
    probs = np.moveaxis(softmax, 2, 0).reshape(softmax.shape[2], h * w)
    dispersion_width = len(_DISPERSIONS) * len(_AGGREGATES)
    return np.concatenate(
        [
            np.stack(
                [size, size_in, size_bd, size / size_bd, size_in / size_bd], axis=1
            ),
            segments.centers,
            aggregates[:, :dispersion_width],
            (_sums(labels, probs, n) / size).T,
            aggregates[:, dispersion_width:],
        ],
        axis=1,
    )


def assemble_features(
    segments: FrameSegments,
    index: int,
    heatmap_stack: np.ndarray,
    softmax: np.ndarray,
) -> np.ndarray:
    """Feature vector of segment `index`: row `index` of `frame_features`."""
    return frame_features(segments, heatmap_stack, softmax)[index]


def frame_adjusted_iou(
    segments: FrameSegments,
    gt_labels: np.ndarray,
    gt_components: np.ndarray | None = None,
) -> np.ndarray:
    """Adjusted IoU of every segment of a frame at once.

    Segment i is scored against the union of the same-class ground-truth
    components it intersects (0 when it intersects none), read off one
    predicted x ground-truth overlap table.  All counts are integers, so each
    value is the correctly rounded ratio.  `gt_components` may carry a
    precomputed `label_components(gt_labels)`.
    """
    gt_labels = np.asarray(gt_labels)
    if gt_labels.shape != segments.comp_map.shape:
        raise ValueError(
            f"ground truth {gt_labels.shape} must have the prediction's shape "
            f"{segments.comp_map.shape}"
        )
    if gt_components is None:
        gt_components = label_components(gt_labels)
    pred = segments.comp_map.ravel()
    gt = gt_components.ravel()
    n_pred = len(segments)
    n_gt = int(gt.max()) + 1
    # Nonzero cells of the overlap table, over the pixels whose predicted
    # component and ground-truth component share a class.
    same = segments.classes[pred] == gt_labels.ravel()
    cells, counts = np.unique(
        pred[same].astype(np.int64) * n_gt + gt[same], return_counts=True
    )
    k, q = np.divmod(cells, n_gt)
    intersection = np.bincount(k, weights=counts, minlength=n_pred)
    gt_size = np.bincount(gt, minlength=n_gt)
    union = segments.sizes + np.bincount(k, weights=gt_size[q], minlength=n_pred)
    union -= intersection
    return np.divide(
        intersection, union, out=np.zeros(n_pred), where=intersection > 0
    )


def adjusted_iou(
    segments: FrameSegments,
    index: int,
    gt_labels: np.ndarray,
    gt_components: np.ndarray | None = None,
) -> float:
    """Adjusted IoU of segment `index`: entry `index` of `frame_adjusted_iou`."""
    return float(frame_adjusted_iou(segments, gt_labels, gt_components)[index])


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

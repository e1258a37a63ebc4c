"""Gradient-boosted regression trees with exact greedy splits.

Trees are fit to the loss gradient by least squares (variance-reduction
splits over every feature and threshold); leaf values take a Newton step for
the logistic task and the residual mean for squared loss.  The number of
boosting rounds kept is the one with the best validation loss.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from .base import ModelSpec, TrainedModel, spec_metadata

_EPS = 1e-12


class _SplitContext:
    """Presorted feature matrix shared by every tree of one training run.

    The per-feature sort happens once; tree growth partitions the sorted
    order (and the dense per-feature ranks of the sorted values) down to the
    children, so equal values keep their global order and no node ever
    re-sorts.
    """

    def __init__(self, X: np.ndarray, min_leaf: int):
        self.X = X
        self.min_leaf = min_leaf
        # Fortran order keeps the transposed compresses in partition contiguous
        self.sorted_idx = np.asfortranarray(
            np.argsort(X, axis=0, kind="stable").astype(np.int32)
        )
        sorted_x = np.take_along_axis(X, self.sorted_idx, 0)
        # equal values share a rank, so rank order decides distinctness
        steps = np.zeros(X.shape, dtype=np.int32)
        steps[1:] = sorted_x[1:] != sorted_x[:-1]
        self.sorted_rank = np.asfortranarray(np.cumsum(steps, axis=0, dtype=np.int32))

    def best_split(self, order: np.ndarray, ranks: np.ndarray, grad: np.ndarray):
        """Exact greedy split search; returns (feature, threshold) or None.

        The score maximized is the sum of per-side squared gradient sums over
        side sizes; subtracting the per-node constant total^2/n gives the
        squared-error gain, which must be positive for a split to be kept.
        Candidate thresholds fall between distinct adjacent values; ties
        resolve to the smallest sorted position, then the feature index.
        """
        n_node = order.shape[0]
        if n_node < 2 * self.min_leaf:
            return None
        csum = np.cumsum(grad[order], axis=0)
        total = csum[-1, 0]
        left_count = np.arange(1, n_node, dtype=np.float64)[:, None]
        right_count = n_node - left_count
        left_sum = csum[:-1]
        right_sum = total - left_sum
        score = np.square(left_sum)
        score /= left_count
        np.square(right_sum, out=right_sum)
        right_sum /= right_count
        score += right_sum
        ok = ranks[:-1] < ranks[1:]
        if self.min_leaf > 1:
            ok &= (left_count >= self.min_leaf) & (right_count >= self.min_leaf)
        score[~ok] = -np.inf
        flat = int(np.argmax(score))
        pos, feat = np.unravel_index(flat, score.shape)
        if not np.isfinite(score[pos, feat]):
            return None
        if score[pos, feat] - total**2 / n_node <= 0:
            return None
        # split predicate is x <= threshold with the left side's max value,
        # which reproduces the training partition exactly regardless of float
        # spacing
        return int(feat), float(self.X[order[pos, feat], feat])

    def partition(self, order: np.ndarray, ranks: np.ndarray, go_left: np.ndarray):
        """Split (order, ranks) into the left/right children, preserving order.

        Each is compressed as a flat feature-major buffer (a view of the
        Fortran-ordered array) and reshaped back to (rows, features).
        """
        n_node, d = order.shape
        flat_order, flat_ranks = order.T.ravel(), ranks.T.ravel()
        valid = go_left[flat_order]
        invalid = ~valid
        n_left = int(valid[:n_node].sum())
        n_right = n_node - n_left
        left = (
            flat_order.compress(valid).reshape(d, n_left).T,
            flat_ranks.compress(valid).reshape(d, n_left).T,
        )
        right = (
            flat_order.compress(invalid).reshape(d, n_right).T,
            flat_ranks.compress(invalid).reshape(d, n_right).T,
        )
        return left, right


class _Tree:
    """Flat-array binary tree; leaves carry additive score contributions."""

    def __init__(self):
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []
        self._arrays = None

    def _add_node(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    def _flat_arrays(self):
        """Node arrays for apply, built once the tree is complete.

        `children[go_left * n_nodes + node]` is the next node; leaves point to
        themselves on both sides, so a row that has reached its leaf stays
        there.  One pass per level of the deepest leaf moves every row down.
        """
        if self._arrays is None:
            leaf = np.asarray(self.feature) < 0
            children = np.array([self.right, self.left])
            children[:, leaf] = np.flatnonzero(leaf)
            level = [0] * len(self.feature)
            for node, feat in enumerate(self.feature):  # parents precede children
                if feat >= 0:
                    level[self.left[node]] = level[self.right[node]] = level[node] + 1
            self._arrays = (
                np.where(leaf, 0, self.feature),
                np.asarray(self.threshold),
                children.ravel(),
                np.asarray(self.value),
                max(level),
            )
        return self._arrays

    def apply(self, X: np.ndarray) -> np.ndarray:
        feature, threshold, children, value, passes = self._flat_arrays()
        X = np.ascontiguousarray(X)
        row_start = np.arange(len(X)) * X.shape[1]
        node = np.zeros(len(X), dtype=np.intp)
        for _ in range(passes):
            go_left = X.take(row_start + feature[node]) <= threshold[node]
            node = children.take(node + len(value) * go_left)
        return value[node]

    @property
    def is_stump_zero(self) -> bool:
        return len(self.feature) == 1 and self.value[0] == 0.0

    def to_dict(self) -> dict:
        return {
            "feature": self.feature,
            "threshold": self.threshold,
            "left": self.left,
            "right": self.right,
            "value": self.value,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "_Tree":
        tree = cls()
        tree.feature = [int(v) for v in doc["feature"]]
        tree.threshold = [float(v) for v in doc["threshold"]]
        tree.left = [int(v) for v in doc["left"]]
        tree.right = [int(v) for v in doc["right"]]
        tree.value = [float(v) for v in doc["value"]]
        return tree


def _leaf_value(grad: np.ndarray, hess: np.ndarray) -> float:
    denom = hess.sum()
    if denom < _EPS:
        return 0.0
    return float(grad.sum() / denom)


def _fit_tree(ctx: _SplitContext, grad, hess, depth: int):
    """Grow one tree; returns it with the leaf value each training row reached."""
    tree = _Tree()
    reached = np.zeros(len(grad))

    def grow(order: np.ndarray, ranks: np.ndarray, level: int) -> int:
        node = tree._add_node()
        split = ctx.best_split(order, ranks, grad) if level < depth else None
        if split is None:
            rows = order[:, 0]  # every column holds the same row set
            tree.value[node] = _leaf_value(grad[rows], hess[rows])
            reached[rows] = tree.value[node]
            return node
        feat, thr = split
        go_left = ctx.X[:, feat] <= thr
        (order_l, ranks_l), (order_r, ranks_r) = ctx.partition(order, ranks, go_left)
        tree.feature[node] = feat
        tree.threshold[node] = thr
        tree.left[node] = grow(order_l, ranks_l, level + 1)
        tree.right[node] = grow(order_r, ranks_r, level + 1)
        return node

    grow(ctx.sorted_idx, ctx.sorted_rank, 0)
    return tree, reached


class GradientBoostingModel(TrainedModel):
    family = "gradient_boosting"

    def __init__(self, task, base_score, trees, shrinkage, n_features, metadata):
        super().__init__(task, metadata)
        self.base_score = float(base_score)
        self.trees = trees
        self.shrinkage = float(shrinkage)
        self.n_features = int(n_features)

    def raw_scores(self, features, mask=None) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        self._check_features(features, (self.n_features,))
        scores = np.full(len(features), self.base_score)
        for tree in self.trees:
            scores += self.shrinkage * tree.apply(features)
        return scores

    def params_dict(self) -> dict:
        return {
            "base_score": self.base_score,
            "shrinkage": self.shrinkage,
            "n_features": self.n_features,
            "trees": [tree.to_dict() for tree in self.trees],
        }


def _loss(task: str, y: np.ndarray, raw: np.ndarray) -> float:
    if task == "regression":
        return float(np.mean((y - raw) ** 2))
    p = np.clip(expit(raw), _EPS, 1.0 - _EPS)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def train_gb(train, val, spec: ModelSpec) -> GradientBoostingModel:
    X, y = train
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    X_val, y_val = val
    X_val = np.asarray(X_val, dtype=np.float64)
    y_val = np.asarray(y_val, dtype=np.float64)

    if spec.task == "regression":
        base = float(y.mean())
    else:
        rate = float(np.clip(y.mean(), _EPS, 1.0 - _EPS))
        base = float(np.log(rate / (1.0 - rate)))

    raw = np.full(len(y), base)
    raw_val = np.full(len(y_val), base)
    trees: list[_Tree] = []
    val_losses = [_loss(spec.task, y_val, raw_val)]
    ctx = _SplitContext(X, spec.min_leaf)
    for _ in range(spec.max_rounds):
        if spec.task == "regression":
            grad = y - raw
            hess = np.ones(len(y))
        else:
            p = expit(raw)
            grad = y - p
            hess = p * (1.0 - p)
        tree, reached = _fit_tree(ctx, grad, hess, spec.tree_depth)
        if tree.is_stump_zero:
            break
        raw = raw + spec.gb_learning_rate * reached
        raw_val = raw_val + spec.gb_learning_rate * tree.apply(X_val)
        trees.append(tree)
        val_losses.append(_loss(spec.task, y_val, raw_val))

    best_rounds = int(np.argmin(val_losses))
    metadata = spec_metadata(
        spec,
        {
            "rounds_trained": len(trees),
            "rounds_kept": best_rounds,
            "val_loss": val_losses[best_rounds],
        },
    )
    return GradientBoostingModel(
        spec.task, base, trees[:best_rounds], spec.gb_learning_rate, X.shape[1], metadata
    )


def load_gb(doc: dict) -> GradientBoostingModel:
    params = doc["parameters"]
    trees = [_Tree.from_dict(t) for t in params["trees"]]
    return GradientBoostingModel(
        doc["task"],
        params["base_score"],
        trees,
        params["shrinkage"],
        params["n_features"],
        doc["metadata"],
    )

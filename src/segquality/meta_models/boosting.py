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

    The per-feature sort happens once, stored feature-major: each row of
    `order` is one column's stable sort of the training rows.  Tree growth
    partitions the sorted order down to the children, so equal values keep
    their global order and no node ever re-sorts.

    A column whose sorted order (and, if it has ties, whose dense ranks of
    the sorted values) equal an earlier column's scores identically at every
    node and loses every tie to it, so only the first of each such group is
    kept.  Columns with ties come first, and only they carry ranks, which
    decide where adjacent sorted values are distinct.
    """

    def __init__(self, X: np.ndarray, min_leaf: int):
        self.Xt = np.ascontiguousarray(X.T)
        self.min_leaf = min_leaf
        order = np.argsort(self.Xt, axis=1, kind="stable")
        sorted_x = np.take_along_axis(self.Xt, order, 1)
        steps = np.zeros(order.shape, dtype=np.int32)
        steps[:, 1:] = sorted_x[:, 1:] != sorted_x[:, :-1]
        ranks = np.cumsum(steps, axis=1, dtype=np.int32)
        tied = np.count_nonzero(steps, axis=1) < order.shape[1] - 1
        first = {}
        for j in range(len(order)):
            key = order[j].tobytes() + (ranks[j].tobytes() if tied[j] else b"")
            first.setdefault(key, j)
        kept = np.array(sorted(first.values()), dtype=np.intp)
        self.features = kept[np.argsort(~tied[kept], kind="stable")]
        self.order = order[self.features]
        self.ranks = ranks[self.features[tied[self.features]]]
        # `total` and the leaf sums run in column 0's order
        self.lead = int(np.flatnonzero(self.features == 0)[0])

    def best_split(self, order: np.ndarray, ranks: np.ndarray, grad: np.ndarray):
        """Exact greedy split search; returns (feature, threshold) or None.

        The score maximized is the sum of per-side squared gradient sums over
        side sizes; subtracting the per-node constant total^2/n gives the
        squared-error gain, which must be positive for a split to be kept.
        Candidate thresholds fall between distinct adjacent values; ties
        resolve to the smallest sorted position, then the feature index.
        Position p puts the first p + 1 sorted rows on the left.  Scores are
        never negative, so a position that is no candidate (a side below
        `min_leaf` rows, an empty right side, a tie with the next value)
        scores 0, which no split passing the gain check can tie.
        """
        n_node = order.shape[1]
        if n_node < 2 * self.min_leaf:
            return None
        csum = grad.take(order)
        np.cumsum(csum, axis=1, out=csum)
        total = csum[self.lead, -1]
        left_count = np.arange(1, n_node + 1, dtype=np.float64)
        right_count = n_node - left_count
        right_count[-1] = np.inf
        score = np.square(csum)
        score /= left_count
        np.subtract(total, csum, out=csum)
        np.square(csum, out=csum)
        csum /= right_count
        score += csum
        score[:, : self.min_leaf - 1] = 0.0
        score[:, n_node - self.min_leaf :] = 0.0
        distinct = np.zeros(ranks.shape, dtype=bool)
        np.not_equal(ranks[:, 1:], ranks[:, :-1], out=distinct[:, :-1])
        score[: len(ranks)] *= distinct
        best = score.max(axis=0)
        pos = int(np.argmax(best))
        if best[pos] - total**2 / n_node <= 0:
            return None
        rows = np.flatnonzero(score[:, pos] == best[pos])
        row = rows[np.argmin(self.features[rows])]
        feat = int(self.features[row])
        # split predicate is x <= threshold with the left side's max value,
        # which reproduces the training partition exactly regardless of float
        # spacing
        return feat, float(self.Xt[feat, order[row, pos]])

    def partition(self, order: np.ndarray, ranks: np.ndarray, go_left: np.ndarray):
        """Split (order, ranks) into the left/right children, preserving order.

        Each is compressed as one flat feature-major buffer and reshaped back
        to (features, rows); the ranks' mask is the leading part of the
        order's, as the tied columns come first.
        """
        (k, n_node), t = order.shape, len(ranks)
        left = go_left.take(order).ravel()
        children = []
        for mask in (left, ~left):
            n_child = int(np.count_nonzero(mask[:n_node]))
            children.append((
                order.ravel().compress(mask).reshape(k, n_child),
                ranks.ravel().compress(mask[: t * n_node]).reshape(t, n_child),
            ))
        return children


class _Tree:
    """Flat-array binary tree; leaves carry additive score contributions."""

    NODES = {
        "feature": (int, 1), "threshold": (float, 1), "left": (int, 1),
        "right": (int, 1), "value": (float, 1),
    }

    def __init__(self, feature=(), threshold=(), left=(), right=(), value=()):
        self.feature: list[int] = list(feature)
        self.threshold: list[float] = list(threshold)
        self.left: list[int] = list(left)
        self.right: list[int] = list(right)
        self.value: list[float] = list(value)
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
        return {key: getattr(self, key) for key in self.NODES}


def _leaf_value(grad: np.ndarray, hess: np.ndarray) -> float:
    denom = hess.sum()
    if denom < _EPS:
        return 0.0
    return float(grad.sum() / denom)


def _fit_tree(ctx: _SplitContext, grad, hess, depth: int):
    """Grow one tree; returns it with the leaf value each training row reached."""
    tree = _Tree()
    reached = np.zeros(len(grad))

    def leaf(rows: np.ndarray) -> int:
        node = tree._add_node()
        tree.value[node] = _leaf_value(grad[rows], hess[rows])
        reached[rows] = tree.value[node]
        return node

    def grow(order: np.ndarray, ranks: np.ndarray, level: int) -> int:
        split = ctx.best_split(order, ranks, grad) if level < depth else None
        if split is None:
            return leaf(order[ctx.lead])  # every row of order holds the same rows
        node = tree._add_node()
        feat, thr = split
        go_left = ctx.Xt[feat] <= thr
        tree.feature[node] = feat
        tree.threshold[node] = thr
        if level + 1 == depth:  # both children are leaves: no partition
            rows = order[ctx.lead]
            rows_left = go_left.take(rows)
            tree.left[node] = leaf(rows.compress(rows_left))
            tree.right[node] = leaf(rows.compress(~rows_left))
            return node
        (order_l, ranks_l), (order_r, ranks_r) = ctx.partition(order, ranks, go_left)
        tree.left[node] = grow(order_l, ranks_l, level + 1)
        tree.right[node] = grow(order_r, ranks_r, level + 1)
        return node

    grow(ctx.order, ctx.ranks, 0)
    return tree, reached


class GradientBoostingModel(TrainedModel):
    family = "gradient_boosting"
    PARAMS = {
        "base_score": (float, 0), "shrinkage": (float, 0), "n_features": (int, 0),
        "trees": [_Tree.NODES],
    }

    def __init__(self, task, params: dict, metadata):
        super().__init__(task, params, metadata)
        self.trees = [_Tree(**nodes) for nodes in params["trees"]]

    def raw_scores(self, features, mask=None) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        self._check_features(features, (self.params["n_features"],))
        scores = np.full(len(features), self.params["base_score"])
        for tree in self.trees:
            scores += self.params["shrinkage"] * tree.apply(features)
        return scores

    @classmethod
    def fit(cls, train, val, spec: ModelSpec) -> "GradientBoostingModel":
        X, y = (np.asarray(a, dtype=np.float64) for a in train)
        X_val, y_val = (np.asarray(a, dtype=np.float64) for a in val)

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
                # the boosting counterpart of logistic `converged`: validation
                # loss was still at its best when the round budget ran out
                "best_at_cap": best_rounds == spec.max_rounds,
            },
        )
        params = {
            "base_score": base,
            "shrinkage": float(spec.gb_learning_rate),
            "n_features": X.shape[1],
            "trees": [tree.to_dict() for tree in trees[:best_rounds]],
        }
        return cls(spec.task, params, metadata)


def _loss(task: str, y: np.ndarray, raw: np.ndarray) -> float:
    if task == "regression":
        return float(np.mean((y - raw) ** 2))
    p = np.clip(expit(raw), _EPS, 1.0 - _EPS)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))

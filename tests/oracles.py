"""Independent brute-force reference implementations used by the tests.

Everything here is deliberately written as plain per-pixel / per-set Python
loops so that it shares no code path with the library.
"""

import math

import numpy as np
from scipy import ndimage


def entropy_pixel(probs):
    c = len(probs)
    total = 0.0
    for p in probs:
        if p > 0:
            total += p * math.log(p)
    return -total / math.log(c)


def variation_ratio_pixel(probs):
    return 1.0 - max(probs)


def margin_pixel(probs):
    ordered = sorted(probs, reverse=True)
    return 1.0 - ordered[0] + ordered[1]


def dispersion_frames(probs):
    h, w, c = probs.shape
    ent = np.zeros((h, w))
    var = np.zeros((h, w))
    mar = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            pixel = [probs[i, j, y] / probs[i, j].sum() for y in range(c)]
            ent[i, j] = entropy_pixel(pixel)
            var[i, j] = variation_ratio_pixel(pixel)
            mar[i, j] = margin_pixel(pixel)
    return ent, var, mar


def flood_fill_components(labels):
    """8-connected same-class components, indexed in raster order of discovery."""
    h, w = labels.shape
    comp = -np.ones((h, w), dtype=int)
    components = []
    for start_r in range(h):
        for start_c in range(w):
            if comp[start_r, start_c] >= 0:
                continue
            idx = len(components)
            cls = labels[start_r, start_c]
            stack = [(start_r, start_c)]
            comp[start_r, start_c] = idx
            pixels = []
            while stack:
                r, c = stack.pop()
                pixels.append((r, c))
                for dr in (-1, 0, 1):
                    for dc in (-1, 0, 1):
                        rr, cc = r + dr, c + dc
                        if 0 <= rr < h and 0 <= cc < w:
                            if comp[rr, cc] < 0 and labels[rr, cc] == cls:
                                comp[rr, cc] = idx
                                stack.append((rr, cc))
            components.append((int(cls), set(pixels)))
    return comp, components


def segment_pixels(segments, i):
    """(n, 2) rows and columns of segment i of a `FrameSegments`, in raster
    order, and the (n,) inner flags of those pixels."""
    flat = np.flatnonzero(segments.comp_map.ravel() == i)
    rows, cols = np.divmod(flat, segments.comp_map.shape[1])
    return np.stack([rows, cols], axis=1), segments.inner[rows, cols]


def inner_pixels(pixel_set, h, w):
    inner = set()
    for r, c in pixel_set:
        if not (0 < r < h - 1 and 0 < c < w - 1):
            continue
        if all(
            (r + dr, c + dc) in pixel_set
            for dr in (-1, 0, 1)
            for dc in (-1, 0, 1)
            if (dr, dc) != (0, 0)
        ):
            inner.add((r, c))
    return inner


def aggregate(pixel_set, inner_set, heatmap):
    values = [heatmap[r, c] for r, c in sorted(pixel_set)]
    size = len(pixel_set)
    boundary = [heatmap[r, c] for r, c in sorted(pixel_set - inner_set)]
    interior = [heatmap[r, c] for r, c in sorted(inner_set)]
    mean = sum(values) / size
    mean_in = sum(interior) / len(interior) if interior else 0.0
    mean_bd = sum(boundary) / len(boundary)
    rel = mean * size / len(boundary)
    rel_in = mean_in * len(interior) / len(boundary)
    return mean, mean_in, mean_bd, rel, rel_in


def class_prob_means(pixel_set, softmax):
    c = softmax.shape[2]
    out = []
    for y in range(c):
        out.append(sum(softmax[r, col, y] for r, col in pixel_set) / len(pixel_set))
    return out


def center(pixel_set):
    rows = [r for r, _ in pixel_set]
    cols = [c for _, c in pixel_set]
    return sum(rows) / len(rows), sum(cols) / len(cols)


def overlap_ratio(j_set, k_set):
    return len(j_set & k_set) / len(j_set)


def boundary_distance(pa, pb):
    """Least distance between two point sets: the sqrt of the least exact
    integer square over all pairs."""
    least = min(
        (ya - yb) ** 2 + (xa - xb) ** 2
        for ya, xa in pa.tolist()
        for yb, xb in pb.tolist()
    )
    return math.sqrt(least)


def adjusted_iou(pred_set, pred_class, gt_labels):
    _, gt_components = flood_fill_components(np.asarray(gt_labels))
    union = set()
    for cls, pixels in gt_components:
        if cls == pred_class and pixels & pred_set:
            union |= pixels
    if not union:
        return 0.0
    return len(pred_set & union) / len(pred_set | union)


def plain_class_iou(pred_set, pred_class, gt_labels):
    gt_labels = np.asarray(gt_labels)
    gt_set = {
        (r, c)
        for r in range(gt_labels.shape[0])
        for c in range(gt_labels.shape[1])
        if gt_labels[r, c] == pred_class
    }
    if not gt_set:
        return 0.0
    return len(pred_set & gt_set) / len(pred_set | gt_set)


def auroc_threshold_sweep(labels, scores):
    """ROC area via explicit threshold sweep and trapezoidal integration."""
    labels = np.asarray(labels).astype(bool)
    scores = np.asarray(scores, dtype=float)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    thresholds = sorted(set(scores.tolist()), reverse=True)
    points = [(0.0, 0.0)]
    for thr in thresholds:
        decided = scores >= thr
        tpr = float((decided & labels).sum()) / n_pos
        fpr = float((decided & ~labels).sum()) / n_neg
        points.append((fpr, tpr))
    points.append((1.0, 1.0))
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points[:-1], points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def roc_points(labels, scores):
    """ROC curve points as (fpr, tpr, threshold) rows.

    One point per distinct score, swept from the highest threshold down, with
    the (0, 0) start point; trapezoidal area under these points equals auroc.
    """
    labels = np.asarray(labels).astype(bool)
    scores = np.asarray(scores, dtype=np.float64)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("roc_points needs at least one positive and one negative")
    order = np.argsort(-scores, kind="mergesort")
    sorted_labels = labels[order]
    sorted_scores = scores[order]
    tp = np.cumsum(sorted_labels)
    fp = np.cumsum(~sorted_labels)
    last_of_group = np.append(sorted_scores[1:] != sorted_scores[:-1], True)
    rows = [(0.0, 0.0, float("inf"))]
    for i in np.flatnonzero(last_of_group):
        rows.append((fp[i] / n_neg, tp[i] / n_pos, float(sorted_scores[i])))
    return rows


def tree_apply(tree, X):
    """Leaf value of every row of X, walking a tree dict node by node."""
    out = []
    for row in X:
        node = 0
        while tree["feature"][node] >= 0:
            if row[tree["feature"][node]] <= tree["threshold"][node]:
                node = tree["left"][node]
            else:
                node = tree["right"][node]
        out.append(tree["value"][node])
    return np.array(out)


def _sorted_rows(X, rows, feature):
    """The node's rows by (value, row index): the stable sort of the column."""
    return sorted(rows, key=lambda r: (X[r, feature], r))


def best_split(X, rows, grad, min_leaf):
    """Exact best split of a node's rows by a loop over every candidate.

    Returns (feature, threshold) or None.  Each feature's prefix sums run in
    that feature's sorted order; `total` is the sum in feature 0's order.  A
    candidate leaves at least `min_leaf` rows on each side and falls between
    distinct adjacent values.  The best is the largest score, then the
    smallest sorted position, then the smallest feature index; it is kept
    only if its score beats total^2 / n.
    """
    n = len(rows)
    if n < 2 * min_leaf:
        return None
    total = 0.0
    for r in _sorted_rows(X, rows, 0):
        total += grad[r]
    best = None  # (score, pos, feature, threshold)
    for feature in range(X.shape[1]):
        ordered = _sorted_rows(X, rows, feature)
        left = 0.0
        for pos in range(n - 1):
            left += grad[ordered[pos]]
            value, after = X[ordered[pos], feature], X[ordered[pos + 1], feature]
            if pos + 1 < min_leaf or n - pos - 1 < min_leaf or value == after:
                continue
            right = total - left
            score = left * left / (pos + 1) + right * right / (n - pos - 1)
            if (
                best is None
                or score > best[0]
                or (score == best[0] and (pos, feature) < best[1:3])
            ):
                best = (score, pos, feature, float(value))
    if best is None or best[0] - total**2 / n <= 0:
        return None
    return best[2], best[3]


def grow_tree(X, grad, hess, depth, min_leaf):
    """Tree dict grown node by node (preorder) with `best_split`.

    A leaf's value is its gradient sum over its hessian sum (0 below 1e-12),
    both summed in feature 0's sorted order.
    """
    tree = {"feature": [], "threshold": [], "left": [], "right": [], "value": []}

    def grow(rows, level):
        node = len(tree["feature"])
        for key, empty in (("feature", -1), ("threshold", 0.0), ("left", -1),
                           ("right", -1), ("value", 0.0)):
            tree[key].append(empty)
        split = best_split(X, rows, grad, min_leaf) if level < depth else None
        if split is None:
            ordered = _sorted_rows(X, rows, 0)
            denom = hess[ordered].sum()
            tree["value"][node] = 0.0 if denom < 1e-12 else float(grad[ordered].sum() / denom)
            return node
        feature, threshold = split
        tree["feature"][node], tree["threshold"][node] = feature, threshold
        tree["left"][node] = grow([r for r in rows if X[r, feature] <= threshold], level + 1)
        tree["right"][node] = grow([r for r in rows if X[r, feature] > threshold], level + 1)
        return node

    grow(list(range(len(X))), 0)
    return tree


def logistic_ridge_minimizer(X, y, ridge):
    """Weights and intercept minimizing mean logistic loss + ridge/2 ||w||^2.

    Quasi-Newton (BFGS) from scipy with a tight gradient tolerance; the
    intercept is unpenalized.
    """
    from scipy.optimize import minimize

    n, d = X.shape
    design = np.concatenate([X, np.ones((n, 1))], axis=1)
    penalty = np.append(np.full(d, ridge), 0.0)

    def loss_and_grad(w):
        z = design @ w
        loss = np.mean(np.logaddexp(0.0, z) - y * z) + 0.5 * np.sum(penalty * w * w)
        prob = 1.0 / (1.0 + np.exp(-z))
        return loss, design.T @ (prob - y) / n + penalty * w

    result = minimize(
        loss_and_grad, np.zeros(d + 1), jac=True, method="BFGS",
        options={"gtol": 1e-12, "maxiter": 10000},
    )
    return result.x[:-1], result.x[-1]


def lstm_loss_and_grad(params, task, hidden, X, y, mask):
    """Loss and parameter gradients of the single-layer LSTM meta model.

    The plain per-step formulation: scipy's `expit`, a tuple of caches per
    step, the four gate gradients joined with `np.concatenate`, and the mask
    applied as a blend, m * new + (1 - m) * old.  Steps run oldest first.
    """
    from scipy.special import expit

    n, steps, _ = X.shape
    h = np.zeros((n, hidden))
    c = np.zeros((n, hidden))
    caches = []
    for s in range(steps):
        x_s = X[:, s, :]
        m = mask[:, s][:, None]
        z = x_s @ params["wx"] + h @ params["wh"] + params["b"]
        i = expit(z[:, :hidden])
        f = expit(z[:, hidden : 2 * hidden])
        g = np.tanh(z[:, 2 * hidden : 3 * hidden])
        o = expit(z[:, 3 * hidden :])
        c_new = f * c + i * g
        tanh_c = np.tanh(c_new)
        caches.append((x_s, h, c, i, f, g, o, tanh_c, m))
        c = m * c_new + (1.0 - m) * c
        h = m * (o * tanh_c) + (1.0 - m) * h
    raw = h @ params["w_out"] + params["b_out"][0]
    if task == "classification":
        loss = np.mean(np.logaddexp(0.0, raw) - y * raw)
        draw = (expit(raw) - y) / n
    else:
        loss = np.mean((raw - y) ** 2)
        draw = 2.0 * (raw - y) / n
    grads = {key: np.zeros_like(val) for key, val in params.items()}
    grads["w_out"] = h.T @ draw
    grads["b_out"] = np.array([draw.sum()])
    dh = np.outer(draw, params["w_out"])
    dc = np.zeros_like(dh)
    for x_s, h_prev, c_prev, i, f, g, o, tanh_c, m in reversed(caches):
        dh_new = dh * m
        dc_new = dc * m + dh_new * o * (1.0 - tanh_c**2)
        do = dh_new * tanh_c
        df = dc_new * c_prev
        di = dc_new * g
        dg = dc_new * i
        dz = np.concatenate(
            [di * i * (1.0 - i), df * f * (1.0 - f), dg * (1.0 - g**2), do * o * (1.0 - o)],
            axis=1,
        )
        grads["wx"] += x_s.T @ dz
        grads["wh"] += h_prev.T @ dz
        grads["b"] += dz.sum(axis=0)
        dh = dz @ params["wh"].T + dh * (1.0 - m)
        dc = dc_new * f + dc * (1.0 - m)
    return float(loss), grads


def random_softmax(rng, h, w, c, one_hot_fraction=0.0):
    """Valid softmax frame from Dirichlet draws, optionally with one-hot pixels."""
    probs = rng.dirichlet(np.ones(c), size=(h, w))
    if one_hot_fraction > 0:
        sel = rng.random((h, w)) < one_hot_fraction
        hot = rng.integers(0, c, size=(h, w))
        for i in range(h):
            for j in range(w):
                if sel[i, j]:
                    probs[i, j] = 0.0
                    probs[i, j, hot[i, j]] = 1.0
    return probs


def softmax_from_labels(labels, confidence, config):
    """The synthetic softmax built with one distance transform over the whole
    frame per class present (the reference for the windowed kernel)."""
    height, width = labels.shape
    c = config.num_classes
    top_prob = np.empty((height, width))
    runner_class = np.zeros((height, width), dtype=np.int64)
    for cls in np.unique(labels):
        region = labels == cls
        if region.all():
            top_prob[:] = confidence
            runner_class[:] = (cls + 1) % c
            break
        dist, (iy, ix) = ndimage.distance_transform_edt(region, return_indices=True)
        ramp = 1.0 / (1.0 + np.exp(-(dist - config.soften_offset) / config.soften_width))
        top_prob[region] = 0.5 + (confidence[region] - 0.5) * ramp[region]
        runner_class[region] = labels[iy, ix][region]
    rest = 1.0 - top_prob
    runner_prob = config.runner_share * rest if c > 2 else rest
    # the runner-up keeps its share of the uniform floor, so rows sum to 1
    spread = (rest - runner_prob) / (c - 1)
    probs = np.broadcast_to(spread[..., None], (height, width, c)).copy()
    rows, cols = np.indices(labels.shape)
    probs[rows, cols, labels] = top_prob
    probs[rows, cols, runner_class] += runner_prob
    return probs


def jittered_footprint(obj, height, width, offset):
    """An object's full-frame mask moved by `offset`, the pixels that leave
    the frame dropped (the reference for the windowed footprint)."""
    rows = np.arange(height)[:, None] - obj.center[0]
    cols = np.arange(width)[None, :] - obj.center[1]
    if obj.shape == "rect":
        mask = (np.abs(rows) <= obj.half[0]) & (np.abs(cols) <= obj.half[1])
    else:
        mask = (rows / obj.half[0]) ** 2 + (cols / obj.half[1]) ** 2 <= 1.0
    if offset[0] or offset[1]:
        mask = np.roll(mask, (int(offset[0]), int(offset[1])), axis=(0, 1))
        # roll wraps; clear the wrapped border strips
        if offset[0] > 0:
            mask[: offset[0], :] = False
        elif offset[0] < 0:
            mask[offset[0] :, :] = False
        if offset[1] > 0:
            mask[:, : offset[1]] = False
        elif offset[1] < 0:
            mask[:, offset[1] :] = False
    return mask


def validate_softmax(probs, tol=1e-5):
    """Raise ValueError unless `probs` (H, W, c) holds, at every pixel, c >= 2
    finite non-negative probabilities that sum to 1 within `tol`."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 3 or probs.shape[2] < 2:
        raise ValueError(f"softmax frame must be (H, W, c >= 2), got {probs.shape}")
    for pixel in probs.reshape(-1, probs.shape[2]).tolist():
        if not all(math.isfinite(p) for p in pixel):
            raise ValueError("softmax frame has non-finite values")
        if min(pixel) < 0:
            raise ValueError("softmax frame has negative probabilities")
        if abs(math.fsum(pixel) - 1.0) > tol:
            raise ValueError("softmax rows deviate from sum 1")


def mean_cell_state(raw_block_state):
    """Reduce a (H, W, F) per-block feature tensor to its per-pixel mean."""
    raw = np.asarray(raw_block_state, dtype=np.float64)
    if raw.ndim != 3 or raw.shape[2] < 1:
        raise ValueError("raw block state must have shape (H, W, F) with F >= 1")
    return raw.mean(axis=2)


def build_time_series(rows, history):
    """Time-series records from feature rows, one dict lookup per slot.

    `rows` are (frame, component, track_id, size, size_in, iou, vector)
    tuples in stream order.  Returns (frame, component, track_id, iou,
    slots, mask) per row with size_in > 0, in the same order: slot s holds the
    vector of the track's representative at frame - s (the largest segment
    of the track in that frame, ties: first component), or zeros with mask 0.
    """
    by_track = {}
    for row in rows:
        frame, component, track, size = row[:4]
        if track < 0:
            continue
        best = by_track.get((track, frame))
        if best is None or (-size, component) < (-best[3], best[1]):
            by_track[(track, frame)] = row
    records = []
    for frame, component, track, size, size_in, iou, vector in rows:
        if size_in <= 0:
            continue
        slots = np.zeros((history + 1, len(vector)))
        mask = np.zeros(history + 1)
        slots[0] = vector
        mask[0] = 1.0
        for back in range(1, history + 1):
            if track < 0:
                break
            past = by_track.get((track, frame - back))
            if past is not None:
                slots[back] = past[6]
                mask[back] = 1.0
        records.append((frame, component, track, iou, slots, mask))
    return records

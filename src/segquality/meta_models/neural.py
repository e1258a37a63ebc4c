"""Shallow feed-forward and recurrent meta models, trained with Adam.

Both networks implement their forward and backward passes by hand so the
analytic gradients can be checked against finite differences.  Training is
mini-batch stochastic gradient descent (Adam steps) with early stopping on
the validation loss.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from .base import ModelSpec, TrainedModel, spec_metadata


def _bce_with_logits(raw: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean(np.logaddexp(0.0, raw) - y * raw))


def _loss_and_draw(task: str, raw: np.ndarray, y: np.ndarray):
    n = len(y)
    if task == "classification":
        return _bce_with_logits(raw, y), (expit(raw) - y) / n
    diff = raw - y
    return float(np.mean(diff**2)), 2.0 * diff / n


class _Adam:
    """Adam with its moments and every update written in place."""

    def __init__(self, params: dict, lr: float):
        self.lr = lr
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self._scratch = {k: (np.empty_like(v), np.empty_like(v)) for k, v in params.items()}

    def step(self, params: dict, grads: dict) -> None:
        self.t += 1
        correction1 = 1.0 - self.beta1**self.t
        correction2 = 1.0 - self.beta2**self.t
        for key, grad in grads.items():
            m, v = self.m[key], self.v[key]
            step, denom = self._scratch[key]
            # m = beta1 * m + (1 - beta1) * grad
            m *= self.beta1
            np.multiply(grad, 1.0 - self.beta1, out=step)
            m += step
            # v = beta2 * v + (1 - beta2) * grad**2
            v *= self.beta2
            np.square(grad, out=step)
            step *= 1.0 - self.beta2
            v += step
            # params -= lr * (m / correction1) / (sqrt(v / correction2) + eps)
            np.divide(m, correction1, out=step)
            step *= self.lr
            np.divide(v, correction2, out=denom)
            np.sqrt(denom, out=denom)
            denom += self.eps
            step /= denom
            params[key] -= step


class _FeedForwardCore:
    """One rectifier hidden layer with a scalar output head."""

    def __init__(self, params: dict, task: str):
        self.params = params
        self.task = task

    @staticmethod
    def init_params(n_features: int, hidden: int, rng: np.random.Generator) -> dict:
        return {
            "w1": rng.standard_normal((n_features, hidden)) * np.sqrt(2.0 / n_features),
            "b1": np.zeros(hidden),
            "w2": rng.standard_normal(hidden) * np.sqrt(1.0 / hidden),
            "b2": np.zeros(1),
        }

    def raw_scores(self, X: np.ndarray, mask=None) -> np.ndarray:
        pre = X @ self.params["w1"] + self.params["b1"]
        return np.maximum(pre, 0.0) @ self.params["w2"] + self.params["b2"][0]

    def loss(self, X, y, mask=None) -> float:
        loss, _ = _loss_and_draw(self.task, self.raw_scores(X), y)
        return loss

    def loss_and_grad(self, X, y, mask=None):
        pre = X @ self.params["w1"] + self.params["b1"]
        act = np.maximum(pre, 0.0)
        raw = act @ self.params["w2"] + self.params["b2"][0]
        loss, draw = _loss_and_draw(self.task, raw, y)
        d_act = np.outer(draw, self.params["w2"])
        d_pre = d_act * (pre > 0)
        grads = {
            "w1": X.T @ d_pre,
            "b1": d_pre.sum(axis=0),
            "w2": act.T @ draw,
            "b2": np.array([draw.sum()]),
        }
        return loss, grads


def _sigmoid_(z: np.ndarray) -> None:
    """Logistic sigmoid of `z`, in place, as 1 / (1 + exp(-z)).

    This is scipy's `expit` formula with numpy's vectorized exp in place of
    the C library's: about 1.5x faster on the gate blocks, and within 3e-16
    relative of `expit`.  exp overflows to inf for z < -709, which gives
    exactly 0, as `expit` does.
    """
    with np.errstate(over="ignore"):
        np.negative(z, out=z)
        np.exp(z, out=z)
    z += 1.0
    np.divide(1.0, z, out=z)


class _Workspace:
    """The buffers of one unrolled batch shape, (n, steps); written in place.

    Batch-last: each step's gates are a (4H, n) array, so every gate block
    (i, f, g, o) is a contiguous (H, n) row slice.  Forward: the activated
    gates and tanh(c) of every step, and the h and c after every step
    (h[0] = c[0] = 0).  `dz` holds wh.T @ h in the forward pass and the gate
    gradients in the backward pass.  `scratch` is six (H, n) arrays.  Scoring
    allocates the backward buffers too, with `np.empty`, but never writes them.
    """

    def __init__(self, n: int, steps: int, hidden: int):
        self.gates = np.empty((steps, 4 * hidden, n))
        self.tanh_c = np.empty((steps, hidden, n))
        self.h = np.empty((steps + 1, hidden, n))
        self.c = np.empty((steps + 1, hidden, n))
        self.h[0] = 0.0
        self.c[0] = 0.0
        self.dz = np.empty((4 * hidden, n))
        self.scratch = np.empty((6, hidden, n))
        self.raw = np.empty(n)


def _accumulate(total: np.ndarray, a, b, tmp: np.ndarray, first: bool) -> None:
    """total = a @ b on the first call of a pass, total += a @ b after it."""
    if first:
        np.matmul(a, b, out=total)
    else:
        np.matmul(a, b, out=tmp)
        total += tmp


class _RecurrentCore:
    """Single LSTM layer unrolled oldest-first with a scalar output head.

    Steps with mask 0 are skipped: hidden and cell state pass through
    unchanged, and no gate gradients accrue for them.

    `loss` and `loss_and_grad` run in a workspace kept per (n, steps) and
    return gradients in buffers kept by the core, overwritten by the next
    call; `raw_scores` runs in a fresh workspace and returns a fresh array.
    """

    def __init__(self, params: dict, task: str, hidden: int):
        self.params = params
        self.task = task
        self.hidden = hidden
        self._workspaces: dict = {}
        self._grads: dict = {}  # one buffer per parameter
        self._grad_tmp: dict = {}  # one product buffer each for wx and wh

    @staticmethod
    def init_params(n_features: int, hidden: int, rng: np.random.Generator) -> dict:
        params = {
            "wx": rng.standard_normal((n_features, 4 * hidden))
            * np.sqrt(1.0 / n_features),
            "wh": rng.standard_normal((hidden, 4 * hidden)) * np.sqrt(1.0 / hidden),
            "b": np.zeros(4 * hidden),
            "w_out": rng.standard_normal(hidden) * np.sqrt(1.0 / hidden),
            "b_out": np.zeros(1),
        }
        params["b"][hidden : 2 * hidden] = 1.0  # forget gate bias
        return params

    def _workspace(self, n: int, steps: int) -> _Workspace:
        ws = self._workspaces.get((n, steps))
        if ws is None:
            ws = self._workspaces[(n, steps)] = _Workspace(n, steps, self.hidden)
        return ws

    def _gates(self, gates: np.ndarray):
        hid = self.hidden
        return [gates[k * hid : (k + 1) * hid] for k in range(4)]

    def _forward(self, X: np.ndarray, keep: np.ndarray, ws: _Workspace) -> np.ndarray:
        """Unroll into `ws`; returns the raw scores, `ws.raw`."""
        wx, wh, b = self.params["wx"], self.params["wh"], self.params["b"]
        kept = keep.all(axis=0)
        for s in range(X.shape[1]):
            z = ws.gates[s]
            np.matmul(wx.T, X[:, s, :].T, out=z)
            if s:  # h is zero before the first step
                np.matmul(wh.T, ws.h[s], out=ws.dz)
                z += ws.dz
            z += b[:, None]
            i, f, g, o = self._gates(z)
            _sigmoid_(z[: 2 * self.hidden])  # i and f
            np.tanh(g, out=g)
            _sigmoid_(o)
            c, h, tmp = ws.c[s + 1], ws.h[s + 1], ws.scratch[0]
            np.multiply(i, g, out=c)
            if s:  # c is zero before the first step
                np.multiply(f, ws.c[s], out=tmp)
                c += tmp
            np.tanh(c, out=ws.tanh_c[s])
            np.multiply(o, ws.tanh_c[s], out=h)
            if not kept[s]:
                skip = ~keep[None, :, s]
                np.copyto(c, ws.c[s], where=skip)
                np.copyto(h, ws.h[s], where=skip)
        np.matmul(self.params["w_out"], ws.h[-1], out=ws.raw)
        ws.raw += self.params["b_out"][0]
        return ws.raw

    def raw_scores(self, X: np.ndarray, mask: np.ndarray) -> np.ndarray:
        n, steps, _ = X.shape
        return self._forward(X, mask > 0, _Workspace(n, steps, self.hidden))

    def loss(self, X, y, mask) -> float:
        raw = self._forward(X, mask > 0, self._workspace(*X.shape[:2]))
        loss, _ = _loss_and_draw(self.task, raw, y)
        return loss

    def loss_and_grad(self, X, y, mask):
        n, steps, _ = X.shape
        ws = self._workspace(n, steps)
        keep = mask > 0
        kept = keep.all(axis=0)
        loss, draw = _loss_and_draw(self.task, self._forward(X, keep, ws), y)
        if not self._grads:
            self._grads = {key: np.empty_like(val) for key, val in self.params.items()}
            self._grad_tmp = {key: np.empty_like(self.params[key]) for key in ("wx", "wh")}
        grads, tmp = self._grads, self._grad_tmp
        wh = self.params["wh"]
        np.matmul(ws.h[-1], draw, out=grads["w_out"])
        grads["b_out"][0] = draw.sum()
        dh, dc, dh_prev, dc_new, t1, t2 = ws.scratch
        np.multiply(self.params["w_out"][:, None], draw, out=dh)
        dc.fill(0.0)
        dz = ws.dz
        d_i, d_f, d_g, d_o = self._gates(dz)
        if steps == 1:
            grads["wh"].fill(0.0)
        for s in reversed(range(steps)):
            i, f, g, o = self._gates(ws.gates[s])
            tanh_c = ws.tanh_c[s]
            # dc_new = dc + dh * o * (1 - tanh_c**2)
            np.square(tanh_c, out=t1)
            np.subtract(1.0, t1, out=t1)
            np.multiply(dh, o, out=t2)
            t2 *= t1
            np.add(dc, t2, out=dc_new)
            # dz = [di * i * (1 - i), df * f * (1 - f), dg * (1 - g**2), do * o * (1 - o)]
            np.multiply(dc_new, g, out=d_i)
            d_i *= i
            np.subtract(1.0, i, out=t1)
            d_i *= t1
            if s:
                np.multiply(dc_new, ws.c[s], out=d_f)
                d_f *= f
                np.subtract(1.0, f, out=t1)
                d_f *= t1
            else:  # df = dc_new * c[0] and c[0] is zero
                d_f.fill(0.0)
            np.multiply(dc_new, i, out=d_g)
            np.square(g, out=t1)
            np.subtract(1.0, t1, out=t1)
            d_g *= t1
            np.multiply(dh, tanh_c, out=d_o)
            d_o *= o
            np.subtract(1.0, o, out=t1)
            d_o *= t1
            if not kept[s]:
                skip = ~keep[None, :, s]
                np.copyto(dz, 0.0, where=skip)
            last = s == steps - 1
            _accumulate(grads["wx"], X[:, s, :].T, dz.T, tmp["wx"], last)
            if last:
                np.sum(dz, axis=1, out=grads["b"])
            else:
                grads["b"] += dz.sum(axis=1)
            if s == 0:  # h before the first step is zero, and no step precedes it
                break
            _accumulate(grads["wh"], ws.h[s], dz.T, tmp["wh"], last)
            np.matmul(wh, dz, out=dh_prev)
            np.multiply(dc_new, f, out=dc_new)
            if not kept[s]:
                np.copyto(dh_prev, dh, where=skip)
                np.copyto(dc_new, dc, where=skip)
            dh, dh_prev = dh_prev, dh
            dc, dc_new = dc_new, dc
        return loss, grads


def _train_loop(
    core, train_inputs, y, val_inputs, y_val, spec: ModelSpec, rng: np.random.Generator
) -> dict:
    """Mini-batch Adam with best-validation early stopping; returns metadata."""
    n = len(y)
    optimizer = _Adam(core.params, spec.learning_rate)
    best_params = {k: v.copy() for k, v in core.params.items()}
    batches: dict = {}  # batch length -> one buffer per input
    best_loss = core.loss(val_inputs[0], y_val, *val_inputs[1:])
    best_epoch = 0
    since_best = 0
    epoch = 0
    for epoch in range(1, spec.max_epochs + 1):
        perm = rng.permutation(n)
        for start in range(0, n, spec.batch_size):
            idx = perm[start : start + spec.batch_size]
            batch = batches.get(len(idx))
            if batch is None:
                batch = batches[len(idx)] = [
                    np.empty((len(idx),) + inp.shape[1:]) for inp in train_inputs
                ]
            for inp, out in zip(train_inputs, batch):
                # idx is in range; mode="raise" would gather via a temporary
                np.take(inp, idx, axis=0, out=out, mode="clip")
            loss, grads = core.loss_and_grad(batch[0], y[idx], *batch[1:])
            if not np.isfinite(loss):
                raise RuntimeError(
                    f"non-finite training loss {loss} at epoch {epoch} "
                    f"(family with {len(core.params)} parameter tensors)"
                )
            optimizer.step(core.params, grads)
        val_loss = core.loss(val_inputs[0], y_val, *val_inputs[1:])
        if not np.isfinite(val_loss):
            raise RuntimeError(f"non-finite validation loss at epoch {epoch}")
        if val_loss < best_loss:
            best_loss = val_loss
            best_epoch = epoch
            for key, value in core.params.items():
                np.copyto(best_params[key], value)
            since_best = 0
        else:
            since_best += 1
            if since_best >= spec.patience:
                break
    core.params.update(best_params)
    return {
        "epochs_trained": epoch,
        "best_epoch": best_epoch,
        "val_loss": best_loss,
    }


class _NetworkModel(TrainedModel):
    """A trained network; its core holds the parameters and computes the scores."""

    def __init__(self, task, core, metadata):
        super().__init__(task, metadata)
        self.core = core

    @property
    def params(self):
        return self.core.params

    def params_dict(self) -> dict:
        return {k: v.tolist() for k, v in self.params.items()}


class ShallowNetModel(_NetworkModel):
    family = "shallow_nn"

    def __init__(self, task, params, metadata):
        super().__init__(task, _FeedForwardCore(params, task), metadata)

    def raw_scores(self, features, mask=None) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        self._check_features(features, (self.params["w1"].shape[0],))
        return self.core.raw_scores(features)


class RecurrentNetModel(_NetworkModel):
    family = "shallow_lstm"

    def __init__(self, task, params, hidden, metadata):
        super().__init__(task, _RecurrentCore(params, task, hidden), metadata)

    def raw_scores(self, features, mask=None) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 3:
            raise ValueError("recurrent model expects (n, steps, features) input")
        self._check_features(
            features, (features.shape[1], self.params["wx"].shape[0])
        )
        mask = np.ones(features.shape[:2]) if mask is None else np.asarray(mask, float)
        if mask.shape != features.shape[:2]:
            raise ValueError(
                f"mask shape mismatch: expected (n, steps) = {features.shape[:2]}, "
                f"got {mask.shape}"
            )
        return self.core.raw_scores(features, mask)

    def params_dict(self) -> dict:
        return {"hidden": self.core.hidden, **super().params_dict()}


def _train_network(core_cls, train, val, spec: ModelSpec, *core_args):
    """Fit a core on (inputs..., y) splits; returns its parameters and metadata.

    The rng draws the initial parameters, then the epoch permutations.
    `core_args` follow (params, task) in the core's constructor.
    """
    *inputs, y = (np.asarray(a, dtype=np.float64) for a in train)
    *val_inputs, y_val = (np.asarray(a, dtype=np.float64) for a in val)
    rng = np.random.default_rng(spec.seed)
    params = core_cls.init_params(inputs[0].shape[-1], spec.hidden_units, rng)
    core = core_cls(params, spec.task, *core_args)
    meta = _train_loop(core, inputs, y, val_inputs, y_val, spec, rng)
    return core.params, spec_metadata(spec, meta)


def train_nn(train, val, spec: ModelSpec):
    params, meta = _train_network(_FeedForwardCore, train, val, spec)
    return ShallowNetModel(spec.task, params, meta)


def train_lstm(train, val, spec: ModelSpec):
    hidden = spec.hidden_units
    params, meta = _train_network(_RecurrentCore, train, val, spec, hidden)
    return RecurrentNetModel(spec.task, params, hidden, meta)


def _network_params(doc: dict) -> dict:
    raw = doc["parameters"]
    return {k: np.asarray(v, dtype=np.float64) for k, v in raw.items() if k != "hidden"}


def load_nn(doc: dict) -> ShallowNetModel:
    return ShallowNetModel(doc["task"], _network_params(doc), doc["metadata"])


def load_lstm(doc: dict) -> RecurrentNetModel:
    hidden = int(doc["parameters"]["hidden"])
    return RecurrentNetModel(doc["task"], _network_params(doc), hidden, doc["metadata"])

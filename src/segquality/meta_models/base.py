"""Shared model specification, prediction contract, and the model file's reader and writer."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import expit

MODEL_FORMAT = "segquality-model/1"

FAMILIES = ("linear", "gradient_boosting", "shallow_nn", "shallow_lstm")
TASKS = ("classification", "regression")


@dataclass
class ModelSpec:
    family: str
    task: str
    seed: int = 0
    # linear
    ridge: float = 1e-6
    gd_tol: float = 1e-7
    gd_max_iter: int = 20000
    # gradient boosting
    max_rounds: int = 200
    tree_depth: int = 3
    gb_learning_rate: float = 0.1
    min_leaf: int = 1
    # neural (shallow_nn and shallow_lstm)
    hidden_units: int = 50
    learning_rate: float = 1e-3
    batch_size: int = 256
    patience: int = 20
    max_epochs: int = 200

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if self.ridge < 0 or self.gd_tol <= 0:
            raise ValueError("ridge must be >= 0 and gd_tol > 0")
        if min(self.max_rounds, self.tree_depth, self.min_leaf) < 1:
            raise ValueError("boosting parameters must be >= 1")
        if self.gb_learning_rate <= 0 or self.learning_rate <= 0:
            raise ValueError("learning rates must be positive")
        if min(self.hidden_units, self.batch_size, self.patience, self.max_epochs) < 1:
            raise ValueError("network parameters must be >= 1")


class TrainedModel:
    """Base for trained meta models; each family is one subclass with the
    classmethod `fit(train, val, spec)` and `raw_scores`.

    `params` holds the learned values by their names in the model file, and
    `PARAMS` declares them once: each name maps to (kind, ndim), float or int
    of that many dimensions, or to [mapping] for a list of entries (GB trees).
    `to_dict` writes `params` and `from_dict` reads them, both by `PARAMS`.
    """

    family: str
    PARAMS: dict

    def __init__(self, task: str, params: dict, metadata: dict):
        if task not in TASKS:
            raise ValueError(f"unknown task {task!r}")
        self.task = task
        self.params = params
        self.metadata = metadata

    def raw_scores(self, features, mask=None) -> np.ndarray:
        """Unbounded scores: logits for classification, IoU estimates for regression."""
        raise NotImplementedError

    def predict(self, features, mask=None) -> np.ndarray:
        """Scores in [0, 1]: P(IoU = 0) for classification, clamped IoU for regression."""
        raw = self.raw_scores(features, mask)
        if self.task == "classification":
            return expit(raw)
        return np.clip(raw, 0.0, 1.0)

    def _check_features(self, features: np.ndarray, expected: tuple) -> None:
        if features.shape[1:] != expected:
            raise ValueError(
                f"feature layout mismatch: expected {expected}, "
                f"got {features.shape[1:]}"
            )

    def to_dict(self) -> dict:
        return {
            "format": MODEL_FORMAT,
            "family": self.family,
            "task": self.task,
            "metadata": self.metadata,
            # a declared key missing from `params` is a derived attribute (LSTM `hidden`)
            "parameters": _write(self.PARAMS, {**vars(self), **self.params}),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "TrainedModel":
        """Rebuild a saved model; `_read` refuses a malformed `parameters`."""
        return cls(doc["task"], _read(cls.PARAMS, doc["parameters"], "parameters"), doc["metadata"])

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True)
            fh.write("\n")


def _write(spec, value):
    """`value` as JSON data by its declaration, numbers cast to their kind."""
    if isinstance(spec, dict):
        return {key: _write(entry, value[key]) for key, entry in spec.items()}
    if isinstance(spec, list):
        return [_write(spec[0], entry) for entry in value]
    return np.asarray(value, dtype=spec[0]).tolist()


def _read(spec, value, path: str):
    """JSON data checked against its declaration, or a ValueError naming the key
    path.  Numbers come back as float or int for ndim 0, else as an array; a
    float takes a JSON integer, and bools, strings and ragged lists are refused."""
    if isinstance(spec, dict):
        if not isinstance(value, dict):
            raise ValueError(f"{path} must be an object, got {type(value).__name__}")
        for key in spec:
            if key not in value:
                raise ValueError(f"model file lacks key '{path}.{key}'")
        return {key: _read(entry, value[key], f"{path}.{key}") for key, entry in spec.items()}
    if isinstance(spec, list):
        if not isinstance(value, list):
            raise ValueError(f"{path} must be a list, got {type(value).__name__}")
        return [_read(spec[0], entry, f"{path}[{i}]") for i, entry in enumerate(value)]
    kind, ndim = spec
    # an object array keeps each element's type; a ragged list leaves lists
    items = np.array(value, dtype=object)
    try:
        if items.ndim == ndim and {type(v) for v in items.flat} <= {int, kind}:
            numbers = items.astype(kind)
            if np.isfinite(numbers).all():
                return numbers if ndim else kind(numbers)
    except OverflowError:  # an integer beyond int64 or float64
        pass
    what = f"a {ndim}-D list of finite {kind.__name__}s" if ndim else f"a finite {kind.__name__}"
    raise ValueError(f"{path} must be {what}")


def spec_metadata(spec: ModelSpec, extra: dict) -> dict:
    return {"spec": asdict(spec), **extra}


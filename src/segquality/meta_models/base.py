"""Shared model specification, prediction contract, and JSON serialization."""

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
    classmethods `fit(train, val, spec)` and `from_dict(doc)`, `raw_scores`
    and `params_dict`."""

    family: str

    def __init__(self, task: str, metadata: dict):
        if task not in TASKS:
            raise ValueError(f"unknown task {task!r}")
        self.task = task
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

    def params_dict(self) -> dict:
        raise NotImplementedError

    def to_dict(self) -> dict:
        return {
            "format": MODEL_FORMAT,
            "family": self.family,
            "task": self.task,
            "metadata": self.metadata,
            "parameters": self.params_dict(),
        }

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True)
            fh.write("\n")


def spec_metadata(spec: ModelSpec, extra: dict) -> dict:
    return {"spec": asdict(spec), **extra}


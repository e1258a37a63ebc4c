"""Meta-model families sharing one train/predict contract.

All four families (linear, gradient boosting, shallow feed-forward net,
shallow LSTM) train deterministically from (data, spec, seed) and predict
scores in [0, 1]: the probability of a zero-quality segment for
classification, the clamped quality estimate for regression.  Each family
is one class, and `MODELS` maps its name to it.
"""

import json

from .base import FAMILIES, MODEL_FORMAT, TASKS, ModelSpec, TrainedModel
from .boosting import GradientBoostingModel
from .linear import LinearModel
from .neural import RecurrentNetModel, ShallowNetModel

MODELS = {
    cls.family: cls
    for cls in (LinearModel, GradientBoostingModel, ShallowNetModel, RecurrentNetModel)
}


def train_model(spec: ModelSpec, train, val) -> TrainedModel:
    """Train any family; `train`/`val` are (X, y) or (X, mask, y) for the LSTM."""
    return MODELS[spec.family].fit(train, val, spec)


def load_model(path) -> TrainedModel:
    """Read a model file; a malformed one raises one ValueError starting with the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError("model file's JSON document is not an object")
        if doc.get("format") != MODEL_FORMAT:
            raise ValueError(f"unsupported model format: {doc.get('format')}")
        family = doc.get("family")
        if not isinstance(family, str) or family not in MODELS:
            raise ValueError(f"unknown model family: {family}")
        return MODELS[family].from_dict(doc)
    except KeyError as exc:
        raise ValueError(f"{path}: model file lacks key {exc}") from None
    except ValueError as exc:  # json.JSONDecodeError is one
        raise ValueError(f"{path}: {exc}") from None


__all__ = [
    "FAMILIES",
    "TASKS",
    "MODELS",
    "ModelSpec",
    "TrainedModel",
    "LinearModel",
    "GradientBoostingModel",
    "ShallowNetModel",
    "RecurrentNetModel",
    "train_model",
    "load_model",
]

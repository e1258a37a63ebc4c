"""Evaluation metrics, baselines, and the multi-split experiment harness."""

from __future__ import annotations

import csv
import json
import multiprocessing
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .dataset import MetaRecordTable, SplitSpec, split_indices, standardize
from .meta_models import ModelSpec, train_model
from .seg_metrics import ENTROPY_MEAN_INDEX, feature_names

# read by numpy's BLAS when a pool worker imports it
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HIGHER_IS_BETTER = {"acc": True, "auroc": True, "sigma": False, "r2": True}


def accuracy(labels, scores) -> float:
    """Fraction of (score >= 0.5) decisions that equal the labels."""
    labels = np.asarray(labels)
    scores = np.asarray(scores)
    if len(labels) != len(scores) or len(labels) == 0:
        raise ValueError("labels and scores must be equal-length and non-empty")
    return float(((scores >= 0.5).astype(int) == labels).mean())


def auroc(labels, scores) -> float:
    """Probability a random positive outscores a random negative (ties 0.5).

    Rank-statistic formulation; equals the area under the threshold-sweep ROC
    curve with trapezoidal interpolation.
    """
    labels = np.asarray(labels).astype(bool)
    scores = np.asarray(scores, dtype=np.float64)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("auroc needs at least one positive and one negative")
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    # average ranks within tie groups (1-based)
    boundaries = np.flatnonzero(np.diff(sorted_scores)) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [len(scores)]))
    ranks = np.empty(len(scores))
    ranks[order] = np.repeat(0.5 * (starts + 1 + ends), ends - starts)
    u_stat = ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u_stat / (n_pos * n_neg))


def r_squared(targets, predictions) -> float:
    targets = np.asarray(targets, dtype=np.float64)
    predictions = np.asarray(predictions, dtype=np.float64)
    if len(targets) < 2:
        raise ValueError("r_squared needs at least two targets")
    ss_tot = float(((targets - targets.mean()) ** 2).sum())
    if ss_tot == 0:
        raise ValueError("r_squared undefined for zero target variance")
    ss_res = float(((targets - predictions) ** 2).sum())
    return 1.0 - ss_res / ss_tot


def regression_sigma(targets, predictions) -> float:
    """Root mean squared residual."""
    targets = np.asarray(targets, dtype=np.float64)
    predictions = np.asarray(predictions, dtype=np.float64)
    if len(targets) == 0:
        raise ValueError("regression_sigma needs at least one pair")
    return float(np.sqrt(np.mean((targets - predictions) ** 2)))


def naive_baseline_accuracy(n_total: int, n_iou_zero: int) -> float:
    """Best accuracy achievable by random scoring: the majority-class rate."""
    if n_total < 1 or not 0 <= n_iou_zero <= n_total:
        raise ValueError("need 0 <= n_iou_zero <= n_total and n_total >= 1")
    return max(n_iou_zero, n_total - n_iou_zero) / n_total


@dataclass
class EvalCell:
    """Mean and std of every metric for one (family, task, m, T) grid point."""

    family: str
    task: str
    num_stability: int
    history: int
    metrics: dict[str, tuple[float, float]]
    per_run: dict[str, list[float]] = field(default_factory=dict)

    def row(self) -> dict:
        out = {
            "family": self.family,
            "task": self.task,
            "m": self.num_stability,
            "T": self.history,
        }
        for name, (mean, std) in self.metrics.items():
            out[f"{name}_mean"] = mean
            out[f"{name}_std"] = std
        return out


@dataclass
class EvalReport:
    cells: list[EvalCell]
    baselines: list[EvalCell]
    best: dict[str, dict] = field(default_factory=dict)

    def annotate_best(self) -> None:
        """Best m (and T) per (family, task, metric), as in the result tables."""
        self.best = {}
        for cell in self.cells:
            for metric, (mean, _) in cell.metrics.items():
                key = f"{cell.family}/{cell.task}/{metric}"
                current = self.best.get(key)
                better = current is None or (
                    mean > current["mean"]
                    if HIGHER_IS_BETTER[metric]
                    else mean < current["mean"]
                )
                if better:
                    self.best[key] = {
                        "mean": mean,
                        "m": cell.num_stability,
                        "T": cell.history,
                    }

    def to_dict(self) -> dict:
        return {
            "format": "segquality-report/1",
            "cells": [cell.row() for cell in self.cells],
            "baselines": [cell.row() for cell in self.baselines],
            "best": self.best,
        }

    def save_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def save_csv(self, path) -> None:
        rows = [cell.row() for cell in self.cells + self.baselines]
        columns = ["family", "task", "m", "T"]
        metric_cols = sorted({k for row in rows for k in row if k not in columns})
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns + metric_cols)
            for row in rows:
                writer.writerow(
                    [row.get(c, "") for c in columns]
                    + [repr(row[c]) if c in row else "" for c in metric_cols]
                )


def _check_m(num_stability: int, limit: int) -> None:
    if not 0 <= num_stability <= limit:
        raise ValueError(f"m={num_stability} outside [0, {limit}] for this dataset")


def check_grid(families, tasks, m_values, t_values, num_stability, history) -> None:
    """Refuse an empty axis, an m outside [0, num_stability] and a T outside
    [0, history]; `run_experiment` checks its grid against its table so, and
    a caller that builds the table for a grid checks the grid first."""
    axes = ("families", families), ("tasks", tasks), ("m values", m_values)
    for name, axis in (*axes, ("T values", t_values)):
        if len(axis) == 0:
            raise ValueError(f"the grid has no {name}")
    for m in m_values:
        _check_m(m, num_stability)
    for t in t_values:
        if not 0 <= t <= history:
            raise ValueError(f"history must be in [0, {history}], got {t}")


def _prepare_split(
    table: MetaRecordTable,
    model_spec: ModelSpec,
    num_stability: int,
    split_spec: SplitSpec,
    run: int,
    feature_slice: slice | None = None,
):
    """Split, standardize with train statistics, and lay out model inputs.

    Each of the returned train/val/test parts has the shape `train_model`
    takes for `model_spec.family`: (features with mask columns appended, y),
    or (slots oldest first, mask oldest first, y) for the LSTM.  y is the
    zero-IoU label or the IoU, by task.  Also returns the `inputs` a model
    file keeps: m, T, feature names, layout name and the standardizer of the
    flat features (before any `feature_slice`).
    """
    _check_m(num_stability, table.num_stability)
    indices = split_indices(len(table), split_spec, run)
    flat = table.flat_features(num_stability)
    *scaled, mean, std = standardize(*(flat[idx] for idx in indices))
    y = table.labels if model_spec.task == "classification" else table.iou
    steps = table.history + 1
    dim = flat.shape[1] // steps
    sequence = model_spec.family == "shallow_lstm"

    def layout(x, idx):
        if sequence:
            seq = x.reshape(-1, steps, dim)[:, ::-1, :].copy()
            return seq, table.mask[idx][:, ::-1].copy(), y[idx]
        with_mask = np.concatenate([x, table.mask[idx]], axis=1)
        if feature_slice is not None:
            with_mask = with_mask[:, feature_slice]
        return with_mask, y[idx]

    parts = tuple(layout(x, idx) for x, idx in zip(scaled, indices))
    return parts, {
        "num_stability": num_stability,
        "history": table.history,
        "feature_names": feature_names(table.num_classes, num_stability),
        "layout": "sequence_oldest_first" if sequence else "flat+mask",
        "mean": mean.tolist(),
        "std": std.tolist(),
    }


def fit_split(
    table: MetaRecordTable,
    model_spec: ModelSpec,
    num_stability: int,
    split_spec: SplitSpec,
    run: int,
    feature_slice: slice | None = None,
):
    """Train `model_spec` on split `run` of the table with m stability metrics.

    Returns the model, the test part in the model's input layout (targets
    last), and the inputs document of `_prepare_split`.
    """
    (train, val, test), inputs = _prepare_split(
        table, model_spec, num_stability, split_spec, run, feature_slice
    )
    return train_model(model_spec, train, val), test, inputs


def _grid_job(table: MetaRecordTable, job) -> dict[str, float]:
    """Fit one split run of one report cell on the first T + 1 history slots
    of the table, and score it on the test part."""
    model_spec, num_stability, history, split_spec, run, feature_slice = job
    model, test, _ = fit_split(
        table.upto(history), model_spec, num_stability, split_spec, run, feature_slice
    )
    scores = model.predict(*test[:-1])
    y = test[-1]
    if model_spec.task == "classification":
        return {"acc": accuracy(y, scores), "auroc": auroc(y, scores)}
    return {"sigma": regression_sigma(y, scores), "r2": r_squared(y, scores)}


_pool_table: MetaRecordTable | None = None  # a pool worker's copy of the table


def _init_pool_worker(table: MetaRecordTable) -> None:
    global _pool_table
    _pool_table = table


def _pool_grid_job(job) -> dict[str, float]:
    return _grid_job(_pool_table, job)


def run_experiment(
    table: MetaRecordTable,
    families,
    tasks,
    m_values,
    split_spec: SplitSpec,
    include_baselines: bool = True,
    workers: int = 1,
    t_values=None,
) -> EvalReport:
    """Evaluate the (family, task, m, T) grid over all split runs.

    Each T of `t_values` (default the table's own T; a repeated T counts
    once) is fitted on `table.upto(T)`, the table's first T + 1 history
    slots.  The cells are T-major, then sorted by family, task and m.
    Results are averaged over `split_spec.runs` deterministic splits.  With
    baselines on, the smallest T gets the naive baseline and, if it is 0,
    the entropy baseline: gradient boosting on the mean segment entropy
    alone, one cell per task, fitted like the grid cells.  `check_grid`'s
    refusals and fewer than one worker are refused before any fit, and more
    workers than cores give a warning.
    """
    t_values = [table.history] if t_values is None else list(dict.fromkeys(t_values))
    check_grid(families, tasks, m_values, t_values, table.num_stability, table.history)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    cores = os.cpu_count() or 1
    if workers > cores:
        warnings.warn(f"workers={workers} exceeds os.cpu_count()={cores}", stacklevel=2)
    # (cell, model family, feature slice) per report cell
    points = sorted(set(product(families, tasks, m_values)))
    plan = [
        (EvalCell(family, task, m, history, {}), family, None)
        for history in t_values
        for family, task, m in points
    ]
    num_grid = len(plan)
    first = table.upto(min(t_values))
    if include_baselines and first.history == 0:
        entropy = slice(ENTROPY_MEAN_INDEX, ENTROPY_MEAN_INDEX + 1)
        plan += [
            (EvalCell("entropy_gb", task, 0, 0, {}), "gradient_boosting", entropy)
            for task in tasks
        ]
    jobs = [
        (
            ModelSpec(family=family, task=cell.task, seed=run),
            cell.num_stability,
            cell.history,
            split_spec,
            run,
            feature_slice,
        )
        for cell, family, feature_slice in plan
        for run in range(split_spec.runs)
    ]
    if workers > 1:
        # the table goes to each worker once, not with every job; each worker
        # is a fresh process started with one BLAS thread, so the workers do
        # not share the cores with BLAS thread pools of their own
        saved = {k: v for k, v in os.environ.items() if k in _BLAS_THREAD_VARS}
        os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
        try:
            with ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("spawn"),
                initializer=_init_pool_worker,
                initargs=(table,),
            ) as pool:
                outcomes = list(pool.map(_pool_grid_job, jobs))
        finally:
            for name in _BLAS_THREAD_VARS:
                del os.environ[name]
            os.environ.update(saved)
    else:
        outcomes = [_grid_job(table, job) for job in jobs]

    cells = [cell for cell, *_ in plan]
    for i, metrics in enumerate(outcomes):
        per_run = cells[i // split_spec.runs].per_run
        for name, value in metrics.items():
            per_run.setdefault(name, []).append(value)
    for cell in cells:
        cell.metrics = {
            name: (float(np.mean(vals)), float(np.std(vals)))
            for name, vals in cell.per_run.items()
        }
    naive = [naive_baseline_cell(first)] if include_baselines else []
    report = EvalReport(cells=cells[:num_grid], baselines=naive + cells[num_grid:])
    report.annotate_best()
    return report


def naive_baseline_cell(table: MetaRecordTable) -> EvalCell:
    acc = naive_baseline_accuracy(len(table), int(table.labels.sum()))
    return EvalCell(
        family="naive",
        task="classification",
        num_stability=0,
        history=table.history,
        metrics={"acc": (acc, 0.0), "auroc": (0.5, 0.0)},
    )

"""Linear meta models: ridge least squares and logistic regression."""

from __future__ import annotations

import warnings

import numpy as np
from scipy.special import expit

from .base import ModelSpec, TrainedModel, spec_metadata

_ARMIJO = 1e-4  # sufficient-decrease fraction of the line search
_MAX_HALVINGS = 40


class LinearModel(TrainedModel):
    family = "linear"
    PARAMS = {"weights": (float, 1), "intercept": (float, 0)}

    def raw_scores(self, features, mask=None) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        self._check_features(features, self.params["weights"].shape)
        return features @ self.params["weights"] + self.params["intercept"]

    @classmethod
    def fit(cls, train, val, spec: ModelSpec) -> "LinearModel":
        """Fit the linear meta model; the validation split is not used.

        A logistic fit that does not converge warns once with a RuntimeWarning.
        """
        X, y = (np.asarray(a, dtype=np.float64) for a in train)
        if spec.task == "regression":
            weights, intercept = _fit_ridge(X, y, spec.ridge)
            extra = {}
        else:
            weights, intercept, iterations, converged, max_grad = _fit_logistic(X, y, spec)
            if not converged:
                warnings.warn(
                    f"logistic fit not converged after {iterations} Newton steps: "
                    f"max |gradient| {max_grad:.3g}, gd_tol {spec.gd_tol:g}",
                    RuntimeWarning,
                    stacklevel=2,
                )
            extra = {"iterations": iterations, "converged": converged}
        params = {"weights": weights, "intercept": float(intercept)}
        return cls(spec.task, params, spec_metadata(spec, extra))


def _fit_ridge(X: np.ndarray, y: np.ndarray, ridge: float):
    n, d = X.shape
    design = np.concatenate([X, np.ones((n, 1))], axis=1)
    gram = design.T @ design
    penalty = np.full(d + 1, ridge)
    penalty[-1] = 0.0  # intercept unpenalized
    gram += np.diag(penalty)
    coef = np.linalg.solve(gram, design.T @ y)
    return coef[:-1], coef[-1]


def _fit_logistic(X: np.ndarray, y: np.ndarray, spec: ModelSpec):
    """Damped Newton (IRLS) on mean logistic loss + 0.5 * ridge * ||w||^2.

    The intercept is unpenalized.  Each iteration solves the Hessian against
    the gradient (least squares when the Hessian is singular, e.g. ridge 0
    with a constant column) and halves the step until the Armijo condition
    holds.  The fit converges when max |gradient| < gd_tol before all
    gd_max_iter steps are spent; it stops unconverged when no step length
    decreases the objective.  Returns weights, intercept, the Newton steps
    taken, the convergence flag and the final max |gradient|.
    """
    n, d = X.shape
    design = np.concatenate([X, np.ones((n, 1))], axis=1)
    penalty = np.full(d + 1, spec.ridge)
    penalty[-1] = 0.0

    def objective(w):
        z = design @ w
        return np.mean(np.logaddexp(0.0, z) - y * z) + 0.5 * (penalty * w) @ w, z

    w = np.zeros(d + 1)
    loss, z = objective(w)
    iterations = 0
    while True:
        p = expit(z)
        grad = design.T @ (p - y) / n + penalty * w
        max_grad = float(np.abs(grad).max())
        if max_grad < spec.gd_tol or iterations == spec.gd_max_iter:
            break
        hess = (design.T * (p * (1.0 - p))) @ design / n + np.diag(penalty)
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, -grad, rcond=None)[0]
        slope = grad @ step
        if not slope < 0.0:  # also catches a non-finite direction
            break
        scale = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = w + scale * step
            trial_loss, trial_z = objective(trial)
            # written as a difference so that a decrease lost to rounding
            # fails instead of passing as equality
            if loss - trial_loss >= -_ARMIJO * scale * slope:
                break
            scale *= 0.5
        else:
            break
        w, loss, z = trial, trial_loss, trial_z
        iterations += 1
    converged = max_grad < spec.gd_tol and iterations < spec.gd_max_iter
    return w[:-1], w[-1], iterations, converged, max_grad

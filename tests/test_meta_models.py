import functools
import json
import os
import warnings

import numpy as np
import pytest
from scipy.special import expit

import oracles
from segquality.meta_models import (
    FAMILIES,
    MODELS,
    TASKS,
    GradientBoostingModel,
    LinearModel,
    ModelSpec,
    RecurrentNetModel,
    ShallowNetModel,
    load_model,
    train_model,
)
from segquality.meta_models.boosting import _apply, _fit_tree, _SplitContext, _walk
from segquality.meta_models.neural import _sigmoid_, _train_loop

DATA = os.path.join(os.path.dirname(__file__), "data")


def _flatten(params):
    keys = sorted(params)
    return np.concatenate([params[k].ravel() for k in keys]), keys


def _unflatten(vector, params, keys):
    out = {}
    offset = 0
    for k in keys:
        size = params[k].size
        out[k] = vector[offset : offset + size].reshape(params[k].shape).copy()
        offset += size
    return out


def finite_difference_check(core, inputs, y, h=1e-5):
    """Max relative error between analytic gradients and central differences."""
    _, grads = core.loss_and_grad(inputs[0], y, *inputs[1:])
    flat, keys = _flatten(core.params)
    grad_flat, _ = _flatten(grads)
    worst = 0.0
    for i in range(len(flat)):
        bumped = flat.copy()
        bumped[i] += h
        core.params.update(_unflatten(bumped, core.params, keys))
        loss_plus = core.loss(inputs[0], y, *inputs[1:])
        bumped[i] -= 2 * h
        core.params.update(_unflatten(bumped, core.params, keys))
        loss_minus = core.loss(inputs[0], y, *inputs[1:])
        bumped[i] += h
        core.params.update(_unflatten(bumped, core.params, keys))
        numeric = (loss_plus - loss_minus) / (2 * h)
        denom = max(abs(grad_flat[i]), abs(numeric), 1e-3)
        worst = max(worst, abs(grad_flat[i] - numeric) / denom)
    return worst


# ---------------------------------------------------------------- linear


def test_linear_regression_recovers_slope():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((200, 1))
    y = 2.5 * x[:, 0] + 0.7
    spec = ModelSpec(family="linear", task="regression", ridge=1e-6)
    model = LinearModel.fit((x, y), (x, y), spec)
    assert model.params["weights"][0] == pytest.approx(2.5, abs=1e-6)
    assert model.params["intercept"] == pytest.approx(0.7, abs=1e-6)


def test_linear_regression_constant_targets():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((50, 3))
    y = np.full(50, 0.42)
    model = LinearModel.fit((x, y), (x, y), ModelSpec("linear", "regression"))
    assert np.abs(model.params["weights"]).max() < 1e-6
    assert model.params["intercept"] == pytest.approx(0.42, abs=1e-9)
    assert np.allclose(model.predict(x), 0.42, atol=1e-6)


def test_linear_classification_separable_reaches_full_accuracy():
    rng = np.random.default_rng(2)
    x = np.concatenate([rng.normal(-2.0, 0.3, (60, 2)), rng.normal(2.0, 0.3, (60, 2))])
    y = np.concatenate([np.zeros(60), np.ones(60)])
    model = LinearModel.fit((x, y), (x, y), ModelSpec("linear", "classification"))
    scores = model.predict(x)
    assert (((scores >= 0.5) == y).mean()) == 1.0
    assert scores.min() >= 0.0 and scores.max() <= 1.0


def _noisy_logistic_problem(seed=20, n=400, d=6):
    """Seeded labels drawn from a logistic model, so no hyperplane separates them."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    y = (rng.random(n) < expit(x @ rng.standard_normal(d) + 0.4)).astype(float)
    return x, y


def test_logistic_matches_scipy_minimizer_of_same_objective():
    x, y = _noisy_logistic_problem()
    spec = ModelSpec("linear", "classification", ridge=1e-3)
    model = LinearModel.fit((x, y), (x, y), spec)
    weights, intercept = oracles.logistic_ridge_minimizer(x, y, spec.ridge)
    ours = np.append(model.params["weights"], model.params["intercept"])
    ref = np.append(weights, intercept)
    assert np.abs(ours - ref).max() <= 1e-6 * np.abs(ref).max()


def test_logistic_ends_below_gradient_tolerance_and_reports_converged():
    x, y = _noisy_logistic_problem(seed=21)
    spec = ModelSpec("linear", "classification")
    model = LinearModel.fit((x, y), (x, y), spec)
    design = np.concatenate([x, np.ones((len(x), 1))], axis=1)
    w = np.append(model.params["weights"], model.params["intercept"])
    penalty = np.append(np.full(x.shape[1], spec.ridge), 0.0)
    grad = design.T @ (expit(design @ w) - y) / len(y) + penalty * w
    assert np.abs(grad).max() < spec.gd_tol
    assert model.metadata["converged"] is True
    assert 0 < model.metadata["iterations"] < 50


def test_logistic_step_cap_reports_unconverged_and_warns():
    x, y = _noisy_logistic_problem(seed=22)
    spec = ModelSpec("linear", "classification", gd_max_iter=1)
    with pytest.warns(RuntimeWarning, match="not converged after 1 Newton steps"):
        model = LinearModel.fit((x, y), (x, y), spec)
    assert model.metadata["converged"] is False
    assert model.metadata["iterations"] == 1


def test_logistic_stops_when_no_step_decreases_objective():
    # no float64 gradient reaches 1e-300: once the objective stops decreasing
    # the fit must stop unconverged instead of spending all gd_max_iter steps
    x, y = _noisy_logistic_problem(seed=25)
    spec = ModelSpec("linear", "classification", gd_tol=1e-300)
    with pytest.warns(RuntimeWarning, match="not converged"):
        model = LinearModel.fit((x, y), (x, y), spec)
    assert model.metadata["converged"] is False
    assert model.metadata["iterations"] < 50


def test_logistic_singular_hessian_does_not_raise():
    x, y = _noisy_logistic_problem(seed=23)
    x[:, 2] = 0.0  # with ridge 0 this column makes the Hessian singular
    spec = ModelSpec("linear", "classification", ridge=0.0)
    model = LinearModel.fit((x, y), (x, y), spec)
    assert np.isfinite(model.params["weights"]).all() and np.isfinite(model.params["intercept"])
    assert model.params["weights"][2] == pytest.approx(0.0, abs=1e-12)
    assert model.metadata["converged"] is True


@pytest.mark.parametrize("label", [0.0, 1.0])
def test_logistic_single_class_labels_give_finite_weights(label):
    x, _ = _noisy_logistic_problem(seed=24)
    y = np.full(len(x), label)
    model = LinearModel.fit((x, y), (x, y), ModelSpec("linear", "classification"))
    assert np.isfinite(model.params["weights"]).all() and np.isfinite(model.params["intercept"])
    scores = model.predict(x)
    assert np.all(scores > 0.99) if label else np.all(scores < 0.01)


# ---------------------------------------------------------------- boosting


def _gb_seeded_fits(x, signal):
    """Both GB tasks on a seeded 200-row table, as plain JSON data."""
    targets = {
        "classification": (signal > 0).astype(float),
        "regression": expit(signal),
    }
    fits = {}
    for task, y in targets.items():
        min_leaf = 3 if task == "regression" else 1
        spec = ModelSpec("gradient_boosting", task, max_rounds=20, min_leaf=min_leaf)
        model = GradientBoostingModel.fit((x[:160], y[:160]), (x[160:], y[160:]), spec)
        fits[task] = {
            "parameters": model.to_dict()["parameters"],
            "metadata": {
                key: model.metadata[key]
                for key in ("rounds_trained", "rounds_kept", "val_loss")
            },
            "predictions": model.predict(x).tolist(),
        }
    return json.loads(json.dumps(fits))


def _gb_recorded(name):
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        return json.load(fh)


def test_gb_fits_equal_recorded_models():
    # recorded with the tree code that re-applied every tree to the training
    # rows and carried float64 values through the partitions
    rng = np.random.default_rng(30)
    x = rng.standard_normal((200, 5))
    x[:, :2] = np.round(x[:, :2], 1)  # ties exercise the distinct-value rule
    signal = x[:, 0] + x[:, 1] * x[:, 2] + 0.5 * rng.standard_normal(200)
    assert _gb_seeded_fits(x, signal) == _gb_recorded("gb_models_seed30.json")


def _gb_dedup_table(seed, n):
    """Seeded table whose columns tie, repeat, stay constant or take 0/1."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 9))
    x[:, 1] = np.round(x[:, 1], 1)  # ties
    x[:, 2] = 4.0 * x[:, 0]  # column 0's sorted order, no ties
    x[:, 3] = 0.5  # constant
    x[:, 4] = x[:, 5] > 0  # 0/1
    x[:, 6] = x[:, 1]  # duplicate of a tied column
    x[:, 7] = np.round(x[:, 7])  # few distinct values
    x[:, 8] = np.argsort(np.argsort(x[:, 1], kind="stable"))  # column 1's order, no ties
    signal = x[:, 0] + x[:, 1] * x[:, 5] - x[:, 7] + 0.5 * rng.standard_normal(n)
    return x, signal


def test_gb_fits_with_duplicate_columns_equal_recorded_models():
    # recorded with the tree code that searched every column in row-major
    # (position, feature) layout and partitioned down to the leaves
    fits = _gb_seeded_fits(*_gb_dedup_table(31, 200))
    assert fits == _gb_recorded("gb_models_seed31.json")


@pytest.mark.parametrize("max_rounds, at_cap", [(5, True), (200, False)])
def test_gb_best_at_cap_marks_a_fit_still_improving_at_max_rounds(max_rounds, at_cap):
    x, signal = _gb_dedup_table(31, 200)
    y = (signal > 0).astype(float)
    spec = ModelSpec("gradient_boosting", "classification", max_rounds=max_rounds)
    model = GradientBoostingModel.fit((x[:160], y[:160]), (x[160:], y[160:]), spec)
    assert model.metadata["rounds_trained"] == max_rounds
    assert model.metadata["best_at_cap"] is at_cap
    assert (model.metadata["rounds_kept"] == max_rounds) is at_cap


@pytest.mark.parametrize("depth", [1, 3, 4])
@pytest.mark.parametrize("min_leaf", [1, 3])
def test_fit_tree_matches_brute_force_split_search(depth, min_leaf):
    for seed in range(3):
        x, signal = _gb_dedup_table(seed, 60)
        ctx = _SplitContext(x, min_leaf)
        assert sorted(ctx.features) == [0, 1, 3, 4, 5, 7, 8]  # 2 and 6 repeat 0 and 1
        rng = np.random.default_rng(100 + seed)
        gradients = [
            # a balanced first logistic round: many splits tie exactly
            ((signal > 0) - 0.5, np.full(len(x), 0.25)),
            (rng.standard_normal(len(x)), np.ones(len(x))),
        ]
        for grad, hess in gradients:
            tree, reached = _fit_tree(ctx, grad, hess, depth)
            expected = oracles.grow_tree(x, grad, hess, depth, min_leaf)
            assert tree == expected
            assert np.array_equal(reached, oracles.tree_apply(expected, x))


def test_tree_apply_matches_per_node_walk():
    rng = np.random.default_rng(31)
    x = np.round(rng.standard_normal((150, 4)), 1)
    y = (x[:, 0] * x[:, 1] > 0).astype(float)
    spec = ModelSpec("gradient_boosting", "classification", max_rounds=15, tree_depth=4)
    model = GradientBoostingModel.fit((x[:100], y[:100]), (x[100:], y[100:]), spec)
    probe = np.concatenate([x, np.round(rng.standard_normal((50, 4)), 1)])
    depths = set()
    for tree in model.params["trees"]:
        expected = oracles.tree_apply(tree, probe)
        assert np.array_equal(_apply(_walk(tree, 4, "tree"), probe), expected)
        depths.add(len(tree["feature"]))
    assert len(depths) > 1  # trees of several shapes, leaves at several depths
    leaf_only = {"feature": [-1], "threshold": [0.0], "left": [-1], "right": [-1]}
    single = _walk({**leaf_only, "value": [0.25]}, 4, "tree")
    assert np.array_equal(_apply(single, probe), np.full(len(probe), 0.25))
    assert _apply(single, probe[:0]).shape == (0,)


def test_gb_single_stump_fits_step_function():
    x = np.linspace(-1, 1, 40).reshape(-1, 1)
    y = (x[:, 0] > 0).astype(float)
    spec = ModelSpec(
        family="gradient_boosting",
        task="regression",
        max_rounds=1,
        tree_depth=1,
        gb_learning_rate=1.0,
    )
    model = GradientBoostingModel.fit((x, y), (x, y), spec)
    assert np.abs(model.predict(x) - y).max() < 1e-12


def test_gb_constant_targets_predicts_base_score():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((30, 3))
    y = np.full(30, 0.6)
    model = GradientBoostingModel.fit((x, y), (x, y), ModelSpec("gradient_boosting", "regression"))
    assert len(model.params["trees"]) == 0
    assert np.allclose(model.predict(x), 0.6)


def test_gb_round_selection_within_budget():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((120, 4))
    y = (x[:, 0] + 0.3 * rng.standard_normal(120) > 0).astype(float)
    spec = ModelSpec("gradient_boosting", "classification", max_rounds=25)
    model = GradientBoostingModel.fit((x[:80], y[:80]), (x[80:], y[80:]), spec)
    assert model.metadata["rounds_kept"] <= spec.max_rounds
    assert len(model.params["trees"]) == model.metadata["rounds_kept"]


def test_gb_learns_nonlinear_interaction():
    rng = np.random.default_rng(6)
    x = rng.uniform(-1, 1, (400, 2))
    y = ((x[:, 0] > 0) ^ (x[:, 1] > 0)).astype(float)
    spec = ModelSpec("gradient_boosting", "classification", max_rounds=60)
    model = GradientBoostingModel.fit((x[:300], y[:300]), (x[300:], y[300:]), spec)
    acc = (((model.predict(x[300:]) >= 0.5) == y[300:])).mean()
    assert acc > 0.95


def test_gb_deterministic():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((100, 5))
    y = rng.random(100)
    spec = ModelSpec("gradient_boosting", "regression", max_rounds=20)
    a = GradientBoostingModel.fit((x[:70], y[:70]), (x[70:], y[70:]), spec)
    b = GradientBoostingModel.fit((x[:70], y[:70]), (x[70:], y[70:]), spec)
    assert a.to_dict() == b.to_dict()


# ---------------------------------------------------------------- shallow net


def test_nn_gradients_match_finite_differences():
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((5, 6))
        task = "classification" if seed % 2 == 0 else "regression"
        y = (
            rng.integers(0, 2, 5).astype(float)
            if task == "classification"
            else rng.random(5)
        )
        params = ShallowNetModel.init_params(6, 12, rng)
        core = ShallowNetModel(task, params, {})
        worst = max(worst, finite_difference_check(core, (x,), y))
    assert worst <= 1e-4


def test_nn_zero_init_zero_targets_is_stationary():
    x = np.random.default_rng(9).standard_normal((20, 3))
    y = np.zeros(20)
    zero_params = {
        "w1": np.zeros((3, 8)),
        "b1": np.zeros(8),
        "w2": np.zeros(8),
        "b2": np.zeros(1),
    }
    spec = ModelSpec("shallow_nn", "regression", hidden_units=8, max_epochs=5)
    core = ShallowNetModel(spec.task, zero_params, {})
    _train_loop(core, [x], y, [x], y, spec, np.random.default_rng(spec.seed))
    assert np.allclose(core.raw_scores(x), 0.0)
    for value in core.params.values():
        assert np.allclose(value, 0.0)


def test_nn_learns_xor_within_epoch_budget():
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, (400, 2))
    y = ((x[:, 0] > 0) ^ (x[:, 1] > 0)).astype(float)
    spec = ModelSpec(
        "shallow_nn", "classification", seed=0, max_epochs=2000, patience=2000
    )
    model = ShallowNetModel.fit((x, y), (x, y), spec)
    acc = (((model.predict(x) >= 0.5) == y)).mean()
    assert acc > 0.9
    assert model.metadata["epochs_trained"] <= 2000


def test_nn_nonfinite_loss_aborts_with_diagnostics():
    rng = np.random.default_rng(19)
    x = rng.standard_normal((30, 3)) * 1e150
    y = rng.random(30) * 1e150
    spec = ModelSpec(
        "shallow_nn", "regression", hidden_units=4, learning_rate=1e12, max_epochs=50
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match="non-finite"):
            ShallowNetModel.fit((x, y), (x, y), spec)


# ---------------------------------------------------------------- shallow lstm


def test_lstm_gradients_match_finite_differences():
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        x = rng.standard_normal((5, 3, 4))  # three unrolled steps
        mask = np.ones((5, 3))
        mask[1, 0] = 0.0  # one masked step exercises the carry-through path
        task = "classification" if seed % 2 == 0 else "regression"
        y = (
            rng.integers(0, 2, 5).astype(float)
            if task == "classification"
            else rng.random(5)
        )
        params = RecurrentNetModel.init_params(4, 8, rng)
        core = RecurrentNetModel(task, params, {})
        worst = max(worst, finite_difference_check(core, (x, mask), y))
    assert worst <= 1e-4


def test_lstm_single_step_sequence():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((30, 1, 5))
    mask = np.ones((30, 1))
    y = rng.integers(0, 2, 30).astype(float)
    spec = ModelSpec("shallow_lstm", "classification", hidden_units=6, max_epochs=5)
    model = RecurrentNetModel.fit((x, mask, y), (x, mask, y), spec)
    scores = model.predict(x, mask)
    assert np.isfinite(scores).all()
    assert scores.min() >= 0.0 and scores.max() <= 1.0


def test_lstm_remembers_first_timestep():
    rng = np.random.default_rng(12)
    n, steps, dim = 600, 5, 4
    x = rng.standard_normal((n, steps, dim))
    mask = np.ones((n, steps))
    y = (x[:, 0, 0] > 0).astype(float)  # label depends on the oldest step only
    split = 450
    spec = ModelSpec(
        "shallow_lstm",
        "classification",
        seed=0,
        hidden_units=50,
        max_epochs=300,
        patience=50,
    )
    model = RecurrentNetModel.fit(
        (x[:split], mask[:split], y[:split]),
        (x[split:], mask[split:], y[split:]),
        spec,
    )
    scores = model.predict(x[split:], mask[split:])
    acc = (((scores >= 0.5) == y[split:])).mean()
    assert acc > 0.9


def test_lstm_masked_steps_carry_state():
    rng = np.random.default_rng(13)
    params = RecurrentNetModel.init_params(3, 4, rng)
    core = RecurrentNetModel("regression", params, {})
    x = rng.standard_normal((2, 4, 3))
    full_mask = np.ones((2, 4))
    skip_mask = full_mask.copy()
    skip_mask[:, 2] = 0.0
    # zeroing a masked step's features must not change the output
    x_altered = x.copy()
    x_altered[:, 2, :] = 99.0
    out_a = core.raw_scores(x_altered, skip_mask)
    x_zeroed = x.copy()
    x_zeroed[:, 2, :] = 0.0
    out_b = core.raw_scores(x_zeroed, skip_mask)
    assert np.allclose(out_a, out_b, atol=1e-12)
    assert not np.allclose(core.raw_scores(x, full_mask), out_a, atol=1e-6)


def test_lstm_predict_rejects_mask_of_wrong_shape():
    rng = np.random.default_rng(19)
    x = rng.standard_normal((20, 2, 3))
    mask = np.ones((20, 2))
    spec = ModelSpec("shallow_lstm", "regression", hidden_units=4, max_epochs=2)
    model = RecurrentNetModel.fit((x, mask, rng.random(20)), (x, mask, rng.random(20)), spec)
    for bad in (np.ones((20, 3)), np.ones(20)):  # an extra column; one dimension
        with pytest.raises(ValueError, match=r"expected \(n, steps\) = \(20, 2\), got"):
            model.predict(x, bad)
    assert model.predict(x, mask.tolist()).shape == (20,)


def _lstm_seeded_cases():
    """Both LSTM tasks at steps 1 and 3 on seeded tables with masked slots.

    Oldest-first masks (0, 0, 1), (0, 1, 1), (1, 0, 1) and (1, 1, 1); the hole
    pattern (1, 0, 1) is the one a track that skips a frame leaves.  Yields
    (name, spec, x, mask, y); the first 230 rows train, the rest validate.
    """
    rng = np.random.default_rng(40)
    n, dim = 300, 4
    patterns = np.array([[0, 0, 1], [0, 1, 1], [1, 0, 1], [1, 1, 1]], dtype=float)
    for steps in (1, 3):
        x = rng.standard_normal((n, steps, dim))
        mask = patterns[rng.integers(0, 4, n)] if steps == 3 else np.ones((n, 1))
        x *= mask[..., None]  # build_time_series zeroes absent slots
        signal = x[:, -1, 0] + x[:, 0, 1] - 0.5 * x[:, -1, 2] + 0.3 * rng.standard_normal(n)
        targets = {
            "classification": (signal > 0).astype(float),
            "regression": expit(signal),
        }
        for task, y in targets.items():
            spec = ModelSpec(
                "shallow_lstm",
                task,
                seed=steps,
                hidden_units=8,
                learning_rate=0.01,
                batch_size=64,
                patience=5,
                max_epochs=150,
            )
            yield f"{task}_steps{steps}", spec, x, mask, y


def _lstm_seeded_fits():
    """Each seeded case's saved model, training metadata and predictions on
    every row, as plain JSON data."""
    fits = {}
    for name, spec, x, mask, y in _lstm_seeded_cases():
        model = RecurrentNetModel.fit(
            (x[:230], mask[:230], y[:230]), (x[230:], mask[230:], y[230:]), spec
        )
        fits[name] = {
            "model": model.to_dict(),
            "metadata": {
                key: model.metadata[key] for key in ("epochs_trained", "best_epoch", "val_loss")
            },
            "predictions": model.predict(x, mask).tolist(),
        }
    return json.loads(json.dumps(fits))


def _recorded_lstm_fits():
    with open(os.path.join(DATA, "lstm_fits_seed40.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_lstm_fits_follow_recorded_trajectory():
    # recorded with the (n, 4H) gate layout.  The kernel's loss and gradients
    # agree with it to a few ulps, so every fit must stop at the same epochs,
    # and its best validation loss and scores may move by rounding only.
    recorded = _recorded_lstm_fits()
    got = _lstm_seeded_fits()
    assert sorted(got) == sorted(recorded)
    for name, fit in got.items():
        want = recorded[name]
        for key in ("epochs_trained", "best_epoch"):
            assert fit["metadata"][key] == want["metadata"][key], (name, key)
        assert fit["metadata"]["val_loss"] == pytest.approx(
            want["metadata"]["val_loss"], rel=1e-9
        ), name
        assert np.allclose(fit["predictions"], want["predictions"], rtol=0, atol=1e-9), name


def test_recorded_lstm_models_load_and_predict(tmp_path):
    # model files saved before the batch-last kernel score as they did then
    recorded = _recorded_lstm_fits()
    for name, _, x, mask, _ in _lstm_seeded_cases():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(recorded[name]["model"]), encoding="utf-8")
        scores = load_model(path).predict(x, mask)
        assert np.abs(scores - recorded[name]["predictions"]).max() <= 1e-12, name


def _lstm_case(rng, n, steps, dim, hidden, task, scale=1.0):
    x = rng.standard_normal((n, steps, dim)) * scale
    y = rng.integers(0, 2, n).astype(float) if task == "classification" else rng.random(n)
    params = RecurrentNetModel.init_params(dim, hidden, rng)
    params["b"] += rng.standard_normal(4 * hidden)
    return x, y, params


def _relative_error(got, want):
    """Largest deviation relative to the largest magnitude of `want`."""
    return np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300)


@pytest.mark.parametrize("task", ["classification", "regression"])
@pytest.mark.parametrize(
    "n, steps, masked",
    [
        (9, 3, []),
        (9, 3, [(1, 1), (4, 0)]),  # masked steps in two sequences
        (9, 3, [(r, 0) for r in range(9)] + [(2, 1)]),  # oldest column fully masked
        (9, 1, []),
        (9, 1, [(3, 0)]),
        (1, 3, [(0, 0)]),
        (1, 1, []),
    ],
)
def test_lstm_core_matches_per_step_oracle(task, n, steps, masked):
    rng = np.random.default_rng(30 + 7 * n + steps + len(masked))
    x, y, params = _lstm_case(rng, n, steps, dim=4, hidden=6, task=task, scale=2.0)
    mask = np.ones((n, steps))
    for row, step in masked:
        mask[row, step] = 0.0
        x[row, step] = 0.0  # build_time_series zeroes absent slots
    want_loss, want = oracles.lstm_loss_and_grad(params, task, 6, x, y, mask)
    core = RecurrentNetModel(task, params, {})
    loss, grads = core.loss_and_grad(x, y, mask)
    assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
    assert abs(core.loss(x, y, mask) - want_loss) <= 1e-12 * abs(want_loss)
    assert sorted(grads) == sorted(want)
    for key in want:
        assert grads[key].shape == want[key].shape
        if not np.any(want[key]):
            assert not np.any(grads[key]), key
        else:
            assert _relative_error(grads[key], want[key]) <= 1e-12, key


def test_lstm_workspace_reuse_matches_fresh_cores():
    rng = np.random.default_rng(31)
    dim, hidden, steps = 5, 7, 3
    _, _, params = _lstm_case(rng, 1, steps, dim, hidden, "classification")
    core = RecurrentNetModel("classification", params, {})
    for n in (256, 104, 88, 256, 104, 88):
        x = rng.standard_normal((n, steps, dim))
        mask = (rng.random((n, steps)) > 0.3).astype(float)
        mask[:, -1] = 1.0
        y = rng.integers(0, 2, n).astype(float)
        loss, grads = core.loss_and_grad(x, y, mask)
        grads = {key: val.copy() for key, val in grads.items()}
        fresh_loss, fresh = RecurrentNetModel("classification", params, {}).loss_and_grad(
            x, y, mask
        )
        assert loss == fresh_loss
        for key in fresh:
            assert np.array_equal(grads[key], fresh[key]), key
        assert core.loss(x, y, mask) == fresh_loss
    assert sorted(core._workspaces) == [(88, steps), (104, steps), (256, steps)]
    x = rng.standard_normal((2, 104, steps, dim))
    first = core.raw_scores(x[0], np.ones((104, steps)))
    kept = first.copy()
    core.raw_scores(x[1], np.ones((104, steps)))
    core.loss_and_grad(x[1], np.zeros(104), np.ones((104, steps)))
    assert np.array_equal(first, kept)


def test_trained_lstm_holds_no_workspace():
    rng = np.random.default_rng(32)
    x = rng.standard_normal((40, 2, 3))
    mask = np.ones((40, 2))
    y = rng.random(40)
    spec = ModelSpec("shallow_lstm", "regression", hidden_units=5, max_epochs=3)
    model = RecurrentNetModel.fit((x, mask, y), (x, mask, y), spec)
    first = model.predict(x, mask)
    model.predict(x[::-1].copy(), mask)
    assert not model._workspaces and not model._grads
    assert np.array_equal(first, model.predict(x, mask))


def test_sigmoid_saturates_exactly_without_warnings():
    z = np.array([-1000.0, -745.0, -709.0, -30.0, 0.0, 30.0, 709.0, 1000.0, np.inf, -np.inf])
    want = expit(z)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = z.copy()
        _sigmoid_(got)
        assert np.array_equal(got[[0, 1, 7, 8, 9]], [0.0, 0.0, 1.0, 1.0, 0.0])
        assert np.max(np.abs(got - want) / np.maximum(want, 1e-300)) <= 1e-15
        # gates driven to +-1000 inside the core
        hidden = 3
        params = RecurrentNetModel.init_params(2, hidden, np.random.default_rng(33))
        params["wx"][:] = 0.0
        params["wh"][:] = 0.0
        params["b"][:] = np.repeat([1000.0, -1000.0, 1000.0, -1000.0], hidden)
        core = RecurrentNetModel("classification", params, {})
        x = np.ones((4, 2, 2))
        loss, grads = core.loss_and_grad(x, np.array([0.0, 1.0, 0.0, 1.0]), np.ones((4, 2)))
    gates = core._workspace(4, 2).gates  # (steps, 4H, n): gate blocks are rows
    assert np.array_equal(gates[:, :hidden], np.ones((2, hidden, 4)))  # i
    assert np.array_equal(gates[:, hidden : 2 * hidden], np.zeros((2, hidden, 4)))  # f
    assert np.array_equal(gates[:, 3 * hidden :], np.zeros((2, hidden, 4)))  # o
    for step in gates:
        assert all(block.flags.c_contiguous for block in core._gates(step))
    assert np.isfinite(loss)
    assert all(np.isfinite(val).all() for val in grads.values())


# ---------------------------------------------------------------- contract


def _linear_nn_seeded_fits():
    """linear and shallow_nn fits of both tasks on a seeded table: each saved
    model and its scores on every row, as plain JSON data."""
    rng = np.random.default_rng(50)
    x = rng.standard_normal((200, 5))
    signal = x[:, 0] - 0.5 * x[:, 1] * x[:, 2] + 0.5 * rng.standard_normal(200)
    targets = {
        "classification": (signal > 0).astype(float),
        "regression": expit(signal),
    }
    fits = {}
    for family in ("linear", "shallow_nn"):
        for task, y in targets.items():
            spec = ModelSpec(
                family,
                task,
                seed=5,
                hidden_units=8,
                learning_rate=0.01,
                batch_size=64,
                patience=5,
                max_epochs=60,
            )
            model = train_model(spec, (x[:160], y[:160]), (x[160:], y[160:]))
            fits[f"{family}_{task}"] = {
                "model": model.to_dict(),
                "predictions": model.predict(x).tolist(),
            }
    return json.loads(json.dumps(fits))


@pytest.mark.parametrize("task", TASKS)
@pytest.mark.parametrize("family", FAMILIES)
def test_saved_model_loads_with_equal_parameters_and_scores(tmp_path, family, task):
    rng = np.random.default_rng(8)
    x = rng.standard_normal((60, 2, 3))
    mask = np.ones((60, 2))
    mask[::3, 0] = 0.0
    signal = x[:, 1, 0] + mask[:, 0] * x[:, 0, 1] + 0.3 * rng.standard_normal(60)
    y = (signal > 0).astype(float) if task == "classification" else expit(signal)
    inputs = (x, mask) if family == "shallow_lstm" else (x[:, 1],)
    train = tuple(a[:40] for a in (*inputs, y))
    val = tuple(a[40:] for a in (*inputs, y))
    spec = ModelSpec(family, task, max_rounds=10, hidden_units=5, max_epochs=10)
    model = train_model(spec, train, val)
    assert train_model(spec, train, val).to_dict() == model.to_dict()  # deterministic
    path = tmp_path / "model.json"
    model.save(path)
    loaded = load_model(path)
    assert type(model) is type(loaded) is MODELS[family]
    assert loaded.to_dict() == model.to_dict()
    assert np.array_equal(loaded.predict(*inputs), model.predict(*inputs))


def test_registry_holds_one_class_per_family():
    assert set(MODELS) == set(FAMILIES)
    for family in FAMILIES:
        assert MODELS[family].family == family


def _saved_lstm_doc(tmp_path):
    rng = np.random.default_rng(21)
    x = rng.standard_normal((20, 2, 3))
    mask = np.ones((20, 2))
    spec = ModelSpec("shallow_lstm", "regression", hidden_units=4, max_epochs=2)
    model = RecurrentNetModel.fit((x, mask, rng.random(20)), (x, mask, rng.random(20)), spec)
    return model.to_dict(), tmp_path / "model.json"


def test_load_model_refuses_lstm_hidden_that_disagrees_with_wh(tmp_path):
    doc, path = _saved_lstm_doc(tmp_path)
    doc["parameters"]["hidden"] = 5
    path.write_text(json.dumps(doc), encoding="utf-8")
    want = r"model\.json: parameters\.hidden is 5, but wh has 4 rows"
    with pytest.raises(ValueError, match=want):
        load_model(path)


def test_load_model_refuses_file_without_parameters(tmp_path):
    doc, path = _saved_lstm_doc(tmp_path)
    del doc["parameters"]
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match=r"model\.json: model file lacks key 'parameters'"):
        load_model(path)


# the parameter each family's corruption cases edit, as a path into `parameters`
_CORRUPTED_KEY = {
    "linear": ("weights",),
    "gradient_boosting": ("trees", 0, "threshold"),
    "shallow_nn": ("w1",),
    "shallow_lstm": ("wh",),
}


@functools.lru_cache(maxsize=None)
def _saved_model_json(family):
    rng = np.random.default_rng(22)
    x = rng.standard_normal((40, 2, 3))
    mask = np.ones((40, 2))
    y = (x[:, 1, 0] > 0).astype(float)
    inputs = (x, mask) if family == "shallow_lstm" else (x[:, 1],)
    train = tuple(a[:30] for a in (*inputs, y))
    val = tuple(a[30:] for a in (*inputs, y))
    spec = ModelSpec(family, "classification", max_rounds=3, hidden_units=3, max_epochs=2)
    return json.dumps(train_model(spec, train, val).to_dict())


def _corrupt(owner, key, case):
    if case == "dropped":
        del owner[key]
    elif case == "string":
        owner[key] = "0.5"
    elif case == "nested":
        owner[key] = [owner[key]]
    else:
        array = owner[key]
        while isinstance(array[0], list):
            array = array[0]
        array[0] = {"nan": float("nan"), "infinity": float("inf"), "true": True}[case]


@pytest.mark.parametrize(
    "case", ["not_object", "dropped", "string", "nested", "nan", "infinity", "true"]
)
@pytest.mark.parametrize("family", FAMILIES)
def test_load_model_refuses_corrupt_parameters(tmp_path, family, case):
    doc = json.loads(_saved_model_json(family))
    *steps, key = _CORRUPTED_KEY[family]
    if case == "not_object":
        doc["parameters"], name = [], "parameters"
    else:
        owner = doc["parameters"]
        for step in steps:
            owner = owner[step]
        _corrupt(owner, key, case)
        name = "parameters" + "".join(
            f"[{s}]" if isinstance(s, int) else f".{s}" for s in (*steps, key)
        )
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")  # NaN and Infinity tokens
    with pytest.raises(ValueError) as info:
        load_model(path)
    message = str(info.value)
    assert type(info.value) is ValueError
    assert message.startswith(f"{path}: ") and name in message and "\n" not in message


@pytest.mark.parametrize("text", ["{", "[]", '"model"'])
def test_load_model_refuses_invalid_json_and_non_object_document(tmp_path, text):
    path = tmp_path / "model.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load_model(path)
    assert type(info.value) is ValueError and str(info.value).startswith(f"{path}: ")


@pytest.mark.parametrize(
    "case",
    [
        "child_beyond_nodes", "feature_beyond_inputs", "earlier_child", "leaf_with_child",
        "short_value", "no_nodes",
    ],
)
def test_load_model_refuses_gb_tree_of_broken_structure(tmp_path, case):
    doc = json.loads(_saved_model_json("gradient_boosting"))
    tree = doc["parameters"]["trees"][0]
    assert min(tree["feature"][:2]) >= 0 and tree["feature"][2] == -1  # split, split, leaf
    if case == "child_beyond_nodes":
        tree["left"][0] = 99
    elif case == "feature_beyond_inputs":
        tree["feature"][0] = doc["parameters"]["n_features"]
    elif case == "earlier_child":
        tree["left"][1] = 0
    elif case == "leaf_with_child":
        tree["left"][2] = 3
    elif case == "short_value":
        tree["value"].pop()
    else:
        doc["parameters"]["trees"][0] = {key: [] for key in tree}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load_model(path)
    message = str(info.value)
    assert type(info.value) is ValueError
    assert message.startswith(f"{path}: parameters.trees[0]") and "\n" not in message


def test_linear_and_nn_fits_equal_recorded_models():
    # recorded when each family still wrote its own predict and each network
    # its own fit path
    with open(os.path.join(DATA, "linear_nn_models_seed50.json"), encoding="utf-8") as fh:
        recorded = json.load(fh)
    assert _linear_nn_seeded_fits() == recorded



def test_predict_scores_in_range_and_clamped():
    rng = np.random.default_rng(15)
    x = rng.standard_normal((30, 2))
    y = rng.random(30) * 3.0  # targets beyond [0, 1] force clamping
    model = LinearModel.fit((x, y), (x, y), ModelSpec("linear", "regression"))
    raw = model.raw_scores(x)
    scores = model.predict(x)
    assert raw.max() > 1.0
    assert scores.max() == 1.0
    assert scores.min() >= 0.0


def test_batch_prediction_equals_rowwise():
    rng = np.random.default_rng(16)
    x = rng.standard_normal((25, 3))
    y = rng.integers(0, 2, 25).astype(float)
    spec = ModelSpec("gradient_boosting", "classification", max_rounds=15)
    model = GradientBoostingModel.fit((x, y), (x, y), spec)
    batch = model.predict(x)
    rows = np.array([model.predict(x[i : i + 1])[0] for i in range(len(x))])
    assert np.array_equal(batch, rows)


def test_feature_layout_mismatch_raises():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((20, 4))
    y = rng.random(20)
    model = LinearModel.fit((x, y), (x, y), ModelSpec("linear", "regression"))
    with pytest.raises(ValueError, match="layout"):
        model.predict(rng.standard_normal((5, 3)))


def test_train_model_dispatch_covers_all_families():
    rng = np.random.default_rng(18)
    x = rng.standard_normal((40, 3))
    y = rng.integers(0, 2, 40).astype(float)
    seq = rng.standard_normal((40, 2, 3))
    mask = np.ones((40, 2))
    for family in ("linear", "gradient_boosting", "shallow_nn"):
        spec = ModelSpec(family, "classification", max_rounds=5, max_epochs=3)
        model = train_model(spec, (x, y), (x, y))
        assert model.family == family
        scores = model.predict(x)
        assert scores.shape == (40,)
    spec = ModelSpec("shallow_lstm", "classification", hidden_units=4, max_epochs=3)
    model = train_model(spec, (seq, mask, y), (seq, mask, y))
    assert model.predict(seq, mask).shape == (40,)


def test_spec_validation():
    with pytest.raises(ValueError, match="family"):
        ModelSpec("boost", "classification")
    with pytest.raises(ValueError, match="task"):
        ModelSpec("linear", "ranking")
    with pytest.raises(ValueError, match="positive"):
        ModelSpec("linear", "regression", learning_rate=0.0)

import numpy as np
import pytest

import oracles
from segquality import heatmaps
from segquality.pipeline import extract_frame


def _frame(*pixels):
    """Build a 1-row softmax frame from per-pixel probability tuples."""
    return np.array([list(pixels)], dtype=np.float64)


def test_predicted_labels_argmax_and_ties():
    frame = _frame((0.1, 0.9), (0.5, 0.5), (0.8, 0.2))
    labels = heatmaps.predicted_labels(frame)
    assert labels.tolist() == [[1, 0, 0]]


def test_predicted_labels_matches_elementwise_oracle():
    rng = np.random.default_rng(0)
    probs = oracles.random_softmax(rng, 2, 2, 4)
    labels = heatmaps.predicted_labels(probs)
    for i in range(2):
        for j in range(2):
            assert labels[i, j] == max(range(4), key=lambda y: (probs[i, j, y], -y))


def test_dispersion_one_hot_pixel_is_zero():
    ent, var, mar = heatmaps.dispersion_heatmaps(_frame((1.0, 0.0)))
    assert ent[0, 0] == 0.0
    assert var[0, 0] == 0.0
    assert mar[0, 0] == 0.0


def test_dispersion_uniform_binary_pixel():
    ent, var, mar = heatmaps.dispersion_heatmaps(_frame((0.5, 0.5)))
    assert ent[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert var[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert mar[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_dispersion_hand_values_four_classes():
    ent, var, mar = heatmaps.dispersion_heatmaps(_frame((0.7, 0.1, 0.1, 0.1)))
    expected_entropy = 0.9404479886553265 / 1.3862943611198906
    assert ent[0, 0] == pytest.approx(expected_entropy, abs=1e-12)
    assert var[0, 0] == pytest.approx(0.3, abs=1e-12)
    assert mar[0, 0] == pytest.approx(0.4, abs=1e-12)


def test_margin_hand_value_three_classes():
    _, _, mar = heatmaps.dispersion_heatmaps(_frame((0.7, 0.2, 0.1)))
    assert mar[0, 0] == pytest.approx(0.5, abs=1e-12)


def test_dispersion_matches_bruteforce_oracle():
    rng = np.random.default_rng(1)
    for c in (2, 3, 5):
        probs = oracles.random_softmax(rng, 6, 5, c)
        ent, var, mar = heatmaps.dispersion_heatmaps(probs)
        ent_o, var_o, mar_o = oracles.dispersion_frames(probs)
        assert np.abs(ent - ent_o).max() < 1e-9
        assert np.abs(var - var_o).max() < 1e-9
        assert np.abs(mar - mar_o).max() < 1e-9


def test_dispersion_ranges_and_margin_dominates_variation():
    rng = np.random.default_rng(2)
    probs = oracles.random_softmax(rng, 16, 16, 6, one_hot_fraction=0.1)
    ent, var, mar = heatmaps.dispersion_heatmaps(probs)
    for hm in (ent, var, mar):
        assert hm.min() >= 0.0 and hm.max() <= 1.0
    assert (mar >= var - 1e-12).all()


def test_entropy_full_permutation_invariance():
    rng = np.random.default_rng(3)
    probs = oracles.random_softmax(rng, 4, 4, 5)
    ent, _, _ = heatmaps.dispersion_heatmaps(probs)
    perm = rng.permutation(5)
    ent_p, _, _ = heatmaps.dispersion_heatmaps(probs[:, :, perm])
    assert np.abs(ent - ent_p).max() < 1e-12


def test_variation_and_margin_invariant_under_nonmax_shuffle():
    rng = np.random.default_rng(4)
    probs = oracles.random_softmax(rng, 4, 4, 5)
    _, var, mar = heatmaps.dispersion_heatmaps(probs)
    # shuffle everything except the two largest entries per pixel
    shuffled = probs.copy()
    for i in range(4):
        for j in range(4):
            order = np.argsort(shuffled[i, j])
            tail = order[:-2]
            shuffled[i, j, tail] = shuffled[i, j, rng.permutation(tail)]
    _, var_s, mar_s = heatmaps.dispersion_heatmaps(shuffled)
    assert np.abs(var - var_s).max() < 1e-12
    assert np.abs(mar - mar_s).max() < 1e-12


def test_validate_softmax_rejects_bad_sum():
    probs = np.full((2, 2, 2), 0.6)
    with pytest.raises(ValueError, match="sum 1"):
        heatmaps.dispersion_heatmaps(probs)


def test_validate_softmax_rejects_negative():
    probs = np.zeros((1, 1, 2))
    probs[0, 0] = (1.2, -0.2)
    with pytest.raises(ValueError, match="negative"):
        heatmaps.dispersion_heatmaps(probs)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "call",
    [
        heatmaps._class_major,
        heatmaps.dispersion_heatmaps,
        lambda probs: extract_frame(probs, None, None, 0, 0),
    ],
    ids=["validate_softmax", "dispersion_heatmaps", "extract_frame"],
)
def test_non_finite_softmax_is_rejected(call, bad):
    probs = oracles.random_softmax(np.random.default_rng(8), 4, 5, 3)
    probs[2, 3, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        call(probs)


def _frame_with_ties(rng, c):
    """64x96 softmax with one-hot pixels and pixels whose two largest
    probabilities are exactly equal; returns the frame and the tie mask."""
    probs = oracles.random_softmax(rng, 64, 96, c, one_hot_fraction=0.1)
    ties = (rng.random((64, 96)) < 0.1) & (probs.max(axis=2) < 1.0)
    order = np.argsort(probs, axis=2)
    rows, cols = np.nonzero(ties)
    top, runner_up = order[rows, cols, -1], order[rows, cols, -2]
    probs[rows, cols, runner_up] = probs[rows, cols, top]
    probs[ties] /= probs[ties].sum(axis=1, keepdims=True)
    return probs, ties


@pytest.mark.parametrize("c", [2, 3, 10])
def test_dispersion_matches_oracle_with_one_hot_pixels_and_ties(c):
    probs, ties = _frame_with_ties(np.random.default_rng(c), c)
    ent, var, mar = heatmaps.dispersion_heatmaps(probs)
    for ours, theirs in zip((ent, var, mar), oracles.dispersion_frames(probs)):
        assert np.abs(ours - theirs).max() <= 1e-15
    assert ties.any()
    assert (mar[ties] == 1.0).all()
    one_hot = probs.max(axis=2) == 1.0
    assert one_hot.any()
    assert (ent[one_hot] == 0.0).all() and (mar[one_hot] == 0.0).all()


def test_mean_cell_state_single_feature_identity():
    block = np.arange(12.0).reshape(3, 4, 1)
    assert np.array_equal(oracles.mean_cell_state(block), block[:, :, 0])


def test_mean_cell_state_two_values():
    block = np.zeros((1, 1, 2))
    block[0, 0] = (1.0, 3.0)
    assert oracles.mean_cell_state(block)[0, 0] == 2.0


def test_mean_cell_state_matches_pixel_loop():
    rng = np.random.default_rng(5)
    block = rng.standard_normal((4, 4, 8))
    reduced = oracles.mean_cell_state(block)
    for i in range(4):
        for j in range(4):
            assert abs(reduced[i, j] - sum(block[i, j]) / 8) < 1e-9


def test_stability_identical_blocks_is_zero():
    stack = np.tile(np.arange(6.0).reshape(2, 3, 1), (1, 1, 4))
    for hm in heatmaps.stability_heatmaps(stack):
        assert np.array_equal(hm, np.zeros((2, 3)))


def test_stability_hand_values_and_sign_flip():
    stack = np.zeros((1, 1, 3))
    stack[0, 0] = (0.4, -0.2, 0.1)
    maps = heatmaps.stability_heatmaps(stack)
    assert len(maps) == 2
    assert maps[0][0, 0] == pytest.approx(0.6)  # |0.4 - (-0.2)|
    assert maps[1][0, 0] == pytest.approx(0.3)  # |0.4 - 0.1|
    # absolute value: swapping block 1 with a later block leaves the map unchanged
    swapped = stack.copy()
    swapped[0, 0] = (-0.2, 0.4, 0.1)
    assert heatmaps.stability_heatmaps(swapped)[0][0, 0] == pytest.approx(0.6)


def test_stability_nonnegative_random():
    rng = np.random.default_rng(6)
    stack = rng.standard_normal((5, 6, 4))
    for hm in heatmaps.stability_heatmaps(stack):
        assert hm.min() >= 0.0


def test_build_cell_state_stack_raw_and_reduced_agree():
    rng = np.random.default_rng(7)
    raw_blocks = [rng.standard_normal((3, 4, 6)) for _ in range(3)]
    reduced = np.stack([b.mean(axis=2) for b in raw_blocks], axis=2)
    from_raw = heatmaps.stability_heatmaps(
        np.stack([oracles.mean_cell_state(b) for b in raw_blocks], axis=2)
    )
    from_reduced = heatmaps.stability_heatmaps(reduced)
    assert np.allclose(from_raw, from_reduced, atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_stability_maps_equal_per_block_differences_bit_for_bit(dtype):
    rng = np.random.default_rng(9)
    stack = rng.standard_normal((64, 96, 10)).astype(dtype)
    maps = heatmaps.stability_heatmaps(stack)
    assert maps.shape == (9, 64, 96)
    wide = stack.astype(np.float64)
    for j in range(1, 10):
        assert np.array_equal(maps[j - 1], np.abs(wide[..., 0] - wide[..., j]))

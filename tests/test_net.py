import copy
import math
import pickle

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, strategies as st

from comopt import net
from comopt.acceptance import (_fd_gradient, _fd_param_gradients, _rel_err,
                               _smooth_case)
from comopt.fileio import load_surrogate, save_surrogate
from comopt.net import (LEAK, DenseLayer, GradientError, ObjectiveModel,
                        adam_step, build_model, forward_batch, init_adam,
                        input_gradient_batch, loss_gradients)
from comopt.trainer import com_loss
from conftest import linear_model

SPECIAL = np.array([-np.inf, -1e300, -2.5, -5e-324, -0.0, 0.0, 5e-324, 0.7,
                    1e300, np.inf, np.nan])
EDGE_LEAKS = [5e-324, 1e-9, 0.1, 0.3, 0.5, 0.7, np.nextafter(1.0, 0.0)]


def leaky_relu(z, leak):
    """The activation `_hidden_pass` forms: z times its exact slope."""
    z = np.asarray(z, dtype=np.float64)
    return z * net._slope(z, leak)


def assert_slope_exact(z, leak):
    s = net._slope(z, leak)
    assert s.tobytes() == np.where(z >= 0.0, 1.0, leak).tobytes()
    assert set(s.tolist()) <= {1.0, leak}


class TestSlope:
    Z = np.concatenate([SPECIAL, np.random.default_rng(1).normal(size=50)])

    @pytest.mark.parametrize("leak", EDGE_LEAKS)
    def test_slope_is_exactly_one_or_leak(self, leak):
        assert_slope_exact(self.Z, leak)

    def test_slope_is_exactly_one_or_leak_for_uniform_leaks(self):
        for leak in np.random.default_rng(0).uniform(0.0, 1.0, size=100):
            assert_slope_exact(self.Z, float(leak))

    @pytest.mark.parametrize("leak", EDGE_LEAKS)
    def test_leaky_relu_matches_where_bitwise(self, leak):
        z = np.concatenate([SPECIAL, np.linspace(-3.0, 3.0, 13)])
        want = np.where(z >= 0.0, z, leak * z)
        assert leaky_relu(z, leak).tobytes() == want.tobytes()


class TestLeakyRelu:
    def test_positive_pass_through(self):
        assert leaky_relu(5.0, 0.3) == 5.0

    def test_boundary(self):
        assert leaky_relu(0.0, 0.3) == 0.0

    def test_negative_scaled_by_leak(self):
        assert leaky_relu(-1.0, 0.3) == pytest.approx(-0.3)

    def test_array_input(self):
        npt.assert_allclose(leaky_relu(np.array([-2.0, 3.0]), 0.3), [-0.6, 3.0])

    @given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    def test_monotone_nondecreasing(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert leaky_relu(lo, 0.3) <= leaky_relu(hi, 0.3)

    @given(st.floats(1e-12, 1e-3))
    def test_continuous_at_zero(self, eps):
        assert abs(leaky_relu(eps, 0.3) - leaky_relu(-eps, 0.3)) <= 2 * eps


class TestForward:
    def test_zero_weight_network_outputs_bias(self):
        model = build_model(4, (8,), rng=np.random.default_rng(0))
        for lyr in model.layers:
            lyr.weights[:] = 0.0
            lyr.bias[:] = 0.0
        model.layers[-1].bias[:] = 3.5
        npt.assert_array_equal(
            forward_batch(model, [np.zeros(4), np.ones(4)]), [3.5, 3.5])

    def test_single_linear_layer(self):
        assert forward_batch(linear_model(2.0), [[3.0]])[0] == 6.0

    def test_one_hidden_unit_negative_input_uses_leak(self):
        model = ObjectiveModel([
            DenseLayer(np.array([[1.0]]), np.array([0.0])),
            DenseLayer(np.array([[1.0]]), np.array([0.0])),
        ])
        assert forward_batch(model, [[-2.0]])[0] == -2.0 * LEAK

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(3)
        model = build_model(6, (16, 16), rng=rng)
        X = rng.normal(size=(3, 6))
        npt.assert_array_equal(forward_batch(model, X), forward_batch(model, X))

    def test_dimension_mismatch_raises(self):
        model = build_model(4, (8,), rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            forward_batch(model, np.zeros((1, 5)))
        with pytest.raises(ValueError):
            forward_batch(model, np.zeros(4))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(4)
        model = build_model(5, (8, 8), rng=rng)
        X = rng.normal(size=(7, 5))
        batch = forward_batch(model, X)
        npt.assert_allclose(batch, [forward_batch(model, x[None])[0] for x in X],
                            rtol=1e-12)


class TestModelInvariants:
    def test_final_layer_must_be_scalar(self):
        with pytest.raises(ValueError):
            ObjectiveModel([DenseLayer(np.zeros((2, 3)), np.zeros(2))])

    def test_layer_dims_must_chain(self):
        with pytest.raises(ValueError):
            ObjectiveModel([
                DenseLayer(np.zeros((4, 3)), np.zeros(4)),
                DenseLayer(np.zeros((1, 5)), np.zeros(1)),
            ])


class TestParamGradients:
    """Parameter gradients through `net.loss_gradients`, the backprop path
    `train` uses, given the dloss/dprediction vector."""

    def test_linear_squared_error_chain_rule(self):
        # f(x) = w*x with w=1: d/dw of 0.5*(f-0)^2 at x=2 is (2-0)*2 = 4
        grad = loss_gradients(linear_model(1.0), np.array([[2.0]]),
                              [2.0 - 0.0])
        npt.assert_allclose(grad, [4.0, 2.0])

    def test_signed_linear_loss_is_prediction_gradient(self):
        rng = np.random.default_rng(5)
        model = build_model(3, (6,), rng=rng)
        x = rng.normal(size=3)
        grad = loss_gradients(model, x[None, :], [1.0])
        [fd] = _fd_param_gradients(lambda m: forward_batch(m, x[None])[0],
                                   model, [lambda p: p])
        assert grad.shape == model.params.shape
        assert _rel_err(grad, fd).max() < 1e-4

    def test_two_layer_matches_finite_differences(self):
        # dloss/dprediction comes from the trainer's own batch loss
        rng = np.random.default_rng(6)
        model, x0 = _smooth_case(rng, 4, (8,))
        X = np.stack([x0, x0 + 0.5])
        y = rng.normal(size=2)
        _, _, g, _ = com_loss(forward_batch(model, X), y, None, 0.0)
        grad = loss_gradients(model, X, g)
        [fd] = _fd_param_gradients(
            lambda m: forward_batch(m, X), model,
            [lambda p: 0.5 * float(np.mean((p - y) ** 2))])
        assert _rel_err(grad, fd).max() < 1e-4

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            com_loss(np.array([]), np.array([]), None, 0.0)

    def test_dloss_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            loss_gradients(linear_model(), np.array([[1.0], [2.0]]), [1.0])


class TestInputGradient:
    def test_pure_linear_model_gradient_is_weight(self):
        model = ObjectiveModel([DenseLayer(np.array([[2.0, -1.0, 0.5]]),
                                           np.array([7.0]))])
        X = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
        npt.assert_allclose(input_gradient_batch(model, X),
                            [[2.0, -1.0, 0.5]] * 2)

    def test_no_hidden_layer_gradient_is_weight_row_bitwise(self):
        rng = np.random.default_rng(10)
        model = build_model(6, (), rng=rng)
        X = rng.normal(size=(17, 6))
        want = np.tile(model.layers[0].weights, (17, 1))
        assert input_gradient_batch(model, X).tobytes() == want.tobytes()

    def test_output_bias_does_not_enter_the_gradient(self):
        rng = np.random.default_rng(11)
        model = build_model(5, (16, 8), rng=rng)
        X = rng.normal(size=(9, 5))
        before = input_gradient_batch(model, X)
        model.layers[-1].bias[:] = np.nan
        after = input_gradient_batch(model, X)
        assert np.all(np.isfinite(after))
        assert after.tobytes() == before.tobytes()

    def test_zero_first_layer_gives_zero_gradient(self):
        model = build_model(4, (8,), rng=np.random.default_rng(1))
        model.layers[0].weights[:] = 0.0
        npt.assert_allclose(input_gradient_batch(model, np.ones((1, 4))),
                            np.zeros((1, 4)))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        model, x = _smooth_case(rng, 5, (8, 8))
        g = input_gradient_batch(model, x[None])[0]
        fd = _fd_gradient(lambda v: forward_batch(model, v[None])[0], x)
        assert _rel_err(g, fd).max() < 1e-4

    def test_dimension_mismatch_raises(self):
        model = build_model(4, (), rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            input_gradient_batch(model, np.zeros((1, 3)))


def zero_gradients(model):
    return np.zeros_like(model.params)


class TestAdam:
    def make(self, n=3):
        model = ObjectiveModel([DenseLayer(np.ones((1, n)), np.zeros(1))])
        return model, init_adam(model, learning_rate=1e-3)

    def test_moments_zero_initialized(self):
        _, state = self.make()
        assert state.step_count == 0
        assert state.first_moment.shape == state.second_moment.shape == (4,)
        assert not state.first_moment.any() and not state.second_moment.any()

    def test_zero_gradient_is_identity(self):
        model, state = self.make()
        before = model.copy()
        for _ in range(5):
            adam_step(state, model, zero_gradients(model))
        npt.assert_array_equal(model.layers[0].weights, before.layers[0].weights)
        assert state.step_count == 5

    def test_first_step_moves_by_learning_rate(self):
        model, state = self.make()
        adam_step(state, model, np.array([2.0, 2.0, 2.0, -3.0]))
        # bias-corrected first step is ~ -lr * sign(g)
        npt.assert_allclose(model.layers[0].weights, 1.0 - 1e-3, rtol=1e-6)
        npt.assert_allclose(model.layers[0].bias, 1e-3, rtol=1e-6)

    def test_two_steps_cumulative_move(self):
        # hand-evaluated recurrence: each of the two steps with g=1 moves by
        # lr/(1+eps'), so the cumulative magnitude sits just under 2e-3
        model, state = self.make(1)
        grad = np.array([1.0, 0.0])
        adam_step(state, model, grad)
        adam_step(state, model, grad)
        moved = abs(model.layers[0].weights[0, 0] - 1.0)
        assert 1.9e-3 <= moved <= 2.0e-3

    def test_nan_gradient_leaves_params_untouched(self):
        model, state = self.make()
        before = model.copy()
        with pytest.raises(GradientError):
            adam_step(state, model, np.array([np.nan, np.nan, np.nan, 0.0]))
        npt.assert_array_equal(model.layers[0].weights, before.layers[0].weights)
        assert state.step_count == 0

    def test_misshapen_gradient_leaves_params_and_moments_untouched(self):
        model = build_model(3, (4,), rng=np.random.default_rng(2))
        state = init_adam(model, learning_rate=1e-3)
        adam_step(state, model, np.ones_like(model.params))
        snapshot = [a.tobytes() for a in (model.params, state.first_moment,
                                          state.second_moment)]
        per_layer = [(np.ones_like(l.weights), np.ones_like(l.bias))
                     for l in model.layers]
        for bad in (np.ones(model.params.size - 1), per_layer):
            with pytest.raises(GradientError):
                adam_step(state, model, bad)
            assert [a.tobytes() for a in (model.params, state.first_moment,
                                          state.second_moment)] == snapshot
            assert state.step_count == 1

    def test_step_count_increments_by_one(self):
        model, state = self.make()
        adam_step(state, model, zero_gradients(model))
        assert state.step_count == 1

    @given(st.integers(0, 50))
    def test_zero_gradient_identity_at_any_step_count(self, warm):
        model, state = self.make(2)
        snapshot = model.copy()
        for _ in range(warm + 1):
            adam_step(state, model, zero_gradients(model))
        npt.assert_array_equal(model.layers[0].weights,
                               snapshot.layers[0].weights)
        assert state.step_count == warm + 1

    def test_params_finite_after_updates(self):
        rng = np.random.default_rng(8)
        model = build_model(4, (8,), rng=rng)
        state = init_adam(model, learning_rate=1e-3)
        for _ in range(20):
            adam_step(state, model, rng.normal(size=model.params.shape))
        for lyr in model.layers:
            assert np.all(np.isfinite(lyr.weights)) and np.all(np.isfinite(lyr.bias))


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        model = build_model(5, (8, 4), rng=rng)
        path = tmp_path / "model.npz"
        save_surrogate(model, path)
        loaded = load_surrogate(path)
        X = rng.normal(size=(3, 5))
        npt.assert_array_equal(forward_batch(loaded, X), forward_batch(model, X))


def assert_layers_view_params(model):
    """Every layer's weights and bias are views into `model.params`, laid
    out in layer order, and writing to `params` reaches the layers."""
    assert model.params.dtype == np.float64 and model.params.flags.c_contiguous
    flat = np.concatenate([a.ravel() for l in model.layers
                           for a in (l.weights, l.bias)])
    assert flat.tobytes() == model.params.tobytes()
    for lyr in model.layers:
        assert np.shares_memory(lyr.weights, model.params)
        assert np.shares_memory(lyr.bias, model.params)
    model.params[-1] += 1.0
    assert model.layers[-1].bias[0] == flat[-1] + 1.0
    model.params[-1] -= 1.0


class TestParameterVector:
    def test_build_model_layers_view_one_vector(self):
        model = build_model(3, (5, 4), rng=np.random.default_rng(0))
        assert model.params.shape == (3 * 5 + 5 + 5 * 4 + 4 + 4 + 1,)
        assert_layers_view_params(model)

    def test_construction_copies_the_given_layers(self):
        w = np.array([[1.0, 2.0]])
        model = ObjectiveModel([DenseLayer(w, np.array([0.5]))])
        assert_layers_view_params(model)
        model.layers[0].weights[0, 0] = 9.0
        assert w[0, 0] == 1.0

    def test_copy_is_independent_and_has_its_own_vector(self):
        model = build_model(3, (4,), rng=np.random.default_rng(1))
        twin = model.copy()
        assert_layers_view_params(twin)
        assert twin.params.tobytes() == model.params.tobytes()
        assert not np.shares_memory(twin.params, model.params)
        twin.params[:] = 0.0
        assert model.params.any()
        model.layers[0].weights[0, 0] = 7.0
        assert twin.layers[0].weights[0, 0] == 0.0

    def test_load_surrogate_layers_view_one_vector(self, tmp_path):
        model = build_model(4, (6, 3), rng=np.random.default_rng(2))
        save_surrogate(model, tmp_path / "m.npz")
        loaded = load_surrogate(tmp_path / "m.npz")
        assert_layers_view_params(loaded)
        assert loaded.params.tobytes() == model.params.tobytes()

    def test_pickle_and_deepcopy_keep_the_views(self):
        model = build_model(2, (3,), rng=np.random.default_rng(3))
        for back in (pickle.loads(pickle.dumps(model)), copy.deepcopy(model)):
            assert_layers_view_params(back)
            assert back.params.tobytes() == model.params.tobytes()
            assert not np.shares_memory(back.params, model.params)

    def test_adam_steps_equal_the_elementwise_recurrence_bitwise(self):
        rng = np.random.default_rng(4)
        model = build_model(3, (4, 2), rng=rng)
        state = init_adam(model, learning_rate=0.01)
        p = model.params.tolist()
        m = [0.0] * len(p)
        v = [0.0] * len(p)
        b1, b2, eps = net.ADAM_BETA1, net.ADAM_BETA2, net.ADAM_EPSILON
        lr = 0.01
        for t in range(1, 6):
            grad = rng.normal(size=model.params.shape)
            adam_step(state, model, grad)
            c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            for i, gi in enumerate(grad.tolist()):
                m[i] = m[i] * b1 + (1.0 - b1) * gi
                v[i] = v[i] * b2 + (1.0 - b2) * gi * gi
                p[i] = p[i] - lr * (m[i] / c1) / (math.sqrt(v[i] / c2) + eps)
            assert model.params.tobytes() == np.array(p).tobytes()
            assert state.first_moment.tobytes() == np.array(m).tobytes()
            assert state.second_moment.tobytes() == np.array(v).tobytes()
        assert_layers_view_params(model)


class TestForwardCache:
    def test_cached_predictions_equal_forward_batch_bitwise(self):
        rng = np.random.default_rng(5)
        model = build_model(4, (8, 8), rng=rng)
        X = rng.normal(size=(13, 4))
        preds, _ = net.forward_with_cache(model, X)
        assert preds.tobytes() == forward_batch(model, X).tobytes()

    @pytest.mark.parametrize("hidden", [(), (8,), (8, 6)])
    def test_gradients_from_a_reused_cache_equal_a_fresh_pass(self, hidden):
        rng = np.random.default_rng(6)
        model = build_model(4, hidden, rng=rng)
        X = rng.normal(size=(11, 4))
        g = rng.normal(size=11)
        _, cache = net.forward_with_cache(model, X)
        assert (loss_gradients(model, X, g, cache).tobytes()
                == loss_gradients(model, X, g).tobytes())
        assert (input_gradient_batch(model, X, cache).tobytes()
                == input_gradient_batch(model, X).tobytes())


# Every row count from 129 to 700, where blocks and remainders of every size
# occur, and three large batches.
BLOCKED_ROW_COUNTS = [*range(129, 701), 1000, 2048, 4096]


class TestRowBlocks:
    """Large batches run in blocks of 128 rows; a remainder under 32 rows
    joins the block before it, so no block is small enough for OpenBLAS to
    round it differently from the whole batch."""

    @pytest.mark.parametrize("n, sizes", [
        (0, [0]), (1, [1]), (128, [128]), (159, [159]), (160, [128, 32]),
        (287, [128, 159]), (288, [128, 128, 32]), (1000, [128] * 7 + [104]),
        (4096, [128] * 32)])
    def test_block_sizes(self, n, sizes):
        assert [s.stop - s.start for s in net.row_blocks(n)] == sizes

    def test_blocks_cover_every_row_once_in_order(self):
        for n in range(0, 1100):
            blocks = net.row_blocks(n)
            assert blocks[0].start == 0 and blocks[-1].stop == n
            for a, b in zip(blocks, blocks[1:]):
                assert a.stop == b.start
            sizes = [s.stop - s.start for s in blocks]
            assert all(k == 128 for k in sizes[:-1])
            assert len(blocks) == 1 or 32 <= sizes[-1] < 160

    @pytest.mark.parametrize("d", [8, 24])
    def test_blocked_forward_equals_one_pass_bitwise(self, d):
        rng = np.random.default_rng(d)
        model = build_model(d, (64, 64), rng=rng)
        X = rng.normal(size=(max(BLOCKED_ROW_COUNTS), d))
        for n in BLOCKED_ROW_COUNTS:
            want = net.forward_with_cache(model, X[:n])[0]
            assert forward_batch(model, X[:n]).tobytes() == want.tobytes(), n

    def test_forward_working_set_does_not_grow_with_rows(self, traced_peak):
        # one pass over all 4,096 rows peaked at 12.7 MB
        rng = np.random.default_rng(9)
        model = build_model(24, (64, 64), rng=rng)
        X = rng.normal(size=(4096, 24))
        out_bytes = 4096 * 8
        bound = traced_peak(lambda: forward_batch(model, X[:128])) + 2 * out_bytes
        assert traced_peak(lambda: forward_batch(model, X)) < bound

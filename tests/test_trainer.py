import math
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, strategies as st

from comopt import net, trainer
from comopt.acceptance import _fd_gradient, _plain_regression
from comopt.net import DenseLayer, ObjectiveModel, build_model
from comopt.optimizer import ascend
from comopt.tasks import OfflineDataset, fit_normalization
from comopt.trainer import (TrainerConfig, _mine_endpoints, com_loss,
                            dual_update, train)
from conftest import QuadraticStub, linear_model


def toy_dataset(n=32, dim=2, seed=0):
    rng = np.random.default_rng(seed)
    raw_x = rng.uniform(-1, 1, size=(n, dim))
    raw_y = raw_x.sum(axis=1) + 0.1 * rng.normal(size=n)
    stats = fit_normalization(raw_x, raw_y)
    return OfflineDataset(stats.normalize_x(raw_x), stats.normalize_y(raw_y), stats)


class TestFitNormalization:
    def test_two_point_standardization(self):
        stats = fit_normalization(np.zeros((2, 1)), np.array([0.0, 2.0]))
        assert stats.y_mean == 1.0 and stats.y_std == 1.0
        npt.assert_allclose(stats.normalize_y(np.array([0.0, 2.0])), [-1.0, 1.0])

    def test_constant_dimension_std_replaced_by_one(self):
        X = np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]])
        stats = fit_normalization(X, np.array([1.0, 2.0, 3.0]))
        assert stats.x_std[0] == 1.0
        npt.assert_allclose(stats.normalize_x(X)[:, 0], [0.0, 0.0, 0.0])

    def test_population_std_convention(self):
        # hand-computed: mean 2, population std sqrt(2/3) ~ 0.8165
        stats = fit_normalization(np.zeros((3, 1)), np.array([1.0, 2.0, 3.0]))
        assert stats.y_std == pytest.approx(0.816497, abs=1e-6)
        npt.assert_allclose(stats.normalize_y(np.array([1.0, 2.0, 3.0])),
                            [-1.224745, 0.0, 1.224745], atol=1e-6)

    def test_fewer_than_two_samples_rejected(self):
        with pytest.raises(ValueError):
            fit_normalization(np.zeros((1, 2)), np.array([1.0]))

    @given(st.integers(0, 2**32 - 1))
    def test_normalize_denormalize_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(5, 3)) * rng.uniform(0.1, 10)
        y = rng.normal(size=5) * rng.uniform(0.1, 10)
        stats = fit_normalization(X, y)
        npt.assert_allclose(stats.denormalize_x(stats.normalize_x(X)), X,
                            atol=1e-12)
        npt.assert_allclose(stats.denormalize_y(stats.normalize_y(y)), y,
                            atol=1e-12)


class TestMineAdversarial:
    """Mining is `_mine_endpoints`, one batched call of `optimizer.ascend`."""

    def test_zero_gradient_model_is_fixed_point(self):
        model = build_model(3, (4,), rng=np.random.default_rng(0))
        model.layers[0].weights[:] = 0.0
        X0 = np.array([[0.5, -0.5, 1.0], [2.0, 0.0, -1.0]])
        npt.assert_array_equal(_mine_endpoints(model, X0, 0.1, 5), X0)

    def test_constant_gradient_linear_ascent(self):
        model = ObjectiveModel([DenseLayer(np.array([[1.0, 2.0]]), np.array([0.0]))])
        npt.assert_allclose(_mine_endpoints(model, np.zeros((2, 2)), 0.1, 3),
                            [[0.3, 0.6], [0.3, 0.6]], atol=1e-12)

    def test_quadratic_iterates_hand_computed(self):
        # x + 0.1 * (-2 (x - 1)) from 0: 0.2, 0.36, 0.488
        X0 = np.array([[0.0]])
        path = ascend(QuadraticStub(), X0, 0.1, 3, record=True)
        npt.assert_allclose(path[:, 0, 0], [0.0, 0.2, 0.36, 0.488], atol=1e-12)
        npt.assert_array_equal(_mine_endpoints(QuadraticStub(), X0, 0.1, 3),
                               path[-1])

    def test_nonfinite_gradient_aborts(self):
        model = linear_model()
        model.layers[0].weights[0, 0] = np.inf
        with pytest.raises(net.GradientError):
            _mine_endpoints(model, np.array([[1.0]]), 0.1, 3)


class TestComLoss:
    """`com_loss` is the per-batch loss `train` computes, from predictions."""

    def test_alpha_zero_is_pure_mse(self):
        preds = np.array([2.0, 4.0])
        y = np.array([1.0, 1.0])
        mse, gap, g_data, g_mined = com_loss(preds, y, np.array([10.0, 12.0]), 0.0)
        assert mse == pytest.approx(0.5 * np.mean([(2 - 1) ** 2, (4 - 1) ** 2]))
        npt.assert_array_equal(g_data, com_loss(preds, y, None, 0.0)[2])
        npt.assert_array_equal(g_mined, [0.0, 0.0])

    def test_constant_model_has_zero_gap(self):
        mse, gap, _, _ = com_loss(np.array([3.0, 3.0]), np.array([1.0, 5.0]),
                                  np.array([3.0, 3.0]), 2.0)
        assert gap == 0.0
        assert mse == pytest.approx(0.5 * np.mean([(3 - 1) ** 2, (3 - 5) ** 2]))

    def test_direct_substitution(self):
        # f(x) = x, batch {(0, 0)}, mined {1}, alpha 2: mse 0, gap 1,
        # dloss/df(x) = (0 - 0) - 2, dloss/df(x_T) = 2
        mse, gap, g_data, g_mined = com_loss(np.array([0.0]), np.array([0.0]),
                                             np.array([1.0]), 2.0)
        assert (mse, gap, list(g_data), list(g_mined)) == (0.0, 1.0, [-2.0], [2.0])

    def test_without_mining_gap_is_nan(self):
        mse, gap, g_data, g_mined = com_loss(np.array([1.0, 3.0]),
                                             np.array([0.0, 0.0]), None, 0.0)
        assert mse == 2.5 and math.isnan(gap) and g_mined is None
        npt.assert_array_equal(g_data, [0.5, 1.5])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            com_loss(np.array([0.0]), np.array([0.0]), np.array([1.0, 2.0]), 1.0)
        with pytest.raises(ValueError):
            com_loss(np.array([0.0]), np.array([0.0, 1.0]), None, 1.0)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            com_loss(np.array([0.0]), np.array([0.0]), np.array([1.0]), -0.5)

    @given(st.floats(0.0, 20.0), st.integers(0, 2**32 - 1))
    def test_total_is_mse_plus_alpha_gap(self, alpha, seed):
        # the returned vectors are the gradient of mse + alpha * gap with
        # respect to the data and mined predictions (central differences)
        rng = np.random.default_rng(seed)
        preds, y, mined = rng.normal(size=(3, 4))
        mse, gap, g_data, g_mined = com_loss(preds, y, mined, alpha)

        def total(p, pm):
            return 0.5 * np.mean((p - y) ** 2) + alpha * (pm.mean() - p.mean())

        assert mse + alpha * gap == pytest.approx(total(preds, mined),
                                                  rel=1e-12, abs=1e-12)
        fd_data = _fd_gradient(lambda p: total(p, mined), preds)
        fd_mined = _fd_gradient(lambda pm: total(preds, pm), mined)
        assert g_data == pytest.approx(fd_data, rel=1e-5, abs=1e-6)
        assert g_mined == pytest.approx(fd_mined, rel=1e-5, abs=1e-6)

    def test_train_computes_its_loss_here(self, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args)
            return com_loss(*args)

        monkeypatch.setattr(trainer, "com_loss", spy)
        cfg = TrainerConfig(epochs=2, batch_size=16, mining_steps=2,
                            hidden=(8,), seed=2)
        train(toy_dataset(), cfg)
        assert len(calls) == 2 * 2
        assert all(preds_mined is not None for _, _, preds_mined, _ in calls)


class TestDualUpdate:
    TAU, LR = 0.5, 0.01

    def test_gap_equal_tau_leaves_alpha(self):
        assert dual_update(0.3, 0.5, self.TAU, self.LR) == 0.3

    def test_clip_at_zero(self):
        assert dual_update(0.0, 0.5 - 5.0, self.TAU, self.LR) == 0.0

    def test_substitution(self):
        assert dual_update(0.5, 1.5, self.TAU, self.LR) == pytest.approx(0.51)

    @given(st.floats(0, 10), st.floats(-20, 20))
    def test_direction(self, alpha, gap):
        new = dual_update(alpha, gap, self.TAU, self.LR)
        if gap > self.TAU:
            assert new > alpha
        elif gap < self.TAU:
            assert new <= alpha  # equality only at the zero clip
            if alpha > self.LR * (self.TAU - gap):
                assert new < alpha
        assert new >= 0.0


class TestTrain:
    def test_alpha_pinned_zero_equals_plain_regression(self):
        # the independent supervised loop of criterion 3 is the oracle
        ds = toy_dataset()
        cfg = TrainerConfig(epochs=3, batch_size=8, mining_steps=2,
                            alpha_init=0.0, alpha_lr=0.0, hidden=(8,), seed=11)
        model, _ = train(ds, cfg)
        assert model.params.tobytes() == _plain_regression(ds, cfg).params.tobytes()

    def test_mse_decreases_on_fittable_data(self):
        stats = fit_normalization(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
        ds = OfflineDataset(stats.normalize_x(np.array([[0.0], [1.0]])),
                            stats.normalize_y(np.array([0.0, 1.0])), stats)
        cfg = TrainerConfig(epochs=50, batch_size=2, mining_steps=2,
                            hidden=(8,), seed=0)
        _, log = train(ds, cfg)
        assert log[-1]["mse"] < log[0]["mse"]

    def test_deterministic_given_seed(self):
        ds = toy_dataset()
        cfg = TrainerConfig(epochs=2, batch_size=16, mining_steps=3,
                            hidden=(8,), seed=5)
        m1, log1 = train(ds, cfg)
        m2, log2 = train(ds, cfg)
        for a, b in zip(m1.layers, m2.layers):
            npt.assert_array_equal(a.weights, b.weights)
            npt.assert_array_equal(a.bias, b.bias)
        assert log1 == log2

    def test_log_columns_and_length(self):
        ds = toy_dataset()
        cfg = TrainerConfig(epochs=4, batch_size=16, mining_steps=2,
                            hidden=(8,), seed=1)
        _, log = train(ds, cfg)
        assert len(log) == 4
        assert list(log[0].keys()) == ["epoch", "mse", "gap", "alpha",
                                       "mean_pred_data", "mean_pred_mined"]

    def test_alpha_stays_zero_without_dual(self):
        ds = toy_dataset()
        cfg = TrainerConfig(epochs=2, batch_size=16, mining_steps=2,
                            alpha_init=0.0, alpha_lr=0.0, hidden=(8,), seed=2)
        _, log = train(ds, cfg)
        assert all(row["alpha"] == 0.0 for row in log)
        assert all(math.isnan(row["gap"]) for row in log)

    def test_mining_step_count_shared_with_config(self, monkeypatch):
        steps = []

        def spy(model, X0, eta, n_steps):
            steps.append(n_steps)
            return _mine_endpoints(model, X0, eta, n_steps)

        monkeypatch.setattr(trainer, "_mine_endpoints", spy)
        cfg = TrainerConfig(epochs=1, batch_size=16, mining_steps=7,
                            hidden=(8,), seed=2)
        train(toy_dataset(), cfg)
        assert steps == [cfg.mining_steps] * 2

    @pytest.mark.parametrize("conservative", [False, True])
    def test_one_hidden_pass_per_batch(self, monkeypatch, conservative):
        # the data batch's pass serves its predictions and its gradients, and
        # so does the mined batch's; mining itself takes one pass per step,
        # the slopes-only pass of the step's gradient plan
        rows = []
        real_pass, real_slopes = net._hidden_pass, net.GradientPlan.slopes

        def spy_pass(model, X):
            rows.append(len(X))
            return real_pass(model, X)

        def spy_slopes(plan, X):
            rows.append(len(X))
            return real_slopes(plan, X)

        monkeypatch.setattr(net, "_hidden_pass", spy_pass)
        monkeypatch.setattr(net.GradientPlan, "slopes", spy_slopes)
        cfg = TrainerConfig(epochs=2, batch_size=12, mining_steps=3,
                            hidden=(8,), seed=3)
        if not conservative:
            cfg = replace(cfg, alpha_init=0.0, alpha_lr=0.0)
        train(toy_dataset(n=32), cfg)
        batch_rows = [12, 12, 8] * cfg.epochs
        per_batch = 1 + (cfg.mining_steps + 1 if conservative else 0)
        assert rows == [n for n in batch_rows for _ in range(per_batch)]

    def test_invalid_config_rejected(self):
        ds = toy_dataset()
        with pytest.raises(ValueError):
            train(ds, TrainerConfig(epochs=0))
        with pytest.raises(ValueError):
            train(ds, TrainerConfig(mining_steps=0))

    def test_conservative_run_raises_alpha_when_gap_high(self):
        # a dataset easy to ascend: strong linear trend
        rng = np.random.default_rng(3)
        raw_x = rng.uniform(-1, 1, size=(64, 2))
        raw_y = 3.0 * raw_x[:, 0] + raw_x[:, 1]
        stats = fit_normalization(raw_x, raw_y)
        ds = OfflineDataset(stats.normalize_x(raw_x), stats.normalize_y(raw_y),
                            stats)
        cfg = TrainerConfig(epochs=20, batch_size=32, mining_steps=20,
                            tau=0.5, hidden=(16,), seed=4)
        _, log = train(ds, cfg)
        assert any(row["alpha"] > 0.0 for row in log)


class TestConfigResolution:
    def test_eta_continuous_default(self):
        ds = toy_dataset(dim=4)
        assert TrainerConfig().resolved_eta(ds) == pytest.approx(0.05 * 2.0)

    def test_eta_discrete_default(self):
        ds = toy_dataset(dim=4)
        ds.is_discrete = True
        assert TrainerConfig().resolved_eta(ds) == pytest.approx(2.0 * 2.0)

    def test_tau_defaults(self):
        ds = toy_dataset()
        assert TrainerConfig().resolved_tau(ds) == 0.5
        ds.is_discrete = True
        assert TrainerConfig().resolved_tau(ds) == 2.0

    def test_explicit_values_win(self):
        ds = toy_dataset()
        cfg = TrainerConfig(ascent_rate=0.7, tau=1.3)
        assert cfg.resolved_eta(ds) == 0.7
        assert cfg.resolved_tau(ds) == 1.3


class TestDatasetValidation:
    def test_normalized_moments_checked(self):
        stats = fit_normalization(np.zeros((3, 1)), np.array([1.0, 2.0, 3.0]))
        bad = OfflineDataset(np.zeros((3, 1)), np.array([1.0, 2.0, 3.0]), stats)
        with pytest.raises(ValueError):
            bad.validate()

    def test_good_dataset_passes(self):
        toy_dataset().validate()

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, strategies as st

from comopt import net
from comopt.acceptance import _fd_gradient
from comopt.baselines import train_ensemble, train_naive
from comopt.net import Ensemble, ObjectiveModel, build_model
from comopt.optimizer import ascend, input_grad_batch, predict_batch
from comopt.tasks import OfflineDataset, fit_normalization
from comopt.trainer import TrainerConfig, train
from conftest import linear_model


def member_predictions(ens, X):
    """Each member's predictions, one row per member."""
    return np.stack([net.forward_batch(m, X) for m in ens.members])


def predict_one(model, x):
    return float(predict_batch(model, x[None, :])[0])


def gradient_one(model, x):
    if isinstance(model, ObjectiveModel):
        return net.input_gradient_batch(model, x[None, :])[0]
    return input_grad_batch(model, x[None, :])[0]


def toy_dataset(n=24, dim=2, seed=0):
    rng = np.random.default_rng(seed)
    raw_x = rng.uniform(-1, 1, size=(n, dim))
    raw_y = raw_x[:, 0] - raw_x[:, 1]
    stats = fit_normalization(raw_x, raw_y)
    return OfflineDataset(stats.normalize_x(raw_x), stats.normalize_y(raw_y), stats)


class TestEnsembleForward:
    def test_single_member_equals_member(self):
        member = linear_model([2.0], bias=1.0)
        ens = Ensemble([member], "mean")
        x = np.array([3.0])
        assert predict_one(ens, x) == predict_one(member, x)

    def test_min_and_mean_of_constant_members(self):
        members = [linear_model([0.0], bias=1.0), linear_model([0.0], bias=3.0)]
        x = np.array([0.0])
        assert predict_one(Ensemble(members, "min"), x) == 1.0
        assert predict_one(Ensemble(members, "mean"), x) == 2.0

    def test_min_never_exceeds_mean(self):
        rng = np.random.default_rng(1)
        members = [build_model(3, (6,), rng=rng) for _ in range(4)]
        for _ in range(20):
            x = rng.normal(size=3)
            assert (predict_one(Ensemble(members, "min"), x)
                    <= predict_one(Ensemble(members, "mean"), x))

    def test_mean_is_arithmetic_mean(self):
        rng = np.random.default_rng(2)
        members = [build_model(2, (4,), rng=rng) for _ in range(3)]
        x = rng.normal(size=2)
        expect = np.mean([predict_one(m, x) for m in members])
        assert predict_one(Ensemble(members, "mean"), x) == pytest.approx(
            expect, rel=1e-15)

    @given(st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_min_below_mean_property(self, size, seed):
        rng = np.random.default_rng(seed)
        members = [build_model(2, (4,), rng=rng) for _ in range(size)]
        x = rng.normal(size=2)
        assert (predict_one(Ensemble(members, "min"), x)
                <= predict_one(Ensemble(members, "mean"), x) + 1e-12)

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError):
            Ensemble([], "mean")

    def test_mismatched_input_dims_rejected(self):
        with pytest.raises(ValueError):
            Ensemble([linear_model([1.0]), linear_model([1.0, 2.0])], "mean")


class TestEnsembleInputGradient:
    def test_single_member_gradient(self):
        member = linear_model([2.0, -3.0])
        ens = Ensemble([member], "min")
        npt.assert_allclose(gradient_one(ens, np.zeros(2)), [2.0, -3.0])

    def test_mean_mode_averages_linear_members(self):
        ens = Ensemble([linear_model([1.0, 0.0]), linear_model([3.0, 2.0])],
                       "mean")
        npt.assert_allclose(gradient_one(ens, np.zeros(2)), [2.0, 1.0])

    def test_min_mode_uses_strictly_lowest_member(self):
        low = linear_model([5.0], bias=-10.0)
        high = linear_model([-1.0], bias=10.0)
        ens = Ensemble([high, low], "min")
        npt.assert_allclose(gradient_one(ens, np.zeros(1)), [5.0])

    def test_min_mode_tie_goes_to_lowest_index(self):
        a = linear_model([1.0], bias=0.0)
        b = linear_model([-7.0], bias=0.0)
        ens = Ensemble([a, b], "min")
        npt.assert_allclose(gradient_one(ens, np.zeros(1)), [1.0])

    def test_mean_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        members = [build_model(3, (8,), rng=rng) for _ in range(3)]
        ens = Ensemble(members, "mean")
        x = rng.normal(size=3)
        fd = _fd_gradient(lambda v: predict_one(ens, v), x)
        npt.assert_allclose(gradient_one(ens, x), fd, rtol=1e-4, atol=1e-6)

    def test_mean_gradient_is_mean_of_member_gradients(self):
        rng = np.random.default_rng(4)
        members = [build_model(2, (4,), rng=rng) for _ in range(5)]
        ens = Ensemble(members, "mean")
        x = rng.normal(size=2)
        expect = np.mean([gradient_one(m, x) for m in members], axis=0)
        npt.assert_allclose(gradient_one(ens, x), expect, rtol=1e-12)

    def test_min_mode_batch_rows_use_their_own_active_member(self):
        rng = np.random.default_rng(5)
        members = [build_model(2, (8,), rng=rng) for _ in range(4)]
        ens = Ensemble(members, "min")
        X = rng.normal(size=(40, 2)) * 3.0
        active = member_predictions(ens, X).argmin(axis=0)
        assert len(set(active)) > 1
        G = ens.input_grad_batch(X)
        for i, x in enumerate(X):
            npt.assert_allclose(G[i], gradient_one(ens, x),
                                rtol=1e-12, atol=1e-15)
            npt.assert_allclose(G[i], gradient_one(members[active[i]], x),
                                rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("aggregate", ["min", "mean"])
    def test_one_hidden_pass_per_member_per_ascent_step(self, monkeypatch,
                                                        aggregate):
        rng = np.random.default_rng(6)
        ens = Ensemble([build_model(2, (8,), rng=rng) for _ in range(3)],
                       aggregate)
        X = rng.normal(size=(5, 2))
        grads = np.stack([net.input_gradient_batch(m, X) for m in ens.members])
        want = (grads[member_predictions(ens, X).argmin(axis=0), np.arange(5)]
                if aggregate == "min" else grads.mean(axis=0))
        assert ens.input_grad_batch(X).tobytes() == want.tobytes()
        # both modes take each member's pass from `forward_with_cache`
        calls = []
        real_pass, real_slopes = net._hidden_pass, net.GradientPlan.slopes

        def spy_pass(model, X):
            calls.append(len(X))
            return real_pass(model, X)

        def spy_slopes(plan, X):
            calls.append(len(X))
            return real_slopes(plan, X)

        monkeypatch.setattr(net, "_hidden_pass", spy_pass)
        monkeypatch.setattr(net.GradientPlan, "slopes", spy_slopes)
        ascend(ens, X, 0.1, 4)
        assert calls == [5] * (4 * 3)


class TestTrainNaive:
    def test_bitwise_equal_to_trainer_with_alpha_pinned(self):
        ds = toy_dataset()
        cfg = TrainerConfig(epochs=3, batch_size=8, mining_steps=2,
                            hidden=(8,), seed=7, alpha_init=0.0, alpha_lr=0.0)
        naive, _ = train_naive(ds, cfg)
        pinned, _ = train(ds, cfg)
        for a, b in zip(naive.layers, pinned.layers):
            npt.assert_array_equal(a.weights, b.weights)
            npt.assert_array_equal(a.bias, b.bias)

    def test_naive_ignores_conservative_settings(self):
        ds = toy_dataset()
        base = TrainerConfig(epochs=2, batch_size=8, mining_steps=2,
                             hidden=(8,), seed=7)
        with_alpha = TrainerConfig(epochs=2, batch_size=8, mining_steps=2,
                                   hidden=(8,), seed=7, alpha_init=5.0,
                                   alpha_lr=0.5)
        m1, _ = train_naive(ds, base)
        m2, _ = train_naive(ds, with_alpha)
        for a, b in zip(m1.layers, m2.layers):
            npt.assert_array_equal(a.weights, b.weights)

    def test_mse_decreases(self):
        ds = toy_dataset()
        cfg = TrainerConfig(epochs=30, batch_size=8, hidden=(8,), seed=1)
        _, log = train_naive(ds, cfg)
        assert log[-1]["mse"] < log[0]["mse"]


class TestTrainEnsemble:
    def test_members_differ_only_by_seed(self):
        ds = toy_dataset()
        cfg = TrainerConfig(epochs=2, batch_size=8, hidden=(8,), seed=3)
        ens, logs = train_ensemble(ds, cfg, size=3, aggregate="mean")
        assert len(ens.members) == 3
        assert len(logs) == 3
        w0 = ens.members[0].layers[0].weights
        w1 = ens.members[1].layers[0].weights
        assert not np.array_equal(w0, w1)

    def test_deterministic(self):
        ds = toy_dataset()
        cfg = TrainerConfig(epochs=2, batch_size=8, hidden=(8,), seed=3)
        e1, _ = train_ensemble(ds, cfg, size=2, aggregate="mean")
        e2, _ = train_ensemble(ds, cfg, size=2, aggregate="mean")
        for a, b in zip(e1.members, e2.members):
            npt.assert_array_equal(a.layers[0].weights, b.layers[0].weights)

    def test_size_validated(self):
        with pytest.raises(ValueError):
            train_ensemble(toy_dataset(), TrainerConfig(), size=0,
                           aggregate="mean")

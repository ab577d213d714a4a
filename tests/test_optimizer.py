import re

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, strategies as st

from comopt import net
from comopt.net import (Ensemble, GradientError, GradientPlan, build_model,
                        forward_batch, input_gradient_batch)
from comopt.optimizer import (CandidateSet, ascend, predict_batch,
                              produce_candidates, read_candidates,
                              select_initializations, write_candidates)
from comopt.tasks import (OfflineDataset, decode_sequences, encode_sequences,
                          fit_normalization)
from conftest import QuadraticStub, linear_model


def dataset_from(raw_x, raw_y, **kw):
    stats = fit_normalization(raw_x, raw_y)
    return OfflineDataset(stats.normalize_x(raw_x), stats.normalize_y(raw_y),
                          stats, **kw)


class TestOptimizeOne:
    """Search from a single initialization: `ascend` on a one-row batch."""

    def test_zero_gradient_constant_trajectory(self):
        model = build_model(2, (4,), rng=np.random.default_rng(0))
        model.layers[0].weights[:] = 0.0
        path = ascend(model, np.array([[0.3, -0.4]]), 0.1, 4, record=True)
        for point in path[:, 0]:
            npt.assert_array_equal(point, [0.3, -0.4])

    def test_constant_gradient_points(self):
        # f(x) = 3x: eta 0.1, 2 steps from 0 -> [0, 0.3, 0.6]
        path = ascend(linear_model([3.0]), np.array([[0.0]]), 0.1, 2, record=True)
        npt.assert_allclose(path[:, 0, 0], [0.0, 0.3, 0.6], atol=1e-12)

    def test_quadratic_final_point(self):
        endpoint = ascend(QuadraticStub(), np.array([[0.0]]), 0.1, 3)
        assert endpoint[0, 0] == pytest.approx(0.488, abs=1e-12)

    def test_nonfinite_gradient_raises(self):
        with pytest.raises(GradientError):
            ascend(linear_model([np.inf]), np.array([[1.0]]), 0.1, 5)

    def test_step_count_and_lengths(self):
        model = linear_model([1.0])
        assert ascend(model, np.array([[0.0]]), 0.1, 7).shape == (1, 1)
        assert ascend(model, np.array([[0.0]]), 0.1, 7, record=True).shape == (8, 1, 1)

    def test_requires_at_least_one_step(self):
        with pytest.raises(ValueError):
            ascend(linear_model([1.0]), np.array([[0.0]]), 0.1, 0)

    def test_nonpositive_step_size_rejected(self):
        with pytest.raises(ValueError):
            ascend(linear_model([1.0]), np.array([[0.0]]), 0.0, 3)

    def test_points_reconstructable_from_recurrence(self):
        rng = np.random.default_rng(2)
        model = build_model(3, (8,), rng=rng)
        X0 = rng.normal(size=(4, 3))
        path = ascend(model, X0, 0.05, 6, record=True)
        npt.assert_array_equal(path[0], X0)
        for t in range(6):
            expect = path[t] + 0.05 * input_gradient_batch(model, path[t])
            npt.assert_array_equal(path[t + 1], expect)
        npt.assert_array_equal(ascend(model, X0, 0.05, 6), path[-1])


class FixedGradient:
    """Returns the same gradient array at every call; ascent must not write
    into it."""

    input_dim = 2

    def __init__(self):
        self.G = np.array([[1.0, -2.0], [0.5, 0.25]])

    def input_grad_batch(self, X):
        return self.G


class TestAscendOnOneNet:
    """On a single net `ascend` builds one gradient plan per block of rows:
    weights, row-major copies of their transposes, and the hidden biases
    and output row repeated over the block's rows."""

    def test_plan_holds_row_major_copies_taken_when_built(self):
        model = build_model(8, (64, 64), rng=np.random.default_rng(7))
        plan = GradientPlan(model, 16)
        kept = [w.copy() for w in plan.weights_t]
        assert len(kept) == 2
        for lyr, wt in zip(model.layers, plan.weights_t):
            assert wt.flags.c_contiguous
            assert wt.tobytes() == np.ascontiguousarray(lyr.weights.T).tobytes()
        model.params += 1.0
        for wt, was in zip(plan.weights_t, kept):
            assert wt.tobytes() == was.tobytes()

    @pytest.mark.parametrize("d", [8, 24])
    @pytest.mark.parametrize("n", [1, 16, 19, 104, 128])
    def test_one_step_equals_the_cached_gradient_on_the_views(self, d, n):
        # the cache's hidden pass multiplies by the transposed views; the
        # plan's by row-major copies, whose products can differ in the last
        # bit at few rows, but the gradient reads only their signs
        rng = np.random.default_rng(100 * d + n)
        model = build_model(d, (64, 64), rng=rng)
        X = rng.normal(size=(n, d))
        cache = net.forward_with_cache(model, X)[1]
        want = X + 0.3 * input_gradient_batch(model, X, cache)
        assert ascend(model, X, 0.3, 1).tobytes() == want.tobytes()

    @pytest.mark.parametrize("hidden", [(), (8,), (8, 6)])
    @pytest.mark.parametrize("n", [1, 16, 128])
    def test_one_step_is_one_input_gradient(self, hidden, n):
        rng = np.random.default_rng(n + len(hidden))
        model = build_model(3, hidden, rng=rng)
        model.params[:] = rng.normal(size=model.params.shape)  # nonzero biases
        X = rng.normal(size=(n, 3)) * 2.0
        want = X + 0.07 * input_gradient_batch(model, X)
        assert ascend(model, X, 0.07, 1).tobytes() == want.tobytes()

    def test_plan_follows_parameter_edits_between_calls(self):
        rng = np.random.default_rng(4)
        model = build_model(3, (8, 6), rng=rng)
        X = rng.normal(size=(16, 3))
        before = ascend(model, X, 0.05, 3)
        model.params += 0.5 * rng.normal(size=model.params.shape)
        after = ascend(model, X, 0.05, 3)
        assert after.tobytes() != before.tobytes()
        assert after.tobytes() == ascend(model.copy(), X, 0.05, 3).tobytes()

    def test_start_rows_and_provider_gradients_left_unwritten(self):
        rng = np.random.default_rng(5)
        X0 = rng.normal(size=(2, 2))
        kept = X0.copy()
        for model in (build_model(2, (4,), rng=rng), FixedGradient()):
            ascend(model, X0, 0.1, 3)
            ascend(model, X0, 0.1, 3, record=True)
            assert X0.tobytes() == kept.tobytes()
        provider = FixedGradient()
        G = provider.G.copy()
        path = ascend(provider, X0, 0.5, 2, record=True)
        assert provider.G.tobytes() == G.tobytes()
        npt.assert_array_equal(path[2], (X0 + 0.5 * G) + 0.5 * G)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_start_row_rejected(self, bad):
        # a NaN pre-activation takes slope leak, so the gradient alone
        # would stay finite and the endpoint would not
        X0 = np.zeros((3, 2))
        X0[1, 0] = bad
        for model in (build_model(2, (4,), rng=np.random.default_rng(6)),
                      FixedGradient()):
            with pytest.raises(ValueError, match="finite start rows"):
                ascend(model, X0, 0.1, 2)


def _one_plan_ascent(model, X0, eta, steps):
    """Every iterate of ascent on all rows at once, through one
    `GradientPlan` built for them, as (steps + 1, n, d)."""
    plan = GradientPlan(model, len(X0))
    path = [X0]
    for _ in range(steps):
        step = eta * plan.input_grad_batch(path[-1])
        step += path[-1]
        path.append(step)
    return np.stack(path)


class TestBlockedAscent:
    """`ascend` walks the rows in the blocks of `net.row_blocks`, each with
    its own plan, and every iterate stays bitwise what one plan over all
    rows gives."""

    @pytest.mark.parametrize("d", [8, 24])
    def test_blocked_ascent_equals_one_plan_over_all_rows(self, d):
        rng = np.random.default_rng(d)
        model = build_model(d, (64, 64), rng=rng)
        X = rng.normal(size=(4096, d))
        for n in [*range(129, 701, 7), 1000, 2048, 4096]:
            want = _one_plan_ascent(model, X[:n], 0.3, 3)[-1]
            assert ascend(model, X[:n], 0.3, 3).tobytes() == want.tobytes(), n

    @pytest.mark.parametrize("n", [287, 300])  # 2 blocks; 3 with a tail
    def test_recorded_path_keeps_row_order_and_shape(self, n):
        rng = np.random.default_rng(n)
        model = build_model(8, (64, 64), rng=rng)
        X0 = rng.normal(size=(n, 8))
        path = ascend(model, X0, 0.3, 4, record=True)
        assert path.shape == (5, n, 8)
        assert path.tobytes() == _one_plan_ascent(model, X0, 0.3, 4).tobytes()
        assert path[-1].tobytes() == ascend(model, X0, 0.3, 4).tobytes()

    def test_min_ensemble_ascends_in_blocks_like_one_pass(self):
        rng = np.random.default_rng(12)
        ens = Ensemble([build_model(8, (64, 64), rng=rng) for _ in range(3)],
                       "min")
        X = rng.normal(size=(256, 8))
        want = X
        for _ in range(3):
            step = 0.3 * ens.input_grad_batch(want)
            step += want
            want = step
        assert ascend(ens, X, 0.3, 3).tobytes() == want.tobytes()

    def test_working_set_does_not_grow_with_rows(self, traced_peak):
        # one plan over all 4,096 rows peaked at 18.7 MB
        rng = np.random.default_rng(9)
        model = build_model(24, (64, 64), rng=rng)
        X = rng.normal(size=(4096, 24))
        bound = traced_peak(lambda: ascend(model, X[:128], 0.3, 3)) + 2 * X.nbytes
        assert traced_peak(lambda: ascend(model, X, 0.3, 3)) < bound


class TestSelectInitializations:
    def test_argmax_initialization(self):
        ds = dataset_from(np.array([[0.0], [1.0], [2.0]]), np.array([3.0, 9.0, 5.0]))
        assert list(select_initializations(ds, 1)) == [1]

    def test_full_dataset_in_score_order(self):
        ds = dataset_from(np.array([[0.0], [1.0], [2.0]]), np.array([3.0, 9.0, 5.0]))
        assert list(select_initializations(ds, 3)) == [1, 2, 0]

    def test_tie_broken_by_lower_index(self):
        ds = dataset_from(np.array([[0.0], [1.0], [2.0]]), np.array([7.0, 7.0, 2.0]))
        assert list(select_initializations(ds, 1)) == [0]

    def test_too_many_seeds_rejected(self):
        ds = dataset_from(np.zeros((3, 1)), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            select_initializations(ds, 4)


class TestProduceCandidates:
    def test_zero_gradient_returns_top_n_designs(self):
        ds = dataset_from(np.arange(8.0).reshape(4, 2),
                          np.array([1.0, 4.0, 2.0, 3.0]))
        model = build_model(2, (4,), rng=np.random.default_rng(0))
        model.layers[0].weights[:] = 0.0
        cands = produce_candidates(model, ds, 2, 0.1, 3)
        assert list(cands.provenance) == [1, 3]
        npt.assert_array_equal(cands.designs, ds.raw_designs()[[1, 3]])

    def test_budget_one_reduces_to_single_seed_search(self):
        rng = np.random.default_rng(3)
        ds = dataset_from(rng.normal(size=(6, 2)), rng.normal(size=6))
        model = build_model(2, (4,), rng=rng)
        cands = produce_candidates(model, ds, 1, 0.1, 5)
        seed = ds.designs[select_initializations(ds, 1)]
        endpoint = ascend(model, seed, 0.1, 5)
        npt.assert_array_equal(cands.designs, ds.stats.denormalize_x(endpoint))
        assert cands.surrogate_values[0] == forward_batch(model, endpoint)[0]

    @pytest.mark.parametrize("kind", ["net", "min-ensemble"])
    def test_batched_search_matches_row_by_row_reference(self, kind):
        # The reference ascends each seed alone. On OpenBLAS 0.3.31 a one-row
        # product rounds differently in the last bits from the same row of a
        # batch of 2 to 39 rows (measured at inner widths 4 to 64, on the
        # transposed views and their row-major copies alike), so agreement
        # is to 1e-10 in the normalized space, fixed before measuring.
        rng = np.random.default_rng(5)
        ds = dataset_from(rng.uniform(-2, 2, size=(64, 4)), rng.normal(size=64))
        members = [build_model(4, (16, 16), rng=rng) for _ in range(3)]
        model = members[0] if kind == "net" else Ensemble(members, "min")
        cands = produce_candidates(model, ds, 32, 0.2, 20)
        seeds = ds.designs[select_initializations(ds, 32)]
        ref = np.stack([ascend(model, x0[None, :], 0.2, 20)[0] for x0 in seeds])
        ref_values = [predict_batch(model, x[None, :])[0] for x in ref]
        npt.assert_allclose(ds.stats.normalize_x(cands.designs), ref, rtol=0,
                            atol=1e-10)
        npt.assert_allclose(cands.surrogate_values, ref_values, rtol=0, atol=1e-10)

    def test_candidate_count_matches_budget(self):
        rng = np.random.default_rng(4)
        ds = dataset_from(rng.normal(size=(10, 2)), rng.normal(size=10))
        model = build_model(2, (4,), rng=rng)
        assert len(produce_candidates(model, ds, 7, 0.1, 2)) == 7


letter_rows = st.integers(2, 6).flatmap(
    lambda K: st.tuples(st.just(K), st.lists(st.integers(0, K - 1),
                                             min_size=1, max_size=8)))


class TestDiscreteCodec:
    """The one logit relaxation of letter sequences, which the search
    ascends in: `tasks.encode_sequences` and `tasks.decode_sequences`."""

    def test_declared_smoothing_rule(self):
        logits = encode_sequences(np.array([[0]]), 2, 0.2)
        npt.assert_allclose(logits, [[np.log(0.8), np.log(0.2)]])

    def test_round_trip_simple(self):
        letters = np.array([[2, 0, 3], [1, 1, 0]])
        npt.assert_array_equal(
            decode_sequences(encode_sequences(letters, 4, 0.2), 3, 4), letters)

    def test_uniform_logits_tie_break_to_letter_zero(self):
        npt.assert_array_equal(decode_sequences(np.zeros((1, 6)), 3, 2),
                               [[0, 0, 0]])

    def test_per_position_argmax(self):
        out = decode_sequences(np.array([[2.0, -1.0, -1.0, 3.0]]), 2, 2)
        npt.assert_array_equal(out, [[0, 1]])

    def test_tie_goes_to_lowest_letter(self):
        out = decode_sequences(np.array([[0.0, 1.0, 1.0]]), 1, 3)
        npt.assert_array_equal(out, [[1]])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            decode_sequences(np.zeros((1, 5)), 2, 3)
        with pytest.raises(ValueError):
            decode_sequences(np.zeros(6), 2, 3)

    @given(letter_rows)
    def test_round_trip_identity_property(self, case):
        K, letters = case
        seq = np.array([letters])
        npt.assert_array_equal(
            decode_sequences(encode_sequences(seq, K, 0.2), len(letters), K),
            seq)

    @given(st.floats(0.01, 0.99))
    def test_probabilities_sum_to_one(self, eps):
        logits = encode_sequences(np.array([[0, 2]]), 3, eps)
        probs = np.exp(logits).reshape(2, 3)
        npt.assert_allclose(probs.sum(axis=1), [1.0, 1.0])


class TestCandidateCSV:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        cands = CandidateSet(rng.normal(size=(4, 3)), np.array([0, 1, 2, 3]),
                             np.array([0.5, 0.25, -1.0, 2.0]))
        path = tmp_path / "candidates.csv"
        write_candidates(cands, path)
        loaded = read_candidates(path)
        assert loaded.designs.tobytes() == cands.designs.tobytes()
        npt.assert_array_equal(loaded.provenance, cands.provenance)
        assert (loaded.surrogate_values.tobytes()
                == cands.surrogate_values.tobytes())

    def test_header_names(self, tmp_path):
        cands = CandidateSet(np.array([[0.0, 1.0], [1.0, 0.0]]),
                             np.array([0, 1]), np.array([0.0, 1.0]))
        path = tmp_path / "c.csv"
        write_candidates(cands, path)
        header = path.read_text().splitlines()[0]
        assert header == "x0,x1,provenance,surrogate_value"

    def test_header_only_file_rejected(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("x0,x1,provenance,surrogate_value\n")
        with pytest.raises(ValueError, match="no data rows"):
            read_candidates(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("x0,x1,provenance,surrogate_value\n0.5,1,0.25\n")
        with pytest.raises(ValueError, match="line 2 has 3 cells, the header has 4"):
            read_candidates(path)

    def test_non_finite_value_rejected(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("x0,x1,provenance,surrogate_value\n"
                        "0.5,1.5,0,0.25\ninf,1.5,1,0.5\n")
        with pytest.raises(ValueError, match="line 3 has a non-finite value"):
            read_candidates(path)

    @pytest.mark.parametrize("provenance", ["2.7", "-3", "-3.5"])
    def test_bad_provenance_rejected(self, tmp_path, provenance):
        path = tmp_path / "c.csv"
        path.write_text("x0,x1,provenance,surrogate_value\n"
                        f"0.5,1.5,0,0.25\n0.5,1.5,{provenance},0.5\n")
        with pytest.raises(ValueError,
                           match=re.escape(f"{path}: provenance must hold")):
            read_candidates(path)

    def test_integral_float_provenance_accepted(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("x0,x1,provenance,surrogate_value\n"
                        "0.5,1.5,0,0.25\n0.5,1.5,7.0,0.5\n")
        assert read_candidates(path).provenance.tolist() == [0, 7]

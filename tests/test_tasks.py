import dataclasses
import itertools
import json

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from comopt import tasks
from comopt.tasks import (BOX_BOUND, PWM_ENCODE_EPS, PWM_WEIGHTS, TASK_DIM,
                          CurationConfig, TaskSpec, all_sequences,
                          curate_dataset, encode_sequences, get_task,
                          oracle_eval_batch, read_dataset, sequence_scores,
                          task_names, write_dataset)


class TestBowlOracle:
    def test_origin_is_global_max(self):
        task = get_task("bowl")
        assert task.oracle(np.zeros(8)) == 0.0

    def test_unit_vector(self):
        task = get_task("bowl")
        e1 = np.zeros(8)
        e1[0] = 1.0
        assert task.oracle(e1) == -1.0

    def test_all_ones(self):
        assert get_task("bowl").oracle(np.ones(8)) == -8.0


class TestCliffOracle:
    def test_origin(self):
        assert get_task("cliff").oracle(np.zeros(8)) == 0.0

    def test_just_past_edge_takes_penalty(self):
        x = np.zeros(8)
        x[0] = 2.1
        assert get_task("cliff").oracle(x) == pytest.approx(-54.41)

    def test_boundary_counts_as_valid(self):
        x = np.zeros(8)
        x[0] = 2.0
        assert get_task("cliff").oracle(x) == -4.0

    def test_outside_always_below_minus_fifty(self):
        rng = np.random.default_rng(0)
        task = get_task("cliff")
        for _ in range(50):
            x = rng.uniform(-4, 4, size=8)
            if np.max(np.abs(x)) > 2.0:
                assert task.oracle(x) <= -50.0

    def test_withheld_score_range(self):
        task = get_task("cliff")
        assert (task.y_min, task.y_max) == (-32.0, 0.0)

    def test_pure_and_deterministic(self):
        task = get_task("cliff")
        x = np.full(8, 1.3)
        assert task.oracle(x) == task.oracle(x)


class TestEdgeOracle:
    def test_corner_is_valid_optimum(self):
        task = get_task("edge")
        assert task.oracle(np.full(8, 2.0)) == 0.0 == task.y_max

    def test_just_past_edge_takes_penalty(self):
        x = np.full(8, 2.0)
        x[0] = 2.1
        assert get_task("edge").oracle(x) == pytest.approx(-50.01)

    def test_opposite_corner_is_worst_in_box(self):
        task = get_task("edge")
        assert task.oracle(np.full(8, -2.0)) == task.y_min == -128.0

    def test_outside_always_below_minus_fifty(self):
        rng = np.random.default_rng(0)
        task = get_task("edge")
        for _ in range(50):
            x = rng.uniform(-4, 4, size=8)
            if np.max(np.abs(x)) > 2.0:
                assert task.oracle(x) <= -50.0

    def test_inside_box_is_bowl_centred_on_corner(self):
        x = np.random.default_rng(1).uniform(-2, 2, size=8)
        assert get_task("edge").oracle(x) == pytest.approx(
            get_task("bowl").oracle(x - 2.0))


class TestPwmOracle:
    def test_zero_weight_matrix_scores_zero(self, monkeypatch):
        # the oracle reads the module's weights at call time
        task = get_task("pwm")
        monkeypatch.setattr(tasks, "PWM_WEIGHTS", np.zeros((6, 4)))
        seq = encode_sequences(np.array([[0, 1, 2, 3, 0, 1]]), 4, 0.2)[0]
        assert task.oracle(seq) == 0.0

    def test_argmax_per_position_is_global_max(self):
        task = get_task("pwm")
        W = PWM_WEIGHTS
        best = encode_sequences(W.argmax(axis=1)[None], 4, PWM_ENCODE_EPS)[0]
        assert task.oracle(best) == pytest.approx(
            W.max(axis=1).sum())
        assert task.y_max == pytest.approx(W.max(axis=1).sum())

    def test_ranks_match_exhaustive_enumeration(self):
        # independent brute force over all 4^6 sequences via itertools
        task = get_task("pwm")
        W = PWM_WEIGHTS
        brute = np.array([sum(W[i, k] for i, k in enumerate(seq))
                          for seq in itertools.product(range(4), repeat=6)])
        letters = all_sequences(6, 4)
        fast = sequence_scores(letters)
        npt.assert_allclose(np.sort(brute), np.sort(fast), atol=1e-12)
        # spot-check the oracle against the table on a few sequences
        rng = np.random.default_rng(1)
        for idx in rng.integers(0, len(letters), size=10):
            x = encode_sequences(letters[idx][None], 4, PWM_ENCODE_EPS)[0]
            assert task.oracle(x) == pytest.approx(fast[idx])

    def test_enumeration_shape_and_order(self):
        seqs = all_sequences(2, 3)
        assert seqs.shape == (9, 2)
        npt.assert_array_equal(seqs[0], [0, 0])
        npt.assert_array_equal(seqs[-1], [2, 2])


class TestGetTask:
    def test_known_names(self):
        for name in ("bowl", "cliff", "edge", "pwm"):
            assert get_task(name).name == name

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            get_task("mystery")

    @pytest.mark.parametrize("name", task_names())
    def test_each_name_has_one_shared_spec(self, name):
        assert get_task(name) is get_task(name)

    def test_a_spec_holds_only_what_differs_between_tasks(self):
        assert [f.name for f in dataclasses.fields(TaskSpec)] == [
            "name", "input_dim", "is_discrete", "batch_oracle", "y_min",
            "y_max"]

    def test_pwm_weights_are_read_only(self):
        with pytest.raises(ValueError, match="read-only"):
            PWM_WEIGHTS[0, 0] = 0.0


class TestCurateDataset:
    def test_keep_all_is_full_sample(self):
        task = get_task("bowl")
        ds = curate_dataset(task, CurationConfig(200, 100.0, seed=0))
        assert len(ds) == 200

    def test_keep_half_max_below_raw_median(self):
        task = get_task("bowl")
        config = CurationConfig(400, 50.0, seed=1)
        ds = curate_dataset(task, config)
        rng = np.random.default_rng(1)
        raw = rng.uniform(-BOX_BOUND, BOX_BOUND, size=(400, TASK_DIM))
        raw_scores = oracle_eval_batch(task, raw)
        assert ds.raw_scores().max() <= np.median(raw_scores)

    def test_pwm_keeps_bottom_half_with_headroom(self):
        task = get_task("pwm")
        ds = curate_dataset(task, CurationConfig(seed=0))
        assert len(ds) == 2048
        assert ds.raw_scores().max() < task.y_max

    def test_strict_headroom_continuous(self):
        for name in ("bowl", "cliff", "edge"):
            task = get_task(name)
            ds = curate_dataset(task, CurationConfig(500, 50.0, seed=2))
            assert ds.raw_scores().max() < task.y_max

    def test_scores_normalized(self):
        ds = curate_dataset(get_task("bowl"), CurationConfig(300, 50.0, seed=3))
        assert abs(ds.scores.mean()) < 1e-8
        assert abs(ds.scores.std() - 1.0) < 1e-8

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            curate_dataset(get_task("bowl"), CurationConfig(5, 50.0))

    def test_bad_percentile_rejected(self):
        with pytest.raises(ValueError):
            CurationConfig(100, 0.0).validate()
        with pytest.raises(ValueError):
            CurationConfig(100, 101.0).validate()

    def test_deterministic_given_seed(self):
        a = curate_dataset(get_task("bowl"), CurationConfig(100, 50.0, seed=9))
        b = curate_dataset(get_task("bowl"), CurationConfig(100, 50.0, seed=9))
        npt.assert_array_equal(a.designs, b.designs)
        npt.assert_array_equal(a.scores, b.scores)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(5.0, 100.0), st.integers(0, 2**16))
    def test_kept_fraction_tracks_percentile(self, keep, seed):
        ds = curate_dataset(get_task("bowl"), CurationConfig(200, keep, seed=seed))
        expect = max(2, int(round(200 * keep / 100.0)))
        assert len(ds) == expect
        # kept scores never exceed the highest discarded region's floor
        raw_max = ds.raw_scores().max()
        assert raw_max <= 0.0


class TestDatasetCSV:
    def test_round_trip(self, tmp_path):
        task = get_task("cliff")
        ds = curate_dataset(task, CurationConfig(100, 50.0, seed=5))
        path = tmp_path / "data.csv"
        write_dataset(ds, path)
        loaded = read_dataset(path)
        npt.assert_allclose(loaded.designs, ds.designs, atol=1e-12)
        npt.assert_allclose(loaded.scores, ds.scores, atol=1e-12)
        npt.assert_allclose(loaded.stats.x_mean, ds.stats.x_mean)
        assert loaded.is_discrete == ds.is_discrete
        loaded.validate()

    def test_discrete_round_trip_keeps_shape(self, tmp_path):
        ds = curate_dataset(get_task("pwm"), CurationConfig(seed=0))
        path = tmp_path / "pwm.csv"
        write_dataset(ds, path)
        loaded = read_dataset(path)
        assert loaded.designs.shape == (2048, 24)
        assert loaded.is_discrete

    def test_sidecar_holds_only_what_read_dataset_reads(self, tmp_path):
        ds = curate_dataset(get_task("pwm"), CurationConfig(seed=0))
        path = tmp_path / "pwm.csv"
        write_dataset(ds, path)
        meta = json.loads((tmp_path / "pwm.csv.meta.json").read_text())
        assert list(meta) == ["x_mean", "x_std", "y_mean", "y_std",
                              "is_discrete"]

    def test_sidecar_with_removed_keys_still_loads(self, tmp_path):
        # sidecars written before the oracle range and raw shape were
        # dropped from the dataset carry three more keys
        ds = curate_dataset(get_task("pwm"), CurationConfig(seed=0))
        path = tmp_path / "pwm.csv"
        write_dataset(ds, path)
        sidecar = tmp_path / "pwm.csv.meta.json"
        meta = json.loads(sidecar.read_text())
        meta.update(raw_shape=[6, 4], oracle_y_min=-3.0, oracle_y_max=4.0)
        sidecar.write_text(json.dumps(meta))
        loaded = read_dataset(path)
        npt.assert_allclose(loaded.designs, ds.designs, atol=1e-12)
        assert loaded.is_discrete

    def test_header_and_final_column(self, tmp_path):
        ds = curate_dataset(get_task("bowl"), CurationConfig(50, 100.0, seed=6))
        path = tmp_path / "d.csv"
        write_dataset(ds, path)
        header = path.read_text().splitlines()[0].split(",")
        assert header[-1] == "y"
        assert header[0] == "x0"


class TestReadDatasetRejects:
    @pytest.fixture()
    def written(self, tmp_path):
        ds = curate_dataset(get_task("cliff"), CurationConfig(100, 50.0, seed=5))
        path = tmp_path / "data.csv"
        write_dataset(ds, path)
        return path

    def test_sidecar_length_mismatch(self, written):
        sidecar = written.with_name(written.name + ".meta.json")
        meta = json.loads(sidecar.read_text())
        meta["x_mean"] = meta["x_mean"][:1]
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(ValueError,
                           match="x_mean has 1 entries for 8 design columns"):
            read_dataset(written)

    def test_ragged_row(self, written):
        lines = written.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0]
        written.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 3 has 8 cells, the header has 9"):
            read_dataset(written)

    def test_non_finite_cell(self, written):
        lines = written.read_text().splitlines()
        lines[1] = "nan," + lines[1].split(",", 1)[1]
        written.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="line 2 has a non-finite value"):
            read_dataset(written)

    def test_missing_sidecar_key(self, written):
        sidecar = written.with_name(written.name + ".meta.json")
        meta = json.loads(sidecar.read_text())
        del meta["y_mean"]
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="meta.json: missing key.s. y_mean"):
            read_dataset(written)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
    def test_non_positive_or_non_finite_std(self, written, bad):
        sidecar = written.with_name(written.name + ".meta.json")
        meta = json.loads(sidecar.read_text())
        meta["x_std"][3] = bad
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="meta.json: x_std and y_std"):
            read_dataset(written)


class TestOracleEvalBatch:
    @pytest.mark.parametrize("name", ["bowl", "cliff", "edge", "pwm"])
    def test_batch_equals_one_design_at_a_time(self, name):
        task = get_task(name)
        rng = np.random.default_rng(8)
        X = rng.uniform(-3 * BOX_BOUND, 3 * BOX_BOUND,
                        size=(300, task.input_dim))
        X[:2] = -BOX_BOUND  # an in-box row next to out-of-box ones
        batch = oracle_eval_batch(task, X)
        assert batch.shape == (300,)
        singles = np.array([task.oracle(x) for x in X])
        assert batch.tobytes() == singles.tobytes()
        if name != "pwm":
            center = 2.0 if name == "edge" else 0.0
            penalty = 0.0 if name == "bowl" else 50.0

            def one_design(x):  # the per-row oracle the batch scorer replaced
                d = x - center
                value = float(-np.sum(d * d))
                if np.max(np.abs(x)) > 2.0:
                    value -= penalty
                return value

            outside = np.abs(X).max(axis=1) > 2.0
            assert outside.any() and not outside.all()
            want = np.array([one_design(x) for x in X])
            assert batch.tobytes() == want.tobytes()

    def test_caller_batch_left_unwritten(self):
        task = get_task("cliff")
        X = np.full((3, task.input_dim), 3.0)
        oracle_eval_batch(task, X)
        npt.assert_array_equal(X, 3.0)

    @pytest.mark.parametrize("shape", [(4, 7), (4, 9), (8,)])
    def test_wrong_width_rejected(self, shape):
        with pytest.raises(ValueError, match="cliff designs have 8 coordinates"):
            oracle_eval_batch(get_task("cliff"), np.zeros(shape))

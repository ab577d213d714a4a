import json
from dataclasses import asdict

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, strategies as st

from comopt.harness import (DEFAULT_CONFIG, InvariantViolation,
                            TrialEvaluation, _trial_key,
                            budget_sweep, config_from, curation_config_from,
                            evaluate_budget, normalized_score, parse_config,
                            run_experiment, run_trial, run_trials,
                            stability_sweep, tau_sweep, trainer_config_from)
from comopt.fileio import write_rows
from comopt.net import build_model
from comopt.optimizer import CandidateSet, candidate_table
from comopt.tasks import (CurationConfig, NormalizationStats, OfflineDataset,
                          get_task)
from comopt.trainer import TrainerConfig


def identity_stats(dim):
    return NormalizationStats(np.zeros(dim), np.ones(dim), 0.0, 1.0)


def candidate_set(raw_designs, surrogate_values=None):
    raw = np.asarray(raw_designs, dtype=float)
    values = (np.asarray(surrogate_values, dtype=float)
              if surrogate_values is not None else np.zeros(len(raw)))
    return CandidateSet(raw, np.arange(len(raw)), values)


class FlatStub:
    """Score equals the first coordinate; zero gradient everywhere."""

    input_dim = 2

    def predict_batch(self, X):
        return np.zeros(len(X))

    def input_grad_batch(self, X):
        return np.zeros_like(X)


class TestEvaluateBudget:
    def test_single_candidate(self):
        task = get_task("bowl")
        cands = candidate_set(np.zeros((1, 8)))
        ev = evaluate_budget(cands, task, 1)
        assert ev.score_p100 == ev.score_p50 == 0.0
        assert ev.normalized_p100 == 1.0

    def test_even_count_median_is_midpoint(self):
        # candidates scoring -1, -2, -3, -4 on the bowl
        raws = np.zeros((4, 8))
        for i in range(4):
            raws[i, 0] = np.sqrt(i + 1.0)
        ev = evaluate_budget(candidate_set(raws), get_task("bowl"), 4)
        assert ev.score_p100 == pytest.approx(-1.0)
        assert ev.score_p50 == pytest.approx(-2.5)

    def test_oracle_optimum_normalizes_to_one(self):
        task = get_task("bowl")
        ev = evaluate_budget(candidate_set(np.zeros((1, 8))), task, 1)
        assert ev.normalized_p100 == 1.0

    def test_budget_larger_than_set_rejected(self):
        with pytest.raises(ValueError):
            evaluate_budget(candidate_set(np.zeros((2, 8))), get_task("bowl"), 3)

    def test_p100_at_least_p50(self):
        rng = np.random.default_rng(0)
        ev = evaluate_budget(candidate_set(rng.uniform(-2, 2, (8, 8))),
                             get_task("bowl"), 8)
        assert ev.score_p100 >= ev.score_p50

    def test_budget_n_scores_the_surrogate_ranked_prefix(self):
        # the surrogate ranks the rows in reverse, so row order and rank
        # order give different prefixes
        raws = np.zeros((6, 8))
        raws[:, 0] = np.arange(6) * 0.3
        cands = candidate_set(raws, surrogate_values=np.arange(6.0))
        task = get_task("bowl")
        for n in range(1, 7):
            ev = evaluate_budget(cands, task, n)
            assert ev.score_p100 == budget_sweep(cands, task, [n])[0]
            assert ev.score_p50 == np.median(-(raws[6 - n:, 0] ** 2))


class TestNormalizedScore:
    def test_endpoints(self):
        task = get_task("bowl")
        assert normalized_score(task, task.y_max) == 1.0
        assert normalized_score(task, task.y_min) == 0.0

    @given(st.floats(-30, 5), st.floats(0.1, 100), st.floats(-1000, 1000))
    def test_affine_invariance(self, y, scale, shift):
        task = get_task("bowl")
        base = normalized_score(task, y)

        class Shifted:
            y_min = task.y_min * scale + shift
            y_max = task.y_max * scale + shift

        assert normalized_score(Shifted, y * scale + shift) == pytest.approx(
            base, abs=1e-9)


class TestStabilitySweep:
    def test_flat_model_gives_flat_curve(self):
        task = get_task("bowl")

        class Flat:
            input_dim = 8

            def predict_batch(self, X):
                return np.zeros(len(X))

            def input_grad_batch(self, X):
                return np.zeros_like(X)

        data = OfflineDataset(np.full((2, 8), 0.5), np.zeros(2),
                              identity_stats(8))
        curve = stability_sweep(Flat(), task, data, 0.1, 10)
        assert len(curve) == 11
        npt.assert_allclose(curve, np.full(11, -8 * 0.25))

    def test_curve_length(self):
        model = build_model(8, (4,), rng=np.random.default_rng(0))
        data = OfflineDataset(np.zeros((2, 8)), np.zeros(2), identity_stats(8))
        curve = stability_sweep(model, get_task("bowl"), data, 0.1, 25)
        assert len(curve) == 26


class TestBudgetSweep:
    def test_monotone_nondecreasing(self):
        rng = np.random.default_rng(1)
        cands = candidate_set(rng.uniform(-2, 2, (16, 8)), rng.normal(size=16))
        sweep = budget_sweep(cands, get_task("bowl"), [1, 2, 4, 8, 16])
        assert all(a <= b for a, b in zip(sweep, sweep[1:]))

    def test_full_budget_at_least_single(self):
        rng = np.random.default_rng(2)
        cands = candidate_set(rng.uniform(-2, 2, (8, 8)), rng.normal(size=8))
        sweep = budget_sweep(cands, get_task("bowl"), [1, 8])
        assert sweep[-1] >= sweep[0]

    def test_identical_candidates_flat_sweep(self):
        cands = candidate_set(np.ones((6, 8)) * 0.3, np.zeros(6))
        sweep = budget_sweep(cands, get_task("bowl"), [1, 2, 3, 6])
        assert len(set(np.round(sweep, 12))) == 1

    def test_ranking_by_surrogate_descending(self):
        # candidate 1 is truly best but ranked last by the surrogate
        raws = np.zeros((2, 8))
        raws[1, 0] = 0.0
        raws[0, 0] = 1.0
        cands = candidate_set(raws, surrogate_values=[5.0, 1.0])
        sweep = budget_sweep(cands, get_task("bowl"), [1, 2])
        assert sweep[0] == pytest.approx(-1.0)
        assert sweep[1] == pytest.approx(0.0)

    def test_budget_exceeding_candidates_rejected(self):
        cands = candidate_set(np.zeros((3, 8)), np.zeros(3))
        with pytest.raises(ValueError):
            budget_sweep(cands, get_task("bowl"), [1, 4])


TINY = {"task": "cliff", "n_raw": 100, "epochs": 2, "batch_size": 64,
        "mining_steps": 3, "hidden": "8"}


class TestTauSweep:
    def test_single_tau_single_curve(self):
        curves = tau_sweep(config_from(TINY), 0, [0.5], t_max=5)
        assert set(curves) == {0.5}
        assert len(curves[0.5]) == 6

    def test_default_tau_values_accepted(self):
        # the standard thresholds: 0.5 continuous, 2.0 discrete
        cfg = config_from({**TINY, "epochs": 1, "mining_steps": 2,
                           "hidden": "4", "base_seed": 1})
        curves = tau_sweep(cfg, 0, [0.5, 2.0], t_max=3)
        assert set(curves) == {0.5, 2.0}

    def test_dataset_smaller_than_the_run_budget(self):
        # 10 curated rows, fewer than the default budget of 16
        curves = tau_sweep(config_from({**TINY, "n_raw": 20}), 0, [0.5],
                           t_max=2)
        assert len(curves[0.5]) == 3

    def test_nonpositive_tau_rejected(self, train_spy):
        with pytest.raises(ValueError, match="tau must be positive"):
            tau_sweep(config_from(TINY), 0, [0.5, 0.0], t_max=3)
        with pytest.raises(ValueError, match="t_max must be >= 1"):
            tau_sweep(config_from(TINY), 0, [0.5], t_max=0)
        assert train_spy == []


class TestRunTrial:
    def test_sweeps_run_only_when_the_config_asks(self, train_spy):
        cfg = config_from({**TINY, "epochs": 1, "budget": 4})
        memo = {}
        plain, swept = run_trials(
            [(cfg, 0), (config_from({**cfg, "stability_steps": 3,
                                     "budgets": "1,4"}), 0)], memo)
        assert plain.stability is None and plain.budget is None
        assert len(plain.candidates) == 4
        assert len(memo) == len(train_spy) == 2  # two shapes, two trials
        assert len(swept.stability) == 4
        assert swept.budget[-1] == swept.evaluation.score_p100
        assert swept.evaluation == plain.evaluation

    def test_trials_match_the_run_experiment_report(self, tmp_path):
        cfg = config_from({**TINY, "epochs": 1, "trials": 2, "budget": 4})
        report = run_experiment(cfg, tmp_path / "run")
        results = [run_trial(cfg, trial) for trial in range(2)]
        assert report["per_trial"] == [asdict(r.evaluation) for r in results]
        tables = [candidate_table(r.candidates) for r in results]
        write_rows(tmp_path / "want.csv", ["trial"] + tables[0][0],
                   [[trial, *row] for trial, (_, rows) in enumerate(tables)
                    for row in rows])
        assert ((tmp_path / "run" / "candidates.csv").read_bytes()
                == (tmp_path / "want.csv").read_bytes())


class TestRunTrials:
    def test_memo_trains_each_distinct_surrogate_once(self, train_spy):
        base = config_from({**TINY, "epochs": 1})
        memo = {}
        for tau in ("auto", 0.5):  # 0.5 is the continuous default
            run_trials([(config_from({**base, "tau": tau}), 0)], memo)
        assert len(train_spy) == 1
        variants = [{"trial": 1}, {"method": "grad-naive"},
                    {"ensemble_size": 3}, {"n_raw": 120}]
        for variant in variants:
            trial = variant.pop("trial", 0)
            run_trials([(config_from({**base, **variant}), trial)], memo)
        assert len(train_spy) == 1 + len(variants)
        assert train_spy[1].seed == 1

    def test_memo_returns_the_stored_trial(self):
        cfg = config_from({**TINY, "epochs": 1})
        memo = {}
        first, again = run_trials([(cfg, 0), (cfg, 0)], memo)
        assert again is first
        assert run_trials([(cfg, 0)], memo)[0] is first

    def test_without_memo_every_call_trains(self, train_spy):
        cfg = config_from({**TINY, "epochs": 1})
        run_trials([(cfg, 0)])
        run_trials([(cfg, 0)])
        assert len(train_spy) == 2

    def test_seed_is_base_seed_plus_trial(self, train_spy):
        cfg = config_from({**TINY, "epochs": 1, "base_seed": 5})
        result = run_trials([(cfg, 2)])[0]
        assert train_spy == [trainer_config_from(cfg, 7)]
        expected = run_trials([(config_from({**cfg, "base_seed": 7}), 0)])[0]
        assert np.array_equal(result.dataset.designs, expected.dataset.designs)

    def test_every_setting_of_a_trial_is_in_its_key(self):
        # a setting missing from the key would merge two different trials
        base = config_from({})
        changed = {"task": "bowl", "method": "grad-naive", "base_seed": 1,
                   "n_raw": 3000, "keep_percentile": 40.0, "budget": 8,
                   "epochs": 10, "batch_size": 64, "mining_steps": 10,
                   "ascent_rate": 0.1, "adam_lr": 0.01, "tau": 1.0,
                   "alpha_lr": 0.1, "alpha_init": 1.0, "hidden": "32",
                   "ensemble_size": 3, "stability_steps": 5,
                   "budgets": "1,2"}
        assert set(changed) == set(DEFAULT_CONFIG) - {"trials"}
        key = _trial_key(base, 0)
        for name, value in changed.items():
            assert _trial_key(config_from({**base, name: value}), 0) != key, \
                name
        assert _trial_key(config_from({**base, "trials": 3}), 0) == key
        assert (_trial_key(config_from({**base, "base_seed": 3}), 1)
                == _trial_key(config_from({**base, "base_seed": 4}), 0))


class TestReportAggregation:
    def test_mean_std_recomputable(self, tmp_path, train_spy):
        # the spy keeps both trials in this process
        cfg = config_from({**TINY, "epochs": 1, "trials": 2, "budget": 4})
        report = run_experiment(cfg, tmp_path / "run")
        assert report == json.loads((tmp_path / "run" / "report.json")
                                    .read_text())
        assert report["n_trials"] == len(report["per_trial"]) == 2
        assert list(report["aggregates"]) == [
            "score_p100", "score_p50", "normalized_p100", "normalized_p50"]
        for key, agg in report["aggregates"].items():
            vals = np.array([trial[key] for trial in report["per_trial"]])
            assert agg == {"mean": vals.mean(), "std": vals.std()}

    def test_p100_below_p50_rejected(self):
        with pytest.raises(InvariantViolation):
            TrialEvaluation(0.1, 0.5, 0.0, 0.0).validate()


class TestParseConfig:
    def test_default_config_agrees_with_library_defaults(self):
        # DEFAULT_CONFIG (config files, CLI flags) and the dataclass
        # defaults (library calls) are two sources of defaults
        cfg = parse_config("")
        assert cfg == DEFAULT_CONFIG
        assert trainer_config_from(cfg, cfg["base_seed"]) == TrainerConfig()
        assert curation_config_from(cfg, cfg["base_seed"]) == CurationConfig()

    def test_defaults_fill_missing(self):
        cfg = parse_config("task = bowl\n")
        assert cfg["task"] == "bowl"
        assert cfg["trials"] == 8
        assert cfg["tau"] == "auto"

    def test_unknown_keys_listed(self):
        with pytest.raises(ValueError, match="unknown config keys: bogus, zkey"):
            parse_config("bogus = 1\nzkey = 2\ntask = bowl\n")

    def test_repeated_keys_listed(self):
        # a repeated key used to keep its last value silently
        with pytest.raises(ValueError, match="duplicate config keys: budget, tau$"):
            parse_config("tau = 1\nbudget = 4\ntau = 2\nbudget = 8\n"
                         "tau = 3\ntask = bowl\n")

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# a comment\n\ntask = pwm  # inline\n")
        assert cfg["task"] == "pwm"

    def test_typed_values(self):
        cfg = parse_config("trials = 3\nadam_lr = 0.01\ntau = 1.5\n")
        assert cfg["trials"] == 3 and cfg["adam_lr"] == 0.01 and cfg["tau"] == 1.5

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            parse_config("method = simulated-annealing\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            parse_config("task bowl\n")

    @pytest.mark.parametrize("text, message", [
        ("trials = 0\n", "trials must be >= 1"),
        ("budget = 0\n", "budget must be >= 1"),
        ("stability_steps = -1\n", "stability_steps must be >= 0"),
        ("hidden = 64,x\n", "hidden must be comma-separated integers"),
        ("budgets = 1,x\n", "budgets must be comma-separated integers"),
        ("budget = 4\nbudgets = 1,8\n", r"budgets must lie in \[1, budget\]"),
        ("task = nowhere\n", "unknown task 'nowhere'"),
        ("epochs = 0\n", "epochs must be >= 1"),
        ("keep_percentile = 0\n", "keep_percentile must lie in"),
        ("tau = -1\n", "tau must be positive"),
        ("adam_lr = -1\n", "adam_lr must be positive"),
        ("ensemble_size = 0\n", "ensemble_size must be >= 1"),
        ("method = grad-min\nensemble_size = 0\n",
         "ensemble_size must be >= 1"),
        ("base_seed = -1\n", "base_seed must be >= 0"),
        ("method = grad-naive\nascent_rate = nan\n",
         "ascent_rate must be finite"),
        ("ascent_rate = inf\n", "ascent_rate must be finite"),
        ("tau = nan\n", "tau must be finite"),
        ("tau = -inf\n", "tau must be finite"),
        ("adam_lr = inf\n", "adam_lr must be finite"),
        ("alpha_lr = nan\n", "alpha_lr must be finite"),
        ("alpha_init = inf\n", "alpha_init must be finite"),
        ("alpha_init = -1\n", "alpha_init and alpha_lr must be >= 0"),
        ("alpha_lr = -1\n", "alpha_init and alpha_lr must be >= 0"),
        ("hidden = 0\n", "hidden widths must be >= 1"),
        ("hidden = -3\n", "hidden widths must be >= 1"),
    ], ids=["trials", "budget", "stability_steps", "hidden", "budgets",
            "budgets_range", "task", "epochs", "keep_percentile", "tau",
            "adam_lr", "ensemble_size", "ensemble_size_grad_min",
            "base_seed", "ascent_rate_nan", "ascent_rate_inf", "tau_nan",
            "tau_minus_inf", "adam_lr_inf", "alpha_lr_nan", "alpha_init_inf",
            "alpha_init_negative", "alpha_lr_negative", "hidden_zero",
            "hidden_negative"])
    def test_invalid_values_rejected_at_parse_time(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_config(text)

    def test_dict_config_checked_like_a_file(self):
        assert config_from({"trials": 3}) == parse_config("trials = 3\n")
        with pytest.raises(ValueError, match="unknown config keys: widget"):
            config_from({"widget": 3})

    def test_leak_is_not_a_config_key(self):
        # every model uses net.LEAK; a config cannot set another slope
        with pytest.raises(ValueError, match="^unknown config keys: leak$"):
            config_from({"leak": 0.3})

    @pytest.mark.parametrize("key, value, message", [
        ("budget", "4\nleak = 0.9", "budget must be an integer"),
        ("hidden", "8#x", "hidden must be comma-separated integers")])
    def test_dict_value_cannot_add_a_key_or_cut_itself_short(self, key,
                                                             value, message):
        # as a config file's line, "4\nleak = 0.9" would also add a key and
        # "8#x" would read 8; a dict value is the whole text of its line
        with pytest.raises(ValueError, match=message):
            config_from({key: value})


FAST_RUN = """
task = bowl
method = coms
trials = 2
base_seed = 0
n_raw = 120
keep_percentile = 50
budget = 4
epochs = 2
batch_size = 32
mining_steps = 3
hidden = 8
budgets = 1,2,4
stability_steps = 5
"""


class TestRunExperiment:
    def test_artifacts_written(self, tmp_path):
        out = tmp_path / "run"
        report = run_experiment(FAST_RUN, out)
        assert (out / "report.json").exists()
        assert (out / "config.txt").exists()
        assert (out / "training_log.csv").exists()
        assert (out / "candidates.csv").exists()
        assert (out / "curves" / "stability.csv").exists()
        assert (out / "curves" / "budget.csv").exists()
        assert report["n_trials"] == len(report["per_trial"]) == 2

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_experiment(FAST_RUN, a)
        run_experiment(FAST_RUN, b)
        for name in ("report.json", "training_log.csv", "candidates.csv",
                     "config.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_naive_method_logs_zero_alpha(self, tmp_path):
        cfg = FAST_RUN.replace("method = coms", "method = grad-naive")
        out = tmp_path / "naive"
        run_experiment(cfg, out)
        rows = (out / "training_log.csv").read_text().splitlines()[1:]
        alphas = {row.split(",")[4] for row in rows}
        assert alphas == {"0.0"}

    def test_coms_logs_nonzero_alpha_on_active_constraint(self, tmp_path):
        # strong conservatism pressure: tiny tau forces alpha > 0
        cfg = FAST_RUN.replace("epochs = 2", "epochs = 5") + "tau = 0.001\n"
        out = tmp_path / "coms"
        run_experiment(cfg, out)
        rows = (out / "training_log.csv").read_text().splitlines()[1:]
        alphas = [float(row.split(",")[4]) for row in rows]
        assert any(a > 0 for a in alphas)

    def test_report_json_contents(self, tmp_path):
        out = tmp_path / "r"
        run_experiment(FAST_RUN, out)
        data = json.loads((out / "report.json").read_text())
        assert data["method"] == "coms"
        assert data["task"] == "bowl"
        assert data["budget"] == 4
        assert len(data["per_trial"]) == 2
        agg = data["aggregates"]["normalized_p100"]
        per = [t["normalized_p100"] for t in data["per_trial"]]
        assert agg["mean"] == pytest.approx(np.mean(per), abs=1e-12)
        assert agg["std"] == pytest.approx(np.std(per), abs=1e-12)

    def test_ensemble_method_runs(self, tmp_path):
        cfg = FAST_RUN.replace("method = coms", "method = grad-min") \
                      .replace("trials = 2", "trials = 1") + "ensemble_size = 2\n"
        report = run_experiment(cfg, tmp_path / "ens")
        assert report["n_trials"] == len(report["per_trial"]) == 1

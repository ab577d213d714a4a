import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from comopt import cli
from comopt.fileio import load_surrogate
from comopt.harness import DEFAULT_CONFIG, parse_config
from comopt.optimizer import produce_candidates, read_candidates
from comopt.tasks import read_dataset
from comopt.trainer import TrainerConfig

README = Path(__file__).resolve().parent.parent / "README.md"

TRAIN_FLAGS = ["--epochs", "2", "--batch-size", "64", "--mining-steps", "3",
               "--hidden", "8"]
# the only trainer flag `optimize` reads besides --ascent-rate
OPTIMIZE_FLAGS = ["--mining-steps", "3"]


@pytest.fixture()
def curated(tmp_path):
    data = tmp_path / "data.csv"
    code = cli.main(["curate", "--task", "cliff", "--n-raw", "150",
                     "--keep-percentile", "50", "--seed", "0",
                     "--out", str(data)])
    assert code == 0
    return data


def test_curate_writes_csv_and_sidecar(curated):
    assert curated.exists()
    assert curated.with_name(curated.name + ".meta.json").exists()
    header = curated.read_text().splitlines()[0]
    assert header.startswith("x0,") and header.endswith(",y")


def test_train_optimize_evaluate_pipeline(tmp_path, curated, capsys):
    model = tmp_path / "model.npz"
    log = tmp_path / "log.csv"
    assert cli.main(["train", "--data", str(curated), "--method", "coms",
                     "--out-model", str(model), "--log", str(log),
                     *TRAIN_FLAGS]) == 0
    assert model.exists()
    assert log.read_text().splitlines()[0] == \
        "epoch,mse,gap,alpha,mean_pred_data,mean_pred_mined"

    cands = tmp_path / "cands.csv"
    assert cli.main(["optimize", "--model", str(model), "--data", str(curated),
                     "--budget", "4", "--out", str(cands), *OPTIMIZE_FLAGS]) == 0
    assert len(cands.read_text().splitlines()) == 5

    report = tmp_path / "report.json"
    capsys.readouterr()
    assert cli.main(["evaluate", "--candidates", str(cands), "--task", "cliff",
                     "--budget", "4", "--out", str(report)]) == 0
    assert report.read_text() == capsys.readouterr().out
    data = json.loads(report.read_text())
    assert data["score_p100"] >= data["score_p50"]
    assert data["budget"] == 4


def test_optimize_writes_the_candidates_bitwise(tmp_path, curated):
    # a candidate file holds the designs of `produce_candidates`, in task
    # coordinates, and reads back bit for bit
    model = tmp_path / "model.npz"
    cli.main(["train", "--data", str(curated), "--out-model", str(model),
              *TRAIN_FLAGS])
    cands = tmp_path / "cands.csv"
    assert cli.main(["optimize", "--model", str(model), "--data", str(curated),
                     "--budget", "4", "--out", str(cands), *OPTIMIZE_FLAGS]) == 0
    dataset = read_dataset(curated)
    eta = TrainerConfig().resolved_eta(dataset)
    want = produce_candidates(load_surrogate(model), dataset, 4, eta, 3)
    got = read_candidates(cands)
    assert got.designs.tobytes() == want.designs.tobytes()
    assert got.provenance.tolist() == want.provenance.tolist()
    assert got.surrogate_values.tobytes() == want.surrogate_values.tobytes()


def test_train_log_holds_every_ensemble_member(tmp_path, curated):
    log = tmp_path / "log.csv"
    assert cli.main(["train", "--data", str(curated), "--method", "grad-min",
                     "--ensemble-size", "3", "--out-model",
                     str(tmp_path / "m.npz"), "--log", str(log),
                     *TRAIN_FLAGS]) == 0
    rows = log.read_text().splitlines()
    assert rows[0] == "epoch,mse,gap,alpha,mean_pred_data,mean_pred_mined"
    # epochs restart per member, as in a run directory's training log
    assert [row.split(",")[0] for row in rows[1:]] == ["1", "2"] * 3


@pytest.mark.parametrize("command, flag", [
    ("optimize", "--epochs"), ("optimize", "--hidden"), ("optimize", "--seed"),
    ("stability", "--mining-steps"), ("stability", "--tau"),
    ("sweep-tau", "--tau")])
def test_commands_take_only_the_flags_they_read(command, flag, capsys):
    with pytest.raises(SystemExit):
        cli.main([command, "--help"])
    assert flag not in re.findall(r"--[a-z-]+", capsys.readouterr().out)


@pytest.mark.parametrize("argv", [
    # `--tau` is a prefix of sweep-tau's `--taus`; were it accepted, the
    # run would still stop at once on `--t-max 0`, before writing anything
    ["sweep-tau", "--task", "cliff", "--tau", "5", "--t-max", "0",
     "--out-dir", "unused"],
    # `--ensemble` is a prefix of `--ensemble-size`; the data file is missing
    ["train", "--data", "missing.csv", "--ensemble", "3",
     "--out-model", "unused.npz"]])
def test_abbreviated_flags_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


def test_train_naive_and_ensemble(tmp_path, curated):
    for method in ("grad-naive", "grad-min"):
        model = tmp_path / f"{method}.npz"
        assert cli.main(["train", "--data", str(curated), "--method", method,
                         "--ensemble-size", "2", "--out-model", str(model),
                         *TRAIN_FLAGS]) == 0
        assert model.exists()


def test_ensemble_model_round_trips_through_optimize(tmp_path, curated):
    model = tmp_path / "ens.npz"
    cli.main(["train", "--data", str(curated), "--method", "grad-min",
              "--ensemble-size", "2", "--out-model", str(model), *TRAIN_FLAGS])
    cands = tmp_path / "c.csv"
    assert cli.main(["optimize", "--model", str(model), "--data", str(curated),
                     "--budget", "2", "--out", str(cands), *OPTIMIZE_FLAGS]) == 0


def test_stability_command(tmp_path, curated):
    model = tmp_path / "model.npz"
    cli.main(["train", "--data", str(curated), "--method", "grad-naive",
              "--out-model", str(model), *TRAIN_FLAGS])
    curve = tmp_path / "curve.csv"
    assert cli.main(["stability", "--model", str(model), "--data", str(curated),
                     "--task", "cliff", "--t-max", "6",
                     "--out", str(curve)]) == 0
    assert len(curve.read_text().splitlines()) == 8  # header + 7 steps


def test_sweep_budget_command(tmp_path, curated):
    model = tmp_path / "model.npz"
    cli.main(["train", "--data", str(curated), "--method", "coms",
              "--out-model", str(model), *TRAIN_FLAGS])
    cands = tmp_path / "c.csv"
    cli.main(["optimize", "--model", str(model), "--data", str(curated),
              "--budget", "4", "--out", str(cands), *OPTIMIZE_FLAGS])
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep-budget", "--candidates", str(cands), "--task",
                     "cliff", "--budgets", "1,2,4", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    p100s = [float(r.split(",")[1]) for r in rows]
    assert p100s == sorted(p100s)


def test_sweep_tau_command(tmp_path):
    out_dir = tmp_path / "taus"
    assert cli.main(["sweep-tau", "--task", "cliff", "--taus", "0.5,2.0",
                     "--n-raw", "120", "--t-max", "4",
                     "--out-dir", str(out_dir), *TRAIN_FLAGS]) == 0
    assert (out_dir / "stability_tau_0.5.csv").exists()
    assert (out_dir / "stability_tau_2.0.csv").exists()


def test_sweep_tau_trains_each_distinct_tau_once(tmp_path, monkeypatch,
                                                 capsys):
    from comopt import harness
    taus = []

    def spy(dataset, config):
        taus.append(config.tau)
        return real_train(dataset, config)

    real_train = harness.train
    monkeypatch.setattr(harness, "train", spy)
    out_dir = tmp_path / "taus"
    assert cli.main(["sweep-tau", "--task", "cliff", "--taus", "0.5,0.5,0.50",
                     "--n-raw", "120", "--t-max", "4",
                     "--out-dir", str(out_dir), *TRAIN_FLAGS]) == 0
    assert taus == [0.5]
    assert [p.name for p in out_dir.iterdir()] == ["stability_tau_0.5.csv"]
    assert "wrote 1 tau curves" in capsys.readouterr().out


@pytest.mark.parametrize("taus, message", [
    ("0.5,abc", "taus must be comma-separated numbers, got '0.5,abc'"),
    ("", "taus must list at least one tau")], ids=["malformed", "empty"])
def test_sweep_tau_rejects_malformed_taus(tmp_path, train_spy, taus, message,
                                          capsys):
    out_dir = tmp_path / "taus"
    assert cli.main(["sweep-tau", "--task", "cliff", "--taus", taus,
                     "--out-dir", str(out_dir), *TRAIN_FLAGS]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert train_spy == []
    assert not out_dir.exists()


def test_run_command(tmp_path, capsys, train_spy):
    # the spy keeps both trials in this process
    config = tmp_path / "cfg.txt"
    config.write_text("task = bowl\nmethod = coms\ntrials = 2\nn_raw = 120\n"
                      "budget = 4\nepochs = 2\nbatch_size = 32\n"
                      "mining_steps = 3\nhidden = 8\n")
    out = tmp_path / "run"
    capsys.readouterr()
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 0
    agg = json.loads((out / "report.json").read_text())["aggregates"]
    p100 = agg["normalized_p100"]
    assert p100["std"] > 0.0
    assert capsys.readouterr().out == (
        f"coms on bowl: normalized p100 {p100['mean']:.4f} +/- "
        f"{p100['std']:.4f} over 2 trials -> {out}\n")


def test_unknown_config_key_fails_with_message(tmp_path, capsys):
    config = tmp_path / "bad.txt"
    config.write_text("task = bowl\nwidget = 3\n")
    assert cli.main(["run", "--config", str(config),
                     "--out", str(tmp_path / "o")]) == 1
    assert "unknown config keys: widget" in capsys.readouterr().err


def test_invalid_config_fails_before_run_directory_exists(tmp_path, capsys):
    config = tmp_path / "bad.txt"
    out = tmp_path / "o"
    for line, message in (("trials = 0", "trials must be >= 1"),
                          ("tau = -1", "tau must be positive"),
                          ("base_seed = -1", "base_seed must be >= 0")):
        config.write_text(f"task = bowl\n{line}\n")
        assert cli.main(["run", "--config", str(config),
                         "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_training_divergence_fails_with_message(tmp_path):
    config = tmp_path / "diverge.txt"
    config.write_text("task = bowl\nmethod = grad-naive\ntrials = 1\n"
                      "n_raw = 120\nepochs = 3\nbatch_size = 32\n"
                      "hidden = 8\nbudget = 4\nadam_lr = 1e300\n")
    src = Path(cli.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "comopt", "run", "--config", str(config),
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 1
    assert "error: non-finite loss at epoch 1" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_trainer_flags_checked_like_config_keys(tmp_path, curated, capsys):
    assert cli.main(["train", "--data", str(curated), "--out-model",
                     str(tmp_path / "m.npz"), "--hidden", "8,x"]) == 1
    assert "hidden must be comma-separated integers" in capsys.readouterr().err
    assert cli.main(["curate", "--task", "cliff", "--seed", "-1",
                     "--out", str(tmp_path / "d.csv")]) == 1
    assert "base_seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "d.csv").exists()


def _commands():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _flags(command):
    """(flag, dest, default) of every option of a command but --help."""
    return {(a.option_strings[0], a.dest, a.default)
            for a in _commands()[command]._actions
            if a.option_strings and a.dest != "help"}


CURATION_FLAGS = {("--n-raw", "n_raw", 2000),
                  ("--keep-percentile", "keep_percentile", 50.0)}
# the trainer's flags but --tau, which sweep-tau sets per curve
TRAINER_FLAG_SET = {
    ("--epochs", "epochs", 50), ("--batch-size", "batch_size", 128),
    ("--mining-steps", "mining_steps", 50),
    ("--ascent-rate", "ascent_rate", "auto"), ("--adam-lr", "adam_lr", 1e-3),
    ("--alpha-lr", "alpha_lr", 0.01), ("--alpha-init", "alpha_init", 0.0),
    ("--hidden", "hidden", "64,64"), ("--seed", "base_seed", 0)}
TASK, OUT = ("--task", "task", None), ("--out", "out", None)
COMMAND_FLAGS = {
    "curate": {TASK, OUT, ("--seed", "base_seed", 0), *CURATION_FLAGS},
    "train": {("--data", "data", None), ("--method", "method", "coms"),
              ("--ensemble-size", "ensemble_size", 5),
              ("--out-model", "out_model", None), ("--log", "log", None),
              ("--tau", "tau", "auto"), *TRAINER_FLAG_SET},
    "optimize": {("--model", "model", None), ("--data", "data", None),
                 ("--budget", "budget", 16), OUT,
                 ("--mining-steps", "mining_steps", 50),
                 ("--ascent-rate", "ascent_rate", "auto")},
    "evaluate": {("--candidates", "candidates", None), TASK,
                 ("--budget", "budget", None), OUT},
    "stability": {("--model", "model", None), ("--data", "data", None), TASK,
                  ("--t-max", "t_max", 200), OUT,
                  ("--ascent-rate", "ascent_rate", "auto")},
    "sweep-tau": {TASK, ("--taus", "taus", None), ("--t-max", "t_max", 200),
                  ("--out-dir", "out_dir", None), *CURATION_FLAGS,
                  *TRAINER_FLAG_SET},
    "sweep-budget": {("--candidates", "candidates", None), TASK,
                     ("--budgets", "budgets", "1,2,4,8,16"), OUT},
    "run": {("--config", "config", None), OUT},
    "reproduce": {("--out", "out", "reproduce_out"), ("--fast", "fast", False)},
}


@pytest.mark.parametrize("command", COMMAND_FLAGS)
def test_each_command_keeps_its_flags_dests_and_defaults(command):
    assert _flags(command) == COMMAND_FLAGS[command]


def test_the_flag_table_covers_every_command():
    assert set(_commands()) == set(COMMAND_FLAGS)


@pytest.mark.parametrize("command", COMMAND_FLAGS)
def test_help_exits_0(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: comopt {command}")


@pytest.mark.parametrize("argv, line, message", [
    (["train", "--epochs", "abc"], "epochs = abc",
     "epochs must be an integer, got 'abc'"),
    (["train", "--ascent-rate", "fast"], "ascent_rate = fast",
     "ascent_rate must be a number or 'auto', got 'fast'"),
    (["curate", "--task", "cliff", "--seed", "x"], "base_seed = x",
     "base_seed must be an integer, got 'x'"),
    (["curate", "--task", "cliff", "--n-raw", "1.5"], "n_raw = 1.5",
     "n_raw must be an integer, got '1.5'"),
], ids=["epochs", "ascent_rate", "seed", "n_raw"])
def test_a_mistyped_value_fails_alike_from_a_flag_and_a_config_file(
        tmp_path, curated, capsys, argv, line, message):
    out = tmp_path / "out"
    if argv[0] == "train":
        argv = [*argv, "--data", str(curated), "--out-model", str(out)]
    else:
        argv = [*argv, "--out", str(out)]
    config = tmp_path / "cfg.txt"
    config.write_text(f"task = bowl\n{line}\n")
    capsys.readouterr()
    for args in (argv, ["run", "--config", str(config), "--out", str(out)]):
        assert cli.main(args) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


def test_a_flag_value_cannot_set_another_key(tmp_path, curated, capsys):
    # `train` has no `trials` flag; written into a config line, this value
    # would set it
    out = tmp_path / "m.npz"
    assert cli.main(["train", "--data", str(curated), "--hidden",
                     "8\ntrials = 9", "--out-model", str(out)]) == 1
    assert capsys.readouterr().err == ("error: hidden must be comma-separated "
                                       "integers, got '8\\ntrials = 9'\n")
    assert not out.exists()


def test_an_unknown_method_lists_the_methods(tmp_path, curated, capsys):
    # Design-Bench's Grad Mean is not a method: every ensemble takes the
    # minimum of its members
    out = tmp_path / "m.npz"
    config = tmp_path / "cfg.txt"
    capsys.readouterr()
    for method in ("bogus", "grad-mean"):
        config.write_text(f"task = bowl\nmethod = {method}\n")
        for args in (["train", "--data", str(curated), "--method", method,
                      "--out-model", str(out)],
                     ["run", "--config", str(config), "--out", str(out)]):
            assert cli.main(args) == 1
            assert capsys.readouterr().err == (
                f"error: unknown method {method!r}; choose from "
                "('coms', 'grad-naive', 'grad-min')\n")
            assert not out.exists()


def test_readme_lists_each_commands_config_flags():
    # a flag set from a config key defaults to that key's default
    section = README.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    listed = {command: set(flags.split()) for command, flags
              in re.findall(r"^- `([a-z-]+)`: `([^`]+)`", section, re.M)}
    parsed = {}
    for command in COMMAND_FLAGS:
        flags = {flag for flag, dest, default in _flags(command)
                 if DEFAULT_CONFIG.get(dest, object()) == default}
        if flags:
            parsed[command] = flags
    assert listed == parsed


def test_readme_cli_examples_parse():
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = re.search(r"^```\n(.*?)^```", section, re.M | re.S).group(1)
    lines = [line.split("#", 1)[0].split() for line in block.splitlines()]
    assert len(lines) == 9 and all(line[0] == "comopt" for line in lines)
    parser = cli.build_parser()
    for line in lines:
        assert parser.parse_args(line[1:]).command == line[1]


def readme_config_blocks():
    """Every fenced README block whose lines are all `key = value`."""
    blocks = re.findall(r"^```\n(.*?)^```", README.read_text(), re.M | re.S)
    return [b for b in blocks
            if all(re.fullmatch(r"[a-z_]+ = \S.*", line)
                   for line in b.splitlines())]


def test_readme_configs_parse():
    blocks = readme_config_blocks()
    assert len(blocks) >= 4  # the example, two stability configs, one budget
    for block in blocks:
        parse_config(block)


@pytest.mark.parametrize("argv, message", [
    (["evaluate", "--candidates", "missing.csv", "--task", "cliff",
      "--budget", "x", "--out"], "budget must be an integer, got 'x'"),
    (["stability", "--model", "missing.npz", "--data", "missing.csv",
      "--task", "cliff", "--t-max", "abc", "--out"],
     "t_max must be an integer, got 'abc'"),
    (["sweep-tau", "--task", "cliff", "--taus", "0.5", "--t-max", "abc",
      "--out-dir"], "t_max must be an integer, got 'abc'"),
], ids=["evaluate_budget", "stability_t_max", "sweep_tau_t_max"])
def test_a_mistyped_integer_flag_fails_naming_its_key(tmp_path, capsys, argv,
                                                      message):
    # checked before any input is read, as a config key would be
    out = tmp_path / "out"
    assert cli.main([*argv, str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_evaluate_budget_too_large_fails(tmp_path, curated):
    model = tmp_path / "m.npz"
    cli.main(["train", "--data", str(curated), "--method", "grad-naive",
              "--out-model", str(model), *TRAIN_FLAGS])
    cands = tmp_path / "c.csv"
    cli.main(["optimize", "--model", str(model), "--data", str(curated),
              "--budget", "2", "--out", str(cands), *OPTIMIZE_FLAGS])
    assert cli.main(["evaluate", "--candidates", str(cands), "--task", "cliff",
                     "--budget", "99"]) == 1


def test_evaluate_budget_zero_fails(tmp_path, curated, capsys):
    # only a missing --budget means "all candidates"
    model = tmp_path / "m.npz"
    cli.main(["train", "--data", str(curated), "--method", "grad-naive",
              "--out-model", str(model), *TRAIN_FLAGS])
    cands = tmp_path / "c.csv"
    cli.main(["optimize", "--model", str(model), "--data", str(curated),
              "--budget", "2", "--out", str(cands), *OPTIMIZE_FLAGS])
    capsys.readouterr()
    assert cli.main(["evaluate", "--candidates", str(cands), "--task", "cliff",
                     "--budget", "0"]) == 1
    assert "budget must be >= 1" in capsys.readouterr().err


def test_reproduce_fast_smoke(tmp_path, monkeypatch, train_spy):
    # fast mode shrinks every criterion; exit code may be nonzero because
    # its 2-trial counts cannot meet the 7/8 and 6/8 thresholds of criteria
    # 4 and 5, so only check that the suite runs end to end and writes its
    # summary
    from comopt import acceptance
    rerun_trainings = []
    real_run_experiment = acceptance.run_experiment

    def run_experiment(config, out_dir):
        before = len(train_spy)
        report = real_run_experiment(config, out_dir)
        rerun_trainings.append(len(train_spy) - before)
        return report

    monkeypatch.setattr(acceptance, "run_experiment", run_experiment)
    out = tmp_path / "rep"
    code = cli.main(["reproduce", "--out", str(out), "--fast"])
    data = json.loads((out / "acceptance.json").read_text())
    assert data["fast"] is True
    assert len(data["criteria"]) == 8
    assert code in (0, 1)
    # each distinct trial runs once: criterion 7's tau = 0.5 trial is
    # criterion 2's dual trial; criterion 3's naive model and criterion 8's
    # same-seed reruns are the checks, so they train for themselves
    assert len(train_spy) == 12
    assert rerun_trainings == [1, 1]
    # criteria hand their curve rows to run_all, which writes them and
    # keeps them out of acceptance.json
    for name in ("edge_stability.csv", "pwm_budget.csv",
                 "cliff_tau_finals.csv"):
        assert (out / "curves" / name).exists()
    assert not any("curves" in record for record in data["criteria"])


def _train(tmp_path, curated, method="grad-naive"):
    model = tmp_path / f"{method}.npz"
    assert cli.main(["train", "--data", str(curated), "--method", method,
                     "--out-model", str(model), *TRAIN_FLAGS]) == 0
    return model


def _edit_sidecar(curated, edit):
    sidecar = curated.with_name(curated.name + ".meta.json")
    meta = json.loads(sidecar.read_text())
    edit(meta)
    sidecar.write_text(json.dumps(meta))


def test_sidecar_without_a_key_fails_with_message(tmp_path, curated, capsys):
    _edit_sidecar(curated, lambda meta: meta.pop("y_mean"))
    assert cli.main(["train", "--data", str(curated), "--out-model",
                     str(tmp_path / "m.npz"), *TRAIN_FLAGS]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing key(s) y_mean" in err


def test_zero_x_std_fails_with_message(tmp_path, curated, capsys):
    _edit_sidecar(curated, lambda meta: meta.update(x_std=[0.0] * 8))
    assert cli.main(["train", "--data", str(curated), "--out-model",
                     str(tmp_path / "m.npz"), *TRAIN_FLAGS]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "x_std and y_std" in err


@pytest.mark.parametrize("key, value", [("x_mean", float("nan")),
                                        ("y_mean", float("inf"))])
def test_non_finite_sidecar_mean_fails_with_message(tmp_path, curated, capsys,
                                                    key, value):
    # used to train and fail later with a misleading loss or score error
    def edit(meta):
        meta[key] = [value] * 8 if key == "x_mean" else value

    _edit_sidecar(curated, edit)
    assert cli.main(["train", "--data", str(curated), "--out-model",
                     str(tmp_path / "m.npz"), *TRAIN_FLAGS]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {curated}.meta.json: x_mean and y_mean")


@pytest.mark.parametrize("key, value, message", [
    ("x_mean", ["a"] * 8, "x_mean must be a list of numbers, got ['a'"),
    ("y_std", "2", "y_std must be a number, got '2'"),
    ("y_mean", None, "y_mean must be a number, got None"),
    ("y_std", True, "y_std must be a number, got True"),  # was read as 1.0
], ids=["strings", "string", "null", "boolean"])
def test_non_number_sidecar_stat_fails_with_message(tmp_path, curated, capsys,
                                                    key, value, message):
    _edit_sidecar(curated, lambda meta: meta.update({key: value}))
    assert cli.main(["train", "--data", str(curated), "--out-model",
                     str(tmp_path / "m.npz"), *TRAIN_FLAGS]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {curated}.meta.json: {message}")
    assert "Traceback" not in err


def test_non_boolean_is_discrete_fails_with_message(tmp_path, curated, capsys):
    # "no" is truthy: it used to train a cliff dataset with the discrete step
    _edit_sidecar(curated, lambda meta: meta.update(is_discrete="no"))
    assert cli.main(["train", "--data", str(curated), "--out-model",
                     str(tmp_path / "m.npz"), *TRAIN_FLAGS]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {curated}.meta.json: is_discrete must be "
                          f"true or false, got 'no'")


def test_non_finite_weight_fails_with_message(tmp_path, curated, capsys):
    model = _train(tmp_path, curated)
    with np.load(model) as data:
        arrays = {k: data[k] for k in data.files}
    arrays["w1"][0, 0] = np.nan
    np.savez(model, **arrays)
    assert cli.main(["optimize", "--model", str(model), "--data", str(curated),
                     "--budget", "2", "--out", str(tmp_path / "c.csv"),
                     *OPTIMIZE_FLAGS]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {model}: non-finite weight")


def test_archive_missing_a_layer_fails_with_message(tmp_path, curated, capsys):
    model = _train(tmp_path, curated)
    with np.load(model) as data:
        arrays = {k: data[k] for k in data.files if k != "w1"}
    np.savez(model, **arrays)
    assert cli.main(["optimize", "--model", str(model), "--data", str(curated),
                     "--budget", "2", "--out", str(tmp_path / "c.csv"),
                     *OPTIMIZE_FLAGS]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "w1" in err


def test_evaluate_rejects_a_dataset_csv(curated, capsys):
    assert cli.main(["evaluate", "--candidates", str(curated),
                     "--task", "cliff"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not a candidate file" in err


def test_evaluate_rejects_candidates_of_another_width(tmp_path, curated,
                                                      capsys):
    model = _train(tmp_path, curated)
    cands = tmp_path / "c.csv"
    assert cli.main(["optimize", "--model", str(model), "--data", str(curated),
                     "--budget", "2", "--out", str(cands), *OPTIMIZE_FLAGS]) == 0
    assert cli.main(["evaluate", "--candidates", str(cands),
                     "--task", "pwm"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "pwm designs have 24 coordinates" in err


def test_sweep_budget_in_descending_order(tmp_path, curated):
    model = _train(tmp_path, curated, "coms")
    cands = tmp_path / "c.csv"
    cli.main(["optimize", "--model", str(model), "--data", str(curated),
              "--budget", "8", "--out", str(cands), *OPTIMIZE_FLAGS])
    ascending, descending = tmp_path / "up.csv", tmp_path / "down.csv"
    assert cli.main(["sweep-budget", "--candidates", str(cands), "--task",
                     "cliff", "--budgets", "1,4,8", "--out",
                     str(ascending)]) == 0
    assert cli.main(["sweep-budget", "--candidates", str(cands), "--task",
                     "cliff", "--budgets", "8,4,1", "--out",
                     str(descending)]) == 0
    up = ascending.read_text().splitlines()
    down = descending.read_text().splitlines()
    assert down[0] == up[0]
    assert down[1:] == up[:0:-1]


@pytest.mark.parametrize("budgets, message", [
    ("1.5", "budgets must be comma-separated integers, got '1.5'"),
    (",", "budgets must list at least one budget")])
def test_sweep_budget_rejects_malformed_budgets(tmp_path, budgets, message,
                                                capsys):
    cands = tmp_path / "c.csv"
    cands.write_text("x0,provenance,surrogate_value\n0.5,0,1.0\n")
    assert cli.main(["sweep-budget", "--candidates", str(cands), "--task",
                     "bowl", "--budgets", budgets, "--out",
                     str(tmp_path / "sweep.csv")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "sweep.csv").exists()


def test_stability_rejects_a_non_positive_t_max(tmp_path, curated, capsys):
    model = _train(tmp_path, curated)
    curve = tmp_path / "curve.csv"
    assert cli.main(["stability", "--model", str(model), "--data", str(curated),
                     "--task", "cliff", "--t-max", "-3",
                     "--out", str(curve)]) == 1
    assert capsys.readouterr().err == "error: t_max must be >= 1\n"
    assert not curve.exists()

import re

import numpy as np
import pytest

from comopt.fileio import load_surrogate, read_rows, save_surrogate, write_rows
from comopt.net import LEAK, Ensemble, build_model
from comopt.optimizer import CandidateSet, read_candidates, write_candidates
from comopt.tasks import CurationConfig, curate_dataset, get_task, write_dataset


def assert_same_net(a, b):
    assert len(a.layers) == len(b.layers)
    for la, lb in zip(a.layers, b.layers):
        assert la.weights.dtype == lb.weights.dtype == np.float64
        assert la.weights.tobytes() == lb.weights.tobytes()
        assert la.bias.tobytes() == lb.bias.tobytes()


class TestSurrogateIO:
    @pytest.mark.parametrize("aggregate", ["min", "mean"])
    def test_ensemble_round_trip_is_bitwise(self, tmp_path, aggregate):
        rng = np.random.default_rng(3)
        members = [build_model(4, (6, 3), rng=rng) for _ in range(3)]
        path = tmp_path / "ens.npz"
        save_surrogate(Ensemble(members, aggregate), path)
        loaded = load_surrogate(path)
        assert isinstance(loaded, Ensemble)
        assert loaded.aggregate == aggregate
        assert len(loaded.members) == 3
        for got, want in zip(loaded.members, members):
            assert_same_net(got, want)

    def test_single_model_archive_layout_loads(self, tmp_path):
        model = build_model(3, (5,), rng=np.random.default_rng(4))
        path = tmp_path / "single.npz"
        np.savez(path, n_layers=np.array(2),
                 w0=model.layers[0].weights, b0=model.layers[0].bias,
                 w1=model.layers[1].weights, b1=model.layers[1].bias)
        assert_same_net(load_surrogate(path), model)

    def test_ensemble_archive_layout_loads(self, tmp_path):
        rng = np.random.default_rng(5)
        members = [build_model(2, (), rng=rng) for _ in range(2)]
        arrays = {"n_members": np.array(2), "aggregate": np.array("min"),
                  "leak": np.array(LEAK)}
        for m, member in enumerate(members):
            arrays[f"m{m}_n_layers"] = np.array(1)
            arrays[f"m{m}_w0"] = member.layers[0].weights
            arrays[f"m{m}_b0"] = member.layers[0].bias
        path = tmp_path / "ens.npz"
        np.savez(path, **arrays)
        loaded = load_surrogate(path)
        assert loaded.aggregate == "min"
        for got, want in zip(loaded.members, members):
            assert_same_net(got, want)

    @staticmethod
    def archive_with(tmp_path, key, value):
        """A saved surrogate archive of 2 -> 3 -> 1 nets, an ensemble when
        `key` is n_members or aggregate, with the array `key` rewritten to
        `value`."""
        rng = np.random.default_rng(7)
        members = [build_model(2, (3,), rng=rng) for _ in range(2)]
        model = (Ensemble(members, "min") if key in ("n_members", "aggregate")
                 else members[0])
        path = tmp_path / "bad.npz"
        save_surrogate(model, path)
        with np.load(path) as data:
            arrays = dict(data)
        np.savez(path, **{**arrays, key: np.array(value)})
        return path

    @pytest.mark.parametrize("key, value", [
        ("n_layers", [1, 2]), ("leak", ["x"]), ("leak", "x"),
        ("n_members", [2, 2])])
    def test_malformed_scalar_is_an_error_naming_the_file(self, tmp_path,
                                                          key, value):
        path = self.archive_with(tmp_path, key, value)
        with pytest.raises(ValueError, match=rf"bad\.npz: {key} is not a number$"):
            load_surrogate(path)

    @pytest.mark.parametrize("key, value", [
        ("n_members", 2.5), ("n_members", True), ("n_layers", 2.5),
        ("n_layers", True), ("n_layers", "2")])
    def test_a_count_that_is_not_an_integer_is_an_error_naming_the_file(
            self, tmp_path, key, value):
        # at 2.5 or True the count would truncate to 2 or 1 and load
        path = self.archive_with(tmp_path, key, value)
        with pytest.raises(ValueError,
                           match=rf"bad\.npz: {key} is not an integer$"):
            load_surrogate(path)

    @pytest.mark.parametrize("key, value, message", [
        ("n_layers", 1, "final layer must produce a single scalar"),
        ("n_layers", 0, "model needs at least one layer"),
        ("aggregate", "max", "aggregate must be 'min' or 'mean'"),
        ("n_members", 0, "ensemble needs at least one member")])
    def test_a_model_the_arrays_cannot_build_is_an_error_naming_the_file(
            self, tmp_path, key, value, message):
        path = self.archive_with(tmp_path, key, value)
        with pytest.raises(ValueError,
                           match=re.escape(f"{path}: {message}") + "$"):
            load_surrogate(path)

    @staticmethod
    def archive_storing(tmp_path, leak, ensemble):
        """A saved archive of one 2 -> 3 -> 1 net, or of a min ensemble of
        two, with the slope `leak` added as archives written before the
        slope became `net.LEAK` store it; and the saved nets."""
        rng = np.random.default_rng(8)
        members = [build_model(2, (3,), rng=rng) for _ in range(2)]
        path = tmp_path / "old.npz"
        save_surrogate(Ensemble(members, "min") if ensemble else members[0],
                       path)
        with np.load(path) as data:
            arrays = dict(data)
        assert "leak" not in arrays
        np.savez(path, **arrays, leak=np.array(leak))
        return path, members if ensemble else members[:1]

    @pytest.mark.parametrize("ensemble", [False, True],
                             ids=["single", "ensemble"])
    def test_an_archive_storing_the_slope_loads_bitwise(self, tmp_path,
                                                        ensemble):
        path, saved = self.archive_storing(tmp_path, 0.3, ensemble)
        loaded = load_surrogate(path)
        for got, want in zip(loaded.members if ensemble else [loaded], saved,
                             strict=True):
            assert_same_net(got, want)

    @pytest.mark.parametrize("ensemble", [False, True],
                             ids=["single", "ensemble"])
    def test_another_stored_slope_is_an_error_naming_the_file(self, tmp_path,
                                                              ensemble):
        # loaded, the nets would compute another function than they stored
        path, _ = self.archive_storing(tmp_path, 0.2, ensemble)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: leak 0.2 is not the slope every model uses (0.3)")
                + "$"):
            load_surrogate(path)

class TestWriteRows:
    def test_floats_use_repr_and_crlf(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_rows(path, ["a", "b", "c"],
                   [[1, 0.1, np.float64(1.0) / 3.0], ["x", float("nan"), 2]])
        assert path.read_bytes() == (b"a,b,c\r\n1,0.1,0.3333333333333333\r\n"
                                     b"x,nan,2\r\n")

    def test_candidates_read_back_exactly(self, tmp_path):
        rng = np.random.default_rng(6)
        cands = CandidateSet(rng.normal(size=(6, 3)), np.arange(6),
                             rng.normal(size=6))
        path = tmp_path / "c.csv"
        write_candidates(cands, path)
        loaded = read_candidates(path)
        assert loaded.designs.tobytes() == cands.designs.tobytes()
        assert loaded.provenance.tolist() == list(range(6))
        assert loaded.surrogate_values.tobytes() == cands.surrogate_values.tobytes()

    def test_non_numeric_cell_names_file_line_and_value(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x0,y\n1.0,2.0\n3.0,abc\n")
        with pytest.raises(ValueError, match=r"d\.csv: line 3 has a "
                                             r"non-numeric value 'abc'$"):
            read_rows(path)

    def test_dataset_read_back_exactly(self, tmp_path):
        ds = curate_dataset(get_task("pwm"), CurationConfig(seed=1))
        path = tmp_path / "d.csv"
        write_dataset(ds, path)
        header, values = read_rows(path)
        assert header[-1] == "y" and len(header) == ds.input_dim + 1
        assert values[:, :-1].tobytes() == ds.raw_designs().tobytes()
        assert values[:, -1].tobytes() == ds.raw_scores().tobytes()

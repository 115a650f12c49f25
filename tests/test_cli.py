import filecmp
import json
import os

import numpy as np
import pytest

from lorenzlab import cli
from lorenzlab.config import ExperimentConfig, config_hash, load_config
from lorenzlab.errors import ConfigInvalid


def _small_config(tmp_path=None):
    cfg = ExperimentConfig()
    cfg.ensemble.n_orbits = 3
    cfg.ensemble.returns_samples = 10
    cfg.ensemble.depth_traces = 2
    cfg.ensemble.birkhoff_steps = 100_000
    cfg.ensemble.burn_in = 1_000
    cfg.partition.n_bins = 64
    cfg.horizons.orbit_steps = 50
    cfg.horizons.return_horizon = 300
    cfg.horizons.depth_steps = 100
    cfg.ensemble.expansion_starts = 10
    cfg.ensemble.koebe_branches = 5
    cfg.horizons.envelope_horizon = 200
    cfg.horizons.mane_horizon = 50
    return cfg


class TestConfig:
    def test_default_validates(self):
        ExperimentConfig().validate()

    def test_bad_map_collected(self):
        cfg = ExperimentConfig()
        cfg.map.u = 0.3  # trivial
        cfg.scales.theta = 99.0
        with pytest.raises(ConfigInvalid) as err:
            cfg.validate()
        text = str(err.value)
        assert "map:" in text and "theta" in text

    def test_eps_above_eps_max_rejected(self):
        cfg = ExperimentConfig()
        cfg.noise.eps = 0.5
        with pytest.raises(ConfigInvalid):
            cfg.validate()

    def test_unsorted_ladder_rejected(self):
        cfg = ExperimentConfig()
        cfg.noise.eps_ladder = (0.005, 0.01)
        with pytest.raises(ConfigInvalid):
            cfg.validate()

    def test_json_roundtrip(self, tmp_path):
        cfg = _small_config()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        loaded = load_config(str(path))
        assert loaded.to_dict() == cfg.to_dict()
        assert config_hash(loaded) == config_hash(cfg)

    def test_dotted_overrides(self):
        cfg = load_config(None, {"noise.eps": "0.002", "partition.n_bins": 128})
        assert cfg.noise.eps == 0.002
        assert cfg.partition.n_bins == 128

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigInvalid):
            load_config(None, {"noise.bogus": 1})

    def test_hash_changes_with_config(self):
        a, b = ExperimentConfig(), ExperimentConfig()
        b.noise.seed = 999
        assert config_hash(a) != config_hash(b)


class TestSubcommands:
    def test_simulate_artifact_columns(self, tmp_path):
        cfg = _small_config()
        outputs, results = cli.run_simulate(cfg, str(tmp_path))
        header = open(outputs[0]).readline().strip().split(",")
        assert header == ["orbit", "step", "x", "noise", "d1", "d2", "asum"]
        assert results["n_orbits"] == 3

    def test_density_zero_noise_is_deterministic_mode(self, tmp_path):
        cfg = _small_config()
        cfg.noise.eps = 0.0
        outputs, results = cli.run_density(cfg, str(tmp_path))
        assert results["mode"] == "deterministic"
        header = open(outputs[0]).readline().strip().split(",")
        assert header == ["bin_left", "bin_right", "weight"]
        # density csv integrates to one
        rows = np.loadtxt(outputs[0], delimiter=",", skiprows=1)
        assert np.sum((rows[:, 1] - rows[:, 0]) * rows[:, 2]) == pytest.approx(1.0, abs=1e-9)

    def test_returns_and_depth_and_binding(self, tmp_path):
        cfg = _small_config()
        for runner in (cli.run_returns, cli.run_depth, cli.run_binding):
            outputs, _ = runner(cfg, str(tmp_path))
            assert all(os.path.exists(p) for p in outputs)

    def test_replay_byte_identical(self, tmp_path):
        cfg = _small_config()
        d1, d2 = tmp_path / "a", tmp_path / "b"
        d1.mkdir(), d2.mkdir()
        for runner in (cli.run_returns, cli.run_expansion):
            out1, _ = runner(cfg, str(d1))
            out2, _ = runner(cfg, str(d2))
            assert out1 and len(out1) == len(out2)
            for p1, p2 in zip(out1, out2):
                assert filecmp.cmp(p1, p2, shallow=False)

    def test_main_entry_and_summary(self, tmp_path):
        out = tmp_path / "run"
        code = cli.main([
            "simulate", "--out", str(out), "--seed", "7",
            "--set", "ensemble.n_orbits=2", "--set", "horizons.orbit_steps=10",
        ])
        assert code == 0
        summary = json.load(open(out / "simulate_summary.json"))
        assert summary["seed"] == 7
        assert summary["config"]["ensemble"]["n_orbits"] == 2
        assert "config_hash" in summary and "git_describe" in summary
        assert "wall_clock_s" in summary["timing"]

    def test_main_rejects_bad_config(self, capsys):
        code = cli.main(["simulate", "--set", "noise.eps=5.0", "--out", "/tmp/x_unused"])
        assert code == 2

    @pytest.mark.parametrize("item", ["noise=3", "ensemble.n_orbits=abc"])
    def test_main_rejects_malformed_set(self, item, tmp_path, capsys):
        key, value = item.split("=")
        with pytest.raises(ConfigInvalid):
            load_config(None, {key: value})
        assert cli.main(["simulate", "--set", item, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_nice_set_requires_small_eps(self, tmp_path):
        cfg = _small_config()
        cfg.noise.eps = 0.01  # above delta0
        with pytest.raises(ConfigInvalid):
            cli.run_nice_set(cfg, str(tmp_path))

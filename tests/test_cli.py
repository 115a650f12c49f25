import csv
import filecmp
import json
import os

import numpy as np
import pytest

from lorenzlab import cli, transfer
from lorenzlab.config import ExperimentConfig, config_hash, load_config
from lorenzlab.errors import ConfigInvalid
from lorenzlab.maps import CANON, MapParams, PerturbedFamily
from lorenzlab.noise import NoiseModel
from lorenzlab.recurrence import good_return_or_expansion_time, good_return_time, landing_time


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


def _capped_outcome(cap, delta):
    if cap is None:
        return "none"
    if cap.kind == "tau_scale":
        return "tau_scale"
    return "theta_good_at_delta" if cap.delta == delta else "theta_good_coarser"


class TestReturnsFromOneWalk:
    def test_good_return_equals_its_own_scan(self):
        """The theta-good return read off the capped scan equals good_return_time's event."""
        rng = np.random.default_rng(15)
        families = [PerturbedFamily(p) for p in (CANON, MapParams(c=0.4, ell=3.0, u=0.85, v=0.8))]
        model = NoiseModel(eps=0.005, seed=3)
        outcomes = {}
        for k in range(600):
            family = families[k % 2]
            x = float(rng.uniform(0.05, 0.95))
            stream = model.stream(k)
            theta = float(rng.choice([0.5, 2.0, 1e3, 1e6]))
            tau = float(rng.choice([0.05, 1.0, 20.0, 1e3]))
            theta0 = float(rng.choice([0.01, 0.1, 0.5]))
            delta = float(rng.choice([0.001, 0.004, 0.009, 0.02]))
            horizon = int(rng.choice([20, 200, 1000]))
            got = cli._good_and_capped_returns(family, x, stream, delta, theta, tau, theta0, horizon)
            ev = good_return_time(family, x, stream, delta, theta, horizon=horizon)
            cap = good_return_or_expansion_time(
                family, x, stream, delta, theta, tau, horizon=horizon, theta0=theta0,
            )
            assert got == (ev, cap)
            outcome = _capped_outcome(got[1], delta)
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
        assert set(outcomes) == {"none", "theta_good_at_delta", "theta_good_coarser", "tau_scale"}, outcomes

    @pytest.mark.parametrize("scales", [{}, {"tau": 0.05, "theta0": 0.5, "theta": 2.0}])
    def test_returns_csv_matches_three_scans(self, tmp_path, scales):
        """run_returns writes the bytes of one landing, one theta-good and one capped scan per sample."""
        cfg = _small_config()
        cfg.ensemble.returns_samples = 30
        for name, value in scales.items():
            setattr(cfg.scales, name, value)
        (path,), _ = cli.run_returns(cfg, str(tmp_path))
        family = cfg.perturbed_family()
        model = cfg.noise_model(cfg.noise.eps)
        s, horizon = cfg.scales, cfg.horizons.return_horizon
        rng = np.random.default_rng(cfg.noise.seed)
        rows = []
        for k in range(cfg.ensemble.returns_samples):
            x0 = float(rng.uniform(0.05, 0.95))
            stream = model.stream(cli.STREAM_RETURNS + k)
            land = landing_time(family, x0, stream, s.delta, horizon=horizon)
            ev = good_return_time(family, x0, stream, s.delta, s.theta, horizon=horizon)
            cap = good_return_or_expansion_time(
                family, x0, stream, s.delta, s.theta, s.tau, horizon=horizon, theta0=s.theta0,
            )
            rows.append((
                k, x0, -1 if land is None else land,
                -1 if ev is None else ev.time, "" if ev is None else ev.kind,
                -1 if cap is None else cap.time, "" if cap is None else cap.kind,
                float("nan") if cap is None else cap.log_df, float("nan") if cap is None else cap.log_asum,
            ))
        ref = cli._write_csv(
            str(tmp_path / "reference.csv"),
            ["sample", "x0", "landing", "good_time", "good_kind", "capped_time", "capped_kind", "log_df", "log_asum"],
            rows,
        )
        assert open(path, "rb").read() == open(ref, "rb").read()


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
        loaded = load_config(str(path), {})
        assert loaded.to_dict() == cfg.to_dict()
        assert config_hash(loaded) == config_hash(cfg)

    def test_dotted_overrides(self):
        cfg = load_config(None, {"noise.eps": "0.002", "partition.n_bins": 128})
        assert cfg.noise.eps == 0.002
        assert cfg.partition.n_bins == 128

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigInvalid):
            load_config(None, {"noise.bogus": 1})

    @pytest.mark.parametrize("fields", [
        {"c": 0.45}, {"u": 0.88}, {"u": 0.92, "v": 0.86}, {"ell": 1.5},
    ])
    def test_summable_families_accepted(self, fields):
        load_config(None, {f"map.{k}": v for k, v in fields.items()}).validate()

    @pytest.mark.parametrize("fields", [
        {"ell": 2.2}, {"c": 0.4, "ell": 2.5}, {"ell": 3.0}, {"u": 0.6, "v": 0.52},
    ])
    def test_non_summable_families_rejected(self, fields):
        with pytest.raises(ConfigInvalid) as err:
            load_config(None, {f"map.{k}": v for k, v in fields.items()}).validate()
        assert "fails the summability check" in str(err.value)

    @pytest.mark.parametrize("field", [
        "scales.theta1", "scales.L_binding", "scales.zeta",
        "scales.binding_theta", "scales.delta_star", "noise.L",
    ])
    def test_removed_fields_rejected(self, field):
        with pytest.raises(ConfigInvalid, match="unknown config field"):
            load_config(None, {field: "1.0"})

    def test_zero_burn_in_and_verify_horizon_accepted(self):
        load_config(None, {"ensemble.burn_in": "0", "horizons.verify_horizon": "0"}).validate()

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

    def test_density_is_randomized_mode(self, tmp_path):
        cfg = _small_config()
        outputs, results = cli.run_density(cfg, str(tmp_path))
        assert results["mode"] == "randomized"
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

    def test_density_summary_splits_its_time(self, tmp_path):
        out = tmp_path / "run"
        sizes = ["--set", "partition.n_bins=64", "--set", "ensemble.birkhoff_steps=100000"]
        assert cli.main(["density", "--out", str(out), *sizes]) == 0
        summary = json.load(open(out / "density_summary.json"))
        stages = summary["timing"]["stages"]
        assert set(stages) == {"assembly_s", "solve_s", "birkhoff_s"}
        assert all(s >= 0.0 for s in stages.values())
        assert sum(stages.values()) <= summary["timing"]["wall_clock_s"] + 0.01
        assert set(summary["results"]) == {
            "mode", "residual", "iterations", "l1_birkhoff_vs_ulam", "birkhoff_restarts",
        }
        # the next subcommand in the same process starts with no stages
        assert cli.main(["simulate", "--out", str(out), "--set", "horizons.orbit_steps=10"]) == 0
        assert json.load(open(out / "simulate_summary.json"))["timing"]["stages"] == {}

    def test_main_reports_no_convergence(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(transfer, "_MAX_ITERS", 8)
        out = tmp_path / "run"
        assert cli.main(["density", "--out", str(out), "--set", "partition.n_bins=64"]) == 1
        assert capsys.readouterr().err.startswith("error: no convergence")
        assert not (out / "density_summary.json").exists()

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

    @pytest.mark.parametrize("data", [
        {"noise": 3},
        {"noise": {"eps": "abc"}},
        {"ensemble": {"n_orbits": "x"}},
        {"partition": {"n_bins": 64.5}},
        {"noise": {"eps_ladder": ["a"]}},
        {"output": {"out_dir": 5}},
        [1, 2],
        {"scales": {"tau": True}},
        {"noise": {"eps_ladder": [0.02, True]}},
    ])
    def test_main_rejects_malformed_config_file(self, data, tmp_path, monkeypatch, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigInvalid):
            load_config(str(path), {})
        monkeypatch.chdir(tmp_path)
        assert cli.main(["simulate", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("sub, sets, field", [
        ("inducing-tail", ["ensemble.tail_members=0", "horizons.tail_horizon=10"], "ensemble.tail_members"),
        ("depth", ["horizons.depth_steps=0"], "horizons.depth_steps"),
        ("simulate", ["horizons.orbit_steps=-1"], "horizons.orbit_steps"),
        ("returns", ["horizons.return_horizon=-5"], "horizons.return_horizon"),
        ("expansion", ["ensemble.expansion_starts=0"], "ensemble.expansion_starts"),
    ])
    def test_main_rejects_sizes_below_one(self, sub, sets, field, tmp_path, capsys):
        argv = [sub, "--out", str(tmp_path)]
        for item in sets:
            argv += ["--set", item]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{field}: must be at least 1" in err

    def test_main_rejects_unreadable_config_file(self, tmp_path, monkeypatch, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{noise: 3")
        monkeypatch.chdir(tmp_path)
        for path in (bad, tmp_path / "missing.json"):
            assert cli.main(["simulate", "--config", str(path)]) == 2
            assert capsys.readouterr().err.startswith("error:")

    def test_csv_quotes_fields_with_commas(self, tmp_path):
        rows = [(1, "name", 1, "a, b; c=0.5", 0.25), (2, 'say "x"', 0, "plain", 1.5)]
        path = cli._write_csv(str(tmp_path / "t.csv"), ["id", "name", "passed", "details", "elapsed_s"], rows)
        with open(path, newline="") as fh:
            read = list(csv.DictReader(fh))
        assert [r["details"] for r in read] == ["a, b; c=0.5", "plain"]
        assert [r["name"] for r in read] == ["name", 'say "x"']
        assert [r["elapsed_s"] for r in read] == ["0.25", "1.5"]

    def test_nice_set_requires_small_eps(self, tmp_path):
        cfg = _small_config()
        cfg.noise.eps = 0.01  # above delta0
        with pytest.raises(ConfigInvalid):
            cli.run_nice_set(cfg, str(tmp_path))

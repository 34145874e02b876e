import json
import os

import numpy as np
import pytest
import yaml

from socnavsim.cli import main
from socnavsim.crowd import CrowdConfig
from socnavsim.world import EnvConfig, save_config


@pytest.fixture
def env_yaml(tmp_path):
    cfg = EnvConfig(beam_count=64, max_steps=30, crowd=CrowdConfig(count=0))
    path = tmp_path / "env.yaml"
    save_config(cfg, path)
    return str(path)


def read_tree(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for f in sorted(files):
            p = os.path.join(dirpath, f)
            out[os.path.relpath(p, root)] = open(p, "rb").read()
    return out


class TestEval:
    def test_greedy_mapless_writes_outputs(self, tmp_path, env_yaml):
        out = tmp_path / "out"
        rc = main([
            "--single-thread", "eval", "--policy", "greedy", "--suite", "mapless",
            "--runs", "2", "--seed", "3", "--config", env_yaml, "--out", str(out),
        ])
        assert rc == 0
        names = sorted(os.listdir(out))
        assert any(n.startswith("metrics__") for n in names)
        assert sum(n.startswith("traj__") for n in names) == 2
        assert sum(n.startswith("log__") for n in names) == 2
        metrics_file = next(n for n in names if n.startswith("metrics__"))
        doc = json.loads((out / metrics_file).read_text())
        assert doc["runs"] == 2

    def test_determinism_byte_identical(self, tmp_path, env_yaml):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            rc = main([
                "--single-thread", "eval", "--policy", "greedy", "--suite", "mapless",
                "--runs", "2", "--seed", "11", "--config", env_yaml, "--out", str(out),
            ])
            assert rc == 0
        ta, tb = read_tree(a), read_tree(b)
        assert ta.keys() == tb.keys()
        for k in ta:
            assert ta[k] == tb[k], k

    @pytest.mark.parametrize("policy, suite", [
        ("greedy", "crowd:random:4"),
        ("checkpoint", "mapless"),
    ])
    def test_jobs_match_single_thread(self, tmp_path, env_yaml, policy, suite):
        """The worker pool writes the bytes the serial path writes."""
        if policy == "checkpoint":
            from socnavsim.ddpg import DDPG, DDPGConfig
            from socnavsim.networks import default_network_spec

            policy = str(tmp_path / "ck.npz")
            learner = DDPG(default_network_spec(40, 64), DDPGConfig(), np.random.default_rng(2))
            learner.save(policy, {"stage": "ego", "beam_count": 64})
        common = ["eval", "--policy", policy, "--suite", suite, "--runs", "3", "--seed", "7",
                  "--config", env_yaml]
        serial, pooled = tmp_path / "serial", tmp_path / "pooled"
        assert main(["--single-thread", *common, "--out", str(serial)]) == 0
        assert main([*common, "--jobs", "2", "--out", str(pooled)]) == 0
        ts, tp = read_tree(serial), read_tree(pooled)
        assert sum(n.startswith("log__") for n in ts) == 3
        assert ts.keys() == tp.keys()
        for k in ts:
            assert ts[k] == tp[k], k

    def test_unknown_suite_usage_error(self, tmp_path, env_yaml):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--policy", "greedy", "--suite", "wormhole",
                  "--config", env_yaml, "--out", str(tmp_path / "x")])
        assert exc.value.code == 2

    def test_unknown_crowd_kind_usage_error(self, tmp_path, env_yaml, capsys):
        """A bad scenario kind fails when the suite config is built, as one
        usage error, not as a traceback from the first reset."""
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--policy", "greedy", "--suite", "crowd:bogus:4",
                  "--config", env_yaml, "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unknown scenario 'bogus'" in err and "Traceback" not in err

    def test_single_run_starts_no_pool(self, tmp_path, env_yaml, monkeypatch):
        """--jobs is capped at the episode count, so one run is serial and
        writes the bytes of --single-thread."""
        import multiprocessing

        common = ["eval", "--policy", "greedy", "--suite", "crowd:random:4", "--runs", "1",
                  "--seed", "5", "--config", env_yaml]
        serial, default = tmp_path / "serial", tmp_path / "default"
        assert main(["--single-thread", *common, "--out", str(serial)]) == 0

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(multiprocessing, "get_context", no_pool)
        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        assert main([*common, "--jobs", "4", "--out", str(default)]) == 0
        assert read_tree(default) == read_tree(serial)

    def test_unknown_policy_usage_error(self, tmp_path, env_yaml):
        with pytest.raises(SystemExit):
            main(["eval", "--policy", "/nonexistent.npz", "--suite", "mapless",
                  "--config", env_yaml, "--out", str(tmp_path / "x")])

    def test_checkpoint_beam_mismatch_fails(self, tmp_path, env_yaml):
        from socnavsim.ddpg import DDPG, DDPGConfig
        from socnavsim.networks import default_network_spec

        ck = tmp_path / "ck.npz"
        learner = DDPG(default_network_spec(40, 32), DDPGConfig(), np.random.default_rng(0))
        learner.save(ck, {"stage": "ego", "beam_count": 32})
        with pytest.raises(SystemExit):
            main(["eval", "--policy", str(ck), "--suite", "mapless",
                  "--config", env_yaml, "--out", str(tmp_path / "x")])

    def test_checkpoint_missing_parameter_usage_error(self, tmp_path, env_yaml, capsys):
        from socnavsim.networks import Actor, default_network_spec, save_checkpoint

        spec = default_network_spec(40, 64)
        params = Actor(spec, np.random.default_rng(0)).params()
        del params["mlp.out.b"]
        ck = tmp_path / "ck.npz"
        save_checkpoint(ck, {"actor": params}, {"stage": "ego", "network_spec": spec.to_dict()})
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--policy", str(ck), "--suite", "mapless",
                  "--config", env_yaml, "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "missing ['mlp.out.b']" in capsys.readouterr().err


class TestTrain:
    def test_budget_zero_writes_initial_checkpoint(self, tmp_path, env_yaml):
        out = tmp_path / "run"
        rc = main([
            "--single-thread", "train", "--stage", "ego", "--config", env_yaml,
            "--out", str(out), "--seed", "1", "--budget", "0",
        ])
        assert rc == 0
        files = os.listdir(out)
        assert "checkpoint_ego_init.npz" in files
        assert "checkpoint_ego_final.npz" in files
        assert "curve_ego.jsonl" in files

    def test_social_without_warm_start_usage_error(self, tmp_path, env_yaml):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--stage", "social", "--config", env_yaml,
                  "--out", str(tmp_path / "x"), "--budget", "0"])
        assert exc.value.code == 2

    def test_social_with_override_runs(self, tmp_path, env_yaml):
        rc = main([
            "train", "--stage", "social", "--allow-cold-social", "--config", env_yaml,
            "--out", str(tmp_path / "x"), "--budget", "0",
        ])
        assert rc == 0

    def test_train_value_error_is_one_line(self, tmp_path, env_yaml, monkeypatch, capsys):
        monkeypatch.setattr("socnavsim.ddpg.mem_available_bytes", lambda: 1024)
        rc = main([
            "train", "--stage", "ego", "--config", env_yaml, "--out", str(tmp_path / "x"),
            "--budget", "100", "--buffer-capacity", "200",
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: replay buffer of 100 transitions needs ")
        assert err.count("\n") == 1

    def test_bad_train_config_is_one_line(self, tmp_path, env_yaml, capsys):
        rc = main([
            "train", "--stage", "ego", "--config", env_yaml, "--out", str(tmp_path / "x"),
            "--budget", "100", "--update-every", "0",
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: update_every must be at least 1")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("stage, extra", [("ego", []), ("social", ["--allow-cold-social"])])
    def test_bare_train_uses_config_defaults(self, tmp_path, monkeypatch, stage, extra):
        from socnavsim.crowd import SCENARIO_KINDS
        from socnavsim.ddpg import TrainConfig

        seen = []
        monkeypatch.setattr("socnavsim.ddpg.train", lambda *args, **kwargs: seen.append(args))
        assert main(["train", "--stage", stage, *extra, "--out", str(tmp_path / "x")]) == 0
        (_, _, tc), = seen
        cycle = SCENARIO_KINDS if stage == "social" else (None,)
        assert tc == TrainConfig(scenario_cycle=cycle)

    def test_warm_start_shape_mismatch_names_parameter(self, tmp_path, capsys):
        from socnavsim.networks import Actor, default_network_spec, save_checkpoint

        ck = tmp_path / "ck1080.npz"
        actor = Actor(default_network_spec(40, 1080), np.random.default_rng(0))
        save_checkpoint(ck, {"actor": actor.params()}, {"stage": "ego"})
        cfg = tmp_path / "env180.yaml"
        save_config(EnvConfig(beam_count=180, crowd=CrowdConfig(count=0)), cfg)
        rc = main(["train", "--stage", "social", "--warm-start", str(ck), "--config", str(cfg),
                   "--out", str(tmp_path / "x"), "--budget", "0"])
        assert rc == 1
        assert "trunk.conv2.W" in capsys.readouterr().err

    def test_short_training_deterministic_curves(self, tmp_path, env_yaml):
        curves = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            rc = main([
                "--single-thread", "train", "--stage", "ego", "--config", env_yaml,
                "--out", str(out), "--seed", "5", "--budget", "80",
                "--warmup-steps", "20", "--batch-size", "8", "--buffer-capacity", "200",
                "--eval-every", "1000000", "--checkpoint-every", "1000000",
            ])
            assert rc == 0
            curves.append((out / "curve_ego.jsonl").read_bytes())
        assert curves[0] == curves[1]


class TestScenarioGen:
    def test_writes_snapshot(self, tmp_path, env_yaml):
        out = tmp_path / "scen"
        rc = main(["scenario-gen", "--suite", "crowd:towards:4", "--seed", "2",
                   "--config", env_yaml, "--out", str(out)])
        assert rc == 0
        files = os.listdir(out)
        assert len(files) == 1
        doc = yaml.safe_load((out / files[0]).read_text())
        assert len(doc["pedestrians"]) == 4
        assert doc["suite"] == "crowd:towards:4"

    def test_deterministic(self, tmp_path, env_yaml):
        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            main(["scenario-gen", "--suite", "crowd:random:4", "--seed", "9",
                  "--config", env_yaml, "--out", str(out)])
            f = os.listdir(out)[0]
            outs.append((out / f).read_bytes())
        assert outs[0] == outs[1]


class TestReplayExport:
    def test_log_to_table(self, tmp_path, env_yaml):
        run_out = tmp_path / "run"
        main(["--single-thread", "eval", "--policy", "greedy", "--suite", "mapless",
              "--runs", "1", "--seed", "4", "--config", env_yaml, "--out", str(run_out)])
        log_file = next(
            str(run_out / n) for n in os.listdir(run_out) if n.startswith("log__")
        )
        exp_out = tmp_path / "tables"
        rc = main(["replay-export", "--log", log_file, "--format", "curve-series",
                   "--out", str(exp_out)])
        assert rc == 0
        assert any(n.startswith("episodes__") for n in os.listdir(exp_out))

import contextlib
import json
import os

import numpy as np
import pytest
import yaml

from socnavsim.cli import main
from socnavsim.crowd import CrowdConfig
from socnavsim.world import EnvConfig

from conftest import cpus, run_script, save_config

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


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
        with cpus(1):
            rc = main([
                "eval", "--policy", "greedy", "--suite", "mapless",
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
            with cpus(1):
                rc = main([
                    "eval", "--policy", "greedy", "--suite", "mapless",
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
        """The episode pool of a process with two usable CPUs writes the
        bytes of a serial run with everything on one thread."""
        if policy == "checkpoint":
            from socnavsim.ddpg import DDPG, DDPGConfig
            from socnavsim.networks import default_network_spec

            policy = str(tmp_path / "ck.npz")
            learner = DDPG(default_network_spec(40, 64), DDPGConfig(), np.random.default_rng(2))
            learner.save(policy, {"stage": "ego", "beam_count": 64})
        common = ["eval", "--policy", policy, "--suite", suite, "--runs", "3", "--seed", "7",
                  "--config", env_yaml]
        serial, pooled = tmp_path / "serial", tmp_path / "pooled"
        with cpus(1):
            assert main([*common, "--out", str(serial)]) == 0
        with cpus(2):
            assert main([*common, "--out", str(pooled)]) == 0
        ts, tp = read_tree(serial), read_tree(pooled)
        assert sum(n.startswith("log__") for n in ts) == 3
        assert ts.keys() == tp.keys()
        for k in ts:
            assert ts[k] == tp[k], k

    @pytest.mark.parametrize("suite", ["wormhole", "crowd:random:x", "combined:y", "crowd:random:3.5"])
    def test_unknown_suite_usage_error(self, tmp_path, env_yaml, capsys, suite):
        """An unknown suite, or a crowd count that is not a non-negative
        integer, is one usage error quoting the suite."""
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--policy", "greedy", "--suite", suite,
                  "--config", env_yaml, "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        if suite == "wormhole":
            assert "unknown suite 'wormhole'" in err
        else:
            assert f"the crowd count in suite {suite!r} must be a non-negative integer" in err
        assert "Traceback" not in err and "invalid literal" not in err

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
        """The episode pool is capped at the episode count, so one run is
        serial, even on four CPUs, and writes the bytes of a run with
        everything inline."""
        import multiprocessing

        common = ["eval", "--policy", "greedy", "--suite", "crowd:random:4", "--runs", "1",
                  "--seed", "5", "--config", env_yaml]
        serial, default = tmp_path / "serial", tmp_path / "default"
        with cpus(1):
            assert main([*common, "--out", str(serial)]) == 0

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(multiprocessing, "get_context", no_pool)
        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        with cpus(4):
            assert main([*common, "--out", str(default)]) == 0
        assert read_tree(default) == read_tree(serial)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
    def test_one_cpu_runs_inline(self, tmp_path, env_yaml):
        """Pinned to one CPU, eval starts no pool and no crowd worker, and
        writes the bytes of a run that takes itself to have one CPU."""
        common = ["eval", "--policy", "greedy", "--suite", "crowd:random:4", "--runs", "2",
                  "--seed", "5", "--config", env_yaml]
        pinned, reference = tmp_path / "pinned", tmp_path / "reference"
        result = run_script(f"""
            import multiprocessing, os
            os.sched_setaffinity(0, {{min(os.sched_getaffinity(0))}})
            def no_pool(*args, **kwargs):
                raise AssertionError("a worker pool was started")
            multiprocessing.get_context = multiprocessing.Pool = no_pool
            from socnavsim import crowdfeed
            from socnavsim.cli import main
            assert main({[*common, "--out", str(pinned)]!r}) == 0
            print(crowdfeed._WORKER is None)
        """, timeout=300)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["True"]
        with cpus(1):
            assert main([*common, "--out", str(reference)]) == 0
        assert read_tree(pinned) == read_tree(reference)

    @pytest.mark.parametrize("runs", ["0", "-2"])
    def test_runs_below_one_usage_error(self, tmp_path, env_yaml, capsys, runs):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--policy", "greedy", "--suite", "mapless", "--runs", runs,
                  "--config", env_yaml, "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert f"--runs must be at least 1, got {runs}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_jobs_is_not_an_option(self, tmp_path, env_yaml, capsys):
        """The usable CPUs set the episode pool; taskset -c asks for fewer."""
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--policy", "greedy", "--suite", "mapless", "--runs", "2", "--jobs", "1",
                  "--config", env_yaml, "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 1" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_unknown_policy_usage_error(self, tmp_path, env_yaml):
        with pytest.raises(SystemExit):
            main(["eval", "--policy", "/nonexistent.npz", "--suite", "mapless",
                  "--config", env_yaml, "--out", str(tmp_path / "x")])

    @pytest.mark.parametrize("shape, message", [
        ((40, 32), "trained on 40 scans of 32 beams but the environment gives 40 of 64"),
        ((20, 64), "trained on 20 scans of 64 beams but the environment gives 40 of 64"),
    ], ids=["beams", "scans"])
    def test_checkpoint_beam_mismatch_fails(self, tmp_path, env_yaml, capsys, shape, message):
        """A checkpoint whose input shape the environment does not give is
        a usage error naming both counts, with nothing written."""
        from socnavsim.ddpg import DDPG, DDPGConfig
        from socnavsim.networks import default_network_spec

        ck = tmp_path / "ck.npz"
        learner = DDPG(default_network_spec(*shape), DDPGConfig(), np.random.default_rng(0))
        learner.save(ck, {"stage": "ego", "beam_count": shape[1]})
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--policy", str(ck), "--suite", "mapless",
                  "--config", env_yaml, "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

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

    def test_checkpoint_without_actor_usage_error(self, tmp_path, env_yaml, capsys):
        from socnavsim.networks import Critic, default_network_spec, save_checkpoint

        spec = default_network_spec(40, 64)
        ck = tmp_path / "ck.npz"
        critic = Critic(spec, np.random.default_rng(0))
        save_checkpoint(ck, {"critic": critic.params()}, {"stage": "ego", "network_spec": spec.to_dict()})
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--policy", str(ck), "--suite", "mapless",
                  "--config", env_yaml, "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert f"checkpoint {ck}: not an actor checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("conv", None),
        ("feature_shape", [40]),
        ("feature_shape", [40, -5]),
        ("conv", [[16, 3, 41, 1, 8], [32, 3, 5, 1]]),
        ("pool_width", 0),
        ("dense", "ab"),
    ], ids=["no-conv", "one-dim-feature", "negative-beams", "four-entry-conv-row", "zero-pool", "dense-text"])
    def test_checkpoint_spec_without_conv_usage_error(self, tmp_path, env_yaml, capsys, key, value):
        """A network_spec that lacks a key, or holds a malformed value, is
        one usage error naming the key."""
        from socnavsim.networks import Actor, default_network_spec, save_checkpoint

        spec = default_network_spec(40, 64)
        saved = spec.to_dict()
        if value is None:
            del saved[key]
        else:
            saved[key] = value
        ck = tmp_path / "ck.npz"
        save_checkpoint(ck, {"actor": Actor(spec, np.random.default_rng(0)).params()},
                        {"stage": "ego", "network_spec": saved})
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--policy", str(ck), "--suite", "mapless",
                  "--config", env_yaml, "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if value is None:
            assert f"checkpoint {ck}: network_spec lacks 'conv'" in err
        else:
            assert f"checkpoint {ck}: network_spec {key} must be " in err


@pytest.mark.parametrize("command", [
    ["eval", "--suite", "mapless", "--runs", "1", "--policy"],
    ["train", "--stage", "ego", "--budget", "0", "--warm-start"],
], ids=["policy", "warm-start"])
@pytest.mark.parametrize("damage", ["missing", "truncated", "no meta", "no part"])
def test_unreadable_checkpoint_is_a_usage_error(tmp_path, env_yaml, capsys, command, damage):
    """A checkpoint that is missing, cut short, without its metadata or
    with an entry outside any part is one usage error naming the file,
    without a traceback."""
    from socnavsim.ddpg import DDPG, DDPGConfig
    from socnavsim.networks import default_network_spec

    ck = tmp_path / "ck.npz"
    if damage == "truncated":
        DDPG(default_network_spec(40, 64), DDPGConfig(), np.random.default_rng(0)).save(ck, {"stage": "ego"})
        ck.write_bytes(ck.read_bytes()[:4096])
    elif damage == "no meta":
        np.savez(ck, **{"actor/mlp.out.b": np.zeros(2, np.float32)})
    elif damage == "no part":
        np.savez(ck, __meta__=np.frombuffer(b'{"stage": "ego"}', np.uint8), W=np.zeros(2, np.float32))
    with pytest.raises(SystemExit) as exc:
        main([*command, str(ck), "--config", env_yaml, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert str(ck) in err and "Traceback" not in err
    if damage == "no part":
        assert "not a checkpoint" in err and "'W'" in err
    assert not (tmp_path / "out").exists()


class TestTrain:
    def test_budget_zero_writes_initial_checkpoint(self, tmp_path, env_yaml):
        out = tmp_path / "run"
        rc = main([
            "train", "--stage", "ego", "--config", env_yaml,
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

    def test_replay_smaller_than_batch_is_one_line(self, tmp_path, env_yaml, capsys):
        rc = main([
            "train", "--stage", "ego", "--config", env_yaml, "--out", str(tmp_path / "x"),
            "--batch-size", "16", "--buffer-capacity", "10", "--budget", "0",
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: buffer_capacity 10 can never fill a batch of 16")
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

    def test_negative_budget_is_one_line(self, tmp_path, env_yaml, capsys):
        rc = main(["train", "--stage", "ego", "--config", env_yaml, "--out", str(tmp_path / "x"),
                   "--budget", "-5"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: total_env_steps must be non-negative, got -5\n"
        assert not (tmp_path / "x").exists()

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

    def test_warm_start_shape_mismatch_names_parameter(self, tmp_path, env_yaml, capsys):
        """A checkpoint of the environment's feature shape whose head has
        other widths fails the strict load, naming the first parameter."""
        from dataclasses import replace

        from socnavsim.ddpg import DDPG, DDPGConfig
        from socnavsim.networks import default_network_spec

        ck = tmp_path / "narrow.npz"
        spec = replace(default_network_spec(40, 64), dense=(64, 32))
        DDPG(spec, DDPGConfig(), np.random.default_rng(0)).save(ck, {"stage": "ego"})
        rc = main(["train", "--stage", "social", "--warm-start", str(ck), "--config", env_yaml,
                   "--out", str(tmp_path / "x"), "--budget", "0"])
        assert rc == 1
        assert "mlp.fc1.W" in capsys.readouterr().err

    @pytest.mark.parametrize("shape, message", [
        ((40, 32), "checkpoint was trained on 40 scans of 32 beams but the environment gives 40 of 64"),
        ((20, 64), "checkpoint was trained on 20 scans of 64 beams but the environment gives 40 of 64"),
        (None, "it has no network_spec"),
    ], ids=["beams", "scans", "no-spec"])
    def test_warm_start_of_another_feature_shape_is_usage_error(self, tmp_path, env_yaml, capsys, shape, message):
        """A warm start from a checkpoint whose networks read another
        (scans, beams), or that does not say, is the usage error eval
        gives, with nothing written."""
        from socnavsim.ddpg import DDPG, DDPGConfig
        from socnavsim.networks import default_network_spec, save_checkpoint

        ck = tmp_path / "other.npz"
        learner = DDPG(default_network_spec(*(shape or (40, 64))), DDPGConfig(), np.random.default_rng(0))
        if shape is None:
            save_checkpoint(ck, learner.named_parts(), {"stage": "ego"})
        else:
            learner.save(ck, {"stage": "ego"})
        with pytest.raises(SystemExit) as exc:
            main(["train", "--stage", "social", "--warm-start", str(ck), "--config", env_yaml,
                  "--out", str(tmp_path / "x"), "--budget", "0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("kept", [(), ("actor",), ("actor", "critic", "target_actor")])
    def test_warm_start_lacking_a_network_is_usage_error(self, tmp_path, env_yaml, capsys, kept):
        """A checkpoint that lacks any of the four networks would warm-start
        only part of the learner, or none of it, without a word."""
        from socnavsim.ddpg import DDPG, DDPGConfig
        from socnavsim.networks import default_network_spec, save_checkpoint

        learner = DDPG(default_network_spec(40, 64), DDPGConfig(), np.random.default_rng(0))
        ck = tmp_path / "partial.npz"
        save_checkpoint(ck, {k: v for k, v in learner.named_parts().items() if k in kept}, {"stage": "ego"})
        with pytest.raises(SystemExit) as exc:
            main(["train", "--stage", "social", "--config", env_yaml,
                  "--warm-start", str(ck), "--out", str(tmp_path / "x"), "--budget", "0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        missing = [k for k in ("actor", "critic", "target_actor", "target_critic") if k not in kept]
        assert str(ck) in err and f"lacks {', '.join(missing)}" in err
        assert not (tmp_path / "x").exists()

    def test_short_training_deterministic_curves(self, tmp_path, env_yaml):
        """A run on the CPUs the process may use writes the curve of one
        that takes itself to have one CPU, with everything inline."""
        curves = []
        for name, usable in (("r1", 1), ("r2", None)):
            out = tmp_path / name
            with cpus(usable) if usable else contextlib.nullcontext():
                rc = main([
                    "train", "--stage", "ego", "--config", env_yaml,
                    "--out", str(out), "--seed", "5", "--budget", "80",
                    "--warmup-steps", "20", "--batch-size", "8", "--buffer-capacity", "200",
                    "--eval-every", "1000000", "--checkpoint-every", "1000000",
                ])
            assert rc == 0
            curves.append((out / "curve_ego.jsonl").read_bytes())
        assert curves[0] == curves[1]


@pytest.mark.parametrize("command", [
    ["train", "--stage", "ego", "--budget", "0"],
    ["eval", "--policy", "greedy", "--suite", "mapless"],
    ["scenario-gen", "--suite", "mapless"],
])
@pytest.mark.parametrize("text, key", [("crowd:\n", "crowd config"), ("start: 3\n", "start"),
                                       ("max_steps: 2.5\n", "max_steps"), ("beam_count: [\n", ""),
                                       ("walls: 'false'\n", "walls"), (None, "No such file"),
                                       # seeds come from --seed alone: a seed key would be ignored
                                       ("map_seed: 5\n", "config key 'map_seed' is unknown"),
                                       ("crowd: {seed: 5}\n", "crowd config key 'seed' is unknown")])
def test_malformed_config_is_a_usage_error(tmp_path, capsys, command, text, key):
    """Every command that reads --config reports a malformed or missing
    file as one usage error naming the file and the key, without a traceback."""
    path = tmp_path / "bad.yaml"
    if text is not None:
        path.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main([*command, "--config", str(path), "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"config {path}: " in err and key in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [
    ["train", "--stage", "ego", "--budget", "0"],
    ["eval", "--policy", "greedy", "--suite", "mapless"],
    ["scenario-gen", "--suite", "mapless"],
], ids=["train", "eval", "scenario-gen"])
def test_negative_seed_is_a_usage_error(tmp_path, env_yaml, capsys, command):
    """numpy seeds only from non-negative ints, so --seed -1 is a usage
    error naming --seed, without a traceback and without output."""
    with pytest.raises(SystemExit) as exc:
        main([*command, "--seed", "-1", "--config", env_yaml, "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--seed must be a non-negative integer, got -1" in err and "Traceback" not in err
    assert not (tmp_path / "x").exists()


class TestScenarioGen:
    @pytest.mark.parametrize("start", [None, "4"])
    def test_pins_blas_to_one_thread(self, tmp_path, env_yaml, monkeypatch, start):
        """Every command leaves the BLAS thread variables at 1, whether
        they were unset or asked for more threads."""
        for var in BLAS_VARS:
            if start is None:
                monkeypatch.delenv(var, raising=False)
            else:
                monkeypatch.setenv(var, start)
        assert main(["scenario-gen", "--suite", "mapless", "--config", env_yaml, "--out", str(tmp_path)]) == 0
        assert [os.environ.get(var) for var in BLAS_VARS] == ["1"] * 3

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


    @pytest.mark.parametrize("suite", ["crowd:crossing:6", "combined:8"])
    def test_pedestrians_equal_reference_spawn(self, tmp_path, env_yaml, suite):
        """Every pedestrian's fields in the snapshot, against the object
        spawn of the snapshot's crowd seed."""
        from conftest import Vec2, reference_spawn_scenario, unpack
        from socnavsim.evaluation import suite_config
        from socnavsim.world import load_config

        cfg = suite_config(suite, load_config(env_yaml))
        out = tmp_path / "scen"
        assert main(["scenario-gen", "--suite", suite, "--seed", "5", "--config", env_yaml,
                     "--out", str(out)]) == 0
        doc = yaml.safe_load((out / os.listdir(out)[0]).read_text())
        rng = np.random.default_rng(np.random.SeedSequence(doc["crowd_seed"]))
        want = reference_spawn_scenario(cfg.scenario, cfg.crowd.count, cfg.crowd, rng, Vec2(*cfg.start),
                                        Vec2(*cfg.goal))
        assert doc["pedestrians"] == [
            {"id": p.id, "x": p.position.x, "y": p.position.y, "vx": p.velocity.x, "vy": p.velocity.y,
             "radius": p.radius, "pref_speed": p.pref_speed, "goal": [p.goal.x, p.goal.y]}
            for p in unpack(want)
        ]
        assert len(doc["pedestrians"]) == cfg.crowd.count > 0

    def test_obstacles_in_placement_order(self, tmp_path, env_yaml):
        """On a suite with obstacles, every obstacle appears once, in the
        order the sampler placed it, with the keys of its kind."""
        from conftest import Circle, reference_randomize_map
        from socnavsim.evaluation import suite_config
        from socnavsim.world import load_config

        cfg = suite_config("combined:8", load_config(env_yaml))
        kinds, interleaved = [], False
        for seed in (1, 2, 3):
            out = tmp_path / f"s{seed}"
            assert main(["scenario-gen", "--suite", "combined:8", "--seed", str(seed),
                         "--config", env_yaml, "--out", str(out)]) == 0
            doc = yaml.safe_load((out / os.listdir(out)[0]).read_text())
            rng = np.random.default_rng(np.random.SeedSequence(doc["map_seed"]))
            want = []
            for s in reference_randomize_map(rng, cfg):
                if isinstance(s, Circle):
                    want.append({"kind": "circle", "x": s.center.x, "y": s.center.y, "radius": s.radius})
                else:
                    want.append({"kind": "rect", "x": s.anchor.x, "y": s.anchor.y, "heading": s.heading,
                                 "half_width": s.half_width, "length": s.length})
            assert doc["obstacles"] == want
            kinds += [o["kind"] for o in want]
            interleaved |= [o["kind"] for o in want] != sorted(o["kind"] for o in want)
        assert kinds.count("circle") > 1 and kinds.count("rect") > 1 and interleaved


class TestReplayExport:
    def test_format_choices_are_the_export_formats(self, tmp_path, env_yaml, capsys):
        from socnavsim.evaluation import EXPORT_FORMATS

        run_out = tmp_path / "run"
        main(["eval", "--policy", "greedy", "--suite", "mapless",
              "--runs", "1", "--seed", "4", "--config", env_yaml, "--out", str(run_out)])
        log_file = next(str(run_out / n) for n in os.listdir(run_out) if n.startswith("log__"))
        evaluated = read_tree(run_out)
        for fmt in EXPORT_FORMATS:  # each re-exports what eval wrote, byte for byte
            assert main(["replay-export", "--log", log_file, "--format", fmt, "--out", str(tmp_path / fmt)]) == 0
            exported = read_tree(tmp_path / fmt)
            assert exported and all(data == evaluated[name] for name, data in exported.items())
        with pytest.raises(SystemExit):
            main(["replay-export", "--log", log_file, "--format", "bogus", "--out", str(tmp_path / "x")])
        assert "invalid choice" in capsys.readouterr().err


    @pytest.mark.parametrize("text, key", [
        ('{"policy": "x"}', "episode log has no key 'suite'"),
        (None, "No such file"),
        ('{"policy": ', "Expecting value"),
    ])
    def test_bad_log_is_a_usage_error(self, tmp_path, capsys, text, key):
        """A log missing a key, a missing log and a log that is not JSON
        each end as one usage error naming the file (and the key), without
        a traceback and without output."""
        path = tmp_path / "bad.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["replay-export", "--log", str(path), "--format", "metrics-table",
                  "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"log {path}: " in err and key in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["records"][1].pop("r_goal"), "record 1 has no key 'r_goal'"),
        (lambda d: d["records"][1].update(pedestrians=5), "record 1 key 'pedestrians' must be list, got 5"),
        (lambda d: d["records"][1].update(pedestrians=[[0.5, 1.0]]),
         "record 1 key 'pedestrians' must hold (x, y, heading) triples"),
        (lambda d: d["records"][2].update(x="1.5"), "record 2 key 'x' must be float, got '1.5'"),
        (lambda d: d["records"][0].update(social_violations=True),
         "record 0 key 'social_violations' must be int, got True"),
        (lambda d: d.update(records={}), "episode log key 'records' must be list, got {}"),
        (lambda d: d.update(arriving_time="soon"), "episode log key 'arriving_time' must be float, got 'soon'"),
        (lambda d: d.update(outcome="exploded"), "episode log outcome must be one of"),
        (lambda d: d.update(records=[]), "episode log has no records"),
        (lambda d: d.update(outcome="reached", arriving_time=None), "a reached episode needs an arriving_time"),
        (lambda d: d.update(outcome="timeout", arriving_time=2.5), "a timeout episode has no arriving_time"),
    ])
    def test_malformed_log_entry_is_named(self, tmp_path, capsys, env_yaml, edit, message):
        """A log holding every key can still hold a value of the wrong
        type; that too is a usage error naming the record and the key."""
        run_out = tmp_path / "run"
        main(["eval", "--policy", "greedy", "--suite", "mapless",
              "--runs", "1", "--seed", "4", "--config", env_yaml, "--out", str(run_out)])
        log_file = next(run_out / n for n in os.listdir(run_out) if n.startswith("log__"))
        doc = json.loads(log_file.read_text())
        edit(doc)
        log_file.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            main(["replay-export", "--log", str(log_file), "--format", "metrics-table",
                  "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_one_file_formats_refuse_mixed_logs(self, tmp_path, env_yaml, capsys):
        """metrics-table and curve-series write one file named after one
        suite and policy, so logs of two suites or policies are a usage
        error; trajectory-table writes a file per log and takes them."""
        logs = []
        for policy, suite in (("greedy", "mapless"), ("straight", "crowd:random:4")):
            out = tmp_path / suite.replace(":", "-")
            with cpus(1):
                assert main(["eval", "--policy", policy, "--suite", suite, "--runs", "2",
                             "--seed", "4", "--config", env_yaml, "--out", str(out)]) == 0
            logs += sorted(str(out / n) for n in os.listdir(out) if n.startswith("log__"))
        for fmt in ("metrics-table", "curve-series"):
            with pytest.raises(SystemExit) as exc:
                main(["replay-export", "--log", *logs, "--format", fmt, "--out", str(tmp_path / fmt)])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "('crowd:random:4', 'straight'), ('mapless', 'greedy')" in err and "Traceback" not in err
            assert not (tmp_path / fmt).exists()
        assert main(["replay-export", "--log", *logs, "--format", "trajectory-table",
                     "--out", str(tmp_path / "traj")]) == 0
        assert len(os.listdir(tmp_path / "traj")) == 4

    def test_log_to_table(self, tmp_path, env_yaml):
        run_out = tmp_path / "run"
        main(["eval", "--policy", "greedy", "--suite", "mapless",
              "--runs", "1", "--seed", "4", "--config", env_yaml, "--out", str(run_out)])
        log_file = next(
            str(run_out / n) for n in os.listdir(run_out) if n.startswith("log__")
        )
        exp_out = tmp_path / "tables"
        rc = main(["replay-export", "--log", log_file, "--format", "curve-series",
                   "--out", str(exp_out)])
        assert rc == 0
        assert any(n.startswith("episodes__") for n in os.listdir(exp_out))

"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criteria 1-5 and 8 are covered and finish in seconds.  The
training-based criteria 6 and 7 have no test here: training a policy to
those levels from scratch is too slow for the suite.
"""

import math
import os

import numpy as np
import pytest

from socnavsim.crowd import (
    CrowdConfig,
    orca_lines,
    spawn_crowd,
    step_crowd,
)
from socnavsim.geometry import rects_overlap
from socnavsim.lidar import (
    HISTORY_LEN,
    LidarConfig,
    build_motion_feature,
    cast_sweep,
    simulate_scan,
)
from socnavsim.rewards import (
    COLLISION_PENALTY,
    GOAL_BONUS,
    goal_reward,
    zone_rows,
)

from conftest import (
    Circle,
    Pedestrian,
    StandalonePool,
    Vec2,
    assess_of,
    calibration_shift,
    cast_one,
    ego_reward_of,
    marching_ray,
    numeric_gradient,
    orca_solve,
    pack,
    random_rect,
    random_shape,
    rect_overlap_oracle,
    rects_share_sampled_point,
    reference_closest_distance,
    social_reward_of,
    social_zone,
    to_map,
    unpack,
)


def report(criterion, text):
    print(f"\n[acceptance] criterion {criterion}: PASS - {text}")


def random_ped(rng, pid, span=4.0):
    pos = Vec2(float(rng.uniform(-span, span)), float(rng.uniform(-span, span)))
    vel = Vec2(float(rng.uniform(-1.5, 1.5)), float(rng.uniform(-1.5, 1.5)))
    return Pedestrian(
        id=pid,
        position=pos,
        velocity=vel,
        pref_speed=1.5,
        radius=float(rng.uniform(0.15, 0.4)),
        goal=Vec2(0, 0),
        motion_heading=float(rng.uniform(-math.pi, math.pi)),
    )


class TestCriterion1RewardFormulas:
    def test_bounds_and_sum_on_random_states(self):
        rng = np.random.default_rng(101)
        for _ in range(10_000):
            robot = Circle(
                Vec2(float(rng.uniform(-4, 4)), float(rng.uniform(-4, 4))),
                float(rng.uniform(0.2, 0.5)),
            )
            peds = [random_ped(rng, i) for i in range(int(rng.integers(0, 5)))]
            obstacles = [random_shape(rng) for _ in range(int(rng.integers(0, 3)))]
            goal = Vec2(4.5, 4.5)
            start = Vec2(-4.5, -4.5)
            a = assess_of(
                robot,
                float(rng.uniform(-math.pi, math.pi)),
                float(rng.uniform(0, 1.5)),
                peds,
                obstacles,
                goal,
                start,
                reached=bool(rng.random() < 0.01),
            )
            assert a.r_ego == COLLISION_PENALTY or -0.25 <= a.r_ego <= 0.0
            assert -0.1 <= a.r_social <= 0.0
            assert a.r_goal == GOAL_BONUS or -0.01 <= a.r_goal <= 0.0
            assert a.total == a.r_ego + a.r_social + a.r_goal
            assert a.violations <= a.considered_pedestrians

    def test_paper_substitution_examples(self):
        # ego: collision, boundary, and the -0.125 band value
        r, _, _ = ego_reward_of(Circle(Vec2(0, 0), 0.3), [], [Circle(Vec2(0.5, 0), 0.3)])
        assert r == -10.0
        r, _, d = ego_reward_of(Circle(Vec2(0, 0), 0.3), [], [Circle(Vec2(1.4, 0), 0.4)])
        assert d == pytest.approx(0.7, abs=1e-12) and r == 0.0
        r, _, d = ego_reward_of(Circle(Vec2(0, 0), 0.3), [], [Circle(Vec2(1.05, 0), 0.4)])
        assert d == pytest.approx(0.35, abs=1e-12)
        assert r == pytest.approx(-0.25 * (1 - 0.35 / 0.7), abs=1e-12)

        # social zone: length = r/2 + 0.5 + 0.77 * v
        z, z0, z2 = zone_rows(np.zeros((3, 2)), np.zeros(3), np.full(3, 0.3), np.array([1.0, 0.0, 2.0]))[:, 4]
        assert z == pytest.approx(1.42, abs=1e-12)
        assert z0 == pytest.approx(0.65, abs=1e-12)
        assert z2 - z == pytest.approx(0.77, abs=1e-12)

        # social reward: 2 violations of 8 pedestrians
        zone = social_zone(Vec2(0, 0), 0.0, 0.3, 1.0)
        close = [
            Pedestrian(id=i, position=Vec2(1.0, 0.2 * i), velocity=Vec2(-0.5, 0),
                       pref_speed=1.5, radius=0.3, goal=Vec2(0, 0))
            for i in range(2)
        ]
        far = [
            Pedestrian(id=10 + i, position=Vec2(0, 30 + i), velocity=Vec2(0, 0),
                       pref_speed=1.5, radius=0.3, goal=Vec2(0, 0))
            for i in range(6)
        ]
        r, violations, _ = social_reward_of(zone, Vec2(0, 0), close + far)
        assert violations == 2 and r == pytest.approx(-0.025, abs=1e-12)

        # goal reward: +10 on arrival; -0.01 at the start position
        assert goal_reward(0.0, 3.0, True) == 10.0
        assert goal_reward(3.0, 3.0, False) == pytest.approx(-0.01)
        assert goal_reward(1.5, 3.0, False) == pytest.approx(-0.005)
        report(1, "reward bounds, exact sum, and paper substitutions on 10^4 states")


class TestCriterion2GeometryOracles:
    def test_raycast_vs_marching_oracle_1000_scenes(self):
        rng = np.random.default_rng(202)
        checked = 0
        while checked < 1000:
            shapes = [random_shape(rng) for _ in range(int(rng.integers(1, 4)))]
            origin = Vec2(float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5)))
            if reference_closest_distance(Circle(origin, 0.05), shapes) <= 0.0:
                continue
            angle = float(rng.uniform(-math.pi, math.pi))
            d = cast_one(origin, angle, shapes)
            oracle = marching_ray(origin, angle, shapes)
            assert abs(d - oracle) <= 1e-3
            checked += 1

    def test_rect_intersection_vs_oracle_100_scenes(self):
        rng = np.random.default_rng(203)
        overlap_cases = 0
        for _ in range(100):
            a, b = random_rect(rng, span=2.0), random_rect(rng, span=2.0)
            got = bool(rects_overlap(to_map([a]).rects, to_map([b]).rects)[0])
            assert got == rect_overlap_oracle(a, b)
            if got and rects_share_sampled_point(a, b, rng, samples=100_000):
                overlap_cases += 1
        assert overlap_cases > 5  # the sampler corroborated real overlaps

    def test_social_violation_count_vs_brute_force_100_scenes(self):
        rng = np.random.default_rng(204)
        for _ in range(100):
            zone = social_zone(
                Vec2(0, 0),
                float(rng.uniform(-math.pi, math.pi)),
                0.3,
                float(rng.uniform(0, 1.5)),
            )
            peds = [random_ped(rng, i) for i in range(int(rng.integers(1, 9)))]
            _, violations, _ = social_reward_of(zone, Vec2(0, 0), peds)
            brute = sum(
                1
                for p in peds
                if (p.position - Vec2(0, 0)).norm() <= 5.0
                and rect_overlap_oracle(zone, p.zone())
            )
            assert violations == brute
        report(2, "raycast (1e-3 m), SAT-vs-oracle, and zone counts all agree")


class TestCriterion3CalibrationInvariant:
    def test_pure_rotation_rows_equal(self):
        rng = np.random.default_rng(303)
        cfg = LidarConfig(beam_count=180)
        for _ in range(100):
            shapes = [random_shape(rng, span=3.0) for _ in range(int(rng.integers(2, 6)))]
            headings = np.cumsum(rng.integers(-5, 6, HISTORY_LEN)) * cfg.angle_increment
            history = [
                (float(h), simulate_scan(cast_sweep(to_map(shapes).scene(), (0.0, 0.0), float(h), cfg), cfg, rng))
                for h in headings
            ]
            current = float(headings[-1])
            mf = build_motion_feature(history, current, 1.0, 0.0, 1.0, cfg)
            for i, h in enumerate(headings):
                s = calibration_shift(float(h), current, cfg)
                lo, hi = max(0, -s), cfg.beam_count - max(0, s)
                np.testing.assert_allclose(
                    mf.matrix[i, lo:hi], mf.matrix[-1, lo:hi], rtol=0.0, atol=1e-9
                )
        report(3, "rotation disentangled over 100 randomized sequences")


class TestCriterion4OrcaSanity:
    def test_head_on_mirror_and_no_penetration(self):
        dt = 0.05
        a = Pedestrian(id=0, position=Vec2(-3, 0), velocity=Vec2(1, 0), pref_speed=1.0,
                       radius=0.3, goal=Vec2(3, 0))
        b = Pedestrian(id=1, position=Vec2(3, 0), velocity=Vec2(-1, 0), pref_speed=1.0,
                       radius=0.3, goal=Vec2(-3, 0))
        from dataclasses import replace

        for _ in range(500):
            lines, num_fixed = orca_lines(pack([a, b]), to_map([]).bounding_discs(), dt)
            va = orca_solve(a, lines[0], num_fixed)
            vb = orca_solve(b, lines[1], num_fixed)
            assert va.x == pytest.approx(-vb.x, abs=1e-9)
            assert va.y == pytest.approx(-vb.y, abs=1e-9)
            a = replace(a, position=a.position + va * dt, velocity=va)
            b = replace(b, position=b.position + vb * dt, velocity=vb)
            gap = (a.position - b.position).norm() - 0.6
            assert gap > -1e-9

    def test_crowd_penetration_rare_over_10k_steps(self):
        rng = np.random.default_rng(404)
        cfg = CrowdConfig(count=8, area=(5.0, 5.0))
        peds = spawn_crowd(cfg, rng)
        no_discs = to_map([]).bounding_discs()
        steps = 10_000
        bad = 0
        for _ in range(steps):
            peds = step_crowd(peds, cfg, 0.05, rng, no_discs)
            worst = 0.0
            listed = unpack(peds)
            for i, p in enumerate(listed):
                for q in listed[i + 1 :]:
                    pen = p.radius + q.radius - (p.position - q.position).norm()
                    if pen > worst:
                        worst = pen
            bad += worst > 1e-2
        assert bad / steps < 0.01
        report(4, f"mirror symmetry held; penetration steps {bad}/{steps} (<1%)")


class TestCriterion5LearningMachinery:
    def test_gradient_checks_all_layer_types(self):
        from socnavsim.nn import Conv2d, Dense, ReLU, Tanh

        rng = np.random.default_rng(505)

        def rel_err(a, b):
            denom = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-8)
            return np.max(np.abs(a - b)) / denom

        def check(layer, x, with_params):
            y0, cache = layer.forward(x)
            r = rng.normal(size=y0.shape)
            dx, grads = layer.backward(r, cache)

            def loss():
                y, _ = layer.forward(x)
                return float(np.sum(y * r))

            if dx is not None:
                assert rel_err(dx, numeric_gradient(loss, x, h=1e-5)) < 1e-4
            for name, p in (layer.params() if with_params else {}).items():
                assert rel_err(grads[name], numeric_gradient(loss, p, h=1e-5)) < 1e-4

        check(Dense(6, 4, rng, dtype=np.float64), rng.normal(size=(3, 6)), True)
        check(
            Conv2d(1, 3, (2, 5), (1, 2), (4, 16), rng, dtype=np.float64),
            rng.normal(size=(2, 4, 16, 1)),
            True,
        )
        check(StandalonePool(2), rng.normal(size=(2, 3, 8, 2)), False)
        check(ReLU(), rng.normal(size=(4, 7)) + 0.05, False)
        check(Tanh(), rng.normal(size=(4, 7)), False)

        # composite actor/critic on the tiny shape from the criterion (B=16, K=4)
        from socnavsim.networks import Critic, NetworkSpec

        tiny = NetworkSpec(feature_shape=(4, 16), conv=((3, 2, 5, 1, 2), (4, 2, 3, 1, 1)),
                           pool_width=2, dense=(12, 8))
        critic = Critic(tiny, rng, dtype=np.float64)
        feat = rng.random((3, 4, 16))
        goal = rng.random((3, 2))
        action = rng.uniform(-1.0, 1.0, (3, 2))
        r = rng.normal(size=3)
        _, cache = critic.forward(feat, goal, action)
        daction, grads = critic.backward(r, cache, param_grads=True)

        def qloss():
            q, _ = critic.forward(feat, goal, action)
            return float(np.sum(q * r))

        assert rel_err(daction, numeric_gradient(qloss, action, h=1e-5)) < 1e-4
        for name in ("trunk.conv1.W", "mlp.fc1.W", "mlp.out.b"):
            assert rel_err(grads[name], numeric_gradient(qloss, critic.params()[name], h=1e-5)) < 1e-4

    def test_frozen_batch_critic_loss_monotone(self):
        from socnavsim.ddpg import DDPG, DDPGConfig
        from socnavsim.networks import NetworkSpec

        tiny = NetworkSpec(feature_shape=(4, 16), conv=((3, 2, 5, 1, 2), (4, 2, 3, 1, 1)),
                           pool_width=2, dense=(12, 8))
        rng = np.random.default_rng(506)
        learner = DDPG(tiny, DDPGConfig(gamma=0.0, batch_size=16, lr_critic=1e-3), rng)
        batch = {
            "feat": rng.random((16, 4, 16)).astype(np.float32),
            "goal": rng.random((16, 2)).astype(np.float32),
            "action": rng.uniform(-1.5, 1.5, (16, 2)).astype(np.float32),
            "reward": rng.normal(size=16).astype(np.float32),
            "next_feat": rng.random((16, 4, 16)).astype(np.float32),
            "next_goal": rng.random((16, 2)).astype(np.float32),
            "done": np.zeros(16, np.float32),
        }
        losses = [learner.update(batch)[0] for _ in range(100)]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_checkpoint_round_trip_bitwise(self, tmp_path):
        from socnavsim.ddpg import DDPG, DDPGConfig
        from socnavsim.networks import NetworkSpec, actor_from_checkpoint

        tiny = NetworkSpec(feature_shape=(4, 16), conv=((3, 2, 5, 1, 2), (4, 2, 3, 1, 1)),
                           pool_width=2, dense=(12, 8))
        rng = np.random.default_rng(507)
        learner = DDPG(tiny, DDPGConfig(batch_size=8), rng)
        feat = rng.random((2, 4, 16)).astype(np.float32)
        goal = rng.random((2, 2)).astype(np.float32)
        before, _ = learner.actor.forward(feat, goal)
        path = tmp_path / "ck.npz"
        learner.save(path, {"stage": "ego"})
        actor, _ = actor_from_checkpoint(path)
        after, _ = actor.forward(feat, goal)
        assert np.array_equal(before, after)
        report(5, "finite differences < 1e-4, monotone frozen-batch loss, bitwise checkpoints")


class TestCriterion8Determinism:
    def test_cmd_eval_byte_identical(self, tmp_path):
        from socnavsim.cli import main
        from conftest import save_config
        from socnavsim.world import EnvConfig

        cfg_path = tmp_path / "env.yaml"
        save_config(EnvConfig(beam_count=64, max_steps=60, crowd=CrowdConfig(count=2)), cfg_path)

        trees = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = main([
                "--single-thread", "eval", "--policy", "greedy",
                "--suite", "crowd:crossing:4", "--runs", "3", "--seed", "17",
                "--config", str(cfg_path), "--out", str(out),
            ])
            assert rc == 0
            tree = {}
            for f in sorted(os.listdir(out)):
                tree[f] = open(out / f, "rb").read()
            trees.append(tree)
        assert trees[0].keys() == trees[1].keys()
        for k in trees[0]:
            assert trees[0][k] == trees[1][k], f"{k} differs between runs"
        report(8, "two cmd_eval invocations produced byte-identical logs")

import math
import pathlib

import numpy as np
import pytest

from socnavsim.crowd import CrowdConfig
from socnavsim.geometry import Circle, Vec2, closest_distance
from socnavsim.world import (
    EnvConfig,
    NavEnv,
    RobotState,
    Status,
    action_to_twist,
    arena_walls,
    corridor_exists,
    integrate,
    load_config,
    randomize_map,
    save_config,
)


def small_cfg(**kw):
    defaults = dict(beam_count=64, crowd=CrowdConfig(count=0))
    defaults.update(kw)
    return EnvConfig(**defaults)


class TestActionToTwist:
    def test_forward(self):
        assert action_to_twist(1.0, 0.0) == pytest.approx((1.0, 0.0))

    def test_left_axis(self):
        v_l, v_w = action_to_twist(0.0, 1.5)
        assert v_l == pytest.approx(1.5)
        assert v_w == pytest.approx(math.pi / 2)

    def test_backward_axis(self):
        v_l, v_w = action_to_twist(-1.0, 0.0)
        assert v_l == pytest.approx(1.0)
        assert v_w == pytest.approx(math.pi)

    def test_speed_clamped_to_platform_max(self):
        v_l, _ = action_to_twist(1.5, 1.5)
        assert v_l == 1.5

    def test_components_clamped(self):
        v_l, v_w = action_to_twist(99.0, 0.0)
        assert v_l == 1.5 and v_w == 0.0

    def test_action_type_clamps(self):
        # both components clamp to the 1.5 limit before the twist is formed
        v_l, v_w = action_to_twist(2.0, -7.0)
        assert v_l == 1.5 and v_w == pytest.approx(-math.pi / 4, abs=1e-15)


class TestIntegrate:
    def test_straight_advance(self):
        r = RobotState(0, 0, 0.0)
        r2 = integrate(r, 1.0, 0.0, 0.05)
        assert r2.x == pytest.approx(0.05) and r2.y == 0.0

    def test_rotate_in_place(self):
        r = RobotState(0, 0, 0.0)
        r2 = integrate(r, 0.0, math.pi, 0.05)
        assert (r2.x, r2.y) == (0.0, 0.0)
        assert r2.heading == pytest.approx(0.05 * math.pi)

    def test_closed_circle(self):
        # v = w = 1; after total angle 2*pi the exact arc closes
        steps = 126
        dt = 2 * math.pi / steps
        r = RobotState(0.3, -0.2, 0.4)
        for _ in range(steps):
            r = integrate(r, 1.0, 1.0, dt)
        assert r.x == pytest.approx(0.3, abs=1e-6)
        assert r.y == pytest.approx(-0.2, abs=1e-6)

    def test_no_lateral_motion(self):
        for omega in (0.0, 0.4, -1.2):
            r = RobotState(0, 0, 0.7)
            r2 = integrate(r, 1.0, omega, 0.05)
            disp = Vec2(r2.x - r.x, r2.y - r.y)
            mid = r.heading + omega * 0.05 / 2.0
            # displacement is along the mid-arc heading for the exact arc
            assert disp.normalized().dot(Vec2.from_angle(mid)) == pytest.approx(1.0, abs=1e-4)


class TestRandomizeMap:
    def test_zero_range_empty(self):
        cfg = small_cfg(obstacle_count_range=(0, 0))
        assert randomize_map(np.random.default_rng(0), cfg) == []

    def test_same_seed_same_map(self):
        cfg = small_cfg()
        a = randomize_map(np.random.default_rng(42), cfg)
        b = randomize_map(np.random.default_rng(42), cfg)
        assert a == b

    def test_start_goal_discs_respected(self):
        cfg = small_cfg()
        for seed in range(20):
            for disc_center in (cfg.start, cfg.goal):
                disc = Circle(Vec2(*disc_center), 0.8)
                obstacles = randomize_map(np.random.default_rng(seed), cfg)
                if obstacles:
                    assert closest_distance(disc, obstacles) > 0.0

    def test_connectivity_oracle(self):
        cfg = small_cfg()
        for seed in range(60):
            obstacles = randomize_map(np.random.default_rng(seed), cfg)
            assert corridor_exists(obstacles, cfg)

    def test_overdense_raises(self):
        cfg = small_cfg(obstacle_count_range=(220, 240), obstacle_size_range=(1.2, 1.6))
        with pytest.raises(RuntimeError):
            randomize_map(np.random.default_rng(0), cfg, max_attempts=3)


class TestEnvStep:
    def test_reward_parts_sum(self):
        env = NavEnv(small_cfg(map_seed=5))
        env.reset()
        for _ in range(20):
            out = env.step((1.0, 0.2))
            assert out.reward == out.reward_parts[0] + out.reward_parts[1] + out.reward_parts[2]
            if out.done is not Status.RUNNING:
                break

    def test_on_goal_reports_reached(self):
        cfg = small_cfg(obstacle_count_range=(0, 0), start=(3.3, 0.0), goal=(3.5, 0.0))
        env = NavEnv(cfg)
        env.reset()
        out = env.step((0.0, 0.0))
        assert out.done is Status.REACHED
        assert out.reward_parts[2] == 10.0

    def test_wall_crash_terminates_with_minus_ten(self):
        cfg = small_cfg(obstacle_count_range=(0, 0), start=(4.0, 0.0), goal=(-4.0, 0.0),
                        start_heading=0.0)  # facing +x, wall at x=5
        env = NavEnv(cfg)
        env.reset()
        done = None
        for _ in range(50):
            out = env.step((1.5, 0.0))
            if out.done is not Status.RUNNING:
                done = out
                break
        assert done is not None and done.done is Status.COLLIDED
        assert done.reward_parts[0] == -10.0

    def test_empty_map_straight_run_timing(self):
        cfg = small_cfg(obstacle_count_range=(0, 0), start=(-1.5, 0.0), goal=(1.5, 0.0))
        env = NavEnv(cfg)
        env.reset()
        t = None
        for _ in range(60):
            out = env.step((1.5, 0.0))
            if out.done is Status.REACHED:
                t = out.info["sim_time"]
                break
        # 3 m at 1.5 m/s less the 0.3 m tolerance: about 1.8 s
        assert t is not None and t == pytest.approx(1.8, abs=0.3)

    def test_step_after_done_rejected(self):
        cfg = small_cfg(obstacle_count_range=(0, 0), start=(3.3, 0.0), goal=(3.5, 0.0))
        env = NavEnv(cfg)
        env.reset()
        env.step((0.0, 0.0))
        with pytest.raises(RuntimeError):
            env.step((0.0, 0.0))

    def test_step_before_reset_rejected(self):
        env = NavEnv(small_cfg())
        with pytest.raises(RuntimeError):
            env.step((0.0, 0.0))

    def test_timeout(self):
        cfg = small_cfg(obstacle_count_range=(0, 0), max_steps=5)
        env = NavEnv(cfg)
        env.reset()
        out = None
        for _ in range(5):
            out = env.step((0.0, 0.0))
        assert out.done is Status.TIMEOUT

    def test_observation_shape_and_bounds(self):
        cfg = small_cfg()
        env = NavEnv(cfg)
        obs = env.reset()
        assert obs.matrix.shape == (40, 64)
        assert obs.matrix.min() >= 0.1 and obs.matrix.max() <= 10.0
        out = env.step((0.5, 0.5))
        assert out.observation.matrix.shape == (40, 64)

    def test_episode_determinism(self):
        cfg = small_cfg(crowd=CrowdConfig(count=3, walk_in_probability=0.05))
        actions = np.random.default_rng(1).uniform(-1.5, 1.5, (30, 2))

        def rollout():
            env = NavEnv(cfg)
            env.reset(map_seed=9, crowd_seed=13)
            trace = []
            for a in actions:
                out = env.step(a)
                trace.append((out.reward, env.robot.x, env.robot.y, env.robot.heading))
                if out.done is not Status.RUNNING:
                    break
            return trace

        assert rollout() == rollout()

    def test_heading_tracking_controller(self):
        cfg = small_cfg(obstacle_count_range=(0, 0), start_heading=0.0, goal=(0.0, 4.0),
                        start=(0.0, -4.0))
        env = NavEnv(cfg)
        env.reset()
        # command a pure left turn at small speed; heading converges toward pi/2
        for _ in range(12):
            env.step((0.01, 1.2))
        assert env.robot.heading > 0.5

    def test_scans_advance_four_per_step(self):
        env = NavEnv(small_cfg())
        env.reset()
        t0 = env.scan_history[-1].timestamp
        env.step((0.0, 0.0))
        assert env.scan_history[-1].timestamp == t0 + 4


class TestConfigIO:
    def test_round_trip(self, tmp_path):
        cfg = EnvConfig(
            beam_count=128,
            obstacle_count_range=(2, 4),
            crowd=CrowdConfig(count=5, walk_in_probability=0.1),
            scenario="crossing",
        )
        path = tmp_path / "env.yaml"
        save_config(cfg, path)
        loaded = load_config(path)
        assert loaded == cfg

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("beam_count: 64\nbogus_field: 3\n")
        with pytest.raises(ValueError):
            load_config(path)

    @pytest.mark.parametrize(
        "text",
        [
            "max_steps: 0\n",
            "obstacle_count_range: [5, 2]\n",
            "obstacle_size_range: [1.0, 0.5]\n",
            "start: [4.8, 0.0]\n",  # the robot (radius 0.3) would overlap the wall at 5.0
            "goal: [0.0, -4.7]\n",
            "beam_count: 1\n",
        ],
    )
    def test_invalid_values_rejected_on_load(self, tmp_path, text):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        with pytest.raises(ValueError):
            load_config(path)

    def test_shipped_and_wall_free_configs_load(self, tmp_path):
        root = pathlib.Path(__file__).parent.parent / "configs"
        for path in sorted(root.glob("*.yaml")):
            load_config(path)
        path = tmp_path / "open.yaml"
        path.write_text("start: [4.8, 0.0]\nwalls: false\n")  # no wall to overlap
        assert load_config(path).start == (4.8, 0.0)

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            EnvConfig(scan_hz=40, control_hz=30)

    def test_walls_present_by_default(self):
        walls = arena_walls(5.0)
        assert len(walls) == 4

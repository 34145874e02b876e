import collections
import math
import pathlib

import numpy as np
import pytest
import yaml

from socnavsim import world
from socnavsim.crowd import CrowdConfig
from socnavsim.geometry import Circle, OrientedRect, Segment, Vec2, closest_distance, pack_distance_scene
from socnavsim.rewards import ego_reward
from socnavsim.world import (
    EnvConfig,
    NavEnv,
    Status,
    _grid_connected,
    _grid_free,
    _sample_obstacle,
    action_to_twist,
    arena_walls,
    corridor_exists,
    integrate,
    load_config,
    randomize_map,
    save_config,
)

from conftest import (CastEveryTickEnv, clearance, point_rect_signed_distance, reference_closest_distance,
                      reference_grid_connected, rects_intersect, social_zone, unpack)


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
        x, y, _ = integrate(0.0, 0.0, 0.0, 1.0, 0.0, 0.05)
        assert x == pytest.approx(0.05) and y == 0.0

    def test_rotate_in_place(self):
        x, y, heading = integrate(0.0, 0.0, 0.0, 0.0, math.pi, 0.05)
        assert (x, y) == (0.0, 0.0)
        assert heading == pytest.approx(0.05 * math.pi)

    def test_closed_circle(self):
        # v = w = 1; after total angle 2*pi the exact arc closes
        steps = 126
        dt = 2 * math.pi / steps
        x, y, heading = 0.3, -0.2, 0.4
        for _ in range(steps):
            x, y, heading = integrate(x, y, heading, 1.0, 1.0, dt)
        assert x == pytest.approx(0.3, abs=1e-6)
        assert y == pytest.approx(-0.2, abs=1e-6)

    def test_no_lateral_motion(self):
        for omega in (0.0, 0.4, -1.2):
            x, y, _ = integrate(0.0, 0.0, 0.7, 1.0, omega, 0.05)
            disp = Vec2(x, y)
            mid = 0.7 + omega * 0.05 / 2.0
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

    def test_overdense_raises(self, monkeypatch):
        """An overdense config fails after MAP_ATTEMPTS corridor checks."""
        cfg = small_cfg(obstacle_count_range=(220, 240), obstacle_size_range=(1.2, 1.6))
        checks = []

        def counted(obstacles, config):
            checks.append(len(obstacles))
            return corridor_exists(obstacles, config)

        monkeypatch.setattr(world, "MAP_ATTEMPTS", 3)
        monkeypatch.setattr(world, "corridor_exists", counted)
        with pytest.raises(RuntimeError, match="no connected map found in 3 attempts"):
            randomize_map(np.random.default_rng(0), cfg)
        assert len(checks) == 3


class TestStaticClearance:
    def test_packed_equals_closest_distance(self, rng):
        """The clearance NavEnv takes from the packed static shapes equals
        the Vec2 loop over the shape objects bit for bit: random poses
        and robot radii on random maps with walls (and a few slanted
        segments), poses inside rectangles and outside the arena included."""
        cfg = small_cfg(obstacle_count_range=(4, 10))
        inside = 0
        for seed in range(25):
            shapes = randomize_map(np.random.default_rng(seed), cfg) + arena_walls(cfg.arena_half)
            shapes += [Segment(Vec2(*rng.uniform(-5, 5, 2)), Vec2(*rng.uniform(-5, 5, 2))) for _ in range(3)]
            poses = [Vec2(*rng.uniform(-cfg.arena_half - 0.5, cfg.arena_half + 0.5, 2)) for _ in range(40)]
            for rect in (s for s in shapes if isinstance(s, OrientedRect)):
                fwd, left = rect.axes()
                for u, v in rng.uniform(-0.99, 0.99, (4, 2)):
                    p = rect.anchor + fwd * (rect.length * (u + 1.0) / 2.0) + left * (rect.half_width * v)
                    inside += point_rect_signed_distance(p, rect) < 0.0
                    poses.append(p)
            packed = pack_distance_scene(shapes)
            for p in poses:
                robot = Circle(p, float(rng.uniform(0.1, 0.5)))
                want = reference_closest_distance(robot, shapes).hex()
                assert packed.closest_distance(p.x, p.y, robot.radius).hex() == want
                assert closest_distance(robot, shapes).hex() == want
        assert inside > 100

    def test_env_clearance_uses_every_static_shape(self):
        env = NavEnv(small_cfg())
        env.reset(map_seed=3)
        env._check_terminal()
        robot = Circle(Vec2(env.x, env.y), env.config.robot_radius)
        assert env._clearance == reference_closest_distance(robot, env.static_shapes)


class TestGridConnected:
    def check(self, free, start, goal):
        got = _grid_connected(free, start, goal)
        assert got == reference_grid_connected(free, start, goal)
        return got

    def test_random_grids_match_bfs(self, rng):
        for density in (0.2, 0.35, 0.45, 0.6):
            for _ in range(50):
                n, m = (int(v) for v in rng.integers(1, 25, 2))
                free = rng.random((n, m)) > density
                start = (int(rng.integers(n)), int(rng.integers(m)))
                goal = (int(rng.integers(n)), int(rng.integers(m)))
                self.check(free, start, goal)

    def test_obstacle_grids_match_bfs(self, rng):
        cfg = small_cfg(obstacle_size_range=(0.8, 2.5))
        found = set()
        for _ in range(30):
            obstacles = [_sample_obstacle(rng, cfg) for _ in range(int(rng.integers(4, 60)))]
            free, _ = _grid_free(obstacles, cfg)
            cells = np.argwhere(free)
            for _ in range(3):
                start, goal = (tuple(int(v) for v in cells[rng.integers(len(cells))]) for _ in range(2))
                found.add(self.check(free, start, goal))
        assert found == {True, False}

    def test_blocked_start_or_goal(self):
        free = np.ones((6, 7), dtype=bool)
        free[2, 3] = False
        assert not self.check(free, (2, 3), (5, 6))
        assert not self.check(free, (0, 0), (2, 3))
        assert not self.check(free, (2, 3), (2, 3))

    def test_start_equals_goal(self):
        free = np.zeros((5, 5), dtype=bool)
        free[4, 0] = True  # walled in on every side
        assert self.check(free, (4, 0), (4, 0))

    def test_edge_cells(self):
        for n, m in ((1, 1), (1, 9), (9, 1), (8, 8)):
            free = np.ones((n, m), dtype=bool)
            assert self.check(free, (0, 0), (n - 1, m - 1))
            assert self.check(free, (n - 1, m - 1), (0, 0))
        free = np.ones((8, 8), dtype=bool)
        free[:, 4] = False
        assert not self.check(free, (0, 0), (7, 7))
        free[7, 4] = True  # a gap in the bottom row
        assert self.check(free, (0, 0), (0, 7))

    def test_serpentine_maze(self):
        n, m = 41, 30
        free = np.ones((n, m), dtype=bool)
        for k, row in enumerate(range(1, n, 2)):  # walls with gaps at alternating ends
            free[row] = False
            free[row, -1 if k % 2 == 0 else 0] = True
        assert self.check(free, (0, 0), (n - 1, m - 1))
        assert self.check(free, (n - 1, 0), (0, m - 1))
        free[n // 2, :] = False  # close one gap
        assert not self.check(free, (0, 0), (n - 1, m - 1))


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
                t = out.record.t
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
                trace.append((out.reward, env.x, env.y, env.heading))
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
        assert env.heading > 0.5

    @pytest.mark.parametrize("action", [(math.nan, 0.0), (0.3, math.nan), (math.nan, math.nan)])
    def test_nan_action_rejected_before_any_change(self, action):
        """A NaN component raises before the step changes any state: the
        episode then goes on exactly like one that never saw it."""
        from socnavsim.evaluation import suite_config

        cfg = suite_config("combined:8", small_cfg(noise_sigma=0.05))

        def rollout(bad):
            env = NavEnv(cfg)
            env.reset(map_seed=2, crowd_seed=3)
            outs = [env.step((0.8, 0.2))]
            if bad is not None:
                with pytest.raises(ValueError, match="NaN"):
                    env.step(bad)
            outs += [env.step((0.5, -0.4)) for _ in range(3)]
            return [(repr((o.reward, o.done, o.record, o.observation.goal_vector)),
                     o.observation.matrix.tobytes()) for o in outs]

        assert rollout(action) == rollout(None)

    def test_infinite_action_clamps(self):
        def pose(action):
            env = NavEnv(small_cfg(map_seed=5))
            env.reset()
            out = env.step(action)
            return out.record.x, out.record.y, out.record.heading, out.record.v_l, out.record.omega

        assert pose((math.inf, -math.inf)) == pose((1.5, -1.5))

    def test_scans_advance_four_per_step(self):
        env = NavEnv(small_cfg())
        env.reset()
        t0 = env.scan_history[-1].timestamp
        env.step((0.0, 0.0))
        assert env.scan_history[-1].timestamp == t0 + 4


class TestStepAgainstOracles:
    def test_rewards_equal_pedestrian_oracle(self):
        """Each step's ego part comes from the collision check's clearance
        and its social violations from the one-pass zone test; both equal
        the Pedestrian-list oracle recomputed from the stepped state."""
        from socnavsim.evaluation import suite_config

        violations = ego_steps = 0
        for suite, seed in (("crowd:random:20", 1), ("combined:8", 2), ("crowd:towards:8", 3)):
            env = NavEnv(suite_config(suite, small_cfg(max_steps=80)))
            env.reset(map_seed=seed, crowd_seed=seed + 10)
            rng = np.random.default_rng(seed)
            for _ in range(80):
                out = env.step((1.2, float(rng.uniform(-0.6, 0.6))))
                robot = Circle(Vec2(env.x, env.y), env.config.robot_radius)
                peds = unpack(env.crowd)
                r_ego, _ = ego_reward(clearance(robot, peds, env.static_shapes), robot.radius)
                assert out.reward_parts[0] == r_ego
                zone = social_zone(robot.center, env.robot_motion_heading, robot.radius, env.v_l)
                near = [p for p in peds if (p.position - robot.center).norm() <= 5.0]
                assert out.record.social_violations == sum(rects_intersect(zone, p.zone()) for p in near)
                violations += out.record.social_violations
                ego_steps += out.record.ego_violation
                if out.done is not Status.RUNNING:
                    break
        assert violations > 0 and ego_steps > 0

    def test_step_builds_no_objects_per_pedestrian(self, monkeypatch):
        """NavEnv.step builds no Vec2, Circle or OrientedRect object and
        makes no dataclasses.replace copy, with 20 pedestrians or with
        none; the reset that builds the walls does build Vec2s, and the
        config copies below are counted, so both counters are live."""
        import dataclasses
        import sys

        from socnavsim import geometry
        from socnavsim.evaluation import suite_config

        built = collections.Counter()
        for cls in (geometry.Vec2, geometry.Circle, geometry.OrientedRect):
            def counting(self, original=cls.__post_init__, name=cls.__name__):
                built[name] += 1
                original(self)

            monkeypatch.setattr(cls, "__post_init__", counting)

        def counting_replace(*args, _original=dataclasses.replace, **kwargs):
            built["replace"] += 1
            return _original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("socnavsim") and getattr(module, "replace", None) is dataclasses.replace:
                monkeypatch.setattr(module, "replace", counting_replace)
        monkeypatch.setattr(dataclasses, "replace", counting_replace)

        def per_step(cfg):
            env = NavEnv(cfg)
            built.clear()
            env.reset(map_seed=4, crowd_seed=9)
            assert built["Vec2"] > 0
            counts = []
            for _ in range(6):
                built.clear()
                out = env.step((0.6, 0.1))
                counts.append(sum(built.values()))
                assert out.done is Status.RUNNING
            return counts, len(env.crowd)

        crowded = suite_config("combined:20", small_cfg())
        built.clear()
        empty = dataclasses.replace(crowded, crowd=dataclasses.replace(crowded.crowd, count=0,
                                                                       walk_in_probability=0.0))
        assert built["replace"] == 2
        (with_crowd, n), (without, m) = per_step(crowded), per_step(empty)
        assert (n, m) == (20, 0)
        assert with_crowd == without == [0] * 6


class TestScanOncePerPose:
    """The scanner casts once per reset and once per control tick; every
    other scan tick reads the kept sweep."""

    def rollout(self, env_cls, cfg, actions, monkeypatch):
        """Outcomes of one episode, with the casts and control ticks counted
        per call (the reset first, then each step)."""
        from socnavsim import lidar

        counts = collections.Counter()
        with monkeypatch.context() as m:
            for module, name in ((lidar, "cast_fan"), (world, "step_crowd")):
                def counted(*args, _original=getattr(module, name), _name=name, **kwargs):
                    counts[_name] += 1
                    return _original(*args, **kwargs)

                m.setattr(module, name, counted)
            env = env_cls(cfg)
            outs, tallies = [env.reset(map_seed=4, crowd_seed=9)], [dict(counts)]
            for a in actions:
                counts.clear()
                outs.append(env.step(a))
                tallies.append(dict(counts))
                if outs[-1].done is not Status.RUNNING:
                    break
        return outs, tallies

    def check_parity(self, cfg, monkeypatch, actions=None):
        if actions is None:
            actions = np.random.default_rng(1).uniform(-1.5, 1.5, (40, 2))
        got, tallies = self.rollout(NavEnv, cfg, actions, monkeypatch)
        want, _ = self.rollout(CastEveryTickEnv, cfg, actions, monkeypatch)
        assert len(got) == len(want)
        assert got[0].matrix.tobytes() == want[0].matrix.tobytes()
        for a, b in zip(got[1:], want[1:]):
            assert a.observation.matrix.tobytes() == b.observation.matrix.tobytes()
            assert a.observation.goal_vector == b.observation.goal_vector
            assert repr((a.reward, a.reward_parts, a.done, a.record)) == repr(
                (b.reward, b.reward_parts, b.done, b.record))
        assert tallies[0] == {"cast_fan": 1}
        for tally in tallies[1:]:
            assert tally["cast_fan"] == tally["step_crowd"]
        return got, tallies

    def test_noisy_combined_8(self, monkeypatch):
        from socnavsim.evaluation import suite_config

        cfg = suite_config("combined:8", small_cfg(noise_sigma=0.05))
        got, _ = self.check_parity(cfg, monkeypatch)
        assert len(got) > 10

    def test_crowd_random_20(self, monkeypatch):
        from socnavsim.evaluation import suite_config

        cfg = suite_config("crowd:random:20", small_cfg())
        got, _ = self.check_parity(cfg, monkeypatch)
        assert len(got) > 10

    @pytest.mark.parametrize("start_x, last_controls", [(4.0, 2), (4.0375, 1)])
    def test_collision_mid_step(self, monkeypatch, start_x, last_controls):
        """Driving into the wall at x = 5: the robot collides on the second
        control tick of a step, or on the first, after which the step runs
        no control tick and its remaining scans read the kept sweep."""
        cfg = small_cfg(obstacle_count_range=(0, 0), start=(start_x, 0.0), goal=(-4.0, 0.0),
                        start_heading=0.0, noise_sigma=0.05)
        got, tallies = self.check_parity(cfg, monkeypatch, actions=[(1.5, 0.0)] * 10)
        assert got[-1].done is Status.COLLIDED
        assert tallies[-1]["step_crowd"] == last_controls

    def test_kept_sweep_is_read_only_and_scans_are_fresh(self):
        env = NavEnv(small_cfg(map_seed=3))
        env.reset()
        env.step((0.8, 0.3))
        assert not env._sweep.flags.writeable
        with pytest.raises(ValueError):
            env._sweep[0] = 1.0
        first = env._scan()
        want = first.ranges.copy()
        first.ranges[:] = 0.5
        assert env._scan().ranges.tobytes() == want.tobytes()
        assert not np.shares_memory(env.scan_history[-1].ranges, env._sweep)


class TestBenchmarkProbes:
    def test_probes_keep_their_meaning(self, monkeypatch):
        """Every name perfbench/layers.py wraps resolves, and its probes still
        count pedestrians per crowd step, shapes per cast (a rectangle
        once) and considered pedestrians per assessment."""
        from socnavsim.evaluation import suite_config

        monkeypatch.syspath_prepend(str(pathlib.Path(__file__).parent.parent / "perfbench"))
        import layers
        import tracing

        calls = collections.defaultdict(list)
        for target in layers.TARGETS:
            owner = tracing.resolve(target.owner)
            original = getattr(owner, target.attr)
            if target.span in ("crowd.step_crowd", "crowd.orca_velocity", "geometry.cast_fan",
                               "rewards.assess"):
                def spy(*args, _original=original, _target=target, **kwargs):
                    result = _original(*args, **kwargs)
                    counts = _target.probe(args, kwargs, result) if _target.probe else {}
                    calls[_target.span].append((args, result, counts))
                    return result

                monkeypatch.setattr(owner, target.attr, spy)

        env = NavEnv(suite_config("combined:20", small_cfg()))
        env.reset(map_seed=4, crowd_seed=9)
        for _ in range(5):
            calls.clear()
            env.step((0.6, 0.1))
            walking = 0
            for (crowd, *_), result, counts in calls["crowd.step_crowd"]:
                assert counts["peds"] == len(unpack(crowd)) == 20
                walking += int((result.stopped[: len(crowd)] == 0).sum())
            assert len(calls["crowd.orca_velocity"]) == walking > 0
            shapes = len(env.static_shapes) + len(unpack(env.crowd))
            for args, _, counts in calls["geometry.cast_fan"]:
                assert counts["beam_shape_pairs"] == len(args[1]) * shapes
            ((args, _, counts),) = calls["rewards.assess"]
            near = [p for p in unpack(env.crowd) if (p.position - Vec2(env.x, env.y)).norm() <= 5.0]
            assert counts["considered"] == len(near)


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

    @pytest.mark.parametrize("name", ["arena_half", "heading_gain", "turn_rate_cap"])
    @pytest.mark.parametrize("value", [-2.0, 0.0, math.nan, math.inf])
    def test_gains_and_arena_must_be_finite_and_positive(self, name, value):
        with pytest.raises(ValueError, match=name):
            EnvConfig(walls=False, **{name: value})

    @pytest.mark.parametrize("name", ["start", "goal"])
    @pytest.mark.parametrize("point", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)])
    def test_start_and_goal_must_be_finite(self, name, point):
        with pytest.raises(ValueError, match=name):
            EnvConfig(walls=False, obstacle_count_range=(0, 0), **{name: point})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_start_heading_must_be_finite(self, value):
        with pytest.raises(ValueError, match="start_heading"):
            EnvConfig(start_heading=value)

    @pytest.mark.parametrize("value", [-0.01, math.nan, math.inf])
    def test_noise_sigma_must_be_finite_and_nonnegative(self, value):
        with pytest.raises(ValueError, match="noise_sigma"):
            EnvConfig(noise_sigma=value)

    def test_readme_defaults_match(self):
        """The YAML block under "Environment config" in the README lists
        every key at its default."""
        readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
        section = readme.split("## Environment config", 1)[1]
        block = section.split("```yaml\n", 1)[1].split("```", 1)[0]
        assert yaml.safe_load(block) == EnvConfig().to_dict()

    def test_shipped_and_wall_free_configs_load(self, tmp_path):
        root = pathlib.Path(__file__).parent.parent / "configs"
        for path in sorted(root.glob("*.yaml")):
            load_config(path)
        path = tmp_path / "open.yaml"
        path.write_text("start: [4.8, 0.0]\nwalls: false\n")  # no wall to overlap
        assert load_config(path).start == (4.8, 0.0)

    @pytest.mark.parametrize(
        "text",
        [
            "robot_radius: 0.0\n",  # the robot's Circle would only raise once a step ran
            "goal_tolerance: 0.0\n",
            "noise_sigma: -0.01\n",  # would silently turn the noise off
            "noise_sigma: .inf\n",  # every beam would read a bound
            "noise_sigma: .nan\n",
            "scenario: zigzag\n",
            "obstacle_count_range: [-1, 3]\n",
            "obstacle_size_range: [0.0, 0.5]\n",
            "crowd: {walk_in_probability: -0.1}\n",
            "crowd: {stop_go_probability: 1.5}\n",
            "crowd: {rect_shape_probability: 1.01}\n",
            "crowd: {area: [0.0, 5.0]}\n",
            "crowd: {area: [5.0, -1.0]}\n",
        ],
    )
    def test_out_of_range_values_rejected(self, tmp_path, text):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        with pytest.raises(ValueError):
            load_config(path)

    @pytest.mark.parametrize("scenario", [None, "crossing", "towards", "ahead", "random"])
    def test_boundary_values_accepted(self, scenario):
        cfg = EnvConfig(
            noise_sigma=0.0,
            scenario=scenario,
            obstacle_count_range=(0, 0),
            obstacle_size_range=(1e-3, 1e-3),
            crowd=CrowdConfig(walk_in_probability=1.0, stop_go_probability=0.0,
                              rect_shape_probability=1.0, area=(1e-3, 1e-3)),
        )
        assert EnvConfig.from_dict(cfg.to_dict()) == cfg

    def test_suite_configs_load(self):
        from socnavsim.evaluation import suite_config

        root = pathlib.Path(__file__).parent.parent / "configs"
        for path in [None, *sorted(root.glob("*.yaml"))]:
            base = load_config(path) if path else EnvConfig()
            for suite in ("mapless", "combined", "combined:8", "crowd:crossing:12",
                          "crowd:towards:8", "crowd:ahead:4", "crowd:random:20"):
                suite_config(suite, base)

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            EnvConfig(scan_hz=40, control_hz=30)

    def test_walls_present_by_default(self):
        walls = arena_walls(5.0)
        assert len(walls) == 4

import collections
import dataclasses
import math
import pathlib

import numpy as np
import pytest
import yaml

from socnavsim import world
from socnavsim.crowd import CrowdConfig
from socnavsim import rewards
from socnavsim.geometry import StaticMap, closest_distance, wrap_angle
from socnavsim.rewards import ego_reward
from socnavsim.world import (
    GRID_RESOLUTION,
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
)

from conftest import (Circle, rows_grid_free, save_config, OrientedRect, Segment, Vec2, CastEveryTickEnv,
                      EveryTickCrowdEnv, clearance, closest_distance_of, gathered,
                      point_rect_signed_distance, reference_arena_walls, reference_closest_distance,
                      reference_grid_connected, reference_grid_free, reference_randomize_map,
                      reference_sample_obstacle, reference_static_shapes, rects_intersect, social_zone, to_map,
                      unpack)


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

    def test_clamp_is_np_clip(self):
        """clamp returns the very float np.clip does, signed zeros, NaNs,
        infinities and the bounds themselves included."""
        xs = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 1e-300, -1e-300, 0.7, -0.7,
              1.5, -1.5, math.nextafter(1.5, 2.0), math.nextafter(-1.5, -2.0), math.pi, -math.pi,
              math.nextafter(math.pi, 4.0), math.nextafter(-math.pi, -4.0), 99.0, -99.0]
        bounds = [(0.0, 1.5), (-0.0, 1.5), (-1.5, 1.5), (-math.pi, math.pi)]
        for lo, hi in bounds:
            for x in xs:
                got = np.float64(world.clamp(x, lo, hi)).tobytes()
                assert got == np.float64(np.clip(x, lo, hi)).tobytes(), (x, lo, hi)

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
        m = randomize_map(np.random.default_rng(0), cfg)
        assert m.is_rect.size == m.circles.size == m.rects.size == m.walls.size == 0

    def test_same_seed_same_map(self):
        cfg = small_cfg()
        a = randomize_map(np.random.default_rng(42), cfg)
        b = randomize_map(np.random.default_rng(42), cfg)
        fields = ("circles", "rects", "walls", "is_rect")
        assert [getattr(a, f).tobytes() for f in fields] == [getattr(b, f).tobytes() for f in fields]

    def test_start_goal_discs_respected(self):
        cfg = small_cfg()
        for seed in range(20):
            for disc_center in (cfg.start, cfg.goal):
                obstacles = randomize_map(np.random.default_rng(seed), cfg)
                if len(obstacles.is_rect):
                    assert closest_distance((*disc_center, 0.8), obstacles.distances()) > 0.0

    def test_rect_anchor_from_raw_heading(self):
        """A rectangle's anchor is set back along the heading as drawn, and
        its row keeps the heading wrapped, as the OrientedRect oracle does;
        the scripted heading is one that wrap_angle moves by an ulp."""

        class Scripted:  # the generator's draws, in order
            def __init__(self, draws):
                self.draws = iter(draws)

            def uniform(self, *bounds):
                return next(self.draws)

            random = uniform

        heading = 1.2345678912345
        assert wrap_angle(heading) != heading
        draws = (0.3, -1.1, 0.9, 0.8, 0.6, heading)
        _, (row,) = world._sample_obstacle(Scripted(draws), small_cfg())
        want = reference_sample_obstacle(Scripted(draws), small_cfg())
        assert row == (want.anchor.x, want.anchor.y, want.heading, want.half_width, want.length)
        assert row[0] == 0.3 - math.cos(heading) * 0.4 != 0.3 - math.cos(row[2]) * 0.4

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
            checks.append(len(obstacles.is_rect))
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
            shapes = reference_randomize_map(np.random.default_rng(seed), cfg) + reference_arena_walls(cfg.arena_half)
            shapes += [Segment(Vec2(*rng.uniform(-5, 5, 2)), Vec2(*rng.uniform(-5, 5, 2))) for _ in range(3)]
            poses = [Vec2(*rng.uniform(-cfg.arena_half - 0.5, cfg.arena_half + 0.5, 2)) for _ in range(40)]
            for rect in (s for s in shapes if isinstance(s, OrientedRect)):
                fwd, left = rect.axes()
                for u, v in rng.uniform(-0.99, 0.99, (4, 2)):
                    p = rect.anchor + fwd * (rect.length * (u + 1.0) / 2.0) + left * (rect.half_width * v)
                    inside += point_rect_signed_distance(p, rect) < 0.0
                    poses.append(p)
            packed = to_map(shapes).distances()
            for p in poses:
                robot = Circle(p, float(rng.uniform(0.1, 0.5)))
                want = reference_closest_distance(robot, shapes).hex()
                assert packed.closest_distance(p.x, p.y, robot.radius).hex() == want
                assert closest_distance_of(robot, shapes).hex() == want
        assert inside > 100

    def test_env_clearance_uses_every_static_shape(self):
        env = NavEnv(small_cfg())
        env.reset(map_seed=3)
        env._check_terminal()
        robot = Circle(Vec2(env.x, env.y), env.config.robot_radius)
        assert env._clearance == reference_closest_distance(robot, reference_static_shapes(env.config, 3))


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
            obstacles = [reference_sample_obstacle(rng, cfg) for _ in range(int(rng.integers(4, 60)))]
            free, _ = _grid_free(to_map(obstacles), cfg)
            assert np.array_equal(free, reference_grid_free(obstacles, cfg)[0])
            cells = np.argwhere(free)
            for _ in range(3):
                start, goal = (tuple(int(v) for v in cells[rng.integers(len(cells))]) for _ in range(2))
                found.add(self.check(free, start, goal))
        assert found == {True, False}

    def test_seeded_maps_match_full_grid_oracles(self):
        """Over 320 seeded maps, at the default and at a dense obstacle
        range: the windowed grid fill equals one full-grid pass per shape
        (conftest.rows_grid_free) bit for bit, and the corridor answer
        equals a breadth-first search of that grid."""
        answers = []
        for seed in range(320):
            rng = np.random.default_rng(seed)
            cfg = EnvConfig() if seed % 2 else EnvConfig(obstacle_count_range=(10, 30),
                                                         obstacle_size_range=(0.8, 2.5))
            rows = [_sample_obstacle(rng, cfg) for _ in range(int(rng.integers(*cfg.obstacle_count_range)))]
            static_map = StaticMap([c for cs, _ in rows for c in cs], [r for _, rs in rows for r in rs],
                                   is_rect=[bool(rs) for _, rs in rows])
            free, origin = _grid_free(static_map, cfg)
            want, want_origin = rows_grid_free(static_map, cfg)
            assert free.tobytes() == want.tobytes() and origin == want_origin
            cell = lambda p: tuple(int(round((v - origin) / GRID_RESOLUTION)) for v in p)  # noqa: E731
            answer = corridor_exists(static_map, cfg)
            assert answer == reference_grid_connected(want, cell(cfg.start), cell(cfg.goal))
            answers.append(answer)
        assert 20 < sum(answers) < 300

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
    def test_reward_parts_sum(self, monkeypatch):
        """Each step's record keeps the three parts of its assessment, whose
        total they sum to."""
        assessments = []

        def kept(*args, _original=rewards.assess, **kwargs):
            assessments.append(_original(*args, **kwargs))
            return assessments[-1]

        monkeypatch.setattr(rewards, "assess", kept)
        env = NavEnv(small_cfg(map_seed=5))
        env.reset()
        for _ in range(20):
            r = env.step((1.0, 0.2)).record
            (a,) = assessments
            assessments.clear()
            assert (r.r_ego, r.r_social, r.r_goal) == (a.r_ego, a.r_social, a.r_goal)
            assert a.total == r.r_ego + r.r_social + r.r_goal
            if env.status is not Status.RUNNING:
                break

    def test_on_goal_reports_reached(self):
        cfg = small_cfg(obstacle_count_range=(0, 0), start=(3.3, 0.0), goal=(3.5, 0.0))
        env = NavEnv(cfg)
        env.reset()
        out = env.step((0.0, 0.0))
        assert out.done is Status.REACHED
        assert out.record.r_goal == 10.0

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
        assert done.record.r_ego == -10.0

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
        feat = gathered(obs)
        assert feat.shape == (40, 64)
        assert feat.min() >= np.float32(0.01) and feat.max() <= 1.0
        out = env.step((0.5, 0.5))
        assert gathered(out.observation).shape == (40, 64)

    def test_episode_determinism(self):
        cfg = small_cfg(crowd=CrowdConfig(count=3, walk_in_probability=0.05))
        actions = np.random.default_rng(1).uniform(-1.5, 1.5, (30, 2))

        def rollout():
            env = NavEnv(cfg)
            env.reset(map_seed=9, crowd_seed=13)
            trace = []
            for a in actions:
                out = env.step(a)
                trace.append((out.record, env.x, env.y, env.heading))
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
            return [(repr((o.done, o.record, o.observation.goal_vector)),
                     gathered(o.observation).tobytes()) for o in outs]

        assert rollout(action) == rollout(None)

    def test_infinite_action_clamps(self):
        def pose(action):
            env = NavEnv(small_cfg(map_seed=5))
            env.reset()
            out = env.step(action)
            return out.record.x, out.record.y, out.record.heading, out.record.v_l, out.record.omega

        assert pose((math.inf, -math.inf)) == pose((1.5, -1.5))

    def test_scans_advance_four_per_step(self):
        """A step appends four (heading, Scan) scans to the history, which
        the reset filled with forty copies of its one scan."""
        env = NavEnv(small_cfg())
        env.reset()
        first = env.scan_history[-1]
        assert all(scan is first for scan in env.scan_history)
        env.step((0.0, 0.0))
        assert [scan is first for scan in env.scan_history] == [True] * 36 + [False] * 4
        assert all(heading == env.heading for heading, _ in list(env.scan_history)[-4:])


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
            static = reference_static_shapes(env.config, seed)
            rng = np.random.default_rng(seed)
            for _ in range(80):
                out = env.step((1.2, float(rng.uniform(-0.6, 0.6))))
                robot = Circle(Vec2(env.x, env.y), env.config.robot_radius)
                peds = unpack(env.crowd)
                r_ego, _ = ego_reward(clearance(robot, peds, static), robot.radius)
                assert out.record.r_ego == r_ego
                zone = social_zone(robot.center, env.robot_motion_heading, robot.radius, env.v_l)
                near = [p for p in peds if (p.position - robot.center).norm() <= 5.0]
                assert out.record.social_violations == sum(rects_intersect(zone, p.zone()) for p in near)
                violations += out.record.social_violations
                ego_steps += out.record.ego_violation
                if out.done is not Status.RUNNING:
                    break
        assert violations > 0 and ego_steps > 0

    def test_step_builds_no_objects_per_pedestrian(self, monkeypatch):
        """NavEnv.step builds a pinned tally of dataclass instances per step,
        whatever the crowd size: counted are every dataclass defined under
        socnavsim and the test-side Vec2, Circle, Segment and OrientedRect,
        and dataclasses.replace copies.  The config copies below are
        counted, so the replace counter is live."""
        import dataclasses
        import inspect
        import sys

        from socnavsim.evaluation import suite_config

        classes = {Vec2, Circle, Segment, OrientedRect}
        for name, module in list(sys.modules.items()):
            if name.startswith("socnavsim"):
                classes |= {cls for _, cls in inspect.getmembers(module, inspect.isclass)
                            if dataclasses.is_dataclass(cls) and cls.__module__ == name}
        assert {"MotionFeature", "StepRecord", "Scene", "Crowd", "EnvConfig"} <= {c.__name__ for c in classes}

        built = collections.Counter()
        for cls in classes:
            def counting(self, *args, _original=cls.__init__, _name=cls.__name__, **kwargs):
                built[_name] += 1
                _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)

        def counting_replace(*args, _original=dataclasses.replace, **kwargs):
            built["replace"] += 1
            return _original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("socnavsim") and getattr(module, "replace", None) is dataclasses.replace:
                monkeypatch.setattr(module, "replace", counting_replace)
        monkeypatch.setattr(dataclasses, "replace", counting_replace)

        def per_step(cfg):
            env = NavEnv(cfg)
            env.reset(map_seed=4, crowd_seed=9)
            tallies = []
            for _ in range(6):
                built.clear()
                out = env.step((0.6, 0.1))
                tallies.append(dict(built))
                assert out.done is Status.RUNNING
            return tallies, len(env.crowd)

        crowded = suite_config("combined:20", small_cfg())
        built.clear()
        empty = dataclasses.replace(crowded, crowd=dataclasses.replace(crowded.crowd, count=0,
                                                                       walk_in_probability=0.0))
        assert built["replace"] == 2
        (with_crowd, n), (without, m) = per_step(crowded), per_step(empty)
        assert (n, m) == (20, 0)
        # one of each per policy step; per control tick (two a step), the
        # stepped Crowd and two Scenes: its scanner view and that joined to the map's
        outputs = {"MotionFeature": 1, "StepOutcome": 1, "StepRecord": 1, "SafetyAssessment": 1}
        assert with_crowd == [{**outputs, "Crowd": 2, "Scene": 4}] * 6
        assert without == [outputs] * 6


class TestScanOncePerPose:
    """Each reset and control tick records one sweep and each scan tick a
    scan of it, with its noise drawn at the tick; a sweep is cast, and a
    scan read, the first time something reads its ranges.
    CastEveryTickEnv, which casts and reads every scan at its tick, is
    the oracle."""

    def rollout(self, env_cls, cfg, actions, monkeypatch, read):
        """One episode: its observations (the reset's first), its step
        outcomes, the noise_rng state as each call returned, and the casts
        and control ticks (pose integrations) of each call (the reset
        first, then each step) counted with read(observation, terminal)
        of its observation."""
        from socnavsim import lidar

        counts = collections.Counter()
        with monkeypatch.context() as m:
            for module, name in ((lidar, "cast_fan"), (world, "integrate")):
                def counted(*args, _original=getattr(module, name), _name=name, **kwargs):
                    counts[_name] += 1
                    return _original(*args, **kwargs)

                m.setattr(module, name, counted)
            env = env_cls(cfg)
            seen, outs, states, tallies = [env.reset(map_seed=4, crowd_seed=9)], [], [], []
            while True:
                states.append(repr(env.noise_rng.bit_generator.state))
                done = bool(outs) and outs[-1].done is not Status.RUNNING
                read(seen[-1], done)
                tallies.append(dict(counts))
                if done or len(outs) == len(actions):
                    return seen, outs, states, tallies
                counts.clear()
                outs.append(env.step(actions[len(outs)]))
                seen.append(outs[-1].observation)

    @staticmethod
    def every_row(obs, terminal):
        gathered(obs)

    @staticmethod
    def newest(obs, terminal):
        """What a greedy episode reads: the newest scan, but not of the
        terminal observation, which no policy acts on."""
        if not terminal:
            obs.current_scan_ranges

    def check_parity(self, cfg, actions, monkeypatch, every_row=True):
        """The env steps bit for bit like the oracle, draws the same noise
        by each step's end, and casts once per reset and per control tick
        when every row is read, or once per step, and never for a
        terminal observation, when only the newest scan is."""
        read = self.every_row if every_row else self.newest
        if actions is None:
            actions = np.random.default_rng(1).uniform(-1.5, 1.5, (40, 2))
        seen, outs, states, tallies = self.rollout(NavEnv, cfg, actions, monkeypatch, read)
        want_seen, want_outs, want_states, _ = self.rollout(CastEveryTickEnv, cfg, actions, monkeypatch,
                                                            self.every_row)
        assert states == want_states
        assert len(seen) == len(want_seen)
        for a, b in zip(seen, want_seen):
            assert a.current_scan_ranges.tobytes() == b.current_scan_ranges.tobytes()
            assert gathered(a).tobytes() == gathered(b).tobytes()
            assert a.goal_vector == b.goal_vector
            assert a.initial_goal_distance == b.initial_goal_distance
        assert [repr((o.done, o.record)) for o in outs] == [repr((o.done, o.record)) for o in want_outs]
        assert tallies[0] == {"cast_fan": 1}
        terminal = outs[-1].done is not Status.RUNNING
        for i, tally in enumerate(tallies[1:], 1):
            if every_row:
                assert tally.get("cast_fan", 0) == tally["integrate"]
            else:
                assert tally.get("cast_fan", 0) == (0 if terminal and i == len(outs) else 1)
        return outs, tallies

    @staticmethod
    def case(name):
        """(config, actions) of a parity case; None actions: 40 random ones."""
        from socnavsim.evaluation import suite_config

        if name == "noisy combined:8":
            return suite_config("combined:8", small_cfg(noise_sigma=0.05)), None
        if name in ("crowd:random:20", "noisy crowd:random:20"):
            return suite_config("crowd:random:20", small_cfg(noise_sigma=0.05 if "noisy" in name else 0.0)), None
        # "wall <start x>": full speed into the wall at x = 5
        cfg = small_cfg(obstacle_count_range=(0, 0), start=(float(name.split()[1]), 0.0), goal=(-4.0, 0.0),
                        start_heading=0.0, noise_sigma=0.05)
        return cfg, [(1.5, 0.0)] * 10

    def test_noisy_combined_8(self, monkeypatch):
        got, _ = self.check_parity(*self.case("noisy combined:8"), monkeypatch)
        assert len(got) > 10

    def test_crowd_random_20(self, monkeypatch):
        got, _ = self.check_parity(*self.case("crowd:random:20"), monkeypatch)
        assert len(got) > 10

    @pytest.mark.parametrize("start_x, last_controls", [(4.0, 2), (4.0375, 1)])
    def test_collision_mid_step(self, monkeypatch, start_x, last_controls):
        """Driving into the wall at x = 5: the robot collides on the second
        control tick of a step, or on the first, after which the step runs
        no control tick and its remaining scans read the kept sweep."""
        got, tallies = self.check_parity(*self.case(f"wall {start_x}"), monkeypatch)
        assert got[-1].done is Status.COLLIDED
        assert tallies[-1] == {"integrate": last_controls, "cast_fan": last_controls}

    @pytest.mark.parametrize("name", ["noisy combined:8", "noisy crowd:random:20", "wall 4.0", "wall 4.0375"])
    def test_newest_scan_only(self, monkeypatch, name):
        """Read as a greedy episode reads, the env casts once per step and
        not at all for a terminal observation, and still steps bit for
        bit like the oracle."""
        got, tallies = self.check_parity(*self.case(name), monkeypatch, every_row=False)
        assert len(got) > 10 or got[-1].done is Status.COLLIDED
        if name.startswith("wall"):
            assert tallies[-1].get("cast_fan", 0) == 0

    def test_kept_sweep_is_read_only_and_scans_are_fresh(self):
        """Reading a scan twice returns the one read-only array; the two
        scans of a control tick read its one read-only sweep, each into a
        fresh array of its own, and nothing is cast before a read."""
        env = NavEnv(small_cfg(map_seed=3))
        env.reset()
        env.step((0.8, 0.3))
        sweep = env._sweep
        (_, a), (_, b) = list(env.scan_history)[-2:]
        assert a._ranges is None and b._ranges is None and sweep._ranges is None
        first = a.ranges
        assert a.ranges is first and not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 1.0
        assert not sweep.ranges.flags.writeable
        assert b.ranges is not first and b.ranges.tobytes() == first.tobytes()
        assert not np.shares_memory(first, sweep.ranges) and not np.shares_memory(b.ranges, sweep.ranges)
        assert a.normalized is a.normalized and not a.normalized.flags.writeable


class TestCrowdFreeTicks:
    """A control tick steps the crowd only when it has pedestrians or may
    gain one.  EveryTickCrowdEnv, which steps it at every control tick,
    is the oracle: seeded crowd-free episodes, and walk-in episodes that
    start with no pedestrians, step bit for bit like it."""

    @staticmethod
    def rollouts(env_cls, cfg, monkeypatch):
        """Three seeded episodes under 40 random actions: per episode its
        observations' stacks and goal vectors, its step outcomes, both env
        streams' final states and its crowd rows; and the number of
        step_crowd calls of all three."""
        from socnavsim.evaluation import episode_seeds

        actions = np.random.default_rng(1).uniform(-1.5, 1.5, (40, 2))
        calls, episodes = [], []
        with monkeypatch.context() as m:
            m.setattr(world, "step_crowd", lambda *args, _real=world.step_crowd: calls.append(1) or _real(*args))
            for _, map_seed, crowd_seed in episode_seeds(5, 3):
                env = env_cls(cfg)
                seen, outs = [env.reset(map_seed=map_seed, crowd_seed=crowd_seed)], []
                for action in actions:
                    outs.append(env.step(action))
                    seen.append(outs[-1].observation)
                    if outs[-1].done is not Status.RUNNING:
                        break
                episodes.append((
                    [(gathered(o).tobytes(), o.goal_vector) for o in seen],
                    [repr((o.done, o.record)) for o in outs],
                    repr(env.crowd_rng.bit_generator.state),
                    repr(env.noise_rng.bit_generator.state),
                    env.crowd.rows,
                ))
        return episodes, len(calls)

    @pytest.mark.parametrize("walk_in", [0.0, 0.3])
    def test_episodes_equal_stepping_every_tick(self, monkeypatch, walk_in):
        from socnavsim.evaluation import suite_config

        base = small_cfg(noise_sigma=0.05, crowd=CrowdConfig(count=0, walk_in_probability=walk_in))
        if walk_in == 0.0:
            cfg = suite_config("mapless", base)
        else:
            cfg = dataclasses.replace(base, obstacle_count_range=(0, 0))
        got, got_calls = self.rollouts(NavEnv, cfg, monkeypatch)
        want, want_calls = self.rollouts(EveryTickCrowdEnv, cfg, monkeypatch)
        assert got == want
        assert want_calls > 0
        if walk_in == 0.0:
            assert got_calls == 0
        else:
            assert got_calls == want_calls
            assert any(rows for *_, rows in got)  # someone walked in


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
                walking += sum(row[10] == 0 for row in result.rows[: len(crowd)])
            assert len(calls["crowd.orca_velocity"]) == walking > 0
            shapes = len(reference_static_shapes(env.config, 4)) + len(unpack(env.crowd))
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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("crowd:\n", "crowd config must be a mapping"),
            ("crowd: [1, 2]\n", "crowd config must be a mapping"),
            ("- 1\n- 2\n", "config must be a mapping"),
            ("start: 3\n", "config key 'start' must be a list of 2"),
            ("goal: [1.0, 0.0, 0.0]\n", "config key 'goal' must be a list of 2"),
            ("crowd: {area: 5}\n", "crowd config key 'area' must be a list of 2"),
            ("obstacle_count_range: [1.5, 3]\n", "config key 'obstacle_count_range' must be a list of 2 ints"),
            ("max_steps: 2.5\n", "config key 'max_steps' must be int"),
            ("beam_count: true\n", "config key 'beam_count' must be int"),
            ("map_seed: '3'\n", "config key 'map_seed' must be int"),
            ("crowd: {count: 8.0}\n", "crowd config key 'count' must be int"),
            ("arena_half: '5'\n", "config key 'arena_half' must be float"),
            ("walls: 'false'\n", "config key 'walls' must be bool"),
            ("walls: 1\n", "config key 'walls' must be bool"),
            ("scenario: 5\n", "config key 'scenario' must be str"),
        ],
    )
    def test_malformed_entries_name_their_key(self, tmp_path, text, message):
        """An entry that cannot be the field it names fails on load with a
        ValueError naming the key, not a TypeError from deep inside (or, for
        a float where an int belongs, a run that rounds it somewhere)."""
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_config(path)

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
            "obstacle_size_range: [0.3, .inf]\n",  # sampled shapes would be infinite
            "crowd: {walk_in_probability: -0.1}\n",
            "crowd: {stop_go_probability: 1.5}\n",
            "crowd: {rect_shape_probability: 1.01}\n",
            "crowd: {area: [0.0, 5.0]}\n",
            "crowd: {area: [5.0, -1.0]}\n",
            "crowd: {area: [.inf, 5.0]}\n",  # spawn points would be NaN
            "crowd: {center: [.nan, 0.0]}\n",
            "crowd: {radius_range: [0.1, .inf]}\n",  # the spawn would die in numpy's sampler
            "crowd: {speed_range: [0.5, .inf]}\n",
            "crowd: {max_count: -3}\n",  # walk-ins would silently never happen
            # control ticks per policy step not whole: the robot and crowd would move too far
            "scan_hz: 40\ncontrol_hz: 10\npolicy_hz: 20\n",
            "scan_hz: 60\ncontrol_hz: 20\npolicy_hz: 15\n",
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
        with pytest.raises(ValueError, match="got scan_hz 40, control_hz 10 and policy_hz 20"):
            EnvConfig(scan_hz=40, control_hz=10, policy_hz=20)

    def test_walls_present_by_default(self):
        walls = arena_walls(5.0)
        assert len(walls) == 4

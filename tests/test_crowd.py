import collections
import math

import numpy as np
import pytest

from socnavsim.crowd import (
    CrowdConfig,
    orca_lines,
    orca_velocity,
    preferred_velocity,
    spawn_crowd,
    spawn_scenario,
    step_crowd,
)
from socnavsim.geometry import cast_fan

from conftest import (
    Circle,
    OrientedRect,
    Pedestrian,
    Segment,
    Vec2,
    edge_case_peds,
    orca_solve,
    pack,
    reference_cast_fan,
    reference_closest_distance,
    reference_orca_lines,
    reference_orca_velocity,
    reference_step_crowd,
    to_map,
    unpack,
)

NO_DISCS = to_map([]).bounding_discs()


def ped(pid, pos, vel, goal, speed=1.0, radius=0.3):
    return Pedestrian(
        id=pid,
        position=Vec2(*pos),
        velocity=Vec2(*vel),
        pref_speed=speed,
        radius=radius,
        goal=Vec2(*goal),
    )


def solve(p, neighbors, obstacles, dt):
    """orca_velocity for p among the given neighbors, through orca_lines."""
    lines, num_fixed = orca_lines(pack([p, *neighbors]), to_map(obstacles).bounding_discs(), dt)
    return orca_solve(p, lines[0], num_fixed)


def random_point(rng, spread):
    return Vec2(*(float(c) for c in rng.uniform(-spread, spread, 2)))


def random_snapshot(rng):
    """Crowded pedestrians and obstacles that reach every branch of the
    half-plane construction and of the linear programs: twins (colliding
    with zero relative motion, parallel lines), mirror-image neighbors
    (antiparallel lines), circle, rect and degenerate-rect obstacles."""
    spread = float(rng.choice([0.6, 1.0, 2.0]))
    peds = []
    for i in range(int(rng.integers(2, 12))):
        if peds and rng.random() < 0.15:
            twin = peds[int(rng.integers(len(peds)))]
            pos, vel = twin.position, twin.velocity
        else:
            pos, vel = random_point(rng, spread), random_point(rng, 1.5)
        peds.append(Pedestrian(i, pos, vel, float(rng.uniform(0.5, 1.5)),
                               float(rng.uniform(0.15, 0.4)), random_point(rng, 3.0)))
    if rng.random() < 0.2:
        p0, d = peds[0], random_point(rng, 0.3)
        for sign in (1.0, -1.0):
            peds.append(Pedestrian(len(peds), p0.position + d * sign, p0.velocity, 1.0,
                                   p0.radius, p0.goal))
    obstacles = []
    for _ in range(int(rng.integers(0, 4))):
        center, u = random_point(rng, spread), rng.random()
        if u < 0.4:
            obstacles.append(Circle(center, float(rng.uniform(0.1, 0.6))))
            continue
        half_width = 0.0 if u < 0.55 else float(rng.uniform(0.05, 0.5))
        length = 0.0 if 0.55 <= u < 0.7 else float(rng.uniform(0.1, 1.0))
        heading = float(rng.uniform(-math.pi, math.pi))
        obstacles.append(OrientedRect(center, heading, half_width, length))
    if rng.random() < 0.3:
        obstacles.append(Segment(Vec2(-3.0, -3.0), Vec2(3.0, -3.0)))
    return peds, obstacles


class TestOrcaMatchesReference:
    """orca_lines + orca_velocity against the per-pair Vec2 oracle,
    bit for bit."""

    def test_random_snapshots_bitwise(self):
        rng = np.random.default_rng(17)
        hits = collections.Counter()
        kinds = collections.Counter()
        for _ in range(150):
            peds, obstacles = random_snapshot(rng)
            dt = float(rng.choice([0.05, 0.025, 0.1, 1.0 / 3.0]))
            kinds.update(type(s).__name__ for s in obstacles)
            lines, num_fixed = orca_lines(pack(peds), to_map(obstacles).bounding_discs(), dt)
            for i, p in enumerate(peds):
                ref = reference_orca_lines(p, peds, obstacles, dt)
                expected = [[r.point.x, r.point.y, r.direction.x, r.direction.y] for r in ref]
                assert num_fixed + len(peds) - 1 == len(ref)
                assert np.array_equal(lines[i], np.array(expected).reshape(-1, 4))
                v = orca_solve(p, lines[i], num_fixed)
                assert v == reference_orca_velocity(p, peds, obstacles, dt, hits)
        branches = ("cutoff_circle", "left_leg", "right_leg", "colliding", "colliding_w_zero",
                    "obstacle", "lp1_parallel", "lp3", "lp3_parallel_same",
                    "lp3_parallel_opposite")
        assert all(hits[b] > 0 for b in branches), hits
        assert kinds["Circle"] and kinds["OrientedRect"] and kinds["Segment"]

    def test_non_finite_snapshot_raises(self):
        cfg = CrowdConfig(count=2)
        peds = [ped(0, (1e160, 1e160), (1, 0), (0, 0)), ped(1, (-1e160, -1e160), (0, 1), (0, 0))]
        with pytest.raises(ValueError):
            reference_orca_velocity(peds[0], peds, [], 0.05)
        with pytest.raises(ValueError):
            step_crowd(pack(peds), cfg, 0.05, np.random.default_rng(0), NO_DISCS)


class TestOrcaVelocity:
    def test_no_neighbors_returns_preferred(self):
        p = ped(0, (0, 0), (0, 0), (5, 0), speed=1.2)
        v = solve(p, [], [], dt=0.05)
        assert v.x == pytest.approx(1.2, abs=1e-9)
        assert v.y == pytest.approx(0.0, abs=1e-9)

    def test_on_goal_returns_zero(self):
        p = ped(0, (2, 3), (0, 0), (2, 3))
        v = solve(p, [], [], dt=0.05)
        assert v.norm() == 0.0

    def test_head_on_mirror_symmetry(self):
        a = ped(0, (-2, 0), (1, 0), (2, 0))
        b = ped(1, (2, 0), (-1, 0), (-2, 0))
        va = solve(a, [b], [], dt=0.05)
        vb = solve(b, [a], [], dt=0.05)
        # the scene maps to itself under rotation by pi: outputs negate
        assert va.x == pytest.approx(-vb.x, abs=1e-9)
        assert va.y == pytest.approx(-vb.y, abs=1e-9)
        assert va.y != 0.0  # lateral dodge component exists
        assert (va.y > 0) != (vb.y > 0)

    def test_head_on_outputs_outside_velocity_obstacle(self):
        """Feasibility check by sampling candidate relative velocities."""
        tau = 2.0
        a = ped(0, (-2, 0), (1, 0), (2, 0))
        b = ped(1, (2, 0), (-1, 0), (-2, 0))
        va = solve(a, [b], [], dt=0.05)
        vb = solve(b, [a], [], dt=0.05)
        rel = va - vb  # relative velocity after both choose ORCA outputs
        # truncated VO cone membership test at horizon tau by brute force:
        # relative position must not be reachable within tau under rel vel
        combined = a.radius + b.radius
        p_rel = b.position - a.position
        ts = np.linspace(1e-3, tau, 100_000)
        dx = p_rel.x - rel.x * ts
        dy = p_rel.y - rel.y * ts
        assert np.all(np.hypot(dx, dy) > combined - 1e-6)

    def test_speed_capped(self):
        crowd = [
            ped(i, (math.cos(k), math.sin(k)), (0, 0), (0, 0))
            for i, k in enumerate(np.linspace(0, 2 * math.pi, 7)[:-1])
        ]
        target = ped(99, (0.05, 0.05), (1, 0), (5, 5), speed=0.9)
        v = solve(target, crowd, [], dt=0.05)
        assert v.norm() <= 0.9 + 1e-9

    def test_static_obstacle_constraint(self):
        p = ped(0, (0, 0), (1, 0), (5, 0))
        wall = Circle(Vec2(1.2, 0.0), 0.5)
        v = solve(p, [], [wall], dt=0.05)
        # heading straight at the disc is no longer allowed at full speed
        assert v.x < 1.0 - 1e-6 or abs(v.y) > 1e-6

    def test_rejects_bad_dt(self):
        p = ped(0, (0, 0), (0, 0), (1, 0))
        with pytest.raises(ValueError):
            orca_lines(pack([p]), NO_DISCS, dt=0.0)


class TestStepCrowd:
    def test_empty_stays_empty(self, rng):
        cfg = CrowdConfig(count=0, walk_in_probability=0.0)
        peds = pack([])
        for _ in range(50):
            peds = step_crowd(peds, cfg, 0.05, rng, NO_DISCS)
        assert unpack(peds) == []

    def test_straight_shot_arrival_time(self, rng):
        cfg = CrowdConfig(count=1, area=(40.0, 40.0))
        p = ped(0, (0, 0), (0, 0), (4, 0), speed=1.0)
        peds = pack([p])
        t = 0.0
        for _ in range(300):
            peds = step_crowd(peds, cfg, 0.05, rng, NO_DISCS)
            t += 0.05
            if (unpack(peds)[0].position - Vec2(4, 0)).norm() < 0.35:
                break
        assert t == pytest.approx(4.0, abs=0.5)  # distance / pref_speed

    def test_determinism(self):
        cfg = CrowdConfig(count=6, walk_in_probability=0.05, stop_go_probability=0.02, seed=3)
        a = spawn_crowd(cfg, np.random.default_rng(3))
        b = spawn_crowd(cfg, np.random.default_rng(3))
        rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
        for _ in range(120):
            a = step_crowd(a, cfg, 0.05, rng_a, NO_DISCS)
            b = step_crowd(b, cfg, 0.05, rng_b, NO_DISCS)
        assert len(a) == len(b)
        for pa, pb in zip(unpack(a), unpack(b)):
            assert pa.position == pb.position and pa.velocity == pb.velocity

    def test_speed_bound_never_exceeded(self, rng):
        cfg = CrowdConfig(count=8, stop_go_probability=0.02)
        peds = spawn_crowd(cfg, rng)
        for _ in range(400):
            peds = step_crowd(peds, cfg, 0.05, rng, NO_DISCS)
            for p in unpack(peds):
                assert p.velocity.norm() <= p.pref_speed + 1e-9

    def test_penetration_rare(self, rng):
        cfg = CrowdConfig(count=8, area=(5.0, 5.0))
        peds = spawn_crowd(cfg, rng)
        steps = 2_000
        bad = 0
        for _ in range(steps):
            peds = step_crowd(peds, cfg, 0.05, rng, NO_DISCS)
            worst = 0.0
            listed = unpack(peds)
            for i, a in enumerate(listed):
                for b in listed[i + 1 :]:
                    pen = a.radius + b.radius - (a.position - b.position).norm()
                    worst = max(worst, pen)
            bad += worst > 1e-2
        assert bad / steps < 0.01

    def test_walk_ins_appear(self, rng):
        cfg = CrowdConfig(count=0, walk_in_probability=0.3, max_count=5)
        peds = pack([])
        for _ in range(100):
            peds = step_crowd(peds, cfg, 0.05, rng, NO_DISCS)
        assert 1 <= len(peds) <= 5

    def test_stop_and_go_pauses(self, rng):
        cfg = CrowdConfig(count=1, area=(40.0, 40.0), stop_go_probability=0.2)
        peds = pack([ped(0, (0, 0), (1, 0), (20, 0))])
        stopped_seen = 0
        for _ in range(200):
            peds = step_crowd(peds, cfg, 0.05, rng, NO_DISCS)
            stopped_seen += not unpack(peds)[0].walking
        assert stopped_seen > 0

    def test_goal_renewal(self, rng):
        cfg = CrowdConfig(count=1, area=(3.0, 3.0))
        peds = pack([ped(0, (0, 0), (0, 0), (0.2, 0))])
        first_goal = unpack(peds)[0].goal
        for _ in range(40):
            peds = step_crowd(peds, cfg, 0.05, rng, NO_DISCS)
        assert unpack(peds)[0].goal != first_goal


class TestSpawnScenario:
    @pytest.fixture
    def cfg(self):
        return CrowdConfig(count=4, area=(5.0, 5.0))

    def test_ahead_moves_along_goal_direction(self, cfg, rng):
        peds = spawn_scenario("ahead", 4, cfg, rng, (-3.0, 0.0), (3.0, 0.0))
        for p in unpack(peds):
            assert p.velocity.dot(Vec2(1, 0)) > 0

    def test_towards_moves_against_goal_direction(self, cfg, rng):
        peds = spawn_scenario("towards", 4, cfg, rng, (-3.0, 0.0), (3.0, 0.0))
        for p in unpack(peds):
            assert p.velocity.dot(Vec2(1, 0)) < 0

    def test_crossing_dominantly_perpendicular(self, cfg, rng):
        peds = spawn_scenario("crossing", 8, cfg, rng, (-3.0, 0.0), (3.0, 0.0))
        for p in unpack(peds):
            v = p.velocity
            assert abs(v.y) > abs(v.x)

    def test_random_deterministic_under_seed(self, cfg):
        a = spawn_scenario("random", 6, cfg, np.random.default_rng(5), (-3.0, 0.0), (3.0, 0.0))
        b = spawn_scenario("random", 6, cfg, np.random.default_rng(5), (-3.0, 0.0), (3.0, 0.0))
        for pa, pb in zip(unpack(a), unpack(b)):
            assert pa.position == pb.position and pa.goal == pb.goal

    def test_counts_supported(self, cfg, rng):
        for n in (4, 8, 12):
            peds = spawn_scenario("crossing", n, cfg, rng, (-3.0, 0.0), (3.0, 0.0))
            assert len(peds) == n

    def test_unknown_kind_rejected(self, cfg, rng):
        with pytest.raises(ValueError):
            spawn_scenario("zigzag", 4, cfg, rng, (-3.0, 0.0), (3.0, 0.0))

    def test_inside_area(self, cfg, rng):
        peds = spawn_scenario("random", 12, cfg, rng, (-3.0, 0.0), (3.0, 0.0))
        for p in unpack(peds):
            assert abs(p.position.x) <= 2.5 + 1e-9
            assert abs(p.position.y) <= 2.5 + 1e-9


def test_robot_ignorance_is_structural():
    """The crowd API has no robot parameter at all: trajectories cannot
    depend on it."""
    import inspect

    for fn in (step_crowd, orca_lines, orca_velocity, spawn_crowd):
        assert "robot" not in inspect.signature(fn).parameters


def test_preferred_velocity_unit_times_speed():
    p = ped(0, (1, 1), (0, 0), (4, 5), speed=1.3)
    v = Vec2(*preferred_velocity(p.position.x, p.position.y, p.goal.x, p.goal.y, p.pref_speed))
    assert v.norm() == pytest.approx(1.3, abs=1e-9)
    d = (Vec2(4, 5) - Vec2(1, 1)).normalized()
    assert v.normalized().dot(d) == pytest.approx(1.0, abs=1e-12)


class TestCrowdRowsMatchPedestrians:
    """The Crowd's packed rows against the Pedestrian oracle, bit for bit."""

    def test_pack_round_trip(self, rng):
        peds = edge_case_peds(rng)
        assert unpack(pack(peds)) == peds

    def test_lidar_rows_equal_shape_rows(self, rng):
        peds = edge_case_peds(rng, n=2000)
        scene = pack(peds).lidar_scene()
        shapes = to_map([p.lidar_shape() for p in peds]).scene()
        assert np.array_equal(scene.circles, shapes.circles)
        assert np.array_equal(scene.segments, shapes.segments)
        assert len(scene) == len(shapes) == len(peds)
        assert shapes.circles.size and shapes.segments.size

    def test_scan_equals_reference_raycast(self, rng):
        peds = edge_case_peds(rng, n=12)
        static = [Circle(Vec2(1.0, 1.0), 0.4), Segment(Vec2(-5, -5), Vec2(5, -5)),
                  OrientedRect(Vec2(-2.0, 2.0), 0.3, 0.2, 0.8)]
        angles = np.linspace(-math.pi, math.pi, 360, endpoint=False)
        origin = Vec2(0.1, -0.2)
        got = cast_fan((origin.x, origin.y), angles, to_map(static).scene() + pack(peds).lidar_scene())
        want = reference_cast_fan(origin, angles, static + [p.lidar_shape() for p in peds])
        assert np.array_equal(got, want)

    def test_body_gaps_equal_closest_distance(self, rng):
        peds = edge_case_peds(rng, n=500)
        c = pack(peds)
        for _ in range(20):
            robot = Circle(random_point(rng, 4.0), float(rng.uniform(0.1, 0.5)))
            gaps = c.distances(robot.center.x, robot.center.y) - c.radius - robot.radius
            want = [reference_closest_distance(robot, [p.body()]) for p in peds]
            assert gaps.tolist() == want


class TestStepMatchesReference:
    def test_crowd_random_20_steps_bitwise(self):
        """200 steps of the crowd:random:20 crowd among obstacles, with
        stop-and-go and walk-ins (max_count raised so that walk-ins can
        happen), against the Pedestrian-list step; the generators end in
        the same state."""
        from dataclasses import replace

        from socnavsim.evaluation import suite_config
        from socnavsim.world import EnvConfig

        cfg = suite_config("crowd:random:20", EnvConfig()).crowd
        cfg = replace(cfg, max_count=24, walk_in_probability=0.05, stop_go_probability=0.02)
        obstacles = [Circle(Vec2(1.5, -1.0), 0.3), OrientedRect(Vec2(-1.0, 1.0), 2.5, 0.2, 0.6),
                     Segment(Vec2(-5, 5), Vec2(5, 5))]
        rng_a, rng_b = np.random.default_rng(8), np.random.default_rng(8)
        crowd = spawn_scenario("random", 20, cfg, np.random.default_rng(4), (-3.5, 0.0), (3.5, 0.0))
        peds = unpack(crowd)
        discs = to_map(obstacles).bounding_discs()
        stops = 0
        for _ in range(200):
            crowd = step_crowd(crowd, cfg, 0.05, rng_a, discs)
            peds = reference_step_crowd(peds, cfg, 0.05, rng_b, obstacles)
            assert unpack(crowd) == peds
            stops += sum(not p.walking for p in peds)
        assert len(peds) > 20 and stops > 0
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @pytest.mark.parametrize("walk_in", [0.0, 1.0])
    def test_empty_crowd_steps_bitwise(self, walk_in):
        """From an empty crowd, with walk-ins never or always: the step draws
        what the Pedestrian-list step draws, and returns its input while
        nobody has walked in."""
        cfg = CrowdConfig(count=0, walk_in_probability=walk_in, stop_go_probability=0.3, max_count=3)
        obstacles = [Circle(Vec2(1.5, -1.0), 0.3)]
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        crowd = spawn_crowd(cfg, np.random.default_rng(1))
        peds = unpack(crowd)
        for _ in range(6):
            stepped = step_crowd(crowd, cfg, 0.05, rng_a, to_map(obstacles).bounding_discs())
            peds = reference_step_crowd(peds, cfg, 0.05, rng_b, obstacles)
            assert unpack(stepped) == peds
            assert rng_a.bit_generator.state == rng_b.bit_generator.state
            assert (stepped is crowd) == (not peds)
            crowd = stepped
        assert len(peds) == (3 if walk_in else 0)

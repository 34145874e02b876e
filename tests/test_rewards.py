import math

import numpy as np
import pytest

from socnavsim import rewards
from socnavsim.geometry import wrap_angle
from socnavsim.rewards import (
    COLLISION_PENALTY,
    GOAL_BONUS,
    goal_reward,
    pedestrian_zone,
    zone_row,
)

from conftest import (
    Circle,
    Pedestrian,
    Vec2,
    assess_of,
    edge_case_peds,
    ego_reward_of,
    pack,
    rect_overlap_oracle,
    rects_intersect,
    rotated,
    social_reward_of,
    social_zone,
    to_map,
)


def ped(pid, pos, vel, radius=0.3, heading=0.0):
    return Pedestrian(
        id=pid,
        position=Vec2(*pos),
        velocity=Vec2(*vel),
        pref_speed=1.5,
        radius=radius,
        goal=Vec2(0, 0),
        motion_heading=heading,
    )


class TestEgoReward:
    def test_collision_is_minus_ten(self):
        r, violated, d = ego_reward_of(
            Circle(Vec2(0, 0), 0.3), [], [Circle(Vec2(0.5, 0), 0.3)]
        )
        assert r == COLLISION_PENALTY and violated and d <= 0.0

    def test_boundary_of_zone_is_zero(self):
        # surface distance exactly r_i + 0.4
        r, violated, d = ego_reward_of(
            Circle(Vec2(0, 0), 0.3), [], [Circle(Vec2(1.4, 0), 0.4)]
        )
        assert d == pytest.approx(0.7, abs=1e-12)
        assert r == 0.0 and not violated

    def test_paper_substitution(self):
        # r_i = 0.3, d = 0.35 -> -0.25 * (1 - 0.35/0.7) = -0.125
        r, violated, d = ego_reward_of(
            Circle(Vec2(0, 0), 0.3), [], [Circle(Vec2(1.05, 0), 0.4)]
        )
        assert d == pytest.approx(0.35, abs=1e-12)
        assert r == pytest.approx(-0.125, abs=1e-12)
        assert violated

    def test_empty_scene_no_violation(self):
        r, violated, d = ego_reward_of(Circle(Vec2(0, 0), 0.3), [], [])
        assert r == 0.0 and not violated and math.isinf(d)

    def test_monotone_in_approach(self):
        prev = 0.0
        for gap in np.linspace(0.69, 0.01, 30):
            r, _, _ = ego_reward_of(
                Circle(Vec2(0, 0), 0.3), [], [Circle(Vec2(0.3 + gap + 0.4, 0), 0.4)]
            )
            assert r <= prev + 1e-12
            prev = r

    def test_pedestrians_and_obstacles_both_count(self):
        near_ped = ped(0, (0.9, 0), (0, 0))
        r_ped, _, d_ped = ego_reward_of(Circle(Vec2(0, 0), 0.3), [near_ped], [])
        assert d_ped == pytest.approx(0.3)
        assert r_ped < 0.0


class TestSocialZone:
    def test_paper_length_substitution(self):
        _, _, _, half_width, length = zone_row(0.0, 0.0, 0.0, radius=0.3, speed=1.0)
        assert length == pytest.approx(1.42, abs=1e-12)
        assert half_width == pytest.approx(0.3, abs=1e-12)

    def test_zero_speed_length(self):
        length = zone_row(0.0, 0.0, 0.0, radius=0.3, speed=0.0)[4]
        assert length == pytest.approx(0.3 / 2 + 0.5, abs=1e-12)

    def test_doubling_speed_adds_dt_v(self):
        z1 = zone_row(0.0, 0.0, 0.0, radius=0.3, speed=1.0)
        z2 = zone_row(0.0, 0.0, 0.0, radius=0.3, speed=2.0)
        assert z2[4] - z1[4] == pytest.approx(0.77, abs=1e-12)

    def test_anchored_at_agent_extending_forward(self):
        x, y, heading, _, length = zone_row(1.0, 2.0, math.pi / 2, radius=0.2, speed=0.5)
        assert (x, y) == (1.0, 2.0)
        assert y + length * math.sin(heading) > 2.0

    def test_heading_wrapped(self):
        assert zone_row(0.0, 0.0, 3.0 * math.pi / 2, radius=0.3, speed=1.0)[2] == pytest.approx(-math.pi / 2)

    def test_stationary_pedestrian_uses_last_motion_heading(self):
        p = ped(0, (0, 0), (0.0, 0.0), heading=1.1)
        heading = pedestrian_zone(pack([p]).rows[0])[2]
        assert heading == pytest.approx(1.1)


class TestSocialReward:
    def test_no_pedestrians_zero(self):
        zone = social_zone(Vec2(0, 0), 0.0, 0.3, 1.0)
        r, violations, considered = social_reward_of(zone, Vec2(0, 0), [])
        assert (r, violations, considered) == (0.0, 0, 0)

    def test_paper_fraction_substitution(self):
        # 2 violations among 8 scene pedestrians -> -0.1 * 2/8 = -0.025
        robot_zone = social_zone(Vec2(0, 0), 0.0, 0.3, 1.0)
        close = [ped(i, (1.0, 0.2 * i), (-0.5, 0)) for i in range(2)]  # head-on, zones meet
        far = [ped(10 + i, (0, 20 + i), (0, 0)) for i in range(6)]
        peds = close + far
        r, violations, considered = social_reward_of(robot_zone, Vec2(0, 0), peds)
        assert violations == 2 and considered == 2
        assert r == pytest.approx(-0.025, abs=1e-12)

    def test_far_robot_no_violations(self):
        zone = social_zone(Vec2(0, 0), 0.0, 0.3, 0.0)
        peds = [ped(i, (7.5 + i, 0), (0, 0)) for i in range(4)]
        r, violations, considered = social_reward_of(zone, Vec2(0, 0), peds)
        assert violations == 0 and considered == 0 and r == 0.0

    def test_five_meter_cutoff(self):
        zone = social_zone(Vec2(0, 0), 0.0, 0.3, 1.5)
        inside = ped(0, (4.9, 0), (0, 0))
        outside = ped(1, (5.1, 0), (0, 0))
        _, _, considered = social_reward_of(zone, Vec2(0, 0), [inside, outside])
        assert considered == 1

    def test_violation_count_matches_oracle(self, rng):
        for _ in range(60):
            robot_pos = Vec2(0, 0)
            speed = float(rng.uniform(0, 1.5))
            zone = social_zone(robot_pos, float(rng.uniform(-math.pi, math.pi)), 0.3, speed)
            peds = [
                ped(
                    i,
                    (float(rng.uniform(-4, 4)), float(rng.uniform(-4, 4))),
                    (float(rng.uniform(-1.5, 1.5)), float(rng.uniform(-1.5, 1.5))),
                    radius=float(rng.uniform(0.15, 0.4)),
                )
                for i in range(int(rng.integers(1, 9)))
            ]
            _, violations, _ = social_reward_of(zone, robot_pos, peds)
            oracle = sum(
                1
                for p in peds
                if (p.position - robot_pos).norm() <= 5.0
                and rect_overlap_oracle(zone, p.zone())
            )
            assert violations == oracle

    def test_rigid_transform_invariance(self, rng):
        for _ in range(40):
            shift = Vec2(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)))
            rot = float(rng.uniform(-math.pi, math.pi))
            peds = [
                ped(
                    i,
                    (float(rng.uniform(-4, 4)), float(rng.uniform(-4, 4))),
                    (float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))),
                )
                for i in range(5)
            ]
            heading = float(rng.uniform(-math.pi, math.pi))
            zone = social_zone(Vec2(0, 0), heading, 0.3, 1.0)
            r1, v1, c1 = social_reward_of(zone, Vec2(0, 0), peds)

            def move(p):
                return Pedestrian(
                    id=p.id,
                    position=rotated(p.position, rot) + shift,
                    velocity=rotated(p.velocity, rot),
                    pref_speed=p.pref_speed,
                    radius=p.radius,
                    goal=rotated(p.goal, rot) + shift,
                    motion_heading=wrap_angle(p.motion_heading + rot),
                )

            zone2 = social_zone(shift, wrap_angle(heading + rot), 0.3, 1.0)
            r2, v2, c2 = social_reward_of(zone2, shift, [move(p) for p in peds])
            assert (v1, c1) == (v2, c2)
            assert r1 == pytest.approx(r2, abs=1e-12)


class TestZonesMatchPedestrians:
    """The one-pass zone test against the Pedestrian oracle, bit for bit."""

    def test_zone_rows_equal_oracle_zones(self, rng):
        peds = edge_case_peds(rng, n=2000)
        got = np.array([pedestrian_zone(row) for row in pack(peds).rows])
        assert got.tobytes() == to_map([p.zone() for p in peds]).rects.tobytes()

    def test_violations_equal_pairwise_sat(self, rng):
        for _ in range(200):
            robot_pos = Vec2(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
            heading = float(rng.choice([math.pi, -math.pi, 0.0, rng.uniform(-math.pi, math.pi)]))
            zone = social_zone(robot_pos, heading, 0.3, float(rng.uniform(0, 1.5)))
            peds = [
                ped(
                    i,
                    (float(rng.uniform(-6, 6)), float(rng.uniform(-6, 6))),
                    tuple(float(v) for v in rng.uniform(-1.5, 1.5, 2) * (rng.random() < 0.8)),
                    radius=float(rng.uniform(0.15, 0.4)),
                    heading=float(rng.uniform(-math.pi, math.pi)),
                )
                for i in range(int(rng.integers(1, 21)))
            ]
            _, violations, considered = social_reward_of(zone, robot_pos, peds)
            near = [p for p in peds if (p.position - robot_pos).norm() <= 5.0]
            assert considered == len(near)
            assert violations == sum(rects_intersect(zone, p.zone()) for p in near)


class TestGoalReward:
    # goal_reward(distance to the goal, distance from the start to the goal, reached)
    def test_reached_bonus(self):
        assert goal_reward(0.0, 3.0, True) == GOAL_BONUS

    def test_start_position_penalty(self):
        assert goal_reward(3.0, 3.0, False) == pytest.approx(-0.01)

    def test_halfway_penalty(self):
        assert goal_reward(1.5, 3.0, False) == pytest.approx(-0.005)

    def test_clamped_beyond_start(self):
        # wandering farther than the start distance saturates at -0.01
        assert goal_reward(8.0, 3.0, False) == pytest.approx(-0.01)

    def test_degenerate_start_rejected(self):
        with pytest.raises(ValueError):
            goal_reward(2.0, 0.0, False)


class TestAssess:
    def test_parts_sum_exactly(self, rng):
        for _ in range(200):
            robot = Circle(
                Vec2(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3))), 0.3
            )
            peds = [
                ped(
                    i,
                    (float(rng.uniform(-4, 4)), float(rng.uniform(-4, 4))),
                    (float(rng.uniform(-1.5, 1.5)), float(rng.uniform(-1.5, 1.5))),
                )
                for i in range(int(rng.integers(0, 6)))
            ]
            obstacles = [Circle(Vec2(float(rng.uniform(-4, 4)), float(rng.uniform(-4, 4))), 0.4)]
            a = assess_of(
                robot,
                0.0,
                float(rng.uniform(0, 1.5)),
                peds,
                obstacles,
                Vec2(4, 4),
                Vec2(-4, -4),
                reached=False,
            )
            assert a.total == a.r_ego + a.r_social + a.r_goal
            assert a.r_ego == COLLISION_PENALTY or -0.25 <= a.r_ego <= 0.0
            assert -0.1 <= a.r_social <= 0.0
            assert a.r_goal == GOAL_BONUS or -0.01 <= a.r_goal <= 0.0
            assert a.violations <= a.considered_pedestrians

    def test_empty_crowd_builds_no_zone(self, monkeypatch):
        """With no pedestrians the social part is zero and the robot's
        zone is never built."""
        def no_zone(*args):
            raise AssertionError("zone_row called for an empty crowd")

        monkeypatch.setattr(rewards, "zone_row", no_zone)
        a = assess_of(Circle(Vec2(0.0, 0.0), 0.3), 0.0, 1.0, [], [], Vec2(4, 4), Vec2(-4, -4),
                      reached=False)
        assert (a.r_social, a.violations, a.considered_pedestrians) == (0.0, 0, 0)

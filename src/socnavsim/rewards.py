"""Safety-aware reward terms computed from full simulator state.

Three parts: a graded penalty for letting anything close within the
robot's ego-safety circle (terminal on contact), a penalty for steering
the robot's forward interaction zone into those of nearby pedestrians,
and goal shaping with a terminal arrival bonus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .crowd import STILL_SPEED, Crowd
from .geometry import rects_overlap, wrap_angle

EGO_MARGIN = 0.4  # ego-safety circle radius is robot radius + this
COLLISION_PENALTY = -10.0
EGO_SCALE = -0.25
SOCIAL_SCALE = -0.1
SOCIAL_RANGE = 5.0  # pedestrians beyond this are not considered
GOAL_BONUS = 10.0
GOAL_SCALE = -0.01
LOOKAHEAD_DT = 0.77
MIN_HEADWAY = 0.5


@dataclass(frozen=True)
class SafetyAssessment:
    ego_violation: bool
    violations: int
    considered_pedestrians: int
    r_ego: float
    r_social: float
    r_goal: float

    @property
    def total(self) -> float:
        return self.r_ego + self.r_social + self.r_goal


def ego_reward(d_t: float, robot_radius: float) -> tuple[float, bool]:
    """Graded ego-safety penalty from the robot's clearance d_t (surface
    distance to the nearest shape, inf for none); (reward, violation flag)."""
    zone = robot_radius + EGO_MARGIN
    if d_t <= 0.0:
        return COLLISION_PENALTY, True
    if d_t < zone:
        return EGO_SCALE * (1.0 - d_t / zone), True
    return 0.0, False


def zone_row(x: float, y: float, heading: float, radius: float, speed: float) -> tuple:
    """An agent's forward interaction rectangle as a rectangle row.

    It extends from the agent centre (x, y) along its motion heading by
    radius/2 + MIN_HEADWAY + LOOKAHEAD_DT * speed and spans one bounding
    diameter laterally.  Callers pass the last motion heading for
    near-stationary agents (speed below STILL_SPEED).
    """
    return x, y, wrap_angle(heading), radius, radius / 2.0 + MIN_HEADWAY + LOOKAHEAD_DT * speed


def pedestrian_zone(row) -> tuple:
    """The zone_row of one Crowd row, headed along its velocity, or its
    last motion heading below STILL_SPEED."""
    _, x, y, vx, vy, _, _, _, radius, _, _, motion_heading = row
    speed = math.hypot(vx, vy)
    heading = math.atan2(vy, vx) if speed >= STILL_SPEED else motion_heading
    return zone_row(x, y, heading, radius, speed)


def social_reward(robot_zone: tuple | None, distances, crowd: Crowd) -> tuple[float, int, int]:
    """Zone-intersection penalty of the robot's zone_row (None for an
    empty crowd, which never reads it); returns (reward, violations,
    considered).

    distances holds each pedestrian's center distance from the robot, in
    row order.  Only pedestrians within 5 m take part in the intersection
    checks, but the penalty is normalized by the total number of
    pedestrians in the scene; an empty scene yields zero.
    """
    if not len(crowd):
        return 0.0, 0, 0
    violations = considered = 0
    for d, row in zip(distances, crowd.rows):
        if d <= SOCIAL_RANGE:
            considered += 1
            violations += rects_overlap(robot_zone, pedestrian_zone(row))
    return SOCIAL_SCALE * violations / len(crowd), violations, considered


def goal_reward(distance: float, initial_distance: float, reached: bool) -> float:
    """Arrival bonus, else a small penalty scaled by the remaining goal
    distance over the initial one.

    The distance ratio is clamped at 1 so the shaping term never exceeds
    the magnitude it has at the start position.
    """
    if reached:
        return GOAL_BONUS
    if initial_distance <= 0.0:
        raise ValueError("start must differ from target")
    return GOAL_SCALE * min(1.0, distance / initial_distance)


def assess(
    robot: tuple[float, float, float],
    robot_motion_heading: float,
    robot_speed: float,
    clearance: float,
    distances: list[float],
    crowd: Crowd,
    goal_distance: float,
    initial_goal_distance: float,
    reached: bool,
) -> SafetyAssessment:
    """All three reward parts from one full state snapshot of the robot
    disc (centre x, centre y, radius), with the clearance, pedestrian
    distances and goal distance the collision and arrival checks measured."""
    x, y, radius = robot
    r_ego, ego_violation = ego_reward(clearance, radius)
    zone = zone_row(x, y, robot_motion_heading, radius, robot_speed) if len(crowd) else None
    r_social, violations, considered = social_reward(zone, distances, crowd)
    r_goal = goal_reward(goal_distance, initial_goal_distance, reached)
    return SafetyAssessment(
        ego_violation=ego_violation,
        violations=violations,
        considered_pedestrians=considered,
        r_ego=r_ego,
        r_social=r_social,
        r_goal=r_goal,
    )

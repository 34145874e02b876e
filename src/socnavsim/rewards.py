"""Safety-aware reward terms computed from full simulator state.

Three parts: a graded penalty for letting anything close within the
robot's ego-safety circle (terminal on contact), a penalty for steering
the robot's forward interaction zone into those of nearby pedestrians,
and goal shaping with a terminal arrival bonus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .crowd import STILL_SPEED, Crowd
from .geometry import Circle, OrientedRect, Vec2, elementwise, rect_rows, rects_overlap, wrap_angle

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


def social_zone(
    position: Vec2,
    motion_heading: float,
    radius: float,
    speed: float,
    lookahead_dt: float = LOOKAHEAD_DT,
    min_headway: float = MIN_HEADWAY,
) -> OrientedRect:
    """Forward interaction rectangle of one agent.

    Extends from the agent center along its motion direction by
    radius/2 + min_headway + lookahead_dt * speed, spanning one bounding
    diameter laterally.  Callers pass the last motion heading for
    near-stationary agents (speed below 0.05 m/s).
    """
    if speed < 0.0:
        raise ValueError("speed must be nonnegative")
    length = radius / 2.0 + min_headway + lookahead_dt * speed
    return OrientedRect(position, motion_heading, half_width=radius, length=length)


def pedestrian_zones(crowd: Crowd) -> np.ndarray:
    """Every pedestrian's social_zone as a rect_rows row, headed along its
    velocity, or its last motion heading below STILL_SPEED."""
    vx, vy = crowd.velocity.T
    speed = elementwise(math.hypot, vx, vy)
    heading = np.where(speed >= STILL_SPEED, elementwise(math.atan2, vy, vx), crowd.motion_heading)
    length = crowd.radius / 2.0 + MIN_HEADWAY + LOOKAHEAD_DT * speed
    return np.column_stack([crowd.position, elementwise(wrap_angle, heading), crowd.radius, length])


def social_reward(robot_zone: OrientedRect, distances, crowd: Crowd) -> tuple[float, int, int]:
    """Zone-intersection penalty; returns (reward, violations, considered).

    distances holds each pedestrian's center distance from the robot.
    Only pedestrians within 5 m take part in the intersection checks,
    but the penalty is normalized by the total number of pedestrians in
    the scene; an empty scene yields zero.
    """
    if not len(crowd):
        return 0.0, 0, 0
    near = distances <= SOCIAL_RANGE
    hit = rects_overlap(rect_rows([robot_zone]), pedestrian_zones(crowd))
    violations = int(np.count_nonzero(hit & near))
    return SOCIAL_SCALE * violations / len(crowd), violations, int(np.count_nonzero(near))


def goal_reward(p_t: Vec2, p_star: Vec2, p_0: Vec2, reached: bool) -> float:
    """Arrival bonus, else a small penalty scaled by remaining distance.

    The distance ratio is clamped at 1 so the shaping term never exceeds
    the magnitude it has at the start position.
    """
    if reached:
        return GOAL_BONUS
    denom = (p_0 - p_star).norm()
    if denom <= 0.0:
        raise ValueError("start must differ from target")
    ratio = min(1.0, (p_t - p_star).norm() / denom)
    return GOAL_SCALE * ratio


def assess(
    robot: Circle,
    robot_motion_heading: float,
    robot_speed: float,
    clearance: float,
    distances: np.ndarray,
    crowd: Crowd,
    p_star: Vec2,
    p_0: Vec2,
    reached: bool,
) -> SafetyAssessment:
    """All three reward parts from one full state snapshot, with the
    clearance and pedestrian distances the collision check measured."""
    r_ego, ego_violation = ego_reward(clearance, robot.radius)
    zone = social_zone(robot.center, robot_motion_heading, robot.radius, robot_speed)
    r_social, violations, considered = social_reward(zone, distances, crowd)
    r_goal = goal_reward(robot.center, p_star, p_0, reached)
    return SafetyAssessment(
        ego_violation=ego_violation,
        violations=violations,
        considered_pedestrians=considered,
        r_ego=r_ego,
        r_social=r_social,
        r_goal=r_goal,
    )

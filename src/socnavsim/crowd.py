"""ORCA-driven pedestrian simulation with randomized behaviors.

Each pedestrian picks, every step, the velocity closest to its preferred
velocity among those satisfying per-neighbor reciprocal half-plane
constraints (2D linear program, with a fallback that minimizes the worst
violation when the constraints are infeasible).  Pedestrians avoid each
other and static obstacles but never see the robot.

The crowd is one Crowd of arrays.  Each step builds every pedestrian's
half-planes in one numpy pass over it (orca_lines); only the small
per-pedestrian LP runs as scalar code on floats (orca_velocity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (Circle, OrientedRect, Scene, Segment, Shape, Vec2, elementwise, rect_edges,
                       wrap_angle)

ORCA_EPSILON = 1e-5
AGENT_TIME_HORIZON = 2.0
OBSTACLE_TIME_HORIZON = 1.0
GOAL_REACHED_DIST = 0.3
MEAN_STOP_SECONDS = 1.0
STILL_SPEED = 0.05


@dataclass(frozen=True, eq=False)
class Crowd:
    """Every pedestrian's state as parallel arrays, one row per pedestrian."""

    ids: np.ndarray  # (n,) int, unique
    position: np.ndarray  # (n, 2)
    velocity: np.ndarray  # (n, 2)
    goal: np.ndarray  # (n, 2)
    pref_speed: np.ndarray  # (n,)
    radius: np.ndarray  # (n,) bounding circle used by avoidance and collision checks
    rect: np.ndarray  # (n,) bool: scanned as an oriented square
    stopped: np.ndarray  # (n,) int, >0 while in a stop-and-go pause
    motion_heading: np.ndarray  # (n,) last heading of actual motion

    @staticmethod
    def from_rows(rows) -> "Crowd":
        """From rows (id, x, y, vx, vy, goal x, goal y, pref_speed, radius, rect,
        stopped, motion_heading); rows() gives them back as Python scalars."""
        t = np.array(rows, dtype=float).reshape(-1, 12)
        ids, stopped = t[:, 0].astype(np.int64), t[:, 10].astype(np.int64)
        return Crowd(ids, t[:, 1:3], t[:, 3:5], t[:, 5:7], t[:, 7], t[:, 8], t[:, 9] != 0.0, stopped, t[:, 11])

    def rows(self):
        columns = (self.ids, *self.position.T, *self.velocity.T, *self.goal.T, self.pref_speed,
                   self.radius, self.rect, self.stopped, self.motion_heading)
        return zip(*(c.tolist() for c in columns))

    def __len__(self) -> int:
        return len(self.ids)

    def distances(self, x: float, y: float) -> np.ndarray:
        """Every pedestrian's center distance from the point (x, y)."""
        return elementwise(math.hypot, x - self.position[:, 0], y - self.position[:, 1])

    def lidar_scene(self) -> Scene:
        """The scanner's view, bitwise pack_shapes': a round pedestrian's circle (radius**2
        by Python's pow) or a rect one's inscribed square, anchored along the raw motion
        heading and turned by the wrapped one."""
        r, rect = self.radius, self.rect
        circles = np.column_stack([self.position[~rect], [x**2 for x in r[~rect].tolist()]])
        heading, side = self.motion_heading[rect], r[rect] / math.sqrt(2.0)
        fwd = np.column_stack([elementwise(math.cos, heading), elementwise(math.sin, heading)])
        anchor = self.position[rect] - fwd * side[:, None]
        squares = np.column_stack([anchor, elementwise(wrap_angle, heading), side, 2.0 * side])
        return Scene(circles, rect_edges(squares), len(self))


@dataclass(frozen=True)
class CrowdConfig:
    count: int = 8
    area: tuple[float, float] = (5.0, 5.0)
    center: tuple[float, float] = (0.0, 0.0)
    walk_in_probability: float = 0.0  # per step
    stop_go_probability: float = 0.0  # per step, walking -> stopped
    speed_range: tuple[float, float] = (0.5, 1.5)
    radius_range: tuple[float, float] = (0.15, 0.4)
    rect_shape_probability: float = 0.3
    max_count: int = 20  # cap on walk-in growth
    seed: int = 0

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("count must be nonnegative")
        for lo, hi in (self.speed_range, self.radius_range):
            if not 0.0 < lo <= hi:
                raise ValueError("ranges must be positive and nonempty")
        for name in ("walk_in_probability", "stop_go_probability", "rect_shape_probability"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {getattr(self, name)}")
        if not (self.area[0] > 0.0 and self.area[1] > 0.0):
            raise ValueError(f"area sides must be positive, got {self.area}")


def _normalized(x: float, y: float) -> tuple[float, float]:
    n = math.hypot(x, y)
    if n == 0.0:
        raise ValueError("cannot normalize zero vector")
    return x / n, y / n


# The LP works on constraint lines (point_x, point_y, dir_x, dir_y) as
# plain floats; det(a, b) = a.x * b.y - a.y * b.x is written out inline.


def _linear_program1(lines, line_no, radius, opt_x, opt_y, direction_opt):
    """Clip the optimum onto constraint line line_no; None when infeasible."""
    px, py, dx, dy = lines[line_no]
    dot = px * dx + py * dy
    discriminant = dot * dot + radius * radius - (px * px + py * py)
    if discriminant < 0.0:
        return None  # speed circle misses the line entirely
    sqrt_disc = math.sqrt(discriminant)
    t_left = -dot - sqrt_disc
    t_right = -dot + sqrt_disc

    for i in range(line_no):
        qx, qy, ex, ey = lines[i]
        denominator = dx * ey - dy * ex
        numerator = ex * (py - qy) - ey * (px - qx)
        if abs(denominator) <= ORCA_EPSILON:
            if numerator < 0.0:
                return None
            continue
        t = numerator / denominator
        if denominator >= 0.0:
            t_right = min(t_right, t)
        else:
            t_left = max(t_left, t)
        if t_left > t_right:
            return None

    if direction_opt:
        if opt_x * dx + opt_y * dy > 0.0:
            t = t_right
        else:
            t = t_left
    else:
        t = dx * (opt_x - px) + dy * (opt_y - py)
        t = min(t_right, max(t_left, t))
    return px + dx * t, py + dy * t


def _linear_program2(lines, radius, opt_x, opt_y, direction_opt):
    """Sequential 2D LP; returns (result, index of first failing line or len)."""
    if direction_opt:
        result = (opt_x * radius, opt_y * radius)
    elif opt_x * opt_x + opt_y * opt_y > radius * radius:
        ux, uy = _normalized(opt_x, opt_y)
        result = (ux * radius, uy * radius)
    else:
        result = (opt_x, opt_y)

    for i, (px, py, dx, dy) in enumerate(lines):
        if dx * (py - result[1]) - dy * (px - result[0]) > 0.0:
            new_result = _linear_program1(lines, i, radius, opt_x, opt_y, direction_opt)
            if new_result is None:
                return result, i
            result = new_result
    return result, len(lines)


def _linear_program3(lines, num_fixed, begin_line, radius, result):
    """Minimize the maximum constraint violation when the 2D LP failed.

    The first num_fixed lines (static obstacles) stay hard; the rest are
    relaxed uniformly, equivalent to the 3D program of the reference
    formulation projected back to 2D.
    """
    distance = 0.0
    for i in range(begin_line, len(lines)):
        px, py, dx, dy = lines[i]
        if dx * (py - result[1]) - dy * (px - result[0]) > distance:
            proj_lines = list(lines[:num_fixed])
            for j in range(num_fixed, i):
                qx, qy, ex, ey = lines[j]
                determinant = dx * ey - dy * ex
                if abs(determinant) <= ORCA_EPSILON:
                    if dx * ex + dy * ey > 0.0:
                        continue  # parallel, same direction
                    point = ((px + qx) * 0.5, (py + qy) * 0.5)
                else:
                    t = (ex * (py - qy) - ey * (px - qx)) / determinant
                    point = (px + dx * t, py + dy * t)
                proj_lines.append(point + _normalized(ex - dx, ey - dy))

            new_result, fail = _linear_program2(proj_lines, radius, -dy, dx, True)
            if fail >= len(proj_lines):
                result = new_result
            distance = dx * (py - result[1]) - dy * (px - result[0])
    return result


def obstacle_discs(obstacles: list[Shape]) -> np.ndarray:
    """Static obstacles as (center x, center y, radius) rows of bounding discs."""
    discs = []
    for shape in obstacles:
        if isinstance(shape, Circle):
            discs.append((shape.center.x, shape.center.y, shape.radius))
        elif isinstance(shape, OrientedRect):
            fwd, _ = shape.axes()
            center = shape.anchor + fwd * (shape.length / 2.0)
            radius = math.hypot(shape.length / 2.0, shape.half_width)
            discs.append((center.x, center.y, max(radius, 1e-3)))
        elif isinstance(shape, Segment):
            continue  # boundary walls: pedestrians are goal-confined instead
        else:
            raise TypeError(f"unsupported shape {type(shape).__name__}")
    return np.array(discs, dtype=float).reshape(-1, 3)


def preferred_velocity(x, y, goal_x, goal_y, pref_speed) -> tuple[float, float]:
    """Unit vector to the goal scaled by the preferred speed."""
    to_x, to_y = goal_x - x, goal_y - y
    dist = math.hypot(to_x, to_y)
    if dist < 1e-9:
        return 0.0, 0.0
    scale = pref_speed / dist
    return to_x * scale, to_y * scale


def orca_lines(crowd: Crowd, discs: np.ndarray, dt: float) -> tuple[np.ndarray, int]:
    """Every pedestrian's ORCA half-planes, built from one snapshot.

    Returns (lines, num_fixed): lines[i] is an (m, 4) array of rows
    (point_x, point_y, dir_x, dir_y) for pedestrian i, first one per
    obstacle disc (num_fixed of them, full responsibility, obstacle time
    horizon), then one per other pedestrian in row order (half
    responsibility, agent time horizon).  discs holds the (k, 3)
    obstacle_discs rows, k = 0 for none.  The permitted velocities lie
    left of each directed line.

    The arithmetic is that of the scalar reference formulation, operation
    by operation, so the lines are bitwise those of per-pair Vec2 code.
    Rows are not checked for finiteness here; step_crowd rejects the
    non-finite ones of the pedestrians it moves.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if not len(crowd):
        return np.empty((0, 0, 4)), 0
    inv_dt = 1.0 / dt
    k, n = len(discs), len(crowd)

    # (x, y, vx, vy, radius) of each pedestrian, then of everything it avoids
    me = np.column_stack([crowd.position, crowd.velocity, crowd.radius])
    them = np.concatenate(
        [np.column_stack([discs[:, :2], np.zeros((k, 2)), discs[:, 2]]), me]
    )
    keep = np.ones((n, k + n), dtype=bool)
    keep[np.arange(n), k + np.arange(n)] = False  # a pedestrian does not avoid itself
    m = k + n - 1

    def pairs(a):
        return a[keep].reshape(n, m)

    x, y, vx, vy, r = me.T[:, :, None]
    ox, oy, ovx, ovy, orad = them.T[:, None, :]
    inv_horizon = np.repeat((1.0 / OBSTACLE_TIME_HORIZON, 1.0 / AGENT_TIME_HORIZON), (k, n - 1))
    responsibility = np.repeat((1.0, 0.5), (k, n - 1))

    # Every branch runs on every lane and the masks pick each lane's own
    # branch, so the other lanes may divide by zero or take a negative
    # sqrt.  Overflow is not flagged either: step_crowd rejects the
    # non-finite rows it uses.
    with np.errstate(all="ignore"):
        rpx, rpy = pairs(ox - x), pairs(oy - y)  # relative position
        rvx, rvy = pairs(vx - ovx), pairs(vy - ovy)  # relative velocity; obstacles are still
        combined = pairs(r + orad)
        dist_sq = rpx * rpx + rpy * rpy
        combined_sq = combined * combined
        wx = rvx - rpx * inv_horizon
        wy = rvy - rpy * inv_horizon
        w_len_sq = wx * wx + wy * wy
        dot1 = wx * rpx + wy * rpy
        # project onto the cut-off circle
        cut = (dot1 < 0.0) & (dot1 * dot1 > combined_sq * w_len_sq)
        w_len = np.sqrt(w_len_sq)
        unit_x = wx / w_len
        unit_y = wy / w_len
        scale = combined * inv_horizon - w_len
        # or onto a cone leg
        leg = np.sqrt(dist_sq - combined_sq)
        left = rpx * wy - rpy * wx > 0.0
        leg_x = np.where(left, rpx * leg - rpy * combined, rpx * leg + rpy * combined)
        leg_y = np.where(left, rpx * combined + rpy * leg, -rpx * combined + rpy * leg)
        inv_dist_sq = np.where(left, 1.0 / dist_sq, -1.0 / dist_sq)
        leg_x = leg_x * inv_dist_sq
        leg_y = leg_y * inv_dist_sq
        dot2 = rvx * leg_x + rvy * leg_y
        dir_x = np.where(cut, unit_y, leg_x)
        dir_y = np.where(cut, -unit_x, leg_y)
        u_x = np.where(cut, unit_x * scale, leg_x * dot2 - rvx)
        u_y = np.where(cut, unit_y * scale, leg_y * dot2 - rvy)

        # already colliding (rare): resolve within one time step
        for i, j in zip(*np.nonzero(dist_sq <= combined_sq)):
            cx = float(rvx[i, j]) - float(rpx[i, j]) * inv_dt
            cy = float(rvy[i, j]) - float(rpy[i, j]) * inv_dt
            c_len = math.hypot(cx, cy)
            ux, uy = (cx / c_len, cy / c_len) if c_len > 0.0 else (1.0, 0.0)
            c_scale = float(combined[i, j]) * inv_dt - c_len
            dir_x[i, j], dir_y[i, j] = uy, -ux
            u_x[i, j], u_y[i, j] = ux * c_scale, uy * c_scale

        lines = np.stack(
            [vx + u_x * responsibility, vy + u_y * responsibility, dir_x, dir_y], axis=-1
        )
    return lines, k


def orca_velocity(pref_x, pref_y, pref_speed, lines: np.ndarray, num_fixed: int) -> tuple[float, float]:
    """New velocity closest to the preferred one under one pedestrian's
    row of orca_lines.  The robot is never among the neighbors."""
    rows = lines.tolist()
    result, fail = _linear_program2(rows, pref_speed, pref_x, pref_y, False)
    if fail < len(rows):
        result = _linear_program3(rows, num_fixed, fail, pref_speed, result)
    return result


def _sample_ped(ped_id, position, goal, speed_range, config: CrowdConfig, rng) -> tuple:
    """A new pedestrian's Crowd row, walking at its goal."""
    (x, y), (goal_x, goal_y) = position, goal
    speed = float(rng.uniform(*speed_range))
    radius = float(rng.uniform(*config.radius_range))
    rect = bool(rng.random() < config.rect_shape_probability)
    heading, vx, vy = 0.0, 0.0, 0.0
    if math.hypot(goal_x - x, goal_y - y) > 1e-9:
        heading = math.atan2(goal_y - y, goal_x - x)
        vx, vy = speed * math.cos(heading), speed * math.sin(heading)
    return (ped_id, x, y, vx, vy, goal_x, goal_y, speed, radius, rect, 0, heading)


def _area_bounds(config: CrowdConfig) -> tuple[float, float, float, float]:
    cx, cy = config.center
    w, h = config.area
    return cx - w / 2.0, cx + w / 2.0, cy - h / 2.0, cy + h / 2.0


def _random_point(config: CrowdConfig, rng: np.random.Generator) -> tuple[float, float]:
    x0, x1, y0, y1 = _area_bounds(config)
    return float(rng.uniform(x0, x1)), float(rng.uniform(y0, y1))


def _boundary_point(config: CrowdConfig, rng: np.random.Generator) -> tuple[float, float]:
    x0, x1, y0, y1 = _area_bounds(config)
    side = int(rng.integers(0, 4))
    t = float(rng.random())
    if side == 0:
        return x0, y0 + t * (y1 - y0)
    if side == 1:
        return x1, y0 + t * (y1 - y0)
    if side == 2:
        return x0 + t * (x1 - x0), y0
    return x0 + t * (x1 - x0), y1


def spawn_crowd(config: CrowdConfig, rng: np.random.Generator) -> Crowd:
    """Uniformly random pedestrians with random goals inside the area."""
    rows = []
    for i in range(config.count):
        pos = _random_point(config, rng)
        goal = _random_point(config, rng)
        rows.append(_sample_ped(i, pos, goal, config.speed_range, config, rng))
    return Crowd.from_rows(rows)


SCENARIO_KINDS = ("crossing", "towards", "ahead", "random")


def spawn_scenario(
    kind: str,
    count: int,
    config: CrowdConfig,
    rng: np.random.Generator,
    robot_start: Vec2,
    robot_goal: Vec2,
) -> Crowd:
    """Structured crowd start states relative to the robot's route.

    crossing: flow perpendicular to the robot-goal axis; towards: walking
    at the robot's start; ahead: walking in the robot's goal direction at
    reduced speed; random: unconstrained intentions.
    """
    if kind not in SCENARIO_KINDS:
        raise ValueError(f"unknown scenario kind {kind!r}; expected one of {SCENARIO_KINDS}")
    axis = (robot_goal - robot_start).normalized()
    perp = Vec2(-axis.y, axis.x)
    x0, x1, y0, y1 = _area_bounds(config)
    span = max(x1 - x0, y1 - y0)
    speed_range = config.speed_range
    if kind == "ahead":
        lo, hi = config.speed_range
        speed_range = (lo * 0.6, max(lo * 0.6 + 1e-3, hi * 0.6))

    rows: list[tuple] = []
    for i in range(count):
        for _ in range(200):
            pos = Vec2(*_random_point(config, rng))
            if (pos - robot_start).norm() < 1.0:
                continue
            if any((pos - Vec2(row[1], row[2])).norm() < 0.9 for row in rows):
                continue
            break
        if kind == "crossing":
            sign = 1.0 if rng.random() < 0.5 else -1.0
            goal = pos + perp * (sign * span)
        elif kind == "towards":
            goal = robot_start - axis * (0.5 * span) + perp * float(rng.uniform(-1.0, 1.0))
        elif kind == "ahead":
            goal = pos + axis * span
        else:
            goal = Vec2(*_random_point(config, rng))
        rows.append(_sample_ped(i, (pos.x, pos.y), (goal.x, goal.y), speed_range, config, rng))
    return Crowd.from_rows(rows)


def step_crowd(
    crowd: Crowd,
    config: CrowdConfig,
    dt: float,
    rng: np.random.Generator,
    discs: np.ndarray,
) -> Crowd:
    """Advance all pedestrians by one step of dt seconds.

    New velocities are computed from the previous snapshot and committed
    together; discs are the (k, 3) obstacle_discs rows to avoid.  Handles
    stop-and-go pauses, goal renewal, and walk-ins; fully deterministic
    under a fixed generator state.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    rows: list[tuple] = []
    if len(crowd):  # an empty crowd has no constraints to build
        lines, num_fixed = orca_lines(crowd, discs, dt)
        # the per-operation checks of Vec2 code, done once per step
        finite = np.isfinite(lines).all(axis=(1, 2))

        for i, row in enumerate(crowd.rows()):
            ped_id, x, y, vx, vy, goal_x, goal_y, speed, radius, rect, stopped, heading = row
            if stopped > 0:
                stopped -= 1
            elif config.stop_go_probability > 0.0 and rng.random() < config.stop_go_probability:
                # geometric pause, one expected second long
                stopped = int(rng.geometric(min(1.0, dt / MEAN_STOP_SECONDS)))

            if stopped > 0:
                rows.append((ped_id, x, y, 0.0, 0.0, goal_x, goal_y, speed, radius, rect, stopped, heading))
                continue

            if not finite[i]:
                raise ValueError(f"non-finite ORCA constraint for pedestrian {ped_id}")
            pref_x, pref_y = preferred_velocity(x, y, goal_x, goal_y, speed)
            vx, vy = orca_velocity(pref_x, pref_y, speed, lines[i], num_fixed)
            x, y = x + vx * dt, y + vy * dt
            if math.hypot(x - goal_x, y - goal_y) < GOAL_REACHED_DIST:
                goal_x, goal_y = _random_point(config, rng)
            if math.hypot(vx, vy) >= STILL_SPEED:
                heading = math.atan2(vy, vx)
            rows.append((ped_id, x, y, vx, vy, goal_x, goal_y, speed, radius, rect, 0, heading))

    if config.walk_in_probability > 0.0 and len(rows) < config.max_count:
        if rng.random() < config.walk_in_probability:
            next_id = max(crowd.ids.tolist(), default=-1) + 1
            pos = _boundary_point(config, rng)
            goal = _random_point(config, rng)
            rows.append(_sample_ped(next_id, pos, goal, config.speed_range, config, rng))
    return Crowd.from_rows(rows) if rows else crowd

"""ORCA-driven pedestrian simulation with randomized behaviors.

Each pedestrian picks, every step, the velocity closest to its preferred
velocity among those satisfying per-neighbor reciprocal half-plane
constraints (2D linear program, with a fallback that minimizes the worst
violation when the constraints are infeasible).  Pedestrians avoid each
other and static obstacles but never see the robot.

A Crowd is its pedestrians' rows of Python scalars, which the step, the
collision check and the social reward read.  Each step builds every
pedestrian's half-planes in one numpy pass over the columns of those rows
(orca_lines), the crowd's one array code; the small per-pedestrian LP
runs as scalar code on floats (orca_velocity).  A step maps rows to rows
(step_rows), so it can run where no Crowd is built (the crowd worker,
crowdfeed); step_crowd is step_rows plus the Crowd of the new rows.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .geometry import Scene, rect_row

ORCA_EPSILON = 1e-5
AGENT_TIME_HORIZON = 2.0
OBSTACLE_TIME_HORIZON = 1.0
GOAL_REACHED_DIST = 0.3
MEAN_STOP_SECONDS = 1.0
STILL_SPEED = 0.05
SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True, eq=False)
class Crowd:
    """Every pedestrian's state as one row of Python scalars, and the
    scanner's view of them."""

    # (id, x, y, vx, vy, goal x, goal y, pref_speed, radius, rect, stopped, motion_heading):
    # an int id, unique; a bool rect, True when scanned as an oriented square; an int stopped,
    # > 0 while in a stop-and-go pause; floats elsewhere
    # radius is the bounding circle of avoidance and collision checks, motion_heading the
    # last heading of actual motion
    rows: tuple
    scene: Scene  # a round pedestrian's circle, a rect one's inscribed square along its motion heading

    @staticmethod
    def from_rows(rows) -> "Crowd":
        """The crowd of these rows, which it keeps as they are."""
        rows = tuple(rows)
        circles, squares = [], []
        for _, x, y, _, _, _, _, _, r, rect, _, heading in rows:
            if rect:
                side = r / SQRT2
                squares.append(rect_row(x, y, heading, side, 2.0 * side))
            else:
                circles.append((x, y, r))
        return Crowd(rows, Scene.pack(circles, squares, ()))

    def __len__(self) -> int:
        return len(self.rows)

    def distances(self, x: float, y: float) -> list[float]:
        """Every pedestrian's center distance from the point (x, y), in row order."""
        return [math.hypot(x - row[1], y - row[2]) for row in self.rows]


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
        for name in ("speed_range", "radius_range"):
            lo, hi = getattr(self, name)
            if not 0.0 < lo <= hi < math.inf:
                raise ValueError(f"{name} must be finite, positive and nonempty, got {getattr(self, name)}")
        if self.max_count < 0:
            raise ValueError(f"max_count must be nonnegative, got {self.max_count}")
        for name in ("walk_in_probability", "stop_go_probability", "rect_shape_probability"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {getattr(self, name)}")
        if not all(0.0 < side < math.inf for side in self.area):
            raise ValueError(f"area sides must be finite and positive, got {self.area}")
        if not all(map(math.isfinite, self.center)):
            raise ValueError(f"center must be finite, got {self.center}")


def _normalized(x: float, y: float) -> tuple[float, float]:
    n = math.hypot(x, y)
    if n == 0.0:
        raise ValueError("cannot normalize zero vector")
    return x / n, y / n


# The LP works on lists of constraint lines [point_x, point_y, dir_x, dir_y]
# of plain floats; det(a, b) = a.x * b.y - a.y * b.x is written out inline,
# and min/max as comparisons that keep the same operand on ties.


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

    for qx, qy, ex, ey in lines[:line_no]:
        denominator = dx * ey - dy * ex
        numerator = ex * (py - qy) - ey * (px - qx)
        if abs(denominator) <= ORCA_EPSILON:
            if numerator < 0.0:
                return None
            continue
        t = numerator / denominator
        if denominator >= 0.0:
            if t < t_right:
                t_right = t
        elif t > t_left:
            t_left = t
        if t_left > t_right:
            return None

    if direction_opt:
        t = t_right if opt_x * dx + opt_y * dy > 0.0 else t_left
    else:
        t = dx * (opt_x - px) + dy * (opt_y - py)
        t = t if t > t_left else t_left
        t = t if t < t_right else t_right
    return px + dx * t, py + dy * t


def _linear_program2(lines, radius, opt_x, opt_y, direction_opt):
    """Sequential 2D LP; returns (result, index of first failing line or len)."""
    if direction_opt:
        rx, ry = opt_x * radius, opt_y * radius
    elif opt_x * opt_x + opt_y * opt_y > radius * radius:
        ux, uy = _normalized(opt_x, opt_y)
        rx, ry = ux * radius, uy * radius
    else:
        rx, ry = opt_x, opt_y

    for i, (px, py, dx, dy) in enumerate(lines):
        if dx * (py - ry) - dy * (px - rx) > 0.0:
            result = _linear_program1(lines, i, radius, opt_x, opt_y, direction_opt)
            if result is None:
                return (rx, ry), i
            rx, ry = result
    return (rx, ry), len(lines)


def _linear_program3(lines, num_fixed, begin_line, radius, rx, ry):
    """Minimize the maximum constraint violation when the 2D LP failed at
    (rx, ry).

    The first num_fixed lines (static obstacles) stay hard; the rest are
    relaxed uniformly, equivalent to the 3D program of the reference
    formulation projected back to 2D.
    """
    distance = 0.0
    for i in range(begin_line, len(lines)):
        px, py, dx, dy = lines[i]
        if dx * (py - ry) - dy * (px - rx) > distance:
            proj_lines = lines[:num_fixed]
            for qx, qy, ex, ey in lines[num_fixed:i]:
                determinant = dx * ey - dy * ex
                if abs(determinant) <= ORCA_EPSILON:
                    if dx * ex + dy * ey > 0.0:
                        continue  # parallel, same direction
                    point_x, point_y = (px + qx) * 0.5, (py + qy) * 0.5
                else:
                    t = (ex * (py - qy) - ey * (px - qx)) / determinant
                    point_x, point_y = px + dx * t, py + dy * t
                proj_lines.append((point_x, point_y, *_normalized(ex - dx, ey - dy)))

            new_result, fail = _linear_program2(proj_lines, radius, -dy, dx, True)
            if fail >= len(proj_lines):
                rx, ry = new_result
            distance = dx * (py - ry) - dy * (px - rx)
    return rx, ry


def preferred_velocity(x, y, goal_x, goal_y, pref_speed) -> tuple[float, float]:
    """Unit vector to the goal scaled by the preferred speed."""
    to_x, to_y = goal_x - x, goal_y - y
    dist = math.hypot(to_x, to_y)
    if dist < 1e-9:
        return 0.0, 0.0
    scale = pref_speed / dist
    return to_x * scale, to_y * scale


# the position, velocity and radius of a crowd row
_ORCA_COLUMNS = operator.itemgetter(1, 2, 3, 4, 8)
# (y, x) * _PERPENDICULAR is (y, -x), a direction turned right
_PERPENDICULAR = np.array([1.0, -1.0])[:, None, None]


@functools.lru_cache(maxsize=64)
def _pair_layout(n: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For n pedestrians among k discs: the flat indices into an
    (n, k + n) array of every pair of a pedestrian with the discs and the
    other pedestrians, in row order, and the inverse time horizon and
    responsibility of each of a pedestrian's k + n - 1 pairs."""
    index = np.flatnonzero(~np.eye(n, k + n, k, dtype=bool))
    inv_horizon, responsibility = np.full((2, k + n - 1), [[1.0 / AGENT_TIME_HORIZON], [0.5]])
    inv_horizon[:k], responsibility[:k] = 1.0 / OBSTACLE_TIME_HORIZON, 1.0
    return index, inv_horizon, responsibility


def orca_lines(rows, discs: np.ndarray, dt: float) -> tuple[np.ndarray, int]:
    """Every pedestrian's ORCA half-planes, built from one snapshot of a
    crowd's rows.

    Returns (lines, num_fixed): lines[i] is an (m, 4) array of rows
    (point_x, point_y, dir_x, dir_y) for pedestrian i, first one per
    obstacle disc (num_fixed of them, full responsibility, obstacle time
    horizon), then one per other pedestrian in row order (half
    responsibility, agent time horizon).  discs holds the (k, 3)
    StaticMap.bounding_discs rows, k = 0 for none.  The permitted
    velocities lie left of each directed line.

    The arithmetic is that of the scalar reference formulation, operation
    by operation, so the lines are bitwise those of per-pair scalar code.
    Rows are not checked for finiteness here; step_rows rejects the
    non-finite ones of the pedestrians it moves.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if not len(rows):
        return np.empty((0, 0, 4)), 0
    inv_dt = 1.0 / dt
    k, n = len(discs), len(rows)
    m = k + n - 1

    # (x, y, vx, vy, radius) of each pedestrian, then of everything it avoids
    own = np.fromiter(itertools.chain.from_iterable(map(_ORCA_COLUMNS, rows)), float, 5 * n).reshape(n, 5).T
    them = np.zeros((5, k + n))
    them[:2, :k], them[4, :k] = discs[:, :2].T, discs[:, 2]
    them[:, k:] = own
    v = own[2:4, :, None]
    index, inv_horizon, responsibility = _pair_layout(n, k)

    # Every branch runs on every lane and the masks pick each lane's own
    # branch, so the other lanes may divide by zero or take a negative
    # sqrt.  Overflow is not flagged either: step_rows rejects the
    # non-finite rows it uses.  An (x, y) pair of (n, m) arrays runs as
    # one (2, n, m) array, the same operations on the same lanes.
    with np.errstate(all="ignore"):
        # relative position, relative velocity (obstacles are still) and
        # combined radius of every pair, gathered once without the pairs
        # of a pedestrian with itself
        pair = np.empty((5, n, k + n))
        np.subtract(them[:2, None, :], own[:2, :, None], out=pair[:2])
        np.subtract(own[2:4, :, None], them[2:4, None, :], out=pair[2:4])
        np.add(own[4, :, None], them[4, None, :], out=pair[4])
        pair = pair.reshape(5, -1).take(index, axis=1).reshape(5, n, m)
        rp, rv, combined = pair[:2], pair[2:4], pair[4]
        sq = rp * rp
        dist_sq = sq[0] + sq[1]
        combined_sq = combined * combined
        w = rv - rp * inv_horizon
        sq = w * w
        w_len_sq = sq[0] + sq[1]
        sq = w * rp
        dot1 = sq[0] + sq[1]
        # project onto the cut-off circle
        cut = (dot1 < 0.0) & (dot1 * dot1 > combined_sq * w_len_sq)
        w_len = np.sqrt(w_len_sq)
        unit = w / w_len
        scale = combined * inv_horizon - w_len
        # or onto a cone leg, on the left (sign +1) or the right (-1):
        # a - b is a + -b and -a is -1 * a, bit for bit
        leg = np.sqrt(dist_sq - combined_sq)
        sq = rp * w[::-1]
        sign = np.where(sq[0] - sq[1] > 0.0, 1.0, -1.0)
        along, across = rp * leg, rp * combined * sign
        leg = np.empty_like(rp)
        np.subtract(along[0], across[1], out=leg[0])
        np.add(across[0], along[1], out=leg[1])
        leg *= sign / dist_sq
        sq = rv * leg
        dot2 = sq[0] + sq[1]
        direction = np.where(cut, unit[::-1] * _PERPENDICULAR, leg)
        u = np.where(cut, unit * scale, leg * dot2 - rv)

        # already colliding (rare): resolve within one time step
        colliding = dist_sq <= combined_sq
        if colliding.any():
            (rpx, rpy), (rvx, rvy) = rp, rv
            for i, j in zip(*np.nonzero(colliding)):
                cx = float(rvx[i, j]) - float(rpx[i, j]) * inv_dt
                cy = float(rvy[i, j]) - float(rpy[i, j]) * inv_dt
                c_len = math.hypot(cx, cy)
                ux, uy = (cx / c_len, cy / c_len) if c_len > 0.0 else (1.0, 0.0)
                c_scale = float(combined[i, j]) * inv_dt - c_len
                direction[:, i, j] = uy, -ux
                u[:, i, j] = ux * c_scale, uy * c_scale

        # (point x, point y, dir x, dir y) as the last axis of a view
        lines = np.empty((4, n, m))
        np.multiply(u, responsibility, out=lines[:2])
        lines[:2] += v
        lines[2:] = direction
    return lines.transpose(1, 2, 0), k


def orca_velocity(pref_x, pref_y, pref_speed, lines: list, num_fixed: int) -> tuple[float, float]:
    """New velocity closest to the preferred one under one pedestrian's
    row of orca_lines, given as a list of [point_x, point_y, dir_x, dir_y]
    lists.  The robot is never among the neighbors."""
    (x, y), fail = _linear_program2(lines, pref_speed, pref_x, pref_y, False)
    if fail < len(lines):
        return _linear_program3(lines, num_fixed, fail, pref_speed, x, y)
    return x, y


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
    robot_start: tuple[float, float],
    robot_goal: tuple[float, float],
) -> Crowd:
    """Structured crowd start states relative to the robot's route, given
    as (x, y) points.

    crossing: flow perpendicular to the robot-goal axis; towards: walking
    at the robot's start; ahead: walking in the robot's goal direction at
    reduced speed; random: unconstrained intentions.
    """
    if kind not in SCENARIO_KINDS:
        raise ValueError(f"unknown scenario kind {kind!r}; expected one of {SCENARIO_KINDS}")
    (sx, sy), (gx, gy) = robot_start, robot_goal
    ax, ay = _normalized(gx - sx, gy - sy)  # the route's axis, and left of it (-ay, ax)
    x0, x1, y0, y1 = _area_bounds(config)
    span = max(x1 - x0, y1 - y0)
    speed_range = config.speed_range
    if kind == "ahead":
        lo, hi = config.speed_range
        speed_range = (lo * 0.6, max(lo * 0.6 + 1e-3, hi * 0.6))

    rows: list[tuple] = []
    for i in range(count):
        for _ in range(200):
            x, y = _random_point(config, rng)
            if math.hypot(x - sx, y - sy) < 1.0:
                continue
            if any(math.hypot(x - row[1], y - row[2]) < 0.9 for row in rows):
                continue
            break
        if kind == "crossing":
            sign = 1.0 if rng.random() < 0.5 else -1.0
            goal = (x + -ay * (sign * span), y + ax * (sign * span))
        elif kind == "towards":
            u = float(rng.uniform(-1.0, 1.0))
            goal = (sx - ax * (0.5 * span) + -ay * u, sy - ay * (0.5 * span) + ax * u)
        elif kind == "ahead":
            goal = (x + ax * span, y + ay * span)
        else:
            goal = _random_point(config, rng)
        rows.append(_sample_ped(i, (x, y), goal, speed_range, config, rng))
    return Crowd.from_rows(rows)


def crowd_moves(rows, config: CrowdConfig) -> bool:
    """Whether a step can change a crowd of these rows: it has pedestrians
    or may gain one.  An empty crowd that cannot gain one draws nothing
    from its generator, so skipping its step changes no output."""
    return len(rows) > 0 or config.walk_in_probability > 0.0


def step_rows(rows, config: CrowdConfig, dt: float, rng: np.random.Generator, discs: np.ndarray) -> tuple:
    """The rows of a crowd of these rows one step of dt seconds later.

    New velocities are computed from the previous snapshot and committed
    together; discs are the (k, 3) StaticMap.bounding_discs rows to
    avoid.  Handles stop-and-go pauses, goal renewal, and walk-ins; fully
    deterministic under a fixed generator state.  Raises ValueError when
    a pedestrian that moves has a non-finite constraint, after the
    draws of the pedestrians before it.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    new_rows: list[tuple] = []
    if len(rows):  # an empty crowd has no constraints to build
        lines, num_fixed = orca_lines(rows, discs, dt)
        # the finiteness checks of per-pair scalar code, done once per step
        finite = None if np.isfinite(lines).all() else np.isfinite(lines).all(axis=(1, 2)).tolist()
        line_rows = lines.tolist()

        for i, row in enumerate(rows):
            ped_id, x, y, vx, vy, goal_x, goal_y, speed, radius, rect, stopped, heading = row
            if stopped > 0:
                stopped -= 1
            elif config.stop_go_probability > 0.0 and rng.random() < config.stop_go_probability:
                # geometric pause, one expected second long
                stopped = int(rng.geometric(min(1.0, dt / MEAN_STOP_SECONDS)))

            if stopped > 0:
                new_rows.append((ped_id, x, y, 0.0, 0.0, goal_x, goal_y, speed, radius, rect, stopped, heading))
                continue

            if finite is not None and not finite[i]:
                raise ValueError(f"non-finite ORCA constraint for pedestrian {ped_id}")
            pref_x, pref_y = preferred_velocity(x, y, goal_x, goal_y, speed)
            vx, vy = orca_velocity(pref_x, pref_y, speed, line_rows[i], num_fixed)
            x, y = x + vx * dt, y + vy * dt
            if math.hypot(x - goal_x, y - goal_y) < GOAL_REACHED_DIST:
                goal_x, goal_y = _random_point(config, rng)
            if math.hypot(vx, vy) >= STILL_SPEED:
                heading = math.atan2(vy, vx)
            new_rows.append((ped_id, x, y, vx, vy, goal_x, goal_y, speed, radius, rect, 0, heading))

    if config.walk_in_probability > 0.0 and len(new_rows) < config.max_count:
        if rng.random() < config.walk_in_probability:
            next_id = max((row[0] for row in rows), default=-1) + 1
            pos = _boundary_point(config, rng)
            goal = _random_point(config, rng)
            new_rows.append(_sample_ped(next_id, pos, goal, config.speed_range, config, rng))
    return tuple(new_rows)


def step_crowd(
    crowd: Crowd,
    config: CrowdConfig,
    dt: float,
    rng: np.random.Generator,
    discs: np.ndarray,
) -> Crowd:
    """Advance all pedestrians by one step of dt seconds (step_rows), and
    build the crowd of their new rows."""
    rows = step_rows(crowd.rows, config, dt, rng, discs)
    return Crowd.from_rows(rows) if rows else crowd


# What this module's names hold as it defines them.  The crowd worker
# (crowdfeed) runs these, so a process that has replaced one, as a
# tracer or a test spy does, steps its crowd inline, where the
# replacement sees every call.
_DEFINED = {name: value for name, value in globals().items() if callable(value)}


def defined_step(step) -> bool:
    """Whether step, a caller's step_crowd, and every function of this
    module are the ones it defines."""
    names = globals()
    return step is _DEFINED["step_crowd"] and all(names.get(name) is value for name, value in _DEFINED.items())

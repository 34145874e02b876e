"""Episode engine: randomized maps, robot kinematics, clocking, rewards.

The scanner, controller, and policy run at separate rates (40/20/10 Hz
by default).  One call to step() covers a full policy period: the inner
controller tracks the commanded heading offset, the crowd advances, the
scanner captures sweeps, and the reward is assessed on the final state.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np
import yaml

from . import rewards
from .crowd import STILL_SPEED, CrowdConfig, spawn_crowd, spawn_scenario, step_crowd
from .geometry import Circle, OrientedRect, Segment, Shape, Vec2, closest_distance, wrap_angle
from .lidar import HISTORY_LEN, LidarConfig, MotionFeature, Scan, build_motion_feature, simulate_scan

ACTION_LIMIT = 1.5
V_MAX = 1.5


@dataclass(frozen=True)
class RobotState:
    x: float
    y: float
    heading: float
    v_l: float = 0.0
    omega: float = 0.0
    radius: float = 0.3

    def position(self) -> Vec2:
        return Vec2(self.x, self.y)

    def body(self) -> Circle:
        return Circle(self.position(), self.radius)


class Status(str, enum.Enum):
    RUNNING = "running"
    REACHED = "reached"
    COLLIDED = "collided"
    TIMEOUT = "timeout"


@dataclass(frozen=True)
class StepOutcome:
    observation: MotionFeature
    reward: float
    reward_parts: tuple[float, float, float]  # (ego, social, goal)
    done: Status
    info: dict


@dataclass(frozen=True)
class EnvConfig:
    arena_half: float = 5.0
    start: tuple[float, float] = (-3.5, 0.0)
    goal: tuple[float, float] = (3.5, 0.0)
    start_heading: float | None = None  # None: face the goal
    robot_radius: float = 0.3
    goal_tolerance: float = 0.3
    max_steps: int = 400
    map_seed: int = 0
    obstacle_count_range: tuple[int, int] = (4, 8)
    obstacle_size_range: tuple[float, float] = (0.3, 1.2)
    scan_hz: int = 40
    control_hz: int = 20
    policy_hz: int = 10
    beam_count: int = 1080
    noise_sigma: float = 0.0
    heading_gain: float = 2.0
    turn_rate_cap: float = 2.0
    walls: bool = True
    scenario: str | None = None  # crowd layout kind, None for uniform random
    crowd: CrowdConfig = field(default_factory=lambda: CrowdConfig(count=0))

    def __post_init__(self):
        if self.scan_hz <= 0 or self.control_hz <= 0 or self.policy_hz <= 0:
            raise ValueError("rates must be positive")
        if self.scan_hz % self.control_hz or self.scan_hz % self.policy_hz:
            raise ValueError("scan_hz must be a multiple of control_hz and policy_hz")
        if self.start == self.goal:
            raise ValueError("start must differ from goal")
        if self.max_steps <= 0:
            raise ValueError(f"max_steps must be positive, got {self.max_steps}")
        if self.beam_count < 2:
            raise ValueError(f"beam_count must be at least 2, got {self.beam_count}")
        for name in ("obstacle_count_range", "obstacle_size_range"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ValueError(f"{name} must have lo <= hi, got {(lo, hi)}")
        if self.walls:
            # a robot touching a wall at spawn has already collided
            limit = self.arena_half - self.robot_radius
            for name in ("start", "goal"):
                x, y = getattr(self, name)
                if not (abs(x) < limit and abs(y) < limit):
                    raise ValueError(
                        f"{name} {(x, y)} must lie inside the walls, |x| and |y| < {limit}"
                    )

    def lidar(self) -> LidarConfig:
        return LidarConfig(beam_count=self.beam_count, noise_sigma=self.noise_sigma)

    def to_dict(self) -> dict:
        d = {
            k: list(v) if isinstance(v, tuple) else v
            for k, v in self.__dict__.items()
            if k != "crowd"
        }
        d["crowd"] = {
            k: list(v) if isinstance(v, tuple) else v for k, v in self.crowd.__dict__.items()
        }
        return d

    @staticmethod
    def from_dict(d: dict) -> "EnvConfig":
        d = dict(d)
        crowd_d = d.pop("crowd", {})
        crowd_fields = {f for f in CrowdConfig.__dataclass_fields__}
        unknown = set(crowd_d) - crowd_fields
        if unknown:
            raise ValueError(f"unknown crowd config keys: {sorted(unknown)}")
        crowd_kwargs = {
            k: tuple(v) if isinstance(v, list) else v for k, v in crowd_d.items()
        }
        env_fields = {f for f in EnvConfig.__dataclass_fields__}
        unknown = set(d) - env_fields
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kwargs = {k: tuple(v) if isinstance(v, list) else v for k, v in d.items()}
        kwargs["crowd"] = CrowdConfig(**crowd_kwargs)
        return EnvConfig(**kwargs)


def load_config(path) -> EnvConfig:
    with open(path) as f:
        data = yaml.safe_load(f) or {}
    return EnvConfig.from_dict(data)


def save_config(config: EnvConfig, path) -> None:
    with open(path, "w") as f:
        yaml.safe_dump(config.to_dict(), f, sort_keys=True)


# ---------------------------------------------------------------------------
# Kinematics


def action_to_twist(a_x: float, a_y: float) -> tuple[float, float]:
    """Map a 2-D action to linear speed and target heading offset.

    Speed is the (clamped) Euclidean norm; the angle atan2(a_y, a_x) in
    [-pi, pi] is a desired heading change tracked by the inner
    proportional controller, not a raw angular rate.
    """
    a_x = float(np.clip(a_x, -ACTION_LIMIT, ACTION_LIMIT))
    a_y = float(np.clip(a_y, -ACTION_LIMIT, ACTION_LIMIT))
    v_l = min(V_MAX, math.hypot(a_x, a_y))
    v_w = math.atan2(a_y, a_x)
    return v_l, v_w


def integrate(robot: RobotState, v_l: float, omega: float, dt: float) -> RobotState:
    """Unicycle update with exact-arc integration; no lateral motion."""
    theta = robot.heading
    if abs(omega) > 1e-6:
        new_theta = theta + omega * dt
        k = v_l / omega
        x = robot.x + k * (math.sin(new_theta) - math.sin(theta))
        y = robot.y - k * (math.cos(new_theta) - math.cos(theta))
    else:
        x = robot.x + v_l * dt * math.cos(theta)
        y = robot.y + v_l * dt * math.sin(theta)
        new_theta = theta + omega * dt
    return replace(robot, x=x, y=y, heading=wrap_angle(new_theta), v_l=v_l, omega=omega)


# ---------------------------------------------------------------------------
# Map randomization


def arena_walls(half: float) -> list[Segment]:
    c = [Vec2(-half, -half), Vec2(half, -half), Vec2(half, half), Vec2(-half, half)]
    return [Segment(c[i], c[(i + 1) % 4]) for i in range(4)]


def _sample_obstacle(rng: np.random.Generator, config: EnvConfig) -> Shape:
    lo, hi = config.obstacle_size_range
    margin = 0.5
    x = float(rng.uniform(-config.arena_half + margin, config.arena_half - margin))
    y = float(rng.uniform(-config.arena_half + margin, config.arena_half - margin))
    if rng.random() < 0.5:
        return Circle(Vec2(x, y), float(rng.uniform(lo, hi)) / 2.0)
    length = float(rng.uniform(lo, hi))
    half_width = float(rng.uniform(lo, hi)) / 2.0
    heading = float(rng.uniform(-math.pi, math.pi))
    anchor = Vec2(x, y) - Vec2.from_angle(heading) * (length / 2.0)
    return OrientedRect(anchor, heading, half_width=half_width, length=length)


def _grid_free(
    obstacles: list[Shape], config: EnvConfig, resolution: float = 0.1
) -> tuple[np.ndarray, float, float]:
    """Occupancy grid of cells a robot disc can stand on."""
    half = config.arena_half
    inflate = config.robot_radius
    coords = np.arange(-half + resolution / 2.0, half, resolution)
    xs, ys = np.meshgrid(coords, coords, indexing="ij")
    free = (np.abs(xs) < half - inflate) & (np.abs(ys) < half - inflate)
    for shape in obstacles:
        if isinstance(shape, Circle):
            d = np.hypot(xs - shape.center.x, ys - shape.center.y) - shape.radius
        elif isinstance(shape, OrientedRect):
            fwd, left = shape.axes()
            dx = xs - shape.anchor.x
            dy = ys - shape.anchor.y
            lx = dx * fwd.x + dy * fwd.y - shape.length / 2.0
            ly = dx * left.x + dy * left.y
            qx = np.abs(lx) - shape.length / 2.0
            qy = np.abs(ly) - shape.half_width
            d = np.hypot(np.maximum(qx, 0.0), np.maximum(qy, 0.0)) + np.minimum(
                np.maximum(qx, qy), 0.0
            )
        else:
            continue
        free &= d > inflate
    return free, -half + resolution / 2.0, resolution


def _grid_connected(free: np.ndarray, start_ij, goal_ij) -> bool:
    if not (free[start_ij] and free[goal_ij]):
        return False
    n, m = free.shape
    visited = np.zeros_like(free, dtype=bool)
    queue = deque([start_ij])
    visited[start_ij] = True
    while queue:
        i, j = queue.popleft()
        if (i, j) == goal_ij:
            return True
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            ni, nj = i + di, j + dj
            if 0 <= ni < n and 0 <= nj < m and free[ni, nj] and not visited[ni, nj]:
                visited[ni, nj] = True
                queue.append((ni, nj))
    return False


def corridor_exists(obstacles: list[Shape], config: EnvConfig, resolution: float = 0.1) -> bool:
    """Coarse grid BFS between start and goal with inflated obstacles."""
    free, origin, res = _grid_free(obstacles, config, resolution)

    def cell(p):
        i = int(round((p[0] - origin) / res))
        j = int(round((p[1] - origin) / res))
        n, m = free.shape
        return min(max(i, 0), n - 1), min(max(j, 0), m - 1)

    return _grid_connected(free, cell(config.start), cell(config.goal))


def randomize_map(rng: np.random.Generator, config: EnvConfig, max_attempts: int = 100) -> list[Shape]:
    """Sample static obstacles leaving a start-to-goal corridor.

    Placements overlapping the 0.8 m discs around start or goal are
    rejected; whole maps failing the corridor check are resampled.
    """
    lo, hi = config.obstacle_count_range
    start_disc = Circle(Vec2(*config.start), 0.8)
    goal_disc = Circle(Vec2(*config.goal), 0.8)
    for _ in range(max_attempts):
        count = int(rng.integers(lo, hi + 1))
        obstacles: list[Shape] = []
        for _ in range(count):
            for _ in range(50):
                shape = _sample_obstacle(rng, config)
                if closest_distance(start_disc, [shape]) <= 0.0:
                    continue
                if closest_distance(goal_disc, [shape]) <= 0.0:
                    continue
                obstacles.append(shape)
                break
        if corridor_exists(obstacles, config):
            return obstacles
    raise RuntimeError(
        f"no connected map found in {max_attempts} attempts; configuration too dense"
    )


# ---------------------------------------------------------------------------
# Episode engine


class NavEnv:
    """Single-episode navigation environment; one instance per thread."""

    def __init__(self, config: EnvConfig):
        self.config = config
        self.lidar_config = config.lidar()
        self.ticks_per_step = config.scan_hz // config.policy_hz
        self.ticks_per_control = config.scan_hz // config.control_hz
        self.tick_dt = 1.0 / config.scan_hz
        self.control_dt = 1.0 / config.control_hz
        self.status = Status.RUNNING
        self._needs_reset = True

    # -- lifecycle

    def reset(self, map_seed: int | None = None, crowd_seed: int | None = None) -> MotionFeature:
        cfg = self.config
        map_seed = cfg.map_seed if map_seed is None else map_seed
        crowd_seed = cfg.crowd.seed if crowd_seed is None else crowd_seed
        self.map_rng = np.random.default_rng(np.random.SeedSequence(map_seed))
        crowd_ss = np.random.SeedSequence(crowd_seed)
        self.crowd_rng = np.random.default_rng(crowd_ss)
        self.noise_rng = np.random.default_rng(crowd_ss.spawn(1)[0])

        self.obstacles: list[Shape] = []
        if cfg.obstacle_count_range[1] > 0:
            self.obstacles = randomize_map(self.map_rng, cfg)
        self.wall_segments: list[Shape] = list(arena_walls(cfg.arena_half)) if cfg.walls else []

        start = Vec2(*cfg.start)
        goal = Vec2(*cfg.goal)
        heading = cfg.start_heading
        if heading is None:
            heading = (goal - start).angle()
        self.robot = RobotState(
            start.x, start.y, wrap_angle(heading), radius=cfg.robot_radius
        )
        self.goal = goal
        self.start = start
        self.initial_goal_distance = (goal - start).norm()
        self.robot_motion_heading = self.robot.heading

        if cfg.scenario is not None:
            self.peds = spawn_scenario(
                cfg.scenario, cfg.crowd.count, cfg.crowd, self.crowd_rng, start, goal
            )
        else:
            self.peds = spawn_crowd(cfg.crowd, self.crowd_rng)

        self.status = Status.RUNNING
        self.steps = 0
        self.tick = 0
        self.sim_time = 0.0
        self._desired_heading = self.robot.heading
        self._twist = (0.0, 0.0)
        first = self._scan()
        self.scan_history: deque[Scan] = deque([first] * HISTORY_LEN, maxlen=HISTORY_LEN)
        self._needs_reset = False
        return self._observation()

    # -- internals

    def _world_shapes(self) -> list[Shape]:
        shapes = list(self.obstacles) + self.wall_segments
        shapes.extend(p.lidar_shape() for p in self.peds)
        return shapes

    def _collision_shapes(self) -> list[Shape]:
        shapes = list(self.obstacles) + self.wall_segments
        shapes.extend(p.body() for p in self.peds)
        return shapes

    def _scan(self) -> Scan:
        return simulate_scan(
            self._world_shapes(),
            self.robot.position(),
            self.robot.heading,
            self.tick,
            self.lidar_config,
            self.noise_rng,
        )

    def _goal_relative(self) -> tuple[float, float]:
        to_goal = self.goal - self.robot.position()
        bearing = wrap_angle(to_goal.angle() - self.robot.heading)
        return to_goal.norm(), bearing

    def _observation(self) -> MotionFeature:
        dist, bearing = self._goal_relative()
        return build_motion_feature(
            list(self.scan_history), self.robot.heading, dist, bearing, self.lidar_config
        )

    def _check_terminal(self) -> None:
        shapes = self._collision_shapes()
        if shapes and closest_distance(self.robot.body(), shapes) <= 0.0:
            self.status = Status.COLLIDED
            return
        if (self.goal - self.robot.position()).norm() < self.config.goal_tolerance:
            self.status = Status.REACHED

    # -- stepping

    def step(self, action) -> StepOutcome:
        if self._needs_reset:
            raise RuntimeError("call reset() before step()")
        if self.status is not Status.RUNNING:
            raise RuntimeError(f"episode already finished ({self.status.value})")
        a_x, a_y = float(action[0]), float(action[1])
        v_l, v_w = action_to_twist(a_x, a_y)
        self._desired_heading = wrap_angle(self.robot.heading + v_w)

        for i in range(self.ticks_per_step):
            if self.status is Status.RUNNING and i % self.ticks_per_control == 0:
                err = wrap_angle(self._desired_heading - self.robot.heading)
                omega = float(
                    np.clip(
                        self.config.heading_gain * err,
                        -self.config.turn_rate_cap,
                        self.config.turn_rate_cap,
                    )
                )
                self._twist = (v_l, omega)
                self.robot = integrate(self.robot, v_l, omega, self.control_dt)
                if v_l >= STILL_SPEED:
                    self.robot_motion_heading = self.robot.heading
                self.peds = step_crowd(
                    self.peds,
                    self.config.crowd,
                    self.control_dt,
                    self.crowd_rng,
                    self.obstacles,
                )
                self._check_terminal()
            self.tick += 1
            self.sim_time += self.tick_dt
            self.scan_history.append(self._scan())

        self.steps += 1
        if self.status is Status.RUNNING and self.steps >= self.config.max_steps:
            self.status = Status.TIMEOUT

        assessment = rewards.assess(
            self.robot.body(),
            self.robot_motion_heading,
            abs(self.robot.v_l),
            self.peds,
            self.obstacles + self.wall_segments,
            self.goal,
            self.start,
            reached=self.status is Status.REACHED,
        )
        parts = (assessment.r_ego, assessment.r_social, assessment.r_goal)
        outcome = StepOutcome(
            observation=self._observation(),
            reward=assessment.total,
            reward_parts=parts,
            done=self.status,
            info={
                "d_t": assessment.d_t,
                "ego_violation": assessment.ego_violation,
                "social_violations": assessment.violations,
                "considered_pedestrians": assessment.considered_pedestrians,
                "sim_time": self.sim_time,
                "steps": self.steps,
                "robot": self.robot,
                "twist": self._twist,
                "action": (a_x, a_y),
                "pedestrians": [
                    (p.position.x, p.position.y, p.motion_heading) for p in self.peds
                ],
            },
        )
        return outcome

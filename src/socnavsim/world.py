"""Episode engine: randomized maps, robot kinematics, clocking, rewards.

The scanner, controller, and policy run at separate rates (40/20/10 Hz
by default).  One call to step() covers a full policy period: the inner
controller tracks the commanded heading offset, the crowd advances, the
scanner captures sweeps, and the reward is assessed on the final state.
The robot and the crowd move only on control ticks, so the scanner
casts once per reset and once per control tick; every scan tick in
between reads that sweep, adding its own range noise.  The robot pose
is kept as floats, and its goal distance is measured once per move.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np
import yaml

from . import rewards
from .crowd import (SCENARIO_KINDS, STILL_SPEED, Crowd, CrowdConfig, obstacle_discs, spawn_crowd,
                    spawn_scenario, step_crowd)
from .geometry import (Circle, OrientedRect, Segment, Shape, Vec2, closest_distance, pack_distance_scene,
                       pack_shapes, wrap_angle)
from .lidar import (HISTORY_LEN, LidarConfig, MotionFeature, Scan, build_motion_feature, cast_sweep,
                    simulate_scan)

ACTION_LIMIT = 1.5
V_MAX = 1.5
GRID_RESOLUTION = 0.1  # cell size (m) of the corridor check's occupancy grid
MAP_ATTEMPTS = 100  # maps randomize_map samples before it gives up


class Status(str, enum.Enum):
    RUNNING = "running"
    REACHED = "reached"
    COLLIDED = "collided"
    TIMEOUT = "timeout"


@dataclass(frozen=True)
class StepRecord:  # what an episode log keeps of one policy step
    step: int
    t: float
    x: float
    y: float
    heading: float
    v_l: float
    omega: float
    a_x: float
    a_y: float
    r_ego: float
    r_social: float
    r_goal: float
    ego_violation: bool
    social_violations: int
    pedestrians: list = field(default_factory=list)  # (x, y, heading) triples


@dataclass(frozen=True)
class StepOutcome:
    observation: MotionFeature
    reward: float
    reward_parts: tuple[float, float, float]  # (ego, social, goal)
    done: Status
    record: StepRecord


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
        if not all(map(math.isfinite, (*self.start, *self.goal))):
            raise ValueError(f"start and goal must be finite, got {self.start} and {self.goal}")
        if self.start == self.goal:
            raise ValueError("start must differ from goal")
        if self.max_steps <= 0:
            raise ValueError(f"max_steps must be positive, got {self.max_steps}")
        self.lidar()  # checks beam_count and noise_sigma
        for name in ("obstacle_count_range", "obstacle_size_range"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ValueError(f"{name} must have lo <= hi, got {(lo, hi)}")
        if self.obstacle_count_range[0] < 0:
            raise ValueError(f"obstacle_count_range must be nonnegative, got {self.obstacle_count_range}")
        if self.obstacle_size_range[0] <= 0.0:
            raise ValueError(f"obstacle_size_range must be positive, got {self.obstacle_size_range}")
        if not (self.robot_radius > 0.0 and self.goal_tolerance > 0.0):
            raise ValueError("robot_radius and goal_tolerance must be positive")
        for name in ("arena_half", "heading_gain", "turn_rate_cap"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if self.start_heading is not None and not math.isfinite(self.start_heading):
            raise ValueError(f"start_heading must be finite, got {self.start_heading}")
        if self.scenario is not None and self.scenario not in SCENARIO_KINDS:
            raise ValueError(f"unknown scenario {self.scenario!r}; expected one of {SCENARIO_KINDS}")
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


def integrate(x: float, y: float, heading: float, v_l: float, omega: float,
              dt: float) -> tuple[float, float, float]:
    """Unicycle update with exact-arc integration, no lateral motion; the
    new (x, y, heading)."""
    new_heading = heading + omega * dt
    if abs(omega) > 1e-6:
        k = v_l / omega
        x += k * (math.sin(new_heading) - math.sin(heading))
        y -= k * (math.cos(new_heading) - math.cos(heading))
    else:
        x += v_l * dt * math.cos(heading)
        y += v_l * dt * math.sin(heading)
    return x, y, wrap_angle(new_heading)


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


def _grid_free(obstacles: list[Shape], config: EnvConfig) -> tuple[np.ndarray, float]:
    """Occupancy grid of GRID_RESOLUTION cells a robot disc can stand on,
    and the coordinate of the first cell's centre."""
    half = config.arena_half
    inflate = config.robot_radius
    coords = np.arange(-half + GRID_RESOLUTION / 2.0, half, GRID_RESOLUTION)
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
    return free, -half + GRID_RESOLUTION / 2.0


def _grid_connected(free: np.ndarray, start_ij, goal_ij) -> bool:
    """Flood fill from start through 4-neighbour free cells, until it reaches
    goal or stops growing."""
    if not (free[start_ij] and free[goal_ij]):
        return False
    reached = np.zeros_like(free)
    reached[start_ij] = True
    size = 1
    while not reached[goal_ij]:
        grown = reached.copy()
        grown[1:] |= reached[:-1]
        grown[:-1] |= reached[1:]
        grown[:, 1:] |= reached[:, :-1]
        grown[:, :-1] |= reached[:, 1:]
        grown &= free
        grown_size = int(np.count_nonzero(grown))
        if grown_size == size:
            return False
        reached, size = grown, grown_size
    return True


def corridor_exists(obstacles: list[Shape], config: EnvConfig) -> bool:
    """Coarse grid flood fill between start and goal with inflated obstacles."""
    free, origin = _grid_free(obstacles, config)

    def cell(p):
        i = int(round((p[0] - origin) / GRID_RESOLUTION))
        j = int(round((p[1] - origin) / GRID_RESOLUTION))
        n, m = free.shape
        return min(max(i, 0), n - 1), min(max(j, 0), m - 1)

    return _grid_connected(free, cell(config.start), cell(config.goal))


def randomize_map(rng: np.random.Generator, config: EnvConfig) -> list[Shape]:
    """Sample static obstacles leaving a start-to-goal corridor.

    Placements overlapping the 0.8 m discs around start or goal are
    rejected; whole maps failing the corridor check are resampled, up to
    MAP_ATTEMPTS maps in all.
    """
    lo, hi = config.obstacle_count_range
    start_disc = Circle(Vec2(*config.start), 0.8)
    goal_disc = Circle(Vec2(*config.goal), 0.8)
    for _ in range(MAP_ATTEMPTS):
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
        f"no connected map found in {MAP_ATTEMPTS} attempts; configuration too dense"
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
        # the static scene, packed once per episode
        self.static_shapes = self.obstacles + (arena_walls(cfg.arena_half) if cfg.walls else [])
        self._static_scene = pack_shapes(self.static_shapes)
        self._static_distances = pack_distance_scene(self.static_shapes)
        self._discs = obstacle_discs(self.obstacles)

        # the robot pose, speed and turn rate
        self.x, self.y = cfg.start
        gx, gy = cfg.goal
        heading = cfg.start_heading
        if heading is None:
            heading = math.atan2(gy - self.y, gx - self.x)
        self.heading = wrap_angle(heading)
        self.v_l = self.omega = 0.0
        self.robot_motion_heading = self.heading
        self._measure_goal()
        self.initial_goal_distance = self._goal_distance

        if cfg.scenario is not None:
            crowd = spawn_scenario(cfg.scenario, cfg.crowd.count, cfg.crowd, self.crowd_rng,
                                   Vec2(*cfg.start), Vec2(*cfg.goal))
        else:
            crowd = spawn_crowd(cfg.crowd, self.crowd_rng)
        self._set_crowd(crowd)

        self.status = Status.RUNNING
        self.steps = 0
        self.tick = 0
        self.sim_time = 0.0
        self._cast()
        first = self._scan()
        self.scan_history: deque[Scan] = deque([first] * HISTORY_LEN, maxlen=HISTORY_LEN)
        self._needs_reset = False
        return self._observation()

    # -- internals

    def _set_crowd(self, crowd: Crowd) -> None:
        self.crowd = crowd
        self._scene = self._static_scene + crowd.lidar_scene() if len(crowd) else self._static_scene

    def _cast(self) -> None:
        """Cast the sweep that every scan reads until the robot or the crowd moves."""
        self._sweep = cast_sweep(self._scene, (self.x, self.y), self.heading, self.lidar_config)

    def _scan(self) -> Scan:
        return simulate_scan(self._sweep, self.heading, self.tick, self.lidar_config, self.noise_rng)

    def _measure_goal(self) -> None:
        """The goal distance of the current pose, which the arrival check,
        the observation and the goal reward read until the robot moves."""
        gx, gy = self.config.goal
        self._goal_distance = math.hypot(gx - self.x, gy - self.y)

    def _observation(self) -> MotionFeature:
        gx, gy = self.config.goal
        bearing = wrap_angle(math.atan2(gy - self.y, gx - self.x) - self.heading)
        return build_motion_feature(
            list(self.scan_history), self.heading, self._goal_distance, bearing, self.lidar_config
        )

    def _check_terminal(self) -> None:
        """Collision and arrival; keeps the clearance and pedestrian distances for the reward."""
        radius = self.config.robot_radius
        self._distances = self.crowd.distances(self.x, self.y)
        gaps = self._distances - self.crowd.radius - radius
        static = self._static_distances.closest_distance(self.x, self.y, radius)
        self._clearance = min(static, float(gaps.min(initial=math.inf)))
        if self._clearance <= 0.0:
            self.status = Status.COLLIDED
            return
        if self._goal_distance < self.config.goal_tolerance:
            self.status = Status.REACHED

    # -- stepping

    def step(self, action) -> StepOutcome:
        if self._needs_reset:
            raise RuntimeError("call reset() before step()")
        if self.status is not Status.RUNNING:
            raise RuntimeError(f"episode already finished ({self.status.value})")
        a_x, a_y = float(action[0]), float(action[1])
        if math.isnan(a_x) or math.isnan(a_y):
            raise ValueError(f"action components must not be NaN, got ({a_x}, {a_y})")
        v_l, v_w = action_to_twist(a_x, a_y)
        desired_heading = wrap_angle(self.heading + v_w)

        for i in range(self.ticks_per_step):
            if self.status is Status.RUNNING and i % self.ticks_per_control == 0:
                err = wrap_angle(desired_heading - self.heading)
                cap = self.config.turn_rate_cap
                omega = float(min(cap, max(-cap, self.config.heading_gain * err)))
                self.v_l, self.omega = v_l, omega
                pose = integrate(self.x, self.y, self.heading, v_l, omega, self.control_dt)
                self.x, self.y, self.heading = pose
                self._measure_goal()
                if v_l >= STILL_SPEED:
                    self.robot_motion_heading = self.heading
                crowd = step_crowd(self.crowd, self.config.crowd, self.control_dt, self.crowd_rng, self._discs)
                self._set_crowd(crowd)
                self._cast()
                self._check_terminal()
            self.tick += 1
            self.sim_time += self.tick_dt
            self.scan_history.append(self._scan())

        self.steps += 1
        if self.status is Status.RUNNING and self.steps >= self.config.max_steps:
            self.status = Status.TIMEOUT

        assessment = rewards.assess(
            (self.x, self.y, self.config.robot_radius),
            self.robot_motion_heading,
            self.v_l,  # never negative: action_to_twist takes a norm
            self._clearance,
            self._distances,
            self.crowd,
            self._goal_distance,
            self.initial_goal_distance,
            reached=self.status is Status.REACHED,
        )
        return StepOutcome(
            observation=self._observation(),
            reward=assessment.total,
            reward_parts=(assessment.r_ego, assessment.r_social, assessment.r_goal),
            done=self.status,
            record=StepRecord(
                step=self.steps,
                t=self.sim_time,
                x=self.x,
                y=self.y,
                heading=self.heading,
                v_l=self.v_l,
                omega=self.omega,
                a_x=a_x,
                a_y=a_y,
                r_ego=assessment.r_ego,
                r_social=assessment.r_social,
                r_goal=assessment.r_goal,
                ego_violation=assessment.ego_violation,
                social_violations=assessment.violations,
                pedestrians=list(zip(*self.crowd.position.T.tolist(), self.crowd.motion_heading.tolist())),
            ),
        )

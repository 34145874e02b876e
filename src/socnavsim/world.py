"""Episode engine: randomized maps, robot kinematics, clocking, rewards.

The scanner, controller, and policy run at separate rates (40/20/10 Hz
by default).  One call to step() covers a full policy period: the inner
controller tracks the commanded heading offset, the crowd advances, the
scanner captures sweeps, and the reward is assessed on the final state.
The robot and the crowd move only on control ticks, so each reset and
each control tick records one sweep of the pose into that tick's scene,
and every scan tick records a scan of it with its own range noise,
drawn at the tick.  A sweep is cast, and a scan read, the first time
something reads its ranges (lidar.Scan): a policy that reads only the
newest scan casts once per step.  The robot pose is kept as floats, and
its goal distance is measured once per move.  The pedestrians never see
the robot, so when a second CPU is free an episode's crowd ticks are
computed ahead in the crowd worker (crowdfeed), as far as its pipe
holds, and each control tick builds the crowd of the rows it sent: the
same bits as stepping inline.  The episode's first crowd tick starts
the worker's stream, and its end (or the next reset) stops it.

NavEnv.reset(map_seed, crowd_seed) takes both seeds; the config holds
none.  It samples the map straight into a StaticMap (randomize_map, whose
corridor check grows reachability over an occupancy grid) and reads its
scan rows, distance rows and ORCA obstacle discs once.  The collision
check takes the clearance as the smallest gap over the static distance
rows and the crowd's rows, and keeps it and the pedestrian distances for
the reward.  A NaN action raises before the step changes anything.  step
returns a StepOutcome: the observation, the status and the StepRecord
that episode logs keep, with the three reward parts.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np
import yaml

from . import rewards
from .crowd import (
    SCENARIO_KINDS,
    STILL_SPEED,
    Crowd,
    CrowdConfig,
    crowd_moves,
    defined_step,
    spawn_crowd,
    spawn_scenario,
    step_crowd,
)
from .geometry import DistanceScene, StaticMap, closest_distance, rect_row, wrap_angle
from .lidar import (
    HISTORY_LEN,
    LidarConfig,
    MotionFeature,
    Scan,
    build_motion_feature,
    cast_sweep,
    draw_noise,
    simulate_scan,
)

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
        if self.scan_hz % self.control_hz or self.control_hz % self.policy_hz:
            # so that a policy step is a whole number of control ticks, each of scan ticks
            raise ValueError(
                "scan_hz must be a multiple of control_hz and control_hz of policy_hz, got scan_hz "
                f"{self.scan_hz}, control_hz {self.control_hz} and policy_hz {self.policy_hz}"
            )
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
        if not (self.obstacle_size_range[0] > 0.0 and math.isfinite(self.obstacle_size_range[1])):
            raise ValueError(f"obstacle_size_range must be finite and positive, got {self.obstacle_size_range}")
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
        """From a to_dict() or YAML mapping; raises ValueError naming the key
        of any entry that cannot be the field it names."""
        kwargs = field_kwargs(EnvConfig, d, "config")
        kwargs["crowd"] = CrowdConfig(**field_kwargs(CrowdConfig, kwargs.get("crowd", {}), "crowd config"))
        return EnvConfig(**kwargs)


# the types a value of each field annotation may take; a bool is no number
_FIELD_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str, "dict": dict, "list": list}


def fits(kind: str, value) -> bool:
    """Whether value can be a field annotated kind ('int', 'float',
    'bool', 'str', 'dict' or 'list[...]'); a field of any other type (a
    nested dataclass) is its caller's to check."""
    allowed = _FIELD_TYPES.get(kind.split("[")[0])
    return allowed is None or (isinstance(value, allowed) and (kind == "bool" or not isinstance(value, bool)))


def field_kwargs(cls, d, what: str) -> dict:
    """The entries of a JSON or YAML mapping d as keyword arguments of
    dataclass cls.  Raises ValueError naming the key unless d holds every
    field that has no default, no other key, and values the field
    annotations allow (fits), None where they end in '| None'; a
    tuple[...] field takes a list of its length, whose items fit theirs,
    and gets it as a tuple."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a mapping, got {d!r}")
    names = {f.name for f in fields(cls)}
    for key in d:
        if key not in names:
            raise ValueError(f"{what} key {key!r} is unknown")
    kwargs = {}
    for f in fields(cls):
        if f.name not in d:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ValueError(f"{what} has no key {f.name!r}")
            continue
        value, kind = d[f.name], f.type.removesuffix(" | None")
        if value is None and kind != f.type:
            kwargs[f.name] = None
            continue
        if kind.startswith("tuple["):
            items = kind[len("tuple["):-1].split(", ")
            if not (isinstance(value, (list, tuple)) and len(value) == len(items) and all(map(fits, items, value))):
                raise ValueError(f"{what} key {f.name!r} must be a list of {len(items)} {items[0]}s, got {value!r}")
            value = tuple(value)
        elif not fits(kind, value):
            raise ValueError(f"{what} key {f.name!r} must be {kind.split('[')[0]}, got {value!r}")
        kwargs[f.name] = value
    return kwargs


def load_config(path) -> EnvConfig:
    with open(path) as f:
        data = yaml.safe_load(f) or {}
    return EnvConfig.from_dict(data)


# ---------------------------------------------------------------------------
# Kinematics


def clamp(x: float, lo: float, hi: float) -> float:
    """np.clip of one Python float, the same float for every input (NaN
    and a -0.0 at a +0.0 bound pass through) at a tenth of its cost."""
    return min(max(x, lo), hi)


def action_to_twist(a_x: float, a_y: float) -> tuple[float, float]:
    """Map a 2-D action to linear speed and target heading offset.

    Speed is the (clamped) Euclidean norm; the angle atan2(a_y, a_x) in
    [-pi, pi] is a desired heading change tracked by the inner
    proportional controller, not a raw angular rate.
    """
    a_x = clamp(float(a_x), -ACTION_LIMIT, ACTION_LIMIT)
    a_y = clamp(float(a_y), -ACTION_LIMIT, ACTION_LIMIT)
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


def arena_walls(half: float) -> np.ndarray:
    """The boundary walls as segment rows (ax, ay, bx, by), counter-clockwise."""
    c = [(-half, -half), (half, -half), (half, half), (-half, half)]
    return np.array([(*c[i], *c[(i + 1) % 4]) for i in range(4)])


def _sample_obstacle(rng: np.random.Generator, config: EnvConfig) -> tuple[list, list]:
    """One obstacle as StaticMap rows: ([circle row], []) or ([], [rectangle row]),
    the rectangle centred on the sampled point (rect_row)."""
    lo, hi = config.obstacle_size_range
    margin = 0.5
    x = float(rng.uniform(-config.arena_half + margin, config.arena_half - margin))
    y = float(rng.uniform(-config.arena_half + margin, config.arena_half - margin))
    if rng.random() < 0.5:
        return [(x, y, float(rng.uniform(lo, hi)) / 2.0)], []
    length = float(rng.uniform(lo, hi))
    half_width = float(rng.uniform(lo, hi)) / 2.0
    return [], [rect_row(x, y, float(rng.uniform(-math.pi, math.pi)), half_width, length)]


def _grid_free(static_map: StaticMap, config: EnvConfig) -> tuple[np.ndarray, float]:
    """Occupancy grid of GRID_RESOLUTION cells a robot disc can stand on,
    and the coordinate of the first cell's centre; the walls are left to
    the grid's bounds.

    A shape can only block cells within its bounding disc's radius plus
    the robot's: each shape's distance is computed on that window of
    cells, one cell wider.  Past it a cell's distance exceeds the
    inflation by more than that cell, far beyond the rounding of the
    distance formula, so the grid is the one a full-grid pass per shape
    gives, bit for bit.
    """
    half = config.arena_half
    inflate = config.robot_radius
    coords = np.arange(-half + GRID_RESOLUTION / 2.0, half, GRID_RESOLUTION)
    inside = np.abs(coords) < half - inflate
    free = inside[:, None] & inside[None, :]
    shapes = static_map.distances()  # the rows of DistanceScene.closest_distance, over the grid

    def window(cx, cy, radius):
        """(x column, y row, cells) of the cells within reach of a disc."""
        reach = radius + inflate + GRID_RESOLUTION
        i0, i1 = np.searchsorted(coords, (cx - reach, cx + reach))
        j0, j1 = np.searchsorted(coords, (cy - reach, cy + reach))
        return coords[i0:i1, None], coords[None, j0:j1], free[i0:i1, j0:j1]

    for x, y, radius in shapes.circles:
        xs, ys, cells = window(x, y, radius)
        cells &= np.hypot(xs - x, ys - y) - radius > inflate
    for ax, ay, fx, fy, half_width, half_length in shapes.rects:
        xs, ys, cells = window(ax + fx * half_length, ay + fy * half_length, math.hypot(half_length, half_width))
        dx, dy = xs - ax, ys - ay
        qx = np.abs(dx * fx + dy * fy - half_length) - half_length
        qy = np.abs(dx * -fy + dy * fx) - half_width
        d = np.hypot(np.maximum(qx, 0.0), np.maximum(qy, 0.0)) + np.minimum(np.maximum(qx, qy), 0.0)
        cells &= d > inflate
    return free, -half + GRID_RESOLUTION / 2.0


def _run_labels(free: np.ndarray) -> np.ndarray:
    """Run numbers along the rows of free: the cells of one unbroken free
    stretch of a row share a number, counting from 1; blocked cells get 0."""
    start = free.copy()
    start[:, 1:] &= ~free[:, :-1]
    labels = np.cumsum(start).reshape(free.shape)
    labels[~free] = 0
    return labels


def _grid_connected(free: np.ndarray, start_ij, goal_ij) -> bool:
    """Whether goal is reachable from start through 4-neighbour free cells.

    The reached cells grow by whole runs: a row sweep adds every free
    stretch of a row that holds a reached cell, a column sweep every
    free stretch of a column, alternating until goal is reached or a
    row and a column sweep add nothing.  The fixpoint is start's
    4-connected component.
    """
    if not (free[start_ij] and free[goal_ij]):
        return False
    sweeps = [(labels, np.zeros(labels.max() + 1, bool)) for labels in (_run_labels(free), _run_labels(free.T).T)]
    reached = np.zeros(free.shape, bool)
    reached[start_ij] = True
    size = 1
    while True:
        for labels, hit in sweeps:
            hit[labels[reached]] = True
            hit[0] = False
            reached = hit[labels]
            if reached[goal_ij]:
                return True
        grown = int(np.count_nonzero(reached))
        if grown == size:
            return False
        size = grown


def corridor_exists(static_map: StaticMap, config: EnvConfig) -> bool:
    """Coarse grid flood fill between start and goal with inflated obstacles."""
    free, origin = _grid_free(static_map, config)

    def cell(p):
        i = int(round((p[0] - origin) / GRID_RESOLUTION))
        j = int(round((p[1] - origin) / GRID_RESOLUTION))
        n, m = free.shape
        return min(max(i, 0), n - 1), min(max(j, 0), m - 1)

    return _grid_connected(free, cell(config.start), cell(config.goal))


def randomize_map(rng: np.random.Generator, config: EnvConfig) -> StaticMap:
    """Sample static obstacles leaving a start-to-goal corridor; the map
    has no walls.

    Placements overlapping the 0.8 m discs around start or goal are
    rejected; whole maps failing the corridor check are resampled, up to
    MAP_ATTEMPTS maps in all.
    """
    lo, hi = config.obstacle_count_range
    start_disc, goal_disc = (*config.start, 0.8), (*config.goal, 0.8)
    for _ in range(MAP_ATTEMPTS):
        count = int(rng.integers(lo, hi + 1))
        circles, rects, is_rect = [], [], []
        for _ in range(count):
            for _ in range(50):
                circle, rect = _sample_obstacle(rng, config)
                shape = DistanceScene.pack(circle, rect, ())
                if closest_distance(start_disc, shape) <= 0.0:
                    continue
                if closest_distance(goal_disc, shape) <= 0.0:
                    continue
                circles += circle
                rects += rect
                is_rect.append(bool(rect))
                break
        static_map = StaticMap(circles, rects, is_rect=is_rect)
        if corridor_exists(static_map, config):
            return static_map
    raise RuntimeError(
        f"no connected map found in {MAP_ATTEMPTS} attempts; configuration too dense"
    )


# ---------------------------------------------------------------------------
# Episode engine


def _read_scan(sweep: Scan, noise: np.ndarray | None) -> np.ndarray:
    """The ranges of a scan: its sweep's, cast now if no scan read them
    yet, read with the noise drawn at its tick (simulate_scan)."""
    return simulate_scan(sweep.ranges, noise)


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
        self._feed = None
        self._feed_due = False  # whether the next crowd tick is the episode's first

    # -- lifecycle

    def reset(self, map_seed: int, crowd_seed: int) -> MotionFeature:
        cfg = self.config
        self._close_feed()
        self.map_rng = np.random.default_rng(np.random.SeedSequence(map_seed))
        crowd_ss = np.random.SeedSequence(crowd_seed)
        self.crowd_rng = np.random.default_rng(crowd_ss)
        self.noise_rng = np.random.default_rng(crowd_ss.spawn(1)[0])

        obstacles = randomize_map(self.map_rng, cfg) if cfg.obstacle_count_range[1] > 0 else StaticMap()
        self.static_map = replace(obstacles, walls=arena_walls(cfg.arena_half) if cfg.walls else ())
        # what the scanner, the clearance and ORCA read of it, packed once per episode
        self._static_scene = self.static_map.scene()
        self._static_distances = self.static_map.distances()
        self._discs = self.static_map.bounding_discs()

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
            crowd = spawn_scenario(cfg.scenario, cfg.crowd.count, cfg.crowd, self.crowd_rng, cfg.start, cfg.goal)
        else:
            crowd = spawn_crowd(cfg.crowd, self.crowd_rng)
        self._set_crowd(crowd)
        self._feed_due = True

        self.status = Status.RUNNING
        self.steps = 0
        self.sim_time = 0.0
        self._record_sweep()
        # (heading at capture, Scan) of the last HISTORY_LEN scans
        self.scan_history = deque([self._scan()] * HISTORY_LEN, maxlen=HISTORY_LEN)
        self._needs_reset = False
        return self._observation()

    # -- internals

    def _set_crowd(self, crowd: Crowd) -> None:
        self.crowd = crowd
        self._scene = self._static_scene + crowd.scene if len(crowd) else self._static_scene

    def _crowd_moves(self) -> bool:
        """Whether a control tick can change the crowd (crowd.crowd_moves)."""
        return crowd_moves(self.crowd.rows, self.config.crowd)

    def _open_feed(self) -> None:
        """Have the episode's crowd ticks computed ahead in the crowd
        worker (crowdfeed), when it may run and the crowd step is the
        library's own (a replaced one, as a tracer or a spy installs,
        runs inline, where it sees every call); crowd_rng is then not
        drawn from, as the worker draws from a copy of it."""
        if defined_step(step_crowd):
            from .crowdfeed import open_feed  # imported at the first crowd tick

            self._feed = open_feed(self.crowd.rows, self.config.crowd, self.control_dt, self.crowd_rng, self._discs)

    def _close_feed(self) -> None:
        feed, self._feed = self._feed, None
        if feed is not None:
            feed.close()

    def _next_crowd(self) -> Crowd:
        """The crowd after this control tick, stepped inline or taken from
        the feed, which the episode's first tick opens; a tick that raises
        raises here, and leaves crowd_rng as the step left it.  When the
        worker fails instead (it is stuck or gone), the episode ends with
        the error and the env needs a reset."""
        if self._feed_due:
            self._feed_due = False
            self._open_feed()
        feed = self._feed
        if feed is None:
            return step_crowd(self.crowd, self.config.crowd, self.control_dt, self.crowd_rng, self._discs)
        try:
            rows = feed.next_rows()
        except BaseException:
            self._feed = None
            if feed.rng is None:
                self._needs_reset = True
            else:
                self.crowd_rng = feed.rng
            raise
        return Crowd.from_rows(rows) if rows else self.crowd

    def _record_sweep(self) -> None:
        """Record the sweep that every scan reads until the robot or the
        crowd moves; it is cast when a scan of it is first read."""
        self._sweep = Scan(cast_sweep, self._scene, (self.x, self.y), self.heading, self.lidar_config)

    def _scan(self) -> tuple[float, Scan]:
        """A scan for the history: its noise drawn now, its ranges read
        from the sweep when first needed."""
        return self.heading, Scan(_read_scan, self._sweep, draw_noise(self.lidar_config, self.noise_rng))

    def _measure_goal(self) -> None:
        """The goal distance of the current pose, which the arrival check,
        the observation and the goal reward read until the robot moves."""
        gx, gy = self.config.goal
        self._goal_distance = math.hypot(gx - self.x, gy - self.y)

    def _observation(self) -> MotionFeature:
        gx, gy = self.config.goal
        bearing = wrap_angle(math.atan2(gy - self.y, gx - self.x) - self.heading)
        return build_motion_feature(self.scan_history, self.heading, self._goal_distance, bearing,
                                    self.initial_goal_distance, self.lidar_config)

    def _check_terminal(self) -> None:
        """Collision and arrival; keeps the clearance and pedestrian distances for the reward."""
        radius = self.config.robot_radius
        self._distances = self.crowd.distances(self.x, self.y)
        gap = min((d - row[8] - radius for d, row in zip(self._distances, self.crowd.rows)), default=math.inf)
        self._clearance = min(self._static_distances.closest_distance(self.x, self.y, radius), gap)
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
                if self._crowd_moves():
                    self._set_crowd(self._next_crowd())
                self._record_sweep()
                self._check_terminal()
            self.sim_time += self.tick_dt
            self.scan_history.append(self._scan())

        self.steps += 1
        if self.status is Status.RUNNING and self.steps >= self.config.max_steps:
            self.status = Status.TIMEOUT
        if self.status is not Status.RUNNING:
            self._close_feed()

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
                pedestrians=[(x, y, heading) for _, x, y, *_, heading in self.crowd.rows],
            ),
        )

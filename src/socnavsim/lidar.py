"""Laser scanner simulation and heading-calibrated motion features.

The scanner sweeps a 270 degree fan at a fixed rate; the motion feature
stacks the last K scans after rotating each historical sweep into the
current heading frame by an index shift, so that the stack varies over
time only where the surroundings moved (robot translation is
deliberately left in).  A feature holds its sweeps by reference, with
their shifts; the networks gather the shifted stack from them
(networks.featurize and networks.Stacks).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .geometry import Scene, cast_fan, wrap_angle

FAN_ANGLE = 1.5 * math.pi  # 270 degrees
RANGE_MIN = 0.1
RANGE_MAX = 10.0
HISTORY_LEN = 40


@dataclass(frozen=True)
class LidarConfig:
    """Beam count and range noise; the range bounds are RANGE_MIN and RANGE_MAX."""

    beam_count: int = 1080
    noise_sigma: float = 0.0  # Gaussian range noise, disabled by default

    def __post_init__(self):
        if self.beam_count < 2:
            raise ValueError(f"beam_count must be at least 2, got {self.beam_count}")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0.0):
            raise ValueError(f"noise_sigma must be finite and nonnegative, got {self.noise_sigma}")
        # built once: the scanner adds them to the heading on every tick
        offsets = np.linspace(-FAN_ANGLE / 2.0, FAN_ANGLE / 2.0, self.beam_count)
        offsets.flags.writeable = False
        object.__setattr__(self, "_beam_offsets", offsets)

    @property
    def angle_increment(self) -> float:
        return FAN_ANGLE / (self.beam_count - 1)

    def beam_offsets(self) -> np.ndarray:
        """Beam angles relative to the robot heading, ascending; one
        read-only array per config."""
        return self._beam_offsets


@dataclass(frozen=True)
class MotionFeature:
    """The last K sweeps, held by reference, and the goal.

    Row k is sweep rows[k] calibrated to the current heading: beam i
    reads rows[k][i + shifts[k]], and beams shifted in from outside that
    sweep's fan read RANGE_MAX (networks.Stacks.copy_to gathers the rows
    by this rule).  The sweeps are those of the scan history, never
    copied: a feature costs K references and K shifts.
    """

    rows: tuple  # K sweeps (B,), oldest -> newest
    shifts: tuple  # K ints
    goal_vector: tuple[float, float]  # (distance m, bearing rad in [-pi, pi])
    initial_goal_distance: float  # the goal distance at the episode's reset

    def __post_init__(self):
        if len(self.rows) != len(self.shifts):
            raise ValueError("a feature needs one shift per row")

    @property
    def beam_count(self) -> int:
        return self.rows[-1].size

    @property
    def current_scan_ranges(self) -> np.ndarray:
        """The newest sweep, which must have shift 0: a history that ends
        at the current heading, as NavEnv's always does."""
        if self.shifts[-1] != 0:
            raise ValueError(f"the newest sweep has shift {self.shifts[-1]}, not 0")
        return self.rows[-1]


def cast_sweep(scene: Scene, position: tuple[float, float], heading: float,
               config: LidarConfig) -> np.ndarray:
    """The noiseless ranges of the fan from position (x, y), centered on
    heading, RANGE_MAX where a beam meets nothing nearer (cast_fan).

    Read-only: every scan taken from one pose into one scene reads the
    same sweep.
    """
    ranges = cast_fan(position, heading + config.beam_offsets(), scene)
    np.minimum(ranges, RANGE_MAX, out=ranges)
    ranges.flags.writeable = False
    return ranges


def simulate_scan(sweep: np.ndarray, config: LidarConfig, noise_rng: np.random.Generator) -> np.ndarray:
    """One reading of a sweep: range noise drawn from noise_rng, then the
    clamp to the sensor bounds, into a fresh array."""
    ranges = sweep
    if config.noise_sigma > 0.0:
        ranges = sweep + noise_rng.normal(0.0, config.noise_sigma, sweep.shape)
    return np.clip(ranges, RANGE_MIN, RANGE_MAX)


def build_motion_feature(
    history: Sequence[tuple[float, np.ndarray]],
    current_heading: float,
    goal_distance: float,
    goal_bearing: float,
    initial_goal_distance: float,
    config: LidarConfig,
) -> MotionFeature:
    """The last K sweeps, each calibrated to the current heading.

    history holds (heading at capture, ranges) pairs.  Row k, beam i
    takes the value sweep k held at beam i + shift, where shift =
    round(wrap(current_heading - heading at capture) / angle_increment);
    beams shifted in from outside that sweep's fan read RANGE_MAX.  The
    history must hold exactly K sweeps ordered oldest to newest; at
    episode start the caller pre-fills it by repeating the first one.
    Only the shifts are computed here: the feature keeps the history's
    sweeps by reference (MotionFeature).
    """
    if len(history) != HISTORY_LEN:
        raise ValueError(f"need exactly {HISTORY_LEN} scans, got {len(history)}")
    inc = config.angle_increment
    headings, rows = zip(*history)
    shift_of = {}  # scans between two control ticks share a heading
    for heading in headings:
        if heading not in shift_of:
            shift_of[heading] = int(round(wrap_angle(current_heading - heading) / inc))
    shifts = tuple(map(shift_of.__getitem__, headings))
    return MotionFeature(
        rows=rows,
        shifts=shifts,
        goal_vector=(goal_distance, wrap_angle(goal_bearing)),
        initial_goal_distance=initial_goal_distance,
    )

"""Laser scanner simulation and heading-calibrated motion features.

The scanner sweeps a 270 degree fan at a fixed rate; the motion feature
stacks the last K scans after rotating each historical sweep into the
current heading frame by an index shift, so that the stacked matrix
varies over time only where the surroundings moved (robot translation
is deliberately left in).  A feature holds its sweeps by reference, with
their shifts; the stacked matrix is built only when something reads it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

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
    sweep's fan read RANGE_MAX.  scans[k] is the sweep's episode-local
    scan number, 0 for the reset scan that fills the history at episode
    start, so two observations of one episode share a sweep exactly
    where they share a scan number.  The sweeps are those of the scan
    history, never copied: a feature costs K references and K shifts.
    """

    rows: tuple  # K sweeps (B,), oldest -> newest
    shifts: tuple  # K ints
    scans: tuple  # K ints, nondecreasing
    goal_vector: tuple[float, float]  # (distance m, bearing rad in [-pi, pi])
    initial_goal_distance: float  # the goal distance at the episode's reset

    def __post_init__(self):
        if not len(self.rows) == len(self.shifts) == len(self.scans):
            raise ValueError("a feature needs one shift and one scan number per row")

    @property
    def beam_count(self) -> int:
        return self.rows[-1].size

    @cached_property
    def matrix(self) -> np.ndarray:
        """The (K, B) float64 stack, rows oldest -> newest; built once, on
        first read."""
        b = self.beam_count
        matrix = np.full((len(self.rows), b), RANGE_MAX)
        for row, shift, ranges in zip(matrix, self.shifts, self.rows):
            if 0 <= shift < b:
                row[: b - shift] = ranges[shift:]
            elif -b < shift < 0:
                row[-shift:] = ranges[: b + shift]
        return matrix

    @property
    def current_scan_ranges(self) -> np.ndarray:
        """Last row: the current sweep, whose shift is 0 when the history
        ends at the current heading, as NavEnv's always does."""
        return self.rows[-1] if self.shifts[-1] == 0 else self.matrix[-1]


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
    newest_scan: int = HISTORY_LEN - 1,
) -> MotionFeature:
    """The last K sweeps, each calibrated to the current heading.

    history holds (heading at capture, ranges) pairs.  Row k, beam i
    takes the value sweep k held at beam i + shift, where shift =
    round(wrap(current_heading - heading at capture) / angle_increment);
    beams shifted in from outside that sweep's fan read RANGE_MAX.  The
    history must hold exactly K sweeps ordered oldest to newest; at
    episode start the caller pre-fills it by repeating the first one, so
    with newest_scan the number of the last scan, row k is scan
    max(0, newest_scan - (K - 1 - k)).  Only the shifts are computed
    here: the feature keeps the history's sweeps by reference
    (MotionFeature).
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
    first = newest_scan - (HISTORY_LEN - 1)
    return MotionFeature(
        rows=rows,
        shifts=shifts,
        scans=tuple(max(0, scan) for scan in range(first, newest_scan + 1)),
        goal_vector=(goal_distance, wrap_angle(goal_bearing)),
        initial_goal_distance=initial_goal_distance,
    )

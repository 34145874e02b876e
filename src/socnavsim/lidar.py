"""Laser scanner simulation and heading-calibrated motion features.

The scanner sweeps a 270 degree fan at a fixed rate; the motion feature
stacks the last K scans after rotating each historical sweep into the
current heading frame by an index shift, so that the stacked matrix
varies over time only where the surroundings moved (robot translation
is deliberately left in).
"""

from __future__ import annotations

import math
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
class Scan:
    ranges: np.ndarray
    heading_at_capture: float
    timestamp: int

    def __post_init__(self):
        r = np.asarray(self.ranges, dtype=float)
        if r.ndim != 1:
            raise ValueError("ranges must be a 1-D array")
        if r.size and (r.min() < RANGE_MIN - 1e-12 or r.max() > RANGE_MAX + 1e-12):
            raise ValueError("scan ranges outside sensor bounds")
        object.__setattr__(self, "ranges", r)


@dataclass(frozen=True)
class MotionFeature:
    matrix: np.ndarray  # (K, B), rows oldest -> newest
    goal_vector: tuple[float, float]  # (distance m, bearing rad in [-pi, pi])

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2:
            raise ValueError("feature matrix must be 2-D")
        object.__setattr__(self, "matrix", m)

    @property
    def current_scan_ranges(self) -> np.ndarray:
        """Last row: the current sweep, uncalibrated."""
        return self.matrix[-1]


def cast_sweep(scene: Scene, position: tuple[float, float], heading: float,
               config: LidarConfig) -> np.ndarray:
    """The noiseless, unclipped ranges of the fan from position (x, y),
    centered on heading.

    Read-only: every scan taken from one pose into one scene reads the
    same sweep.
    """
    ranges = cast_fan(position, heading + config.beam_offsets(), scene, RANGE_MAX)
    ranges.flags.writeable = False
    return ranges


def simulate_scan(
    sweep: np.ndarray,
    heading: float,
    timestamp: int,
    config: LidarConfig,
    noise_rng: np.random.Generator,
) -> Scan:
    """One reading of a sweep: range noise drawn from noise_rng, then the
    clamp to the sensor bounds, into a fresh array."""
    ranges = sweep
    if config.noise_sigma > 0.0:
        ranges = sweep + noise_rng.normal(0.0, config.noise_sigma, sweep.shape)
    ranges = np.clip(ranges, RANGE_MIN, RANGE_MAX)
    return Scan(ranges=ranges, heading_at_capture=heading, timestamp=timestamp)


def build_motion_feature(
    history: list[Scan] | tuple[Scan, ...],
    current_heading: float,
    goal_distance: float,
    goal_bearing: float,
    config: LidarConfig,
) -> MotionFeature:
    """Stack the last K sweeps, each calibrated to the current heading.

    Row k, beam i takes the value sweep k held at beam i + shift, where
    shift = round(wrap(current_heading - heading_at_capture) /
    angle_increment); beams shifted in from outside that sweep's fan
    read RANGE_MAX.  The history must hold exactly K scans ordered
    oldest to newest; at episode start the caller pre-fills it by
    repeating the first scan.
    """
    if len(history) != HISTORY_LEN:
        raise ValueError(f"need exactly {HISTORY_LEN} scans, got {len(history)}")
    b = history[-1].ranges.size
    inc = config.angle_increment
    matrix = np.full((HISTORY_LEN, b), RANGE_MAX)
    for row, scan in zip(matrix, history):
        shift = int(round(wrap_angle(current_heading - scan.heading_at_capture) / inc))
        if 0 <= shift < b:
            row[: b - shift] = scan.ranges[shift:]
        elif -b < shift < 0:
            row[-shift:] = scan.ranges[: b + shift]
    return MotionFeature(
        matrix=matrix,
        goal_vector=(goal_distance, wrap_angle(goal_bearing)),
    )

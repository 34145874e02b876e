"""Laser scanner simulation and heading-calibrated motion features.

The scanner sweeps a 270 degree fan at a fixed rate; the motion feature
stacks the last K scans after rotating each historical sweep into the
current heading frame by an index shift, so that the stack varies over
time only where the surroundings moved (robot translation is
deliberately left in).  A scan's range noise is drawn at its tick
(draw_noise), but its sweep is cast, and the scan read, only the first
time something reads its ranges (Scan), which are then kept.  A
feature holds its scans by reference, with their shifts; the networks
gather the shifted stack from them (networks.featurize and
networks.Stacks).
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


def normalize(ranges) -> np.ndarray:
    """Ranges over RANGE_MAX, as the float32 network input: each
    quotient taken in float64, then rounded to float32, written straight
    into the result without a float64 temporary."""
    return np.divide(ranges, RANGE_MAX, out=np.empty(np.shape(ranges), np.float32), casting="same_kind")


class Scan:
    """Ranges made the first time they are read: read(*args), once.

    The ranges are then kept, read-only, and read and args dropped, so
    every read returns the one array; an unread scan costs nothing but
    its arguments.  NavEnv makes two kinds: a control tick's noiseless
    sweep, Scan(cast_sweep, scene, position, heading, config), and a
    scan tick's reading of that sweep with the noise drawn at the tick
    (draw_noise, simulate_scan).  normalized is the float32 network
    input of the ranges (normalize), made and kept the same way.
    """

    __slots__ = ("_source", "_ranges", "_normalized")

    def __init__(self, read, *args):
        self._source = (read, args)
        self._ranges = self._normalized = None

    @property
    def ranges(self) -> np.ndarray:
        ranges = self._ranges
        if ranges is None:
            read, args = self._source
            ranges = self._ranges = read(*args)
            ranges.flags.writeable = False
            self._source = None
        return ranges

    @property
    def normalized(self) -> np.ndarray:
        row = self._normalized
        if row is None:
            row = self._normalized = normalize(self.ranges)
            row.flags.writeable = False
        return row


@dataclass(frozen=True)
class MotionFeature:
    """The last K scans, held by reference, and the goal.

    Row k is the ranges of scans[k] calibrated to the current heading:
    beam i reads scans[k].ranges[i + shifts[k]], and beams shifted in
    from outside that sweep's fan read RANGE_MAX (networks.Stacks.copy_to
    gathers the rows by this rule).  The scans are those of the scan
    history, never copied: a feature costs K references and K shifts,
    and reads a scan only when current_scan_ranges or beam_count first
    asks for its ranges.
    """

    scans: tuple  # K Scans, oldest -> newest
    shifts: tuple  # K ints
    goal_vector: tuple[float, float]  # (distance m, bearing rad in [-pi, pi])
    initial_goal_distance: float  # the goal distance at the episode's reset

    def __post_init__(self):
        if len(self.scans) != len(self.shifts):
            raise ValueError("a feature needs one shift per scan")

    @property
    def beam_count(self) -> int:
        return self.scans[-1].ranges.size

    @property
    def current_scan_ranges(self) -> np.ndarray:
        """The newest scan's ranges, which must have shift 0: a history
        that ends at the current heading, as NavEnv's always does."""
        if self.shifts[-1] != 0:
            raise ValueError(f"the newest sweep has shift {self.shifts[-1]}, not 0")
        return self.scans[-1].ranges


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


def draw_noise(config: LidarConfig, noise_rng: np.random.Generator) -> np.ndarray | None:
    """One scan tick's range noise, drawn from noise_rng now, or None
    when config has no noise; simulate_scan adds it when the scan is read."""
    if config.noise_sigma > 0.0:
        return noise_rng.normal(0.0, config.noise_sigma, config.beam_count)
    return None


def simulate_scan(sweep: np.ndarray, noise: np.ndarray | None) -> np.ndarray:
    """One reading of a sweep: its tick's range noise (draw_noise) added,
    then the clamp to the sensor bounds, into a fresh array."""
    ranges = sweep if noise is None else sweep + noise
    return np.clip(ranges, RANGE_MIN, RANGE_MAX)


def build_motion_feature(
    history: Sequence[tuple[float, Scan]],
    current_heading: float,
    goal_distance: float,
    goal_bearing: float,
    initial_goal_distance: float,
    config: LidarConfig,
) -> MotionFeature:
    """The last K scans, each calibrated to the current heading.

    history holds (heading at capture, Scan) pairs.  Row k, beam i
    takes the value scan k held at beam i + shift, where shift =
    round(wrap(current_heading - heading at capture) / angle_increment);
    beams shifted in from outside that sweep's fan read RANGE_MAX.  The
    history must hold exactly K scans ordered oldest to newest; at
    episode start the caller pre-fills it by repeating the first one.
    Only the shifts are computed here: the feature keeps the history's
    scans by reference, unread (MotionFeature).
    """
    if len(history) != HISTORY_LEN:
        raise ValueError(f"need exactly {HISTORY_LEN} scans, got {len(history)}")
    inc = config.angle_increment
    headings, scans = zip(*history)
    shift_of = {}  # scans between two control ticks share a heading
    for heading in headings:
        if heading not in shift_of:
            shift_of[heading] = int(round(wrap_angle(current_heading - heading) / inc))
    shifts = tuple(map(shift_of.__getitem__, headings))
    return MotionFeature(
        scans=scans,
        shifts=shifts,
        goal_vector=(goal_distance, wrap_angle(goal_bearing)),
        initial_goal_distance=initial_goal_distance,
    )

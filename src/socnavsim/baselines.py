"""Scripted baselines: a greedy scan-window planner.

The greedy planner scores every beam by windowed clearance minus a
goal-deviation penalty and steers proportionally toward the winner.
"""

from __future__ import annotations

import math

import numpy as np

from .lidar import RANGE_MAX, LidarConfig, MotionFeature
from .world import V_MAX, clamp


WINDOW_BEAMS_AT_180 = 21  # scaled proportionally with beam count
GOAL_BIAS = 2.0  # meters of clearance per radian of deviation
HEADING_GAIN = 1.5
STOP_CLEARANCE = 0.5
SPEED_PER_CLEARANCE = 0.5
HULL_MARGIN = 0.45  # stand-off subtracted from the winning range
INFLATE_RADIUS = 0.35  # hull radius eroding each return angularly


def _window_means(ranges: np.ndarray, window: int) -> np.ndarray:
    """Box-averaged ranges; edge windows shrink instead of zero-padding."""
    half = window // 2
    csum = np.concatenate([[0.0], np.cumsum(ranges)])
    n = ranges.size
    idx = np.arange(n)
    lo = np.maximum(idx - half, 0)
    hi = np.minimum(idx + half + 1, n)
    return (csum[hi] - csum[lo]) / (hi - lo)


def _inflate_returns(ranges: np.ndarray, delta_theta: float, radius: float) -> np.ndarray:
    """Erode the scan: each return blocks beams passing within the hull
    radius of it, so a beam's value is the distance the body (not just
    the ray) can travel.

    Return j covers the window of beams j - half .. j + half, clipped to
    the scan, with half = int(atan2(radius, r_j) / delta_theta); every
    beam keeps the minimum of its own range and the returns covering it.
    A window of length L is the union of the two blocks of length
    2**floor(log2 L) at its ends, so each return is scattered into a
    table of power-of-two blocks twice, and each level of the table is
    pushed down into the two halves below it.  A minimum does not
    depend on the order it is taken in, so the result is exact.  `half`
    is exact too: numpy's vectorized arctan2 can differ from the scalar
    libm atan2 by an ulp, which moves a quotient by about 1e-16 of its
    size, so every quotient farther than a relative 1e-9 from a whole
    number truncates the same under either, and those nearer are
    recomputed with libm, which rounds the same on every host.
    """
    n = ranges.size
    hits = np.flatnonzero(ranges < RANGE_MAX - 1e-9)
    values = ranges[hits]
    ratio = np.arctan2(radius, values) / delta_theta
    for i in np.flatnonzero(np.abs(ratio - np.rint(ratio)) <= 1e-9 * ratio):
        ratio[i] = math.atan2(radius, values[i]) / delta_theta
    half = np.maximum(ratio, 0.0).astype(np.intp)  # int() of each, floored at 0
    lo = np.maximum(hits - half, 0)
    hi = np.minimum(hits + half + 1, n)
    level = np.frexp(hi - lo)[1] - 1  # floor(log2(window length))
    top = int(level.max(initial=0))
    # blocks[k, s] is the minimum scattered onto beams s .. s + 2**k - 1
    blocks = np.full((top + 1, n), np.inf)
    flat = blocks.reshape(-1)
    np.minimum.at(flat, level * n + lo, values)
    np.minimum.at(flat, level * n + hi - (1 << level), values)
    for k in range(top, 0, -1):
        starts = n - (1 << k) + 1
        h = 1 << (k - 1)
        parent = blocks[k, :starts]
        np.minimum(blocks[k - 1, :starts], parent, out=blocks[k - 1, :starts])
        np.minimum(blocks[k - 1, h : h + starts], parent, out=blocks[k - 1, h : h + starts])
    return np.minimum(ranges, blocks[0])


def greedy_plan(
    ranges: np.ndarray,
    beam_offsets: np.ndarray,
    goal_bearing: float,
    goal_distance: float,
) -> tuple[float, float]:
    """Pick the best beam and return (v_l, heading offset).

    Windowed clearance is capped at the goal distance (free range past
    the target is worthless), and the goal-deviation weight scales with
    the scene's best clearance so that uniformly scaling all ranges
    never changes the winner.  Ties break toward the goal side, then
    toward the lowest index.  Speed follows the winning beam's own range
    less a hull stand-off and drops during hard turns; when every
    windowed clearance falls under the stop threshold the planner halts
    forward motion and keeps turning.
    """
    window = max(3, int(round(WINDOW_BEAMS_AT_180 * ranges.size / 180.0)) | 1)
    ranges = np.asarray(ranges, dtype=float)
    delta_theta = float(beam_offsets[1] - beam_offsets[0])
    safe = _inflate_returns(ranges, delta_theta, INFLATE_RADIUS)
    clearance = _window_means(safe, window)
    useful = np.minimum(clearance, goal_distance + STOP_CLEARANCE)
    bias = GOAL_BIAS * useful.max() / RANGE_MAX
    score = useful - bias * np.abs(beam_offsets - goal_bearing)
    best_score = score.max()
    tied = np.flatnonzero(score >= best_score - 1e-12)
    if tied.size > 1:
        deviations = np.abs(beam_offsets[tied] - goal_bearing)
        tied = tied[deviations <= deviations.min() + 1e-12]
    best = int(tied[0])

    angle = float(beam_offsets[best])
    v_w = clamp(HEADING_GAIN * angle, -math.pi, math.pi)
    if clearance.max() < STOP_CLEARANCE:
        return 0.0, v_w
    v_l = SPEED_PER_CLEARANCE * (float(safe[best]) - HULL_MARGIN)
    # turn mostly in place when the winner sits far off the nose
    v_l *= max(0.1, math.cos(min(abs(angle), math.pi / 2.0)))
    v_l = clamp(v_l, 0.0, V_MAX)
    return v_l, v_w


class GreedyPolicy:
    """Greedy planner adapted to the shared policy interface.

    Reads the raw current scan (MotionFeature.current_scan_ranges) plus
    the goal vector, never the shifted stack the networks gather, so the
    env casts only the sweep of each step's newest scan.
    The v_l = 0 stop case encodes as the zero action, which the twist
    mapping cannot combine with a turn command.
    """

    def __init__(self, lidar_config: LidarConfig):
        self.name = "greedy"
        self._offsets = lidar_config.beam_offsets()

    def begin_episode(self, obs: MotionFeature) -> None:
        if obs.beam_count != self._offsets.size:
            raise ValueError("beam count mismatch between planner and observation")

    def act(self, obs: MotionFeature) -> tuple[float, float]:
        distance, bearing = obs.goal_vector
        v_l, v_w = greedy_plan(obs.current_scan_ranges, self._offsets, bearing, distance)
        return v_l * math.cos(v_w), v_l * math.sin(v_w)


"""Scripted baselines: a greedy scan-window planner and an external hook.

The greedy planner scores every beam by windowed clearance minus a
goal-deviation penalty and steers proportionally toward the winner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Protocol

import numpy as np

from .lidar import RANGE_MAX, LidarConfig, MotionFeature
from .world import V_MAX


@dataclass(frozen=True)
class GreedyParams:
    window_beams_at_180: int = 21  # scaled proportionally with beam count
    goal_bias: float = 2.0  # meters of clearance per radian of deviation
    heading_gain: float = 1.5
    stop_clearance: float = 0.5
    speed_per_clearance: float = 0.5
    hull_margin: float = 0.45  # stand-off subtracted from the winning range
    inflate_radius: float = 0.35  # hull radius eroding each return angularly


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
    comes from the scalar libm atan2, which rounds the same on every
    host (numpy's vectorized arctan2 differs from it by an ulp on some
    inputs, and truncation can turn that into a different window).
    """
    n = ranges.size
    hits = np.flatnonzero(ranges < RANGE_MAX - 1e-9)
    values = ranges[hits]
    angles = np.fromiter(
        map(math.atan2, repeat(radius, hits.size), values.tolist()), float, hits.size
    )
    half = np.maximum(angles / delta_theta, 0.0).astype(np.intp)  # int() of each, floored at 0
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
    goal_distance: float = 10.0,
    params: GreedyParams = GreedyParams(),
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
    window = max(3, int(round(params.window_beams_at_180 * ranges.size / 180.0)) | 1)
    ranges = np.asarray(ranges, dtype=float)
    delta_theta = float(beam_offsets[1] - beam_offsets[0])
    safe = _inflate_returns(ranges, delta_theta, params.inflate_radius)
    clearance = _window_means(safe, window)
    useful = np.minimum(clearance, goal_distance + params.stop_clearance)
    bias = params.goal_bias * useful.max() / RANGE_MAX
    score = useful - bias * np.abs(beam_offsets - goal_bearing)
    best_score = score.max()
    tied = np.flatnonzero(score >= best_score - 1e-12)
    if tied.size > 1:
        deviations = np.abs(beam_offsets[tied] - goal_bearing)
        tied = tied[deviations <= deviations.min() + 1e-12]
    best = int(tied[0])

    angle = float(beam_offsets[best])
    v_w = float(np.clip(params.heading_gain * angle, -math.pi, math.pi))
    if clearance.max() < params.stop_clearance:
        return 0.0, v_w
    v_l = params.speed_per_clearance * (float(safe[best]) - params.hull_margin)
    # turn mostly in place when the winner sits far off the nose
    v_l *= max(0.1, math.cos(min(abs(angle), math.pi / 2.0)))
    v_l = float(np.clip(v_l, 0.0, V_MAX))
    return v_l, v_w


class GreedyPolicy:
    """Greedy planner adapted to the shared policy interface.

    Reads the raw current sweep (last feature row) plus the goal vector.
    The v_l = 0 stop case encodes as the zero action, which the twist
    mapping cannot combine with a turn command.
    """

    def __init__(self, lidar_config: LidarConfig, params: GreedyParams = GreedyParams()):
        self.name = "greedy"
        self.params = params
        self._offsets = lidar_config.beam_offsets()

    def begin_episode(self, obs: MotionFeature) -> None:
        if obs.matrix.shape[1] != self._offsets.size:
            raise ValueError("beam count mismatch between planner and observation")

    def act(self, obs: MotionFeature) -> tuple[float, float]:
        distance, bearing = obs.goal_vector
        v_l, v_w = greedy_plan(
            obs.current_scan_ranges, self._offsets, bearing, distance, self.params
        )
        return v_l * math.cos(v_w), v_l * math.sin(v_w)


class ExternalCrowdPolicy(Protocol):
    """Hook for planners that consume full pedestrian states.

    Implementations receive the robot pose tuple (x, y, heading), the
    goal position, and per-pedestrian (x, y, vx, vy, radius) tuples, and
    return a (v_l, heading offset) twist.  No model ships with this
    package; the evaluation runner feeds simulator ground truth to any
    object satisfying this protocol.
    """

    def plan(
        self,
        robot: tuple[float, float, float],
        goal: tuple[float, float],
        pedestrians: list[tuple[float, float, float, float, float]],
    ) -> tuple[float, float]: ...


class FullStatePolicyAdapter:
    """Adapts an ExternalCrowdPolicy to the shared interface.

    The episode stepper (evaluation.episode_steps) recognizes `wants_state` and calls
    `observe_state` with simulator ground truth before each act().
    """

    wants_state = True

    def __init__(self, planner: ExternalCrowdPolicy, name: str = "external"):
        self.planner = planner
        self.name = name
        self._state = None

    def begin_episode(self, obs: MotionFeature) -> None:
        self._state = None

    def observe_state(self, robot, goal, pedestrians) -> None:
        self._state = (robot, goal, pedestrians)

    def act(self, obs: MotionFeature) -> tuple[float, float]:
        if self._state is None:
            raise RuntimeError("observe_state() was not called before act()")
        v_l, v_w = self.planner.plan(*self._state)
        return v_l * math.cos(v_w), v_l * math.sin(v_w)

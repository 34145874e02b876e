import math

import numpy as np
import pytest

from socnavsim import baselines
from socnavsim.baselines import (
    GreedyPolicy,
    _inflate_returns,
    greedy_plan,
)
from socnavsim.lidar import HISTORY_LEN, RANGE_MAX, RANGE_MIN, LidarConfig
from socnavsim.world import action_to_twist

from conftest import feature_of, reference_inflate_returns

CFG = LidarConfig(beam_count=181)
OFFSETS = CFG.beam_offsets()


def make_obs(ranges, goal=(5.0, 0.0)):
    mat = np.tile(ranges, (HISTORY_LEN, 1))
    return feature_of(mat, goal, goal[0])


class TestGreedyPlan:
    def test_empty_scan_goal_ahead_picks_center(self):
        ranges = np.full(CFG.beam_count, 10.0)
        v_l, v_w = greedy_plan(ranges, OFFSETS, goal_bearing=0.0, goal_distance=5.0)
        assert v_w == pytest.approx(0.0, abs=1e-9)
        assert v_l > 0.0

    def test_goal_bias_breaks_symmetric_ties(self):
        ranges = np.full(CFG.beam_count, 10.0)
        bearing = math.radians(30)
        v_l, v_w = greedy_plan(ranges, OFFSETS, goal_bearing=bearing, goal_distance=5.0)
        assert v_w > 0.0  # steered toward the +30 degree side

    def test_blocked_goal_free_sector_wins_argmax_oracle(self, rng):
        """Exhaustive score recomputation confirms the chosen index."""
        for _ in range(30):
            ranges = np.clip(rng.uniform(0.3, 10.0, CFG.beam_count), 0.1, 10.0)
            bearing = float(rng.uniform(-1.0, 1.0))
            dist = float(rng.uniform(1.0, 8.0))
            v_l, v_w = greedy_plan(ranges, OFFSETS, bearing, dist)
            # independent recomputation of the full scoring array
            window = max(3, int(round(21 * ranges.size / 180.0)) | 1)
            half = window // 2
            clear = np.array(
                [
                    ranges[max(0, i - half) : min(ranges.size, i + half + 1)].mean()
                    for i in range(ranges.size)
                ]
            )
            safe = reference_inflate_returns(ranges, float(OFFSETS[1] - OFFSETS[0]), baselines.INFLATE_RADIUS)
            clear = np.array(
                [
                    safe[max(0, i - half) : min(safe.size, i + half + 1)].mean()
                    for i in range(safe.size)
                ]
            )
            useful = np.minimum(clear, dist + baselines.STOP_CLEARANCE)
            bias = baselines.GOAL_BIAS * useful.max() / 10.0
            score = useful - bias * np.abs(OFFSETS - bearing)
            best = int(np.argmax(score))
            expected_v_w = float(
                np.clip(baselines.HEADING_GAIN * OFFSETS[best], -math.pi, math.pi)
            )
            assert v_w == pytest.approx(expected_v_w, abs=1e-9)

    def test_wall_ahead_picks_free_side(self):
        # blocked at 2 m everywhere except a generous free sector at -90
        ranges = np.full(CFG.beam_count, 2.0)
        side = np.abs(OFFSETS + math.pi / 2) < 0.35
        ranges[side] = 10.0
        v_l, v_w = greedy_plan(ranges, OFFSETS, goal_bearing=0.0, goal_distance=5.0)
        assert v_w < -0.5  # turned toward the free sector

    def test_stop_rule(self):
        ranges = np.full(CFG.beam_count, 0.3)
        v_l, v_w = greedy_plan(ranges, OFFSETS, goal_bearing=0.0, goal_distance=5.0)
        assert v_l == 0.0

    def test_scale_invariance_of_argmax(self, rng, monkeypatch):
        """Scaling all ranges never changes the scoring winner when
        nothing saturates.  Hull inflation is range-dependent by design
        (gaps subtend smaller angles at distance), so the property is
        checked on the scoring stage with inflation disabled."""
        monkeypatch.setattr(baselines, "INFLATE_RADIUS", 0.0)
        for _ in range(40):
            ranges = rng.uniform(0.5, 3.0, CFG.beam_count)
            bearing = float(rng.uniform(-1.5, 1.5))
            _, v_w1 = greedy_plan(ranges, OFFSETS, bearing, 100.0)
            _, v_w2 = greedy_plan(ranges * 2.5, OFFSETS, bearing, 250.0)
            assert v_w1 == pytest.approx(v_w2, abs=1e-12)

    def test_inflation_is_conservative(self, rng):
        for _ in range(20):
            ranges = rng.uniform(0.2, 10.0, CFG.beam_count)
            safe = _inflate_returns(ranges, float(OFFSETS[1] - OFFSETS[0]), 0.35)
            assert np.all(safe <= ranges + 1e-12)

    def test_twist_within_platform_limits(self, rng):
        for _ in range(50):
            ranges = rng.uniform(0.1, 10.0, CFG.beam_count)
            v_l, v_w = greedy_plan(ranges, OFFSETS, float(rng.uniform(-3, 3)),
                                   float(rng.uniform(0.5, 9)))
            assert 0.0 <= v_l <= 1.5
            assert -math.pi <= v_w <= math.pi


def delta_theta(beams):
    offsets = LidarConfig(beam_count=beams).beam_offsets()
    return float(offsets[1] - offsets[0])


def assert_inflation_matches_reference(ranges, dtheta, radius=0.35):
    got = _inflate_returns(ranges, dtheta, radius)
    want = reference_inflate_returns(ranges, dtheta, radius)
    assert got.tobytes() == want.tobytes()


def half_boundaries(dtheta, radius=0.35):
    """Ranges on both sides of every float where
    int(atan2(radius, r) / dtheta) drops by one, found by bisection."""

    def half(r):
        return int(math.atan2(radius, r) / dtheta)

    out = []
    for k in range(half(RANGE_MAX) + 1, half(RANGE_MIN) + 1):
        lo, hi = RANGE_MIN, RANGE_MAX  # half(lo) >= k > half(hi)
        while True:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            if half(mid) >= k:
                lo = mid
            else:
                hi = mid
        for r in (lo, hi):
            out.append(r)
            down = up = r
            for _ in range(3):
                down = math.nextafter(down, 0.0)
                up = math.nextafter(up, math.inf)
                out.extend((down, up))
    return np.array(out)


class TestInflateReturnsExact:
    """The scatter-min erosion equals the per-return loop bit for bit."""

    @pytest.mark.parametrize("beams", [180, 1080])
    def test_random_scans(self, rng, beams):
        for _ in range(20):
            ranges = rng.uniform(RANGE_MIN, RANGE_MAX, beams)
            ranges[rng.random(beams) < 0.3] = RANGE_MAX
            assert_inflation_matches_reference(ranges, delta_theta(beams))

    @pytest.mark.parametrize("beams", [2, 180, 1080])
    def test_no_returns_and_all_returns(self, rng, beams):
        dtheta = delta_theta(beams)
        free = np.full(beams, RANGE_MAX)
        assert _inflate_returns(free, dtheta, 0.35).tobytes() == free.tobytes()
        assert_inflation_matches_reference(rng.uniform(RANGE_MIN, 9.0, beams), dtheta)

    @pytest.mark.parametrize("beams", [2, 3, 180, 1080])
    def test_near_range_min(self, rng, beams):
        # a near-wall sweep: wide windows that overlap everywhere
        ranges = rng.uniform(RANGE_MIN, 0.3, beams)
        for scan in (ranges, np.sort(ranges), np.full(beams, RANGE_MIN)):
            assert_inflation_matches_reference(scan, delta_theta(beams))

    @pytest.mark.parametrize("beams", [2, 3, 180, 1080])
    def test_half_exceeds_beam_count(self, rng, beams):
        """A fan's half never exceeds (B - 1) / 3 beams, so a finer
        angular step makes every window overrun both ends of the scan."""
        dtheta = math.atan2(0.35, 0.3) / (2 * beams + 5)
        assert int(math.atan2(0.35, 0.3) / dtheta) > beams
        ranges = rng.uniform(RANGE_MIN, 0.3, beams)
        ranges[rng.random(beams) < 0.2] = RANGE_MAX
        assert_inflation_matches_reference(ranges, dtheta)

    def test_two_beam_scans(self):
        dtheta = delta_theta(2)
        for pair in [(RANGE_MIN, RANGE_MAX), (RANGE_MAX, RANGE_MIN), (0.2, 0.1), (5.0, 10.0)]:
            for radius in (0.35, 100.0):
                assert_inflation_matches_reference(np.array(pair), dtheta, radius)

    @pytest.mark.parametrize("beams", [180, 1080])
    def test_half_boundaries_found_by_bisection(self, beams):
        """One return alone in the middle beam, so that a window one beam
        wider or narrower shows at both of its ends."""
        dtheta = delta_theta(beams)
        edges = half_boundaries(dtheta)
        assert edges.size > 100
        ranges = np.full(beams, RANGE_MAX)
        for r in edges:
            ranges[beams // 2] = r
            assert_inflation_matches_reference(ranges, dtheta)


class TestArctangentGuard:
    """On a host whose vectorized arctan2 agrees with libm the guard is
    rarely taken; an arctan2 one ulp off on every value takes it at each
    truncation edge, and the erosion must not change."""

    @pytest.mark.parametrize("toward", [-math.inf, math.inf])
    @pytest.mark.parametrize("beams", [180, 1080])
    def test_one_ulp_off_arctan2_matches_reference(self, monkeypatch, beams, toward):
        exact = np.arctan2
        monkeypatch.setattr(np, "arctan2", lambda y, x: np.nextafter(exact(y, x), toward))
        dtheta = delta_theta(beams)
        ranges = np.full(beams, RANGE_MAX)
        for r in half_boundaries(dtheta):
            ranges[beams // 2] = r
            assert_inflation_matches_reference(ranges, dtheta)


class TestGreedyPolicy:
    def test_action_encoding_round_trip(self):
        pol = GreedyPolicy(CFG)
        obs = make_obs(np.full(CFG.beam_count, 10.0), goal=(5.0, 0.4))
        a_x, a_y = pol.act(obs)
        v_l, v_w = action_to_twist(a_x, a_y)
        expect_vl, expect_vw = greedy_plan(obs.current_scan_ranges, OFFSETS, 0.4, 5.0)
        assert v_l == pytest.approx(expect_vl, abs=1e-9)
        assert v_w == pytest.approx(expect_vw, abs=1e-9)

    def test_beam_count_mismatch_rejected(self):
        pol = GreedyPolicy(CFG)
        obs = make_obs(np.full(64, 10.0), goal=(1, 0))
        with pytest.raises(ValueError):
            pol.begin_episode(obs)


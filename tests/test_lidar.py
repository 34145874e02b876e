import math
from collections import deque

import numpy as np
import pytest

from socnavsim.lidar import (
    HISTORY_LEN,
    RANGE_MAX,
    RANGE_MIN,
    LidarConfig,
    build_motion_feature,
    cast_sweep,
    simulate_scan,
)
from socnavsim.networks import featurize

from conftest import (
    Circle,
    Segment,
    Vec2,
    calibrate,
    calibration_shift,
    marching_ray,
    random_shape,
    eager_motion_matrix,
    reference_motion_matrix,
    to_map,
)

CFG = LidarConfig(beam_count=181)


def scan_at(shapes, x, y, heading, cfg=CFG, seed=0):
    """The (heading at capture, ranges) scan from pose (x, y, heading)."""
    sweep = cast_sweep(to_map(shapes).scene(), (x, y), heading, cfg)
    return heading, simulate_scan(sweep, cfg, np.random.default_rng(seed))


def feature(history, current_heading, cfg=CFG, goal_distance=1.0, goal_bearing=0.0):
    return build_motion_feature(history, current_heading, goal_distance, goal_bearing, 1.0, cfg)


class TestSimulateScan:
    def test_empty_world_all_max(self):
        """Open space reads the sensor bound RANGE_MAX in the sweep, its
        scan and the motion-feature beams shifted in from outside the fan,
        and 1.0 once featurized."""
        sweep = cast_sweep(to_map([]).scene(), (0.0, 0.0), 0.0, CFG)
        assert np.all(sweep == RANGE_MAX)
        s = simulate_scan(sweep, CFG, np.random.default_rng(0))
        assert np.all(s == RANGE_MAX)
        near = (-3 * CFG.angle_increment, np.full(CFG.beam_count, 1.0))
        mf = feature([near] * HISTORY_LEN, 0.0)
        assert np.all(mf.matrix[:, :-3] == 1.0) and np.all(mf.matrix[:, -3:] == RANGE_MAX)
        feat, _ = featurize(feature([(0.0, s)] * HISTORY_LEN, 0.0))
        assert feat.dtype == np.float32 and np.all(feat == 1.0)

    def test_noisy_scan_needs_its_generator(self):
        """A noisy config cannot be scanned without a generator, and draws
        its noise from the one it is given."""
        cfg = LidarConfig(beam_count=64, noise_sigma=0.05)
        sweep = cast_sweep(to_map([Circle(Vec2(2.0, 0.5), 0.4)]).scene(), (0.0, 0.0), 0.1, cfg)
        with pytest.raises(TypeError):
            simulate_scan(sweep, cfg)
        rng, ref = np.random.default_rng(4), np.random.default_rng(4)
        got = simulate_scan(sweep, cfg, rng)
        noise = ref.normal(0.0, 0.05, sweep.shape)
        assert got.tobytes() == np.clip(sweep + noise, RANGE_MIN, RANGE_MAX).tobytes()
        assert rng.random() == ref.random()  # the scan consumed exactly its noise

    def test_wall_ahead_center_beam(self):
        wall = Segment(Vec2(3, -5), Vec2(3, 5))
        _, s = scan_at([wall], 0, 0, 0.0)
        center = CFG.beam_count // 2  # odd beam count puts a beam at 0 offset
        assert s[center] == pytest.approx(3.0, abs=1e-9)

    def test_clamped_bounds(self):
        near = Circle(Vec2(0.12, 0.0), 0.05)
        _, s = scan_at([near], 0, 0, 0.0)
        assert s.min() >= 0.1
        assert s.max() <= 10.0

    def test_matches_marching_oracle(self, rng):
        shapes = [random_shape(rng, span=3.0) for _ in range(3)]
        pos = Vec2(0.1, -0.4)
        heading = 0.7
        _, s = scan_at(shapes, pos.x, pos.y, heading)
        offsets = CFG.beam_offsets()
        for i in range(0, CFG.beam_count, 17):
            oracle = marching_ray(pos, heading + float(offsets[i]), shapes)
            assert abs(s[i] - np.clip(oracle, 0.1, 10.0)) <= 1e-3

    def test_beam_offsets_built_once(self):
        offsets = CFG.beam_offsets()
        assert offsets is CFG.beam_offsets()
        assert not offsets.flags.writeable
        expected = np.linspace(-0.75 * math.pi, 0.75 * math.pi, CFG.beam_count)
        assert offsets.tobytes() == expected.tobytes()

    def test_noise_flag(self, rng):
        cfg = LidarConfig(beam_count=64, noise_sigma=0.05)
        _, a = scan_at([], 0, 0, 0.0, cfg, seed=1)
        assert not np.all(a == 10.0)  # noise pushed some below the cap
        assert a.max() <= 10.0

    @pytest.mark.parametrize("sigma", [-1.0, -0.01, math.inf, math.nan])
    def test_bad_noise_sigma_rejected(self, sigma):
        # a negative sigma would scan noiselessly, an infinite one on noise alone
        with pytest.raises(ValueError, match="noise_sigma"):
            LidarConfig(beam_count=64, noise_sigma=sigma)

    @pytest.mark.parametrize("sigma", [0.0, 0.05])
    def test_sweep_read_only_and_scans_fresh(self, sigma):
        """A scan is a fresh array: writing into it leaves the sweep, and
        every later scan of it, as they were."""
        cfg = LidarConfig(beam_count=64, noise_sigma=sigma)
        sweep = cast_sweep(to_map([Circle(Vec2(2.0, 0.5), 0.4)]).scene(), (0.0, 0.0), 0.1, cfg)
        kept = sweep.copy()
        assert not sweep.flags.writeable
        with pytest.raises(ValueError):
            sweep[0] = 1.0
        want = simulate_scan(sweep, cfg, np.random.default_rng(2)).tobytes()
        a = simulate_scan(sweep, cfg, np.random.default_rng(2))
        assert a.flags.writeable and not np.shares_memory(a, sweep)
        a[:] = 0.5
        assert sweep.tobytes() == kept.tobytes()
        assert simulate_scan(sweep, cfg, np.random.default_rng(2)).tobytes() == want


class TestCalibrate:
    def test_zero_shift_identity(self):
        ranges = np.linspace(0.5, 9.5, CFG.beam_count)
        heading, out = calibrate((0.3, ranges), 0.3, CFG)
        assert heading == 0.3 and np.array_equal(out, ranges)

    def test_plus_one_increment_shifts_by_one(self):
        ranges = np.linspace(0.5, 9.5, CFG.beam_count)
        _, out = calibrate((0.0, ranges), CFG.angle_increment, CFG)
        assert np.array_equal(out[:-1], ranges[1:])
        assert out[-1] == 10.0  # filled-in beam reads max range

    def test_inverse_shift_recovers_untouched_beams(self):
        ranges = np.linspace(0.5, 9.5, CFG.beam_count)
        dtheta = CFG.angle_increment
        down = calibrate((0.0, ranges), -2 * dtheta, CFG)
        _, back = calibrate(down, 0.0, CFG)
        b = CFG.beam_count
        assert np.array_equal(back[2 : b - 2], ranges[2 : b - 2])

    def test_shift_rounding(self):
        assert calibration_shift(0.0, 2.4 * CFG.angle_increment, CFG) == 2
        assert calibration_shift(0.0, -2.6 * CFG.angle_increment, CFG) == -3

    def test_pure_permutation_plus_fill(self):
        values = np.linspace(0.5, 9.5, CFG.beam_count)
        _, out = calibrate((0.0, values), 5 * CFG.angle_increment, CFG)
        kept = out[: CFG.beam_count - 5]
        assert np.array_equal(np.sort(kept), np.sort(values[5:]))
        assert np.all(out[CFG.beam_count - 5 :] == 10.0)


class TestMotionFeature:
    def test_requires_full_history(self):
        s = (0.0, np.full(CFG.beam_count, 10.0))
        with pytest.raises(ValueError):
            feature([s] * 39, 0.0)

    def test_last_row_is_current_scan(self, rng):
        shapes = [random_shape(rng, span=3.0) for _ in range(3)]
        history = [scan_at(shapes, 0, 0, 0.0) for _ in range(HISTORY_LEN)]
        mf = feature(history, 0.0, goal_distance=2.0, goal_bearing=0.1)
        assert np.array_equal(mf.matrix[-1], history[-1][1])
        assert np.array_equal(mf.current_scan_ranges, history[-1][1])

    def test_rotation_only_rows_equal_on_valid_beams(self, rng):
        """A rotating robot in a static world leaves only fill-in beams.

        Equality holds up to float rounding of the per-capture beam
        angles (observed ~1e-14 m), hence the nanometre tolerance.
        """
        shapes = [random_shape(rng, span=3.0) for _ in range(4)]
        dtheta = CFG.angle_increment
        headings = np.cumsum(rng.integers(-4, 5, HISTORY_LEN)) * dtheta
        history = [scan_at(shapes, 0, 0, float(h)) for h in headings]
        current = float(headings[-1])
        mf = feature(history, current)
        for i, h in enumerate(headings):
            shift = calibration_shift(float(h), current, CFG)
            lo, hi = max(0, -shift), CFG.beam_count - max(0, shift)
            np.testing.assert_allclose(
                mf.matrix[i, lo:hi], mf.matrix[-1, lo:hi], rtol=0.0, atol=1e-9
            )

    def test_translation_changes_rows(self, rng):
        shapes = [Circle(Vec2(3, 0.5), 0.5)]
        history = [scan_at(shapes, 0.05 * i, 0, 0.0) for i in range(HISTORY_LEN)]
        mf = feature(history, 0.0)
        assert not np.array_equal(mf.matrix[0], mf.matrix[-1])

    def test_moving_pedestrian_stripe_matches_rerender(self, rng):
        """Re-render each historical frame from scratch and compare."""
        ped_xs = np.linspace(-1.0, 1.0, HISTORY_LEN)
        history = [scan_at([Circle(Vec2(2.0, float(px)), 0.3)], 0, 0, 0.0) for px in ped_xs]
        mf = feature(history, 0.0)
        for i, px in enumerate(ped_xs):
            _, again = scan_at([Circle(Vec2(2.0, float(px)), 0.3)], 0, 0, 0.0)
            assert np.array_equal(mf.matrix[i], again)
        # the stripe moves: rows are not all identical
        assert not np.array_equal(mf.matrix[0], mf.matrix[-1])

    def test_deterministic(self, rng):
        shapes = [random_shape(rng, span=3.0) for _ in range(3)]
        history = [scan_at(shapes, 0, 0, 0.1 * i) for i in range(HISTORY_LEN)]
        a = feature(history, 1.0, goal_distance=2.0, goal_bearing=0.3)
        b = feature(history, 1.0, goal_distance=2.0, goal_bearing=0.3)
        assert np.array_equal(a.matrix, b.matrix)
        assert a.goal_vector == b.goal_vector

    @pytest.mark.parametrize("beams", [2, 181, 1080])
    def test_equals_calibrated_stack(self, rng, beams):
        """Bit for bit the stack of calibrate() rows, over headings spread
        around the circle, so that shifts reach about +-2(B - 1)/3."""
        cfg = LidarConfig(beam_count=beams)
        for _ in range(5):
            headings = rng.uniform(-math.pi, math.pi, HISTORY_LEN)
            history = [(float(h), rng.uniform(0.1, 10.0, beams)) for h in headings]
            current = float(rng.uniform(-4.0, 4.0))
            mf = feature(history, current, cfg)
            want = reference_motion_matrix(history, current, cfg)
            assert mf.matrix.tobytes() == want.tobytes()

    def test_shifts_past_the_sweep_fill_range_max(self, rng):
        """Sweeps shorter than the configured fan see shifts of at least
        B and at most -B; those rows read RANGE_MAX everywhere."""
        b = 4
        dtheta = CFG.angle_increment
        shifts = np.arange(HISTORY_LEN) - HISTORY_LEN // 2  # -20 .. 19
        history = [(float(-k * dtheta), rng.uniform(0.1, 10.0, b)) for k in shifts]
        assert [calibration_shift(heading, 0.0, CFG) for heading, _ in history] == list(shifts)
        mf = feature(history, 0.0)
        assert mf.matrix.tobytes() == reference_motion_matrix(history, 0.0, CFG).tobytes()
        outside = np.abs(shifts) >= b
        assert outside.sum() > 30 and shifts.min() <= -b and shifts.max() >= b
        assert np.all(mf.matrix[outside] == RANGE_MAX)

    def test_goal_bearing_wrapped(self):
        s = (0.0, np.full(CFG.beam_count, 10.0))
        mf = feature([s] * HISTORY_LEN, 0.0, goal_bearing=4.0)
        assert -math.pi <= mf.goal_vector[1] <= math.pi

    def test_reads_history_deque_and_carries_initial_goal_distance(self, rng):
        """The history may be the env's deque of (heading, ranges) pairs,
        read in place; the feature carries the initial goal distance as given."""
        history = deque([(0.1 * i, rng.uniform(0.1, 10.0, CFG.beam_count)) for i in range(HISTORY_LEN)],
                        maxlen=HISTORY_LEN)
        mf = build_motion_feature(history, 0.5, 2.0, 0.3, 6.5, CFG)
        assert mf.matrix.tobytes() == feature(list(history), 0.5).matrix.tobytes()
        assert mf.goal_vector[0] == 2.0 and mf.initial_goal_distance == 6.5


class TestFeatureByReference:
    """build_motion_feature keeps the history's sweeps and computes only
    shifts; the matrix is built on first read, equal to the eager one."""

    def test_every_shift_case_equals_eager(self, rng):
        """Shifts of both signs, at least B in size (a sweep shorter than
        the configured fan), headings that wrap at +-pi, and the repeated
        reset row."""
        cfg = LidarConfig(beam_count=1080)
        b = 50
        inc = cfg.angle_increment
        reset = (math.pi - 0.5 * inc, rng.uniform(0.1, 10.0, b))
        offsets = np.concatenate([np.arange(-60, 60, 4), [-b, b, -b - 1, b + 1, -1, 1, 0, 0]])
        current = -math.pi + 0.25 * inc
        history = [reset] * 2 + [(current - k * inc, rng.uniform(0.1, 10.0, b)) for k in offsets]
        mf = build_motion_feature(history, current, 2.0, 0.1, 3.0, cfg, newest_scan=38)
        assert min(mf.shifts) <= -b and max(mf.shifts) >= b and mf.shifts[0] != 0
        assert mf.scans == (0, 0, *range(1, 39))
        assert all(row is ranges for row, (_, ranges) in zip(mf.rows, history))
        assert "matrix" not in vars(mf)  # nothing built yet
        assert mf.matrix.tobytes() == eager_motion_matrix(history, current, cfg).tobytes()
        assert mf.matrix is mf.matrix

    def test_current_scan_ranges_is_the_last_row(self, rng):
        """Over a seeded episode that turns, current_scan_ranges is the
        newest sweep itself, unshifted, and equals matrix[-1]."""
        from socnavsim.world import EnvConfig, NavEnv

        env = NavEnv(EnvConfig(beam_count=90, max_steps=40))
        obs = env.reset(map_seed=4, crowd_seed=5)
        steps = 0
        while True:
            assert obs.shifts[-1] == 0 and obs.current_scan_ranges is obs.rows[-1]
            assert obs.current_scan_ranges is env.scan_history[-1][1]
            assert np.array_equal(obs.current_scan_ranges, obs.matrix[-1])
            out = env.step(rng.uniform(-1.5, 1.5, 2))
            obs, steps = out.observation, steps + 1
            if out.done.value != "running":
                break
        assert steps > 5 and any(s != 0 for s in obs.shifts)

    def test_greedy_policy_builds_no_matrix(self):
        from socnavsim.baselines import GreedyPolicy
        from socnavsim.evaluation import episode_steps
        from socnavsim.world import EnvConfig

        cfg = EnvConfig(beam_count=90, max_steps=30, obstacle_count_range=(0, 0))
        seen = [out.observation for out in episode_steps(GreedyPolicy(cfg.lidar()), cfg, 1, 2)]
        assert len(seen) == 30 and all("matrix" not in vars(obs) for obs in seen)

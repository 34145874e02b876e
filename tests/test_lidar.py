import math

import numpy as np
import pytest

from socnavsim.geometry import Circle, Segment, Vec2, pack_shapes, takes_windows
from socnavsim.lidar import (
    HISTORY_LEN,
    RANGE_MAX,
    RANGE_MIN,
    LidarConfig,
    Scan,
    build_motion_feature,
    cast_sweep,
    simulate_scan,
)
from socnavsim.networks import featurize
from socnavsim.world import arena_walls

from conftest import (
    calibrate,
    calibration_shift,
    marching_ray,
    random_circle,
    random_rect,
    random_shape,
    reference_motion_matrix,
)

CFG = LidarConfig(beam_count=181)


def scan_at(shapes, x, y, heading, cfg=CFG, t=0, seed=0):
    sweep = cast_sweep(pack_shapes(shapes), (x, y), heading, cfg)
    return simulate_scan(sweep, heading, t, cfg, np.random.default_rng(seed))


class TestSimulateScan:
    def test_empty_world_all_max(self):
        """Open space reads the sensor bound RANGE_MAX in the sweep, its
        scan and the motion-feature beams shifted in from outside the fan,
        and 1.0 once featurized."""
        sweep = cast_sweep(pack_shapes([]), (0.0, 0.0), 0.0, CFG)
        assert np.all(sweep == RANGE_MAX)
        s = simulate_scan(sweep, 0.0, 0, CFG, np.random.default_rng(0))
        assert np.all(s.ranges == RANGE_MAX)
        near = Scan(np.full(CFG.beam_count, 1.0), -3 * CFG.angle_increment, 0)
        mf = build_motion_feature([near] * HISTORY_LEN, 0.0, 1.0, 0.0, CFG)
        assert np.all(mf.matrix[:, :-3] == 1.0) and np.all(mf.matrix[:, -3:] == RANGE_MAX)
        feat, _ = featurize(build_motion_feature([s] * HISTORY_LEN, 0.0, 1.0, 0.0, CFG), 1.0)
        assert feat.dtype == np.float32 and np.all(feat == 1.0)

    def test_noisy_scan_needs_its_generator(self):
        """A noisy config cannot be scanned without a generator, and draws
        its noise from the one it is given."""
        cfg = LidarConfig(beam_count=64, noise_sigma=0.05)
        sweep = cast_sweep(pack_shapes([Circle(Vec2(2.0, 0.5), 0.4)]), (0.0, 0.0), 0.1, cfg)
        with pytest.raises(TypeError):
            simulate_scan(sweep, 0.1, 0, cfg)
        rng, ref = np.random.default_rng(4), np.random.default_rng(4)
        got = simulate_scan(sweep, 0.1, 0, cfg, rng).ranges
        noise = ref.normal(0.0, 0.05, sweep.shape)
        assert got.tobytes() == np.clip(sweep + noise, RANGE_MIN, RANGE_MAX).tobytes()
        assert rng.random() == ref.random()  # the scan consumed exactly its noise

    def test_wall_ahead_center_beam(self):
        wall = Segment(Vec2(3, -5), Vec2(3, 5))
        s = scan_at([wall], 0, 0, 0.0)
        center = CFG.beam_count // 2  # odd beam count puts a beam at 0 offset
        assert s.ranges[center] == pytest.approx(3.0, abs=1e-9)

    def test_clamped_bounds(self):
        near = Circle(Vec2(0.12, 0.0), 0.05)
        s = scan_at([near], 0, 0, 0.0)
        assert s.ranges.min() >= 0.1
        assert s.ranges.max() <= 10.0

    def test_matches_marching_oracle(self, rng):
        shapes = [random_shape(rng, span=3.0) for _ in range(3)]
        pos = Vec2(0.1, -0.4)
        heading = 0.7
        s = scan_at(shapes, pos.x, pos.y, heading)
        offsets = CFG.beam_offsets()
        for i in range(0, CFG.beam_count, 17):
            oracle = marching_ray(pos, heading + float(offsets[i]), shapes, 10.0)
            assert abs(s.ranges[i] - np.clip(oracle, 0.1, 10.0)) <= 1e-3

    def test_beam_offsets_built_once(self):
        offsets = CFG.beam_offsets()
        assert offsets is CFG.beam_offsets()
        assert not offsets.flags.writeable
        expected = np.linspace(-0.75 * math.pi, 0.75 * math.pi, CFG.beam_count)
        assert offsets.tobytes() == expected.tobytes()

    def test_noise_flag(self, rng):
        cfg = LidarConfig(beam_count=64, noise_sigma=0.05)
        a = scan_at([], 0, 0, 0.0, cfg, seed=1)
        assert not np.all(a.ranges == 10.0)  # noise pushed some below the cap
        assert a.ranges.max() <= 10.0

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
        sweep = cast_sweep(pack_shapes([Circle(Vec2(2.0, 0.5), 0.4)]), (0.0, 0.0), 0.1, cfg)
        kept = sweep.copy()
        assert not sweep.flags.writeable
        with pytest.raises(ValueError):
            sweep[0] = 1.0
        want = simulate_scan(sweep, 0.1, 0, cfg, np.random.default_rng(2)).ranges.tobytes()
        a = simulate_scan(sweep, 0.1, 0, cfg, np.random.default_rng(2))
        assert a.ranges.flags.writeable and not np.shares_memory(a.ranges, sweep)
        a.ranges[:] = 0.5
        assert sweep.tobytes() == kept.tobytes()
        assert simulate_scan(sweep, 0.1, 1, cfg, np.random.default_rng(2)).ranges.tobytes() == want


def test_benchmark_sized_scenes_pick_their_cast_path(rng):
    """A scene the size of a typical eval-crowd20 one (4 walls, 16 round and
    4 square pedestrians: 36 rows at 180 beams) stays on the broadcast; the
    smallest eval-mapless1080 one seen (4 walls, 3 circles and a rectangle:
    11 rows at 1080 beams) takes the beam windows, unless its fan is not
    ascending."""
    walls = arena_walls(5.0)
    crowd = [random_circle(rng) for _ in range(16)] + [random_rect(rng) for _ in range(4)]
    obstacles = [random_circle(rng) for _ in range(3)] + [random_rect(rng)]
    for shapes, beams, windows in ((walls + crowd, 180, False), (walls + obstacles, 1080, True)):
        scene = pack_shapes(shapes)
        fan = float(rng.uniform(-math.pi, math.pi)) + LidarConfig(beam_count=beams).beam_offsets()
        assert takes_windows(fan, scene) is windows
        assert not takes_windows(fan[::-1], scene)


class TestCalibrate:
    def test_zero_shift_identity(self):
        s = Scan(np.linspace(0.5, 9.5, CFG.beam_count), 0.3, 0)
        out = calibrate(s, 0.3, CFG)
        assert np.array_equal(out.ranges, s.ranges)

    def test_plus_one_increment_shifts_by_one(self):
        s = Scan(np.linspace(0.5, 9.5, CFG.beam_count), 0.0, 0)
        out = calibrate(s, CFG.angle_increment, CFG)
        assert np.array_equal(out.ranges[:-1], s.ranges[1:])
        assert out.ranges[-1] == 10.0  # filled-in beam reads max range

    def test_inverse_shift_recovers_untouched_beams(self):
        s = Scan(np.linspace(0.5, 9.5, CFG.beam_count), 0.0, 0)
        dtheta = CFG.angle_increment
        down = calibrate(s, -2 * dtheta, CFG)
        back = calibrate(down, 0.0, CFG)
        b = CFG.beam_count
        assert np.array_equal(back.ranges[2 : b - 2], s.ranges[2 : b - 2])

    def test_shift_rounding(self):
        assert calibration_shift(0.0, 2.4 * CFG.angle_increment, CFG) == 2
        assert calibration_shift(0.0, -2.6 * CFG.angle_increment, CFG) == -3

    def test_pure_permutation_plus_fill(self):
        values = np.linspace(0.5, 9.5, CFG.beam_count)
        s = Scan(values, 0.0, 0)
        out = calibrate(s, 5 * CFG.angle_increment, CFG)
        kept = out.ranges[: CFG.beam_count - 5]
        assert np.array_equal(np.sort(kept), np.sort(values[5:]))
        assert np.all(out.ranges[CFG.beam_count - 5 :] == 10.0)


class TestMotionFeature:
    def test_requires_full_history(self):
        s = Scan(np.full(CFG.beam_count, 10.0), 0.0, 0)
        with pytest.raises(ValueError):
            build_motion_feature([s] * 39, 0.0, 1.0, 0.0, CFG)

    def test_last_row_is_current_scan(self, rng):
        shapes = [random_shape(rng, span=3.0) for _ in range(3)]
        history = [scan_at(shapes, 0, 0, 0.0, t=i) for i in range(HISTORY_LEN)]
        mf = build_motion_feature(history, 0.0, 2.0, 0.1, CFG)
        assert np.array_equal(mf.matrix[-1], history[-1].ranges)
        assert np.array_equal(mf.current_scan_ranges, history[-1].ranges)

    def test_rotation_only_rows_equal_on_valid_beams(self, rng):
        """A rotating robot in a static world leaves only fill-in beams.

        Equality holds up to float rounding of the per-capture beam
        angles (observed ~1e-14 m), hence the nanometre tolerance.
        """
        shapes = [random_shape(rng, span=3.0) for _ in range(4)]
        dtheta = CFG.angle_increment
        headings = np.cumsum(rng.integers(-4, 5, HISTORY_LEN)) * dtheta
        history = [scan_at(shapes, 0, 0, float(h), t=i) for i, h in enumerate(headings)]
        current = float(headings[-1])
        mf = build_motion_feature(history, current, 1.0, 0.0, CFG)
        for i, h in enumerate(headings):
            shift = calibration_shift(float(h), current, CFG)
            lo, hi = max(0, -shift), CFG.beam_count - max(0, shift)
            np.testing.assert_allclose(
                mf.matrix[i, lo:hi], mf.matrix[-1, lo:hi], rtol=0.0, atol=1e-9
            )

    def test_translation_changes_rows(self, rng):
        shapes = [Circle(Vec2(3, 0.5), 0.5)]
        history = [scan_at(shapes, 0.05 * i, 0, 0.0, t=i) for i in range(HISTORY_LEN)]
        mf = build_motion_feature(history, 0.0, 1.0, 0.0, CFG)
        assert not np.array_equal(mf.matrix[0], mf.matrix[-1])

    def test_moving_pedestrian_stripe_matches_rerender(self, rng):
        """Re-render each historical frame from scratch and compare."""
        ped_xs = np.linspace(-1.0, 1.0, HISTORY_LEN)
        history = [
            scan_at([Circle(Vec2(2.0, float(px)), 0.3)], 0, 0, 0.0, t=i)
            for i, px in enumerate(ped_xs)
        ]
        mf = build_motion_feature(history, 0.0, 1.0, 0.0, CFG)
        for i, px in enumerate(ped_xs):
            again = scan_at([Circle(Vec2(2.0, float(px)), 0.3)], 0, 0, 0.0)
            assert np.array_equal(mf.matrix[i], again.ranges)
        # the stripe moves: rows are not all identical
        assert not np.array_equal(mf.matrix[0], mf.matrix[-1])

    def test_deterministic(self, rng):
        shapes = [random_shape(rng, span=3.0) for _ in range(3)]
        history = [scan_at(shapes, 0, 0, 0.1 * i, t=i) for i in range(HISTORY_LEN)]
        a = build_motion_feature(history, 1.0, 2.0, 0.3, CFG)
        b = build_motion_feature(history, 1.0, 2.0, 0.3, CFG)
        assert np.array_equal(a.matrix, b.matrix)
        assert a.goal_vector == b.goal_vector

    @pytest.mark.parametrize("beams", [2, 181, 1080])
    def test_equals_calibrated_stack(self, rng, beams):
        """Bit for bit the stack of calibrate() rows, over headings spread
        around the circle, so that shifts reach about +-2(B - 1)/3."""
        cfg = LidarConfig(beam_count=beams)
        for _ in range(5):
            headings = rng.uniform(-math.pi, math.pi, HISTORY_LEN)
            history = [
                Scan(rng.uniform(0.1, 10.0, beams), float(h), i) for i, h in enumerate(headings)
            ]
            current = float(rng.uniform(-4.0, 4.0))
            mf = build_motion_feature(history, current, 1.0, 0.0, cfg)
            want = reference_motion_matrix(history, current, cfg)
            assert mf.matrix.tobytes() == want.tobytes()

    def test_shifts_past_the_sweep_fill_range_max(self, rng):
        """Sweeps shorter than the configured fan see shifts of at least
        B and at most -B; those rows read RANGE_MAX everywhere."""
        b = 4
        dtheta = CFG.angle_increment
        shifts = np.arange(HISTORY_LEN) - HISTORY_LEN // 2  # -20 .. 19
        history = [
            Scan(rng.uniform(0.1, 10.0, b), float(-k * dtheta), i) for i, k in enumerate(shifts)
        ]
        assert [calibration_shift(s.heading_at_capture, 0.0, CFG) for s in history] == list(shifts)
        mf = build_motion_feature(history, 0.0, 1.0, 0.0, CFG)
        assert mf.matrix.tobytes() == reference_motion_matrix(history, 0.0, CFG).tobytes()
        outside = np.abs(shifts) >= b
        assert outside.sum() > 30 and shifts.min() <= -b and shifts.max() >= b
        assert np.all(mf.matrix[outside] == RANGE_MAX)

    def test_goal_bearing_wrapped(self):
        s = Scan(np.full(CFG.beam_count, 10.0), 0.0, 0)
        mf = build_motion_feature([s] * HISTORY_LEN, 0.0, 1.0, 4.0, CFG)
        assert -math.pi <= mf.goal_vector[1] <= math.pi


def test_scan_rejects_out_of_range():
    with pytest.raises(ValueError):
        Scan(np.array([0.05, 5.0]), 0.0, 0)
    with pytest.raises(ValueError):
        Scan(np.array([5.0, 10.5]), 0.0, 0)

import math
from collections import deque

import numpy as np
import pytest

from socnavsim.lidar import (
    HISTORY_LEN,
    RANGE_MAX,
    RANGE_MIN,
    LidarConfig,
    Scan,
    build_motion_feature,
    cast_sweep,
    draw_noise,
    normalize,
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
    gathered,
    reference_motion_matrix,
    scanned,
    stacks_array,
    to_map,
)

CFG = LidarConfig(beam_count=181)


def scan_at(shapes, x, y, heading, cfg=CFG, seed=0):
    """The (heading at capture, ranges) scan from pose (x, y, heading)."""
    sweep = cast_sweep(to_map(shapes).scene(), (x, y), heading, cfg)
    return heading, simulate_scan(sweep, draw_noise(cfg, np.random.default_rng(seed)))


def feature(history, current_heading, cfg=CFG, goal_distance=1.0, goal_bearing=0.0):
    """The feature of a history of (heading, ranges) pairs."""
    return build_motion_feature(scanned(history), current_heading, goal_distance, goal_bearing, 1.0, cfg)


class TestSimulateScan:
    def test_empty_world_all_max(self):
        """Open space reads the sensor bound RANGE_MAX in the sweep, its
        scan and the motion-feature beams shifted in from outside the fan,
        and 1.0 once featurized."""
        sweep = cast_sweep(to_map([]).scene(), (0.0, 0.0), 0.0, CFG)
        assert np.all(sweep == RANGE_MAX)
        s = simulate_scan(sweep, draw_noise(CFG, np.random.default_rng(0)))
        assert np.all(s == RANGE_MAX)
        near = (-3 * CFG.angle_increment, np.full(CFG.beam_count, 1.0))
        feat = gathered(feature([near] * HISTORY_LEN, 0.0))
        assert np.all(feat[:, :-3] == np.float32(1.0 / RANGE_MAX)) and np.all(feat[:, -3:] == 1.0)
        stacks, _ = featurize(feature([(0.0, s)] * HISTORY_LEN, 0.0))
        assert stacks.sweeps.dtype == np.float32 and np.all(stacks.sweeps == 1.0) and stacks.fill == 1.0

    def test_noisy_scan_needs_its_generator(self):
        """A tick's noise cannot be drawn without a generator; a noisy
        config draws it from the one it is given, exactly one normal per
        beam, and the scan adds it before the clamp; a noiseless config
        draws nothing."""
        cfg = LidarConfig(beam_count=64, noise_sigma=0.05)
        sweep = cast_sweep(to_map([Circle(Vec2(2.0, 0.5), 0.4)]).scene(), (0.0, 0.0), 0.1, cfg)
        with pytest.raises(TypeError):
            draw_noise(cfg)
        rng, ref = np.random.default_rng(4), np.random.default_rng(4)
        got = simulate_scan(sweep, draw_noise(cfg, rng))
        noise = ref.normal(0.0, 0.05, sweep.shape)
        assert got.tobytes() == np.clip(sweep + noise, RANGE_MIN, RANGE_MAX).tobytes()
        assert rng.random() == ref.random()  # the tick consumed exactly its noise
        quiet = np.random.default_rng(4)
        assert draw_noise(LidarConfig(beam_count=64), quiet) is None
        assert quiet.random() == np.random.default_rng(4).random()

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
        want = simulate_scan(sweep, draw_noise(cfg, np.random.default_rng(2))).tobytes()
        a = simulate_scan(sweep, draw_noise(cfg, np.random.default_rng(2)))
        assert a.flags.writeable and not np.shares_memory(a, sweep)
        a[:] = 0.5
        assert sweep.tobytes() == kept.tobytes()
        assert simulate_scan(sweep, draw_noise(cfg, np.random.default_rng(2))).tobytes() == want


class TestScan:
    def test_read_once_then_kept(self):
        """A scan makes its ranges at the first read and never again:
        reading it twice returns the one read-only array, and its
        normalized row, normalize of those ranges, is made and kept the
        same way."""
        made = []

        def read(value):
            made.append(value)
            return np.full(CFG.beam_count, value)

        scan = Scan(read, 2.5)
        assert made == []
        first = scan.ranges
        assert scan.ranges is first and made == [2.5]
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 1.0
        row = scan.normalized
        assert scan.normalized is row and not row.flags.writeable
        assert row.dtype == np.float32 and row.tobytes() == normalize(first).tobytes()
        assert made == [2.5]

    def test_feature_reads_nothing_until_asked(self):
        """Building a feature reads no scan; current_scan_ranges reads only
        the newest, and rows reads each distinct scan once."""
        made = []

        def read(i):
            made.append(i)
            return np.full(CFG.beam_count, 1.0 + i)

        reset = Scan(read, 0)
        history = [(0.0, reset)] * 36 + [(0.0, Scan(read, i)) for i in range(1, 5)]
        mf = build_motion_feature(history, 0.0, 1.0, 0.0, 1.0, CFG)
        assert made == []
        assert mf.current_scan_ranges[0] == 5.0 and made == [4]
        assert [row[0] for row in mf.rows] == [1.0] * 36 + [2.0, 3.0, 4.0, 5.0]
        assert made == [4, 0, 1, 2, 3]


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
        assert np.array_equal(gathered(mf)[-1], normalize(history[-1][1]))
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
        feat = gathered(feature(history, current))
        for i, h in enumerate(headings):
            shift = calibration_shift(float(h), current, CFG)
            lo, hi = max(0, -shift), CFG.beam_count - max(0, shift)
            np.testing.assert_allclose(
                feat[i, lo:hi], feat[-1, lo:hi], rtol=0.0, atol=1e-9
            )

    def test_translation_changes_rows(self, rng):
        shapes = [Circle(Vec2(3, 0.5), 0.5)]
        history = [scan_at(shapes, 0.05 * i, 0, 0.0) for i in range(HISTORY_LEN)]
        feat = gathered(feature(history, 0.0))
        assert not np.array_equal(feat[0], feat[-1])

    def test_moving_pedestrian_stripe_matches_rerender(self, rng):
        """Re-render each historical frame from scratch and compare."""
        ped_xs = np.linspace(-1.0, 1.0, HISTORY_LEN)
        history = [scan_at([Circle(Vec2(2.0, float(px)), 0.3)], 0, 0, 0.0) for px in ped_xs]
        feat = gathered(feature(history, 0.0))
        for i, px in enumerate(ped_xs):
            _, again = scan_at([Circle(Vec2(2.0, float(px)), 0.3)], 0, 0, 0.0)
            assert np.array_equal(feat[i], normalize(again))
        # the stripe moves: rows are not all identical
        assert not np.array_equal(feat[0], feat[-1])

    def test_deterministic(self, rng):
        shapes = [random_shape(rng, span=3.0) for _ in range(3)]
        history = [scan_at(shapes, 0, 0, 0.1 * i) for i in range(HISTORY_LEN)]
        a = feature(history, 1.0, goal_distance=2.0, goal_bearing=0.3)
        b = feature(history, 1.0, goal_distance=2.0, goal_bearing=0.3)
        assert np.array_equal(gathered(a), gathered(b))
        assert a.goal_vector == b.goal_vector

    @pytest.mark.parametrize("beams", [2, 181, 1080])
    def test_equals_calibrated_stack(self, rng, beams):
        """The gathered stack is bit for bit the normalized stack of
        calibrate() rows, over headings spread around the circle, so that
        shifts reach about +-2(B - 1)/3."""
        cfg = LidarConfig(beam_count=beams)
        for _ in range(5):
            headings = rng.uniform(-math.pi, math.pi, HISTORY_LEN)
            history = [(float(h), rng.uniform(0.1, 10.0, beams)) for h in headings]
            current = float(rng.uniform(-4.0, 4.0))
            mf = feature(history, current, cfg)
            want = reference_motion_matrix(history, current, cfg)
            assert gathered(mf).tobytes() == normalize(want).tobytes()

    def test_shifts_past_the_sweep_fill_range_max(self, rng):
        """Sweeps shorter than the configured fan see shifts of at least
        B and at most -B; those rows read RANGE_MAX (1.0 normalized)
        everywhere."""
        b = 4
        dtheta = CFG.angle_increment
        shifts = np.arange(HISTORY_LEN) - HISTORY_LEN // 2  # -20 .. 19
        history = [(float(-k * dtheta), rng.uniform(0.1, 10.0, b)) for k in shifts]
        assert [calibration_shift(heading, 0.0, CFG) for heading, _ in history] == list(shifts)
        feat = gathered(feature(history, 0.0))
        assert feat.tobytes() == normalize(reference_motion_matrix(history, 0.0, CFG)).tobytes()
        outside = np.abs(shifts) >= b
        assert outside.sum() > 30 and shifts.min() <= -b and shifts.max() >= b
        assert np.all(feat[outside] == 1.0)

    def test_goal_bearing_wrapped(self):
        s = (0.0, np.full(CFG.beam_count, 10.0))
        mf = feature([s] * HISTORY_LEN, 0.0, goal_bearing=4.0)
        assert -math.pi <= mf.goal_vector[1] <= math.pi

    def test_reads_history_deque_and_carries_initial_goal_distance(self, rng):
        """The history may be the env's deque of (heading, ranges) pairs,
        read in place; the feature carries the initial goal distance as given."""
        pairs = [(0.1 * i, rng.uniform(0.1, 10.0, CFG.beam_count)) for i in range(HISTORY_LEN)]
        history = deque(scanned(pairs), maxlen=HISTORY_LEN)
        mf = build_motion_feature(history, 0.5, 2.0, 0.3, 6.5, CFG)
        assert mf.scans == tuple(scan for _, scan in history)
        assert gathered(mf).tobytes() == gathered(feature(pairs, 0.5)).tobytes()
        assert mf.goal_vector[0] == 2.0 and mf.initial_goal_distance == 6.5


class TestFeatureByReference:
    """build_motion_feature keeps the history's sweeps and computes only
    shifts; the stack the networks gather from them equals the eager one."""

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
        mf = build_motion_feature(scanned(history), current, 2.0, 0.1, 3.0, cfg)
        assert min(mf.shifts) <= -b and max(mf.shifts) >= b and mf.shifts[0] != 0
        assert all(row is ranges for row, (_, ranges) in zip(mf.rows, history))
        want = normalize(eager_motion_matrix(history, current, cfg))
        assert gathered(mf).tobytes() == want.tobytes()
        assert stacks_array(featurize(mf)[0])[0].tobytes() == want.tobytes()

    def test_current_scan_ranges_is_the_last_row(self, rng):
        """Over a seeded episode that turns, current_scan_ranges is the
        newest sweep itself, unshifted, and the gathered stack's last row."""
        from socnavsim.world import EnvConfig, NavEnv

        env = NavEnv(EnvConfig(beam_count=90, max_steps=40))
        obs = env.reset(map_seed=4, crowd_seed=5)
        steps = 0
        while True:
            assert obs.shifts[-1] == 0 and obs.current_scan_ranges is obs.rows[-1]
            assert obs.current_scan_ranges is env.scan_history[-1][1].ranges
            assert np.array_equal(normalize(obs.current_scan_ranges), gathered(obs)[-1])
            out = env.step(rng.uniform(-1.5, 1.5, 2))
            obs, steps = out.observation, steps + 1
            if out.done.value != "running":
                break
        assert steps > 5 and any(s != 0 for s in obs.shifts)

    def test_current_scan_ranges_needs_an_unshifted_newest_sweep(self, rng):
        """A feature whose newest sweep is shifted has no current sweep to
        give: current_scan_ranges raises instead of shifting one."""
        history = [(0.1 * i, rng.uniform(0.1, 10.0, CFG.beam_count)) for i in range(HISTORY_LEN)]
        mf = feature(history, 0.1 * HISTORY_LEN)
        assert mf.shifts[-1] != 0
        with pytest.raises(ValueError, match="newest sweep has shift"):
            mf.current_scan_ranges

    def test_greedy_policy_builds_no_matrix(self, monkeypatch):
        """A greedy episode reads only the newest sweep: it never gathers
        a shifted stack (Stacks.copy_to)."""
        from socnavsim import networks
        from socnavsim.baselines import GreedyPolicy
        from socnavsim.evaluation import episode_steps
        from socnavsim.world import EnvConfig

        def gather(stacks, out):
            raise AssertionError("a greedy episode gathered a stack")

        monkeypatch.setattr(networks.Stacks, "copy_to", gather)
        cfg = EnvConfig(beam_count=90, max_steps=30, obstacle_count_range=(0, 0))
        seen = [out.observation for out in episode_steps(GreedyPolicy(cfg.lidar()), cfg, 1, 2)]
        assert len(seen) == 30

    def test_greedy_episode_casts_once_per_act(self, monkeypatch):
        """A greedy episode casts only the sweeps of the scans it reads:
        one per act, none for the episode's final observation."""
        from socnavsim import lidar
        from socnavsim.baselines import GreedyPolicy
        from socnavsim.evaluation import episode_steps
        from socnavsim.world import EnvConfig

        casts, cast_fan = [], lidar.cast_fan
        monkeypatch.setattr(lidar, "cast_fan", lambda *args: casts.append(args) or cast_fan(*args))
        cfg = EnvConfig(beam_count=90, max_steps=30, obstacle_count_range=(1, 3), noise_sigma=0.02)
        steps = list(episode_steps(GreedyPolicy(cfg.lidar()), cfg, 1, 2))
        assert len(steps) > 5 and len(casts) == len(steps)

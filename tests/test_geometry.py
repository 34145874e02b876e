import math

import numpy as np
import pytest

from socnavsim.geometry import StaticMap, cast_fan, wrap_angle
from socnavsim.lidar import RANGE_MAX, LidarConfig, cast_sweep
from socnavsim.world import arena_walls

from conftest import (
    Circle,
    OrientedRect,
    Segment,
    Vec2,
    cast_fan_of,
    cast_one,
    closest_distance_of,
    marching_ray,
    overlaps,
    random_rect,
    random_shape,
    rect_contains,
    rect_edges,
    point_rect_signed_distance,
    rect_overlap_oracle,
    reference_cast_fan,
    reference_obstacle_discs,
    rotated,
    to_map,
)


class TestConstruction:
    def test_vec2_rejects_nan(self):
        with pytest.raises(ValueError):
            Vec2(float("nan"), 0.0)
        with pytest.raises(ValueError):
            Vec2(0.0, float("inf"))

    def test_circle_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            Circle(Vec2(0, 0), 0.0)
        with pytest.raises(ValueError):
            Circle(Vec2(0, 0), -1.0)

    def test_segment_rejects_degenerate(self):
        """Equal endpoints, or a squared length that rounds to 0, which the
        distance code would divide by."""
        with pytest.raises(ValueError):
            Segment(Vec2(1, 2), Vec2(1, 2))
        with pytest.raises(ValueError):
            Segment(Vec2(0, 0), Vec2(0, 5e-324))
        for wall in ((1.0, 2.0, 1.0, 2.0), (0.0, 0.0, 0.0, 5e-324)):
            with pytest.raises(ValueError, match="degenerate wall"):
                StaticMap(walls=[(-1.0, 0.0, 1.0, 0.0), wall])
        with pytest.raises(ValueError, match="degenerate wall"):
            StaticMap(walls=arena_walls(1e-170))  # (2e-170)**2 rounds to 0

    def test_rect_normalizes_heading(self):
        r = OrientedRect(Vec2(0, 0), 3 * math.pi, 0.5, 1.0)
        assert abs(r.heading - math.pi) < 1e-12 or abs(r.heading + math.pi) < 1e-12

    def test_rect_corners_reconstruct(self):
        r = OrientedRect(Vec2(1, 2), 0.3, half_width=0.5, length=2.0)
        c = r.corners()
        # rear edge midpoint is the anchor
        mid = Vec2((c[0].x + c[3].x) / 2, (c[0].y + c[3].y) / 2)
        assert abs(mid.x - 1) < 1e-12 and abs(mid.y - 2) < 1e-12
        # side length checks
        assert abs((c[1] - c[0]).norm() - 2.0) < 1e-12
        assert abs((c[3] - c[0]).norm() - 1.0) < 1e-12


class TestRayCast:
    def test_axis_aligned_circle(self):
        d = cast_one(Vec2(0, 0), 0.0, [Circle(Vec2(5, 0), 1.0)])
        assert d == pytest.approx(4.0, abs=1e-12)

    def test_miss_returns_range_max(self):
        assert cast_one(Vec2(0, 0), 0.0, []) == 10.0

    def test_oblique_circle_matches_marching_oracle(self):
        shapes = [Circle(Vec2(4, 1), 0.5)]
        angle = 0.3
        d = cast_one(Vec2(0, 0), angle, shapes)
        oracle = marching_ray(Vec2(0, 0), angle, shapes)
        assert d == pytest.approx(oracle, abs=1e-3)

    def test_segment_hit(self):
        seg = Segment(Vec2(3, -1), Vec2(3, 1))
        assert cast_one(Vec2(0, 0), 0.0, [seg]) == pytest.approx(3.0)

    @pytest.mark.parametrize(
        "shape, origin, angle, expected",
        [
            (OrientedRect(Vec2(0, 0), 0.0, 0.0, 0.0), Vec2(-1, 0), 0.0, 1.0),  # a point
            (OrientedRect(Vec2(5, 0), math.pi / 2, 0.0, 0.0), Vec2(5, -1), math.pi / 2, 1.0),  # cos: 6e-17
            (OrientedRect(Vec2(2, 0), 0.0, 0.0, 1.0), Vec2(0, 0), 0.0, 2.0),  # zero width, end on
            (OrientedRect(Vec2(2, 0), 0.0, 0.0, 1.0), Vec2(5, 0), math.pi, 2.0),  # from the far end
            (OrientedRect(Vec2(0, -1), math.pi / 2, 0.0, 2.0), Vec2(0, 0), math.pi / 2, 0.0),  # from on it
            (Segment(Vec2(-1, 0), Vec2(-3, 0)), Vec2(0, 0), math.pi, 1.0),  # a segment end on
            (OrientedRect(Vec2(1, 1), 0.0, 1.0, 2.0), Vec2(0, 0), 0.0, 1.0),  # along a rect's side
        ],
    )
    def test_parallel_contact_counts(self, shape, origin, angle, expected):
        """A beam that runs along a zero-area rectangle, a segment or an edge
        meets it at its nearer end, as the closed-set contact of the module."""
        assert cast_one(origin, angle, [shape]) == pytest.approx(expected, abs=1e-12)

    def test_beam_beside_a_point_misses(self):
        point = OrientedRect(Vec2(0, 0), 0.0, 0.0, 0.0)
        assert cast_one(Vec2(-1, 0), 1e-9, [point]) == 10.0

    def test_rect_equals_min_over_edges(self, rng):
        for _ in range(50):
            rect = random_rect(rng)
            angle = float(rng.uniform(-math.pi, math.pi))
            origin = Vec2(float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5)))
            d = cast_one(origin, angle, [rect])
            d_edges = min([cast_one(origin, angle, [e]) for e in rect_edges(rect)])
            assert d == pytest.approx(d_edges, abs=1e-12)

    def test_monotone_in_shapes(self, rng):
        for _ in range(100):
            shapes = [random_shape(rng) for _ in range(3)]
            origin = Vec2(float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5)))
            angle = float(rng.uniform(-math.pi, math.pi))
            d_all = cast_one(origin, angle, shapes)
            d_some = cast_one(origin, angle, shapes[:2])
            assert d_all <= d_some + 1e-12

    def test_against_marching_oracle_random_scenes(self, rng):
        hits = 0
        for _ in range(150):
            shapes = [random_shape(rng) for _ in range(int(rng.integers(1, 5)))]
            origin = Vec2(float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5)))
            if any(
                closest_distance_of(Circle(origin, 0.05), [s]) <= 0.0 for s in shapes
            ):
                continue  # keep the origin outside every shape
            angle = float(rng.uniform(-math.pi, math.pi))
            d = cast_one(origin, angle, shapes)
            oracle = marching_ray(origin, angle, shapes)
            assert abs(d - oracle) <= 1e-3
            hits += d < 10.0
        assert hits > 20  # the sampling actually exercised hits

    def test_cast_fan_matches_marching_oracle_per_beam(self, rng):
        angles = np.linspace(-math.pi, math.pi, 90, endpoint=False)
        scenes = 0
        while scenes < 4:
            shapes = [random_shape(rng) for _ in range(4)]
            origin = Vec2(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
            if closest_distance_of(Circle(origin, 0.05), shapes) <= 0.0:
                continue  # keep the origin outside every shape
            scenes += 1
            fan = np.minimum(cast_fan_of(origin, angles, shapes), RANGE_MAX)
            assert np.sum(fan < 10.0) > 10  # the fan actually hit something
            for a, d in zip(angles, fan):
                # each beam of the fan is the same cast made on its own
                assert d == pytest.approx(cast_one(origin, float(a), shapes), abs=1e-9)
                assert abs(d - marching_ray(origin, float(a), shapes)) <= 1e-3

    def test_origin_inside_circle_returns_exit(self):
        d = cast_one(Vec2(0, 0), 0.0, [Circle(Vec2(0, 0), 2.0)])
        assert d == pytest.approx(2.0)

    @pytest.mark.parametrize("depth", [1e-4, 5e-3])
    def test_origin_just_inside_circle_returns_exit(self, depth):
        # the entry point lies `depth` behind the origin; the beam reads the exit
        origin = Vec2(2.0 - depth, 0.0)
        circle = Circle(Vec2(0, 0), 2.0)
        assert cast_one(origin, math.pi, [circle]) == pytest.approx(4.0 - depth, abs=1e-9)
        angles = np.array([math.pi - 0.5, math.pi + 0.5])
        for a, d in zip(angles, cast_fan_of(origin, angles, [circle])):
            exit_x, exit_y = origin.x + d * math.cos(a), origin.y + d * math.sin(a)
            assert math.hypot(exit_x, exit_y) == pytest.approx(2.0, abs=1e-9)
            assert d > 1.0

    def test_cast_fan_matches_reference_bitwise(self, rng):
        """The beam windows equal the per-shape loop exactly, degenerate
        rectangles and walls included."""
        for beams in (180, 1080):
            angles = np.linspace(-math.pi, math.pi, beams, endpoint=False) + float(rng.uniform(-1, 1))
            for _ in range(40):
                shapes = [random_shape(rng) for _ in range(int(rng.integers(0, 8)))]
                for _ in range(int(rng.integers(0, 3))):
                    shapes.append(OrientedRect(
                        Vec2(float(rng.uniform(-4, 4)), float(rng.uniform(-4, 4))),
                        float(rng.uniform(-math.pi, math.pi)),
                        half_width=float(rng.choice([0.0, 0.4])),
                        length=float(rng.choice([0.0, 1.5])),
                    ))
                if rng.random() < 0.5:
                    shapes.append(Segment(Vec2(-5, -5), Vec2(5, -5)))
                shapes = [shapes[i] for i in rng.permutation(len(shapes))]
                origin = Vec2(float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5)))
                fan = cast_fan_of(origin, angles, shapes)
                assert np.array_equal(fan, reference_cast_fan(origin, angles, shapes))


    @pytest.mark.parametrize("angles", [
        np.array([0.5, 0.2, -0.1]),  # descending
        np.array([-0.1, 0.4, 0.2, 0.9]),  # unsorted
        np.array([-math.pi, 0.0, math.pi]),  # one full turn
        np.array([0.0, 7.0]),  # more than a turn
    ])
    def test_refuses_bad_fans(self, angles):
        with pytest.raises(ValueError, match="ascending fan narrower than one turn"):
            cast_fan_of(Vec2(0, 0), angles, [Circle(Vec2(3, 0), 1.0)])

    def test_empty_scene_reads_full_range(self):
        fan = LidarConfig(beam_count=180).beam_offsets()
        assert np.all(cast_fan((0.0, 0.0), fan, StaticMap().scene()) == np.inf)
        sweep = cast_sweep(StaticMap().scene(), (0.0, 0.0), 0.3, LidarConfig(beam_count=180))
        assert np.all(sweep == RANGE_MAX)

    def test_one_beam_fan_matches_reference(self, rng):
        for _ in range(50):
            shapes = [random_shape(rng) for _ in range(int(rng.integers(1, 5)))]
            origin = Vec2(float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5)))
            angle = np.array([rng.uniform(-math.pi, math.pi)])
            assert cast_fan_of(origin, angle, shapes).tobytes() == reference_cast_fan(origin, angle, shapes).tobytes()

    @pytest.mark.parametrize("beams", [180, 1080])
    def test_zero_range_is_positive_zero_in_any_row_order(self, beams):
        """From a point on a segment and a zero-size rectangle, beams read a
        range of zero; it is +0.0 whichever row comes first."""
        segment = Segment(Vec2(0, 0), Vec2(6e-17, -1))
        point = OrientedRect(Vec2(0, 0), 0.0, 0.0, 0.0)
        angles = LidarConfig(beam_count=beams).beam_offsets()
        for shapes in ([segment, point], [point, segment], [segment]):
            fan = cast_fan_of(Vec2(0, 0), angles, shapes)
            assert fan.tobytes() == reference_cast_fan(Vec2(0, 0), angles, shapes).tobytes()
            assert np.any(fan == 0.0) and not np.any(np.signbit(fan))

class TestRectsIntersect:
    def test_identical(self):
        r = OrientedRect(Vec2(0, 0), 0.4, 0.5, 1.0)
        assert overlaps(r, r)

    def test_far_apart(self):
        a = OrientedRect(Vec2(-0.5, 0), 0.0, 0.5, 1.0)
        b = OrientedRect(Vec2(9.5, 10), 0.0, 0.5, 1.0)
        assert not overlaps(a, b)

    def test_rotated_overlap_matches_oracle(self):
        a = OrientedRect(Vec2(-0.5, 0), 0.0, 0.5, 1.0)  # unit square at origin
        b = OrientedRect(Vec2(1.2, 0) - Vec2(math.cos(math.pi / 4), math.sin(math.pi / 4)) * 0.5,
                         math.pi / 4, 0.5, 1.0)
        assert overlaps(a, b) == rect_overlap_oracle(a, b)

    def test_shared_edge_counts(self):
        a = OrientedRect(Vec2(0, 0), 0.0, 0.5, 1.0)
        b = OrientedRect(Vec2(1.0, 0), 0.0, 0.5, 1.0)  # rear edge on a's front edge
        assert overlaps(a, b)

    @pytest.mark.parametrize("anchor, degrees, half_width", [
        (Vec2(0.0625, 0.3125), 5, 0.125), (Vec2(0.0, 0.0625), 1, 0.25),
    ])
    def test_point_on_zero_length_rect_counts(self, anchor, degrees, half_width):
        """A point rectangle at the anchor of a zero-length one: the corners
        anchor +- w project a rounding off the anchor, within CONTACT_SLACK."""
        point = OrientedRect(anchor, 0.0, 0.0, 0.0)
        bar = OrientedRect(anchor, math.radians(degrees), half_width, 0.0)
        assert rect_overlap_oracle(point, bar)
        assert overlaps(point, bar) and overlaps(bar, point)

    def test_symmetry_and_oracle_agreement(self, rng):
        for _ in range(200):
            a, b = random_rect(rng), random_rect(rng)
            got = overlaps(a, b)
            assert got == overlaps(b, a)
            assert got == rect_overlap_oracle(a, b)

    def test_rigid_transform_equivariance(self, rng):
        for _ in range(100):
            a, b = random_rect(rng, span=2.0), random_rect(rng, span=2.0)
            before = overlaps(a, b)
            shift = Vec2(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)))
            rot = float(rng.uniform(-math.pi, math.pi))

            def moved(r):
                return OrientedRect(
                    rotated(r.anchor, rot) + shift,
                    wrap_angle(r.heading + rot),
                    r.half_width,
                    r.length,
                )

            assert overlaps(moved(a), moved(b)) == before


class TestClosestDistance:
    def test_circle_circle(self):
        d = closest_distance_of(
            Circle(Vec2(0, 0), 0.3), [Circle(Vec2(2, 0), 0.3)]
        )
        assert d == pytest.approx(1.4, abs=1e-12)

    def test_touching_is_zero(self):
        d = closest_distance_of(Circle(Vec2(0, 0), 0.3), [Circle(Vec2(0.6, 0), 0.3)])
        assert d == pytest.approx(0.0, abs=1e-12)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            closest_distance_of(Circle(Vec2(0, 0), 0.3), [])

    def test_penetration_is_negative(self):
        d = closest_distance_of(Circle(Vec2(0, 0), 0.3), [Circle(Vec2(0.4, 0), 0.3)])
        assert d == pytest.approx(-0.2, abs=1e-12)

    def test_rect_distance_matches_boundary_sampling(self, rng):
        for _ in range(20):
            rect = random_rect(rng)
            robot = Circle(Vec2(float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5))), 0.3)
            d = closest_distance_of(robot, [rect])
            # dense boundary sampling of the rect perimeter
            ts = np.linspace(0.0, 1.0, 4001)
            best = math.inf
            for e in rect_edges(rect):
                xs = e.a.x + (e.b.x - e.a.x) * ts
                ys = e.a.y + (e.b.y - e.a.y) * ts
                best = min(best, float(np.min(np.hypot(xs - robot.center.x, ys - robot.center.y))))
            inside = rect_contains(rect, robot.center)
            expected = (-best if inside else best) - robot.radius
            assert d == pytest.approx(expected, abs=2e-3)

    def test_lipschitz_in_robot_position(self, rng):
        shapes = [random_shape(rng) for _ in range(4)]
        for _ in range(100):
            p = Vec2(float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5)))
            delta = Vec2(float(rng.uniform(-0.2, 0.2)), float(rng.uniform(-0.2, 0.2)))
            d1 = closest_distance_of(Circle(p, 0.3), shapes)
            d2 = closest_distance_of(Circle(p + delta, 0.3), shapes)
            assert abs(d1 - d2) <= delta.norm() + 1e-9

    def test_segment_distance(self):
        seg = Segment(Vec2(2, -1), Vec2(2, 1))
        assert closest_distance_of(Circle(Vec2(0, 0), 0.5), [seg]) == pytest.approx(1.5)


def test_point_rect_signed_distance_sign():
    """The packed rectangle distance and its Vec2 oracle: negative inside."""
    rect = OrientedRect(Vec2(0, 0), 0.0, 0.5, 2.0)
    scene = to_map([rect]).distances()
    for (x, y), want in (((1.0, 0.0), -0.5), ((1.0, 2.0), 1.5), ((-1.0, 0.0), 1.0)):
        assert scene.closest_distance(x, y, 0.0) == pytest.approx(want)
        assert point_rect_signed_distance(Vec2(x, y), rect) == pytest.approx(want)


class TestStaticMap:
    def test_rows_and_placement_order(self):
        shapes = [OrientedRect(Vec2(1, 2), 3 * math.pi, 0.5, 1.0), Circle(Vec2(0, 1), 0.4),
                  Segment(Vec2(-5, -5), Vec2(5, -5)), OrientedRect(Vec2(0, 0), 0.2, 0.0, 0.0)]
        m = to_map(shapes)
        assert m.circles.shape == (1, 3) and m.rects.shape == (2, 5) and m.walls.shape == (1, 4)
        assert m.is_rect.tolist() == [True, False, True]
        assert [kind for kind, _ in m.placements()] == ["rect", "circle", "rect"]
        assert m.placements()[0][1] == [1.0, 2.0, shapes[0].heading, 0.5, 1.0]
        with pytest.raises(ValueError, match="is_rect"):
            StaticMap(circles=[(0.0, 0.0, 1.0)], is_rect=[True])
        with pytest.raises(ValueError, match="is_rect"):
            StaticMap(circles=[(0.0, 0.0, 1.0)])

    def test_scene_counts_a_rectangle_once(self):
        """len(Scene) counts shapes, not rows: a rectangle packs four edge
        rows, zero-length ones kept, and counts once."""
        shapes = [Circle(Vec2(2, 0), 0.3), OrientedRect(Vec2(0, 0), 0.0, 0.0, 0.0),
                  Segment(Vec2(-5, -5), Vec2(5, -5)), OrientedRect(Vec2(0, 3), 1.0, 0.2, 0.5)]
        scene = to_map(shapes).scene()
        assert (len(scene.circles), len(scene.segments), len(scene)) == (1, 9, 4)
        assert len(scene + scene) == 8
        assert scene.segments[-1].tolist() == [-5.0, -5.0, 5.0, -5.0]  # walls after the edges

    def test_scan_radius_squared_by_python_pow(self, rng):
        radii = rng.uniform(0.05, 2.0, 500).tolist()
        scene = to_map([Circle(Vec2(0, 0), r) for r in radii]).scene()
        assert scene.circles[:, 2].tolist() == [r**2 for r in radii]

    def test_bounding_discs_equal_object_discs(self, rng):
        """Over many rectangles, where numpy's hypot and libm's differ in
        the last bit for some: the discs in placement order, their radii
        from math.hypot, degenerate rectangles' floored at 1e-3."""
        shapes = [random_shape(rng) for _ in range(4000)]
        shapes += [OrientedRect(Vec2(1, 2), 0.5, 0.0, 0.0), OrientedRect(Vec2(1, 2), 0.5, 0.0, 1e-3)]
        shapes.append(Segment(Vec2(-5, -5), Vec2(5, -5)))
        discs = to_map(shapes).bounding_discs()
        assert discs.tobytes() == reference_obstacle_discs(shapes).tobytes()
        assert discs[-2:, 2].tolist() == [1e-3, 1e-3]

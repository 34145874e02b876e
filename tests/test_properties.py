"""Property tests for the raycaster, the static distance, the social
zones, the rectangle overlap test, the greedy planner's scan erosion and
the ORCA solver."""

import math

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from socnavsim import geometry
from socnavsim.baselines import _inflate_returns
from socnavsim.crowd import obstacle_discs, orca_lines
from socnavsim.geometry import (
    Circle,
    OrientedRect,
    Segment,
    Vec2,
    beam_arcs,
    pack_distance_scene,
    pack_shapes,
    rect_rows,
    rects_overlap,
    row_terms,
    takes_windows,
)
from socnavsim.lidar import RANGE_MAX, RANGE_MIN, LidarConfig
from socnavsim.rewards import zone_rows

from conftest import (
    Pedestrian,
    cast_fan_of,
    marching_ray,
    orca_solve,
    overlaps,
    pack,
    point_rect_signed_distance,
    rect_overlap_oracle,
    rects_intersect,
    reference_cast_fan,
    reference_closest_distance,
    reference_inflate_returns,
    segment_ok,
    social_zone,
)


def coords(bound):
    return st.floats(-bound, bound, allow_nan=False, allow_infinity=False)


points = st.builds(Vec2, coords(5.0), coords(5.0))
circles = st.builds(Circle, points, st.floats(0.05, 2.0))
rects = st.builds(
    OrientedRect, points, coords(math.pi), st.floats(0.0, 1.0), st.floats(0.0, 2.0)
)
segments = st.tuples(points, points).filter(lambda ab: segment_ok(*ab)).map(lambda ab: Segment(*ab))
beams = st.lists(coords(2.0 * math.pi), min_size=1, max_size=40).map(np.array)


@given(
    origin=st.builds(Vec2, coords(6.0), coords(6.0)),
    angles=beams,
    shapes=st.lists(st.one_of(circles, rects, segments), max_size=8),
)
def test_cast_fan_equals_reference(origin, angles, shapes):
    # besides the drawn beams, aim one at the middle of every edge and circle
    targets = []
    for s in shapes:
        if isinstance(s, Circle):
            targets.append(s.center)
        elif isinstance(s, Segment):
            targets.append((s.a + s.b) * 0.5)
        else:
            cs = s.corners()
            targets.extend((cs[i] + cs[(i + 1) % 4]) * 0.5 for i in range(4))
    aims = [(t - origin).angle() for t in targets]
    angles = np.concatenate([angles, aims])
    fan = cast_fan_of(origin, angles, shapes, 10.0)
    assert np.array_equal(fan, reference_cast_fan(origin, angles, shapes, 10.0))


@st.composite
def placed_shape(draw, origin, heading):
    """A shape at a drawn bearing and distance from origin: around the fan's
    centre, its edges or the rear gap, holding origin, or beyond range."""
    bearing = heading + draw(st.one_of(
        coords(math.pi),
        st.sampled_from([0.0, math.pi, 0.75 * math.pi, -0.75 * math.pi]).flatmap(
            lambda a: st.floats(a - 0.3, a + 0.3)),
    ))
    distance = draw(st.one_of(st.floats(0.0, 0.5), st.floats(0.5, 9.0), st.floats(10.0, 14.0)))
    centre = origin + Vec2.from_angle(bearing, distance)
    kind = draw(st.sampled_from(["circle", "rect", "across", "on line", "on axis"]))
    if kind == "circle":
        return Circle(centre, draw(st.floats(0.05, 2.0)))
    if kind == "rect":
        h, length, half_width = draw(coords(math.pi)), draw(st.floats(0.0, 2.0)), draw(st.floats(0.0, 1.0))
        return OrientedRect(centre - Vec2.from_angle(h, length / 2.0), h, half_width, length)
    u, v = draw(st.floats(-4.0, 4.0)), draw(st.floats(-4.0, 4.0))
    if kind == "across":  # perpendicular to the bearing, straddling it
        a, b = centre + Vec2.from_angle(bearing + math.pi / 2.0, u), centre + Vec2.from_angle(bearing - math.pi / 2.0, v)
    elif kind == "on line":  # along the bearing, through origin up to rounding
        a, b = origin + Vec2.from_angle(bearing, u), origin + Vec2.from_angle(bearing, v)
    else:  # exactly on origin's horizontal or vertical line
        axis = draw(st.sampled_from([Vec2(1.0, 0.0), Vec2(0.0, 1.0)]))
        a, b = origin + axis * u, origin + axis * v
    assume(segment_ok(a, b))
    return Segment(a, b)


@st.composite
def windowed_casts(draw):
    """An ascending fan, heading + LidarConfig offsets, with enough beams for
    cast_fan's beam windows, plus beams aimed at every circle tangent,
    segment endpoint and window edge, and one ulp either side of each edge."""
    origin = draw(st.builds(Vec2, coords(6.0), coords(6.0)))
    heading = draw(st.one_of(coords(math.pi), st.floats(math.pi - 1e-3, math.pi),
                             st.floats(-math.pi, -math.pi + 1e-3)))
    shapes = draw(st.lists(st.one_of(circles, rects, segments, placed_shape(origin, heading)),
                           min_size=1, max_size=6))
    scene = pack_shapes(shapes)
    rows = len(scene.circles) + len(scene.segments)
    beams = -(-geometry.WINDOW_MIN_LANES // rows) + draw(st.integers(0, 300))
    fan = heading + LidarConfig(beam_count=beams).beam_offsets()
    aims = []
    for s in shapes:
        if isinstance(s, Circle):
            d = (s.center - origin).norm()
            half = math.asin(min(1.0, s.radius / d)) if d > 0.0 else math.pi
            aims += [(s.center - origin).angle() + k * half for k in (-1.0, 1.0)]
        else:
            ends = (s.a, s.b) if isinstance(s, Segment) else s.corners()
            aims += [(p - origin).angle() for p in ends if p != origin]
    xy = (origin.x, origin.y)
    first, width = beam_arcs(xy, scene, row_terms(xy, scene))
    slack = geometry.WINDOW_SLACK
    for edge in np.concatenate([first, first + width, first - slack, first + width + slack]):
        aims += [np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)]
    # into the fan's turn; those in the rear gap are dropped
    aims = fan[0] + np.mod(np.array(aims) - fan[0], 2.0 * math.pi)
    return origin, np.sort(np.concatenate([fan, aims[aims <= fan[-1]]])), shapes


@given(case=windowed_casts())
def test_beam_windows_equal_reference(case):
    """cast_fan over the beam windows equals the per-shape loop bit for bit."""
    origin, angles, shapes = case
    assert takes_windows(angles, pack_shapes(shapes))
    fan = cast_fan_of(origin, angles, shapes, 10.0)
    assert fan.tobytes() == reference_cast_fan(origin, angles, shapes, 10.0).tobytes()


def boundary_distance(p, shape):
    if isinstance(shape, Circle):
        return abs((p - shape.center).norm() - shape.radius)
    return abs(point_rect_signed_distance(p, shape))


@given(
    origin=st.builds(Vec2, coords(6.0), coords(6.0)),
    angle=coords(math.pi),
    shapes=st.lists(st.one_of(circles, rects), min_size=1, max_size=4),
)
def test_cast_fan_against_marching_ray_outside_shapes(origin, angle, shapes):
    assume(reference_closest_distance(Circle(origin, 0.05), shapes) > 0.0)
    (d,) = cast_fan_of(origin, np.array([angle]), shapes, 10.0)
    # no sampled point inside a shape comes before the analytic hit ...
    assert d <= marching_ray(origin, angle, shapes, 10.0) + 1e-3
    # ... and the analytic hit lies on a shape boundary (a grazing ray may
    # touch a boundary between two samples)
    if d < 10.0:
        hit = origin + Vec2.from_angle(angle, float(d))
        assert min(boundary_distance(hit, s) for s in shapes) <= 1e-9 * (1.0 + hit.norm())


@st.composite
def disc_near_shapes(draw):
    """A robot disc and shapes around it: drawn anywhere, or with the disc
    centre on a shape, inside a rectangle, on a segment's line or at one of
    its endpoints."""
    shapes = draw(st.lists(st.one_of(circles, rects, segments), min_size=1, max_size=4))
    shape = draw(st.sampled_from(shapes))
    u, v = draw(st.floats(-1.5, 1.5)), draw(st.floats(-1.0, 1.0))
    if isinstance(shape, Circle):
        near = shape.center + Vec2.from_angle(draw(coords(math.pi)), shape.radius * u)
    elif isinstance(shape, Segment):
        near = shape.a + (shape.b - shape.a) * draw(st.sampled_from([0.0, 1.0, u]))
    else:
        fwd, left = shape.axes()
        near = shape.anchor + fwd * (shape.length * (u + 1.0) / 2.0) + left * (shape.half_width * v)
    centre = draw(st.one_of(st.builds(Vec2, coords(6.0), coords(6.0)), st.just(near)))
    return Circle(centre, draw(st.floats(0.05, 0.6))), shapes


@given(case=disc_near_shapes())
def test_distance_scene_equals_vec2_loop(case):
    """DistanceScene, the library's one static-distance path, equals the
    Vec2 loop over the shape objects bit for bit."""
    robot, shapes = case
    p = robot.center
    got = pack_distance_scene(shapes).closest_distance(p.x, p.y, robot.radius)
    assert got.hex() == reference_closest_distance(robot, shapes).hex()


@given(
    position=st.builds(Vec2, coords(6.0), coords(6.0)),
    heading=st.one_of(coords(4.0), st.sampled_from([math.pi, -math.pi, 0.0, -0.0])),
    radius=st.floats(0.05, 0.6),
    speed=st.one_of(st.floats(0.0, 1.5), st.just(0.0)),
)
def test_robot_zone_row_equals_social_zone(position, heading, radius, speed):
    """The robot's zone_rows row, built as rewards.assess builds it, equals
    the OrientedRect social zone packed by rect_rows bit for bit."""
    row = zone_rows(np.array([[position.x, position.y]]), np.array([heading]), radius, speed)
    assert row.tobytes() == rect_rows([social_zone(position, heading, radius, speed)]).tobytes()


# Overlap cases: corners on a 1/16 m grid, so that rectangles do not come
# within the oracle's 1e-12 m containment slack of each other by accident;
# contact is drawn on purpose, with the shared points computed exactly.
sixteenths = st.integers(-24, 24).map(lambda k: k / 16.0)
grid_rects = st.builds(
    OrientedRect,
    st.builds(Vec2, sixteenths, sixteenths),
    st.integers(-180, 180).map(math.radians),
    st.one_of(st.just(0.0), st.integers(0, 16).map(lambda k: k / 16.0)),
    st.integers(0, 32).map(lambda k: k / 16.0),
)


@st.composite
def touching_rects(draw):
    a = draw(grid_rects)
    length = draw(st.integers(0, 32).map(lambda k: k / 16.0))
    if draw(st.booleans()):
        # end to end: b's rear edge is a's front edge, at any heading
        fwd, _ = a.axes()
        return a, OrientedRect(a.anchor + fwd * a.length, a.heading, a.half_width, length)
    # side by side along the x axis, sliding from corner to corner contact
    a = OrientedRect(a.anchor, 0.0, a.half_width, a.length)
    half_width = draw(st.integers(0, 16).map(lambda k: k / 16.0))
    slide = draw(st.integers(-32, 32).map(lambda k: k / 16.0))
    assume(-length <= slide <= a.length)
    side = draw(st.sampled_from([-1.0, 1.0]))
    anchor = a.anchor + Vec2(slide, side * (a.half_width + half_width))
    return a, OrientedRect(anchor, 0.0, half_width, length)


@given(a=grid_rects, b=grid_rects)
def test_rects_intersect_equals_oracle(a, b):
    expected = rect_overlap_oracle(a, b)
    assert overlaps(a, b) == expected
    assert overlaps(b, a) == expected


@given(pair=touching_rects())
def test_touching_rects_intersect(pair):
    a, b = pair
    assert rect_overlap_oracle(a, b)
    assert overlaps(a, b) and overlaps(b, a)


@given(rs=st.lists(st.one_of(rects, grid_rects), min_size=1, max_size=12))
def test_rects_overlap_equals_pairwise_sat(rs):
    """One rects_overlap pass over every ordered pair equals the Vec2
    separating-axis test of each pair on its own, degenerate rects too."""
    rows = rect_rows(rs)
    n = len(rs)
    got = rects_overlap(np.repeat(rows, n, axis=0), np.tile(rows, (n, 1)))
    assert got.tolist() == [rects_intersect(a, b) for a in rs for b in rs]
    # and one rectangle against all of them, the way the social reward calls it
    for i, a in enumerate(rs):
        assert np.array_equal(rects_overlap(rows[i : i + 1], rows), got[i * n : (i + 1) * n])


@given(
    beams=st.sampled_from([2, 3, 180, 1080]),
    radius=st.floats(0.0, 2.0),
    data=st.data(),
)
def test_inflate_returns_equals_reference(beams, radius, data):
    ranges = data.draw(
        arrays(
            np.float64,
            beams,
            elements=st.one_of(
                st.floats(RANGE_MIN, RANGE_MAX), st.just(RANGE_MIN), st.just(RANGE_MAX)
            ),
        )
    )
    offsets = LidarConfig(beam_count=beams).beam_offsets()
    dtheta = float(offsets[1] - offsets[0])
    got = _inflate_returns(ranges, dtheta, radius)
    assert got.tobytes() == reference_inflate_returns(ranges, dtheta, radius).tobytes()


pedestrians = st.builds(
    lambda i, pos, vel, speed, radius, goal: Pedestrian(i, pos, vel, speed, radius, goal),
    st.just(0),
    st.builds(Vec2, coords(2.0), coords(2.0)),
    st.builds(Vec2, coords(1.5), coords(1.5)),
    st.floats(0.3, 1.5),
    st.floats(0.15, 0.4),
    st.builds(Vec2, coords(3.0), coords(3.0)),
)


@given(
    crowd=st.lists(pedestrians, min_size=1, max_size=8),
    discs=st.lists(st.builds(Circle, st.builds(Vec2, coords(2.0), coords(2.0)),
                             st.floats(0.1, 0.8)), max_size=3),
)
def test_orca_speed_within_preferred(crowd, discs):
    crowd = [Pedestrian(i, p.position, p.velocity, p.pref_speed, p.radius, p.goal)
             for i, p in enumerate(crowd)]
    lines, num_fixed = orca_lines(pack(crowd), obstacle_discs(discs), 0.05)
    for p, rows in zip(crowd, lines):
        assert orca_solve(p, rows, num_fixed).norm() <= p.pref_speed + 1e-9


@given(
    distance=st.floats(0.8, 5.0),
    heading=coords(math.pi),
    speed=st.floats(0.2, 1.5),
    pref_speed=st.floats(0.3, 1.5),
    radius=st.floats(0.15, 0.4),
)
def test_orca_head_on_mirror_symmetry(distance, heading, speed, pref_speed, radius):
    """Two pedestrians walking at each other through the origin: the scene
    maps to itself under rotation by pi, so the outputs negate."""
    p = Vec2.from_angle(heading, distance / 2.0)
    v = Vec2.from_angle(heading, speed)
    a = Pedestrian(0, p * -1.0, v, pref_speed, radius, p * 2.0)
    b = Pedestrian(1, p, v * -1.0, pref_speed, radius, p * -2.0)
    lines, num_fixed = orca_lines(pack([a, b]), obstacle_discs([]), 0.05)
    va = orca_solve(a, lines[0], num_fixed)
    vb = orca_solve(b, lines[1], num_fixed)
    assert abs(va.x + vb.x) <= 1e-9 and abs(va.y + vb.y) <= 1e-9

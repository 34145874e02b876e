"""Property tests for the raycaster, the static distance, the social
zones, the rectangle corners and overlap test, the greedy planner's scan
erosion, the ORCA solver, the map sampler, grid fill, corridor check,
obstacle discs and scenario spawns against their object-based oracles,
and the motion feature's stack, as the networks gather it, against the
eager one."""

import math

import numpy as np
from hypothesis import assume, example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from socnavsim import geometry
from socnavsim.baselines import _inflate_returns
from socnavsim.crowd import SCENARIO_KINDS, CrowdConfig, orca_lines, spawn_scenario
from socnavsim.geometry import beam_arcs, rect_corners, rects_overlap, row_terms
from socnavsim.lidar import HISTORY_LEN, RANGE_MAX, RANGE_MIN, LidarConfig, build_motion_feature, normalize
from socnavsim.rewards import zone_row
from socnavsim.world import EnvConfig, _grid_connected, _grid_free, _sample_obstacle, randomize_map

from conftest import (
    Circle,
    OrientedRect,
    Pedestrian,
    Segment,
    Vec2,
    cast_fan_of,
    cast_one,
    column_scene,
    eager_motion_matrix,
    gathered,
    marching_ray,
    orca_solve,
    overlaps,
    pack,
    point_rect_signed_distance,
    rect_overlap_oracle,
    rects_intersect,
    reference_cast_fan,
    reference_closest_distance,
    reference_grid_connected,
    reference_grid_free,
    reference_inflate_returns,
    reference_obstacle_discs,
    reference_randomize_map,
    reference_sample_obstacle,
    reference_spawn_scenario,
    rect_frames,
    scanned,
    segment_ok,
    social_zone,
    to_map,
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
    angles = half_open_fan(np.concatenate([angles, aims]))
    fan = cast_fan_of(origin, angles, shapes)
    assert np.array_equal(fan, reference_cast_fan(origin, angles, shapes))


def half_open_fan(angles):
    """The beams of angles as a fan that cast_fan takes: each turned by whole
    turns, up to rounding, into [-pi, pi), then sorted."""
    turned = np.mod(angles + math.pi, 2.0 * math.pi)
    turned[turned >= 2.0 * math.pi] = 0.0  # np.mod rounds a tiny negative up to a whole turn
    return np.sort(turned) - math.pi


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
    """An ascending fan, heading + LidarConfig offsets, plus beams aimed at
    every circle tangent, segment endpoint and window edge, and one ulp
    either side of each edge."""
    origin = draw(st.builds(Vec2, coords(6.0), coords(6.0)))
    heading = draw(st.one_of(coords(math.pi), st.floats(math.pi - 1e-3, math.pi),
                             st.floats(-math.pi, -math.pi + 1e-3)))
    shapes = draw(st.lists(st.one_of(circles, rects, segments, placed_shape(origin, heading)),
                           min_size=1, max_size=6))
    scene = to_map(shapes).scene()
    fan = heading + LidarConfig(beam_count=draw(st.integers(2, 1200))).beam_offsets()
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
    fan = cast_fan_of(origin, angles, shapes)
    assert fan.tobytes() == reference_cast_fan(origin, angles, shapes).tobytes()


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
    d = cast_one(origin, angle, shapes)
    # no sampled point inside a shape comes before the analytic hit ...
    assert d <= marching_ray(origin, angle, shapes) + 1e-3
    # ... and the analytic hit lies on a shape boundary (a grazing ray may
    # touch a boundary between two samples)
    if d < 10.0:
        hit = origin + Vec2.from_angle(angle, d)
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
    got = to_map(shapes).distances().closest_distance(p.x, p.y, robot.radius)
    assert got.hex() == reference_closest_distance(robot, shapes).hex()


@given(
    position=st.builds(Vec2, coords(6.0), coords(6.0)),
    heading=st.one_of(coords(4.0), st.sampled_from([math.pi, -math.pi, 0.0, -0.0])),
    radius=st.floats(0.05, 0.6),
    speed=st.one_of(st.floats(0.0, 1.5), st.just(0.0)),
)
def test_robot_zone_row_equals_social_zone(position, heading, radius, speed):
    """The robot's zone_row, built as rewards.assess builds it, equals the
    OrientedRect social zone packed by to_map bit for bit."""
    row = np.array([zone_row(position.x, position.y, heading, radius, speed)])
    assert row.tobytes() == to_map([social_zone(position, heading, radius, speed)]).rects.tobytes()


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
    """rects_overlap on every ordered pair of rows equals the Vec2
    separating-axis test of the pair, degenerate rects too."""
    rows = to_map(rs).rects.tolist()
    got = [rects_overlap(a, b) for a in rows for b in rows]
    assert got == [rects_intersect(a, b) for a in rs for b in rs]


signed_zeros = st.sampled_from([0.0, -0.0])


@given(rs=st.lists(st.one_of(
    rects,
    grid_rects,
    st.builds(OrientedRect, st.builds(Vec2, signed_zeros, signed_zeros),
              st.sampled_from([0.0, -0.0, math.pi, -math.pi, math.pi / 2]),
              st.one_of(signed_zeros, st.floats(0.0, 1.0)), st.one_of(signed_zeros, st.floats(0.0, 2.0))),
), min_size=1, max_size=12))
@example(rs=[OrientedRect(Vec2(x, y), h, w, length) for x in (0.0, -0.0) for y in (0.0, -0.0)
             for h in (0.0, -0.0, math.pi, -math.pi) for w, length in ((0.0, 0.0), (0.0, 1.0), (0.5, 0.0))])
def test_rect_corners_equal_column_frames(rs):
    """rect_corners of each row, the one corner rule of Scene.pack and
    rects_overlap, equals the numpy column code of rect_frames byte for
    byte: zero sizes, headings at +-pi and signed-zero anchors."""
    m = to_map(rs).rects
    fx, fy, xs, ys = rect_frames(m)
    got = [rect_corners(row) for row in m.tolist()]
    assert np.array([g[:2] for g in got]).tobytes() == np.column_stack([fx, fy]).tobytes()
    assert np.array([g[2] for g in got]).tobytes() == xs.tobytes()
    assert np.array([g[3] for g in got]).tobytes() == ys.tobytes()


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
    lines, num_fixed = orca_lines(pack(crowd).rows, to_map(discs).bounding_discs(), 0.05)
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
    lines, num_fixed = orca_lines(pack([a, b]).rows, to_map([]).bounding_discs(), 0.05)
    va = orca_solve(a, lines[0], num_fixed)
    vb = orca_solve(b, lines[1], num_fixed)
    assert abs(va.x + vb.x) <= 1e-9 and abs(va.y + vb.y) <= 1e-9


# Map and spawn cases: the row code against the object code it replaced,
# bit for bit, draws from the generator included.
seeds = st.integers(0, 2**32 - 1)
map_configs = st.builds(
    lambda counts, sizes: EnvConfig(beam_count=64, obstacle_count_range=counts, obstacle_size_range=sizes),
    st.sampled_from([(4, 8), (1, 12)]),
    st.sampled_from([(0.3, 1.2), (0.8, 2.0)]),
)


def same_rows(static_map, shapes) -> bool:
    want = to_map(shapes)
    return all(getattr(static_map, f).tobytes() == getattr(want, f).tobytes()
               for f in ("circles", "rects", "walls", "is_rect"))


@given(seed=seeds, config=map_configs)
def test_sampled_obstacles_equal_object_sampler(seed, config):
    """Each obstacle's rows: a rectangle's anchor from the sampled heading,
    its row's heading wrapped."""
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    circles, rects, is_rect = [], [], []
    for _ in range(40):
        circle, rect = _sample_obstacle(rng_a, config)
        circles += circle
        rects += rect
        is_rect.append(bool(rect))
    shapes = [reference_sample_obstacle(rng_b, config) for _ in range(40)]
    assert same_rows(geometry.StaticMap(circles, rects, is_rect=is_rect), shapes)
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


@given(seed=seeds, config=map_configs)
def test_randomize_map_equals_object_sampler(seed, config):
    """A whole map, circles and rectangles mixed, in placement order."""
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    assert same_rows(randomize_map(rng_a, config), reference_randomize_map(rng_b, config))
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


@given(shapes=st.lists(st.one_of(circles, rects, segments), max_size=12))
def test_grid_fill_equals_object_grid(shapes):
    config = EnvConfig(beam_count=64)
    free, origin = _grid_free(to_map(shapes), config)
    want, want_origin = reference_grid_free(shapes, config)
    assert free.tobytes() == want.tobytes() and origin == want_origin


@given(shapes=st.lists(st.one_of(circles, rects, segments), max_size=12))
def test_bounding_discs_equal_object_discs(shapes):
    """ORCA's obstacle discs in placement order, degenerate rectangles'
    floored at 1e-3, walls left out."""
    assert to_map(shapes).bounding_discs().tobytes() == reference_obstacle_discs(shapes).tobytes()


@given(shapes=st.lists(st.one_of(circles, rects, segments), max_size=12))
@example(shapes=[OrientedRect(Vec2(x, y), h, w, length) for x in (0.0, -0.0) for y in (0.0, -0.0)
                 for h in (0.0, -0.0, math.pi, -math.pi) for w, length in ((0.0, 0.0), (0.0, 1.0), (0.5, 0.0))])
def test_scene_rows_equal_column_packer(shapes):
    """StaticMap.scene, packed in scalar code, against the numpy column
    packer byte for byte: zero-size rectangles, headings at +-pi and signed
    zeros among the drawn shapes."""
    m = to_map(shapes)
    got, want = m.scene(), column_scene(m.circles, m.rects, m.walls)
    assert got.circles.shape == want.circles.shape and got.segments.shape == want.segments.shape
    assert got.circles.tobytes() == want.circles.tobytes()
    assert got.segments.tobytes() == want.segments.tobytes()
    assert len(got) == len(want) == len(shapes)


@given(
    kind=st.sampled_from(SCENARIO_KINDS),
    count=st.integers(0, 20),
    seed=seeds,
    start=st.builds(Vec2, coords(4.0), coords(4.0)),
    goal=st.builds(Vec2, coords(4.0), coords(4.0)),
    side=st.floats(1.0, 8.0),
)
def test_spawn_scenario_equals_object_spawn(kind, count, seed, start, goal, side):
    assume(start != goal)
    config = CrowdConfig(count=count, area=(side, side))
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    got = spawn_scenario(kind, count, config, rng_a, (start.x, start.y), (goal.x, goal.y))
    want = reference_spawn_scenario(kind, count, config, rng_b, start, goal)
    assert repr(got.rows) == repr(want.rows)
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


# headings anywhere on the circle, with extra weight just inside +-pi,
# where wrap() turns a small difference into one of nearly 2 pi
headings = st.one_of(coords(math.pi), st.sampled_from([math.pi, -math.pi]),
                     st.floats(math.pi - 1e-3, math.pi).map(lambda h: h * (1 if h > 3.0 else -1)))


@given(
    beams=st.integers(2, 40),
    config_beams=st.sampled_from([None, 181, 1080]),
    reset_rows=st.integers(1, HISTORY_LEN),
    data=st.data(),
)
def test_lazy_matrix_equals_eager(beams, config_beams, reset_rows, data):
    """The stack the networks read, gathered on demand from the rows
    held by reference (featurize, then Stacks.copy_to at full width),
    equals the normalized eager build bit for bit.  A configured fan
    wider than the sweeps gives shifts of at least B of either sign; the
    first reset_rows rows repeat one reset scan, as NavEnv's history does
    at episode start."""
    cfg = LidarConfig(beam_count=config_beams or beams)
    reset = (data.draw(headings), data.draw(arrays(np.float64, beams, elements=st.floats(RANGE_MIN, RANGE_MAX))))
    rest = [(data.draw(headings), np.full(beams, float(k))) for k in range(HISTORY_LEN - reset_rows)]
    history = [reset] * reset_rows + rest
    current = data.draw(headings)
    mf = build_motion_feature(scanned(history), current, 1.0, 0.0, 1.0, cfg)
    assert all(scan.ranges is ranges for scan, (_, ranges) in zip(mf.scans, history))
    assert gathered(mf).tobytes() == normalize(eager_motion_matrix(history, current, cfg)).tobytes()


@given(
    free=st.tuples(st.integers(1, 16), st.integers(1, 16)).flatmap(
        lambda shape: arrays(bool, shape, elements=st.booleans())),
    data=st.data(),
)
def test_grid_connected_equals_bfs(free, data):
    """The run-sweep corridor check answers as a breadth-first search of
    4-neighbour free cells, on any grid and pair of cells."""
    n, m = free.shape
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, m - 1))
    start, goal = data.draw(cell), data.draw(cell)
    assert _grid_connected(free, start, goal) == reference_grid_connected(free, start, goal)

"""Property tests for the raycaster and the ORCA solver."""

import math

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from socnavsim.crowd import Pedestrian, orca_lines, orca_velocity
from socnavsim.geometry import (
    Circle,
    OrientedRect,
    Segment,
    Vec2,
    cast_fan,
    closest_distance,
    point_rect_signed_distance,
)

from conftest import marching_ray, reference_cast_fan


def coords(bound):
    return st.floats(-bound, bound, allow_nan=False, allow_infinity=False)


points = st.builds(Vec2, coords(5.0), coords(5.0))
circles = st.builds(Circle, points, st.floats(0.05, 2.0))
rects = st.builds(
    OrientedRect, points, coords(math.pi), st.floats(0.0, 1.0), st.floats(0.0, 2.0)
)
segments = st.tuples(points, points).filter(lambda ab: ab[0] != ab[1]).map(lambda ab: Segment(*ab))
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
    fan = cast_fan(origin, angles, shapes, 10.0)
    assert np.array_equal(fan, reference_cast_fan(origin, angles, shapes, 10.0))


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
    assume(closest_distance(Circle(origin, 0.05), shapes) > 0.0)
    (d,) = cast_fan(origin, np.array([angle]), shapes, 10.0)
    # no sampled point inside a shape comes before the analytic hit ...
    assert d <= marching_ray(origin, angle, shapes, 10.0) + 1e-3
    # ... and the analytic hit lies on a shape boundary (a grazing ray may
    # touch a boundary between two samples)
    if d < 10.0:
        hit = origin + Vec2.from_angle(angle, float(d))
        assert min(boundary_distance(hit, s) for s in shapes) <= 1e-9 * (1.0 + hit.norm())


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
    lines, num_fixed = orca_lines(crowd, discs, 0.05)
    for p, rows in zip(crowd, lines):
        assert orca_velocity(p, rows, num_fixed).norm() <= p.pref_speed + 1e-9


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
    lines, num_fixed = orca_lines([a, b], [], 0.05)
    va = orca_velocity(a, lines[0], num_fixed)
    vb = orca_velocity(b, lines[1], num_fixed)
    assert abs(va.x + vb.x) <= 1e-9 and abs(va.y + vb.y) <= 1e-9

"""Shared fixtures and independent oracles for the test suite.

The code the array paths replaced lives here as exact oracles, over the
validating shape objects (Vec2, Circle, Segment, OrientedRect) and
to_map, the one converter from them to a StaticMap: the Vec2 ORCA
solver, the per-shape raycast loop, the per-pair rects_intersect, the
per-shape distance loop (reference_closest_distance), the OrientedRect
social_zone, the Pedestrian dataclass with its replace-based crowd step,
the numpy column code of rectangle corners (rect_frames) and of the
scanner's rows (column_scene, lidar_scene), and the object-based map
sampler, grid fill, obstacle-disc packer and spawn_scenario
(reference_randomize_map, reference_grid_free, reference_obstacle_discs,
reference_spawn_scenario).
"""

import os

# single-threaded BLAS: faster on small GEMMs and bitwise reproducible
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import contextlib
import math
import pathlib
import subprocess
import sys
import textwrap
from collections import deque
from dataclasses import dataclass, replace

import numpy as np
import pytest
import yaml
from hypothesis import settings

from socnavsim import crowd, evaluation, nn, rewards, world
from socnavsim.crowd import Crowd
from socnavsim.geometry import (
    CONTACT_SLACK, Scene, StaticMap, cast_fan, closest_distance, rects_overlap, wrap_angle,
)
from socnavsim.lidar import HISTORY_LEN, RANGE_MAX, RANGE_MIN, MotionFeature, Scan, cast_sweep
from socnavsim.networks import Stacks, featurize
from socnavsim.nn import BETA1, BETA2, EPS, MaxPoolW
from socnavsim.world import EnvConfig, NavEnv

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")

# property tests draw the same examples on every run and keep no example file;
# HYPOTHESIS_PROFILE=thorough draws ten times as many
settings.register_profile("repeatable", derandomize=True, database=None, deadline=None)
settings.register_profile("thorough", settings.get_profile("repeatable"), max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "repeatable"))


# ---------------------------------------------------------------------------
# Shape objects: validating Vec2 dataclasses that the oracles below read;
# to_map packs them as the library's StaticMap rows.


@dataclass(frozen=True)
class Vec2:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite Vec2 components ({self.x}, {self.y})")

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __mul__(self, s: float) -> "Vec2":
        return Vec2(self.x * s, self.y * s)

    __rmul__ = __mul__

    def dot(self, other: "Vec2") -> float:
        return self.x * other.x + self.y * other.y

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def normalized(self) -> "Vec2":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize zero vector")
        return Vec2(self.x / n, self.y / n)

    def angle(self) -> float:
        return math.atan2(self.y, self.x)

    @staticmethod
    def from_angle(angle: float, length: float = 1.0) -> "Vec2":
        return Vec2(length * math.cos(angle), length * math.sin(angle))


@dataclass(frozen=True)
class Circle:
    center: Vec2
    radius: float

    def __post_init__(self):
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise ValueError(f"circle radius must be strictly positive, got {self.radius}")


@dataclass(frozen=True)
class Segment:
    a: Vec2
    b: Vec2

    def __post_init__(self):
        # distance code divides by the squared length, so it must not round to 0
        ex, ey = self.b.x - self.a.x, self.b.y - self.a.y
        if not ex * ex + ey * ey > 0.0:
            raise ValueError(f"degenerate segment {self.a} -> {self.b}: squared length not positive")


@dataclass(frozen=True)
class OrientedRect:
    """Rectangle anchored at the middle of its rear edge, extending `length`
    along `heading` (wrapped on construction) and +-half_width laterally."""

    anchor: Vec2
    heading: float
    half_width: float
    length: float

    def __post_init__(self):
        if self.half_width < 0.0 or self.length < 0.0:
            raise ValueError("rect extents must be nonnegative")
        object.__setattr__(self, "heading", wrap_angle(self.heading))

    def axes(self) -> tuple[Vec2, Vec2]:
        """Forward and left unit axes."""
        fwd = Vec2.from_angle(self.heading)
        return fwd, Vec2(-fwd.y, fwd.x)

    def corners(self) -> tuple[Vec2, Vec2, Vec2, Vec2]:
        """Counter-clockwise corners starting at the rear-right."""
        fwd, left = self.axes()
        rear = self.anchor
        front = rear + fwd * self.length
        w = left * self.half_width
        return (rear - w, front - w, front + w, rear + w)


Shape = Circle | Segment | OrientedRect


def to_map(shapes) -> StaticMap:
    """The shapes as one StaticMap: circles and rectangles in list order,
    segments as its walls.  The only test of a shape's class outside the
    oracles."""
    circles, rects, walls, is_rect = [], [], [], []
    for s in shapes:
        if isinstance(s, Circle):
            circles.append((s.center.x, s.center.y, s.radius))
            is_rect.append(False)
        elif isinstance(s, OrientedRect):
            rects.append((s.anchor.x, s.anchor.y, s.heading, s.half_width, s.length))
            is_rect.append(True)
        else:
            walls.append((s.a.x, s.a.y, s.b.x, s.b.y))
    return StaticMap(circles, rects, walls, is_rect)


# ---------------------------------------------------------------------------
# Shape sampling


def random_circle(rng, span=4.0):
    return Circle(
        Vec2(float(rng.uniform(-span, span)), float(rng.uniform(-span, span))),
        float(rng.uniform(0.2, 1.2)),
    )


def random_rect(rng, span=4.0):
    return OrientedRect(
        Vec2(float(rng.uniform(-span, span)), float(rng.uniform(-span, span))),
        float(rng.uniform(-math.pi, math.pi)),
        half_width=float(rng.uniform(0.1, 1.0)),
        length=float(rng.uniform(0.2, 2.0)),
    )


def random_shape(rng, span=4.0):
    return random_circle(rng, span) if rng.random() < 0.5 else random_rect(rng, span)


def rotated(v: Vec2, angle: float) -> Vec2:
    """v turned counter-clockwise by angle, for the rigid-motion tests."""
    c, s = math.cos(angle), math.sin(angle)
    return Vec2(c * v.x - s * v.y, s * v.x + c * v.y)


# ---------------------------------------------------------------------------
# Point containment (vectorized), used by the ray-marching oracle


def points_in_shape(xs, ys, shape):
    if isinstance(shape, Circle):
        return (xs - shape.center.x) ** 2 + (ys - shape.center.y) ** 2 <= shape.radius**2
    if isinstance(shape, OrientedRect):
        fwd, left = shape.axes()
        dx = xs - shape.anchor.x
        dy = ys - shape.anchor.y
        lx = dx * fwd.x + dy * fwd.y
        ly = dx * left.x + dy * left.y
        return (lx >= 0.0) & (lx <= shape.length) & (np.abs(ly) <= shape.half_width)
    raise TypeError(f"no containment test for {type(shape).__name__}")


def marching_ray(origin, angle, shapes, reach=RANGE_MAX, step=1e-4):
    """First sample point inside any shape along the ray, reach if none is
    within reach; independent of the analytic intersection code."""
    ts = np.arange(0.0, reach + step, step)
    xs = origin.x + ts * math.cos(angle)
    ys = origin.y + ts * math.sin(angle)
    inside = np.zeros(ts.shape, dtype=bool)
    for shape in shapes:
        inside |= points_in_shape(xs, ys, shape)
    if not inside.any():
        return reach
    return min(float(ts[int(np.argmax(inside))]), reach)


def cast_fan_of(origin: Vec2, angles, shapes):
    """The production raycaster, cast_fan, from a Vec2 origin over a shape
    list: inf where a beam meets no shape."""
    return cast_fan((origin.x, origin.y), angles, to_map(shapes).scene())


def cast_one(origin, angle, shapes):
    """cast_fan_of over a single beam, at most RANGE_MAX as the scanner
    reads it."""
    return min(float(cast_fan_of(origin, np.array([angle]), shapes)[0]), RANGE_MAX)


def rect_edges(rect: OrientedRect) -> list[Segment]:
    """The rectangle's boundary as segments; edges whose squared length is
    not positive, which Segment rejects, are dropped."""
    cs = rect.corners()
    return [Segment(a, b) for a, b in zip(cs, cs[1:] + cs[:1]) if segment_ok(a, b)]


def segment_ok(a: Vec2, b: Vec2) -> bool:
    """Whether Segment(a, b) is valid: its squared length is positive."""
    d = b - a
    return d.x * d.x + d.y * d.y > 0.0


def reference_cast_fan(origin, angles, shapes):
    """cast_fan as one loop over shapes and rectangle edges, every row
    against every beam; the beam windows must match it bit for bit."""
    dx = np.cos(angles)
    dy = np.sin(angles)
    best = np.full(angles.shape, np.inf)
    for shape in shapes:
        if isinstance(shape, Circle):
            fx = origin.x - shape.center.x
            fy = origin.y - shape.center.y
            b = fx * dx + fy * dy
            disc = b * b - (fx * fx + fy * fy - shape.radius**2)
            hit = disc >= 0.0
            sq = np.sqrt(np.where(hit, disc, 0.0))
            t = -b - sq
            t_exit = -b + sq
            t = np.where(t < 0.0, t_exit, t)
            valid = hit & (t >= 0.0)
            np.minimum(best, np.where(valid, t, np.inf), out=best)
            continue
        if isinstance(shape, Segment):
            ends = [(shape.a, shape.b)]
        else:  # all four edges, zero-length ones too
            cs = shape.corners()
            ends = [(cs[i], cs[(i + 1) % 4]) for i in range(4)]
        for a, b in ends:
            ex, ey = b.x - a.x, b.y - a.y
            wx, wy = a.x - origin.x, a.y - origin.y
            denom = dx * ey - dy * ex
            ok = np.abs(denom) >= 1e-15
            denom_safe = np.where(ok, denom, 1.0)
            t = (wx * ey - wy * ex) / denom_safe
            s = (wx * dy - wy * dx) / denom_safe
            valid = ok & (t >= 0.0) & (s >= 0.0) & (s <= 1.0)
            # parallel or zero-length: met only on the beam's line
            near = wx * dx + wy * dy
            far = near + (ex * dx + ey * dy)
            on_line = ~ok & (np.abs(wx * dy - wy * dx) <= CONTACT_SLACK) & (np.maximum(near, far) >= 0.0)
            t = np.where(on_line, np.maximum(np.minimum(near, far), 0.0), np.where(valid, t, np.inf))
            np.minimum(best, t, out=best)
    return best + 0.0  # a zero range reads +0.0, whichever row gave it


# ---------------------------------------------------------------------------
# Distance oracle: one Vec2 computation per shape, the static-distance code
# that geometry.DistanceScene replaced; DistanceScene must match it bit for bit


def point_segment_distance(p: Vec2, seg: Segment) -> float:
    d = seg.b - seg.a
    t = (p - seg.a).dot(d) / d.dot(d)
    t = min(1.0, max(0.0, t))
    closest = seg.a + d * t
    return (p - closest).norm()


def point_rect_signed_distance(p: Vec2, rect: OrientedRect) -> float:
    """Signed distance to the rectangle boundary; negative inside."""
    fwd, left = rect.axes()
    d = p - rect.anchor
    # local frame centered on the rect
    lx = d.dot(fwd) - rect.length / 2.0
    ly = d.dot(left)
    qx = abs(lx) - rect.length / 2.0
    qy = abs(ly) - rect.half_width
    outside = math.hypot(max(qx, 0.0), max(qy, 0.0))
    inside = min(max(qx, qy), 0.0)
    return outside + inside


def closest_distance_of(robot: Circle, shapes) -> float:
    """The production geometry.closest_distance of the robot disc over a shape list."""
    return closest_distance((robot.center.x, robot.center.y, robot.radius), to_map(shapes).distances())


def reference_closest_distance(robot: Circle, shapes) -> float:
    """Smallest surface-to-surface distance from the robot to any shape,
    negative on penetration, as one loop over the shape objects."""
    best = math.inf
    c, r = robot.center, robot.radius
    for shape in shapes:
        if isinstance(shape, Circle):
            d = (c - shape.center).norm() - shape.radius - r
        elif isinstance(shape, Segment):
            d = point_segment_distance(c, shape) - r
        elif isinstance(shape, OrientedRect):
            d = point_rect_signed_distance(c, shape) - r
        else:
            raise TypeError(f"unsupported shape {type(shape).__name__}")
        if d < best:
            best = d
    return best


# ---------------------------------------------------------------------------
# Social zone oracle: one OrientedRect per agent, the zone that
# rewards.zone_row replaced; its to_map row must match zone_row bit for bit


def social_zone(position: Vec2, motion_heading: float, radius: float, speed: float) -> OrientedRect:
    """Forward interaction rectangle of one agent: from its center along
    its motion heading by radius/2 + MIN_HEADWAY + LOOKAHEAD_DT * speed,
    one bounding diameter wide."""
    length = radius / 2.0 + rewards.MIN_HEADWAY + rewards.LOOKAHEAD_DT * speed
    return OrientedRect(position, motion_heading, half_width=radius, length=length)


# ---------------------------------------------------------------------------
# Exact convex-overlap oracle (corner containment + edge crossings),
# independent of the separating-axis projections


def rect_contains(rect: OrientedRect, p: Vec2) -> bool:
    """Closed containment test."""
    fwd, left = rect.axes()
    d = p - rect.anchor
    lx = d.dot(fwd)
    ly = d.dot(left)
    eps = 1e-12
    return -eps <= lx <= rect.length + eps and abs(ly) <= rect.half_width + eps


def _orient(a, b, c) -> float:
    return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)


def _on_segment(p, seg) -> bool:
    return (
        min(seg.a.x, seg.b.x) <= p.x <= max(seg.a.x, seg.b.x)
        and min(seg.a.y, seg.b.y) <= p.y <= max(seg.a.y, seg.b.y)
    )


def segments_intersect(s1, s2) -> bool:
    """Closed segment-segment intersection, collinear touch included."""
    d1 = _orient(s2.a, s2.b, s1.a)
    d2 = _orient(s2.a, s2.b, s1.b)
    d3 = _orient(s1.a, s1.b, s2.a)
    d4 = _orient(s1.a, s1.b, s2.b)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True
    if d1 == 0 and _on_segment(s1.a, s2):
        return True
    if d2 == 0 and _on_segment(s1.b, s2):
        return True
    if d3 == 0 and _on_segment(s2.a, s1):
        return True
    if d4 == 0 and _on_segment(s2.b, s1):
        return True
    return False


def rect_overlap_oracle(a: OrientedRect, b: OrientedRect) -> bool:
    if any(rect_contains(b, c) for c in a.corners()):
        return True
    if any(rect_contains(a, c) for c in b.corners()):
        return True
    return any(segments_intersect(ea, eb) for ea in rect_edges(a) for eb in rect_edges(b))


def rects_share_sampled_point(a, b, rng, samples=100_000) -> bool:
    """Monte-Carlo containment probe over the joint bounding box."""
    corners = a.corners() + b.corners()
    xs = [c.x for c in corners]
    ys = [c.y for c in corners]
    px = rng.uniform(min(xs), max(xs), samples)
    py = rng.uniform(min(ys), max(ys), samples)
    return bool(np.any(points_in_shape(px, py, a) & points_in_shape(px, py, b)))


def _project(corners, axis: Vec2) -> tuple[float, float]:
    dots = [c.dot(axis) for c in corners]
    return min(dots), max(dots)


def rects_intersect(a: OrientedRect, b: OrientedRect) -> bool:
    """Closed-set overlap test via the separating-axis theorem, one pair
    at a time through Vec2 corners; geometry.rects_overlap must match it.

    Only the four face normals need checking for a pair of rectangles;
    boundary contact, to within CONTACT_SLACK, counts as intersecting.
    """
    ca, cb = a.corners(), b.corners()
    for rect in (a, b):
        for axis in rect.axes():
            amin, amax = _project(ca, axis)
            bmin, bmax = _project(cb, axis)
            if amax < bmin - CONTACT_SLACK or bmax < amin - CONTACT_SLACK:
                return False
    return True


def overlaps(a: OrientedRect, b: OrientedRect) -> bool:
    """geometry.rects_overlap on a pair of OrientedRects."""
    return rects_overlap(*to_map([a, b]).rects.tolist())


# ---------------------------------------------------------------------------
# Pedestrian oracle: one frozen Vec2 dataclass per pedestrian, the crowd
# representation that crowd.Crowd replaced


@dataclass(frozen=True)
class Pedestrian:
    id: int
    position: Vec2
    velocity: Vec2
    pref_speed: float
    radius: float  # bounding circle used by avoidance and collision checks
    goal: Vec2
    rect_shape: bool = False  # rendered to lidar as an oriented rectangle
    stopped_steps: int = 0  # >0 while in a stop-and-go pause
    motion_heading: float = 0.0  # last heading of actual motion

    @property
    def walking(self) -> bool:
        return self.stopped_steps == 0

    def body(self) -> Circle:
        return Circle(self.position, self.radius)

    def lidar_shape(self):
        """Shape seen by the scanner; avoidance always uses the circle."""
        if not self.rect_shape:
            return self.body()
        side = self.radius / math.sqrt(2.0)
        fwd = Vec2.from_angle(self.motion_heading)
        anchor = self.position - fwd * side
        return OrientedRect(anchor, self.motion_heading, half_width=side, length=2.0 * side)

    def zone(self) -> OrientedRect:
        """The social zone: rewards.pedestrian_zone must match it bit for bit."""
        speed = self.velocity.norm()
        heading = self.velocity.angle() if speed >= crowd.STILL_SPEED else self.motion_heading
        return social_zone(self.position, heading, self.radius, speed)


def edge_case_peds(rng, n=40):
    """Round and rect pedestrians, walking and stopped, with motion
    headings at +-pi and 0 among random ones; velocities along -x with
    a signed zero y component give atan2 = +-pi.  The first ones stand
    on the x axis, where sin(pi) and sin(-pi) leave different anchors."""

    def point(span):
        return Vec2(*(float(c) for c in rng.uniform(-span, span, 2)))

    headings = [math.pi, -math.pi, 0.0, -0.0, math.pi / 2]
    velocities = [Vec2(-1.0, 0.0), Vec2(-1.0, -0.0), Vec2(0.0, 0.0), Vec2(0.03, -0.02)]
    peds = []
    for i in range(n):
        heading = headings[i] if i < len(headings) else float(rng.uniform(-math.pi, math.pi))
        velocity = velocities[i % 4] if i < 12 else point(1.5)
        position = Vec2(float(i), 0.0) if i < 8 else point(4.0)
        peds.append(
            Pedestrian(
                i, position, velocity, float(rng.uniform(0.5, 1.5)),
                float(rng.uniform(0.15, 0.4)), point(4.0), rect_shape=i % 3 != 2,
                stopped_steps=int(i % 4 == 0), motion_heading=heading,
            )
        )
    return peds


def pack(peds) -> Crowd:
    """A list of Pedestrians as a Crowd: an int id and stop counter, a bool
    rect flag and floats elsewhere, as the library's rows hold them."""
    return Crowd.from_rows(
        [
            (p.id, *map(float, (p.position.x, p.position.y, p.velocity.x, p.velocity.y, p.goal.x, p.goal.y,
                                p.pref_speed, p.radius)),
             p.rect_shape, p.stopped_steps, float(p.motion_heading))
            for p in peds
        ]
    )


def unpack(c: Crowd) -> list:
    """A Crowd as a list of Pedestrians."""
    return [
        Pedestrian(pid, Vec2(x, y), Vec2(vx, vy), speed, radius, Vec2(gx, gy), rect, stopped, h)
        for pid, x, y, vx, vy, gx, gy, speed, radius, rect, stopped, h in c.rows
    ]


def elementwise(fn, *arrays: np.ndarray) -> np.ndarray:
    """fn mapped over equal-length 1-D arrays, one scalar call per element:
    numpy's vectorized transcendentals round differently from libm's."""
    return np.fromiter(map(fn, *(a.tolist() for a in arrays)), float, len(arrays[0]))


def rect_frames(rects: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """geometry.rect_corners as numpy column code: forward axes (fx, fy) and
    (n, 4) corner coordinates (xs, ys) of rectangle rows, counter-clockwise
    from the rear-right; cos and sin come from math."""
    ax, ay, heading, half_width, length = rects.T
    fx, fy = elementwise(math.cos, heading), elementwise(math.sin, heading)
    front_x, front_y = ax + fx * length, ay + fy * length
    wx, wy = -fy * half_width, fx * half_width
    side = np.array([-1.0, -1.0, 1.0, 1.0])  # rear - w, front - w, front + w, rear + w
    xs = np.array([ax, front_x, front_x, ax]).T + wx[:, None] * side
    ys = np.array([ay, front_y, front_y, ay]).T + wy[:, None] * side
    return fx, fy, xs, ys


def column_scene(circles: np.ndarray, rects: np.ndarray, segments: np.ndarray) -> Scene:
    """Scene.pack as numpy column code over (c, 3), (r, 5) and (s, 4) arrays:
    radius**2 by Python's pow, then each rectangle's four edges from
    rect_frames, zero-length ones kept, before the segments."""
    _, _, xs, ys = rect_frames(rects)
    nxt = [1, 2, 3, 0]
    edges = np.stack([xs, ys, xs[:, nxt], ys[:, nxt]], axis=-1).reshape(-1, 4)
    r_sq = [r**2 for r in circles[:, 2].tolist()]
    return Scene(np.column_stack([circles[:, :2], r_sq]), np.concatenate([edges, segments]),
                 len(circles) + len(rects) + len(segments))


def lidar_scene(c: Crowd) -> Scene:
    """Crowd.scene as numpy column code: a round pedestrian's circle or a rect
    one's inscribed square, anchored along the raw motion heading and turned by
    the wrapped one, packed by column_scene."""
    t = np.array(c.rows, dtype=float).reshape(-1, 12)
    position, r, rect = t[:, 1:3], t[:, 8], t[:, 9] == 1.0
    heading, side = t[rect, 11], r[rect] / math.sqrt(2.0)
    fwd = np.column_stack([elementwise(math.cos, heading), elementwise(math.sin, heading)])
    anchor = position[rect] - fwd * side[:, None]
    squares = np.column_stack([anchor, elementwise(wrap_angle, heading), side, 2.0 * side])
    return column_scene(np.column_stack([position[~rect], r[~rect]]), squares, np.empty((0, 4)))


def clearance(robot: Circle, peds, obstacles) -> float:
    """Surface distance from the robot to the nearest Pedestrian body or
    obstacle, inf for none: what NavEnv's collision check keeps."""
    shapes = [p.body() for p in peds] + list(obstacles)
    return reference_closest_distance(robot, shapes)


def ego_reward_of(robot: Circle, peds, obstacles):
    """rewards.ego_reward of the robot among Pedestrians and obstacles;
    returns (reward, violation flag, clearance)."""
    d_t = clearance(robot, peds, obstacles)
    return (*rewards.ego_reward(d_t, robot.radius), d_t)


def social_reward_of(robot_zone: OrientedRect, robot_position: Vec2, peds):
    """rewards.social_reward of the robot zone among Pedestrians."""
    c = pack(peds)
    zone = tuple(to_map([robot_zone]).rects[0].tolist())
    return rewards.social_reward(zone, c.distances(robot_position.x, robot_position.y), c)


def assess_of(robot: Circle, heading, speed, peds, obstacles, p_star, p_0, reached):
    """rewards.assess of the robot among Pedestrians and obstacles, on its
    way from p_0 to p_star."""
    c = pack(peds)
    p = robot.center
    distances = c.distances(p.x, p.y)
    d_t = clearance(robot, peds, obstacles)
    return rewards.assess((p.x, p.y, robot.radius), heading, speed, d_t, distances, c,
                          (p - p_star).norm(), (p_0 - p_star).norm(), reached)


# ---------------------------------------------------------------------------
# ORCA oracle: one Vec2 half-plane per pair and a Vec2 linear program.
# Vec2 rejects every non-finite intermediate value.  `hits`, when given,
# counts the branches taken so that tests can show they reach all of them.


@dataclass(frozen=True)
class _Line:
    point: Vec2
    direction: Vec2


def _det(a: Vec2, b: Vec2) -> float:
    return a.x * b.y - a.y * b.x


def _hit(hits, branch):
    if hits is not None:
        hits[branch] += 1


def _linear_program1(lines, line_no, radius, opt_velocity, direction_opt, hits=None):
    line = lines[line_no]
    dot = line.point.dot(line.direction)
    discriminant = dot * dot + radius * radius - line.point.dot(line.point)
    if discriminant < 0.0:
        _hit(hits, "lp1_misses_circle")
        return None
    sqrt_disc = math.sqrt(discriminant)
    t_left = -dot - sqrt_disc
    t_right = -dot + sqrt_disc

    for i in range(line_no):
        denominator = _det(line.direction, lines[i].direction)
        numerator = _det(lines[i].direction, line.point - lines[i].point)
        if abs(denominator) <= crowd.ORCA_EPSILON:
            _hit(hits, "lp1_parallel")
            if numerator < 0.0:
                _hit(hits, "lp1_parallel_infeasible")
                return None
            continue
        t = numerator / denominator
        if denominator >= 0.0:
            t_right = min(t_right, t)
        else:
            t_left = max(t_left, t)
        if t_left > t_right:
            _hit(hits, "lp1_empty")
            return None

    if direction_opt:
        if opt_velocity.dot(line.direction) > 0.0:
            t = t_right
        else:
            t = t_left
    else:
        t = line.direction.dot(opt_velocity - line.point)
        t = min(t_right, max(t_left, t))
    return line.point + line.direction * t


def _linear_program2(lines, radius, opt_velocity, direction_opt, hits=None):
    if direction_opt:
        result = opt_velocity * radius
    elif opt_velocity.dot(opt_velocity) > radius * radius:
        result = opt_velocity.normalized() * radius
    else:
        result = opt_velocity

    for i, line in enumerate(lines):
        if _det(line.direction, line.point - result) > 0.0:
            new_result = _linear_program1(lines, i, radius, opt_velocity, direction_opt, hits)
            if new_result is None:
                return result, i
            result = new_result
    return result, len(lines)


def _linear_program3(lines, num_fixed, begin_line, radius, result, hits=None):
    _hit(hits, "lp3")
    distance = 0.0
    for i in range(begin_line, len(lines)):
        if _det(lines[i].direction, lines[i].point - result) > distance:
            proj_lines = list(lines[:num_fixed])
            for j in range(num_fixed, i):
                determinant = _det(lines[i].direction, lines[j].direction)
                if abs(determinant) <= crowd.ORCA_EPSILON:
                    if lines[i].direction.dot(lines[j].direction) > 0.0:
                        _hit(hits, "lp3_parallel_same")
                        continue
                    _hit(hits, "lp3_parallel_opposite")
                    point = (lines[i].point + lines[j].point) * 0.5
                else:
                    t = _det(lines[j].direction, lines[i].point - lines[j].point) / determinant
                    point = lines[i].point + lines[i].direction * t
                direction = (lines[j].direction - lines[i].direction).normalized()
                proj_lines.append(_Line(point, direction))

            opt_direction = Vec2(-lines[i].direction.y, lines[i].direction.x)
            new_result, fail = _linear_program2(proj_lines, radius, opt_direction, True, hits)
            if fail >= len(proj_lines):
                result = new_result
            distance = _det(lines[i].direction, lines[i].point - result)
    return result


def _avoidance_line(
    rel_position, rel_velocity, combined_radius, inv_horizon, inv_dt, responsibility, velocity,
    hits=None,
):
    dist_sq = rel_position.dot(rel_position)
    combined_sq = combined_radius * combined_radius

    if dist_sq > combined_sq:
        w = rel_velocity - rel_position * inv_horizon
        w_len_sq = w.dot(w)
        dot1 = w.dot(rel_position)
        if dot1 < 0.0 and dot1 * dot1 > combined_sq * w_len_sq:
            _hit(hits, "cutoff_circle")
            w_len = math.sqrt(w_len_sq)
            unit_w = Vec2(w.x / w_len, w.y / w_len)
            direction = Vec2(unit_w.y, -unit_w.x)
            u = unit_w * (combined_radius * inv_horizon - w_len)
        else:
            leg = math.sqrt(dist_sq - combined_sq)
            if _det(rel_position, w) > 0.0:
                _hit(hits, "left_leg")
                direction = Vec2(
                    rel_position.x * leg - rel_position.y * combined_radius,
                    rel_position.x * combined_radius + rel_position.y * leg,
                ) * (1.0 / dist_sq)
            else:
                _hit(hits, "right_leg")
                direction = Vec2(
                    rel_position.x * leg + rel_position.y * combined_radius,
                    -rel_position.x * combined_radius + rel_position.y * leg,
                ) * (-1.0 / dist_sq)
            dot2 = rel_velocity.dot(direction)
            u = direction * dot2 - rel_velocity
    else:
        w = rel_velocity - rel_position * inv_dt
        w_len = w.norm()
        if w_len > 0.0:
            _hit(hits, "colliding")
            unit_w = Vec2(w.x / w_len, w.y / w_len)
        else:
            _hit(hits, "colliding_w_zero")
            unit_w = Vec2(1.0, 0.0)
        direction = Vec2(unit_w.y, -unit_w.x)
        u = unit_w * (combined_radius * inv_dt - w_len)

    return _Line(velocity + u * responsibility, direction)


def reference_orca_lines(ped, neighbors, obstacles, dt, hits=None):
    """ped's half-planes: obstacle discs first, then neighbors in order."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    lines = []
    inv_dt = 1.0 / dt
    for x, y, radius in reference_obstacle_discs(obstacles).tolist():
        _hit(hits, "obstacle")
        lines.append(
            _avoidance_line(
                Vec2(x, y) - ped.position,
                ped.velocity,
                ped.radius + radius,
                1.0 / crowd.OBSTACLE_TIME_HORIZON,
                inv_dt,
                1.0,
                ped.velocity,
                hits,
            )
        )
    for other in neighbors:
        if other.id == ped.id:
            continue
        lines.append(
            _avoidance_line(
                other.position - ped.position,
                ped.velocity - other.velocity,
                ped.radius + other.radius,
                1.0 / crowd.AGENT_TIME_HORIZON,
                inv_dt,
                0.5,
                ped.velocity,
                hits,
            )
        )
    return lines


def reference_orca_velocity(ped, neighbors, obstacles, dt, hits=None):
    """orca_velocity as per-pair Vec2 code; orca_lines + orca_velocity
    must match it bit for bit."""
    lines = reference_orca_lines(ped, neighbors, obstacles, dt, hits)
    num_fixed = len(reference_obstacle_discs(obstacles))
    return reference_lp(lines, num_fixed, reference_preferred_velocity(ped), ped.pref_speed, hits)


def lines_of(rows) -> list:
    """Rows (point_x, point_y, dir_x, dir_y) as the oracle's _Lines."""
    return [_Line(Vec2(px, py), Vec2(dx, dy)) for px, py, dx, dy in rows]


def reference_lp(lines, num_fixed, pref, speed, hits=None) -> Vec2:
    """The Vec2 LP of one pedestrian: from its preferred velocity pref under
    _Lines whose first num_fixed are obstacles'; LP3 runs when LP2 fails."""
    result, fail = _linear_program2(lines, speed, pref, False, hits)
    if fail < len(lines):
        result = _linear_program3(lines, num_fixed, fail, speed, result, hits)
    return result


def reference_preferred_velocity(ped) -> Vec2:
    """Unit vector to the goal scaled by the preferred speed."""
    to_goal = ped.goal - ped.position
    dist = to_goal.norm()
    if dist < 1e-9:
        return Vec2(0.0, 0.0)
    return to_goal * (ped.pref_speed / dist)


def orca_solve(ped, lines, num_fixed) -> Vec2:
    """crowd.orca_velocity for one Pedestrian and its row of orca_lines."""
    pref = crowd.preferred_velocity(ped.position.x, ped.position.y, ped.goal.x, ped.goal.y,
                                    ped.pref_speed)
    return Vec2(*crowd.orca_velocity(*pref, ped.pref_speed, lines.tolist(), num_fixed))


# ---------------------------------------------------------------------------
# Crowd step oracle: the Pedestrian-list step, one Vec2 ORCA solve per
# walking pedestrian and dataclasses.replace for every update


def _reference_sample_ped(ped_id, position, goal, config, rng) -> Pedestrian:
    speed = float(rng.uniform(*config.speed_range))
    radius = float(rng.uniform(*config.radius_range))
    rect = bool(rng.random() < config.rect_shape_probability)
    heading = (goal - position).angle() if (goal - position).norm() > 1e-9 else 0.0
    velocity = Vec2.from_angle(heading, speed) if (goal - position).norm() > 1e-9 else Vec2(0.0, 0.0)
    return Pedestrian(ped_id, position, velocity, speed, radius, goal, rect, 0, heading)


def reference_step_crowd(peds, config, dt, rng, obstacles=()):
    """crowd.step_crowd on a list of Pedestrians; the Crowd step must
    match it bit for bit, draws from rng included."""
    out = []
    next_id = max((p.id for p in peds), default=-1) + 1
    for ped in peds:
        stopped_steps = ped.stopped_steps
        if stopped_steps > 0:
            stopped_steps -= 1
        elif config.stop_go_probability > 0.0 and rng.random() < config.stop_go_probability:
            stopped_steps = int(rng.geometric(min(1.0, dt / crowd.MEAN_STOP_SECONDS)))
        if stopped_steps > 0:
            out.append(replace(ped, velocity=Vec2(0.0, 0.0), stopped_steps=stopped_steps))
            continue
        velocity = reference_orca_velocity(ped, peds, list(obstacles), dt)
        position = ped.position + velocity * dt
        goal = ped.goal
        if (position - goal).norm() < crowd.GOAL_REACHED_DIST:
            goal = Vec2(*crowd._random_point(config, rng))
        heading = velocity.angle() if velocity.norm() >= crowd.STILL_SPEED else ped.motion_heading
        out.append(replace(ped, position=position, velocity=velocity, goal=goal,
                           stopped_steps=0, motion_heading=heading))
    if config.walk_in_probability > 0.0 and len(out) < config.max_count:
        if rng.random() < config.walk_in_probability:
            pos = Vec2(*crowd._boundary_point(config, rng))
            goal = Vec2(*crowd._random_point(config, rng))
            out.append(_reference_sample_ped(next_id, pos, goal, config, rng))
    return out


# ---------------------------------------------------------------------------
# Calibration oracle: one shifted (heading, ranges) scan per history row


def calibration_shift(prev_heading, current_heading, config) -> int:
    """Index shift that calibrate applies between two headings."""
    return int(round(wrap_angle(current_heading - prev_heading) / config.angle_increment))


def calibrate(prev: tuple, current_heading: float, config) -> tuple:
    """Shift a past (heading at capture, ranges) scan into the current
    heading frame; the result is the pair as if captured at current_heading.

    Beam i of the result takes the value previously at i + shift, where
    shift = round(delta_heading / angle_increment); beams shifted in
    from outside the previous fan read RANGE_MAX.
    """
    heading, ranges = prev
    delta = wrap_angle(current_heading - heading)
    shift = int(round(delta / config.angle_increment))
    b = ranges.size
    out = np.full(b, RANGE_MAX)
    if shift >= 0:
        if shift < b:
            out[: b - shift] = ranges[shift:]
    else:
        if -shift < b:
            out[-shift:] = ranges[: b + shift]
    return current_heading, out


def reference_motion_matrix(history, current_heading, config) -> np.ndarray:
    """The motion feature as a stack of calibrated (heading, ranges)
    scans; lidar.build_motion_feature must match it bit for bit."""
    return np.stack([calibrate(s, current_heading, config)[1] for s in history])


def eager_motion_matrix(history, current_heading, config) -> np.ndarray:
    """The (K, B) matrix of calibrated (heading, ranges) pairs, as
    build_motion_feature once built it eagerly; the stack that
    networks.featurize gathers must equal it, normalized, bit for bit."""
    if len(history) != HISTORY_LEN:
        raise ValueError(f"need exactly {HISTORY_LEN} scans, got {len(history)}")
    b = history[-1][1].size
    inc = config.angle_increment
    matrix = np.full((HISTORY_LEN, b), RANGE_MAX)
    for row, (heading, ranges) in zip(matrix, history):
        shift = int(round(wrap_angle(current_heading - heading) / inc))
        if 0 <= shift < b:
            row[: b - shift] = ranges[shift:]
        elif -b < shift < 0:
            row[-shift:] = ranges[: b + shift]
    return matrix


def scanned(history) -> list:
    """(heading, ranges) pairs as the (heading, Scan) pairs of a scan
    history, one Scan per distinct array, which reads that very array."""
    scans = {}  # id(ranges) -> its Scan; history keeps every array alive
    out = []
    for heading, ranges in history:
        scan = scans.get(id(ranges))
        if scan is None:
            scan = scans[id(ranges)] = Scan(lambda ranges=ranges: ranges)
        out.append((heading, scan))
    return out


def feature_of(matrix, goal_vector, initial_goal_distance) -> MotionFeature:
    """A MotionFeature whose rows are matrix's rows, unshifted."""
    scans = tuple(scan for _, scan in scanned((0.0, row) for row in np.asarray(matrix, dtype=float)))
    return MotionFeature(scans, (0,) * len(scans), goal_vector, initial_goal_distance)


def gathered(obs: MotionFeature) -> np.ndarray:
    """The (K, B) float32 stack the networks read for observation obs:
    featurize's one-sample Stacks, gathered full width by the library's
    Stacks.copy_to."""
    stacks, _ = featurize(obs)
    out = np.empty(stacks.shape, np.float32)
    stacks.copy_to(out)
    return out[0]


def stacks_array(stacks: Stacks) -> np.ndarray:
    """The (N, K, B) array that stacks describe, in the sweeps' dtype,
    one row at a time by the rule of calibrate()."""
    n, k, b = stacks.shape
    out = np.full((n, k, b), stacks.fill, stacks.sweeps.dtype)
    for i in range(n):
        for j in range(k):
            shift = int(stacks.shifts[i, j])
            sweep = stacks.sweeps[stacks.slots[i, j]]
            if 0 <= shift < b:
                out[i, j, : b - shift] = sweep[shift:]
            elif -b < shift < 0:
                out[i, j, -shift:] = sweep[: b + shift]
    return out


# ---------------------------------------------------------------------------
# Scan erosion oracle


def reference_inflate_returns(ranges, delta_theta, radius):
    """baselines._inflate_returns as one loop over the returns; the
    scatter-min must match it bit for bit."""
    safe = ranges.copy()
    n = ranges.size
    for j in np.flatnonzero(ranges < RANGE_MAX - 1e-9):
        half = int(math.atan2(radius, ranges[j]) / delta_theta)
        if half <= 0:
            continue
        lo = max(0, j - half)
        hi = min(n, j + half + 1)
        np.minimum(safe[lo:hi], ranges[j], out=safe[lo:hi])
    return safe


# ---------------------------------------------------------------------------
# Map and spawn oracles: the object-based sampler, grid fill, disc packer
# and scenario spawn that StaticMap rows and float pairs replaced; the row
# code must match them bit for bit, draws from the generator included


def reference_arena_walls(half: float) -> list[Segment]:
    c = [Vec2(-half, -half), Vec2(half, -half), Vec2(half, half), Vec2(-half, half)]
    return [Segment(c[i], c[(i + 1) % 4]) for i in range(4)]


def reference_sample_obstacle(rng, config) -> Shape:
    lo, hi = config.obstacle_size_range
    margin = 0.5
    x = float(rng.uniform(-config.arena_half + margin, config.arena_half - margin))
    y = float(rng.uniform(-config.arena_half + margin, config.arena_half - margin))
    if rng.random() < 0.5:
        return Circle(Vec2(x, y), float(rng.uniform(lo, hi)) / 2.0)
    length = float(rng.uniform(lo, hi))
    half_width = float(rng.uniform(lo, hi)) / 2.0
    heading = float(rng.uniform(-math.pi, math.pi))
    anchor = Vec2(x, y) - Vec2.from_angle(heading) * (length / 2.0)
    return OrientedRect(anchor, heading, half_width=half_width, length=length)


def reference_grid_free(obstacles, config) -> tuple[np.ndarray, float]:
    """world._grid_free as one pass per shape object."""
    half = config.arena_half
    inflate = config.robot_radius
    coords = np.arange(-half + world.GRID_RESOLUTION / 2.0, half, world.GRID_RESOLUTION)
    xs, ys = np.meshgrid(coords, coords, indexing="ij")
    free = (np.abs(xs) < half - inflate) & (np.abs(ys) < half - inflate)
    for shape in obstacles:
        if isinstance(shape, Circle):
            d = np.hypot(xs - shape.center.x, ys - shape.center.y) - shape.radius
        elif isinstance(shape, OrientedRect):
            fwd, left = shape.axes()
            dx = xs - shape.anchor.x
            dy = ys - shape.anchor.y
            lx = dx * fwd.x + dy * fwd.y - shape.length / 2.0
            ly = dx * left.x + dy * left.y
            qx = np.abs(lx) - shape.length / 2.0
            qy = np.abs(ly) - shape.half_width
            d = np.hypot(np.maximum(qx, 0.0), np.maximum(qy, 0.0)) + np.minimum(
                np.maximum(qx, qy), 0.0
            )
        else:
            continue
        free &= d > inflate
    return free, -half + world.GRID_RESOLUTION / 2.0


def rows_grid_free(static_map: StaticMap, config) -> tuple[np.ndarray, float]:
    """world._grid_free as full-grid passes over the StaticMap's distance
    rows, one per shape; the windowed fill must match it bit for bit."""
    half = config.arena_half
    inflate = config.robot_radius
    coords = np.arange(-half + world.GRID_RESOLUTION / 2.0, half, world.GRID_RESOLUTION)
    xs, ys = np.meshgrid(coords, coords, indexing="ij")
    free = (np.abs(xs) < half - inflate) & (np.abs(ys) < half - inflate)
    shapes = static_map.distances()
    for x, y, radius in shapes.circles:
        free &= np.hypot(xs - x, ys - y) - radius > inflate
    for ax, ay, fx, fy, half_width, half_length in shapes.rects:
        dx, dy = xs - ax, ys - ay
        qx = np.abs(dx * fx + dy * fy - half_length) - half_length
        qy = np.abs(dx * -fy + dy * fx) - half_width
        d = np.hypot(np.maximum(qx, 0.0), np.maximum(qy, 0.0)) + np.minimum(np.maximum(qx, qy), 0.0)
        free &= d > inflate
    return free, -half + world.GRID_RESOLUTION / 2.0


def reference_corridor_exists(obstacles, config) -> bool:
    free, origin = reference_grid_free(obstacles, config)

    def cell(p):
        i = int(round((p[0] - origin) / world.GRID_RESOLUTION))
        j = int(round((p[1] - origin) / world.GRID_RESOLUTION))
        n, m = free.shape
        return min(max(i, 0), n - 1), min(max(j, 0), m - 1)

    return reference_grid_connected(free, cell(config.start), cell(config.goal))


def reference_randomize_map(rng, config) -> list:
    """world.randomize_map as a list of shape objects in placement order."""
    lo, hi = config.obstacle_count_range
    start_disc = Circle(Vec2(*config.start), 0.8)
    goal_disc = Circle(Vec2(*config.goal), 0.8)
    for _ in range(world.MAP_ATTEMPTS):
        count = int(rng.integers(lo, hi + 1))
        obstacles = []
        for _ in range(count):
            for _ in range(50):
                shape = reference_sample_obstacle(rng, config)
                if reference_closest_distance(start_disc, [shape]) <= 0.0:
                    continue
                if reference_closest_distance(goal_disc, [shape]) <= 0.0:
                    continue
                obstacles.append(shape)
                break
        if reference_corridor_exists(obstacles, config):
            return obstacles
    raise RuntimeError(f"no connected map found in {world.MAP_ATTEMPTS} attempts")


def reference_static_shapes(config, map_seed) -> list:
    """The static shapes of NavEnv.reset(map_seed): the obstacles, then the walls."""
    rng = np.random.default_rng(np.random.SeedSequence(map_seed))
    obstacles = reference_randomize_map(rng, config) if config.obstacle_count_range[1] > 0 else []
    return obstacles + (reference_arena_walls(config.arena_half) if config.walls else [])


def reference_obstacle_discs(obstacles) -> np.ndarray:
    """Static obstacles as (center x, center y, radius) rows of bounding discs."""
    discs = []
    for shape in obstacles:
        if isinstance(shape, Circle):
            discs.append((shape.center.x, shape.center.y, shape.radius))
        elif isinstance(shape, OrientedRect):
            fwd, _ = shape.axes()
            center = shape.anchor + fwd * (shape.length / 2.0)
            radius = math.hypot(shape.length / 2.0, shape.half_width)
            discs.append((center.x, center.y, max(radius, 1e-3)))
        elif isinstance(shape, Segment):
            continue  # boundary walls: pedestrians are goal-confined instead
        else:
            raise TypeError(f"unsupported shape {type(shape).__name__}")
    return np.array(discs, dtype=float).reshape(-1, 3)


def reference_spawn_scenario(kind, count, config, rng, robot_start: Vec2, robot_goal: Vec2) -> Crowd:
    """crowd.spawn_scenario with Vec2 points and checks."""
    if kind not in crowd.SCENARIO_KINDS:
        raise ValueError(f"unknown scenario kind {kind!r}")
    axis = (robot_goal - robot_start).normalized()
    perp = Vec2(-axis.y, axis.x)
    x0, x1, y0, y1 = crowd._area_bounds(config)
    span = max(x1 - x0, y1 - y0)
    speed_range = config.speed_range
    if kind == "ahead":
        lo, hi = config.speed_range
        speed_range = (lo * 0.6, max(lo * 0.6 + 1e-3, hi * 0.6))

    rows = []
    for i in range(count):
        for _ in range(200):
            pos = Vec2(*crowd._random_point(config, rng))
            if (pos - robot_start).norm() < 1.0:
                continue
            if any((pos - Vec2(row[1], row[2])).norm() < 0.9 for row in rows):
                continue
            break
        if kind == "crossing":
            sign = 1.0 if rng.random() < 0.5 else -1.0
            goal = pos + perp * (sign * span)
        elif kind == "towards":
            goal = robot_start - axis * (0.5 * span) + perp * float(rng.uniform(-1.0, 1.0))
        elif kind == "ahead":
            goal = pos + axis * span
        else:
            goal = Vec2(*crowd._random_point(config, rng))
        rows.append(crowd._sample_ped(i, (pos.x, pos.y), (goal.x, goal.y), speed_range, config, rng))
    return Crowd.from_rows(rows)


# ---------------------------------------------------------------------------
# Grid and scanner oracles


def reference_grid_connected(free, start_ij, goal_ij) -> bool:
    """world._grid_connected as a breadth-first search over 4-neighbour
    free cells."""
    if not (free[start_ij] and free[goal_ij]):
        return False
    n, m = free.shape
    visited = np.zeros_like(free, dtype=bool)
    queue = deque([start_ij])
    visited[start_ij] = True
    while queue:
        i, j = queue.popleft()
        if (i, j) == goal_ij:
            return True
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            ni, nj = i + di, j + dj
            if 0 <= ni < n and 0 <= nj < m and free[ni, nj] and not visited[ni, nj]:
                visited[ni, nj] = True
                queue.append((ni, nj))
    return False


class CastEveryTickEnv(NavEnv):
    """NavEnv whose scanner casts a fresh sweep and reads it, noise and
    all, at every scan tick; the env that casts a sweep once per pose,
    when a scan of it is first read, must step bit for bit like it."""

    def _scan(self) -> tuple:
        cfg = self.lidar_config
        ranges = cast_sweep(self._scene, (self.x, self.y), self.heading, cfg)
        if cfg.noise_sigma > 0.0:
            ranges = ranges + self.noise_rng.normal(0.0, cfg.noise_sigma, ranges.shape)
        return scanned([(self.heading, np.clip(ranges, RANGE_MIN, RANGE_MAX))])[0]


class EveryTickCrowdEnv(NavEnv):
    """NavEnv that steps the crowd at every control tick, also when it is
    empty and can gain no pedestrian; the env that skips those steps must
    step bit for bit like it."""

    def _crowd_moves(self) -> bool:
        return True


# ---------------------------------------------------------------------------
# Gradient oracle


def numeric_gradient(f, x, h=1e-5):
    """Central finite differences of a scalar function of x (perturbed in place)."""
    g = np.zeros_like(x, dtype=float)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return g


# ---------------------------------------------------------------------------
# Convolution oracle


def reference_conv2d(x, W, b, kernel, stride):
    """Valid-padding convolution of a channels-last (N, H, W, C) input by
    explicit float64 loops over the kernel taps.  Row c*kh*kw + i*kw + j
    of W weights channel c at time offset i and beam offset j: the
    (C, kh, kw) row order that Conv2d stores and checkpoints keep."""
    x = np.asarray(x, dtype=np.float64)
    n, h, w, c = x.shape
    kh, kw = kernel
    sh, sw = stride
    oh, ow = (h - kh) // sh + 1, (w - kw) // sw + 1
    y = np.zeros((n, oh, ow, W.shape[1])) + np.asarray(b, dtype=np.float64)
    for ci in range(c):
        for i in range(kh):
            for j in range(kw):
                xs = x[:, i : i + (oh - 1) * sh + 1 : sh, j : j + (ow - 1) * sw + 1 : sw, ci]
                y += xs[..., None] * np.asarray(W[ci * kh * kw + i * kw + j], dtype=np.float64)
    return y


class StandalonePool:
    """nn.MaxPoolW as a plain layer: forward allocates the output and the
    winner offsets that the library's conv_stack passes in, and backward
    returns a copy of the scratch gradient, so two results can be
    compared."""

    def __init__(self, width):
        self.pool = MaxPoolW(width)

    def forward(self, x):
        n, h, w, c = x.shape
        shape = (n, h, self.pool.out_width(w), c)
        return self.pool.forward(x, out=(np.empty(shape, x.dtype), np.empty(shape, np.int8)))

    def backward(self, dy, cache):
        dx, grads = self.pool.backward(dy, cache)
        return dx.copy(), grads

    def params(self):
        return {}


# ---------------------------------------------------------------------------
# conv1 oracle: the whole-batch conv1 and pool, one layer at a time


def whole_batch_conv_pool(convs, pool, x, winners=True):
    """conv1 and the pool of nn.conv_stack as each layer's own pass over
    the whole batch: the float32 batch's width patches, the layer's tap
    GEMMs summed in tap order plus the bias, then a running-max pool.  No
    blocks, no shared GEMMs, no winner offsets:
    whole_batch_conv_pool_backward finds the winners again from the
    cached conv output and pooled output."""
    x = np.asarray(x, dtype=convs[0].W.dtype)
    n, h = x.shape[:2]
    outs = []
    for conv in convs:
        kh, kw = conv.kernel
        sh, sw = conv.stride
        oh, ow = conv.out_hw
        win = np.lib.stride_tricks.sliding_window_view(x, kw, axis=2)[:, :, ::sw]
        cols = np.ascontiguousarray(win.transpose(0, 1, 2, 4, 3)).reshape(n, h, ow, kw * conv.in_ch)
        # W rows in (C, kh, kw) order to one (kw*C, out) matrix per tap
        taps = conv.W.reshape(conv.in_ch, kh, kw, -1).transpose(1, 2, 0, 3).reshape(kh, kw * conv.in_ch, -1)
        rows = [cols[:, i : i + oh * sh : sh].reshape(n, oh * ow, -1) for i in range(kh)]
        z = np.matmul(rows[0], taps[0])
        for i in range(1, kh):
            z += np.matmul(rows[i], taps[i])
        z += conv.b
        z = z.reshape(n, oh, ow, conv.out_ch)
        pw = min(pool.width, ow)
        v = z[:, :, : ow // pw * pw].reshape(n, oh, ow // pw, pw, conv.out_ch)
        y = v[:, :, :, 0].copy()
        for k in range(1, pw):
            np.maximum(y, v[:, :, :, k], out=y)
        outs.append((y, (rows, z, v, y)))
    return outs


def whole_batch_conv_pool_backward(conv, pool, dy, cache):
    """conv's gradients from whole_batch_conv_pool's cache: each output
    gradient goes to the lowest offset equal to its window's maximum
    (none for a NaN window), and the weight gradient of each tap is the
    batch sum of per-sample GEMMs."""
    rows, z, v, y = cache
    n = dy.shape[0]
    kh, kw = conv.kernel
    dz = np.zeros(z.shape, dtype=dy.dtype)
    dv = dz[:, :, : v.shape[2] * v.shape[3]].reshape(v.shape)
    open_ = np.ones(y.shape, dtype=bool)
    for k in range(v.shape[3]):
        hit = (v[:, :, :, k] == y) & open_
        np.multiply(dy, hit, out=dv[:, :, :, k])
        open_ ^= hit
    dz_rows = dz.reshape(n, -1, conv.out_ch)
    dtaps = np.stack([np.matmul(r.transpose(0, 2, 1), dz_rows).sum(axis=0) for r in rows])
    dW = dtaps.reshape(kh, kw, conv.in_ch, -1).transpose(2, 0, 1, 3).reshape(conv.W.shape)
    return {"W": dW, "b": dz_rows.sum(axis=(0, 1))}


# ---------------------------------------------------------------------------
# Adam oracle


def adam_oracle_step(p, m, v, g, lr, t):
    """One Adam step of parameter p with moments m and v, in place, as
    one whole-array expression: nn.Adam.step must match it bit for bit."""
    b1c = 1.0 - BETA1**t
    b2c = 1.0 - BETA2**t
    g = g.astype(p.dtype, copy=False)
    m *= BETA1
    m += (1.0 - BETA1) * g
    v *= BETA2
    v += (1.0 - BETA2) * (g * g)
    p -= lr * (m / b1c) / (np.sqrt(v / b2c) + EPS)


# ---------------------------------------------------------------------------
# Learner oracle: DDPG.update as whole-batch, per-network passes


def whole_batch_conv_stack(convs, pool, rests, x, keep, outs):
    """nn.conv_stack as each trunk's own whole-batch pass: the input
    materialized (stacks_array) when it is a Stacks, conv1 and the pool
    by whole_batch_conv_pool, then each rest layer on the whole batch.
    Each output is copied into its entry of outs; returns the caches."""
    dense = (stacks_array(x) if isinstance(x, Stacks) else x)[:, :, : convs[0].in_hw[1], None]
    caches = []
    for (y, front), rest, out in zip(whole_batch_conv_pool(convs, pool, dense), rests, outs):
        rcaches = []
        for _, layer in rest:
            y, cache = layer.forward(y)
            rcaches.append(cache)
        out[...] = y
        caches.append((front, rcaches))
    return caches


def whole_batch_conv_stack_backward(conv, pool, rest, dy, cache):
    """nn.conv_stack_backward on whole_batch_conv_stack's cache: each rest
    layer's whole-batch backward, then whole_batch_conv_pool_backward."""
    front, caches = cache
    totals = {}
    for (name, layer), c in zip(reversed(rest), reversed(caches)):
        dy, grads = layer.backward(dy, c)
        if grads:
            totals[name] = grads
    return whole_batch_conv_pool_backward(conv, pool, dy, front), totals


def reference_update(learner, batch):
    """One DDPG update as separate passes of each network over the whole
    batch, with the trunk run by the whole-batch oracle above (patched in
    for nn.conv_stack): no blocks, no shared GEMMs, an input materialized
    row by row (stacks_array) when it is a Stacks, and every pass keeps
    what its backward needs.  batch may be a replay batch or plain
    arrays.  DDPG.update must match it bit for bit."""
    from unittest import mock

    from socnavsim.networks import soft_update

    cfg = learner.config
    n = batch["feat"].shape[0]
    feat, nfeat = (stacks_array(f) if isinstance(f, Stacks) else f for f in (batch["feat"], batch["next_feat"]))
    with mock.patch("socnavsim.networks.conv_stack", whole_batch_conv_stack), \
            mock.patch("socnavsim.networks.conv_stack_backward", whole_batch_conv_stack_backward):
        a_next, _ = learner.target_actor.forward(nfeat, batch["next_goal"])
        q_next, _ = learner.target_critic.forward(nfeat, batch["next_goal"], a_next)
        y = batch["reward"] + cfg.gamma * (1.0 - batch["done"]) * q_next

        q, cache = learner.critic.forward(feat, batch["goal"], batch["action"])
        diff = q - y
        critic_loss = float(np.mean(diff * diff))
        _, cgrads = learner.critic.backward((2.0 / n) * diff, cache, param_grads=True)
        learner.opt_critic.step(cgrads)

        a, acache = learner.actor.forward(feat, batch["goal"])
        q_pi, ccache = learner.critic.forward(feat, batch["goal"], a)
        dq_da, _ = learner.critic.backward(np.full(n, -1.0 / n, dtype=q_pi.dtype), ccache, param_grads=False)
        agrads = learner.actor.backward(dq_da, acache, cfg.logit_penalty)
        learner.opt_actor.step(agrads)

    soft_update(learner.target_actor, learner.actor, cfg.tau)
    soft_update(learner.target_critic, learner.critic, cfg.tau)
    learner.updates += 1
    return critic_loss, float(np.mean(q_pi))


# ---------------------------------------------------------------------------
# Test-only helpers that the library has no caller for


def run_suite(policy, suite: str, runs: int = 10, root_seed: int = 0,
              base_config: EnvConfig | None = None) -> list:
    """One evaluation.EpisodeLog per run; failures are logged, never raised."""
    cfg = evaluation.suite_config(suite, base_config)
    return [evaluation.run_episode(policy, cfg, suite, *seeds)
            for seeds in evaluation.episode_seeds(root_seed, runs)]


def save_config(config: EnvConfig, path) -> None:
    """Write config as the YAML that world.load_config reads back."""
    with open(path, "w") as f:
        yaml.safe_dump(config.to_dict(), f, sort_keys=True)


def run_script(code, timeout=120):
    """Run code (dedented) in a fresh interpreter that imports this
    checkout's socnavsim; the CompletedProcess, output as text."""
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)], capture_output=True, text=True,
                          timeout=timeout, env=dict(os.environ, PYTHONPATH=SRC))


@contextlib.contextmanager
def cpus(n):
    """Within the block, socnavsim takes the process to have n usable CPUs
    (nn.usable_cpus): from two on the learner's pool and the crowd worker
    run, and eval's episode pool takes up to n processes.  It patches the
    whole process, so threads that run meanwhile see the same count; a
    subprocess or spawn child patches its own."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(nn, "usable_cpus", lambda: n)
        yield


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)

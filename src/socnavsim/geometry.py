"""Exact 2D primitives: vectors, circles, segments, oriented rectangles.

Provides the raycasting and overlap tests used by the lidar simulation,
the safety rewards, and the crowd module.  All shapes use closed-set
semantics: boundary contact counts as intersection / zero distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap_angle(angle: float) -> float:
    """Normalize an angle to [-pi, pi]."""
    a = math.fmod(angle + math.pi, TWO_PI)
    if a < 0.0:
        a += TWO_PI
    return a - math.pi


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

    def rotated(self, angle: float) -> "Vec2":
        c, s = math.cos(angle), math.sin(angle)
        return Vec2(c * self.x - s * self.y, s * self.x + c * self.y)

    def angle(self) -> float:
        return math.atan2(self.y, self.x)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y])

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
        if self.a == self.b:
            raise ValueError("degenerate segment: endpoints coincide")


@dataclass(frozen=True)
class OrientedRect:
    """Rectangle anchored at one end, extending `length` along `heading`.

    The anchor sits at the middle of the rear edge; the rect spans
    laterally +-half_width.  Degenerate extents (zero length or width)
    are allowed and collapse to a segment or point.  rects_intersect can
    miss exact contact with such a rectangle by one rounding: its
    corners anchor +- w can project one rounding off the anchor onto the
    other rectangle's axis.  No such miss is known for rectangles with
    both extents positive.
    """

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


# ---------------------------------------------------------------------------
# Raycasting


def _rect_edges(rect: OrientedRect) -> list[tuple[float, float, float, float]]:
    """Edges (ax, ay, bx, by) between the corners() of rect, in float
    arithmetic.  Zero-length edges are kept: no ray hits them."""
    fx, fy = math.cos(rect.heading), math.sin(rect.heading)
    rear_x, rear_y = rect.anchor.x, rect.anchor.y
    front_x, front_y = rear_x + fx * rect.length, rear_y + fy * rect.length
    wx, wy = -fy * rect.half_width, fx * rect.half_width
    c = (
        (rear_x - wx, rear_y - wy),
        (front_x - wx, front_y - wy),
        (front_x + wx, front_y + wy),
        (rear_x + wx, rear_y + wy),
    )
    return [c[i] + c[(i + 1) % 4] for i in range(4)]


def cast_fan(origin: Vec2, angles: np.ndarray, shapes: list[Shape], max_range: float) -> np.ndarray:
    """Vectorized raycast over an array of world-frame beam angles.

    Circles and segments (rectangle edges included) are each packed into
    one array and intersected with every beam at once, shapes on axis 0.
    """
    dx = np.cos(angles)
    dy = np.sin(angles)
    circles = []  # (center x, center y, radius**2)
    segments = []  # (ax, ay, bx, by)
    for shape in shapes:
        if isinstance(shape, Circle):
            circles.append((shape.center.x, shape.center.y, shape.radius**2))
        elif isinstance(shape, Segment):
            segments.append((shape.a.x, shape.a.y, shape.b.x, shape.b.y))
        elif isinstance(shape, OrientedRect):
            segments.extend(_rect_edges(shape))
        else:
            raise TypeError(f"unsupported shape {type(shape).__name__}")

    best = np.full(angles.shape, max_range)
    if circles:
        cx, cy, r_sq = np.array(circles).T[:, :, None]
        fx = origin.x - cx
        fy = origin.y - cy
        b = fx * dx + fy * dy
        disc = b * b - (fx * fx + fy * fy - r_sq)
        hit = disc >= 0.0
        sq = np.sqrt(np.where(hit, disc, 0.0))
        t = -b - sq
        t_exit = -b + sq
        t = np.where(t < 0.0, t_exit, t)  # origin inside: the exit point
        valid = hit & (t >= 0.0)
        np.minimum(best, np.where(valid, t, np.inf).min(axis=0), out=best)
    if segments:
        ax, ay, bx, by = np.array(segments).T[:, :, None]
        ex, ey = bx - ax, by - ay
        wx, wy = ax - origin.x, ay - origin.y
        denom = dx * ey - dy * ex
        ok = np.abs(denom) >= 1e-15
        denom_safe = np.where(ok, denom, 1.0)
        t = (wx * ey - wy * ex) / denom_safe
        s = (wx * dy - wy * dx) / denom_safe
        valid = ok & (t >= 0.0) & (s >= 0.0) & (s <= 1.0)
        np.minimum(best, np.where(valid, t, np.inf).min(axis=0), out=best)
    return best


# ---------------------------------------------------------------------------
# Overlap and distance


def _project(corners, axis: Vec2) -> tuple[float, float]:
    dots = [c.dot(axis) for c in corners]
    return min(dots), max(dots)


def rects_intersect(a: OrientedRect, b: OrientedRect) -> bool:
    """Closed-set overlap test via the separating-axis theorem.

    Only the four face normals need checking for a pair of rectangles;
    boundary contact counts as intersecting.
    """
    ca, cb = a.corners(), b.corners()
    for rect in (a, b):
        for axis in rect.axes():
            amin, amax = _project(ca, axis)
            bmin, bmax = _project(cb, axis)
            if amax < bmin or bmax < amin:
                return False
    return True


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


def closest_distance(robot: Circle, shapes: list[Shape]) -> float:
    """Smallest surface-to-surface distance from the robot to any shape.

    Negative values indicate penetration depth.  Raises on an empty
    shape list: the no-neighbor case is the caller's to handle.
    """
    if not shapes:
        raise ValueError("closest_distance requires at least one shape")
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


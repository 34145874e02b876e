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


def elementwise(fn, *arrays: np.ndarray) -> np.ndarray:
    """fn mapped over equal-length 1-D arrays, one scalar call per element:
    numpy's vectorized transcendentals round differently from libm's."""
    return np.fromiter(map(fn, *(a.tolist() for a in arrays)), float, len(arrays[0]))


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
    are allowed and collapse to a segment or point.  rects_overlap can
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
# Packed shapes; a rectangle row is (anchor x, anchor y, wrapped heading, half_width, length)


def rect_frames(rects: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Forward axes (fx, fy) and (n, 4) corner coordinates (xs, ys) of rectangle rows,
    bitwise those of OrientedRect.axes() and corners(), which they order alike."""
    ax, ay, heading, half_width, length = rects.T
    fx, fy = elementwise(math.cos, heading), elementwise(math.sin, heading)
    front_x, front_y = ax + fx * length, ay + fy * length
    wx, wy = -fy * half_width, fx * half_width
    xs = np.stack([ax - wx, front_x - wx, front_x + wx, ax + wx], axis=1)
    ys = np.stack([ay - wy, front_y - wy, front_y + wy, ay + wy], axis=1)
    return fx, fy, xs, ys


def rect_rows(rects: list[OrientedRect]) -> np.ndarray:
    rows = [(r.anchor.x, r.anchor.y, r.heading, r.half_width, r.length) for r in rects]
    return np.array(rows, dtype=float).reshape(-1, 5)


def rect_edges(rects: np.ndarray) -> np.ndarray:
    """Rows (ax, ay, bx, by) of each rectangle's four edges, zero-length ones kept."""
    _, _, xs, ys = rect_frames(rects)
    nxt = [1, 2, 3, 0]
    return np.stack([xs, ys, xs[:, nxt], ys[:, nxt]], axis=-1).reshape(-1, 4)


def rects_overlap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Closed-set overlap of rectangle rows a and b, broadcast row by row: the
    separating-axis test on the four face normals, projected as the Vec2 one."""
    afx, afy, axs, ays = rect_frames(a)
    bfx, bfy, bxs, bys = rect_frames(b)
    apart = np.zeros(np.broadcast_shapes(len(a), len(b)), dtype=bool)
    for ux, uy in ((afx, afy), (-afy, afx), (bfx, bfy), (-bfy, bfx)):  # forward, left
        pa = axs * ux[:, None] + ays * uy[:, None]
        pb = bxs * ux[:, None] + bys * uy[:, None]
        apart |= (pa.max(axis=1) < pb.min(axis=1)) | (pb.max(axis=1) < pa.min(axis=1))
    return ~apart


@dataclass(frozen=True)
class Scene:
    """Shapes packed for cast_fan; len() counts a rectangle (four edge rows) once."""

    circles: np.ndarray  # (c, 3): center x, center y, radius**2
    segments: np.ndarray  # (s, 4): ax, ay, bx, by
    count: int

    def __len__(self) -> int:
        return self.count

    def __add__(self, other: "Scene") -> "Scene":
        circles = np.concatenate([self.circles, other.circles])
        return Scene(circles, np.concatenate([self.segments, other.segments]), self.count + other.count)


def pack_shapes(shapes: list[Shape]) -> Scene:
    circles, segments = [], []
    for shape in shapes:
        if isinstance(shape, Circle):
            circles.append((shape.center.x, shape.center.y, shape.radius**2))
        elif isinstance(shape, Segment):
            segments.append((shape.a.x, shape.a.y, shape.b.x, shape.b.y))
        elif isinstance(shape, OrientedRect):
            segments.extend(rect_edges(rect_rows([shape])).tolist())
        else:
            raise TypeError(f"unsupported shape {type(shape).__name__}")
    return Scene(np.array(circles).reshape(-1, 3), np.array(segments).reshape(-1, 4), len(shapes))


def cast_fan(origin: Vec2, angles: np.ndarray, shapes: Scene | list[Shape], max_range: float) -> np.ndarray:
    """Vectorized raycast over an array of world-frame beam angles: all
    circles, then all segments, against every beam at once."""
    scene = shapes if isinstance(shapes, Scene) else pack_shapes(shapes)
    dx = np.cos(angles)
    dy = np.sin(angles)
    best = np.full(angles.shape, max_range)
    if len(scene.circles):
        cx, cy, r_sq = scene.circles.T[:, :, None]
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
    if len(scene.segments):
        ax, ay, bx, by = scene.segments.T[:, :, None]
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
# Distance


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


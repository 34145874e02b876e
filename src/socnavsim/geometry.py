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
    """Rectangle anchored at one end, extending `length` along `heading`.

    The anchor sits at the middle of the rear edge; the rect spans
    laterally +-half_width.  Degenerate extents (zero length or width)
    are allowed and collapse to a segment or point.  Their corners
    anchor +- w can project a rounding off the anchor onto the other
    rectangle's axis, so rects_overlap counts projections within
    CONTACT_SLACK of each other as contact.
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


# rects_overlap's separating-axis test counts projections this close (m) as
# touching, and cast_fan a beam this close to a parallel segment row's line,
# so that exact contact survives the rounding of the corners and beams
CONTACT_SLACK = 1e-12


def rect_frames(rects: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Forward axes (fx, fy) and (n, 4) corner coordinates (xs, ys) of rectangle rows,
    bitwise those of OrientedRect.axes() and corners(), which they order alike."""
    ax, ay, heading, half_width, length = rects.T
    fx, fy = elementwise(math.cos, heading), elementwise(math.sin, heading)
    front_x, front_y = ax + fx * length, ay + fy * length
    wx, wy = -fy * half_width, fx * half_width
    side = np.array([-1.0, -1.0, 1.0, 1.0])  # rear - w, front - w, front + w, rear + w
    xs = np.array([ax, front_x, front_x, ax]).T + wx[:, None] * side
    ys = np.array([ay, front_y, front_y, ay]).T + wy[:, None] * side
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
    (n,) = np.broadcast_shapes(len(a), len(b))
    ux, uy = np.empty((2, 4, 1, n))  # a's forward and left axes, then b's
    ux[0, 0], ux[1, 0], ux[2, 0], ux[3, 0] = afx, -afy, bfx, -bfy
    uy[0, 0], uy[1, 0], uy[2, 0], uy[3, 0] = afy, afx, bfy, bfx
    pa = axs.T * ux + ays.T * uy  # (4 axes, 4 corners, n)
    pb = bxs.T * ux + bys.T * uy
    slack = CONTACT_SLACK
    apart = (pa.max(axis=1) < pb.min(axis=1) - slack) | (pb.max(axis=1) < pa.min(axis=1) - slack)
    return ~apart.any(axis=0)


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


# cast_fan tests every (shape row, beam) lane in one broadcast below this many
# lanes, beams x (circle rows + segment rows), and from it on only the lanes
# inside each row's beam window.  Timed over captured seed-0 greedy casts
# (2-core x86, numpy 2.4, min of 9): at 180 beams the windows took 0.97 of the
# broadcast time at 6-7k lanes, 0.95 at 7-8k and 0.88 at 8-9k; eval-mapless1080
# casts (12k-36k lanes) took about 0.6.
WINDOW_MIN_LANES = 8000
# Every window is widened by this angle (rad), then by one beam on each side.
# Outside the exact arc of its row, a lane reports a hit only through rounding,
# within about 1e-7 rad of the arc, while the origin keeps clear of the row:
WINDOW_SLACK = 1e-6
# a circle with the origin inside or within distance**2 <= (1 + NEAR_CIRCLE) *
# radius**2, a segment whose line passes within NEAR_LINE (m) of the origin,
# and an arc within FULL_ARC_GAP (rad) of pi take the whole fan instead.
NEAR_CIRCLE = 1e-6
NEAR_LINE = 1e-6
FULL_ARC_GAP = 1e-3


def row_terms(origin: tuple[float, float], scene: Scene) -> tuple[tuple, tuple]:
    """The per-row factors of the lane arithmetic: (fx, fy, q) of the circle rows,
    the origin less the centre and q = fx*fx + fy*fy - radius**2; (wx, wy, ex, ey,
    cross) of the segment rows, the start less the origin, the end less the start
    and cross = wx*ey - wy*ex."""
    ox, oy = origin
    cx, cy, r_sq = scene.circles.T
    fx, fy = ox - cx, oy - cy
    ax, ay, bx, by = scene.segments.T
    wx, wy = ax - ox, ay - oy
    ex, ey = bx - ax, by - ay
    return (fx, fy, fx * fx + fy * fy - r_sq), (wx, wy, ex, ey, wx * ey - wy * ex)


def _circle_lanes(fx, fy, q, dx, dy):
    """Range along each beam (dx, dy) to its circle row, inf on a miss."""
    b = fx * dx + fy * dy
    disc = b * b - q
    hit = disc >= 0.0
    sq = np.sqrt(np.where(hit, disc, 0.0))
    t = -b - sq
    t_exit = -b + sq
    t = np.where(t < 0.0, t_exit, t)  # origin inside: the exit point
    return np.where(hit & (t >= 0.0), t, np.inf)


def _segment_lanes(wx, wy, ex, ey, cross, dx, dy):
    """Range along each beam (dx, dy) to its segment row, inf on a miss.  A row
    parallel to its beam, or of zero length, is met only where it lies on the
    beam's line, within CONTACT_SLACK: at its nearer end, or at 0 from on it."""
    denom = dx * ey - dy * ex
    ok = np.abs(denom) >= 1e-15
    denom_safe = np.where(ok, denom, 1.0)
    t = cross / denom_safe
    s = (wx * dy - wy * dx) / denom_safe
    t = np.where(ok & (t >= 0.0) & (s >= 0.0) & (s <= 1.0), t, np.inf)
    if not ok.all():
        wx, wy, ex, ey, dx, dy = (np.broadcast_to(a, t.shape)[~ok] for a in (wx, wy, ex, ey, dx, dy))
        near = wx * dx + wy * dy
        far = near + (ex * dx + ey * dy)
        on_line = (np.abs(wx * dy - wy * dx) <= CONTACT_SLACK) & (np.maximum(near, far) >= 0.0)
        t[~ok] = np.where(on_line, np.maximum(np.minimum(near, far), 0.0), np.inf)
    return t


def takes_windows(angles: np.ndarray, scene: Scene) -> bool:
    """Whether cast_fan casts each row only against its beam window: enough
    lanes, and an ascending fan narrower than one turn."""
    lanes = len(angles) * (len(scene.circles) + len(scene.segments))
    return bool(
        lanes >= WINDOW_MIN_LANES
        and np.all(angles[1:] >= angles[:-1])
        and angles[-1] - angles[0] < TWO_PI
    )


def beam_arcs(origin: tuple[float, float], scene: Scene,
              terms: tuple[tuple, tuple]) -> tuple[np.ndarray, np.ndarray]:
    """Per packed row (circles, then segments), the arc of bearings from origin
    that holds the row: its first bearing and its width, a full turn where the
    row takes the whole fan.

    A circle's arc is the centre bearing +- asin(radius / distance), a
    segment's the shorter arc between its endpoint bearings.
    """
    (fx, fy, q), (wx, wy, ex, ey, cross) = terms  # row_terms(origin, scene)
    r_sq = scene.circles[:, 2]
    c_full = q <= NEAR_CIRCLE * r_sq
    half = np.arcsin(np.sqrt(r_sq / np.where(c_full, r_sq, q + r_sq)))
    bearing_a = np.arctan2(wy, wx)
    bearing_b = np.arctan2(scene.segments[:, 3] - origin[1], scene.segments[:, 2] - origin[0])
    arc = np.mod(bearing_b - bearing_a, TWO_PI)
    ccw = arc <= math.pi  # the shorter arc runs from a to b, else from b to a
    arc = np.where(ccw, arc, TWO_PI - arc)
    s_full = (np.abs(cross) <= NEAR_LINE * np.hypot(ex, ey)) | (arc >= math.pi - FULL_ARC_GAP)
    first = np.concatenate([np.arctan2(-fy, -fx) - half, np.where(ccw, bearing_a, bearing_b)])
    width = np.where(np.concatenate([c_full, s_full]), TWO_PI, np.concatenate([2.0 * half, arc]))
    return first, width


def beam_windows(angles: np.ndarray, first: np.ndarray, width: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The beams of an ascending fan narrower than one turn that lie on each arc,
    widened by WINDOW_SLACK and one beam a side, as a start index and a count;
    a window that passes the last beam runs on from the first."""
    n = len(angles)
    rel = angles - angles[0]
    lo = np.mod(first - WINDOW_SLACK - angles[0], TWO_PI)
    hi = lo + (width + 2.0 * WINDOW_SLACK)
    wraps = hi >= TWO_PI  # across the rear gap, on to the first beam
    start = np.maximum(np.searchsorted(rel, lo) - 1, 0)
    stop = np.minimum(np.searchsorted(rel, np.where(wraps, hi - TWO_PI, hi), "right") + 1, n)
    return start, np.minimum(stop + n * wraps - start, n)


def cast_fan(origin: tuple[float, float], angles: np.ndarray, scene: Scene, max_range: float) -> np.ndarray:
    """Vectorized raycast from origin (x, y) over an array of world-frame beam
    angles: every circle and segment row against every beam at once, or, over
    enough lanes (takes_windows), against the beams of its window only
    (beam_windows)."""
    dx = np.cos(angles)
    dy = np.sin(angles)
    best = np.full(angles.shape, max_range)
    terms = circles, segments = row_terms(origin, scene)
    n_circles = len(scene.circles)
    if not takes_windows(angles, scene):
        if n_circles:
            t = _circle_lanes(*(a[:, None] for a in circles), dx, dy)
            np.minimum(best, t.min(axis=0), out=best)
        if len(scene.segments):
            t = _segment_lanes(*(a[:, None] for a in segments), dx, dy)
            np.minimum(best, t.min(axis=0), out=best)
        return best
    start, count = beam_windows(angles, *beam_arcs(origin, scene, terms))
    ends = np.cumsum(count)
    row = np.repeat(np.arange(len(count)), count)
    beam = np.arange(ends[-1]) + np.repeat(start - ends + count, count)
    beam %= len(angles)
    dx, dy = dx[beam], dy[beam]
    split = ends[n_circles - 1] if n_circles else 0  # circle lanes come first
    rc, rs = row[:split], row[split:] - n_circles
    t = np.concatenate([
        _circle_lanes(*(a[rc] for a in circles), dx[:split], dy[:split]),
        _segment_lanes(*(a[rs] for a in segments), dx[split:], dy[split:]),
    ])
    hit = t < max_range
    np.minimum.at(best, beam[hit], t[hit])
    return best


# ---------------------------------------------------------------------------
# Distance


@dataclass(frozen=True)
class DistanceScene:
    """Shapes packed once as float rows for the surface distance of a disc;
    pack_distance_scene builds it.  A loop over these rows beats an array
    pass at the 4-12 static shapes of a map."""

    circles: tuple[tuple[float, ...], ...]  # centre x, centre y, radius
    segments: tuple[tuple[float, ...], ...]  # ax, ay, ex, ey, ex*ex + ey*ey with e = b - a
    rects: tuple[tuple[float, ...], ...]  # anchor x, anchor y, cos and sin of heading, half_width, length / 2

    def closest_distance(self, px: float, py: float, r: float) -> float:
        """Smallest surface-to-surface distance from the disc of radius r
        centred at (px, py) to any shape, negative on penetration; inf for
        no shapes.  A rectangle's distance is signed, negative inside."""
        gaps = [math.hypot(px - x, py - y) - radius - r for x, y, radius in self.circles]
        for ax, ay, ex, ey, e_sq in self.segments:
            t = min(1.0, max(0.0, ((px - ax) * ex + (py - ay) * ey) / e_sq))
            gaps.append(math.hypot(px - (ax + ex * t), py - (ay + ey * t)) - r)
        for ax, ay, fx, fy, half_width, half_length in self.rects:
            dx, dy = px - ax, py - ay
            qx = abs(dx * fx + dy * fy - half_length) - half_length
            qy = abs(dx * -fy + dy * fx) - half_width
            gaps.append(math.hypot(max(qx, 0.0), max(qy, 0.0)) + min(max(qx, qy), 0.0) - r)
        return min(gaps, default=math.inf)


def pack_distance_scene(shapes: list[Shape]) -> DistanceScene:
    circles, segments, rects = [], [], []
    for shape in shapes:
        if isinstance(shape, Circle):
            circles.append((shape.center.x, shape.center.y, shape.radius))
        elif isinstance(shape, Segment):
            ex, ey = shape.b.x - shape.a.x, shape.b.y - shape.a.y
            segments.append((shape.a.x, shape.a.y, ex, ey, ex * ex + ey * ey))
        elif isinstance(shape, OrientedRect):
            fx, fy = math.cos(shape.heading), math.sin(shape.heading)  # the forward axis
            rects.append((shape.anchor.x, shape.anchor.y, fx, fy, shape.half_width, shape.length / 2.0))
        else:
            raise TypeError(f"unsupported shape {type(shape).__name__}")
    return DistanceScene(tuple(circles), tuple(segments), tuple(rects))


def closest_distance(robot: Circle, shapes: list[Shape]) -> float:
    """DistanceScene.closest_distance of the robot disc over shapes.

    Raises on an empty shape list: the no-neighbor case is the caller's
    to handle.
    """
    if not shapes:
        raise ValueError("closest_distance requires at least one shape")
    return pack_distance_scene(shapes).closest_distance(robot.center.x, robot.center.y, robot.radius)

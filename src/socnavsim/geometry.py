"""2D shapes as float rows: circles, segments and oriented rectangles.

Provides the raycasting, distance and overlap tests used by the lidar
simulation, the safety rewards, the map sampler and the crowd module.
All shapes use closed-set semantics: boundary contact counts as
intersection / zero distance.
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


# ---------------------------------------------------------------------------
# Shape rows.  A circle row is (centre x, centre y, radius), a segment row
# (ax, ay, bx, by) and a rectangle row (anchor x, anchor y, wrapped heading,
# half_width, length): the rectangle extends `length` along its heading from
# the anchor, the middle of its rear edge, and spans +-half_width laterally.
# Zero length or width is allowed and collapses it to a segment or a point.


# rects_overlap's separating-axis test counts projections this close (m) as
# touching, and cast_fan a beam this close to a parallel segment row's line,
# so that exact contact survives the rounding of the corners and beams
CONTACT_SLACK = 1e-12


def rect_corners(row) -> tuple[float, float, tuple, tuple]:
    """Forward axis (fx, fy) and corner coordinates (xs, ys) of one rectangle
    row, counter-clockwise from the rear-right; cos and sin come from math."""
    ax, ay, heading, half_width, length = row
    fx, fy = math.cos(heading), math.sin(heading)
    front_x, front_y = ax + fx * length, ay + fy * length
    wx, wy = -fy * half_width, fx * half_width
    xs = (ax - wx, front_x - wx, front_x + wx, ax + wx)
    ys = (ay - wy, front_y - wy, front_y + wy, ay + wy)
    return fx, fy, xs, ys


def rect_row(x: float, y: float, heading: float, half_width: float, length: float) -> tuple:
    """The rectangle row centred on (x, y): its anchor half its length back
    along the raw heading, its heading wrapped."""
    half = length / 2.0
    return x - math.cos(heading) * half, y - math.sin(heading) * half, wrap_angle(heading), half_width, length


def rects_overlap(a, b) -> bool:
    """Closed-set overlap of rectangle rows a and b: the separating-axis test
    on the four face normals.  A degenerate rectangle's corners anchor +- w
    can project a rounding off the anchor, so projections within
    CONTACT_SLACK of each other count as contact."""
    afx, afy, axs, ays = rect_corners(a)
    bfx, bfy, bxs, bys = rect_corners(b)
    for ux, uy in ((afx, afy), (-afy, afx), (bfx, bfy), (-bfy, bfx)):
        pa = [x * ux + y * uy for x, y in zip(axs, ays)]
        pb = [x * ux + y * uy for x, y in zip(bxs, bys)]
        if max(pa) < min(pb) - CONTACT_SLACK or max(pb) < min(pa) - CONTACT_SLACK:
            return False
    return True


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

    @staticmethod
    def pack(circles, rects, segments) -> "Scene":
        """From circle, rectangle and segment rows of Python floats: radius**2
        by Python's pow, then each rectangle's four edges, from corner to
        corner as rect_corners gives them, zero-length ones kept, before the
        segments."""
        edges = []
        for row in rects:
            _, _, xs, ys = rect_corners(row)
            edges += zip(xs, ys, xs[1:] + xs[:1], ys[1:] + ys[:1])  # each corner to the next
        edges += segments
        return Scene(np.array([(x, y, r**2) for x, y, r in circles], dtype=float).reshape(-1, 3),
                     np.array(edges, dtype=float).reshape(-1, 4), len(circles) + len(rects) + len(segments))


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


def cast_fan(origin: tuple[float, float], angles: np.ndarray, scene: Scene) -> np.ndarray:
    """Range from origin (x, y) to the nearest row along each beam of an
    ascending fan of world-frame angles narrower than one turn, inf where a
    beam meets no row: each row is cast only against the beams of its window
    (beam_windows).  A zero range reads +0.0."""
    if not (np.all(angles[1:] >= angles[:-1]) and angles[-1] - angles[0] < TWO_PI):
        raise ValueError("cast_fan needs an ascending fan narrower than one turn")
    best = np.full(angles.shape, np.inf)
    if len(scene.circles) + len(scene.segments) == 0:
        return best
    terms = circles, segments = row_terms(origin, scene)
    start, count = beam_windows(angles, *beam_arcs(origin, scene, terms))
    ends = np.cumsum(count)
    row = np.repeat(np.arange(len(count)), count)
    beam = np.arange(ends[-1]) + np.repeat(start - ends + count, count)
    beam %= len(angles)
    dx, dy = np.cos(angles)[beam], np.sin(angles)[beam]
    n_circles = len(scene.circles)
    split = ends[n_circles - 1] if n_circles else 0  # circle lanes come first
    rc, rs = row[:split], row[split:] - n_circles
    t = np.concatenate([
        _circle_lanes(*(a[rc] for a in circles), dx[:split], dy[:split]),
        _segment_lanes(*(a[rs] for a in segments), dx[split:], dy[split:]),
    ])
    hit = t < np.inf
    np.minimum.at(best, beam[hit], t[hit])
    best += 0.0  # -0.0, from an origin on a row, reads +0.0 whatever the row order
    return best


# ---------------------------------------------------------------------------
# Distance


@dataclass(frozen=True)
class DistanceScene:
    """Shapes packed once as float rows for the surface distance of a disc.
    A loop over these rows beats an array pass at the 4-12 static shapes of
    a map."""

    circles: tuple[tuple[float, ...], ...]  # centre x, centre y, radius
    segments: tuple[tuple[float, ...], ...]  # ax, ay, ex, ey, ex*ex + ey*ey with e = b - a
    rects: tuple[tuple[float, ...], ...]  # anchor x, anchor y, cos and sin of heading, half_width, length / 2

    @staticmethod
    def pack(circles, rects, segments) -> "DistanceScene":
        """From circle, rectangle and segment rows of Python floats."""

        def segment(ax, ay, bx, by):
            ex, ey = bx - ax, by - ay
            return ax, ay, ex, ey, ex * ex + ey * ey

        return DistanceScene(
            tuple(tuple(c) for c in circles),
            tuple(segment(*s) for s in segments),
            tuple((ax, ay, math.cos(h), math.sin(h), w, length / 2.0) for ax, ay, h, w, length in rects),
        )

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


def closest_distance(disc: tuple[float, float, float], shapes: DistanceScene) -> float:
    """shapes.closest_distance of the disc (centre x, centre y, radius).

    Raises when there are no shapes: the no-neighbor case is the caller's
    to handle.
    """
    if not (shapes.circles or shapes.segments or shapes.rects):
        raise ValueError("closest_distance requires at least one shape")
    return shapes.closest_distance(*disc)


# ---------------------------------------------------------------------------
# Static maps


@dataclass(frozen=True, eq=False)
class StaticMap:
    """A map's static shapes as rows, packed once per map: the circles and
    the rectangles, each kind in placement order, the wall segments, and
    is_rect, the placement order of the circles and rectangles (True for a
    rectangle).  The scanner, the clearance, ORCA, the corridor check and
    scenario-gen all read it.  Any sequences of rows are taken; a wall whose
    squared length is not positive, which the distance code would divide
    by, is refused."""

    circles: np.ndarray = ()  # (c, 3)
    rects: np.ndarray = ()  # (r, 5)
    walls: np.ndarray = ()  # (s, 4)
    is_rect: np.ndarray = ()  # (c + r,) bool

    def __post_init__(self):
        for name, width in (("circles", 3), ("rects", 5), ("walls", 4)):
            object.__setattr__(self, name, np.array(getattr(self, name), dtype=float).reshape(-1, width))
        object.__setattr__(self, "is_rect", np.array(self.is_rect, dtype=bool).reshape(-1))
        if len(self.is_rect) != len(self.circles) + len(self.rects) or self.is_rect.sum() != len(self.rects):
            raise ValueError("is_rect must hold one flag per circle and rectangle, True for each rectangle")
        ax, ay, bx, by = self.walls.T
        ex, ey = bx - ax, by - ay
        bad = np.flatnonzero(~(ex * ex + ey * ey > 0.0))
        if len(bad):
            raise ValueError(f"degenerate wall {self.walls[bad[0]].tolist()}: squared length not positive")

    def scene(self) -> Scene:
        return Scene.pack(self.circles.tolist(), self.rects.tolist(), self.walls.tolist())

    def distances(self) -> DistanceScene:
        return DistanceScene.pack(self.circles.tolist(), self.rects.tolist(), self.walls.tolist())

    def placements(self) -> list[tuple[str, list[float]]]:
        """("circle", row) or ("rect", row) of every obstacle, in placement order."""
        rows = (iter(self.circles.tolist()), iter(self.rects.tolist()))
        return [(("circle", "rect")[k], next(rows[k])) for k in self.is_rect.tolist()]

    def bounding_discs(self) -> np.ndarray:
        """(centre x, centre y, radius) rows in placement order, walls left
        out: a circle's own, and the disc through a rectangle's corners, its
        radius from math.hypot and at least 1e-3."""
        discs = np.empty((len(self.is_rect), 3))
        discs[~self.is_rect] = self.circles
        for i, (ax, ay, heading, half_width, length) in zip(np.flatnonzero(self.is_rect), self.rects.tolist()):
            half = length / 2.0
            radius = max(math.hypot(half, half_width), 1e-3)
            discs[i] = ax + math.cos(heading) * half, ay + math.sin(heading) * half, radius
        return discs

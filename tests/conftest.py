"""Shared fixtures and independent oracles for the test suite."""

import os

# single-threaded BLAS: faster on small GEMMs and bitwise reproducible
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import settings

from socnavsim import crowd
from socnavsim.geometry import Circle, OrientedRect, Segment, Vec2, cast_fan, wrap_angle


# property tests draw the same examples on every run and keep no example file
settings.register_profile("repeatable", derandomize=True, database=None, deadline=None)
settings.load_profile("repeatable")


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


def marching_ray(origin, angle, shapes, max_range, step=1e-4):
    """First sample point inside any shape along the ray; independent of
    the analytic intersection code."""
    ts = np.arange(0.0, max_range + step, step)
    xs = origin.x + ts * math.cos(angle)
    ys = origin.y + ts * math.sin(angle)
    inside = np.zeros(ts.shape, dtype=bool)
    for shape in shapes:
        inside |= points_in_shape(xs, ys, shape)
    if not inside.any():
        return max_range
    return min(float(ts[int(np.argmax(inside))]), max_range)


def cast_one(origin, angle, shapes, max_range):
    """The production raycaster, cast_fan, over a single beam."""
    return float(cast_fan(origin, np.array([angle]), shapes, max_range)[0])


def rect_edges(rect: OrientedRect) -> list[Segment]:
    """The rectangle's boundary as segments; degenerate edges are dropped."""
    cs = rect.corners()
    out = []
    for i in range(4):
        a, b = cs[i], cs[(i + 1) % 4]
        if a != b:
            out.append(Segment(a, b))
    return out


def reference_cast_fan(origin, angles, shapes, max_range):
    """cast_fan as one loop over shapes and rectangle edges; the packed
    broadcast must match it bit for bit."""
    dx = np.cos(angles)
    dy = np.sin(angles)
    best = np.full(angles.shape, max_range)
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
        segs = [shape] if isinstance(shape, Segment) else rect_edges(shape)
        for seg in segs:
            ex, ey = seg.b.x - seg.a.x, seg.b.y - seg.a.y
            wx, wy = seg.a.x - origin.x, seg.a.y - origin.y
            denom = dx * ey - dy * ex
            ok = np.abs(denom) >= 1e-15
            denom_safe = np.where(ok, denom, 1.0)
            t = (wx * ey - wy * ex) / denom_safe
            s = (wx * dy - wy * dx) / denom_safe
            valid = ok & (t >= 0.0) & (s >= 0.0) & (s <= 1.0)
            np.minimum(best, np.where(valid, t, np.inf), out=best)
    return best


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
                return None
            continue
        t = numerator / denominator
        if denominator >= 0.0:
            t_right = min(t_right, t)
        else:
            t_left = max(t_left, t)
        if t_left > t_right:
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
    for disc in crowd._obstacle_discs(obstacles):
        _hit(hits, "obstacle")
        lines.append(
            _avoidance_line(
                disc.center - ped.position,
                ped.velocity,
                ped.radius + disc.radius,
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
    num_fixed = len(crowd._obstacle_discs(obstacles))
    pref = crowd.preferred_velocity(ped)
    result, fail = _linear_program2(lines, ped.pref_speed, pref, False, hits)
    if fail < len(lines):
        result = _linear_program3(lines, num_fixed, fail, ped.pref_speed, result, hits)
    return result


# ---------------------------------------------------------------------------
# Calibration bookkeeping


def calibration_shift(prev_heading, current_heading, config) -> int:
    """Index shift that lidar.calibrate applies between two headings."""
    return int(round(wrap_angle(current_heading - prev_heading) / config.angle_increment))


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
# Learner oracle: DDPG.update with per-network forward passes


def reference_update(learner, batch):
    """One DDPG update as separate per-network passes: every network runs
    its own conv1 GEMM on a patch matrix shared only per input, and both
    patch matrices stay live for the whole update.  DDPG.update must
    match it bit for bit."""
    from socnavsim.networks import soft_update

    cfg = learner.config
    n = batch["feat"].shape[0]
    cols_o = learner.critic.trunk.im2col1(batch["feat"])
    cols_next = learner.target_critic.trunk.im2col1(batch["next_feat"])

    a_next, _ = learner.target_actor.forward(batch["next_feat"], batch["next_goal"], cols_next)
    q_next, _ = learner.target_critic.forward(
        batch["next_feat"], batch["next_goal"], a_next, cols_next
    )
    y = batch["reward"] + cfg.gamma * (1.0 - batch["done"]) * q_next

    q, cache = learner.critic.forward(batch["feat"], batch["goal"], batch["action"], cols_o)
    diff = q - y
    critic_loss = float(np.mean(diff * diff))
    _, cgrads = learner.critic.backward((2.0 / n) * diff, cache, param_grads=True)
    learner.opt_critic.step(cgrads)

    a, acache = learner.actor.forward(batch["feat"], batch["goal"], cols_o)
    q_pi, ccache = learner.critic.forward(batch["feat"], batch["goal"], a, cols_o)
    dq_da, _ = learner.critic.backward(np.full(n, -1.0 / n, dtype=q_pi.dtype), ccache, param_grads=False)
    logit_grad = (2.0 * cfg.logit_penalty / n) * learner.actor.logits(acache)
    agrads = learner.actor.backward(dq_da, acache, logit_grad=logit_grad)
    learner.opt_actor.step(agrads)

    soft_update(learner.target_actor, learner.actor, cfg.tau)
    soft_update(learner.target_critic, learner.critic, cfg.tau)
    learner.updates += 1
    return critic_loss, float(np.mean(q_pi))


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)

"""Shared fixtures and independent oracles for the test suite."""

import os

# single-threaded BLAS: faster on small GEMMs and bitwise reproducible
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import math

import numpy as np
import pytest

from socnavsim.geometry import Circle, OrientedRect, Vec2, cast_fan, wrap_angle


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
    return any(segments_intersect(ea, eb) for ea in a.edges() for eb in b.edges())


def rects_share_sampled_point(a, b, rng, samples=100_000) -> bool:
    """Monte-Carlo containment probe over the joint bounding box."""
    corners = a.corners() + b.corners()
    xs = [c.x for c in corners]
    ys = [c.y for c in corners]
    px = rng.uniform(min(xs), max(xs), samples)
    py = rng.uniform(min(ys), max(ys), samples)
    return bool(np.any(points_in_shape(px, py, a) & points_in_shape(px, py, b)))


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

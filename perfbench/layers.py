"""What the traced run wraps, and the per-layer metrics derived from it.

Each layer is a socnavsim module; its spans are named
``<module>.<function>`` or ``<module>.<Class>.<method>``.  Functions are
wrapped where their callers look them up: ``world.step_crowd`` is
patched in ``socnavsim.world`` because NavEnv calls it from there.
"""

from __future__ import annotations

import tracing
from tracing import Target


def _beam_shape_pairs(args, kwargs, result):
    angles, shapes = args[1], args[2]  # cast_fan(origin, angles, shapes, max_range)
    return {"beam_shape_pairs": len(angles) * len(shapes)}


def _peds(args, kwargs, result):
    return {"peds": len(args[0])}  # step_crowd(peds, ...)


def _considered(args, kwargs, result):
    return {"considered": result.considered_pedestrians}


def _conv_rows_fan(layer, n):
    oh, ow = layer.out_hw
    return n * oh * ow, layer.W.shape[0], layer.W.shape[1]


def _conv_forward_flops(args, kwargs, result):
    layer, x = args[0], args[1]
    rows, fan_in, out_ch = _conv_rows_fan(layer, x.shape[0])
    return {"flops": 2 * rows * fan_in * out_ch}


def _conv_backward_flops(args, kwargs, result):
    layer, dy = args[0], args[1]
    need_input_grad = kwargs.get("need_input_grad", args[3] if len(args) > 3 else True)
    rows, fan_in, out_ch = _conv_rows_fan(layer, dy.shape[0])
    gemms = 2 if need_input_grad else 1  # weight gradient, then input gradient
    return {"flops": gemms * 2 * rows * fan_in * out_ch}


def _replay_bytes(args, kwargs, result):
    buf = args[0]
    total = sum(v.nbytes for v in vars(buf).values() if hasattr(v, "nbytes"))
    return {"bytes": total, "capacity": buf.capacity}


TARGETS = (
    # evaluation path
    Target("socnavsim.evaluation", "run_episode", "evaluation.run_episode"),
    Target("socnavsim.evaluation", "compute_metrics", "evaluation.compute_metrics"),
    Target("socnavsim.evaluation", "export", "evaluation.export"),
    Target("socnavsim.baselines.GreedyPolicy", "act", "baselines.GreedyPolicy.act"),
    Target("socnavsim.baselines", "greedy_plan", "baselines.greedy_plan"),
    # environment
    Target("socnavsim.world.NavEnv", "reset", "world.reset"),
    Target("socnavsim.world.NavEnv", "step", "world.step"),
    Target("socnavsim.world", "randomize_map", "world.randomize_map"),
    Target("socnavsim.world", "corridor_exists", "world.corridor_exists"),
    Target("socnavsim.world", "closest_distance", "world.closest_distance"),
    Target("socnavsim.world", "step_crowd", "crowd.step_crowd", _peds),
    Target("socnavsim.crowd", "orca_velocity", "crowd.orca_velocity"),
    Target("socnavsim.world", "simulate_scan", "lidar.simulate_scan"),
    Target("socnavsim.lidar", "cast_fan", "geometry.cast_fan", _beam_shape_pairs),
    Target("socnavsim.world", "build_motion_feature", "lidar.build_motion_feature"),
    Target("socnavsim.rewards", "assess", "rewards.assess", _considered),
    # learner
    Target("socnavsim.ddpg", "train", "ddpg.train"),
    Target("socnavsim.ddpg", "featurize", "networks.featurize"),
    Target("socnavsim.ddpg.DDPG", "__init__", "ddpg.DDPG.init"),
    Target("socnavsim.ddpg.DDPG", "act", "ddpg.act"),
    Target("socnavsim.ddpg.DDPG", "update", "ddpg.update"),
    Target("socnavsim.ddpg", "soft_update", "ddpg.soft_update"),
    Target("socnavsim.ddpg.ReplayBuffer", "__init__", "ddpg.replay.init", _replay_bytes),
    Target("socnavsim.ddpg.ReplayBuffer", "add", "ddpg.replay.add"),
    Target("socnavsim.ddpg.ReplayBuffer", "sample", "ddpg.replay.sample"),
    Target("socnavsim.nn.Conv2d", "forward", "nn.Conv2d.forward", _conv_forward_flops),
    Target("socnavsim.nn.Conv2d", "backward", "nn.Conv2d.backward", _conv_backward_flops),
    Target("socnavsim.nn.Conv2d", "im2col", "nn.Conv2d.im2col"),
    Target("socnavsim.nn.MaxPoolW", "forward", "nn.MaxPoolW.forward"),
    Target("socnavsim.nn.MaxPoolW", "backward", "nn.MaxPoolW.backward"),
    Target("socnavsim.nn.Dense", "forward", "nn.Dense.forward"),
    Target("socnavsim.nn.Dense", "backward", "nn.Dense.backward"),
    Target("socnavsim.nn.Adam", "step", "nn.Adam.step"),
)

GROUPS = ("crowd", "geometry", "lidar", "world", "rewards", "baselines", "evaluation",
          "networks", "ddpg", "nn")

EVAL = ("eval-crowd20", "eval-mapless1080")
CROWD, MAPLESS, TRAIN = "eval-crowd20", "eval-mapless1080", "train-desk"

# (name, unit, better, what it is, end-to-end metrics it should move,
#  workloads where it should, workloads where it should stay ~0)
# Timings are means per call; nn.* timings are per DDPG update and count
# only calls made inside DDPG.update.  Counts cover the traced passes,
# whose inputs depend only on the seed, so they repeat exactly.
LAYER_METRICS = (
    ("crowd.step_crowd.self_ms", "ms", "lower", "step_crowd self time per call",
     ("steps_per_s", "step_ms_p95"), (CROWD,), (MAPLESS, TRAIN)),
    ("crowd.orca_velocity.ms", "ms", "lower", "orca_velocity per call",
     ("steps_per_s", "step_ms_p95"), (CROWD,), (MAPLESS, TRAIN)),
    ("crowd.orca_velocity.calls", "count", "lower", "orca_velocity calls (exact)",
     ("steps_per_s", "step_ms_p95"), (CROWD,), (MAPLESS, TRAIN)),
    ("crowd.peds_per_step", "peds", "lower", "pedestrians per step_crowd call",
     ("steps_per_s", "step_ms_p95"), (CROWD,), (MAPLESS, TRAIN)),
    ("geometry.cast_fan.ms", "ms", "lower", "cast_fan per call",
     ("steps_per_s", "step_ms_p50"), EVAL, (TRAIN,)),
    ("geometry.cast_fan.calls", "count", "lower", "cast_fan calls (exact)",
     ("steps_per_s", "step_ms_p50"), EVAL, (TRAIN,)),
    ("geometry.cast_fan.beam_shape_pairs", "count", "lower",
     "beams x shapes summed over cast_fan calls (exact)",
     ("steps_per_s", "step_ms_p50"), EVAL, (TRAIN,)),
    ("lidar.simulate_scan.self_ms", "ms", "lower", "simulate_scan self time per call",
     ("steps_per_s",), (MAPLESS,), (TRAIN,)),
    ("lidar.build_motion_feature.ms", "ms", "lower", "build_motion_feature per call",
     ("steps_per_s",), (MAPLESS,), (TRAIN,)),
    ("world.step.self_ms", "ms", "lower", "NavEnv.step self time per call",
     ("steps_per_s",), EVAL, (TRAIN,)),
    ("world.reset.ms", "ms", "lower", "NavEnv.reset per call",
     ("steps_per_s",), EVAL, (TRAIN,)),
    ("world.closest_distance.ms", "ms", "lower", "closest_distance per call",
     ("steps_per_s",), EVAL, (TRAIN,)),
    ("world.randomize_map.attempts_per_map", "count", "lower",
     "corridor checks per accepted map",
     ("steps_per_s",), EVAL, (TRAIN,)),
    ("rewards.assess.ms", "ms", "lower", "rewards.assess per call",
     ("step_ms_p50",), (CROWD,), (MAPLESS,)),
    ("rewards.considered_pedestrians", "count", "lower",
     "pedestrians within social range summed over assess calls (exact)",
     ("step_ms_p50",), (CROWD,), (MAPLESS,)),
    ("baselines.greedy_plan.ms", "ms", "lower", "greedy_plan per call",
     ("step_ms_p50",), (MAPLESS,), (TRAIN,)),
    ("evaluation.run_episode.self_ms", "ms", "lower", "run_episode self time per episode",
     ("steps_per_s",), (CROWD,), (TRAIN,)),
    ("evaluation.export.ms", "ms", "lower", "export per call (one format)",
     ("steps_per_s",), (CROWD,), (TRAIN,)),
    ("evaluation.compute_metrics.ms", "ms", "lower", "compute_metrics per call",
     ("steps_per_s",), (CROWD,), (TRAIN,)),
    ("networks.featurize.ms", "ms", "lower", "featurize per call",
     ("steps_per_s",), (TRAIN,), EVAL),
    ("ddpg.act.ms", "ms", "lower", "DDPG.act (batch-1 actor) per call",
     ("steps_per_s",), (TRAIN,), EVAL),
    ("nn.Conv2d.forward.ms", "ms", "lower", "Conv2d.forward per update",
     ("steps_per_s",), (TRAIN,), EVAL),
    ("nn.Conv2d.backward.ms", "ms", "lower", "Conv2d.backward per update",
     ("steps_per_s",), (TRAIN,), EVAL),
    ("nn.Conv2d.im2col.ms", "ms", "lower", "Conv2d.im2col per update",
     ("steps_per_s",), (TRAIN,), EVAL),
    ("nn.Conv2d.im2col.calls_per_update", "count", "lower", "im2col calls per update (exact)",
     ("steps_per_s",), (TRAIN,), EVAL),
    ("nn.MaxPoolW.forward.ms", "ms", "lower", "MaxPoolW.forward per update",
     ("steps_per_s",), (TRAIN,), EVAL),
    ("nn.MaxPoolW.backward.ms", "ms", "lower", "MaxPoolW.backward per update",
     ("steps_per_s",), (TRAIN,), EVAL),
    ("nn.Dense.forward.ms", "ms", "lower", "Dense.forward per update",
     ("steps_per_s",), (TRAIN,), EVAL),
    ("nn.Dense.backward.ms", "ms", "lower", "Dense.backward per update",
     ("steps_per_s",), (TRAIN,), EVAL),
    ("nn.Adam.step.ms", "ms", "lower", "Adam.step per update",
     ("steps_per_s",), (TRAIN,), EVAL),
    ("nn.conv.flops_per_update", "flop", "lower",
     "GEMM flops of Conv2d forward and backward per update (computed, exact)",
     ("steps_per_s",), (TRAIN,), EVAL),
    ("ddpg.update.ms_p50", "ms", "lower", "DDPG.update median",
     ("steps_per_s",), (TRAIN,), EVAL),
    ("ddpg.update.ms_p90", "ms", "lower", "DDPG.update 90th percentile",
     ("steps_per_s",), (TRAIN,), EVAL),
    ("ddpg.update.self_ms", "ms", "lower", "DDPG.update self time per call",
     ("steps_per_s",), (TRAIN,), EVAL),
    ("ddpg.soft_update.ms", "ms", "lower", "soft_update per call",
     ("steps_per_s",), (TRAIN,), EVAL),
    ("ddpg.replay.add.ms", "ms", "lower", "ReplayBuffer.add per call",
     ("steps_per_s",), (TRAIN,), EVAL),
    ("ddpg.replay.sample.ms", "ms", "lower", "ReplayBuffer.sample per call",
     ("steps_per_s",), (TRAIN,), EVAL),
    ("ddpg.replay.bytes", "B/transition", "lower",
     "replay buffer bytes allocated per transition of capacity (computed, exact)",
     ("peak_rss_mb",), (TRAIN,), EVAL),
) + tuple(
    (f"share.{g}_pct", "%", "lower", f"self time of {g}.* spans as a share of pass wall time",
     (), (), ())
    for g in GROUPS + ("other",)
) + (
    ("trace.overhead_pct", "%", "lower",
     "traced pass wall time over an untraced pass on the same inputs, minus 100",
     (), (), ()),
)

def _largest(m, group) -> bool:
    return all(m[f"share.{group}_pct"] >= m[f"share.{g}_pct"] for g in GROUPS + ("other",))


# the bottleneck each workload was chosen for, checked on the traced run
PREDICTIONS = {
    CROWD: ("crowd.* has the largest self time", lambda m: _largest(m, "crowd")),
    MAPLESS: (
        "geometry.* and baselines.* have the two largest self times and crowd.* is about 0",
        lambda m: sorted(GROUPS + ("other",), key=lambda g: -m[f"share.{g}_pct"])[:2]
        in (["geometry", "baselines"], ["baselines", "geometry"])
        and m["share.crowd_pct"] < 1.0,
    ),
    TRAIN: ("nn.* + ddpg.* take most of the wall time",
            lambda m: m["share.nn_pct"] + m["share.ddpg_pct"] > 50.0),
}

# counts that must repeat exactly from run to run at one seed
EXACT = (
    "crowd.orca_velocity.calls",
    "crowd.peds_per_step",
    "geometry.cast_fan.calls",
    "geometry.cast_fan.beam_shape_pairs",
    "world.randomize_map.attempts_per_map",
    "rewards.considered_pedestrians",
    "nn.Conv2d.im2col.calls_per_update",
    "nn.conv.flops_per_update",
    "ddpg.replay.bytes",
)


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def counts(spans) -> dict[str, float]:
    """Exact counters of a list of spans."""
    st = tracing.aggregate(spans)
    in_update = tracing.aggregate(spans, keep=tracing.under(spans, "ddpg.update"))
    get = lambda d, name: d.get(name, tracing.Stat())  # noqa: E731
    updates = get(st, "ddpg.update").calls
    replay = get(st, "ddpg.replay.init").counters
    return {
        "crowd.orca_velocity.calls": get(st, "crowd.orca_velocity").calls,
        "crowd.peds_per_step": _ratio(get(st, "crowd.step_crowd").counters.get("peds", 0),
                                      get(st, "crowd.step_crowd").calls),
        "geometry.cast_fan.calls": get(st, "geometry.cast_fan").calls,
        "geometry.cast_fan.beam_shape_pairs":
            get(st, "geometry.cast_fan").counters.get("beam_shape_pairs", 0),
        "world.randomize_map.attempts_per_map": _ratio(get(st, "world.corridor_exists").calls,
                                                       get(st, "world.randomize_map").calls),
        "rewards.considered_pedestrians": get(st, "rewards.assess").counters.get("considered", 0),
        "nn.Conv2d.im2col.calls_per_update": _ratio(get(in_update, "nn.Conv2d.im2col").calls,
                                                    updates),
        "nn.conv.flops_per_update": _ratio(
            get(in_update, "nn.Conv2d.forward").counters.get("flops", 0)
            + get(in_update, "nn.Conv2d.backward").counters.get("flops", 0),
            updates,
        ),
        "ddpg.replay.bytes": _ratio(replay.get("bytes", 0), replay.get("capacity", 0)),
    }


def timings(spans, windows) -> dict[str, float]:
    """Per-call and per-update times and layer shares over all passes."""
    st = tracing.aggregate(spans)
    in_update = tracing.aggregate(spans, keep=tracing.under(spans, "ddpg.update"))
    zero = tracing.Stat()
    updates = st.get("ddpg.update", zero).calls
    out = {}
    for name, *_ in LAYER_METRICS:
        stem, _, kind = name.rpartition(".")
        if kind == "ms":
            if name.startswith("nn."):
                out[name] = 1e3 * _ratio(in_update.get(stem, zero).total, updates)
            else:
                out[name] = st.get(stem, zero).mean_ms
        elif kind == "self_ms":
            out[name] = st.get(stem, zero).self_mean_ms
    durations = [1e3 * d for d in st.get("ddpg.update", zero).durations]
    out["ddpg.update.ms_p50"] = percentile(durations, 50)
    out["ddpg.update.ms_p90"] = percentile(durations, 90)
    groups, other, wall = tracing.breakdown(spans, windows)
    for g in GROUPS:
        out[f"share.{g}_pct"] = 100.0 * _ratio(groups.get(g, 0.0), wall)
    out["share.other_pct"] = 100.0 * _ratio(other, wall)
    return out


def top_self(spans, windows, n: int = 12) -> list[tuple[str, float, int]]:
    """The n span names with the largest self time: (name, % of wall, calls)."""
    st = tracing.aggregate(spans)
    wall = sum(hi - lo for _, lo, hi in windows)
    ranked = sorted(st.items(), key=lambda kv: -kv[1].self_total)[:n]
    return [(name, 100.0 * _ratio(s.self_total, wall), s.calls) for name, s in ranked]

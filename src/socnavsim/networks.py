"""Actor and critic networks over the stacked-scan motion feature.

The convolutional trunk uses a wide kernel and stride along the beam
axis with small extents along the time axis, followed by width-wise max
pooling, making the features insensitive to object shape while keeping
temporal changes resolved.  The action (critic) and goal vector join
after the trunk.

What the trunk sees, with the default spec (valid padding throughout):

- At 180 beams conv1 has room for 18 columns and the pool floors them to
  16, so beams 161-179 (the last 27 degrees of the fan, at its +135
  degree edge) never reach the actor or critic.  conv2's 5-wide kernel
  clamps to the 4 pooled columns, the full width.
- At 1080 beams conv2's stride-2 windows cover 31 of the 32 pooled
  columns, so beams 1025-1079 (the last 14 degrees, same edge) never
  reach them.

trunk_reach computes this cut from the layer geometry, and conv1 reads
only beams [0, Trunk.beams) and computes only the columns the pool
keeps (16 of 18 at 180 beams, 124 of 130 at 1080).  The outputs are
those of the full-width network; tests/test_policy.py::TestBeamReach
checks that against a float64 full-width oracle and by perturbing the
beams on each side of the cut.  Changing the receptive field changes the
network, so it is left as is.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .lidar import RANGE_MAX, MotionFeature
from .nn import Conv2d, Dense, MaxPoolW, ReLU, Tanh, conv_pool, conv_pool_backward

ACTION_DIM = 2
GOAL_DIM = 2
ACTION_SCALE = 1.5
OUT_INIT = 3e-3  # half-width of the uniform output-layer init


@dataclass(frozen=True)
class NetworkSpec:
    feature_shape: tuple[int, int]  # (time rows, beams)
    conv: tuple[tuple[int, int, int, int, int], ...] = (
        (16, 3, 41, 1, 8),  # (channels, k_time, k_beam, s_time, s_beam)
        (32, 3, 5, 1, 2),
    )
    pool_width: int = 4
    dense: tuple[int, ...] = (256, 128)

    def to_dict(self) -> dict:
        return {
            "feature_shape": list(self.feature_shape),
            "conv": [list(c) for c in self.conv],
            "pool_width": self.pool_width,
            "dense": list(self.dense),
        }

    @staticmethod
    def from_dict(d: dict) -> "NetworkSpec":
        return NetworkSpec(
            feature_shape=tuple(d["feature_shape"]),
            conv=tuple(tuple(c) for c in d["conv"]),
            pool_width=int(d["pool_width"]),
            dense=tuple(d["dense"]),
        )

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def default_network_spec(time_rows: int, beams: int) -> NetworkSpec:
    return NetworkSpec(feature_shape=(time_rows, beams))


def featurize(obs: MotionFeature):
    """Normalize an observation into float32 network inputs: ranges over
    RANGE_MAX, the goal distance over its value at the episode's reset and
    the bearing over pi."""
    feat = (obs.matrix / RANGE_MAX).astype(np.float32)
    dist, bearing = obs.goal_vector
    denom = max(obs.initial_goal_distance, 1e-6)
    goal = np.array([dist / denom, bearing / math.pi], dtype=np.float32)
    return feat, goal


def trunk_reach(spec: NetworkSpec) -> int:
    """Number of leading beams that can change the trunk output.

    Valid padding floors away trailing columns at every layer.  Walking
    the layer geometry back from the last column gives the input width
    the trunk actually reads; beams past it never reach the networks.
    """
    w = spec.feature_shape[1]
    windows = []  # (extent, stride) of each width-reducing layer, in order
    for i, (_, _, kw, _, sw) in enumerate(spec.conv):
        kw = min(kw, w)  # the clamp Conv2d applies
        windows.append((kw, sw))
        w = (w - kw) // sw + 1
        if i == 0:
            pw = min(spec.pool_width, w)  # MaxPoolW's window
            windows.append((pw, pw))
            w //= pw
    for extent, stride in reversed(windows):
        w = (w - 1) * stride + extent
    return w


def forward_layers(layers, x, keep=True):
    """Run x through (name, layer) pairs in order; returns (output,
    caches), or (output, None) when not keep."""
    caches = []
    for _, layer in layers:
        x, cache = layer.forward(x)
        if keep:
            caches.append(cache)
    return x, caches if keep else None


def backward_layers(layers, dy, caches, grads, prefix):
    """Backprop dy through (name, layer) pairs in reverse; returns the
    first layer's input gradient.  Each parameter gradient lands in
    grads as prefix + 'name.key'."""
    for (name, layer), cache in zip(reversed(layers), reversed(caches)):
        dy, lgrads = layer.backward(dy, cache)
        for k, g in lgrads.items():
            grads[f"{prefix}{name}.{k}"] = g
    return dy


def input_grad_layers(layers, dy, caches):
    """dy backpropagated to the input of (name, layer) pairs, computing
    no parameter gradients."""
    for (_, layer), cache in zip(reversed(layers), reversed(caches)):
        dy = layer.input_grad(dy, cache)
    return dy


def layer_params(layers, prefix):
    return {f"{prefix}{name}.{k}": p for name, layer in layers for k, p in layer.params().items()}


class Trunk:
    """The conv stack.  conv1 and the pool run fused, over sample blocks
    (nn.conv_pool); conv1 reads only beams [0, self.beams), the ones
    that can reach the output (trunk_reach), and so computes only the
    columns the pool keeps.  The layers after the pool run as a
    (name, layer) loop."""

    def __init__(self, spec: NetworkSpec, rng, dtype=np.float32):
        k = spec.feature_shape[0]
        self.beams = trunk_reach(spec)
        layers = []
        hw = (k, self.beams)
        in_ch = 1
        for i, (ch, kh, kw, sh, sw) in enumerate(spec.conv):
            conv = Conv2d(in_ch, ch, (kh, kw), (sh, sw), hw, rng, dtype)
            layers.append((f"conv{i + 1}", conv))
            hw = conv.out_hw
            in_ch = ch
            if i == 0:
                # max and ReLU commute exactly; pooling first leaves ReLU
                # a pool-width times smaller tensor
                pool = MaxPoolW(spec.pool_width)
                layers.append(("pool", pool))
                hw = (hw[0], pool.out_width(hw[1]))
            layers.append((f"relu{i + 1}", ReLU()))
        self.layers = layers
        self.conv1, self.pool = layers[0][1], layers[1][1]
        self.rest = layers[2:]
        self.flat_dim = in_ch * hw[0] * hw[1]

    def forward(self, feat, front=None):
        """front, when given, is this trunk's entry of a fronts() call
        made together with other trunks.  The trunk keeps its layer
        caches only when that front was made for backprop; the cache is
        None otherwise."""
        if front is None:
            front = fronts((self,), feat, (True,))[0]
        x, fcache = front
        x, caches = forward_layers(self.rest, x, keep=fcache is not None)
        return x.reshape(x.shape[0], -1), None if fcache is None else (fcache, caches, x.shape)

    def backward(self, dflat, cache, grads) -> None:
        """Parameter gradients into grads as 'trunk.<layer>.<key>'."""
        fcache, caches, shape = cache
        dx = backward_layers(self.rest, dflat.reshape(shape), caches, grads, "trunk.")
        for k, g in conv_pool_backward(self.conv1, self.pool, dx, fcache).items():
            grads[f"trunk.conv1.{k}"] = g


def fronts(trunks, feat, backprop):
    """(output, cache) of conv1 and the pool of each of trunks (one
    spec) on feat (N, H, W), float16 or float32; the trunks share the
    patches and each tap's GEMM (nn.conv_pool).  backprop has one flag
    per trunk: only a front made with it can be backpropagated, and
    only its pass keeps caches (Trunk.forward)."""
    trunk = trunks[0]
    x = feat[:, :, : trunk.beams, None]
    return conv_pool([t.conv1 for t in trunks], trunk.pool, x, backprop)


class TrunkHead:
    """The trunk, then a dense head over its flat output joined with
    extra inputs.  Parameters are named 'trunk.<layer>.<key>' and
    'mlp.<layer>.<key>'; the head's layers are fc1, fc2, ... and out."""

    def __init__(self, spec: NetworkSpec, extra_dim: int, out_dim: int, rng, dtype):
        self.spec = spec
        self.trunk = Trunk(spec, rng, dtype)
        dims = (self.trunk.flat_dim + extra_dim, *spec.dense, out_dim)
        head = []
        for i in range(len(dims) - 2):
            head += [(f"fc{i + 1}", Dense(dims[i], dims[i + 1], rng, dtype)), (f"relu{i + 1}", ReLU())]
        out = Dense(dims[-2], dims[-1], rng, dtype)
        # small uniform output init keeps early value estimates near zero
        out.W = rng.uniform(-OUT_INIT, OUT_INIT, out.W.shape).astype(dtype)
        self.head = [*head, ("out", out)]

    def run(self, feat, extras, front):
        """(head output, cache) of the trunk output joined with extras."""
        flat, tcache = self.trunk.forward(feat, front)
        y, hcache = forward_layers(self.head, np.concatenate([flat, *extras], axis=1))
        return y, (tcache, hcache)

    def backprop(self, dy, cache):
        """Head, then trunk; returns (d head input, parameter grads)."""
        tcache, hcache = cache
        grads = {}
        dx = backward_layers(self.head, dy, hcache, grads, "mlp.")
        self.trunk.backward(np.ascontiguousarray(dx[:, : self.trunk.flat_dim]), tcache, grads)
        return dx, grads

    def params(self):
        return {**layer_params(self.trunk.layers, "trunk."), **layer_params(self.head, "mlp.")}


class Actor(TrunkHead):
    def __init__(self, spec: NetworkSpec, rng, dtype=np.float32):
        super().__init__(spec, GOAL_DIM, ACTION_DIM, rng, dtype)
        self.tanh = Tanh()

    def forward(self, feat, goal, front=None):
        y, cache = self.run(feat, (goal,), front)
        a, acache = self.tanh.forward(y)
        return ACTION_SCALE * a, (cache, acache, y)

    def backward(self, da, cache, logit_grad=None):
        """logit_grad, when given, is added to the pre-squash gradient;
        the learner uses it to keep logits out of tanh saturation."""
        cache, acache, _ = cache
        dy, _ = self.tanh.backward(da * ACTION_SCALE, acache)
        if logit_grad is not None:
            dy = dy + logit_grad
        return self.backprop(dy, cache)[1]

    @staticmethod
    def logits(cache):
        return cache[2]


class Critic(TrunkHead):
    def __init__(self, spec: NetworkSpec, rng, dtype=np.float32):
        super().__init__(spec, GOAL_DIM + ACTION_DIM, 1, rng, dtype)

    def forward(self, feat, goal, action, front=None):
        q, cache = self.run(feat, (goal, action / ACTION_SCALE), front)
        return q[:, 0], cache

    def backward(self, dq, cache, param_grads=True):
        """Returns (dQ/daction, param grads).

        With param_grads=False only input gradients are computed, through
        the head alone, which is all the actor update needs: the action
        joins after the trunk.
        """
        if param_grads:
            dx, grads = self.backprop(dq[:, None], cache)
        else:
            dx, grads = input_grad_layers(self.head, dq[:, None], cache[1]), {}
        return dx[:, -ACTION_DIM:] / ACTION_SCALE, grads


def load_params(net, arrays: dict) -> None:
    """Copy named arrays into net.params() in place, cast to each
    parameter's dtype.  Raises ValueError naming the parameter when the
    names or shapes differ; nothing is copied then."""
    params = net.params()
    missing = [k for k in params if k not in arrays]
    extra = [k for k in arrays if k not in params]
    if missing or extra:
        raise ValueError(f"parameter names differ: missing {missing}, unexpected {extra}")
    for k, p in params.items():
        if np.shape(arrays[k]) != p.shape:
            raise ValueError(f"parameter {k} has shape {np.shape(arrays[k])}, expected {p.shape}")
    for k, p in params.items():
        p[...] = arrays[k]


def soft_update(target, online, tau: float) -> None:
    tp, op = target.params(), online.params()
    for k in tp:
        tp[k] *= 1.0 - tau
        tp[k] += tau * op[k]


# ---------------------------------------------------------------------------
# Checkpoints: flat npz of named tensors plus a JSON metadata blob


def save_checkpoint(path, named_parts: dict, meta: dict) -> None:
    """named_parts maps a part name (e.g. 'actor') to a params dict."""
    arrays = {}
    for part, params in named_parts.items():
        for k, v in params.items():
            arrays[f"{part}/{k}"] = v
    arrays["__meta__"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8
    )
    np.savez(path, **arrays)


def load_checkpoint(path) -> tuple[dict, dict]:
    """Returns ({part: {name: array}}, meta)."""
    data = np.load(path)
    meta = json.loads(bytes(data["__meta__"]).decode())
    parts: dict = {}
    for key in data.files:
        if key == "__meta__":
            continue
        part, name = key.split("/", 1)
        parts.setdefault(part, {})[name] = data[key]
    return parts, meta


def actor_from_checkpoint(path, dtype=np.float32) -> tuple["Actor", dict]:
    parts, meta = load_checkpoint(path)
    spec = NetworkSpec.from_dict(meta["network_spec"])
    actor = Actor(spec, np.random.default_rng(0), dtype)
    load_params(actor, parts["actor"])
    return actor, meta

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

from .lidar import MotionFeature
from .nn import Conv2d, Dense, MaxPoolW, ReLU, Tanh

ACTION_DIM = 2
GOAL_DIM = 2
ACTION_SCALE = 1.5
RANGE_NORM = 10.0


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


def featurize(obs: MotionFeature, initial_goal_distance: float, dtype=np.float32):
    """Normalize an observation into network inputs."""
    feat = (obs.matrix / RANGE_NORM).astype(dtype)
    dist, bearing = obs.goal_vector
    denom = max(initial_goal_distance, 1e-6)
    goal = np.array([dist / denom, bearing / math.pi], dtype=dtype)
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


class Trunk:
    """The conv stack.  conv1 reads only beams [0, self.beams), the ones
    that can reach the output (trunk_reach), and so computes only the
    columns the pool keeps."""

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
        self.conv1 = layers[0][1]
        self.flat_dim = in_ch * hw[0] * hw[1]

    def conv1_input(self, feat):
        """The (N, H, beams, 1) channels-last view conv1 reads."""
        return feat[:, :, : self.beams, None]

    def im2col1(self, feat):
        """conv1 width patches of feat; reusable by any same-spec trunk."""
        return self.conv1.im2col(self.conv1_input(feat))

    def forward(self, feat, cols1=None, conv1_out=None):
        """conv1_out, when given, is this trunk's (output, cache) of conv1,
        computed elsewhere (see nn.shared_forward)."""
        x = self.conv1_input(feat)
        if conv1_out is None:
            conv1_out = self.conv1.forward(x, cols1)
        x, cache = conv1_out
        caches = [cache]
        for _, layer in self.layers[1:]:
            x, cache = layer.forward(x)
            caches.append(cache)
        n = x.shape[0]
        flat_shape = x.shape
        return x.reshape(n, -1), (caches, flat_shape)

    def backward(self, dflat, cache):
        caches, flat_shape = cache
        dx = dflat.reshape(flat_shape)
        grads = {}
        for (name, layer), lcache in zip(reversed(self.layers), reversed(caches)):
            first = layer is self.conv1
            dx, lgrads = layer.backward(dx, lcache, need_input_grad=not first)
            for k, g in lgrads.items():
                grads[f"{name}.{k}"] = g
        return grads

    def params(self):
        out = {}
        for name, layer in self.layers:
            for k, p in layer.params().items():
                out[f"{name}.{k}"] = p
        return out


class _MLP:
    def __init__(self, dims, rng, dtype=np.float32, out_init=3e-3):
        self.hidden = [Dense(dims[i], dims[i + 1], rng, dtype) for i in range(len(dims) - 2)]
        out = Dense(dims[-2], dims[-1], rng, dtype)
        # small uniform output init keeps early value estimates near zero
        out.W = rng.uniform(-out_init, out_init, out.W.shape).astype(dtype)
        self.out = out
        self.relu = ReLU()

    def forward(self, x):
        caches = []
        for layer in self.hidden:
            x, c1 = layer.forward(x)
            x, c2 = self.relu.forward(x)
            caches.append((c1, c2))
        y, c_out = self.out.forward(x)
        return y, (caches, c_out)

    def backward(self, dy, cache):
        caches, c_out = cache
        grads = {}
        dx, g = self.out.backward(dy, c_out)
        grads["out.W"] = g["W"]
        grads["out.b"] = g["b"]
        for i in range(len(self.hidden) - 1, -1, -1):
            c1, c2 = caches[i]
            dx, _ = self.relu.backward(dx, c2)
            dx, g = self.hidden[i].backward(dx, c1)
            grads[f"fc{i + 1}.W"] = g["W"]
            grads[f"fc{i + 1}.b"] = g["b"]
        return dx, grads

    def params(self):
        out = {}
        for i, layer in enumerate(self.hidden):
            out[f"fc{i + 1}.W"] = layer.W
            out[f"fc{i + 1}.b"] = layer.b
        out["out.W"] = self.out.W
        out["out.b"] = self.out.b
        return out


class Actor:
    def __init__(self, spec: NetworkSpec, rng, dtype=np.float32):
        self.spec = spec
        self.trunk = Trunk(spec, rng, dtype)
        self.mlp = _MLP((self.trunk.flat_dim + GOAL_DIM, *spec.dense, ACTION_DIM), rng, dtype)
        self.tanh = Tanh()

    def forward(self, feat, goal, cols1=None, conv1_out=None):
        flat, tcache = self.trunk.forward(feat, cols1, conv1_out)
        x = np.concatenate([flat, goal], axis=1)
        y, mcache = self.mlp.forward(x)
        a, acache = self.tanh.forward(y)
        return ACTION_SCALE * a, (tcache, mcache, acache, y)

    def backward(self, da, cache, logit_grad=None):
        """logit_grad, when given, is added to the pre-squash gradient;
        the learner uses it to keep logits out of tanh saturation."""
        tcache, mcache, acache, _logits = cache
        dy, _ = self.tanh.backward(da * ACTION_SCALE, acache)
        if logit_grad is not None:
            dy = dy + logit_grad
        dx, grads = self.mlp.backward(dy, mcache)
        flat_dim = self.trunk.flat_dim
        tgrads = self.trunk.backward(np.ascontiguousarray(dx[:, :flat_dim]), tcache)
        out = {f"mlp.{k}": v for k, v in grads.items()}
        out.update({f"trunk.{k}": v for k, v in tgrads.items()})
        return out

    @staticmethod
    def logits(cache):
        return cache[3]

    def params(self):
        out = {f"trunk.{k}": v for k, v in self.trunk.params().items()}
        out.update({f"mlp.{k}": v for k, v in self.mlp.params().items()})
        return out


class Critic:
    def __init__(self, spec: NetworkSpec, rng, dtype=np.float32):
        self.spec = spec
        self.trunk = Trunk(spec, rng, dtype)
        self.mlp = _MLP((self.trunk.flat_dim + GOAL_DIM + ACTION_DIM, *spec.dense, 1), rng, dtype)

    def forward(self, feat, goal, action, cols1=None, conv1_out=None):
        flat, tcache = self.trunk.forward(feat, cols1, conv1_out)
        x = np.concatenate([flat, goal, action / ACTION_SCALE], axis=1)
        q, mcache = self.mlp.forward(x)
        return q[:, 0], (tcache, mcache)

    def backward(self, dq, cache, param_grads=True):
        """Returns (dQ/daction, param grads).

        With param_grads=False only the head is traversed, which is all
        the actor update needs: the action joins after the trunk.
        """
        tcache, mcache = cache
        dx, grads = self.mlp.backward(dq[:, None], mcache)
        daction = dx[:, -ACTION_DIM:] / ACTION_SCALE
        if not param_grads:
            return daction, {}
        flat_dim = self.trunk.flat_dim
        tgrads = self.trunk.backward(np.ascontiguousarray(dx[:, :flat_dim]), tcache)
        out = {f"mlp.{k}": v for k, v in grads.items()}
        out.update({f"trunk.{k}": v for k, v in tgrads.items()})
        return daction, out

    def params(self):
        out = {f"trunk.{k}": v for k, v in self.trunk.params().items()}
        out.update({f"mlp.{k}": v for k, v in self.mlp.params().items()})
        return out


def copy_params(src, dst) -> None:
    sp, dp = src.params(), dst.params()
    for k in sp:
        dp[k][...] = sp[k]


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
    ap = actor.params()
    for k, v in parts["actor"].items():
        ap[k][...] = v.astype(dtype)
    return actor, meta

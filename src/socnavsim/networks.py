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

The inputs arrive as Stacks, an observation's (featurize) or a replay
batch's: sweeps held by reference.  gather widens them once into the
array conv1 reads, and every pass of an update over the same
observations reads that array.
"""

from __future__ import annotations

import hashlib
import json
import math
import zipfile
from dataclasses import dataclass

import numpy as np

from .lidar import MotionFeature
from .nn import BLOCK, Conv2d, Dense, MaxPoolW, ReLU, Tanh, conv_stack, conv_stack_backward, scratch_array

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
        """The spec of a to_dict dict; ValueError naming a missing or malformed key."""
        try:
            shape, conv, pool_width, dense = (d[k] for k in ("feature_shape", "conv", "pool_width", "dense"))
        except KeyError as exc:
            raise ValueError(f"network_spec lacks {exc}") from exc
        except TypeError as exc:  # not a mapping
            raise ValueError(f"malformed network_spec: {exc}") from exc
        if type(pool_width) is not int or pool_width < 1:
            raise ValueError(f"network_spec pool_width must be a positive int, got {pool_width!r}")
        rows = conv if isinstance(conv, list) and conv else [conv]  # not a list of rows: refuse it whole
        return NetworkSpec(
            feature_shape=_positive_ints("feature_shape", shape, 2),
            conv=tuple(_positive_ints("conv", row, 5) for row in rows),
            pool_width=pool_width,
            dense=_positive_ints("dense", dense),
        )

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _positive_ints(key: str, value, length: int | None = None) -> tuple[int, ...]:
    """value, a list of positive ints (length of them, if given), as a tuple."""
    if not (isinstance(value, list) and length in (None, len(value))
            and all(type(v) is int and v > 0 for v in value)):
        count = "" if length is None else f"{length} "
        raise ValueError(f"network_spec {key} must be a list of {count}positive ints, got {value!r}")
    return tuple(value)


def default_network_spec(time_rows: int, beams: int) -> NetworkSpec:
    return NetworkSpec(feature_shape=(time_rows, beams))


def goal_input(obs: MotionFeature) -> np.ndarray:
    """The goal distance over its value at the episode's reset and the
    bearing over pi, as float32."""
    dist, bearing = obs.goal_vector
    denom = max(obs.initial_goal_distance, 1e-6)
    return np.array([dist / denom, bearing / math.pi], dtype=np.float32)


@dataclass(frozen=True, eq=False)
class Stacks:
    """N stacks of K shifted sweeps, held by reference: the network
    input of an observation (featurize) or of a replay batch
    (ddpg.ReplayBuffer.sample).

    Row k of stack n is sweep sweeps[slots[n, k]] calibrated the way
    lidar.MotionFeature's rows are: beam i reads beam i + shifts[n, k]
    of the sweep, and beams outside it read fill (RANGE_MAX
    normalized).  copy_to is the one place that applies this rule.
    Slicing takes a block of stacks, and gather copies the rows block by
    block into conv1's input array.
    """

    sweeps: np.ndarray  # (S, B)
    slots: np.ndarray  # (N, K) rows of sweeps
    shifts: np.ndarray  # (N, K)
    fill = 1.0

    @property
    def shape(self) -> tuple[int, int, int]:
        return (*self.slots.shape, self.sweeps.shape[1])

    def __len__(self) -> int:
        return len(self.slots)

    def __getitem__(self, block: slice) -> "Stacks":
        return Stacks(self.sweeps, self.slots[block], self.shifts[block])

    def copy_to(self, out) -> None:
        """Rows [n, k, :W] of every stack into out (n, K, W[, 1]), cast to
        out's dtype.

        Each row's sweep goes into a 'gather' scratch row with as many
        fill values on each side as the widest shift needs (a shift is
        clamped to [-W, B], past which a row is all fill), so every
        shifted window of W beams lies inside its row, and one fancy
        index reads all the windows.
        """
        w = out.shape[2]
        b = self.sweeps.shape[1]
        shifts = self.shifts.reshape(-1)
        lo, hi = int(shifts.min()), int(shifts.max())
        if lo < -w or hi > b:
            shifts = np.maximum(np.minimum(shifts, b), -w)
            lo, hi = max(lo, -w), min(hi, b)
        left = max(0, -lo)
        width = left + b + max(0, hi + w - b)
        pad = scratch_array("gather", (len(shifts), width), self.sweeps.dtype)
        pad[:, :left] = self.fill
        pad[:, left + b :] = self.fill
        np.take(self.sweeps, self.slots.reshape(-1), axis=0, out=pad[:, left : left + b], mode="clip")
        size = pad.itemsize
        windows = np.ndarray((pad.size - w + 1, w), pad.dtype, pad, strides=(size, size))
        starts = np.arange(left, pad.size, width) + shifts  # each window's first element
        rows, dest = windows[starts], out.reshape(len(shifts), w)
        half = rows.view(np.uint16) if rows.dtype == np.float16 and dest.dtype == np.float32 else None
        if half is not None and half.min() >= 0x0400 and half.max() < 0x7C00:
            # positive normal halves, as every normalized range is: the float32
            # of equal value holds the half's exponent and mantissa bits 13
            # places up, its exponent bias 112 higher; 5x faster than a cast
            bits = dest.view(np.uint32)
            np.left_shift(half, 13, out=bits, dtype=np.uint32)
            bits += np.uint32(112 << 23)
        else:
            np.copyto(dest, rows)


def gather(feat, trunk) -> np.ndarray:
    """conv1's input for feat: an array as it is, or a Stacks' rows
    gathered by copy_to, BLOCK stacks at a time so that its scratch holds
    a block, into a new (N, K, trunk.beams) array of the trunk's dtype."""
    if isinstance(feat, np.ndarray):
        return feat
    n, k, _ = feat.shape
    out = np.empty((n, k, trunk.beams), trunk.conv1.W.dtype)
    for lo in range(0, n, BLOCK):
        feat[lo : lo + BLOCK].copy_to(out[lo : lo + BLOCK])
    return out


def featurize(obs: MotionFeature):
    """An observation as network inputs: a one-sample Stacks of its
    scans' normalized rows (each made once per scan, lidar.Scan) and its
    shifts, and the goal (goal_input)."""
    rows = np.stack([scan.normalized for scan in obs.scans])
    return Stacks(rows, np.arange(len(rows))[None], np.array(obs.shifts)[None]), goal_input(obs)


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


def forward_layers(layers, x):
    """Run x through (name, layer) pairs in order; returns (output,
    caches)."""
    caches = []
    for _, layer in layers:
        x, cache = layer.forward(x)
        caches.append(cache)
    return x, caches


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
    """The conv stack: conv1, the pool, then the (name, layer) pairs of
    rest (relu1, conv2, relu2 with the default spec), all run over
    sample blocks (nn.conv_stack, through fronts).  conv1 reads only
    beams [0, self.beams), the ones that can reach the output
    (trunk_reach), and so computes only the columns the pool keeps."""

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
        self.out_shape = (*hw, in_ch)
        self.flat_dim = math.prod(self.out_shape)

    def backward(self, dflat, cache, grads) -> None:
        """Parameter gradients into grads as 'trunk.<layer>.<key>', from
        the gradient (N, flat_dim) of the flat output of a front made for
        backprop; dflat may be a view of wider rows."""
        dy = dflat.reshape(len(dflat), *self.out_shape)
        conv1, rest = conv_stack_backward(self.conv1, self.pool, self.rest, dy, cache)
        for name, layer_grads in (("conv1", conv1), *rest.items()):
            for k, g in layer_grads.items():
                grads[f"trunk.{name}.{k}"] = g


def fronts(nets, feat, backprop):
    """(head input (N, in_dim), cache) of each of nets (TrunkHeads of one
    spec) on feat, a Stacks (gathered first) or an (N, K, B) array.  The
    whole trunk runs over sample blocks (nn.conv_stack), and the trunks
    share each block's conv1 patches and tap GEMMs.  Each trunk's relu2
    writes its output straight into the first flat_dim columns of its
    head input; the head's run fills the other columns.  backprop has
    one flag per net: only a front made with it can be backpropagated
    (its cache is None otherwise)."""
    trunks = [net.trunk for net in nets]
    x = gather(feat, trunks[0])
    n = len(x)
    inputs = [np.empty((n, net.in_dim), net.dtype) for net in nets]
    outs = [inp[:, : t.flat_dim].reshape(n, *t.out_shape) for inp, t in zip(inputs, trunks)]
    caches = conv_stack([t.conv1 for t in trunks], trunks[0].pool, [t.rest for t in trunks], x, backprop, outs)
    return list(zip(inputs, caches))


class TrunkHead:
    """The trunk, then a dense head over its flat output joined with
    extra inputs.  Parameters are named 'trunk.<layer>.<key>' and
    'mlp.<layer>.<key>'; the head's layers are fc1, fc2, ... and out."""

    def __init__(self, spec: NetworkSpec, extra_dim: int, out_dim: int, rng, dtype):
        self.spec = spec
        self.dtype = np.dtype(dtype)
        self.trunk = Trunk(spec, rng, dtype)
        self.in_dim = self.trunk.flat_dim + extra_dim
        dims = (self.in_dim, *spec.dense, out_dim)
        head = []
        for i in range(len(dims) - 2):
            head += [(f"fc{i + 1}", Dense(dims[i], dims[i + 1], rng, dtype)), (f"relu{i + 1}", ReLU())]
        out = Dense(dims[-2], dims[-1], rng, dtype)
        # small uniform output init keeps early value estimates near zero
        out.W = rng.uniform(-OUT_INIT, OUT_INIT, out.W.shape).astype(dtype)
        self.head = [*head, ("out", out)]

    def run(self, feat, extras, front):
        """(head output, cache) of the trunk output joined with extras,
        which fill the head input's columns after the trunk's, in order.
        front, when given, is this net's entry of a fronts() call made
        together with other nets, and serves this one call; else the
        trunk runs alone, for backprop."""
        x, tcache = front if front is not None else fronts((self,), feat, (True,))[0]
        col = self.trunk.flat_dim
        for extra in extras:
            x[:, col : col + extra.shape[1]] = extra
            col += extra.shape[1]
        y, hcache = forward_layers(self.head, x)
        return y, (tcache, hcache)

    def backprop(self, dy, cache):
        """Head, then trunk; returns (d head input, parameter grads)."""
        tcache, hcache = cache
        grads = {}
        dx = backward_layers(self.head, dy, hcache, grads, "mlp.")
        self.trunk.backward(dx[:, : self.trunk.flat_dim], tcache, grads)
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

    def act(self, feat, goal):
        """The actions alone, from a front that keeps no backprop caches."""
        return self.forward(feat, goal, fronts((self,), feat, (False,))[0])[0]

    def backward(self, da, cache, logit_penalty):
        """Parameter gradients from da, the actions' gradient, plus the
        pull of logit_penalty * sum(y**2) / N on the N samples'
        pre-squash logits y, which keeps them out of tanh saturation."""
        cache, acache, y = cache
        dy, _ = self.tanh.backward(da * ACTION_SCALE, acache)
        dy = dy + (2.0 * logit_penalty / len(da)) * y
        return self.backprop(dy, cache)[1]


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
    """Returns ({part: {name: array}}, meta).  Raises ValueError for a
    file that is not a checkpoint, OSError for one that cannot be read;
    the file is closed on every path."""
    with open(path, "rb") as f:
        try:
            data = np.load(f)
        except (ValueError, zipfile.BadZipFile) as exc:  # ValueError: not a numpy file
            raise ValueError(f"not a checkpoint: {exc}") from exc
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ValueError("not a checkpoint: it has no __meta__ entry")
        with data:
            if "__meta__" not in data.files:
                raise ValueError("not a checkpoint: it has no __meta__ entry")
            meta = json.loads(bytes(data["__meta__"]).decode())
            parts: dict = {}
            for key in data.files:
                if key == "__meta__":
                    continue
                part, slash, name = key.partition("/")
                if not slash:
                    raise ValueError(f"not a checkpoint: its entry {key!r} names no part (as 'actor/...')")
                parts.setdefault(part, {})[name] = data[key]
    return parts, meta


def actor_from_checkpoint(path) -> tuple["Actor", dict]:
    parts, meta = load_checkpoint(path)
    if "network_spec" not in meta or "actor" not in parts:
        raise ValueError("not an actor checkpoint: it needs a network_spec and actor parameters")
    spec = NetworkSpec.from_dict(meta["network_spec"])
    actor = Actor(spec, np.random.default_rng(0))
    load_params(actor, parts["actor"])
    return actor, meta

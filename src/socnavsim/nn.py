"""Minimal numpy neural-network layers with hand-written backprop.

Layers are functional: forward returns (output, cache) and backward
takes (grad_out, cache), so one layer instance can serve several passes
per update without cache aliasing.  float32 for training speed; tests
rebuild the same layers in float64 for finite-difference checks.

A convolution stack (the trunk: conv1, a width pool, then more layers)
runs over sample blocks: conv_stack and conv_stack_backward.  conv1 and
the pool run over blocks of BLOCK samples, whose patches and conv
outputs are the widest arrays of the stack; the rest layers (relu1,
conv2, relu2) over blocks of REST_BLOCK samples.  A block's patches,
conv outputs and their gradients live in scratch buffers (scratch_array)
that every call reuses, and only the stack's output, each pool window's
winner offset and the activations that backward reads are kept for the
batch.  So no scratch buffer grows with the batch: the working set is a
few blocks of conv output, not a few batches of it (the memory-efficient
lowering of MEC, Cho & Brand, arXiv 1706.06873, applied to every layer
of the stack).  Weight and bias gradients are summed per sample in
sample order across the blocks, equal to a whole-batch backward's bit
for bit.
"""

from __future__ import annotations

import math

import numpy as np

# Adam's moment decay rates and denominator floor
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8

# samples per conv1 and pool block of conv_stack.  In batch-128 updates
# (2-core x86, one BLAS thread) 8 and 16 tied as fastest; 4 was 9% slower
# at 180 beams and 32 18% slower at 1080.  8 keeps the scratch smaller.
BLOCK = 8
# samples per block of the layers after the pool, whose arrays are a
# pool-width times narrower than conv1's: fewer, larger conv2 GEMMs and
# half the im2col calls.  A multiple of BLOCK.  16 and 32 tied at 180
# and 1080 beams; with 16 a batch of 16 already fills a block, so the
# scratch of such a batch is that of any larger one.
REST_BLOCK = 16


# Scratch arrays that calls reuse, so that steady-state calls touch no
# new pages: one flat buffer per (name, dtype), which only grows.  Each
# scratch array is used only within a single forward, backward or
# block of a conv_stack or conv_stack_backward call, so every layer in
# the process shares them.
_SCRATCH = {}


def scratch_array(name, shape, dtype):
    """An array of the given shape, cut from the buffer kept under
    (name, dtype).  Its contents are undefined, and it is valid until the
    next scratch_array call with the same name."""
    size = math.prod(shape)
    key = (name, np.dtype(dtype))
    buf = _SCRATCH.get(key)
    if buf is None or buf.size < size:
        buf = _SCRATCH[key] = np.empty(size, dtype)
    return buf[:size].reshape(shape)


class Dense:
    def __init__(self, in_dim, out_dim, rng, dtype=np.float32):
        self.W = rng.normal(0.0, math.sqrt(2.0 / in_dim), (in_dim, out_dim)).astype(dtype)
        self.b = np.zeros(out_dim, dtype=dtype)

    def forward(self, x):
        return x @ self.W + self.b, x

    def backward(self, dy, cache):
        x = cache
        return self.input_grad(dy, cache), {"W": x.T @ dy, "b": dy.sum(axis=0)}

    def input_grad(self, dy, cache):
        """backward's input gradient alone, without the parameter gradients."""
        return dy @ self.W.T

    def params(self):
        return {"W": self.W, "b": self.b}


class Conv2d:
    """Valid-padding 2-D convolution as one GEMM per time tap.

    Channels-last layout (N, H, W, C).  im2col copies each kw-column
    window of every input row once, as width patches (N, H, OW, kw*C).
    Output row r is the sum over time taps i of the patches of input row
    r*sh + i times tap i's (kw*C, out) slice of the weights, so each tap
    reads a row-shifted view of the same patches and no input row is
    copied once per tap.  W keeps the (C, kh, kw) row order of a single
    im2col GEMM, the layout checkpoints store; taps() reorders it.
    Kernel extents wider than the input are clamped at construction so
    one architecture spec serves any beam count.

    The patches live in a scratch buffer: the cache is the input,
    and backward rebuilds them from it.  The same methods serve a whole
    batch and one sample block of conv_stack, where backward adds each
    block's gradients to the totals of the blocks before it.
    """

    def __init__(self, in_ch, out_ch, kernel, stride, in_hw, rng, dtype=np.float32):
        kh = min(kernel[0], in_hw[0])
        kw = min(kernel[1], in_hw[1])
        self.kernel = (kh, kw)
        self.stride = stride
        self.in_ch = in_ch
        self.out_ch = out_ch
        self.in_hw = in_hw
        self.out_hw = (
            (in_hw[0] - kh) // stride[0] + 1,
            (in_hw[1] - kw) // stride[1] + 1,
        )
        fan_in = in_ch * kh * kw
        self.W = rng.normal(0.0, math.sqrt(2.0 / fan_in), (fan_in, out_ch)).astype(dtype)
        self.b = np.zeros(out_ch, dtype=dtype)

    def im2col(self, x):
        """Width patches (N, H, OW, kw*C) of an (N, H, W, C) array, in the
        'cols' scratch buffer and the layer's dtype.  Patch [n, h, o] is
        row h's columns o*sw .. o*sw + kw - 1, one contiguous kw*C run of
        a channels-last row."""
        x = np.ascontiguousarray(x)
        kw, sw = self.kernel[1], self.stride[1]
        shape = (*x.shape[:2], self.out_hw[1], kw * self.in_ch)
        step = x.strides[2] * sw
        win = np.ndarray(shape, x.dtype, x, strides=(*x.strides[:2], step, x.itemsize))
        cols = scratch_array("cols", shape, self.W.dtype)
        np.copyto(cols, win)
        return cols

    def taps(self, W=None):
        """W (by default the layer's) as (kh, kw*C, out); tap i multiplies
        input row r*sh + i."""
        kh, kw = self.kernel
        w = (self.W if W is None else W).reshape(self.in_ch, kh, kw, -1).transpose(1, 2, 0, 3)
        return w.reshape(kh, kw * self.in_ch, -1)

    def tap_rows(self, cols, i):
        """Tap i's GEMM rows (N, OH*OW, kw*C): patch rows i, i + sh, ...
        of each sample; a view when sh == 1."""
        oh, ow = self.out_hw
        sh = self.stride[0]
        return cols[:, i : i + oh * sh : sh].reshape(cols.shape[0], oh * ow, -1)

    def forward(self, x, others=(), scratch=False):
        """Returns (output (N, OH, OW, channels), cache = x).

        others are layers of the same geometry computed in the same
        GEMMs: each tap multiplies the patches once by the tap weights of
        this layer and of others, concatenated by column, and the output
        holds this layer's channels, then each of others'.  OpenBLAS
        computes each output element as the same dot product whichever
        other columns ride along, and the taps are summed in the same
        order, so each channel slice equals that layer's own forward bit
        for bit.  With scratch the output is the 'conv' scratch buffer.
        """
        cols = self.im2col(x)
        convs = (self, *others)
        taps = np.concatenate([c.taps() for c in convs], axis=2) if others else self.taps()
        rows = cols.shape[0], self.out_hw[0] * self.out_hw[1], taps.shape[2]
        out = scratch_array("conv", rows, self.W.dtype) if scratch else None
        y = np.matmul(self.tap_rows(cols, 0), taps[0], out=out)
        prod = scratch_array("tap", rows, self.W.dtype)
        for i in range(1, len(taps)):
            y += np.matmul(self.tap_rows(cols, i), taps[i], out=prod)
        y += np.concatenate([c.b for c in convs]) if others else self.b
        return y.reshape(x.shape[0], *self.out_hw, -1), x

    def backward(self, dy, cache, need_input_grad=True, grads=None):
        """Returns (input gradient or None, {"W", "b"} gradients).

        grads, when given, is this layer's gradients over the samples of
        the same batch before dy's (conv_stack_backward's earlier blocks).
        Each sample's weight and bias gradients are then added to those
        totals one after another, in sample order, which is how a
        whole-batch call sums them, so a batch run block by block gets
        the same bits.
        """
        cols = self.im2col(cache)
        n = dy.shape[0]
        kh, kw = self.kernel
        sh, sw = self.stride
        oh, ow = self.out_hw
        dy_rows = dy.reshape(n, oh * ow, self.out_ch)
        lead = 0 if grads is None else 1  # a leading row for the running total
        # cut with room for that row either way, so that a batch of one
        # block takes the scratch of a batch of several
        prods = scratch_array("dW", (1 + n, kw * self.in_ch, self.out_ch), dy.dtype)[1 - lead :]
        dtaps = np.empty((kh, *prods.shape[1:]), dy.dtype)
        totals = None if grads is None else self.taps(grads["W"])
        for i in range(kh):
            if grads is not None:
                prods[0] = totals[i]
            np.matmul(self.tap_rows(cols, i).transpose(0, 2, 1), dy_rows, out=prods[lead:])
            prods.sum(axis=0, out=dtaps[i])
        # (kh, kw, C) rows back to the (C, kh, kw) order of W
        dW = dtaps.reshape(kh, kw, self.in_ch, -1).transpose(2, 0, 1, 3)
        db_rows = dy_rows.reshape(n * oh * ow, self.out_ch)
        if grads is not None:
            rows = scratch_array("db", (1 + len(db_rows), self.out_ch), dy.dtype)
            db_rows = np.concatenate((grads["b"][None], db_rows), out=rows)
        grads = {"W": dW.reshape(self.W.shape), "b": db_rows.sum(axis=0)}
        if not need_input_grad:
            return None, grads
        dcols = scratch_array("dcols", cols.shape, dy.dtype)
        dcols.fill(0.0)
        prod = scratch_array("tap", (n, oh * ow, cols.shape[3]), dy.dtype)
        for i, w in enumerate(self.taps()):
            dcols[:, i : i + oh * sh : sh] += np.matmul(dy_rows, w.T, out=prod).reshape(n, oh, ow, -1)
        dcols = dcols.reshape(*cols.shape[:3], kw, self.in_ch)
        dx = np.zeros((n, *self.in_hw, self.in_ch), dtype=dy.dtype)
        for j in range(kw):
            dx[:, :, j : j + ow * sw : sw, :] += dcols[:, :, :, j, :]
        return dx, grads

    def params(self):
        return {"W": self.W, "b": self.b}


class MaxPoolW:
    """Max pooling along the width axis (N, H, W, C), window = stride.

    The forward pass is a running ``np.maximum`` over the window offsets,
    written into given destinations.  Unless told otherwise it also
    records each window's winner as an int8 offset: the lowest offset
    holding the maximum (the rule of a plain argmax), or -1 when the
    maximum is NaN, so such a window sends no gradient.  The cache is
    those offsets and the input shape; backward sends each output
    gradient to its winner.  Trailing columns that fill no window are
    dropped and get zero gradient; so do the non-winning inputs, as a
    zero carrying the sign of the output gradient, which changes no sum
    it enters.
    """

    def __init__(self, width):
        self.width = width

    def out_width(self, w):
        return max(1, w // self.width)

    def forward(self, x, out):
        """Returns (y, cache).  out is a (y, offsets) pair of
        destinations; with offsets None no winners are recorded and the
        cache is None."""
        n, h, w, c = x.shape
        pw = min(self.width, w)
        ow = w // pw
        v = x[:, :, : ow * pw, :].reshape(n, h, ow, pw, c)
        y, offsets = out
        y[...] = v[:, :, :, 0, :]
        for k in range(1, pw):
            np.maximum(y, v[:, :, :, k, :], out=y)
        if offsets is None:
            return y, None
        offsets.fill(-1)
        open_ = np.ones(y.shape, dtype=bool)  # windows whose winner is not found yet
        for k in range(pw):
            hit = v[:, :, :, k, :] == y
            hit &= open_
            open_ ^= hit
            offsets += hit * np.int8(k + 1)  # -1 becomes k at the first hit
        return y, (offsets, x.shape)

    def backward(self, dy, cache):
        """The input gradient is the 'dpool' scratch buffer."""
        offsets, x_shape = cache
        n, h, ow, c = offsets.shape
        pw = min(self.width, x_shape[2])
        dx = scratch_array("dpool", x_shape, dy.dtype)
        dx[:, :, ow * pw :, :] = 0.0
        dv = dx[:, :, : ow * pw, :].reshape(n, h, ow, pw, c)  # a view: writes land in dx
        for k in range(pw):
            np.multiply(dy, offsets == k, out=dv[:, :, :, k, :])
        return dx, {}

    def params(self):
        return {}


def conv_stack(convs, pool, rests, x, keep, outs):
    """Each conv of convs, then pool, then that conv's rest layers, on
    the same input x, writing each conv's result into its entry of outs.

    The layers in convs share one geometry and read the same (N, H, W, C)
    array x.  conv1 and the pool run over blocks of BLOCK samples, which
    share each tap's GEMM (Conv2d.forward's others); each conv's rest
    layers ((name, layer) pairs, e.g. a ReLU, a second conv and its ReLU)
    then run over blocks of REST_BLOCK samples of its pooled output, and
    the last of them writes straight into the block of outs (its out=).
    keep has one flag per conv: whether its pass will backprop, so that
    its cache must hold the input, the pool's winner offsets per block
    and the rest layers' caches per block.  Returns one cache or None
    per conv.
    """
    lead = convs[0]
    oh, ow = lead.out_hw
    pooled = (oh, pool.out_width(ow))
    caches = [(x, [], []) if k else None for k in keep]
    for lo in range(0, len(x), REST_BLOCK):
        m = min(REST_BLOCK, len(x) - lo)
        ys = [scratch_array(f"pool{j}", (m, *pooled, conv.out_ch), lead.W.dtype) for j, conv in enumerate(convs)]
        for sub in range(0, m, BLOCK):
            z, _ = lead.forward(x[lo + sub : lo + sub + BLOCK], convs[1:], scratch=True)
            c0 = 0
            for j, conv in enumerate(convs):
                y = ys[j][sub : sub + len(z)]
                offsets = np.empty(y.shape, np.int8) if keep[j] else None
                _, pcache = pool.forward(z[..., c0 : c0 + conv.out_ch], out=(y, offsets))
                c0 += conv.out_ch
                if keep[j]:
                    caches[j][1].append(pcache)
        for j, (y, rest) in enumerate(zip(ys, rests)):
            out = outs[j][lo : lo + m]
            rcaches = []
            for _, layer in rest[:-1]:
                y, cache = layer.forward(y)
                rcaches.append(cache)
            if rest:
                y, cache = rest[-1][1].forward(y, out=out)
                rcaches.append(cache)
            else:
                out[...] = y
            if keep[j]:
                caches[j][2].append(rcaches)
    return caches


def conv_stack_backward(conv, pool, rest, dy, cache):
    """Gradients of conv and of its rest layers from the gradient dy of
    its conv_stack output (whose cache must have been kept); no input
    gradient.  Returns (conv's {"W", "b"}, {name: {"W", "b"}} of the
    rest layers that have parameters).

    Per block of REST_BLOCK samples, dy runs back through the rest
    layers; per block of BLOCK samples of that, through the pool, and
    the conv's patches are rebuilt from the block's input.  Each block's
    parameter gradients join the running totals in sample order
    (Conv2d.backward's grads), equal to a whole-batch backward's bit for
    bit.
    """
    x, offsets, rcaches = cache
    grads, totals = None, {}
    for lo, rc in zip(range(0, len(dy), REST_BLOCK), rcaches):
        d = dy[lo : lo + REST_BLOCK]
        for (name, layer), c in zip(reversed(rest), reversed(rc)):
            if layer.params():
                d, totals[name] = layer.backward(d, c, grads=totals.get(name))
            else:
                d = layer.input_grad(d, c)
        for sub in range(0, len(d), BLOCK):
            dz, _ = pool.backward(d[sub : sub + BLOCK], offsets[(lo + sub) // BLOCK])
            _, grads = conv.backward(dz, x[lo + sub : lo + sub + BLOCK], need_input_grad=False, grads=grads)
    return grads, totals


class ReLU:
    """The cache is the output, which is > 0 exactly where the input is
    (NaN included), so the input can be freed after the forward pass."""

    def forward(self, x, out=None):
        """out, when given, is the array the output is written into."""
        y = np.maximum(x, 0.0, out=out)
        return y, y

    def backward(self, dy, cache):
        return self.input_grad(dy, cache), {}

    def input_grad(self, dy, cache):
        return dy * (cache > 0)

    def params(self):
        return {}


class Tanh:
    def forward(self, x):
        y = np.tanh(x)
        return y, y

    def backward(self, dy, cache):
        return dy * (1.0 - cache * cache), {}

    def params(self):
        return {}


class Adam:
    """Standard Adam over a flat dict of named parameter arrays."""

    def __init__(self, params, lr):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads):
        self.t += 1
        b1c = 1.0 - BETA1**self.t
        b2c = 1.0 - BETA2**self.t
        for k, g in grads.items():
            p = self.params[k]
            g = g.astype(p.dtype, copy=False)
            m = self.m[k]
            v = self.v[k]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            p -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + EPS)

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

The REST_BLOCK chunks of a stack are independent but for those sums, so
they run two at a time (in_waves): the calling thread runs one chunk
while one worker thread runs the next, when the process may use two or
more CPUs (usable_cpus, the one parallelism setting; two_way_on).  Each
thread has its own scratch buffers.  A backward chunk returns its
per-sample gradient terms, and the caller adds them to the running
totals in sample order, so the pool changes no bit of any output.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading

import numpy as np

# Adam's moment decay rates and denominator floor
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
# elements per slice of Adam.step's elementwise passes, so that their
# two scratch buffers stay small
ADAM_SLICE = 1 << 16

# samples per conv1 and pool block of conv_stack.  In batch-128 updates
# (2-core x86, one BLAS thread) 8 and 16 tied as fastest; 4 was 9% slower
# at 180 beams and 32 18% slower at 1080.  8 keeps the scratch smaller.
BLOCK = 8
# samples per block of the layers after the pool, whose arrays are a
# pool-width times narrower than conv1's: fewer, larger conv2 GEMMs and
# half the im2col calls.  A multiple of BLOCK.  16 and 32 tied at 180
# and 1080 beams; with 16 a batch of 16 already fills a block, so the
# scratch of such a batch is that of any larger one.  It is also the
# unit of work of the two-way pool.
REST_BLOCK = 16


# Scratch arrays that calls reuse, so that steady-state calls touch no
# new pages; each buffer only grows.  Each thread has its own set, a dict
# of one flat buffer per (name, dtype) on _LOCAL (the pool's worker and
# the caller run blocks at the same time), and each scratch array is
# used only within a single forward, backward or block of a conv_stack
# or conv_stack_backward call, so every layer run by a thread shares
# that thread's set.
_LOCAL = threading.local()


def scratch_array(name, shape, dtype):
    """An array of the given shape, cut from the calling thread's buffer
    kept under (name, dtype).  Its contents are undefined, and it is
    valid until the thread's next scratch_array call with the same name."""
    scratch = getattr(_LOCAL, "scratch", None)
    if scratch is None:
        scratch = _LOCAL.scratch = {}
    size = math.prod(shape)
    key = (name, np.dtype(dtype))
    buf = scratch.get(key)
    if buf is None or buf.size < size:
        buf = scratch[key] = np.empty(size, dtype)
    return buf[:size].reshape(shape)


# The two-way pool: the calling thread plus one worker thread, made at
# first use.
_WORKER = None


def _forget_worker():
    global _WORKER
    _WORKER = None  # a forked child has no worker thread


if hasattr(os, "register_at_fork"):  # where processes can fork
    os.register_at_fork(after_in_child=_forget_worker)


def usable_cpus() -> int:
    """The number of CPUs the process may use: its affinity, else the CPU count, else 1."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def two_way_on() -> bool:
    """Whether the process may use two or more CPUs, so that conv stacks
    run on the two-way pool and crowd episodes on the crowd worker."""
    return usable_cpus() >= 2


def in_waves(tasks):
    """Yields the result of each of tasks (callables of no arguments), in
    order.

    On the two-way pool the tasks run in waves of two: the worker thread
    runs the second of a wave while the caller runs the first, and a
    wave's results are yielded before the next wave starts, so a caller
    that drops each result after use holds at most one wave's.  An
    exception in either task reaches the caller once both have ended.
    The worker runs its task in a copy of the caller's context, so
    numpy's error state (np.errstate) holds there too.  Without the
    pool, or for a single task, each runs on the caller.
    """
    global _WORKER
    if len(tasks) < 2 or not two_way_on():
        for task in tasks:
            yield task()
        return
    if _WORKER is None:
        from concurrent.futures import ThreadPoolExecutor  # imported only by a process that uses the pool

        _WORKER = ThreadPoolExecutor(1, thread_name_prefix="socnavsim-nn")
    for lo in range(0, len(tasks), 2):
        second = _WORKER.submit(contextvars.copy_context().run, tasks[lo + 1]) if lo + 1 < len(tasks) else None
        try:
            results = [tasks[lo]()]
        finally:
            if second is not None:
                second.exception()  # waits for the worker's task to end
        if second is not None:
            results.append(second.result())
        while results:
            yield results.pop(0)


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

    def backward(self, dy, cache, need_input_grad=True, terms=False):
        """Returns (input gradient or None, {"W", "b"} gradients).

        With terms the gradients are returned as their per-sample terms
        instead, for add_terms to sum: each tap's per-sample weight
        products (kh, 1 + N, kw*C, out) after a free leading row, and the
        bias rows (N*OH*OW, out), a view of dy.
        """
        cols = self.im2col(cache)
        n = dy.shape[0]
        kh, kw = self.kernel
        sh, sw = self.stride
        oh, ow = self.out_hw
        dy_rows = dy.reshape(n, oh * ow, self.out_ch)
        prods = np.empty((kh, 1 + n, kw * self.in_ch, self.out_ch), dy.dtype)
        for i in range(kh):
            np.matmul(self.tap_rows(cols, i).transpose(0, 2, 1), dy_rows, out=prods[i, 1:])
        grads = (prods, dy_rows.reshape(n * oh * ow, self.out_ch))
        if not terms:
            grads = self.add_terms(None, grads)
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

    def add_terms(self, grads, terms):
        """The {"W", "b"} gradients of grads, this layer's totals over the
        samples of the same batch before those of terms (None for none),
        plus the per-sample terms of a backward(terms=True).  Each
        sample's terms are added to the totals one after another, in
        sample order, which is how a whole-batch backward sums them, so
        a batch run block by block gets the same bits."""
        prods, rows = terms
        lead = 0 if grads is None else 1  # whether the leading row holds a total
        if grads is not None:
            prods[:, 0] = self.taps(grads["W"])
            buf = scratch_array("db", (1 + len(rows), self.out_ch), rows.dtype)
            rows = np.concatenate((grads["b"][None], rows), out=buf)
        kh, kw = self.kernel
        dtaps = np.empty((kh, *prods.shape[2:]), prods.dtype)
        for i in range(kh):
            prods[i, 1 - lead :].sum(axis=0, out=dtaps[i])
        # (kh, kw, C) rows back to the (C, kh, kw) order of W
        dW = dtaps.reshape(kh, kw, self.in_ch, -1).transpose(2, 0, 1, 3)
        return {"W": dW.reshape(self.W.shape), "b": rows.sum(axis=0)}

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
        # the lowest offset holding the maximum is the number of offsets
        # before it that miss it; a NaN window misses at every offset
        miss = scratch_array("miss", y.shape, bool)  # windows missing at offsets 0..k
        miss_k = scratch_array("miss_k", y.shape, bool)
        np.not_equal(v[:, :, :, 0, :], y, out=miss)
        offsets[...] = miss
        for k in range(1, pw):
            miss &= np.not_equal(v[:, :, :, k, :], y, out=miss_k)
            offsets += miss
        offsets[offsets == pw] = -1
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
    Each REST_BLOCK chunk of samples is one task of in_waves, writing its
    own rows of outs.  keep has one flag per conv: whether its pass will
    backprop, so that its cache must hold the input, the pool's winner
    offsets per block and the rest layers' caches per block, in block
    order.  Returns one cache or None per conv.
    """
    lead = convs[0]
    oh, ow = lead.out_hw
    pooled = (oh, pool.out_width(ow))

    def chunk(lo):
        """Samples [lo, lo + REST_BLOCK); returns per conv its pool
        caches and its rest caches."""
        m = min(REST_BLOCK, len(x) - lo)
        ys = [scratch_array(f"pool{j}", (m, *pooled, conv.out_ch), lead.W.dtype) for j, conv in enumerate(convs)]
        pcaches = [[] for _ in convs]
        for sub in range(0, m, BLOCK):
            z, _ = lead.forward(x[lo + sub : lo + sub + BLOCK], convs[1:], scratch=True)
            c0 = 0
            for j, conv in enumerate(convs):
                y = ys[j][sub : sub + len(z)]
                offsets = np.empty(y.shape, np.int8) if keep[j] else None
                pcaches[j].append(pool.forward(z[..., c0 : c0 + conv.out_ch], out=(y, offsets))[1])
                c0 += conv.out_ch
        rcaches = []
        for j, (y, rest) in enumerate(zip(ys, rests)):
            out = outs[j][lo : lo + m]
            rcaches.append([])
            for _, layer in rest[:-1]:
                y, cache = layer.forward(y)
                rcaches[j].append(cache)
            if rest:
                rcaches[j].append(rest[-1][1].forward(y, out=out)[1])
            else:
                out[...] = y
        return pcaches, rcaches

    caches = [(x, [], []) if k else None for k in keep]
    for pcaches, rcaches in in_waves([lambda lo=lo: chunk(lo) for lo in range(0, len(x), REST_BLOCK)]):
        for cache, pc, rc in zip(caches, pcaches, rcaches):
            if cache is not None:
                cache[1].extend(pc)
                cache[2].append(rc)
    return caches


def conv_stack_backward(conv, pool, rest, dy, cache):
    """Gradients of conv and of its rest layers from the gradient dy of
    its conv_stack output (whose cache must have been kept); no input
    gradient.  Returns (conv's {"W", "b"}, {name: {"W", "b"}} of the
    rest layers that have parameters).

    Per chunk of REST_BLOCK samples, one task of in_waves, dy runs back
    through the rest layers; per block of BLOCK samples of that, through
    the pool, and the conv's patches are rebuilt from the block's input.
    Each chunk returns its per-sample parameter gradient terms, and they
    join the running totals in sample order (Conv2d.add_terms), equal to
    a whole-batch backward's bit for bit.
    """
    x, offsets, rcaches = cache
    layers = dict(rest)

    def chunk(lo, rc):
        d = dy[lo : lo + REST_BLOCK]
        rest_terms = {}
        for (name, layer), c in zip(reversed(rest), reversed(rc)):
            if layer.params():
                d, rest_terms[name] = layer.backward(d, c, terms=True)
            else:
                d = layer.input_grad(d, c)
        conv_terms = []
        for sub in range(0, len(d), BLOCK):
            pcache = offsets[(lo + sub) // BLOCK]
            dz, _ = pool.backward(d[sub : sub + BLOCK], pcache)
            prods, rows = conv.backward(dz, x[lo + sub : lo + sub + BLOCK], need_input_grad=False, terms=True)[1]
            conv_terms.append((prods, _bias_rows(d[sub : sub + BLOCK], pcache, rows)))
        return rest_terms, conv_terms

    grads, totals = None, {}
    tasks = [lambda lo=lo, rc=rc: chunk(lo, rc) for lo, rc in zip(range(0, len(dy), REST_BLOCK), rcaches)]
    for rest_terms, conv_terms in in_waves(tasks):
        for name, terms in rest_terms.items():
            totals[name] = layers[name].add_terms(totals.get(name), terms)
        for terms in conv_terms:
            grads = conv.add_terms(grads, terms)
        # the loop names would keep these alive while the next wave runs
        del rest_terms, conv_terms, terms
    return grads, totals


def _bias_rows(dy, cache, rows):
    """The bias-gradient rows of the conv under the pool for one block, in
    an array that outlives the scratch.  rows, a scratch view, are the
    rows of the pool's input gradient, whose sum in order is the bias
    gradient.

    When every window has a winner and dy (the pool's output gradient) is
    finite, the rows of dy, a pool-width times fewer, sum to the same
    bits: the other rows are zeros, and a numpy sum starts from +0, so no
    partial sum is -0 and adding a zero changes none.  Else a copy of
    rows.
    """
    if cache[0].min() >= 0 and np.isfinite(dy).all():
        return dy.reshape(-1, dy.shape[-1])
    return rows.copy()


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
        """One step of every parameter with a gradient in grads, in place.

        The update runs over slices of ADAM_SLICE elements in two scratch
        buffers, each operation in the order and dtype of the expression
        m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
        p -= lr * (m / b1c) / (sqrt(v / b2c) + EPS)."""
        self.t += 1
        b1c = 1.0 - BETA1**self.t
        b2c = 1.0 - BETA2**self.t
        for k, g in grads.items():
            p = self.params[k]
            g = g.astype(p.dtype, copy=False).reshape(-1)
            # parameters and moments are contiguous, so these are views
            flat = p.reshape(-1), self.m[k].reshape(-1), self.v[k].reshape(-1), g
            for lo in range(0, g.size, ADAM_SLICE):
                self._step_slice(*(a[lo : lo + ADAM_SLICE] for a in flat), b1c, b2c)

    def _step_slice(self, p, m, v, g, b1c, b2c):
        t = scratch_array("adam", g.shape, p.dtype)
        u = scratch_array("adam2", g.shape, p.dtype)
        m *= BETA1
        m += np.multiply(g, 1.0 - BETA1, out=t)
        v *= BETA2
        np.multiply(g, g, out=t)
        v += np.multiply(t, 1.0 - BETA2, out=t)
        np.divide(m, b1c, out=t)
        t *= self.lr
        np.divide(v, b2c, out=u)
        np.sqrt(u, out=u)
        u += EPS
        t /= u
        p -= t

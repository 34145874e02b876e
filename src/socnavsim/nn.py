"""Minimal numpy neural-network layers with hand-written backprop.

Layers are functional: forward returns (output, cache) and backward
takes (grad_out, cache) so one layer instance can serve several passes
per update without cache aliasing.  float32 for training speed; tests
rebuild the same layers in float64 for finite-difference checks.
"""

from __future__ import annotations

import math

import numpy as np


class Dense:
    def __init__(self, in_dim, out_dim, rng, dtype=np.float32, init_scale=None):
        if init_scale is None:
            init_scale = math.sqrt(2.0 / in_dim)
        self.W = rng.normal(0.0, init_scale, (in_dim, out_dim)).astype(dtype)
        self.b = np.zeros(out_dim, dtype=dtype)

    def forward(self, x):
        return x @ self.W + self.b, x

    def backward(self, dy, cache, need_input_grad=True):
        x = cache
        grads = {"W": x.T @ dy, "b": dy.sum(axis=0)}
        dx = dy @ self.W.T if need_input_grad else None
        return dx, grads

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
        """Width patches (N, H, OW, kw*C) of an (N, H, W, C) input.

        Patch [n, h, o] is row h's columns o*sw .. o*sw + kw - 1, one
        contiguous kw*C run of a channels-last row.  It depends only on
        the input, so networks built from the same spec can share it.
        """
        kw, sw = self.kernel[1], self.stride[1]
        win = np.lib.stride_tricks.sliding_window_view(x, kw, axis=2)[:, :, ::sw]
        win = win.transpose(0, 1, 2, 4, 3)  # (N, H, OW, kw, C)
        return np.ascontiguousarray(win).reshape(*x.shape[:2], self.out_hw[1], kw * self.in_ch)

    def taps(self):
        """The weights as (kh, kw*C, out); tap i multiplies input row r*sh + i."""
        kh, kw = self.kernel
        w = self.W.reshape(self.in_ch, kh, kw, -1).transpose(1, 2, 0, 3)
        return w.reshape(kh, kw * self.in_ch, -1)

    def tap_rows(self, cols, i):
        """Tap i's GEMM rows (N, OH*OW, kw*C): patch rows i, i + sh, ...
        of each sample; a view when sh == 1."""
        oh, ow = self.out_hw
        sh = self.stride[0]
        return cols[:, i : i + oh * sh : sh].reshape(cols.shape[0], oh * ow, -1)

    def tap_sum(self, cols, taps, b):
        """(N, OH*OW, out): sum_i tap_rows(cols, i) @ taps[i] in tap order, + b."""
        y = np.matmul(self.tap_rows(cols, 0), taps[0])
        for i in range(1, len(taps)):
            y += np.matmul(self.tap_rows(cols, i), taps[i])
        y += b
        return y

    def forward(self, x, cols=None):
        if cols is None:
            cols = self.im2col(x)
        y = self.tap_sum(cols, self.taps(), self.b)
        return y.reshape(x.shape[0], *self.out_hw, self.out_ch), cols

    def backward(self, dy, cache, need_input_grad=True):
        cols = cache
        n = dy.shape[0]
        kh, kw = self.kernel
        sh, sw = self.stride
        oh, ow = self.out_hw
        dy_rows = dy.reshape(n, oh * ow, self.out_ch)
        dtaps = np.stack([
            np.matmul(self.tap_rows(cols, i).transpose(0, 2, 1), dy_rows).sum(axis=0)
            for i in range(kh)
        ])
        # (kh, kw, C) rows back to the (C, kh, kw) order of W
        dW = dtaps.reshape(kh, kw, self.in_ch, -1).transpose(2, 0, 1, 3)
        grads = {"W": dW.reshape(self.W.shape), "b": dy_rows.sum(axis=(0, 1))}
        if not need_input_grad:
            return None, grads
        dcols = np.zeros(cols.shape, dtype=dy.dtype)
        for i, w in enumerate(self.taps()):
            dcols[:, i : i + oh * sh : sh] += np.matmul(dy_rows, w.T).reshape(n, oh, ow, -1)
        dcols = dcols.reshape(*cols.shape[:3], kw, self.in_ch)
        dx = np.zeros((n, *self.in_hw, self.in_ch), dtype=dy.dtype)
        for j in range(kw):
            dx[:, :, j : j + ow * sw : sw, :] += dcols[:, :, :, j, :]
        return dx, grads

    def params(self):
        return {"W": self.W, "b": self.b}


def shared_forward(convs, cols):
    """``[conv.forward(x, cols) for conv in convs]`` with one GEMM per tap.

    Each time tap multiplies the patches once by the column-concatenated
    tap weights of all the layers.  OpenBLAS computes each output
    element as the same dot product whichever other columns ride along,
    and the taps are summed in the same order, so each column slice
    equals the separate forward call bit for bit (tests/test_policy.py
    gates this).  The outputs are strided views into one shared array.
    """
    taps = np.concatenate([conv.taps() for conv in convs], axis=2)
    prod = convs[0].tap_sum(cols, taps, np.concatenate([conv.b for conv in convs]))
    outs, lo = [], 0
    for conv in convs:
        y = prod[:, :, lo : lo + conv.out_ch].reshape(cols.shape[0], *conv.out_hw, conv.out_ch)
        outs.append((y, cols))
        lo += conv.out_ch
    return outs


class MaxPoolW:
    """Max pooling along the width axis (N, H, W, C), window = stride.

    The forward pass is a running ``np.maximum`` over the window offsets
    and stores no winner index; its cache is the window view of the input
    plus the output.  backward recovers the winners from those, so only
    passes that backprop pay for them.  Ties go to the lowest offset, the
    rule of a plain argmax.  Trailing columns that fill no window are
    dropped and get zero gradient; so do the non-winning inputs, as a
    zero carrying the sign of the output gradient, which changes no sum
    it enters.
    """

    def __init__(self, width):
        self.width = width

    def out_width(self, w):
        return max(1, w // self.width) if w >= self.width else 1

    def forward(self, x):
        n, h, w, c = x.shape
        pw = min(self.width, w)
        ow = w // pw
        v = x[:, :, : ow * pw, :].reshape(n, h, ow, pw, c)
        y = v[:, :, :, 0, :].copy()
        for k in range(1, pw):
            np.maximum(y, v[:, :, :, k, :], out=y)
        return y, (v, y, x.shape)

    def backward(self, dy, cache, need_input_grad=True):
        v, y, x_shape = cache
        covered = v.shape[2] * v.shape[3]
        dx = np.empty(x_shape, dtype=dy.dtype)
        dx[:, :, covered:, :] = 0.0
        dv = dx[:, :, :covered, :].reshape(v.shape)  # a view: writes land in dx
        open_ = np.ones(y.shape, dtype=bool)  # windows whose winner is not found yet
        for k in range(v.shape[3]):
            hit = v[:, :, :, k, :] == y
            hit &= open_
            np.multiply(dy, hit, out=dv[:, :, :, k, :])
            open_ ^= hit
        return dx, {}

    def params(self):
        return {}


class ReLU:
    def forward(self, x):
        return np.maximum(x, 0.0), x

    def backward(self, dy, cache, need_input_grad=True):
        return dy * (cache > 0), {}

    def params(self):
        return {}


class Tanh:
    def forward(self, x):
        y = np.tanh(x)
        return y, y

    def backward(self, dy, cache, need_input_grad=True):
        return dy * (1.0 - cache * cache), {}

    def params(self):
        return {}


class Adam:
    """Standard Adam over a flat dict of named parameter arrays."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads):
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for k, g in grads.items():
            p = self.params[k]
            g = g.astype(p.dtype, copy=False)
            m = self.m[k]
            v = self.v[k]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)

    def state_dict(self):
        out = {"t": np.array(self.t)}
        for k in self.params:
            out[f"m.{k}"] = self.m[k]
            out[f"v.{k}"] = self.v[k]
        return out

    def load_state_dict(self, state):
        self.t = int(state["t"])
        for k in self.params:
            self.m[k] = state[f"m.{k}"].copy()
            self.v[k] = state[f"v.{k}"].copy()

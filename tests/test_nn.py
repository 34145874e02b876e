"""Finite-difference gradient checks for every layer type, in float64."""

import sys
import threading

import numpy as np

import pytest

from socnavsim import nn
from socnavsim.networks import Stacks, Trunk, default_network_spec, gather
from socnavsim.nn import Adam, Conv2d, Dense, MaxPoolW, ReLU, Tanh, conv_stack, conv_stack_backward

from conftest import (
    StandalonePool,
    adam_oracle_step,
    cpus,
    numeric_gradient,
    reference_conv2d,
    stacks_array,
    whole_batch_conv_stack,
    whole_batch_conv_stack_backward,
)


def rel_err(a, b):
    denom = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-8)
    return np.max(np.abs(a - b)) / denom


def check_param_grads(layer, x, params, rng):
    """Compare backward() param grads against central differences of a
    random linear functional of the output."""
    y0, _ = layer.forward(x)
    r = rng.normal(size=y0.shape)

    def loss():
        y, _ = layer.forward(x)
        return float(np.sum(y * r))

    _, cache = layer.forward(x)
    _, grads = layer.backward(r, cache)
    for name, p in params.items():
        num = numeric_gradient(loss, p)
        assert rel_err(grads[name], num) < 1e-4, name


def check_input_grad(layer, x, rng):
    y0, cache = layer.forward(x)
    r = rng.normal(size=y0.shape)
    dx, _ = layer.backward(r, cache)

    def loss():
        y, _ = layer.forward(x)
        return float(np.sum(y * r))

    num = numeric_gradient(loss, x)
    assert rel_err(dx, num) < 1e-4


class TestLayerGradients:
    def test_dense(self, rng):
        layer = Dense(7, 5, rng, dtype=np.float64)
        x = rng.normal(size=(4, 7))
        check_param_grads(layer, x, layer.params(), rng)
        check_input_grad(layer, x, rng)

    def test_conv2d(self, rng):
        layer = Conv2d(2, 3, (2, 5), (1, 2), (4, 16), rng, dtype=np.float64)
        x = rng.normal(size=(3, 4, 16, 2))
        check_param_grads(layer, x, layer.params(), rng)
        check_input_grad(layer, x, rng)

    def test_conv2d_strided_both_axes(self, rng):
        layer = Conv2d(3, 2, (3, 4), (2, 3), (8, 14), rng, dtype=np.float64)
        x = rng.normal(size=(2, 8, 14, 3))
        check_param_grads(layer, x, layer.params(), rng)
        check_input_grad(layer, x, rng)

    def test_conv2d_kernel_clamped(self, rng):
        layer = Conv2d(1, 2, (3, 50), (1, 8), (4, 16), rng, dtype=np.float64)
        assert layer.kernel == (3, 16)
        x = rng.normal(size=(2, 4, 16, 1))
        check_param_grads(layer, x, layer.params(), rng)
        check_input_grad(layer, x, rng)

    def test_maxpool(self, rng):
        layer = StandalonePool(3)
        x = rng.normal(size=(3, 2, 10, 4))
        check_input_grad(layer, x, rng)

    def test_maxpool_output_matches_numpy(self, rng):
        layer = StandalonePool(4)
        x = rng.normal(size=(2, 3, 16, 5))
        y, _ = layer.forward(x)
        ref = x.reshape(2, 3, 4, 4, 5).max(axis=3)
        assert np.array_equal(y, ref)

    def test_relu(self, rng):
        layer = ReLU()
        x = rng.normal(size=(5, 9)) + 0.05  # keep away from the kink
        check_input_grad(layer, x, rng)

    def test_tanh(self, rng):
        layer = Tanh()
        x = rng.normal(size=(5, 9))
        check_input_grad(layer, x, rng)


class TestConvOracle:
    """Conv2d.forward against explicit loops over W in (C, kh, kw) row
    order, so a consistently mis-permuted tap layout cannot pass."""

    @staticmethod
    def check(layer, rng, n=2):
        layer.b[...] = rng.normal(size=layer.b.shape)
        x = rng.normal(size=(n, *layer.in_hw, layer.in_ch))
        y, _ = layer.forward(x)
        ref = reference_conv2d(x, layer.W, layer.b, layer.kernel, layer.stride)
        assert y.shape == ref.shape
        np.testing.assert_allclose(y, ref, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("beams", [180, 1080])
    def test_default_trunk_layers(self, rng, beams):
        trunk = Trunk(default_network_spec(40, beams), rng, dtype=np.float64)
        convs = [layer for name, layer in trunk.layers if name.startswith("conv")]
        assert len(convs) == 2
        for layer in convs:
            self.check(layer, rng)

    def test_multichannel_strided_both_axes(self, rng):
        # trailing rows and columns that no window reaches
        self.check(Conv2d(3, 4, (3, 5), (2, 3), (10, 21), rng, dtype=np.float64), rng, n=3)

    def test_kernel_clamped(self, rng):
        layer = Conv2d(1, 2, (3, 50), (1, 8), (4, 16), rng, dtype=np.float64)
        assert layer.kernel == (3, 16)
        self.check(layer, rng)


def ring_stacks(rng, n, k, beams):
    """Stacks over a float16 ring of normalized sweeps, as a replay batch
    holds them: rows drawn from the ring, shifts of both signs and some
    of at least the sweep's length."""
    ring = rng.uniform(0.01, 1.0, (3 * n * k, beams)).astype(np.float16)
    shifts = rng.integers(-beams // 2, beams // 2, (n, k), dtype=np.int16)
    shifts[:, ::7] = rng.choice([-beams - 3, -beams, beams, beams + 5], (n, len(range(0, k, 7))))
    return Stacks(ring, rng.integers(0, len(ring), (n, k), dtype=np.int32), shifts)


def outputs(trunks, n):
    """One conv_stack output array per trunk, for n samples."""
    return [np.full((n, *t.out_shape), np.nan, np.float32) for t in trunks]


class TestBlockedConvPool:
    """nn.conv_stack and conv_stack_backward (conv1 and the pool, then
    relu1, conv2 and relu2, in sample blocks, shared conv1 tap GEMMs, int8
    winner offsets) against the whole-batch, one-layer-at-a-time oracle
    in conftest, bit for bit: on a float16 ring of shifted sweeps, which
    the library gathers (networks.gather) and the oracle materializes
    row by row, and on a plain float32 array."""

    @pytest.mark.parametrize("beams, n", [(180, 1), (180, 7), (180, 17), (180, 128), (1080, 7), (1080, 17)])
    @pytest.mark.parametrize("dtype", [np.float16, np.float32])
    def test_matches_whole_batch(self, rng, beams, n, dtype):
        spec = default_network_spec(40, beams)
        trunks = [Trunk(spec, rng) for _ in range(2)]
        for trunk in trunks:
            for _, layer in trunk.layers:
                if isinstance(layer, Conv2d):
                    layer.b[...] = rng.normal(0.0, 0.1, layer.b.shape)
        if dtype == np.float16:
            x = ring_stacks(rng, n, 40, beams)
        else:
            x = rng.uniform(0.01, 1.0, (n, 40, beams)).astype(dtype)
        args = ([t.conv1 for t in trunks], trunks[0].pool, [t.rest for t in trunks])
        got, want = outputs(trunks, n), outputs(trunks, n)
        caches = conv_stack(*args, gather(x, trunks[0]), (True, True), got)
        caches_ref = whole_batch_conv_stack(*args, x, (True, True), want)
        for trunk, y, cache, y_ref, cache_ref in zip(trunks, got, caches, want, caches_ref):
            assert y.tobytes() == y_ref.tobytes()
            dy = rng.normal(size=y.shape).astype(np.float32)
            grads, rest = conv_stack_backward(trunk.conv1, trunk.pool, trunk.rest, dy, cache)
            ref, rest_ref = whole_batch_conv_stack_backward(trunk.conv1, trunk.pool, trunk.rest, dy, cache_ref)
            assert rest.keys() == rest_ref.keys() == {"conv2"}
            for got_grads, ref_grads in ((grads, ref), (rest["conv2"], rest_ref["conv2"])):
                for k in ("W", "b"):
                    assert got_grads[k].shape == ref_grads[k].shape
                    assert got_grads[k].tobytes() == ref_grads[k].tobytes(), k

    def test_no_winners_no_cache(self, rng):
        trunk = Trunk(default_network_spec(40, 180), rng)
        x = gather(ring_stacks(rng, 9, 40, 180), trunk)
        (y,), (y_ref,) = outputs([trunk], 9), outputs([trunk], 9)
        cache, = conv_stack([trunk.conv1], trunk.pool, [trunk.rest], x, (False,), [y])
        conv_stack([trunk.conv1], trunk.pool, [trunk.rest], x, (True,), [y_ref])
        assert cache is None and y.tobytes() == y_ref.tobytes()


def stack_and_grads(trunks, x, dys):
    """conv_stack over trunks on x, then each trunk's conv_stack_backward
    from its entry of dys: (outputs, [(conv1 grads, rest grads)])."""
    args = ([t.conv1 for t in trunks], trunks[0].pool, [t.rest for t in trunks])
    ys = outputs(trunks, len(x))
    caches = conv_stack(*args, x, (True,) * len(trunks), ys)
    grads = [conv_stack_backward(t.conv1, t.pool, t.rest, dy, c) for t, dy, c in zip(trunks, dys, caches)]
    return ys, grads


def stack_arrays(result):
    """The outputs and every gradient array of a stack_and_grads result."""
    ys, grads = result
    return [*ys, *(g for conv1, rest in grads for g in (*conv1.values(), *rest["conv2"].values()))]


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestTwoWay:
    """The two-way pool (nn.in_waves: the caller and one worker thread run
    REST_BLOCK chunks two at a time) changes no bit of conv_stack's
    outputs or conv_stack_backward's gradients, whatever the batch's
    wave shape, next to the whole-batch oracle; NaN pool windows and
    non-finite gradients take the full-row bias sum."""

    CASES = [(180, 1), (180, 17), (180, 40), (180, 128), (1080, 1), (1080, 17), (1080, 40), (1080, 128)]

    @pytest.mark.parametrize("beams, n, bad", [(b, n, None) for b, n in CASES]
                             + [(180, 40, "nan_window"), (1080, 17, "nan_window"), (180, 17, "inf_grad")])
    def test_same_bits_on_and_off(self, rng, beams, n, bad):
        spec = default_network_spec(40, beams)
        trunks = [Trunk(spec, rng) for _ in range(2)]
        for trunk in trunks:
            for _, layer in trunk.layers:
                if isinstance(layer, Conv2d):
                    layer.b[...] = rng.normal(0.0, 0.1, layer.b.shape)
        x = ring_stacks(rng, n, 40, beams)
        dys = [rng.normal(size=(n, *t.out_shape)).astype(np.float32) for t in trunks]
        if bad == "nan_window":
            x.sweeps[x.slots[n // 2, 5]] = np.nan  # every conv1 window of a row
        elif bad == "inf_grad":
            dys[0][n - 1, 0, 0, 3] = np.inf
        results = {}
        for on in (True, False):
            with cpus(2 if on else 1), np.errstate(invalid="ignore"):  # inf * 0 in the gradients
                results[on] = stack_and_grads(trunks, gather(x, trunks[0]), dys)
        (ys, grads), (ys_off, grads_off) = results[True], results[False]
        for y, y_off in zip(ys, ys_off):
            assert same_bits(y, y_off)
        for (conv1, rest), (conv1_off, rest_off) in zip(grads, grads_off):
            assert rest.keys() == rest_off.keys() == {"conv2"}
            for got, want in ((conv1, conv1_off), (rest["conv2"], rest_off["conv2"])):
                for k in ("W", "b"):
                    assert same_bits(got[k], want[k]), k
        if bad == "nan_window":
            assert np.isnan(ys[0][n // 2]).any() and not np.isnan(ys[0][n // 2 - 1]).any()
        if n * beams > 40 * 180:
            return  # the oracle's whole-batch patches would take too much memory
        args = ([t.conv1 for t in trunks], trunks[0].pool, [t.rest for t in trunks])
        want = outputs(trunks, n)
        caches_ref = whole_batch_conv_stack(*args, x, (True, True), want)
        for trunk, y, y_ref, dy, cache_ref, (conv1, rest) in zip(trunks, ys, want, dys, caches_ref, grads):
            assert same_bits(y, y_ref)
            with np.errstate(invalid="ignore"):
                ref, rest_ref = whole_batch_conv_stack_backward(trunk.conv1, trunk.pool, trunk.rest, dy, cache_ref)
            for got, ref_grads in ((conv1, ref), (rest["conv2"], rest_ref["conv2"])):
                for k in ("W", "b"):
                    assert same_bits(got[k], ref_grads[k].astype(np.float32)), k

    @pytest.mark.parametrize("width", [39, 33])
    @pytest.mark.parametrize("bad", [None, "nan_window", "inf_grad"])
    def test_pool_without_rest_layers(self, rng, width, bad):
        """conv1 and the pool alone, so that the pool's output gradient
        reaches conv1 as given: with trailing conv columns the pool drops
        (width 39: 19 columns, 3 dropped) or none (33: 16 columns), a NaN
        window, which gets no gradient, or an infinite output gradient,
        whose zero products are NaN.  On and off the pool, three chunks
        keep the whole-batch oracle's bits."""
        conv = Conv2d(1, 4, (2, 3), (1, 2), (5, width), rng)
        conv.b[...] = rng.normal(size=4)
        pool = MaxPoolW(4)
        x = rng.normal(size=(40, 5, width)).astype(np.float32)
        dy = rng.normal(size=(40, 4, 4, 4)).astype(np.float32)
        if bad == "nan_window":
            x[21, 2, 7] = np.nan
        elif bad == "inf_grad":
            dy[33, 1, 2, 0] = np.inf
        want = np.empty_like(dy)
        cache_ref, = whole_batch_conv_stack([conv], pool, [[]], x, (True,), [want])
        with np.errstate(invalid="ignore"):
            ref, _ = whole_batch_conv_stack_backward(conv, pool, [], dy, cache_ref)
        for on in (True, False):
            y = np.empty_like(dy)
            with cpus(2 if on else 1), np.errstate(invalid="ignore"):
                cache, = conv_stack([conv], pool, [[]], x[..., None], (True,), [y])
                grads, _ = conv_stack_backward(conv, pool, [], dy, cache)
            assert same_bits(y, want)
            assert same_bits(grads["W"], ref["W"]) and same_bits(grads["b"], ref["b"])
        if bad == "nan_window":
            assert np.isnan(want[21]).any()
        elif bad == "inf_grad":
            assert np.isnan(ref["b"][0])

    def test_worker_exception_reaches_caller(self, rng, monkeypatch):
        """An exception raised in the worker's chunk reaches the caller,
        and the pool serves the next call."""
        trunk = Trunk(default_network_spec(40, 180), rng)
        x = rng.uniform(0.01, 1.0, (32, 40, trunk.beams)).astype(np.float32)
        caller, real_forward = threading.get_ident(), Conv2d.forward

        def forward(layer, *args, **kwargs):
            if threading.get_ident() != caller:
                raise RuntimeError("worker chunk failed")
            return real_forward(layer, *args, **kwargs)

        with cpus(2):
            monkeypatch.setattr(Conv2d, "forward", forward)
            with pytest.raises(RuntimeError, match="worker chunk failed"):
                conv_stack([trunk.conv1], trunk.pool, [trunk.rest], x, (True,), outputs([trunk], 32))
            monkeypatch.undo()
            (y,), (y_off,) = outputs([trunk], 32), outputs([trunk], 32)
            conv_stack([trunk.conv1], trunk.pool, [trunk.rest], x, (True,), [y])
        with cpus(1):
            conv_stack([trunk.conv1], trunk.pool, [trunk.rest], x, (True,), [y_off])
        assert same_bits(y, y_off)

    def test_callers_on_more_threads_than_cores(self, rng):
        """Four threads, each with its own trunks and batch, run conv
        stacks on the one shared worker at once under a short switch
        interval: every result keeps its inline bits, as each thread cuts
        its blocks from scratch buffers of its own."""
        spec = default_network_spec(40, 180)
        jobs = []
        for _ in range(4):
            trunks = [Trunk(spec, rng) for _ in range(2)]
            x = rng.uniform(0.01, 1.0, (40, 40, trunks[0].beams)).astype(np.float32)
            dys = [rng.normal(size=(40, *t.out_shape)).astype(np.float32) for t in trunks]
            with cpus(1):
                jobs.append((trunks, x, dys, stack_and_grads(trunks, x, dys)))
        mismatches = []

        def run(trunks, x, dys, want):
            for _ in range(3):
                got = stack_arrays(stack_and_grads(trunks, x, dys))
                mismatches.extend(i for i, (a, b) in enumerate(zip(got, stack_arrays(want))) if not same_bits(a, b))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with cpus(2):
                threads = [threading.Thread(target=run, args=job) for job in jobs]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []

    def test_waves_keep_order_and_wait(self):
        """in_waves yields results in task order; the worker runs every
        second task; a wave's exception comes after both of its tasks
        have ended."""
        ran = []

        def task(i, fail=False):
            def run():
                ran.append((i, threading.get_ident()))
                if fail:
                    raise ValueError(i)
                return i
            return run

        with cpus(2):
            assert list(nn.in_waves([task(i) for i in range(5)])) == list(range(5))
            caller = threading.get_ident()
            assert [t == caller for _, t in sorted(ran)] == [True, False, True, False, True]
            ran.clear()
            with pytest.raises(ValueError):
                list(nn.in_waves([task(0), task(1, fail=True), task(2), task(3)]))
            assert sorted(i for i, _ in ran) == [0, 1]

    @pytest.mark.parametrize("cpus, count, threads", [({0}, 8, 1), ({0, 1}, 1, 2), (None, 1, 1), (None, 4, 2),
                                                      ({0, 1, 2}, 1, 2), (None, None, 1)])
    def test_follows_cpu_affinity(self, monkeypatch, tmp_path, cpus, count, threads):
        """The pool runs when the process may use two or more CPUs (its
        affinity, else the CPU count where a platform has no affinity,
        else one), and everything runs on the caller otherwise; one task
        always runs on the caller.  eval's episode pool takes one process
        per usable CPU, at most one per run, and none for one."""
        import multiprocessing
        from types import SimpleNamespace

        from socnavsim import evaluation
        from socnavsim.cli import main

        if cpus is None:
            monkeypatch.delattr(nn.os, "sched_getaffinity")
        else:
            monkeypatch.setattr(nn.os, "sched_getaffinity", lambda pid: cpus)
        monkeypatch.setattr(nn.os, "cpu_count", lambda: count)
        usable = len(cpus) if cpus is not None else count or 1
        assert nn.usable_cpus() == usable

        class Started(Exception):
            """Ends the eval run where its episodes would start."""

        pools = []

        def pool(processes):
            pools.append(processes)
            raise Started

        def run_episode(*args):
            raise Started

        monkeypatch.setattr(evaluation, "run_episode", run_episode)
        monkeypatch.setattr(multiprocessing, "get_context", lambda method: SimpleNamespace(Pool=pool))
        with pytest.raises(Started):
            main(["eval", "--policy", "greedy", "--suite", "mapless", "--runs", "3", "--out", str(tmp_path)])
        assert pools == ([min(3, usable)] if usable > 1 else [])
        ran = []
        tasks = [lambda: ran.append(threading.get_ident()) for _ in range(4)]
        list(nn.in_waves(tasks))
        assert len(set(ran)) == threads
        ran.clear()
        list(nn.in_waves(tasks[:1]))
        assert ran == [threading.get_ident()]


class TestStacks:
    """networks.Stacks.copy_to, the gather conv1's blocks read, against
    the row-by-row oracle conftest.stacks_array, bit for bit."""

    @pytest.mark.parametrize("beams, width", [(180, 161), (180, 180), (7, 5), (1080, 1025)])
    def test_gather_equals_rows(self, rng, beams, width):
        x = ring_stacks(rng, 5, 40, beams)
        want = stacks_array(x)[:, :, :width].astype(np.float32)
        for dtype in (np.float32, np.float64):
            out = np.full((5, 40, width, 1), -1.0, dtype)
            x.copy_to(out)
            assert out[..., 0].tobytes() == want.astype(dtype).tobytes()

    def test_a_block_gathers_its_stacks(self, rng):
        x = ring_stacks(rng, 11, 4, 16)
        assert x.shape == (11, 4, 16) and len(x) == 11 and len(x[8:11]) == 3
        out = np.empty((3, 4, 12, 1), np.float32)
        x[8:11].copy_to(out)
        assert out[..., 0].tobytes() == stacks_array(x)[8:11, :, :12].astype(np.float32).tobytes()

    @pytest.mark.parametrize("first, last", [(0, 1 << 16), (0x0400, 0x7C00)])
    def test_halves_widen_exactly(self, first, last):
        """Every float16 widens to its float32 value: through numpy's cast
        (all 65,536 bit patterns, NaNs, infinities, zeros, subnormals and
        negatives included) and through the bit shift that blocks of
        positive normal halves take."""
        halves = np.arange(first, last).astype(np.uint16).view(np.float16).reshape(1, -1)
        stacks = Stacks(halves, np.zeros((1, 1), np.int64), np.zeros((1, 1), np.int64))
        out = np.empty((1, 1, halves.size), np.float32)
        stacks.copy_to(out)
        assert out.tobytes() == halves.astype(np.float32).tobytes()


class TestAdam:
    def test_quadratic_descent(self):
        p = {"w": np.array([5.0, -3.0])}
        opt = Adam(p, lr=0.1)
        for _ in range(500):
            opt.step({"w": 2.0 * p["w"]})
        assert np.all(np.abs(p["w"]) < 1e-3)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_oracle_bitwise(self, rng, dtype):
        """Adam.step's in-place slices against the whole-array expression
        (conftest.adam_oracle_step), bit for bit over several steps:
        parameters larger than a slice and not a multiple of it, a
        scalar-sized one, and float64 gradients for float32 parameters."""
        shapes = {"big": (3, nn.ADAM_SLICE // 2 + 7), "small": (5,), "one": (1,)}
        params = {k: rng.normal(size=shape).astype(dtype) for k, shape in shapes.items()}
        ref = {k: v.copy() for k, v in params.items()}
        opt = Adam(params, lr=3e-3)
        m = {k: np.zeros_like(p) for k, p in ref.items()}
        v = {k: np.zeros_like(p) for k, p in ref.items()}
        for t in range(1, 6):
            grads = {k: rng.normal(size=shape) * 10.0 ** rng.integers(-4, 3) for k, shape in shapes.items()}
            grads["small"] = grads["small"].astype(dtype)
            opt.step(grads)
            for k in shapes:
                adam_oracle_step(ref[k], m[k], v[k], grads[k], 3e-3, t)
                assert same_bits(params[k], ref[k]), (t, k)
                assert same_bits(opt.m[k], m[k]) and same_bits(opt.v[k], v[k]), (t, k)


def pool_oracle(x, width, dy):
    """Loop-by-loop max pool along the width axis: the winner of each
    window is its lowest offset holding the maximum; it alone gets the
    output gradient."""
    n, h, w, c = x.shape
    ow = w // width
    y = np.zeros((n, h, ow, c), x.dtype)
    dx = np.zeros_like(x)
    for i in np.ndindex(n, h, ow, c):
        b, r, j, ch = i
        window = [x[b, r, j * width + k, ch] for k in range(width)]
        k = window.index(max(window))
        y[i] = window[k]
        dx[b, r, j * width + k, ch] = dy[i]
    return y, dx


def tied_input(rng, dtype):
    """Windows of width 4 along axis 2 (two trailing columns fill none):
    all equal, all negative with ties, ties at the maximum, all zero."""
    x = rng.integers(-3, 4, size=(3, 2, 18, 5)).astype(dtype)
    x[0, 0, 0:4, :] = 2.0  # all equal, positive
    x[0, 1, 4:8, :] = -1.5  # all equal, negative
    x[1, 0, 8:12, :] = [[-4.0], [-2.0], [-3.0], [-2.0]]  # all negative, tie at the max
    x[1, 1, 0:4, :] = [[1.0], [3.0], [0.0], [3.0]]  # tie at the max, later offset
    x[2, 0, 12:16, :] = 0.0  # all zero
    return x


class TestMaxPoolTies:
    def test_inputs_have_ties(self, rng):
        x = tied_input(rng, np.float32)
        v = x[:, :, :16, :].reshape(3, 2, 4, 4, 5)
        assert np.any(np.sum(v == v.max(axis=3, keepdims=True), axis=3) > 1)
        assert np.any(np.all(v < 0, axis=3))

    def test_lowest_offset_wins(self, rng):
        for dtype in (np.float32, np.float64):
            x = tied_input(rng, dtype)
            dy = rng.normal(size=(3, 2, 4, 5)).astype(dtype)
            layer = StandalonePool(4)
            y, cache = layer.forward(x)
            dx, _ = layer.backward(dy, cache)
            y_ref, dx_ref = pool_oracle(x, 4, dy)
            assert y.dtype == dx.dtype == dtype
            assert np.array_equal(y, y_ref)
            assert np.array_equal(dx, dx_ref)
            assert np.all(dx[:, :, 16:, :] == 0.0)

    def test_forward_does_not_touch_input(self, rng):
        x = tied_input(rng, np.float32)
        before = x.copy()
        layer = StandalonePool(4)
        _, cache = layer.forward(x)
        layer.backward(np.ones((3, 2, 4, 5), np.float32), cache)
        assert np.array_equal(x, before)

    def test_pool_relu_commute_bitwise(self, rng):
        """Pooling before ReLU (the trunk's order) equals ReLU before
        pooling, in values and input gradients, bit for bit."""
        pool, relu = StandalonePool(4), ReLU()
        for x in (tied_input(rng, np.float32), rng.normal(size=(4, 3, 18, 6)).astype(np.float32)):
            dy = rng.normal(size=(x.shape[0], x.shape[1], 4, x.shape[3])).astype(np.float32)

            p, pc = pool.forward(x)
            y1, rc = relu.forward(p)
            d, _ = relu.backward(dy, rc)
            dx1, _ = pool.backward(d, pc)

            r, rc = relu.forward(x)
            y2, pc = pool.forward(r)
            d, _ = pool.backward(dy, pc)
            dx2, _ = relu.backward(d, rc)

            assert y1.tobytes() == y2.tobytes()
            assert dx1.tobytes() == dx2.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_lowest_offset_wins_in_blocks(self, rng, dtype):
        """The same rule through nn.conv_stack's sample blocks, after a 1x1
        identity convolution: 12 samples make a full block and a partial
        one.  A window holding NaN records no winner and sends no
        gradient."""
        x = np.concatenate([tied_input(rng, dtype)] * 4)
        x[5, 1, 9, 2] = np.nan  # the identity conv spreads it to every channel
        conv = Conv2d(5, 5, (1, 1), (1, 1), (2, 18), rng, dtype=dtype)
        conv.W[...] = np.eye(5)
        pool = MaxPoolW(4)
        y = np.empty((12, 2, 4, 5), dtype)
        cache, = conv_stack([conv], pool, [[]], x, (True,), [y])
        offsets = np.concatenate([pcache[0] for pcache in cache[1]])
        nan_window = np.zeros(y.shape, bool)
        nan_window[5, 1, 2, :] = True

        clean = np.where(np.isnan(x).any(axis=3, keepdims=True), 0.0, x)
        y_ref, dx_ref = pool_oracle(clean, 4, np.ones(y.shape, dtype))
        assert np.isnan(y[nan_window]).all() and np.array_equal(y[~nan_window], y_ref[~nan_window])
        winners = dx_ref[:, :, :16].reshape(12, 2, 4, 4, 5).argmax(axis=3)
        assert np.all(offsets[nan_window] == -1)
        assert np.array_equal(offsets[~nan_window], winners[~nan_window])

        dy = rng.normal(size=y.shape).astype(dtype)
        grads, _ = conv_stack_backward(conv, pool, [], dy, cache)
        # the bias gradient sums the output gradient of every window but the NaN one
        np.testing.assert_allclose(grads["b"], dy[~nan_window.any(axis=3)].sum(axis=0), rtol=1e-5)

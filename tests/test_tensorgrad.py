"""Layer-op semantics, gradients against finite differences, Adam, checker."""

import itertools
import os
import re
import signal
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

import facemark.tensorgrad as tg
from _gradcheck import finite_diff_check, relu
from _synth import sum_all


def naive_conv2d(x, w, b, pad=0):
    """Independent nested-loop cross-correlation reference (same summation
    order as the definition: channels outermost, kernel rows, kernel cols)."""
    n, cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    out_h = h + 2 * pad - k + 1
    out_w = wd + 2 * pad - k + 1
    xp = np.zeros((n, cin, h + 2 * pad, wd + 2 * pad))
    xp[:, :, pad : pad + h, pad : pad + wd] = x
    out = np.zeros((n, cout, out_h, out_w))
    for ni in range(n):
        for co in range(cout):
            for y in range(out_h):
                for xx in range(out_w):
                    acc = 0.0
                    for ci in range(cin):
                        for i in range(k):
                            for j in range(k):
                                acc += xp[ni, ci, y + i, xx + j] * w[co, ci, i, j]
                    out[ni, co, y, xx] = acc + b[co]
    return out


class TestConv2d:
    def test_all_ones_three_by_three(self):
        x = tg.leaf(np.ones((1, 1, 3, 3)))
        w = tg.leaf(np.ones((1, 1, 3, 3)))
        b = tg.leaf(np.zeros(1))
        out = tg.conv2d(x, w, b, pad=1).value[0, 0]
        assert out[1, 1] == 9.0
        assert out[0, 0] == out[0, 2] == out[2, 0] == out[2, 2] == 4.0
        assert out[0, 1] == out[1, 0] == out[1, 2] == out[2, 1] == 6.0

    def test_zero_weight_gives_zero_output(self):
        rng = np.random.default_rng(0)
        x = tg.leaf(rng.random((2, 3, 5, 5)))
        out = tg.conv2d(x, tg.leaf(np.zeros((4, 3, 3, 3))), tg.leaf(np.zeros(4)), pad=1)
        assert np.all(out.value == 0.0)

    def test_identity_kernel(self):
        rng = np.random.default_rng(1)
        x = rng.random((1, 1, 6, 7))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        out = tg.conv2d(tg.leaf(x), tg.leaf(w), tg.leaf(np.zeros(1)), pad=1)
        np.testing.assert_array_equal(out.value, x)

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(2)
        for case in range(20):
            n = int(rng.integers(1, 3))
            cin = int(rng.integers(1, 4))
            cout = int(rng.integers(1, 4))
            k = int(rng.choice([1, 3, 5]))
            pad = int(rng.integers(0, 4))
            h = k + int(rng.integers(1, 6)) - 2 * pad
            w = k + int(rng.integers(1, 6)) - 2 * pad
            if h < 1 or w < 1:
                continue
            x = rng.standard_normal((n, cin, h, w))
            wt = rng.standard_normal((cout, cin, k, k))
            b = rng.standard_normal(cout)
            got = tg.conv2d(tg.leaf(x), tg.leaf(wt), tg.leaf(b), pad=pad).value
            want = naive_conv2d(x, wt, b, pad=pad)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_linear_in_input(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 2, 6, 6))
        y = rng.standard_normal((1, 2, 6, 6))
        w = rng.standard_normal((3, 2, 3, 3))
        zero_b = tg.leaf(np.zeros(3))
        alpha, beta = 0.7, -1.3
        lhs = tg.conv2d(tg.leaf(alpha * x + beta * y), tg.leaf(w), zero_b, pad=1).value
        rhs = alpha * tg.conv2d(tg.leaf(x), tg.leaf(w), zero_b, pad=1).value + beta * tg.conv2d(
            tg.leaf(y), tg.leaf(w), zero_b, pad=1
        ).value
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_shape_errors_name_the_axis(self):
        x = tg.leaf(np.zeros((1, 3, 4, 4)))
        with pytest.raises(ValueError, match="axis 1"):
            tg.conv2d(x, tg.leaf(np.zeros((2, 4, 3, 3))), tg.leaf(np.zeros(2)), pad=1)
        with pytest.raises(ValueError, match="axis 0"):
            tg.conv2d(x, tg.leaf(np.zeros((2, 3, 3, 3))), tg.leaf(np.zeros(3)), pad=1)
        with pytest.raises(ValueError, match="odd"):
            tg.conv2d(x, tg.leaf(np.zeros((2, 3, 2, 2))), tg.leaf(np.zeros(2)))
        with pytest.raises(ValueError, match="pad"):
            tg.conv2d(x, tg.leaf(np.zeros((2, 3, 3, 3))), tg.leaf(np.zeros(2)), pad=-1)
        with pytest.raises(ValueError, match="empty"):
            tg.conv2d(x, tg.leaf(np.zeros((2, 3, 5, 5))), tg.leaf(np.zeros(2)))

    def test_wide_padding_matches_finite_differences(self):
        # pad > k - 1: the input gradient correlates a cropped output gradient
        rng = np.random.default_rng(4)
        x = tg.parameter(rng.standard_normal((1, 2, 5, 6)))
        w = tg.parameter(rng.standard_normal((2, 2, 3, 3)))
        b = tg.parameter(rng.standard_normal(2))

        def build():
            out = tg.conv2d(x, w, b, pad=3)
            return tg.mse_loss(out, tg.leaf(np.ones(out.value.shape)))

        report = finite_diff_check({"x": x, "w": w, "b": b}, build, tolerance=1e-6)
        assert report.passed, str(report)


def _oracle_im2col(x_padded, k, out_h, out_w):
    n, c, hp, wp = x_padded.shape
    sn, sc, sh, sw = x_padded.strides
    patches = np.lib.stride_tricks.as_strided(
        x_padded,
        shape=(n, c, k, k, out_h, out_w),
        strides=(sn, sc, sh, sw, sh, sw),
        writeable=False,
    )
    return patches.reshape(n, c * k * k, out_h * out_w)


def oracle_conv2d(x, w, b, g, pad=0):
    """The earlier whole-batch im2col conv2d, kept as a bitwise reference.

    Returns the output and the (x, weight, bias) gradients for the upstream
    gradient ``g``. The input gradient correlates ``g``, padded by
    k - 1 - pad, with the flipped kernel; when that margin is negative
    (pad > k - 1) ``g`` is cropped instead, where the earlier code
    scattered columns back and rounded differently in the last bit.
    """
    n, c_in, h, wd = x.shape
    c_out, _, k, _ = w.shape
    out_h = h + 2 * pad - k + 1
    out_w = wd + 2 * pad - k + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    cols = _oracle_im2col(xp, k, out_h, out_w)
    w_mat = w.reshape(c_out, c_in * k * k)
    out = np.matmul(w_mat, cols).reshape(n, c_out, out_h, out_w) + b[None, :, None, None]
    gf = g.reshape(n, c_out, out_h * out_w)
    gb = g.sum(axis=(0, 2, 3))
    gw = np.matmul(gf, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    margin = k - 1 - pad
    if margin >= 0:
        gop = np.pad(g, ((0, 0), (0, 0), (margin, margin), (margin, margin)))
    else:
        gop = g[:, :, -margin : out_h + margin, -margin : out_w + margin]
    w_flip = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    gcols = _oracle_im2col(np.ascontiguousarray(gop), k, h, wd)
    gx = np.matmul(np.ascontiguousarray(w_flip.reshape(c_in, c_out * k * k)), gcols).reshape(n, c_in, h, wd)
    return out, gx, gw, gb


def _conv_with_grads(x, w, b, g, pad=0):
    xn, wn, bn = tg.parameter(x), tg.parameter(w), tg.parameter(b)
    out = tg.conv2d(xn, wn, bn, pad=pad)
    return (out.value, *out._vjp(g))


def _assert_matches_oracle(x, w, b, g, pad=1):
    got = _conv_with_grads(x, w, b, g, pad=pad)
    want = oracle_conv2d(x, w, b, g, pad=pad)
    for name, a, e in zip(("out", "gx", "gw", "gb"), got, want):
        assert np.array_equal(a, e), name


def _conv_case(n, c_in, c_out, size, k=3, pad=1, seed=0):
    rng = np.random.default_rng(seed)
    out_size = size + 2 * pad - k + 1
    x = rng.standard_normal((n, c_in, size, size))
    w = rng.standard_normal((c_out, c_in, k, k)) * 0.1
    b = rng.standard_normal(c_out)
    g = rng.standard_normal((n, c_out, out_size, out_size))
    return x, w, b, g


class TestConv2dMatchesWholeBatchOracle:
    """Outputs and gradients are bit-identical to the whole-batch im2col code."""

    @pytest.mark.parametrize("size", [32, 24, 27])
    @pytest.mark.parametrize("c_in,c_out", [(19, 64), (64, 64), (83, 3), (64, 16)])
    def test_network_shapes(self, c_in, c_out, size):
        _assert_matches_oracle(*_conv_case(3, c_in, c_out, size, seed=c_in + c_out + size))

    # conv2d has stride 1 only; the stride column stays so the case ids do not change.
    @pytest.mark.parametrize(
        "k,stride,pad,size",
        [(3, 1, 0, 32), (5, 1, 2, 24), (3, 1, 2, 27), (1, 1, 0, 24), (3, 1, 3, 8)],
    )
    def test_padding_and_stride(self, k, stride, pad, size):
        case = _conv_case(4, 19, 16, size, k=k, pad=pad, seed=k + 10 * stride + 100 * pad)
        _assert_matches_oracle(*case, pad=pad)

    def test_training_batch(self):
        _assert_matches_oracle(*_conv_case(16, 64, 64, 32, seed=7))

    def test_batch_equals_single_sample_calls(self):
        x, w, b, g = _conv_case(5, 19, 64, 24, seed=8)
        out, gx, gw, gb = _conv_with_grads(x, w, b, g, pad=1)
        singles = [_conv_with_grads(x[i : i + 1], w, b, g[i : i + 1], pad=1) for i in range(5)]
        assert np.array_equal(out, np.concatenate([s[0] for s in singles]))
        assert np.array_equal(gx, np.concatenate([s[1] for s in singles]))
        # The weight gradient adds the per-sample products in sample order.
        gw_sum = singles[0][2]
        for s in singles[1:]:
            gw_sum = gw_sum + s[2]
        assert np.array_equal(gw, gw_sum)
        np.testing.assert_allclose(gb, sum(s[3] for s in singles), rtol=1e-12)

    def test_results_own_their_memory(self):
        # backward() copies any gradient that is a view; conv results are not.
        x, w, b, g = _conv_case(2, 3, 4, 8, seed=9)
        out, gx, gw, gb = _conv_with_grads(x, w, b, g, pad=1)
        assert out.base is None and gx.base is None and gw.base is None and gb.base is None
        assert out.flags.c_contiguous and gx.flags.c_contiguous

    def test_memory_stays_near_input_size(self):
        # A whole-batch patch matrix for this layer is 16*64*9*32*32*8 bytes
        # (75.5 MB); neither the retained graph nor the backward pass may
        # need one.
        x, w, b, g = _conv_case(16, 64, 64, 32, seed=10)
        patch_matrix_bytes = 16 * 64 * 9 * 32 * 32 * 8
        xn, wn, bn = tg.parameter(x), tg.parameter(w), tg.parameter(b)
        tracemalloc.start()
        try:
            out = tg.conv2d(xn, wn, bn, pad=1)
            held_after_forward, _ = tracemalloc.get_traced_memory()
            grads = out._vjp(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(gr is not None for gr in grads)
        assert held_after_forward < 3 * x.nbytes
        assert peak < patch_matrix_bytes


_GRAD_SUBSETS = list(itertools.product((False, True), repeat=3))  # requires_grad of (x, weight, bias)


class TestConv2dOverSamples:
    """Spreading samples over 2 or 3 workers gives the serial run's bits."""

    @staticmethod
    def _run(x, w, b, g, pad, requires):
        nodes = [tg.leaf(v, requires_grad=r) for v, r in zip((x, w, b), requires)]
        out = tg.conv2d(*nodes, pad=pad)
        grads = out._vjp(g) if out.requires_grad else (None, None, None)
        return (out.value, *grads)

    @pytest.mark.parametrize("pad", [0, 1])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 16])
    def test_every_worker_count_gives_the_serial_bits(self, conv_workers, n, pad):
        x, w, b, g = _conv_case(n, 3, 4, 6, pad=pad, seed=20 + n)
        for requires in _GRAD_SUBSETS:
            conv_workers(1)
            serial = self._run(x, w, b, g, pad, requires)
            for workers in (2, 3):
                conv_workers(workers)
                spread = self._run(x, w, b, g, pad, requires)
                for name, want, got in zip(("out", "gx", "gw", "gb"), serial, spread):
                    assert (got is None) == (want is None), (name, requires, workers)
                    assert got is None or np.array_equal(got, want), (name, requires, workers)

    def test_threads_run_the_other_ranges(self, conv_workers):
        pool = conv_workers(3)
        x, w, b, g = _conv_case(5, 3, 4, 6, seed=30)
        _conv_with_grads(x, w, b, g, pad=1)
        assert pool.submitted == 3 * 2  # forward, weight and input gradients: two ranges each beyond the caller's

    def test_one_sample_never_reaches_the_pool(self, conv_workers):
        pool = conv_workers(3)
        x, w, b, g = _conv_case(1, 3, 4, 6, seed=31)
        _conv_with_grads(x, w, b, g, pad=1)
        assert pool.submitted == 0

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_trains_without_hanging(self, conv_workers):
        from _synth import texture_images
        from facemark import pipeline

        conv_workers(2)
        images = texture_images(2, 16, seed=4)
        config = pipeline.TrainConfig(
            steps=1, batch_size=2, image_size=16, message_length=4, base_channels=3, encoder_blocks=1, decoder_blocks=1,
        )
        pipeline.train_watermark(config, images)
        assert tg._POOL.submitted > 0
        pid = os.fork()
        if pid == 0:  # child: a hung conv2d dies at the alarm
            code = 1
            try:
                signal.alarm(30)
                pipeline.train_watermark(config, images)
                code = 0
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0, status

    @pytest.mark.parametrize("workers", [1, 2])
    def test_an_empty_batch_gives_empty_outputs_and_zero_parameter_gradients(self, conv_workers, workers):
        pool = conv_workers(workers)
        x, w, b, g = _conv_case(0, 2, 3, 8, seed=32)
        out, gx, gw, gb = _conv_with_grads(x, w, b, g, pad=1)
        assert out.shape == (0, 3, 8, 8) and gx.shape == (0, 2, 8, 8)
        assert np.array_equal(gw, np.zeros((3, 2, 3, 3))) and np.array_equal(gb, np.zeros(3))
        assert pool.submitted == 0

    def test_the_networks_run_on_zero_images(self):
        from _synth import texture_images
        from facemark import pipeline
        from facemark import watermarknet as wm

        config = pipeline.TrainConfig(
            steps=1, batch_size=2, image_size=16, message_length=4, base_channels=3, encoder_blocks=1, decoder_blocks=1,
        )
        model, _ = pipeline.train_watermark(config, texture_images(2, 16, seed=4))
        none = np.zeros((0, 3, 16, 16))
        assert wm.forward_encoder(model, none, np.zeros((0, 4)), mode="infer").value.shape == (0, 3, 16, 16)
        assert wm.forward_decoder(model, none, mode="infer").value.shape == (0, 4)


class TestMapOrdered:
    """One ordered map over items, on the caller and the conv pool."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_results_come_back_in_input_order_with_each_item_run_once(self, conv_workers, workers):
        conv_workers(workers)
        ran = []

        def square(i):
            ran.append(i)  # the switch interval is 1 µs here, so a lost or doubled claim shows
            return i * i

        assert tg.map_ordered(square, range(300)) == [i * i for i in range(300)]
        assert sorted(ran) == list(range(300))

    def test_no_items_give_no_results(self, conv_workers):
        pool = conv_workers(3)
        assert tg.map_ordered(lambda item: 1 / 0, []) == []
        assert pool.submitted == 0

    def test_a_batch_conv2d_inside_the_map_runs_inline(self, conv_workers):
        pool = conv_workers(3)
        cases = [_conv_case(2, 3, 4, 6, seed=40 + i) for i in range(5)]
        serial = [_conv_with_grads(*case, pad=1) for case in cases]
        before = pool.submitted
        results = []
        runner = threading.Thread(target=lambda: results.append(tg.map_ordered(lambda case: _conv_with_grads(*case, pad=1), cases)))
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive(), "map_ordered hung"
        (mapped,) = results
        assert pool.submitted - before == 2  # the map's own participants beyond its caller; no sample ranges
        for want, got in zip(serial, mapped):
            assert all(np.array_equal(a, b) for a, b in zip(want, got))

    @pytest.mark.parametrize("workers", [2, 3])
    def test_the_first_exception_in_input_order_is_raised(self, conv_workers, workers):
        conv_workers(workers)
        later_failed = threading.Event()
        ran = []

        def fail_early_items(i):
            ran.append(i)
            if i == 0:  # item 1 fails first, then item 0
                later_failed.wait(timeout=10)
                raise ValueError("item 0")
            if i == 1:
                later_failed.set()
                raise RuntimeError("item 1")
            return i

        with pytest.raises(ValueError, match="item 0"):
            tg.map_ordered(fail_early_items, range(6))
        assert later_failed.is_set()
        if workers == 2:  # both participants stop after their failure: no item is taken once one has raised
            assert sorted(ran) == [0, 1]


class TestBatchNorm:
    def test_constant_channel_returns_beta(self):
        x = tg.leaf(np.full((2, 1, 3, 3), 7.5))
        out = tg.batchnorm2d(x, tg.leaf(np.ones(1)), tg.leaf(np.array([0.3])), mode="train")
        np.testing.assert_allclose(out.value, 0.3, atol=1e-12)

    def test_standardized_input_passes_through(self):
        rng = np.random.default_rng(5)
        raw = rng.standard_normal((4, 2, 8, 8))
        raw = (raw - raw.mean(axis=(0, 2, 3), keepdims=True)) / raw.std(axis=(0, 2, 3), keepdims=True)
        out = tg.batchnorm2d(tg.leaf(raw), tg.leaf(np.ones(2)), tg.leaf(np.zeros(2)), mode="train")
        np.testing.assert_allclose(out.value, raw, atol=1e-4)

    def test_infer_formula(self):
        running = tg.RunningStats()
        running.mean = np.array([2.0])
        running.var = np.array([4.0])
        x = tg.leaf(np.full((1, 1, 1, 1), 4.0))
        out = tg.batchnorm2d(
            x, tg.leaf(np.array([3.0])), tg.leaf(np.array([1.0])), mode="infer", running=running, eps=1e-5
        )
        assert out.value.ravel()[0] == pytest.approx(3.9999962500070314, abs=1e-12)

    def test_infer_without_stats_raises(self):
        x = tg.leaf(np.zeros((1, 1, 2, 2)))
        with pytest.raises(ValueError, match="running statistics"):
            tg.batchnorm2d(x, tg.leaf(np.ones(1)), tg.leaf(np.zeros(1)), mode="infer")
        with pytest.raises(ValueError, match="running statistics"):
            tg.batchnorm2d(x, tg.leaf(np.ones(1)), tg.leaf(np.zeros(1)), mode="infer", running=tg.RunningStats())

    def test_train_output_is_standardized(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((8, 3, 16, 16)) * 3.0 + 1.5
        out = tg.batchnorm2d(tg.leaf(x), tg.leaf(np.ones(3)), tg.leaf(np.zeros(3)), mode="train").value
        mean = out.mean(axis=(0, 2, 3))
        var = out.var(axis=(0, 2, 3))
        assert np.all(np.abs(mean) < 1e-6)
        assert np.all(np.abs(var - 1.0) < 1e-3)

    def test_running_stats_blend(self):
        running = tg.RunningStats(momentum=0.1)
        x1 = np.random.default_rng(7).standard_normal((4, 2, 4, 4))
        tg.batchnorm2d(tg.leaf(x1), tg.leaf(np.ones(2)), tg.leaf(np.zeros(2)), mode="train", running=running)
        first_mean = x1.mean(axis=(0, 2, 3))
        np.testing.assert_allclose(running.mean, first_mean, atol=1e-12)
        x2 = np.random.default_rng(8).standard_normal((4, 2, 4, 4))
        tg.batchnorm2d(tg.leaf(x2), tg.leaf(np.ones(2)), tg.leaf(np.zeros(2)), mode="train", running=running)
        want = 0.9 * first_mean + 0.1 * x2.mean(axis=(0, 2, 3))
        np.testing.assert_allclose(running.mean, want, atol=1e-12)

    def test_bad_eps_rejected(self):
        x = tg.leaf(np.zeros((1, 1, 2, 2)))
        with pytest.raises(ValueError, match="eps"):
            tg.batchnorm2d(x, tg.leaf(np.ones(1)), tg.leaf(np.zeros(1)), eps=0.0)


def oracle_batchnorm2d(x, gamma, beta, g, mode="train", running_mean=None, running_var=None, eps=1e-5):
    """The earlier batchnorm2d (separate temporaries, ``np.mean``), kept as a
    bitwise reference. Returns the output, the (x, gamma, beta) gradients for
    the upstream gradient ``g`` and the batch mean and variance."""
    axes = (0, 2, 3)
    if mode == "train":
        mu = x.mean(axis=axes)
        var = np.square(x).mean(axis=axes) - np.square(mu)
        np.maximum(var, 0.0, out=var)
    else:
        mu, var = running_mean, running_var
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu[None, :, None, None]) * inv_std[None, :, None, None]
    out = gamma[None, :, None, None] * xhat + beta[None, :, None, None]
    gbeta = g.sum(axis=axes)
    ggamma = (g * xhat).sum(axis=axes)
    scale_c = (gamma * inv_std)[None, :, None, None]
    if mode == "train":
        g_mean = g.mean(axis=axes)[None, :, None, None]
        gxh_mean = (g * xhat).mean(axis=axes)[None, :, None, None]
        gx = scale_c * (g - g_mean - xhat * gxh_mean)
    else:
        gx = scale_c * g
    return out, gx, ggamma, gbeta, mu, var


def oracle_relu(x, g):
    """The earlier relu, which kept an ``x > 0`` mask for its vjp."""
    mask = x > 0.0
    return np.maximum(x, 0.0), g * mask


def _bn_case(shape, seed, constant_channel=False):
    rng = np.random.default_rng(seed)
    c = shape[1]
    x = rng.standard_normal(shape) * 2.5 + 0.7
    if constant_channel:
        x[:, 0] = 3.25
    gamma = 1.0 + 0.3 * rng.standard_normal(c)
    beta = 0.2 * rng.standard_normal(c)
    g = rng.standard_normal(shape)
    return x, gamma, beta, g


def _shape_id(shape):
    return "x".join(map(str, shape))


class TestBatchNormReluMatchOracles:
    """Outputs, gradients and running statistics are bit-identical to the earlier code."""

    @pytest.mark.parametrize("constant_channel", [False, True])
    @pytest.mark.parametrize("shape", [(16, 64, 32, 32), (3, 5, 7, 9), (1, 16, 27, 27)], ids=_shape_id)
    def test_train_mode(self, shape, constant_channel):
        x, gamma, beta, g = _bn_case(shape, seed=shape[1], constant_channel=constant_channel)
        running = tg.RunningStats()
        node = tg.batchnorm2d(tg.parameter(x), tg.parameter(gamma), tg.parameter(beta), running=running)
        g_before = g.copy()
        gx, ggamma, gbeta = node._vjp(g)
        out, *want_grads, mu, var = oracle_batchnorm2d(x, gamma, beta, g)
        assert np.array_equal(node.value, out)
        for name, a, e in zip(("gx", "ggamma", "gbeta"), (gx, ggamma, gbeta), want_grads):
            assert np.array_equal(a, e), name
        assert np.array_equal(running.mean, mu) and np.array_equal(running.var, var)
        assert np.array_equal(g, g_before)

    @pytest.mark.parametrize("shape", [(16, 64, 32, 32), (2, 3, 5, 4)], ids=_shape_id)
    def test_infer_mode(self, shape):
        x, gamma, beta, g = _bn_case(shape, seed=1 + shape[1])
        rng = np.random.default_rng(shape[0])
        running = tg.RunningStats(mean=rng.standard_normal(shape[1]), var=rng.random(shape[1]) + 0.1)
        node = tg.batchnorm2d(
            tg.parameter(x), tg.parameter(gamma), tg.parameter(beta), mode="infer", running=running
        )
        grads = node._vjp(g)
        out, *want_grads, _, _ = oracle_batchnorm2d(
            x, gamma, beta, g, mode="infer", running_mean=running.mean, running_var=running.var
        )
        assert np.array_equal(node.value, out)
        for name, a, e in zip(("gx", "ggamma", "gbeta"), grads, want_grads):
            assert np.array_equal(a, e), name

    def test_relu_with_exact_zeros(self):
        rng = np.random.default_rng(30)
        x = rng.standard_normal((4, 8, 6, 6))
        x[x < -0.8] = 0.0
        x[0, 0, 0, :3] = [-0.0, 0.0, 5e-324]
        g = rng.standard_normal(x.shape)
        node = relu(tg.parameter(x))
        (gx,) = node._vjp(g)
        out, want = oracle_relu(x, g)
        assert np.array_equal(node.value, out)
        assert np.array_equal(gx, want)
        # same signed zeros as the mask product
        assert np.array_equal(np.signbit(gx), np.signbit(want))

    def test_fan_out_gradient_is_not_written_into(self):
        # add's vjp hands one array to both batchnorm branches; each branch
        # must see it untouched.
        a, gamma_a, beta_a, _ = _bn_case((4, 6, 5, 5), seed=31)
        b, gamma_b, beta_b, _ = _bn_case((4, 6, 5, 5), seed=32)
        target = np.random.default_rng(33).standard_normal(a.shape)
        nodes = [tg.parameter(v) for v in (a, gamma_a, beta_a, b, gamma_b, beta_b)]
        branch_a = tg.batchnorm2d(*nodes[:3])
        branch_b = tg.batchnorm2d(*nodes[3:])
        summed = tg.add(branch_a, branch_b)
        loss = tg.mse_loss(summed, tg.leaf(target))
        tg.backward(loss)
        g = (2.0 / a.size) * (summed.value - target)
        _, *grads_a, _, _ = oracle_batchnorm2d(a, gamma_a, beta_a, g)
        _, *grads_b, _, _ = oracle_batchnorm2d(b, gamma_b, beta_b, g)
        for node, want in zip(nodes, [*grads_a, *grads_b]):
            assert np.array_equal(node.grad, want)


def composed_block(x, weight, bias, gamma, beta, mode="train", running=None):
    """The earlier unfused block, three graph nodes built from the standalone ops."""
    return relu(tg.batchnorm2d(tg.conv2d(x, weight, bias, pad=1), gamma, beta, mode=mode, running=running))


def _block_values(rng, c_in, c_out):
    """Conv weight, conv bias, gamma and beta of one block."""
    return [
        rng.standard_normal((c_out, c_in, 3, 3)) * 0.4,
        0.1 * rng.standard_normal(c_out),
        1.0 + 0.2 * rng.standard_normal(c_out),
        0.1 * rng.standard_normal(c_out),
    ]


def _run_block_graph(block, wire, values, requires_grad, stats=()):
    """Build ``wire(block, nodes, runnings)`` on fresh leaves, backpropagate an MSE loss
    and return the output, every leaf's gradient and the running statistics."""
    nodes = [tg.leaf(v.copy(), requires_grad=rg) for v, rg in zip(values, requires_grad)]
    runnings = [tg.RunningStats(mean=None if m is None else m.copy(), var=None if v is None else v.copy()) for m, v in stats]
    out = wire(block, nodes, runnings)
    target = np.random.default_rng(77).standard_normal(out.value.shape)
    tg.backward(tg.mse_loss(out, tg.leaf(target)))
    return out.value, [n.grad for n in nodes], [(r.mean, r.var) for r in runnings]


def _assert_fused_matches_composition(wire, values, requires_grad, stats=()):
    want = _run_block_graph(composed_block, wire, values, requires_grad, stats)
    got = _run_block_graph(tg.conv_bn_relu, wire, values, requires_grad, stats)
    assert np.array_equal(got[0], want[0])
    for i, (a, e) in enumerate(zip(got[1], want[1])):
        assert (a is None) == (e is None), i
        assert a is None or np.array_equal(a, e), i
    for (a_mean, a_var), (e_mean, e_var) in zip(got[2], want[2]):
        assert np.array_equal(a_mean, e_mean) and np.array_equal(a_var, e_var)


def _one_block(block, nodes, runnings, mode="train"):
    return block(*nodes, mode=mode, running=runnings[0] if runnings else None)


class TestConvBnReluMatchesComposition:
    """The fused block node is bit-identical to relu(batchnorm2d(conv2d(...))) of the standalone ops."""

    def _values(self, seed, shape=(4, 3, 9, 7), c_out=5):
        rng = np.random.default_rng(seed)
        return [rng.standard_normal(shape), *_block_values(rng, shape[1], c_out)]

    def test_single_node_with_five_parents(self):
        nodes = [tg.parameter(v) for v in self._values(50)]
        out = tg.conv_bn_relu(*nodes)
        assert out.op == "conv_bn_relu"
        assert all(p is n for p, n in zip(out.parents, nodes, strict=True))

    def test_train_mode(self):
        _assert_fused_matches_composition(_one_block, self._values(51), [True] * 5, stats=[(None, None)])

    def test_train_mode_blends_populated_statistics(self):
        rng = np.random.default_rng(52)
        stats = [(rng.standard_normal(5), rng.random(5) + 0.5)]
        _assert_fused_matches_composition(_one_block, self._values(53), [True] * 5, stats)

    def test_infer_mode(self):
        rng = np.random.default_rng(54)
        stats = [(rng.standard_normal(5), rng.random(5) + 0.5)]

        def wire(block, nodes, runnings):
            return _one_block(block, nodes, runnings, mode="infer")

        _assert_fused_matches_composition(wire, self._values(55), [True] * 5, stats)

    def test_input_without_gradient(self):
        _assert_fused_matches_composition(_one_block, self._values(56), [False, True, True, True, True])

    def test_gamma_and_beta_as_plain_leaves(self):
        _assert_fused_matches_composition(_one_block, self._values(57), [True, True, True, False, False])

    def test_nothing_requires_gradients(self):
        _assert_fused_matches_composition(_one_block, self._values(58), [False] * 5)
        out = tg.conv_bn_relu(*[tg.leaf(v) for v in self._values(58)])
        assert not out.requires_grad and out._vjp is None

    def test_two_stacked_blocks(self):
        rng = np.random.default_rng(59)
        values = [rng.standard_normal((3, 2, 8, 8)), *_block_values(rng, 2, 4), *_block_values(rng, 4, 4)]

        def wire(block, nodes, runnings):
            h = block(*nodes[:5], running=runnings[0])
            return block(h, *nodes[5:], running=runnings[1])

        _assert_fused_matches_composition(wire, values, [True] * 9, stats=[(None, None)] * 2)

    def test_block_output_with_two_consumers(self):
        # The shared output's gradient is summed from both branches in the
        # same order as in the unfused graph.
        rng = np.random.default_rng(60)
        values = [rng.standard_normal((2, 3, 6, 6))] + [v for _ in range(3) for v in _block_values(rng, 3, 3)]

        def wire(block, nodes, runnings):
            h = block(*nodes[:5], running=runnings[0])
            left = block(h, *nodes[5:9], running=runnings[1])
            right = block(h, *nodes[9:13], running=runnings[2])
            return tg.concat_channels(tg.add(left, right), h)

        _assert_fused_matches_composition(wire, values, [True] * 13, stats=[(None, None)] * 3)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(61)
        values = [rng.random((2, 2, 5, 5)) + 0.25, *_block_values(rng, 2, 3), *_block_values(rng, 3, 3)]
        names = ["x", "w1", "b1", "gamma1", "beta1", "w2", "b2", "gamma2", "beta2"]
        params = {name: tg.parameter(v) for name, v in zip(names, values)}
        nodes = list(params.values())
        target = tg.leaf(rng.standard_normal((2, 3, 5, 5)))

        def build():
            h = tg.conv_bn_relu(*nodes[:5], mode="train")
            return tg.mse_loss(tg.conv_bn_relu(h, *nodes[5:], mode="train"), target)

        report = finite_diff_check(params, build, tolerance=1e-4)
        assert report.passed, str(report)

    def test_infer_mode_matches_finite_differences(self):
        rng = np.random.default_rng(62)
        names = ["x", "w", "b", "gamma", "beta"]
        params = {name: tg.parameter(v) for name, v in zip(names, self._values(63, shape=(2, 2, 5, 5), c_out=3))}
        running = tg.RunningStats(mean=rng.standard_normal(3), var=rng.random(3) + 0.5)
        target = tg.leaf(rng.standard_normal((2, 3, 5, 5)))

        def build():
            return tg.mse_loss(tg.conv_bn_relu(*params.values(), mode="infer", running=running), target)

        report = finite_diff_check(params, build, tolerance=1e-4)
        assert report.passed, str(report)

    def test_ops_are_called_through_module_names(self, monkeypatch):
        # A profiler patches tg.conv2d and tg.batchnorm2d and wraps each
        # returned node's vjp; the fused block must run the patched ones.
        calls = {}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name + ".fwd"] = calls.get(name + ".fwd", 0) + 1
                node = fn(*args, **kwargs)
                vjp = node._vjp

                def counted_vjp(g):
                    calls[name + ".vjp"] = calls.get(name + ".vjp", 0) + 1
                    return vjp(g)

                node._vjp = counted_vjp
                return node

            return wrapper

        monkeypatch.setattr(tg, "conv2d", counted("conv2d", tg.conv2d))
        monkeypatch.setattr(tg, "batchnorm2d", counted("batchnorm2d", tg.batchnorm2d))
        rng = np.random.default_rng(64)
        values = [rng.standard_normal((2, 2, 6, 6)), *_block_values(rng, 2, 3), *_block_values(rng, 3, 3)]
        nodes = [tg.parameter(v) for v in values]
        out = tg.conv_bn_relu(tg.conv_bn_relu(*nodes[:5]), *nodes[5:])
        assert calls == {"conv2d.fwd": 2, "batchnorm2d.fwd": 2}
        tg.backward(sum_all(out))
        assert calls == {"conv2d.fwd": 2, "batchnorm2d.fwd": 2, "conv2d.vjp": 2, "batchnorm2d.vjp": 2}

    def test_conv_output_is_released(self, monkeypatch):
        # Only the block input, xhat and the block output outlive the forward.
        conv_outputs = []
        conv2d = tg.conv2d

        def recording(*args, **kwargs):
            node = conv2d(*args, **kwargs)
            conv_outputs.append(weakref.ref(node.value))
            return node

        monkeypatch.setattr(tg, "conv2d", recording)
        nodes = [tg.parameter(v) for v in self._values(65)]
        out = tg.conv_bn_relu(*nodes)
        assert out.requires_grad and [ref() for ref in conv_outputs] == [None]


class TestElementwise:
    def test_relu_examples(self):
        out = relu(tg.leaf(np.array([[-1.0, 0.0, 2.0]])))
        np.testing.assert_array_equal(out.value, [[0.0, 0.0, 2.0]])

    def test_relu_gradients(self):
        neg = tg.parameter(-np.ones((2, 2)))
        loss = sum_all(relu(neg))
        tg.backward(loss)
        np.testing.assert_array_equal(neg.grad, np.zeros((2, 2)))

        pos = tg.parameter(np.ones((2, 2)))
        loss = sum_all(relu(pos))
        tg.backward(loss)
        np.testing.assert_array_equal(pos.grad, np.ones((2, 2)))

    def test_relu_subgradient_at_zero_is_zero(self):
        x = tg.parameter(np.zeros((3,)))
        loss = sum_all(relu(x))
        tg.backward(loss)
        np.testing.assert_array_equal(x.grad, np.zeros(3))

    def test_sigmoid_range_and_gradient(self):
        x = tg.parameter(np.array([-800.0, 0.0, 800.0]))
        out = tg.sigmoid(x)
        assert np.all(out.value >= 0.0) and np.all(out.value <= 1.0)
        assert out.value[1] == 0.5
        tg.backward(sum_all(out))
        assert x.grad[1] == pytest.approx(0.25)


class TestAffine:
    def test_identity_weight(self):
        x = np.random.default_rng(9).standard_normal((4, 5))
        out = tg.affine(tg.leaf(x), tg.leaf(np.eye(5)), tg.leaf(np.zeros(5)))
        np.testing.assert_allclose(out.value, x, atol=1e-15)

    def test_small_example(self):
        out = tg.affine(tg.leaf(np.array([[1.0, 2.0]])), tg.leaf(np.array([[3.0, 4.0]])), tg.leaf(np.array([5.0])))
        assert out.value[0, 0] == 16.0

    def test_zero_input_returns_bias(self):
        out = tg.affine(tg.leaf(np.zeros((3, 4))), tg.leaf(np.ones((2, 4))), tg.leaf(np.array([1.5, -2.0])))
        np.testing.assert_array_equal(out.value, np.tile([1.5, -2.0], (3, 1)))

    def test_feature_mismatch(self):
        with pytest.raises(ValueError, match="axis 1"):
            tg.affine(tg.leaf(np.zeros((1, 3))), tg.leaf(np.zeros((2, 4))), tg.leaf(np.zeros(2)))


class TestPoolConcat:
    def test_gap_constant(self):
        x = np.zeros((1, 2, 4, 4))
        x[0, 0] = 3.0
        x[0, 1] = -1.0
        out = tg.global_avg_pool(tg.leaf(x))
        np.testing.assert_array_equal(out.value, [[3.0, -1.0]])

    def test_gap_one_pixel(self):
        x = np.random.default_rng(10).standard_normal((2, 3, 1, 1))
        out = tg.global_avg_pool(tg.leaf(x))
        np.testing.assert_array_equal(out.value, x[:, :, 0, 0])

    def test_gap_mean(self):
        x = np.array([0.0, 1.0, 2.0, 3.0]).reshape(1, 1, 2, 2)
        assert tg.global_avg_pool(tg.leaf(x)).value[0, 0] == 1.5

    def test_concat_paper_scale_channels(self):
        image = tg.leaf(np.zeros((1, 3, 112, 112)))
        message_planes = tg.leaf(np.zeros((1, 48, 112, 112)))
        out = tg.concat_channels(image, message_planes)
        assert out.value.shape == (1, 51, 112, 112)

    def test_concat_zero_channel_identity(self):
        x = np.random.default_rng(11).standard_normal((2, 3, 4, 4))
        out = tg.concat_channels(tg.leaf(x), tg.leaf(np.zeros((2, 0, 4, 4))))
        np.testing.assert_array_equal(out.value, x)

    def test_concat_gradient_splits(self):
        a = tg.parameter(np.ones((1, 2, 3, 3)))
        b = tg.parameter(np.ones((1, 4, 3, 3)))
        tg.backward(sum_all(tg.concat_channels(a, b)))
        np.testing.assert_array_equal(a.grad, np.ones((1, 2, 3, 3)))
        np.testing.assert_array_equal(b.grad, np.ones((1, 4, 3, 3)))

    def test_concat_spatial_mismatch(self):
        with pytest.raises(ValueError, match="spatial"):
            tg.concat_channels(tg.leaf(np.zeros((1, 1, 3, 3))), tg.leaf(np.zeros((1, 1, 4, 3))))

    def test_concat_three_parts_matches_nested_pairs(self):
        rng = np.random.default_rng(12)
        values = [rng.standard_normal((2, c, 3, 4)) for c in (3, 2, 4)]
        upstream = rng.standard_normal((2, 9, 3, 4))

        def run(concat):
            parts = [tg.parameter(v) for v in values]
            out = concat(*parts)
            tg.backward(tg.mse_loss(out, tg.leaf(upstream)))
            return out.value, [p.grad for p in parts]

        flat_value, flat_grads = run(tg.concat_channels)
        nested_value, nested_grads = run(lambda a, b, c: tg.concat_channels(tg.concat_channels(a, b), c))
        np.testing.assert_array_equal(flat_value, nested_value)
        for flat, nested in zip(flat_grads, nested_grads):
            np.testing.assert_array_equal(flat, nested)

    def test_concat_three_parts_names_both_mismatched_shapes(self):
        parts = [tg.leaf(np.zeros((1, 1, 3, 3))), tg.leaf(np.zeros((1, 2, 3, 3))), tg.leaf(np.zeros((2, 1, 3, 3)))]
        with pytest.raises(ValueError, match=re.escape("(1, 1, 3, 3) vs (2, 1, 3, 3)")):
            tg.concat_channels(*parts)


class TestLosses:
    def test_mse_examples(self):
        same = np.ones((3, 3))
        assert tg.mse_loss(tg.leaf(same), tg.leaf(same.copy())).value == 0.0
        out = tg.mse_loss(tg.leaf(np.array([0.0, 0.0])), tg.leaf(np.array([1.0, 3.0])))
        assert float(out.value) == 5.0

    def test_mse_gradient(self):
        a_val = np.array([1.0, 2.0, 4.0])
        b_val = np.array([0.0, 1.0, 1.0])
        a = tg.parameter(a_val)
        tg.backward(tg.mse_loss(a, tg.leaf(b_val)))
        np.testing.assert_allclose(a.grad, 2.0 * (a_val - b_val) / 3.0, atol=1e-15)

    def test_bce_examples(self):
        out = tg.bce_logits_loss(tg.leaf(np.array([0.0])), np.array([1.0]))
        assert float(out.value) == pytest.approx(np.log(2.0), abs=1e-12)
        out = tg.bce_logits_loss(tg.leaf(np.array([1000.0])), np.array([1.0]))
        assert float(out.value) == pytest.approx(0.0, abs=1e-12)
        out = tg.bce_logits_loss(tg.leaf(np.array([0.0, 0.0])), np.array([0.0, 1.0]))
        assert float(out.value) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_bce_finite_for_huge_logits(self):
        logits = np.array([-1e6, -12.3, 0.0, 17.0, 1e6])
        targets = np.array([0.0, 1.0, 0.0, 1.0, 1.0])
        value = float(tg.bce_logits_loss(tg.leaf(logits), targets).value)
        assert np.isfinite(value)

    def test_bce_rejects_bad_targets(self):
        with pytest.raises(ValueError, match="0 or 1"):
            tg.bce_logits_loss(tg.leaf(np.zeros(2)), np.array([0.0, 0.5]))

    def test_softmax_cross_entropy_uniform(self):
        logits = tg.leaf(np.zeros((4, 7)))
        out = tg.softmax_cross_entropy(logits, np.zeros(4, dtype=int))
        assert float(out.value) == pytest.approx(np.log(7.0), abs=1e-12)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = tg.parameter(np.random.default_rng(12).standard_normal((3, 4)))
        tg.backward(sum_all(x))
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_mse_against_detached_copy_is_zero_grad(self):
        value = np.full((2, 2), 0.37)
        x = tg.parameter(value.copy())
        tg.backward(tg.mse_loss(x, tg.leaf(value.copy())))
        np.testing.assert_array_equal(x.grad, np.zeros((2, 2)))

    def test_double_backward_raises(self):
        x = tg.parameter(np.ones(3))
        loss = sum_all(x)
        tg.backward(loss)
        with pytest.raises(RuntimeError, match="already"):
            tg.backward(loss)

    def _small_graph(self):
        rng = np.random.default_rng(22)
        x = tg.leaf(rng.random((2, 2, 5, 5)))
        w = tg.parameter(rng.standard_normal((3, 2, 3, 3)))
        b = tg.parameter(rng.standard_normal(3))
        gamma, beta = tg.parameter(np.ones(3)), tg.parameter(np.zeros(3))
        hidden = tg.conv_bn_relu(x, w, b, gamma, beta)
        loss = sum_all(tg.scale(hidden, 0.5))
        return (x, w, b, gamma, beta), hidden, loss

    def test_second_backward_through_loss_raises(self):
        _, _, loss = self._small_graph()
        tg.backward(loss)
        with pytest.raises(RuntimeError, match="already"):
            tg.backward(loss)

    def test_backward_through_interior_node_of_spent_graph_raises(self):
        _, hidden, loss = self._small_graph()
        tg.backward(loss)
        with pytest.raises(RuntimeError, match="already"):
            tg.backward(sum_all(hidden))
        scaled = loss.parents[0]
        assert scaled.op == "scale"
        with pytest.raises(RuntimeError, match="already"):
            tg.backward(sum_all(tg.scale(scaled, 2.0)))

    def test_only_leaves_keep_gradients(self):
        (x, *params), hidden, loss = self._small_graph()
        tg.backward(loss)
        for p in params:
            assert p.grad is not None and p.grad.shape == p.value.shape
        assert x.grad is None  # does not require gradients
        interior, stack = [], [loss]
        while stack:
            node = stack.pop()
            if node.parents:
                interior.append(node)
                stack.extend(node.parents)
        assert [node.op for node in interior] == ["sum_all", "scale", "conv_bn_relu"]
        for node in interior:
            assert node.grad is None and node._vjp is None

    def test_non_scalar_loss_raises(self):
        x = tg.parameter(np.ones(3))
        with pytest.raises(ValueError, match="scalar"):
            tg.backward(relu(x))

    def test_cycle_detected(self):
        x = tg.parameter(np.ones(1))
        y = tg.scale(x, 2.0)
        y.parents = (y,)  # malformed graph
        with pytest.raises(ValueError, match="cycle"):
            tg.backward(sum_all(y))

    def test_composite_graph_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        x = tg.parameter(rng.random((2, 2, 6, 6)) + 0.5)
        w = tg.parameter(rng.standard_normal((3, 2, 3, 3)) * 0.5)
        b = tg.parameter(rng.standard_normal(3) * 0.1)
        w2 = tg.parameter(rng.standard_normal((4, 3)) * 0.5)
        b2 = tg.parameter(rng.standard_normal(4) * 0.1)

        def build():
            h = relu(tg.conv2d(x, w, b, pad=1))
            pooled = tg.global_avg_pool(h)
            out = tg.affine(pooled, w2, b2)
            return tg.mse_loss(out, tg.leaf(np.zeros((2, 4))))

        params = {"x": x, "w": w, "b": b, "w2": w2, "b2": b2}
        report = finite_diff_check(params, build, tolerance=1e-4)
        assert report.passed, str(report)


class TestParamSet:
    def test_batchnorm_gamma_creates_its_running_stats_slot(self):
        head = [("net.head.gamma", (4,)), *tg.conv_bn_layout("net.out", 4, 2)]
        params = tg.init_params(tg.conv_bn_stack_layout("net", 2, 3, 4) + head)
        assert list(params.stats) == ["net.block0.bn", "net.block1.bn", "net.out.bn"]
        assert all(isinstance(r, tg.RunningStats) and not r.populated for r in params.stats.values())

    def test_forward_pass_updates_the_slot_it_names(self):
        from facemark import watermarknet as wm

        config = wm.WatermarkConfig(message_length=4, base_channels=3, encoder_blocks=1, decoder_blocks=1)
        model = wm.build_model(config)
        images = np.random.default_rng(41).random((2, 3, 8, 8))
        wm.forward_decoder(model, images)
        populated = [slot for slot, r in model.params.stats.items() if r.populated]
        assert populated == ["dec.block0.bn", "dec.bits.bn"]
        assert model.params.stats["dec.bits.bn"].mean.shape == (4,)


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        params = tg.ParamSet()
        node = params.add("p", np.array([1.0, -2.0]))
        node.grad = np.zeros(2)
        tg.adam_step(params)
        np.testing.assert_array_equal(node.value, [1.0, -2.0])
        assert params.step_count == 1
        assert node.grad is None

    def test_first_step_matches_hand_computation(self):
        # g=1, lr=0.1, t=1: m1_hat=1, m2_hat=1 -> update = 0.1/(1+eps)
        params = tg.ParamSet()
        node = params.add("p", np.array([0.5]))
        node.grad = np.array([1.0])
        tg.adam_step(params, lr=0.1)
        expected = 0.5 - 0.1 * 1.0 / (1.0 + 1e-8)
        assert node.value[0] == pytest.approx(expected, abs=1e-15)
        assert node.value[0] == pytest.approx(0.4, abs=1e-6)

    def test_missing_gradient_raises(self):
        params = tg.ParamSet()
        params.add("p", np.ones(2))
        with pytest.raises(ValueError, match="no gradient"):
            tg.adam_step(params)

    def test_two_runs_bit_identical(self):
        def run():
            rng = np.random.default_rng(99)
            params = tg.ParamSet()
            p = params.add("p", rng.standard_normal(5))
            target = tg.leaf(rng.standard_normal(5))
            for _ in range(25):
                tg.backward(tg.mse_loss(p, target))
                tg.adam_step(params, lr=1e-2)
            return p.value.copy()

        first, second = run(), run()
        np.testing.assert_array_equal(first, second)


class TestAugmentationOps:
    def test_crop_matches_slice_and_scatters_gradient(self):
        rng = np.random.default_rng(14)
        x = tg.parameter(rng.random((1, 3, 8, 8)))
        out = tg.crop_spatial(x, 2, 3, 4, 5)
        np.testing.assert_array_equal(out.value, x.value[:, :, 2:6, 3:8])
        tg.backward(sum_all(out))
        assert x.grad.sum() == out.value.size
        assert np.all(x.grad[:, :, 2:6, 3:8] == 1.0)
        assert x.grad[0, 0, 0, 0] == 0.0

    def test_resize_matches_pure_helper_and_finite_diff(self):
        rng = np.random.default_rng(15)
        x = tg.parameter(rng.random((1, 2, 8, 8)))
        out = tg.resize_bilinear(x, 5, 6)
        np.testing.assert_array_equal(out.value, tg.bilinear_resize(x.value, 5, 6))

        def build():
            return sum_all(tg.resize_bilinear(x, 5, 6))

        assert finite_diff_check({"x": x}, build, tolerance=1e-6).passed

    def test_brightness_and_contrast_gradients(self):
        rng = np.random.default_rng(16)
        x = tg.parameter(rng.uniform(0.2, 0.6, size=(2, 3, 4, 4)))
        weights = np.array([0.299, 0.587, 0.114])

        def build_brightness():
            return sum_all(tg.adjust_brightness(x, 1.4))

        def build_contrast():
            return sum_all(tg.adjust_contrast(x, 1.7, weights))

        assert finite_diff_check({"x": x}, build_brightness, tolerance=1e-6).passed
        assert finite_diff_check({"x": x}, build_contrast, tolerance=1e-5).passed

    def test_clamp_passes_gradient_on_the_closed_interval(self):
        # brightness 2: pre = 0, 1, 1.5 -> gradient 2, 2, 0
        x = tg.parameter(np.array([0.0, 0.5, 0.75]).reshape(1, 1, 1, 3))
        tg.backward(sum_all(tg.adjust_brightness(x, 2.0)))
        np.testing.assert_array_equal(x.grad.ravel(), [2.0, 2.0, 0.0])
        # contrast 2 about mu = 0.5: pre lands exactly on 0 and 1, so both pixels pass
        x = tg.parameter(np.array([0.25, 0.75]).reshape(1, 1, 1, 2))
        tg.backward(sum_all(tg.adjust_contrast(x, 2.0, [1.0])))
        np.testing.assert_array_equal(x.grad.ravel(), [1.0, 1.0])
        # contrast 3: pre = -0.7 and 1.7, both clamped
        x = tg.parameter(np.array([0.1, 0.9]).reshape(1, 1, 1, 2))
        tg.backward(sum_all(tg.adjust_contrast(x, 3.0, [1.0])))
        np.testing.assert_array_equal(x.grad.ravel(), [0.0, 0.0])

    def test_straight_through_passes_gradient(self):
        x = tg.parameter(np.linspace(0.1, 0.9, 12).reshape(1, 3, 2, 2))
        out = tg.straight_through(x, lambda arr: np.round(arr * 4) / 4)
        tg.backward(sum_all(out))
        np.testing.assert_array_equal(x.grad, np.ones_like(x.value))

    def test_straight_through_shape_change_rejected(self):
        x = tg.parameter(np.ones((1, 1, 4, 4)))
        with pytest.raises(ValueError, match="shape"):
            tg.straight_through(x, lambda arr: arr[:, :, :2, :2])


class TestFiniteDiffCheck:
    def test_linear_graph_is_tight(self):
        x = tg.parameter(np.random.default_rng(17).standard_normal(6))

        def build():
            return sum_all(tg.scale(x, 3.0))

        report = finite_diff_check({"x": x}, build, tolerance=1e-8)
        assert report.passed, str(report)
        assert max(report.max_rel_error.values()) < 1e-8

    def test_conv_bn_relu_graph(self):
        rng = np.random.default_rng(18)
        x = tg.parameter(rng.random((2, 2, 5, 5)) + 0.25)
        w = tg.parameter(rng.standard_normal((3, 2, 3, 3)) * 0.6)
        b = tg.parameter(rng.standard_normal(3) * 0.2)
        gamma = tg.parameter(np.ones(3) + 0.1 * rng.standard_normal(3))
        beta = tg.parameter(0.1 * rng.standard_normal(3))

        def build():
            h = tg.conv2d(x, w, b, pad=1)
            h = tg.batchnorm2d(h, gamma, beta, mode="train")
            return tg.mse_loss(relu(h), tg.leaf(np.zeros(h.value.shape)))

        params = {"x": x, "w": w, "b": b, "gamma": gamma, "beta": beta}
        report = finite_diff_check(params, build, tolerance=1e-4)
        assert report.passed, str(report)

    def test_corrupted_gradient_fails(self):
        x = tg.parameter(np.random.default_rng(19).standard_normal(4))

        def build():
            doubled = tg.scale(x, 1.0)
            doubled._vjp = lambda g: (2.0 * g,)  # deliberately wrong backward
            return sum_all(doubled)

        report = finite_diff_check({"x": x}, build, tolerance=1e-4)
        assert not report.passed
        assert "x" in report.failures

    def test_non_finite_leaf_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            tg.leaf(np.array([1.0, np.nan]))


class TestDeterminism:
    def test_identical_graphs_identical_values(self):
        def run():
            rng = np.random.default_rng(21)
            x = tg.leaf(rng.random((2, 3, 8, 8)))
            w = tg.leaf(rng.standard_normal((4, 3, 3, 3)))
            b = tg.leaf(rng.standard_normal(4))
            h = relu(tg.conv2d(x, w, b, pad=1))
            return tg.global_avg_pool(h).value.copy()

        np.testing.assert_array_equal(run(), run())


class TestTrainingGraphMemory:
    def test_default_step_holds_each_activation_once(self):
        # One default training step (batch 16, base 64, 4+7 blocks, 32x32).
        # The earlier code held a 525 MB forward graph (padded conv inputs,
        # batchnorm temporaries, relu masks) and peaked at 1.6x that during
        # backward, because every interior gradient stayed alive. With three
        # nodes per block it held 403 MB (each conv output and pre-ReLU
        # batchnorm output too) and peaked at 426 MB; the fused block keeps
        # xhat and its output, ~214 MB, and peaks at ~247 MB.
        from facemark import watermarknet as wm

        model = wm.build_model(wm.WatermarkConfig(message_length=16), seed=0)
        rng = np.random.default_rng(40)
        batch = rng.random((16, 3, 32, 32))
        msgs = rng.integers(0, 2, size=(16, 16)).astype(np.float64)
        tracemalloc.start()
        try:
            encoded = wm.forward_encoder(model, batch, msgs)
            logits = wm.forward_decoder(model, encoded)
            loss = tg.add(tg.mse_loss(encoded, tg.leaf(batch)), tg.bce_logits_loss(logits, msgs))
            forward_graph, _ = tracemalloc.get_traced_memory()
            tg.backward(loss)
            _, backward_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(node.grad is not None for _, node in model.params.items())
        assert forward_graph < 250e6
        assert backward_peak < 300e6

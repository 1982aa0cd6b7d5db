"""Dense-tensor arithmetic with reverse-mode automatic differentiation.

The scope is deliberately narrow: exactly the layers the watermark
encoder/decoder and the toy embedder are built from (convolution, batch
normalization, relu, affine, pooling, channel concatenation, the two losses),
the transforms that training augmentation and robustness sweeps both run
through ``imageops.transform_batch`` (spatial crop, bilinear resize,
photometric stretch, straight-through), and an Adam optimizer.

Conventions
-----------
* Values are float64 ``numpy`` arrays in C (row-major) order. Training runs
  in 64-bit so that the tests' finite-difference checks are tight;
  persistence at 32-bit is handled by the callers that own file formats.
* A computation graph is built fresh for every training step. ``backward``
  may be called once per graph; a second call through any of its non-leaf
  nodes raises. ``backward`` releases each vjp closure, and the interior
  gradient it consumed, as soon as the closure has run: afterwards only
  leaves hold ``grad``.
* ``backward`` frees the vjp closures, but every node's ``value`` lives as
  long as something references the graph. A training loop must therefore
  drop one step's graph (its loss and every intermediate node it named)
  before it builds the next, or two steps' activations are alive at once.
* The conv2d vjp keeps its input node but no padded copy, and the
  batchnorm2d vjp the normalized input but not its input node. A
  ``conv_bn_relu`` block's ReLU keeps its output but no mask, so the block
  holds only ``xhat`` and its output beyond its input.
* The ReLU uses subgradient 0 at exactly 0. The clamp in the photometric
  ops passes gradient on the closed interval [0, 1].
* Parallelism: one module-level thread pool has two users. ``conv2d``
  splits a batch into contiguous sample ranges, one per usable core. Each
  sample's GEMM is the same single BLAS call it is serially, and every
  patch buffer and output array is allocated by the calling thread before
  the ranges start; workers only write into them. A batch of one sample,
  or a process with one usable core, runs inline on the calling thread.
  :func:`map_ordered` spreads independent items (one image each, in the
  pipeline) over the calling thread and the pool, and returns results in
  input order. Inside a map every ``conv2d`` runs inline on its own
  thread, whatever its batch size: a participant that waited on the pool
  could wait behind the participants themselves. No GEMM is ever split
  across threads.
* Results repeat bit for bit on any number of usable cores, given one BLAS
  thread: importing :mod:`facemark` before numpy pins BLAS to one thread.
  At more BLAS threads the last digits can change, because BLAS then
  splits its sums differently.
"""

from __future__ import annotations

import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator

import numpy as np

__all__ = [
    "Node",
    "ParamSet",
    "RunningStats",
    "leaf",
    "parameter",
    "conv2d",
    "map_ordered",
    "batchnorm2d",
    "conv_bn_relu",
    "conv_bn_layout",
    "conv_bn_stack_layout",
    "init_params",
    "sigmoid",
    "affine",
    "global_avg_pool",
    "concat_channels",
    "crop_spatial",
    "resize_bilinear",
    "adjust_brightness",
    "adjust_contrast",
    "straight_through",
    "add",
    "scale",
    "mse_loss",
    "bce_logits_loss",
    "softmax_cross_entropy",
    "backward",
    "adam_step",
    "bilinear_resize",
]


class Node:
    """One vertex of the computation graph: a value plus how it was produced.

    ``grad`` stays ``None`` until a backward pass reaches the node. After
    ``backward`` it has the same shape as ``value`` on every leaf that
    requires gradients and lies on a path to the loss; interior nodes hold
    ``None`` again, because their gradients and vjp closures are released
    once used.
    """

    __slots__ = ("value", "op", "parents", "grad", "requires_grad", "_vjp", "_consumed")

    def __init__(self, value, op="leaf", parents=(), requires_grad=False, vjp=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.op = op
        self.parents = tuple(parents)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._vjp = vjp
        self._consumed = False

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node(op={self.op!r}, shape={self.value.shape}, requires_grad={self.requires_grad})"


def leaf(value, requires_grad=False):
    """Wrap an array as a graph leaf, validating finiteness."""
    node = Node(value, op="leaf", requires_grad=requires_grad)
    if not np.all(np.isfinite(node.value)):
        raise ValueError("leaf: value contains NaN or Inf")
    return node


def parameter(value):
    """A trainable leaf."""
    return leaf(value, requires_grad=True)


def _as_node(x):
    return x if isinstance(x, Node) else leaf(x)


def _result(value, op, parents, vjp):
    requires = any(p.requires_grad for p in parents)
    return Node(value, op=op, parents=parents, requires_grad=requires, vjp=vjp if requires else None)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

_POOL = None  # created by the first call that needs a second thread
_POOL_LOCK = threading.Lock()
_LOCAL = threading.local()  # ``in_map`` is set while the thread runs a map participant


def _forget_pool():
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


# A forked child inherits the pool object but none of its threads; work
# submitted to it there would never run. The lock may have been held by a
# thread that does not exist in the child.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _usable_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _pool():
    """The module's one thread pool, for sample ranges and map participants alike."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:  # threads start only as work needs them; cpu_count bounds any affinity mask
            _POOL = ThreadPoolExecutor(os.cpu_count(), thread_name_prefix="tensorgrad")
        return _POOL


def _in_map():
    return getattr(_LOCAL, "in_map", False)


def map_ordered(fn, items):
    """``[fn(item) for item in items]``, with the items spread over the usable cores.

    The calling thread and up to ``usable cores - 1`` pool threads each
    take the next unclaimed item until none is left; results come back in
    input order. Every ``conv2d`` inside ``fn`` runs inline on its own
    thread. Once an item has raised, no new item is taken; after every
    participant has stopped, the exception of the earliest raising item in
    input order is re-raised, which is the one a serial loop would raise.
    With one usable core or one item, or when called from inside a map,
    the items run serially on the calling thread.
    """
    items = list(items)
    participants = min(len(items), _usable_cores())
    if participants < 2 or _in_map():
        return [fn(item) for item in items]
    results = [None] * len(items)
    errors = {}
    claim = threading.Lock()
    taken = 0

    def participate():
        nonlocal taken
        _LOCAL.in_map = True
        try:
            while True:
                with claim:
                    if taken == len(items) or errors:
                        return
                    i, taken = taken, taken + 1
                try:
                    results[i] = fn(items[i])
                except BaseException as exc:  # re-raised by the caller once every participant has stopped
                    with claim:
                        errors[i] = exc
        finally:
            _LOCAL.in_map = False

    pool = _pool()
    futures = [pool.submit(participate) for _ in range(participants - 1)]
    try:
        participate()
    finally:  # no participant may still be writing when the caller moves on
        for future in futures:
            future.result()
    if errors:
        raise errors[min(errors)]
    return results


def _over_samples(n, buf_shape, work):
    """Run ``work(lo, hi, buf)`` over contiguous ranges that cover samples ``0..n-1``.

    There is one range per usable core, at most one per sample, and the
    ranges are in sample order: each sample's arithmetic is the same
    whichever range runs it. Each range gets its own zeroed ``buf_shape``
    buffer, allocated here on the calling thread. The calling thread runs
    the first range and the pool the rest. With one range there is no pool
    and no future: that is the case for one sample, one usable core, or a
    call from inside :func:`map_ordered`. No samples means no call to ``work``.
    """
    if n == 0:
        return
    ranges = 1 if _in_map() else min(n, _usable_cores())
    bounds = [n * r // ranges for r in range(ranges + 1)]
    bufs = [np.zeros(buf_shape) for _ in range(ranges)]
    if ranges == 1:
        work(0, n, bufs[0])
        return
    pool = _pool()
    futures = [pool.submit(work, bounds[r], bounds[r + 1], bufs[r]) for r in range(1, ranges)]
    try:
        work(bounds[0], bounds[1], bufs[0])
    finally:  # no worker may still be writing when the caller moves on
        for future in futures:
            future.result()


def _sample_patches(x, lo, hi, buf, pad):
    """Yield ``(s, cols)``: sample s's (C*k*k, out_h*out_w) patch matrix, for s in ``lo..hi-1``.

    ``buf`` is the caller's zeroed (C, k, k, out_h, out_w) buffer, and every
    matrix is a view of it, so a caller must finish with one before asking
    for the next. Only each tap's in-bounds window is copied from the
    unpadded input: the zero border is the same for every sample. A
    negative ``pad`` crops instead of padding.
    """
    _, c, h, w = x.shape
    _, k, _, out_h, out_w = buf.shape
    taps = []
    for i in range(k):
        y0, y1 = max(0, pad - i), min(out_h, h + pad - i)
        for j in range(k):
            x0, x1 = max(0, pad - j), min(out_w, w + pad - j)
            if y0 < y1 and x0 < x1:
                src = (slice(y0 + i - pad, y1 + i - pad), slice(x0 + j - pad, x1 + j - pad))
                taps.append((buf[:, i, j, y0:y1, x0:x1], src))
    cols = buf.reshape(c * k * k, out_h * out_w)
    for s in range(lo, hi):
        for dst, (rows, columns) in taps:
            np.copyto(dst, x[s, :, rows, columns])
        yield s, cols


def _correlate(x, w_mat, k, pad, out_h, out_w):
    """Per-sample patch GEMMs: (N, C, H, W) x (C_out, C*k*k) -> (N, C_out, out_h, out_w)."""
    n, c = x.shape[:2]
    c_out = w_mat.shape[0]
    out = np.empty((n, c_out, out_h, out_w))
    out_mat = out.reshape(n, c_out, out_h * out_w)

    def work(lo, hi, buf):
        for s, cols in _sample_patches(x, lo, hi, buf, pad):
            np.matmul(w_mat, cols, out=out_mat[s])

    _over_samples(n, (c, k, k, out_h, out_w), work)
    return out


def conv2d(x, weight, bias, pad=0):
    """Stride-1 cross-correlation with zero padding over an N x C x H x W batch.

    ``weight`` is C_out x C_in x k x k with k odd; the output spatial size is
    H + 2*pad - k + 1.

    Patches are gathered one sample at a time, straight from the unpadded
    input, into buffers that live for one call; no padded copy of the
    input is made or kept for the backward pass. The input gradient
    correlates the output gradient, padded (or cropped) by k - 1 - pad,
    with the flipped kernel. The weight gradient writes each sample's
    product into its own row of an (N, C_out, C_in, k, k) array, then adds
    the rows in sample order from row 0. Forward, input gradient and weight
    gradient each spread their samples over the usable cores (see the
    module's parallelism convention), with the same bits as a serial run.
    """
    x, weight, bias = _as_node(x), _as_node(weight), _as_node(bias)
    if x.value.ndim != 4:
        raise ValueError(f"conv2d: input must be 4-D (N,C,H,W), got shape {x.value.shape}")
    if weight.value.ndim != 4:
        raise ValueError(f"conv2d: weight must be 4-D (C_out,C_in,k,k), got shape {weight.value.shape}")
    n, c_in, h, w = x.value.shape
    c_out, wc_in, kh, kw = weight.value.shape
    if kh != kw or kh % 2 == 0:
        raise ValueError(f"conv2d: kernel must be square with odd size, got {kh}x{kw}")
    if wc_in != c_in:
        raise ValueError(f"conv2d: input has {c_in} channels but weight expects {wc_in} (axis 1)")
    if bias.value.shape != (c_out,):
        raise ValueError(f"conv2d: bias shape {bias.value.shape} does not match {c_out} output channels (axis 0)")
    if pad < 0:
        raise ValueError(f"conv2d: pad must be >= 0, got {pad}")
    k = kh
    out_h = h + 2 * pad - k + 1
    out_w = w + 2 * pad - k + 1
    if out_h < 1 or out_w < 1:
        raise ValueError(f"conv2d: output size {out_h}x{out_w} is empty")

    w_mat = weight.value.reshape(c_out, c_in * k * k)
    out = _correlate(x.value, w_mat, k, pad, out_h, out_w)
    out += bias.value[None, :, None, None]

    def vjp(g):
        gx = gw = gb = None
        if bias.requires_grad:
            gb = g.sum(axis=(0, 2, 3))
        if weight.requires_grad:
            gf = g.reshape(n, c_out, out_h * out_w)
            products = np.empty((n, *weight.value.shape))

            def work(lo, hi, buf):
                for s, cols in _sample_patches(x.value, lo, hi, buf, pad):
                    np.matmul(gf[s], cols.T, out=products[s].reshape(c_out, c_in * k * k))

            _over_samples(n, (c_in, k, k, out_h, out_w), work)
            gw = products[0].copy() if n else np.zeros(weight.value.shape)
            for product in products[1:]:
                gw += product
        if x.requires_grad:
            w_flip = weight.value[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            w_flip_mat = np.ascontiguousarray(w_flip.reshape(c_in, c_out * k * k))
            gx = _correlate(g, w_flip_mat, k, k - 1 - pad, h, w)
        return gx, gw, gb

    return _result(out, "conv2d", (x, weight, bias), vjp)


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------

@dataclass
class RunningStats:
    """Exponential moving average of per-channel batch statistics.

    Initialized on the first update to the batch statistics themselves,
    then blended with ``momentum`` weight on the new batch.
    """

    momentum: float = 0.1
    mean: np.ndarray | None = None
    var: np.ndarray | None = None

    @property
    def populated(self):
        return self.mean is not None

    def update(self, mean, var):
        if self.mean is None:
            self.mean = mean.copy()
            self.var = var.copy()
        else:
            m = self.momentum
            self.mean = (1.0 - m) * self.mean + m * mean
            self.var = (1.0 - m) * self.var + m * var


def batchnorm2d(x, gamma, beta, mode="train", running=None, eps=1e-5):
    """Per-channel normalization over the N, H, W axes.

    ``train`` normalizes with biased batch statistics and, when ``running``
    is given, updates its moving averages. ``infer`` requires populated
    running statistics. The same biased-variance convention is used for
    normalization and for the stored running variance.
    """
    x, gamma, beta = _as_node(x), _as_node(gamma), _as_node(beta)
    if eps <= 0:
        raise ValueError(f"batchnorm2d: eps must be > 0, got {eps}")
    if x.value.ndim != 4:
        raise ValueError(f"batchnorm2d: input must be 4-D (N,C,H,W), got shape {x.value.shape}")
    n, c, h, w = x.value.shape
    if gamma.value.shape != (c,) or beta.value.shape != (c,):
        raise ValueError(
            f"batchnorm2d: gamma/beta shapes {gamma.value.shape}/{beta.value.shape} "
            f"do not match {c} channels (axis 1)"
        )
    if mode not in ("train", "infer"):
        raise ValueError(f"batchnorm2d: mode must be 'train' or 'infer', got {mode!r}")

    axes = (0, 2, 3)
    xhat = np.empty(x.value.shape)
    if mode == "train":
        mu = x.value.mean(axis=axes)
        var = np.square(x.value, out=xhat).mean(axis=axes) - np.square(mu)
        np.maximum(var, 0.0, out=var)  # guard rounding on constant channels
        if running is not None:
            running.update(mu, var)
    else:
        if running is None or not running.populated:
            raise ValueError("batchnorm2d: infer mode requires populated running statistics")
        mu, var = running.mean, running.var

    inv_std = 1.0 / np.sqrt(var + eps)
    np.subtract(x.value, mu[None, :, None, None], out=xhat)
    xhat *= inv_std[None, :, None, None]
    out = gamma.value[None, :, None, None] * xhat
    out += beta.value[None, :, None, None]
    m = n * h * w
    x_grad = x.requires_grad  # the closure keeps no reference to the input node

    def vjp(g):
        # ``g`` may be shared with another branch (``add`` hands one array to
        # both parents), so it is only read. Means are sums divided by m,
        # which is how ``np.mean`` computes them.
        gx = ggamma = gbeta = None
        g_sum = g.sum(axis=axes)
        gxh = gxh_sum = None
        if gamma.requires_grad or (x_grad and mode == "train"):
            gxh = g * xhat
            gxh_sum = gxh.sum(axis=axes)
        if beta.requires_grad:
            gbeta = g_sum
        if gamma.requires_grad:
            ggamma = gxh_sum
        if x_grad:
            scale_c = (gamma.value * inv_std)[None, :, None, None]
            if mode == "train":
                centered = np.subtract(g, (g_sum / m)[None, :, None, None], out=gxh)
                gx = xhat * (gxh_sum / m)[None, :, None, None]
                np.subtract(centered, gx, out=gx)
                np.multiply(scale_c, gx, out=gx)
            else:
                gx = scale_c * g
        return gx, ggamma, gbeta

    return _result(out, "batchnorm2d", (x, gamma, beta), vjp)


# ---------------------------------------------------------------------------
# elementwise / structural ops
# ---------------------------------------------------------------------------

def conv_bn_relu(x, weight, bias, gamma, beta, mode="train", running=None):
    """The Conv-BN-ReLU block all three networks stack: pad-1 conv2d, batchnorm2d, relu.

    One graph node with parents (x, weight, bias, gamma, beta), bit-identical
    to an unfused ``max(0, batchnorm2d(conv2d(...)))`` with subgradient 0 at
    0. It calls the two ops through this module's names and keeps only their
    vjps, so neither the conv output nor the pre-ReLU output outlives the
    forward pass; the ReLU runs in place.
    """
    x, weight, bias, gamma, beta = (_as_node(p) for p in (x, weight, bias, gamma, beta))
    h = conv2d(x, weight, bias, pad=1)
    conv_vjp = h._vjp
    bn = batchnorm2d(h, gamma, beta, mode=mode, running=running)
    bn_vjp, out = bn._vjp, bn.value
    del h, bn
    np.maximum(out, 0.0, out=out)

    def vjp(g):
        gh, ggamma, gbeta = bn_vjp(g * (out > 0.0))
        gx, gw, gb = (None, None, None) if conv_vjp is None else conv_vjp(gh)
        return gx, gw, gb, ggamma, gbeta

    return _result(out, "conv_bn_relu", (x, weight, bias, gamma, beta), vjp)


def sigmoid(x):
    """Numerically stable logistic function."""
    x = _as_node(x)
    v = x.value
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)

    def vjp(g):
        return (g * out * (1.0 - out),)

    return _result(out, "sigmoid", (x,), vjp)


def affine(x, weight, bias):
    """x @ weight.T + bias over an N x F batch; weight is G x F."""
    x, weight, bias = _as_node(x), _as_node(weight), _as_node(bias)
    if x.value.ndim != 2 or weight.value.ndim != 2:
        raise ValueError(
            f"affine: expected 2-D input and weight, got shapes {x.value.shape} and {weight.value.shape}"
        )
    n, f = x.value.shape
    g_dim, wf = weight.value.shape
    if wf != f:
        raise ValueError(f"affine: input has {f} features but weight expects {wf} (axis 1)")
    if bias.value.shape != (g_dim,):
        raise ValueError(f"affine: bias shape {bias.value.shape} does not match {g_dim} outputs (axis 0)")
    out = x.value @ weight.value.T + bias.value

    def vjp(g):
        gx = g @ weight.value if x.requires_grad else None
        gw = g.T @ x.value if weight.requires_grad else None
        gb = g.sum(axis=0) if bias.requires_grad else None
        return gx, gw, gb

    return _result(out, "affine", (x, weight, bias), vjp)


def global_avg_pool(x):
    """Spatial mean per channel: N x C x H x W -> N x C."""
    x = _as_node(x)
    if x.value.ndim != 4:
        raise ValueError(f"global_avg_pool: input must be 4-D, got shape {x.value.shape}")
    n, c, h, w = x.value.shape
    out = x.value.mean(axis=(2, 3))

    def vjp(g):
        return (np.broadcast_to(g[:, :, None, None] / (h * w), x.value.shape).copy(),)

    return _result(out, "global_avg_pool", (x,), vjp)


def concat_channels(*parts):
    """Stack N x C x H x W tensors along the channel axis, in argument order."""
    parts = tuple(_as_node(p) for p in parts)
    if any(p.value.ndim != 4 for p in parts):
        raise ValueError("concat_channels: inputs must be 4-D (N,C,H,W)")
    first = parts[0].value.shape
    for p in parts[1:]:
        if p.value.shape[0] != first[0] or p.value.shape[2:] != first[2:]:
            raise ValueError(f"concat_channels: batch/spatial shapes differ: {first} vs {p.value.shape}")
    ends = list(itertools.accumulate(p.value.shape[1] for p in parts))
    out = np.concatenate([p.value for p in parts], axis=1)

    def vjp(g):
        return tuple(g[:, lo:hi] if p.requires_grad else None for p, lo, hi in zip(parts, [0, *ends], ends))

    return _result(out, "concat_channels", parts, vjp)


def crop_spatial(x, top, left, height, width):
    """Slice a spatial window; gradient scatters back into the source."""
    x = _as_node(x)
    n, c, h, w = x.value.shape
    if not (0 <= top and top + height <= h and 0 <= left and left + width <= w):
        raise ValueError(
            f"crop_spatial: window ({top},{left})+{height}x{width} out of bounds for {h}x{w}"
        )
    out = x.value[:, :, top : top + height, left : left + width].copy()

    def vjp(g):
        gx = np.zeros_like(x.value)
        gx[:, :, top : top + height, left : left + width] = g
        return (gx,)

    return _result(out, "crop_spatial", (x,), vjp)


def _bilinear_taps(in_size, out_size):
    """Source indices and blend weight for half-pixel-center sampling."""
    coords = (np.arange(out_size) + 0.5) * (in_size / out_size) - 0.5
    lo = np.floor(coords)
    t = coords - lo
    i0 = np.clip(lo, 0, in_size - 1).astype(np.intp)
    i1 = np.clip(lo + 1, 0, in_size - 1).astype(np.intp)
    return i0, i1, t


def bilinear_resize(arr, out_h, out_w):
    """Bilinear resampling of the trailing two axes (align-corners false).

    Sample centers sit at half-pixel positions; out-of-range taps clamp to
    the edge. Plain-array helper shared by the differentiable op and the
    embedder's input resize, so both use identical sampling.
    """
    in_h, in_w = arr.shape[-2], arr.shape[-1]
    y0, y1, ty = _bilinear_taps(in_h, out_h)
    x0, x1, tx = _bilinear_taps(in_w, out_w)
    ty = ty.reshape(-1, 1)
    tx = tx.reshape(1, -1)
    top = arr[..., y0[:, None], x0[None, :]] * (1 - tx) + arr[..., y0[:, None], x1[None, :]] * tx
    bot = arr[..., y1[:, None], x0[None, :]] * (1 - tx) + arr[..., y1[:, None], x1[None, :]] * tx
    return top * (1 - ty) + bot * ty


def resize_bilinear(x, out_h, out_w):
    """Differentiable bilinear resize of an N x C x H x W tensor."""
    x = _as_node(x)
    if x.value.ndim != 4:
        raise ValueError(f"resize_bilinear: input must be 4-D, got shape {x.value.shape}")
    in_h, in_w = x.value.shape[2], x.value.shape[3]
    if out_h < 1 or out_w < 1:
        raise ValueError(f"resize_bilinear: output size {out_h}x{out_w} is empty")
    out = bilinear_resize(x.value, out_h, out_w)

    def vjp(g):
        y0, y1, ty = _bilinear_taps(in_h, out_h)
        x0, x1, tx = _bilinear_taps(in_w, out_w)
        gx = np.zeros_like(x.value)
        ty2 = ty.reshape(-1, 1)
        tx2 = tx.reshape(1, -1)
        yy0, xx0 = y0[:, None], x0[None, :]
        yy1, xx1 = y1[:, None], x1[None, :]
        np.add.at(gx, (Ellipsis, yy0, xx0), g * (1 - ty2) * (1 - tx2))
        np.add.at(gx, (Ellipsis, yy0, xx1), g * (1 - ty2) * tx2)
        np.add.at(gx, (Ellipsis, yy1, xx0), g * ty2 * (1 - tx2))
        np.add.at(gx, (Ellipsis, yy1, xx1), g * ty2 * tx2)
        return (gx,)

    return _result(out, "resize_bilinear", (x,), vjp)


def adjust_brightness(x, factor):
    """clamp(factor * x, 0, 1); gradient passes on the closed interval."""
    x = _as_node(x)
    if factor <= 0:
        raise ValueError(f"adjust_brightness: factor must be > 0, got {factor}")
    out = np.clip(factor * x.value, 0.0, 1.0)

    def vjp(g):
        pre = factor * x.value  # the forward expression, so a forward-only pass builds no mask
        return (g * ((pre >= 0.0) & (pre <= 1.0)) * factor,)

    return _result(out, "adjust_brightness", (x,), vjp)


def adjust_contrast(x, factor, channel_weights):
    """Affine stretch about the per-image channel-weighted global mean.

    out = clamp(mu + factor * (x - mu), 0, 1) with
    mu = sum_c w_c * mean_hw(x[c]); the mean itself is differentiated.
    """
    x = _as_node(x)
    if factor <= 0:
        raise ValueError(f"adjust_contrast: factor must be > 0, got {factor}")
    n, c, h, w = x.value.shape
    wts = np.asarray(channel_weights, dtype=np.float64)
    if wts.shape != (c,):
        raise ValueError(f"adjust_contrast: expected {c} channel weights, got shape {wts.shape}")
    mu = np.einsum("nchw,c->n", x.value, wts)[:, None, None, None] / (h * w)
    out = np.clip(mu + factor * (x.value - mu), 0.0, 1.0)

    def vjp(g):
        pre = mu + factor * (x.value - mu)  # the forward expression, so a forward-only pass builds no mask
        gm = g * ((pre >= 0.0) & (pre <= 1.0))
        per_image = gm.sum(axis=(1, 2, 3))
        gx = factor * gm + (1.0 - factor) / (h * w) * per_image[:, None, None, None] * wts[None, :, None, None]
        return (gx,)

    return _result(out, "adjust_contrast", (x,), vjp)


def straight_through(x, fn, op="straight_through"):
    """Apply a non-differentiable array map; backward passes gradients unchanged.

    ``fn`` must preserve shape — used for the JPEG round trip inside training.
    """
    x = _as_node(x)
    out = np.asarray(fn(x.value), dtype=np.float64)
    if out.shape != x.value.shape:
        raise ValueError(f"straight_through: fn changed shape {x.value.shape} -> {out.shape}")

    def vjp(g):
        return (g,)

    return _result(out, op, (x,), vjp)


def add(a, b):
    """Elementwise sum of two same-shape nodes."""
    a, b = _as_node(a), _as_node(b)
    if a.value.shape != b.value.shape:
        raise ValueError(f"add: shapes differ: {a.value.shape} vs {b.value.shape}")
    out = a.value + b.value

    def vjp(g):
        return g, g

    return _result(out, "add", (a, b), vjp)


def scale(x, c):
    """Multiply by a python scalar."""
    x = _as_node(x)
    c = float(c)
    out = x.value * c

    def vjp(g):
        return (g * c,)

    return _result(out, "scale", (x,), vjp)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def mse_loss(a, b):
    """Mean of squared differences over all elements."""
    a, b = _as_node(a), _as_node(b)
    if a.value.shape != b.value.shape:
        raise ValueError(f"mse_loss: shapes differ: {a.value.shape} vs {b.value.shape}")
    diff = a.value - b.value
    n = diff.size
    out = np.asarray((diff * diff).sum() / n)

    def vjp(g):
        base = (2.0 / n) * diff * g
        ga = base if a.requires_grad else None
        gb = -base if b.requires_grad else None
        return ga, gb

    return _result(out, "mse_loss", (a, b), vjp)


def bce_logits_loss(logits, targets):
    """Mean bit-wise binary cross-entropy on raw logits.

    Uses the softplus-stabilized form max(x,0) - x*t + log(1 + exp(-|x|)),
    finite for any finite logit. ``targets`` must be 0/1 and is treated as a
    constant.
    """
    logits = _as_node(logits)
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != logits.value.shape:
        raise ValueError(f"bce_logits_loss: logits shape {logits.value.shape} vs targets {t.shape}")
    if not np.all((t == 0.0) | (t == 1.0)):
        raise ValueError("bce_logits_loss: targets must be exactly 0 or 1")
    x = logits.value
    if not np.all(np.isfinite(x)):
        raise ValueError("bce_logits_loss: logits contain NaN or Inf")
    n = x.size
    per_bit = np.maximum(x, 0.0) - x * t + np.log1p(np.exp(-np.abs(x)))
    out = np.asarray(per_bit.sum() / n)
    sig = 1.0 / (1.0 + np.exp(-np.abs(x)))
    sig = np.where(x >= 0, sig, 1.0 - sig)  # sigmoid(x) without overflow

    def vjp(g):
        return ((sig - t) / n * g,)

    return _result(out, "bce_logits_loss", (logits,), vjp)


def softmax_cross_entropy(logits, labels):
    """Mean softmax cross-entropy for N x K logits and integer labels."""
    logits = _as_node(logits)
    if logits.value.ndim != 2:
        raise ValueError(f"softmax_cross_entropy: logits must be 2-D, got shape {logits.value.shape}")
    n, k = logits.value.shape
    y = np.asarray(labels)
    if y.shape != (n,):
        raise ValueError(f"softmax_cross_entropy: expected {n} labels, got shape {y.shape}")
    if y.min() < 0 or y.max() >= k:
        raise ValueError(f"softmax_cross_entropy: labels must lie in [0, {k})")
    x = logits.value
    xmax = x.max(axis=1, keepdims=True)
    ex = np.exp(x - xmax)
    denom = ex.sum(axis=1, keepdims=True)
    log_probs = (x - xmax) - np.log(denom)
    out = np.asarray(-log_probs[np.arange(n), y].mean())
    probs = ex / denom

    def vjp(g):
        gl = probs.copy()
        gl[np.arange(n), y] -= 1.0
        return (gl / n * g,)

    return _result(out, "softmax_cross_entropy", (logits,), vjp)


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def _topo_order(root):
    """Children-before-parents order with cycle detection (iterative DFS)."""
    WHITE, GRAY, BLACK = 0, 1, 2
    state: dict[int, int] = {}
    order: list[Node] = []
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        nid = id(node)
        if processed:
            state[nid] = BLACK
            order.append(node)
            continue
        mark = state.get(nid, WHITE)
        if mark == BLACK:
            continue
        if mark == GRAY:
            raise ValueError("backward: cycle detected in computation graph")
        state[nid] = GRAY
        stack.append((node, True))
        for p in node.parents:
            pmark = state.get(id(p), WHITE)
            if pmark == GRAY:
                raise ValueError("backward: cycle detected in computation graph")
            if pmark == WHITE:
                stack.append((p, False))
    return order


def backward(loss):
    """Populate ``grad`` on every reachable leaf that requires gradients.

    ``loss`` must be a scalar node. Gradients of interior nodes, and each
    node's vjp closure with the arrays it captured, are released as soon as
    the vjp has run, so only leaves (parameters and ``requires_grad``
    leaves) keep ``grad``. Each graph supports one backward pass: a graph
    that reaches any non-leaf node of a backpropagated graph raises. Leaves
    are never consumed, so parameters serve one graph after another.
    """
    if not isinstance(loss, Node):
        raise TypeError("backward: loss must be a Node")
    if loss.value.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.value.shape}")
    if not np.all(np.isfinite(loss.value)):
        raise ValueError("backward: loss is not finite")

    order = _topo_order(loss)
    if any(node._consumed for node in order):
        raise RuntimeError("backward: this graph was already backpropagated; rebuild the graph")
    for node in order:
        if node.parents:
            node._consumed = True
    loss.grad = np.ones_like(loss.value)
    for node in reversed(order):
        vjp, g_out = node._vjp, node.grad
        if vjp is None:
            continue
        node._vjp = node.grad = None
        if g_out is None:
            continue
        for p, g in zip(node.parents, vjp(g_out)):
            if g is None or not p.requires_grad:
                continue
            if p.grad is None:
                p.grad = g.copy() if g.base is not None else g
            else:
                p.grad = p.grad + g


# ---------------------------------------------------------------------------
# parameters and Adam
# ---------------------------------------------------------------------------

class ParamSet:
    """Named trainable parameters, their Adam moment buffers and their batchnorm running statistics.

    Adding ``<block>.bn.gamma`` creates ``stats["<block>.bn"]``, a :class:`RunningStats`, in parameter order.
    """

    def __init__(self):
        self._params: dict[str, Node] = {}
        self._m1: dict[str, np.ndarray] = {}
        self._m2: dict[str, np.ndarray] = {}
        self.stats: dict[str, RunningStats] = {}
        self.step_count = 0

    def add(self, name, value):
        if name in self._params:
            raise ValueError(f"ParamSet: duplicate parameter {name!r}")
        node = parameter(np.array(value, dtype=np.float64))
        self._params[name] = node
        self._m1[name] = np.zeros_like(node.value)
        self._m2[name] = np.zeros_like(node.value)
        if name.endswith(".bn.gamma"):
            self.stats[name[: -len(".gamma")]] = RunningStats()
        return node

    def __getitem__(self, name) -> Node:
        return self._params[name]

    def items(self) -> Iterator[tuple[str, Node]]:
        return iter(self._params.items())

    def block(self, x, prefix, mode, track_stats=True):
        """Run the :func:`conv_bn_relu` block ``prefix`` on ``x``.

        ``track_stats=False`` leaves the block's running statistics out, so only ``train`` mode can run.
        """
        running = self.stats[f"{prefix}.bn"] if track_stats else None
        return conv_bn_relu(x, *(self[f"{prefix}.{part}"] for part in _CONV_BN_PARTS), mode, running)


_CONV_BN_PARTS = ("conv.weight", "conv.bias", "bn.gamma", "bn.beta")


def conv_bn_layout(prefix, c_in, c_out):
    """The (name, shape) pairs of one :func:`conv_bn_relu` block, in :func:`conv_bn_relu` argument order."""
    shapes = ((c_out, c_in, 3, 3), (c_out,), (c_out,), (c_out,))
    return [(f"{prefix}.{part}", shape) for part, shape in zip(_CONV_BN_PARTS, shapes)]


def conv_bn_stack_layout(prefix, count, c_in, width):
    """The layout of ``count`` stacked blocks ``<prefix>.block<i>``, the first taking ``c_in`` channels."""
    return [pair for i in range(count) for pair in conv_bn_layout(f"{prefix}.block{i}", width if i else c_in, width)]


def init_params(layout, rng=None):
    """A :class:`ParamSet` for ``layout``'s (name, shape) pairs, drawn from ``rng`` in order.

    ``*.weight`` is He-normal over its fan-in (all axes but the first), ``*.gamma``
    one and the rest zero. With no ``rng`` every value is zero, for a loader to fill.
    """
    params = ParamSet()
    for name, shape in layout:
        value = np.zeros(shape)
        if rng is not None and name.endswith(".weight"):
            value = rng.standard_normal(shape) * np.sqrt(2.0 / int(np.prod(shape[1:])))
        elif rng is not None and name.endswith(".gamma"):
            value = np.ones(shape)
        params.add(name, value)
    return params


def adam_step(params: ParamSet, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
    """One bias-corrected Adam update; gradients are cleared afterward."""
    for name, node in params.items():
        if node.grad is None:
            raise ValueError(f"adam_step: parameter {name!r} has no gradient")
        if node.grad.shape != node.value.shape:
            raise ValueError(f"adam_step: gradient shape mismatch on {name!r}")
    t = params.step_count + 1
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    for name, node in params.items():
        g = node.grad
        m1 = params._m1[name]
        m2 = params._m2[name]
        m1 *= beta1
        m1 += (1.0 - beta1) * g
        m2 *= beta2
        m2 += (1.0 - beta2) * (g * g)
        node.value -= lr * (m1 / c1) / (np.sqrt(m2 / c2) + eps)
        node.grad = None
    params.step_count = t

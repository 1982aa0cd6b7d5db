"""Spans and counters around facemark's public functions, from outside the package.

Every call site in facemark goes through a module attribute (``tg.conv2d``,
``imageops.jpeg_roundtrip``, ``bioeval.cosine_similarity``) or a name bound by
``from ... import``, so replacing each binding of a function in the loaded
facemark modules reaches every caller. :class:`Tracer` does that on
``install`` and puts the originals back on ``uninstall``; nothing under
``src/`` knows it exists.

A span records (name, start, end, parent index) and stays in memory until
:meth:`Tracer.layer_metrics` folds them. Self time is a span's duration minus
the durations of its direct children (one thread, so children never
overlap). Autodiff ops get a ``.fwd`` span around the call and a ``.vjp``
span around the returned node's ``_vjp``. ``cosine_similarity`` runs ~450k
times per verification, so it gets a call count and an accumulated time but
no span.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

import numpy as np

_ORIGINAL = "__perfbench_original__"

PAIRING_MODES = ("original-original", "watermarked-original", "watermarked-watermarked")
TRANSFORM_KINDS = ("crop", "resize", "brightness", "contrast", "jpeg")

# Every per-layer metric, in print order. BENCHMARK.json declares the same
# names; the self-test keeps the two in step.
LAYER_METRICS = (
    ("tensorgrad.conv2d.fwd_s", "s"),
    ("tensorgrad.conv2d.vjp_s", "s"),
    ("tensorgrad.conv2d.calls", "count"),
    ("tensorgrad.conv2d.gflop", "GFLOP"),
    ("tensorgrad.conv2d.gflops", "GFLOP/s"),
    ("tensorgrad.batchnorm2d.fwd_s", "s"),
    ("tensorgrad.batchnorm2d.vjp_s", "s"),
    ("tensorgrad.resize_bilinear.vjp_s", "s"),
    ("tensorgrad.straight_through.fwd_s", "s"),
    ("tensorgrad.adam_step.s", "s"),
    ("tensorgrad.backward.self_s", "s"),
    ("watermarknet.forward_encoder.s", "s"),
    ("watermarknet.forward_decoder.s", "s"),
    ("watermarknet.encode.calls", "count"),
    ("watermarknet.encode.ms_p50", "ms"),
    ("watermarknet.encode.ms_p90", "ms"),
    ("watermarknet.extract.calls", "count"),
    ("watermarknet.extract.ms_p50", "ms"),
    ("watermarknet.extract.ms_p90", "ms"),
    ("watermarknet.save_model.s", "s"),
    ("watermarknet.load_model.s", "s"),
    ("imageops.jpeg_roundtrip.s", "s"),
    ("imageops.jpeg_roundtrip.calls", "count"),
    *((f"imageops.apply_transform.{kind}.s", "s") for kind in TRANSFORM_KINDS),
    ("imageops.save_ppm.s", "s"),
    ("imageops.load_ppm.s", "s"),
    ("imageops.psnr.s", "s"),
    ("containers.write_container.bytes", "B"),
    ("containers.read_container.s", "s"),
    *((f"bioeval.pair_scores.{mode}.s", "s") for mode in PAIRING_MODES),
    ("bioeval.pair_scores.pairs", "count"),
    ("bioeval.pair_scores.skipped_identities", "count"),
    ("bioeval.cosine_similarity.calls", "count"),
    ("bioeval.cosine_similarity.s", "s"),
    ("bioeval.tar_at_far.s", "s"),
    ("bioeval.eer.s", "s"),
    ("bioeval.welch_t_test.s", "s"),
    ("pipeline.train_watermark.self_s", "s"),
    ("pipeline.watermark_dataset.self_s", "s"),
    ("pipeline.watermark_dataset.skipped_images", "count"),
    ("pipeline.run_sweep.self_s", "s"),
    ("pipeline.run_sweep.failed_cells", "count"),
    ("pipeline.run_verification.self_s", "s"),
    ("pipeline.run_verification.error_reports", "count"),
    ("share.conv2d_of_train_step", "fraction"),
    ("share.cosine_similarity_of_pair_scores", "fraction"),
    ("process.user_s", "s"),
    ("process.sys_s", "s"),
    ("trace_overhead_frac", "fraction"),
    ("failed_ops_frac", "fraction"),
)


def facemark_modules():
    return [mod for name, mod in sorted(sys.modules.items()) if name == "facemark" or name.startswith("facemark.")]


def installed_wrappers():
    """Names of facemark module attributes that are tracer wrappers right now."""
    return sorted(
        f"{mod.__name__}.{name}"
        for mod in facemark_modules()
        for name, value in vars(mod).items()
        if hasattr(value, _ORIGINAL)
    )


def _conv_flop(x_shape, w_shape, out_shape):
    """Multiply-adds x2 of one conv2d forward, from the shapes alone."""
    n, c_out, out_h, out_w = out_shape
    _, c_in, k, _ = w_shape
    return 2.0 * n * c_out * c_in * k * k * out_h * out_w


class Tracer:
    """In-memory spans plus counters; ``with Tracer() as t:`` patches and restores."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.counts = defaultdict(float)
        self._stack = []
        self._patches = []  # (module, attribute, original)

    # -- span primitives ---------------------------------------------------

    def _open(self, name):
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _call_in_span(self, name, fn, args, kwargs):
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    # -- wrapper factories -------------------------------------------------

    def _patch(self, module, attr, make_wrapper):
        original = getattr(module, attr)
        wrapper = functools.wraps(original)(make_wrapper(original))
        setattr(wrapper, _ORIGINAL, original)
        for mod in facemark_modules():
            for name in [n for n, v in vars(mod).items() if v is original]:
                self._patches.append((mod, name, original))
                setattr(mod, name, wrapper)

    def _span(self, module, attr, name_of=None, after=None):
        base = f"{module.__name__.rpartition('.')[2]}.{attr}"

        def make(fn):
            def wrapper(*args, **kwargs):
                name = name_of(base, args) if name_of else base
                result = self._call_in_span(name, fn, args, kwargs)
                if after is not None:
                    after(result, args)
                return result

            return wrapper

        self._patch(module, attr, make)

    def _node_op(self, module, attr, flop=False):
        """Span the forward call and, if the node will be differentiated, its vjp."""
        base = f"tensorgrad.{attr}"

        def make(fn):
            def wrapper(*args, **kwargs):
                node = self._call_in_span(base + ".fwd", fn, args, kwargs)
                fwd_flop = 0.0
                if flop:
                    x, w = node.parents[0], node.parents[1]
                    fwd_flop = _conv_flop(x.value.shape, w.value.shape, node.value.shape)
                    self.counts[base + ".flop"] += fwd_flop
                vjp = node._vjp
                if vjp is not None:
                    # gx and gw each cost one forward's worth of multiply-adds.
                    vjp_flop = fwd_flop * sum(p.requires_grad for p in node.parents[:2])

                    def traced_vjp(g):
                        self.counts[base + ".flop"] += vjp_flop
                        return self._call_in_span(base + ".vjp", vjp, (g,), {})

                    node._vjp = traced_vjp
                return node

            return wrapper

        self._patch(module, attr, make)

    def _counted(self, module, attr):
        base = f"{module.__name__.rpartition('.')[2]}.{attr}"
        seconds_key, calls_key = base + ".s", base + ".calls"
        counts = self.counts
        clock = time.perf_counter

        def make(fn):
            def wrapper(*args, **kwargs):
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    counts[seconds_key] += clock() - t0
                    counts[calls_key] += 1

            return wrapper

        self._patch(module, attr, make)

    # -- install / uninstall -----------------------------------------------

    def install(self):
        from facemark import bioeval, containers, imageops, pipeline, watermarknet
        from facemark import tensorgrad as tg

        counts = self.counts
        self._node_op(tg, "conv2d", flop=True)
        for attr in ("batchnorm2d", "resize_bilinear", "straight_through"):
            self._node_op(tg, attr)
        self._span(tg, "adam_step")
        self._span(tg, "backward")
        for attr in ("forward_encoder", "forward_decoder", "encode", "extract", "save_model", "load_model"):
            self._span(watermarknet, attr)
        for attr in ("jpeg_roundtrip", "save_ppm", "load_ppm", "psnr"):
            self._span(imageops, attr)
        self._span(imageops, "apply_transform", name_of=lambda base, args: f"{base}.{args[1].kind}")

        def written_bytes(_result, args):
            counts["containers.write_container.bytes"] += os.path.getsize(args[0])

        self._span(containers, "write_container", after=written_bytes)
        self._span(containers, "read_container")

        def score_counts(scores, _args):
            counts["bioeval.pair_scores.pairs"] += scores.genuine.size + scores.imposter.size
            counts["bioeval.pair_scores.skipped_identities"] += scores.skipped_identities

        self._span(bioeval, "pair_scores", name_of=lambda base, args: f"{base}.{args[1]}", after=score_counts)
        self._counted(bioeval, "cosine_similarity")
        for attr in ("tar_at_far", "eer", "welch_t_test"):
            self._span(bioeval, attr)

        def skipped_images(result, _args):
            counts["pipeline.watermark_dataset.skipped_images"] += len(result.failed)

        def failed_cells(cells, _args):
            counts["pipeline.run_sweep.failed_cells"] += sum(c.reason is not None for c in cells)

        def error_reports(reports, _args):
            counts["pipeline.run_verification.error_reports"] += sum(r.error is not None for r in reports)

        self._span(pipeline, "train_watermark")
        self._span(pipeline, "watermark_dataset", after=skipped_images)
        self._span(pipeline, "run_sweep", after=failed_cells)
        self._span(pipeline, "run_verification", after=error_reports)

    def uninstall(self):
        for mod, name, original in reversed(self._patches):
            setattr(mod, name, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- aggregation -------------------------------------------------------

    def _fold(self):
        """Inclusive seconds, self seconds and durations per span name."""
        durations = [end - start for _, start, end, _ in self.spans]
        child_time = [0.0] * len(self.spans)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += durations[i]
        total = defaultdict(float)
        self_time = defaultdict(float)
        per_call = defaultdict(list)
        for i, (name, _, _, _) in enumerate(self.spans):
            total[name] += durations[i]
            self_time[name] += durations[i] - child_time[i]
            per_call[name].append(durations[i])
        return durations, total, self_time, per_call

    def _time_under(self, durations, names, ancestor):
        """Seconds spent in spans named in ``names`` that run inside ``ancestor``."""
        inside = [False] * len(self.spans)
        seconds = 0.0
        for i, (name, _, _, parent) in enumerate(self.spans):
            # Parents precede children in the list, so one pass suffices.
            inside[i] = name == ancestor or (parent >= 0 and inside[parent])
            if name in names and inside[i]:
                seconds += durations[i]
        return seconds

    def layer_metrics(self, run_values):
        """Every name in LAYER_METRICS -> value; layers a workload never calls read 0.

        ``run_values`` supplies the metrics measured by the caller rather than
        by spans: CPU time split, tracing overhead and the failed-ops share.
        """
        durations, total, self_time, per_call = self._fold()
        counts = self.counts

        def ms_percentile(name, q):
            calls = per_call.get(name)
            return float(np.percentile(calls, q)) * 1e3 if calls else 0.0

        def ratio(num, den):
            return num / den if den > 0 else 0.0

        conv_s = total["tensorgrad.conv2d.fwd"] + total["tensorgrad.conv2d.vjp"]
        gflop = counts["tensorgrad.conv2d.flop"] / 1e9
        conv_in_train = self._time_under(
            durations, {"tensorgrad.conv2d.fwd", "tensorgrad.conv2d.vjp"}, "pipeline.train_watermark"
        )
        pair_scores_s = sum(total[f"bioeval.pair_scores.{mode}"] for mode in PAIRING_MODES)
        values = {
            "tensorgrad.conv2d.gflop": gflop,
            "tensorgrad.conv2d.gflops": ratio(gflop, conv_s),
            "share.conv2d_of_train_step": ratio(conv_in_train, total["pipeline.train_watermark"]),
            "share.cosine_similarity_of_pair_scores": ratio(counts["bioeval.cosine_similarity.s"], pair_scores_s),
            **run_values,
        }
        for metric, _unit in LAYER_METRICS:
            if metric in values:
                continue
            if metric in counts:
                values[metric] = counts[metric]
                continue
            span, _, quantity = metric.rpartition(".")
            if quantity in ("fwd_s", "vjp_s"):  # autodiff ops: tensorgrad.<op>.fwd / .vjp spans
                span, quantity = f"{span}.{quantity[:3]}", "s"
            if quantity == "calls":
                values[metric] = len(per_call.get(span if span in per_call else span + ".fwd", ()))
            elif quantity.startswith("ms_p"):
                values[metric] = ms_percentile(span, int(quantity[4:]))
            elif quantity == "self_s":
                values[metric] = self_time[span]
            else:
                values[metric] = total[span]
        return {name: float(values[name]) for name, _unit in LAYER_METRICS}

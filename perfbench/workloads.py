"""The three workloads: set-up, reference check, and closed-loop measurement.

Each workload is a class with four steps:

* ``prepare(seed, work)`` makes the inputs from the seed and writes the input
  files the program reads. It is not timed.
* ``setup(inputs)`` is the program's own start-up work: reading the inputs
  and building or loading the model. It is timed in ``setup_blocks`` blocks
  of back-to-back set-ups before the measurement and as many after it, each
  block lasting at least ``setup_block_seconds``, so a set-up of a few
  milliseconds is timed over many repeats.
* ``check(state)`` runs the program on a fixed fixture that does not depend
  on the seed and returns named values; ``compare`` holds them against
  ``reference.json``.
* ``measure(state, seconds, units)`` calls the program in a closed loop (each
  call waits for the one before) until ``seconds`` have passed and the
  workload's minimum is met, or for exactly ``units`` loop units when a traced
  run replays an untraced one. It returns per-call samples, the counts of
  attempted and failed operations, and any broken invariant of the seeded
  outputs.

The program is always reached through module attributes
(``pipeline.train_watermark``), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import synth
from facemark import bioeval, imageops, pipeline
from facemark import watermarknet as wm

IMAGE_SIZE = 32
MESSAGE_BITS = 16
VERIFY_DIM = 32
CHECK_SEED = 20240429  # fixed fixture for the reference checks, never the workload seed

# |got - want| <= ATOL + RTOL * |want| for every checked value. RTOL is far
# above the last-digit drift between BLAS thread counts (~1e-16) and far
# below what a float32 compute path or a reordered reduction moves (>1e-8),
# so such a change fails the check instead of passing silently.
RTOL = 1e-9
ATOL = 1e-12


@dataclass(frozen=True)
class Sizes:
    """Input sizes and loop minimums; FULL is what the benchmark runs."""

    setup_blocks: int = 3
    setup_block_seconds: float = 0.5
    train_images: int = 64
    train_task_steps: int = 12
    sweep_images: int = 4
    sweep_round_images: int = 34
    sweep_chunks: int = 3
    sweep_min_rounds: int = 3
    verify_identities: int = 100
    verify_per_identity: int = 5
    verify_max_imposter: int = 200_000
    verify_task_calls: int = 4


FULL = Sizes()


@dataclass
class Measurement:
    wall_s: float = 0.0
    units: int = 0
    attempted: int = 0
    failed: int = 0
    samples: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    def add(self, name, value):
        self.samples.setdefault(name, []).append(value)


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def _loop(seconds, units, minimum):
    """Yield loop indices: exactly ``units`` of them, or until time and minimum are met."""
    t0 = time.perf_counter()
    i = 0
    while (i < units) if units is not None else (i < minimum or time.perf_counter() - t0 < seconds):
        yield i
        i += 1


def _write_dataset(images, work, name):
    """Write images as PPMs plus a manifest (one identity per image); return the manifest path."""
    root = Path(work) / name
    root.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, image in enumerate(images):
        rel = f"img{i:04d}.ppm"
        imageops.save_ppm(image, root / rel)
        entries.append((rel, f"id{i:04d}"))
    path = root / "manifest.csv"
    pipeline.save_manifest(pipeline.DatasetManifest(entries=entries, root=root), path)
    return path


def compare(values, reference):
    """Failures of ``values`` against ``reference`` under RTOL/ATOL, as messages."""
    failures = []
    for name in sorted(set(values) | set(reference)):
        got, want = values.get(name), reference.get(name)
        if got is None or want is None:
            failures.append(f"{name}: got {got!r}, reference {want!r}")
        elif isinstance(want, str) or isinstance(got, str):
            if got != want:
                failures.append(f"{name}: got {got!r}, reference {want!r}")
        elif not abs(got - want) <= ATOL + RTOL * abs(want):
            failures.append(f"{name}: got {got!r}, reference {want!r} (rtol {RTOL}, atol {ATOL})")
    return failures


class Train:
    """``train_watermark`` at the TrainConfig defaults, one step per call.

    Step i uses seed i, so every run walks the same batch, message and
    augmentation schedule; the seed only changes the textures. The first 10
    steps of that schedule include a crop, a JPEG and a resize step, so the
    traced run always reaches the straight-through and resize vjp paths.
    Metrics come from the first ``train_task_steps`` steps only: steps past
    them would change the mix of augmentations between runs.
    """

    name = "train"

    def __init__(self, sizes=FULL):
        self.sizes = sizes
        self.config = pipeline.TrainConfig()

    def prepare(self, seed, work):
        images = synth.textures(self.sizes.train_images, IMAGE_SIZE, [seed, 0])
        return {"manifest": _write_dataset(images, work, "train")}

    def setup(self, inputs):
        manifest = pipeline.load_manifest(inputs["manifest"])
        data = pipeline.load_manifest_images(manifest, self.config.image_channels)
        model = wm.build_model(self.config.model_config(), seed=self.config.seed)
        return {"images": data, "model": model}

    def check(self, state):
        images = synth.textures(32, IMAGE_SIZE, CHECK_SEED)
        config = pipeline.TrainConfig(steps=2)
        _, history = pipeline.train_watermark(config, images)
        values = {}
        for row in history:
            for key in ("total_loss", "recon_loss", "decode_loss", "bit_acc", "psnr"):
                values[f"step{row['step']}.{key}"] = row[key]
        return values

    def measure(self, state, seconds, units=None):
        m = Measurement()
        model, images = state["model"], state["images"]
        t0 = time.perf_counter()
        for i in _loop(seconds, units, self.sizes.train_task_steps):
            config = pipeline.TrainConfig(steps=1, seed=i)
            m.units = i + 1
            m.attempted += 1
            try:
                (model, history), dt = _timed(pipeline.train_watermark, config, images, model=model)
            except RuntimeError as exc:  # the program's divergence signal
                m.failed += 1
                m.problems.append(f"step {i}: {exc}")
                continue
            m.add("step_s", dt)
            if not all(math.isfinite(history[-1][k]) for k in ("total_loss", "bit_acc", "psnr")):
                m.problems.append(f"step {i}: non-finite metrics {history[-1]}")
        m.wall_s = time.perf_counter() - t0
        return m

    def end_to_end(self, m):
        task = m.samples["step_s"][: self.sizes.train_task_steps]
        return {
            "op_ms_p50": (statistics.median(task) * 1e3, len(task)),
            "items_per_s": (self.config.batch_size * len(task) / sum(task), len(task)),
            "task_s": (sum(task), len(task)),
        }


class Sweep:
    """Inference at batch 1, in rounds over one chunk of seeded images.

    Each round runs ``watermark_dataset`` on the chunk, the 30-cell
    ``run_sweep`` over the first ``sweep_images`` written images, then one
    ``encode`` and one ``extract`` call per image of the chunk; each
    ``extract`` is timed on its own (the traced run times ``encode``). Every
    metric thus samples every round, so a slow stretch of the host does not
    land on one metric only.
    """

    name = "sweep"

    def __init__(self, sizes=FULL):
        self.sizes = sizes
        self.config = pipeline.TrainConfig()

    def prepare(self, seed, work):
        chunks = [synth.textures(self.sizes.sweep_round_images, IMAGE_SIZE, [seed, c]) for c in range(self.sizes.sweep_chunks)]
        return {
            "chunks": chunks,
            "manifests": [_write_dataset(images, work, f"chunk{c}") for c, images in enumerate(chunks)],
            "model_path": Path(work) / "model.wmf",
            "out_dir": Path(work) / "marked",
            "message": synth.message(MESSAGE_BITS, [seed, self.sizes.sweep_chunks]),
        }

    def setup(self, inputs):
        # A few small training steps so every batchnorm has running statistics;
        # a fixed seed and fixed textures keep the model the same for every run.
        model = wm.build_model(self.config.model_config(), seed=self.config.seed)
        warmup = synth.textures(16, IMAGE_SIZE, [CHECK_SEED, 1])
        model, _ = pipeline.train_watermark(pipeline.TrainConfig(steps=2, batch_size=4), warmup, model=model)
        wm.save_model(model, inputs["model_path"])
        return {
            **inputs,
            "model": wm.load_model(inputs["model_path"]),
            "manifests": [pipeline.load_manifest(path) for path in inputs["manifests"]],
        }

    def check(self, state):
        model = state["model"]
        images = synth.textures(2, IMAGE_SIZE, CHECK_SEED)
        msg = synth.message(MESSAGE_BITS, CHECK_SEED)
        marked = wm.encode(model, images[0], msg)
        values = {"encode.psnr": imageops.psnr(images[0], marked)}
        # Bit decisions of a barely trained model are coarse; the logits show
        # any numeric change.
        for i, logit in enumerate(wm.decode_logits(model, marked)):
            values[f"decode_logits.{i}"] = float(logit)
        for cell in pipeline.run_sweep(model, images, msg):
            key = f"{cell.kind}.{cell.factor!r}"
            values[f"{key}.mean_bit_acc"] = cell.mean_bit_acc
            values[f"{key}.std"] = cell.std
            values[f"{key}.n"] = cell.n
            values[f"{key}.reason"] = str(cell.reason)
        return values

    def _round(self, state, m, index):
        chunk = index % self.sizes.sweep_chunks
        model, msg = state["model"], state["message"]
        manifest = state["manifests"][chunk]
        result, dt = _timed(pipeline.watermark_dataset, model, manifest, msg, state["out_dir"])
        m.add("dataset_s", dt)
        m.add("dataset_images", result.written)
        m.attempted += len(manifest)
        m.failed += len(result.failed)
        if result.written != len(manifest) or result.failed:
            m.problems.append(f"watermark_dataset wrote {result.written}/{len(manifest)}, failed {result.failed}")

        size = self.sizes.sweep_images
        written = pipeline.DatasetManifest(result.manifest.entries[:size], result.manifest.root, result.manifest.source_tag)
        cells, dt = _timed(pipeline.run_sweep, model, written, msg)
        m.add("sweep_s", dt)
        m.attempted += len(cells)
        m.failed += sum(c.reason is not None for c in cells)
        bad = [c for c in cells if c.reason is not None or c.n != size or not 0.0 <= c.mean_bit_acc <= 1.0]
        if len(cells) != 30 or bad:
            m.problems.append(f"run_sweep gave {len(cells)} cells, bad: {bad}")
        # Factor 1.0 is the identity for these four kinds, so their cells must agree.
        unchanged = {c.mean_bit_acc for c in cells if c.kind != "jpeg" and c.factor == 1.0}
        if len(unchanged) != 1:
            m.problems.append(f"identity cells disagree: {sorted(unchanged)}")

        for image in state["chunks"][chunk]:
            m.attempted += 2
            marked = wm.encode(model, image, msg)
            bits, dt = _timed(wm.extract, model, marked)
            m.add("extract_s", dt)
            if marked.shape != image.shape or bits.shape != (MESSAGE_BITS,):
                m.failed += 1
                m.problems.append(f"encode/extract shapes {marked.shape}, {bits.shape}")

    def measure(self, state, seconds, units=None):
        m = Measurement()
        t0 = time.perf_counter()
        for i in _loop(seconds, units, self.sizes.sweep_min_rounds):
            self._round(state, m, i)
            m.units = i + 1
        m.wall_s = time.perf_counter() - t0
        return m

    def end_to_end(self, m):
        extract, sweeps = m.samples["extract_s"], m.samples["sweep_s"]
        return {
            "op_ms_p50": (statistics.median(extract) * 1e3, len(extract)),
            # Median of per-round rates: each round times only a few images.
            "items_per_s": (statistics.median(n / dt for n, dt in zip(m.samples["dataset_images"], m.samples["dataset_s"])), len(m.samples["dataset_s"])),
            "task_s": (statistics.median(sweeps), len(sweeps)),
        }


class Verify:
    """``run_verification`` over fixed synthetic embeddings, all three pairing modes.

    The imposter cap sits between the symmetric modes' pair count and the
    asymmetric mode's, so both the full and the subsampled path run.
    """

    name = "verify"
    far_targets = (1e-2, 1e-3)

    def __init__(self, sizes=FULL):
        self.sizes = sizes

    def options(self, max_imposter):
        return pipeline.VerifyOptions(far_targets=self.far_targets, max_imposter=max_imposter)

    def expected_counts(self):
        """(genuine, imposter) pair counts per mode, from the program's pairing rules."""
        ids, per_id = self.sizes.verify_identities, self.sizes.verify_per_identity
        images = ids * per_id
        sym = (ids * math.comb(per_id, 2), math.comb(images, 2) - ids * math.comb(per_id, 2))
        asym = (ids * per_id * (per_id - 1), min(images * images - ids * per_id**2, self.sizes.verify_max_imposter))
        return {"original-original": sym, "watermarked-original": asym, "watermarked-watermarked": sym}

    @staticmethod
    def _embeddings(rows):
        return [bioeval.Embedding(vector=v, identity=ident, source=src) for ident, src, v in rows]

    def prepare(self, seed, work):
        s = self.sizes
        rows = synth.embedding_rows(s.verify_identities, s.verify_per_identity, VERIFY_DIM, seed)
        path = Path(work) / "embeddings.txt"
        bioeval.save_embeddings(self._embeddings(rows), path)
        return {"embeddings": path}

    def setup(self, inputs):
        return {"embeddings": bioeval.load_embeddings(inputs["embeddings"])}

    def check(self, state):
        embeddings = self._embeddings(synth.embedding_rows(20, 5, VERIFY_DIM, CHECK_SEED))
        values = {}
        for r in pipeline.run_verification(embeddings, self.options(max_imposter=6000)):
            key = f"{r.pairing}.{r.far_target!r}"
            for attr in ("tau", "achieved_far", "tar", "eer_value", "genuine_mean", "genuine_std", "genuine_count",
                         "imposter_mean", "imposter_std", "imposter_count", "t_stat", "t_df", "t_p", "error"):
                value = getattr(r, attr)
                values[f"{key}.{attr}"] = str(value) if value is None or isinstance(value, str) else value
        return values

    def measure(self, state, seconds, units=None):
        m = Measurement()
        expected = self.expected_counts()
        options = self.options(self.sizes.verify_max_imposter)
        t0 = time.perf_counter()
        for i in _loop(seconds, units, self.sizes.verify_task_calls):
            reports, dt = _timed(pipeline.run_verification, state["embeddings"], options)
            m.add("call_s", dt)
            m.attempted += len(reports)
            m.failed += sum(r.error is not None for r in reports)
            for r in reports:
                counts = (r.genuine_count, r.imposter_count)
                if r.error is not None or counts != expected[r.pairing] or not 0.0 <= r.tar <= 1.0 or r.achieved_far > r.far_target:
                    m.problems.append(f"call {i}: report {r.pairing}@{r.far_target}: counts {counts}, error {r.error}")
            m.units = i + 1
        m.wall_s = time.perf_counter() - t0
        return m

    def end_to_end(self, m):
        calls = m.samples["call_s"]
        task = calls[: self.sizes.verify_task_calls]
        pairs_per_call = sum(map(sum, self.expected_counts().values()))
        return {
            "op_ms_p50": (statistics.median(calls) * 1e3, len(calls)),
            "items_per_s": (pairs_per_call * len(calls) / sum(calls), len(calls)),
            "task_s": (sum(task), len(task)),
        }


WORKLOADS = {cls.name: cls for cls in (Train, Sweep, Verify)}

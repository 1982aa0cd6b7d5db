"""Orchestration: training loops, dataset watermarking, sweeps, verification.

Everything here is seed-deterministic: one PCG64 stream drives batch
sampling, per-image random messages and augmentation draws during training,
and per-cell transform seeds in sweeps are derived by hashing stable cell
coordinates, so reruns with the same configuration produce byte-identical
output files. That holds on any number of usable cores, and at any BLAS
thread setting once importing :mod:`facemark` before numpy has pinned BLAS
to one thread (see the package docstring).
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import bioeval, containers, imageops, msgcodec
from . import tensorgrad as tg
from . import watermarknet as wm

__all__ = [
    "TrainConfig",
    "DatasetManifest",
    "SweepSpec",
    "SweepCell",
    "WatermarkDatasetResult",
    "VerifyOptions",
    "read_config",
    "parse_config",
    "load_manifest",
    "save_manifest",
    "load_manifest_images",
    "train_watermark",
    "watermark_dataset",
    "run_sweep",
    "run_verification",
    "write_history",
    "write_sweep_csv",
    "write_reports",
    "HISTORY_HEADER",
    "SWEEP_HEADER",
]

HISTORY_HEADER = "step,recon_loss,decode_loss,bit_acc,psnr"
SWEEP_HEADER = "kind,factor,mean_bit_acc,std,n"


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    """Watermark-network training configuration (desk-scale defaults)."""

    steps: int = 2000
    batch_size: int = 16
    image_size: int = 32
    image_channels: int = 3
    message_length: int = 16
    base_channels: int = 64
    encoder_blocks: int = 4
    decoder_blocks: int = 7
    recon_weight: float = 1.0
    lr: float = 1e-3
    p_aug: float = 0.5
    aug_kinds: tuple[str, ...] = ("crop", "resize", "jpeg")
    crop_range: tuple[float, float] = (0.75, 1.0)
    resize_range: tuple[float, float] = (0.75, 1.0)
    brightness_range: tuple[float, float] = (1.0, 3.5)
    contrast_range: tuple[float, float] = (1.0, 3.5)
    jpeg_range: tuple[float, float] = (75, 100)
    seed: int = 0
    checkpoint_interval: int = 0

    def __post_init__(self):
        self.model_config()  # validates the architecture fields
        # image_size before the crop and resize ranges, which also bound the decoder's input side
        containers.require_at_least(self, steps=1, batch_size=1, image_size=wm.MIN_DECODE_SIDE, checkpoint_interval=0)
        if not (0.0 < self.lr < math.inf):
            raise ValueError(f"lr must lie in (0, inf), got {self.lr}")
        if not (0.0 <= self.recon_weight < math.inf):
            raise ValueError(f"recon_weight must lie in [0, inf), got {self.recon_weight}")
        if not (0.0 <= self.p_aug <= 1.0):
            raise ValueError(f"p_aug must lie in [0, 1], got {self.p_aug}")
        bad = [k for k in self.aug_kinds if k not in imageops.TRANSFORM_KINDS]
        if bad:
            raise ValueError(f"unknown augmentation kinds {bad}; expected subset of {imageops.TRANSFORM_KINDS}")
        for kind in imageops.TRANSFORM_KINDS:
            lo, hi = getattr(self, f"{kind}_range")
            try:
                if lo > hi:
                    raise ValueError("low end above high end")
                imageops.Transform(kind, lo), imageops.Transform(kind, hi)  # validates both ends
                if kind in ("crop", "resize") and int(lo * self.image_size) < wm.MIN_DECODE_SIDE:
                    raise ValueError(f"the decoder needs at least {wm.MIN_DECODE_SIDE} pixels per side")
            except ValueError as exc:
                raise ValueError(f"{kind}_range ({lo}, {hi}) violates the transform invariants: {exc}") from exc

    def model_config(self):
        return wm.WatermarkConfig(**{f.name: getattr(self, f.name) for f in fields(wm.WatermarkConfig)})


def read_config(path):
    """Parse a plain-text key=value file; '#' lines are comments."""
    mapping = {}
    for ln, line in containers.read_lines(path):
        if line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{ln}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ValueError(f"{path}:{ln}: empty key")
        if key in mapping:
            raise ValueError(f"{path}:{ln}: duplicate key {key!r}")
        mapping[key] = value.strip()
    return mapping


def _convert(key, value, kind):
    """Parse one config value by the annotation of the field it sets."""
    try:
        if kind in (int, float):
            return kind(value)
        if kind == tuple[float, float]:
            parts = tuple(float(v) for v in value.split(","))
            if len(parts) != 2:
                raise ValueError("expected two comma-separated numbers")
            return parts
        items = [v for v in value.split(",") if v.strip()]
        return tuple(v.strip() for v in items) if kind == tuple[str, ...] else tuple(float(v) for v in items)
    except ValueError as exc:
        raise ValueError(f"config key {key!r}: cannot parse {value!r} ({exc})") from exc


def parse_config(cls, mapping, seed_override=None):
    """Build the config dataclass ``cls`` from a :func:`read_config` mapping.

    Each key is one field of ``cls`` and its text parses by that field's
    annotation; fields left out keep their defaults. ``seed_override``
    replaces the ``seed`` key. ``cls`` checks its own values when built.
    """
    types = get_type_hints(cls)
    unknown = sorted(set(mapping) - set(types))
    if unknown:
        raise ValueError(f"unknown config keys {unknown}; allowed: {sorted(types)}")
    kwargs = {key: _convert(key, value, types[key]) for key, value in mapping.items()}
    if seed_override is not None:
        kwargs["seed"] = int(seed_override)
    return cls(**kwargs)


def _reject_repeats(key, values):
    """A list value names each entry once: a repeat would only repeat its output."""
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        raise ValueError(f"{key} lists {repeated[0]!r} more than once")


@dataclass(frozen=True)
class SweepSpec:
    """Transform kinds to sweep, one factor grid per kind, repetitions and base seed.

    The defaults are the standard robustness table: every augmentation kind
    over six factors each, 30 cells.
    """

    sweep_kinds: tuple[str, ...] = imageops.TRANSFORM_KINDS
    crop_grid: tuple[float, ...] = (1.0, 0.95, 0.9, 0.85, 0.8, 0.75)
    resize_grid: tuple[float, ...] = (1.0, 0.95, 0.9, 0.85, 0.8, 0.75)
    brightness_grid: tuple[float, ...] = (1.0, 1.5, 2.0, 2.5, 3.0, 3.5)
    contrast_grid: tuple[float, ...] = (1.0, 1.5, 2.0, 2.5, 3.0, 3.5)
    jpeg_grid: tuple[float, ...] = (100, 95, 90, 85, 80, 75)
    repetitions: int = 1
    seed: int = 0

    def __post_init__(self):
        containers.require_at_least(self, repetitions=1)
        _reject_repeats("sweep_kinds", self.sweep_kinds)
        bad = [k for k in self.sweep_kinds if k not in imageops.TRANSFORM_KINDS]
        if bad:
            raise ValueError(f"sweep_kinds has unknown kinds {bad}; expected a subset of {imageops.TRANSFORM_KINDS}")
        for kind in imageops.TRANSFORM_KINDS:
            for factor in getattr(self, f"{kind}_grid"):
                try:
                    imageops.Transform(kind=kind, factor=float(factor))
                except ValueError as exc:
                    raise ValueError(f"{kind}_grid: {exc}") from exc

    @property
    def cells(self):
        """``(kind, grid)`` per swept kind; JPEG qualities are ints."""
        grids = ((kind, getattr(self, f"{kind}_grid")) for kind in self.sweep_kinds)
        return tuple((kind, tuple(int(q) for q in grid) if kind == "jpeg" else grid) for kind, grid in grids)


@dataclass(frozen=True)
class VerifyOptions:
    """Pairing modes, FAR targets and sampling caps for :func:`run_verification`.

    Checked when built, so a bad value fails before any pair is scored.
    """

    far_targets: tuple[float, ...] = (0.01,)
    modes: tuple[str, ...] = bioeval.PAIRING_MODES
    pairs_per_id: int = 0
    max_imposter: int = 1_000_000
    seed: int = 0

    def __post_init__(self):
        containers.require_at_least(self, max_imposter=1, pairs_per_id=0)
        if not self.far_targets:
            raise ValueError("far_targets must not be empty")
        _reject_repeats("far_targets", self.far_targets)
        _reject_repeats("modes", self.modes)
        for far in self.far_targets:
            if not (0.0 < far <= 1.0):
                raise ValueError(f"far_targets values must lie in (0, 1], got {far}")
        if not self.modes:
            raise ValueError("modes must not be empty")
        for mode in self.modes:
            if mode not in bioeval.PAIRING_MODES:
                raise ValueError(f"modes has unknown pairing mode {mode!r}; expected one of {bioeval.PAIRING_MODES}")


# ---------------------------------------------------------------------------
# dataset manifests
# ---------------------------------------------------------------------------

@dataclass
class DatasetManifest:
    """Relative image paths with identity labels, rooted at a directory."""

    entries: list
    root: Path
    source_tag: str = "original"

    def __len__(self):
        return len(self.entries)

    def absolute_paths(self):
        return [self.root / rel for rel, _ in self.entries]


def load_manifest(path):
    """Read a ``path,identity`` CSV; '#' comments allowed.

    A ``# source_tag: <tag>`` comment marks every entry's source; paths are
    resolved relative to the manifest file's directory. An empty image path,
    or one that names that directory, is an error naming its line, and so is
    an image path listed twice (after normalisation, so ``a.ppm`` and
    ``./a.ppm`` are one path), naming both lines.
    """
    path = Path(path)
    entries = []
    first_line = {}
    source_tag = "original"
    for ln, line in containers.read_lines(path):
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if body.startswith("source_tag:"):
                source_tag = body.partition(":")[2].strip()
            continue
        rel, sep, identity = line.partition(",")
        if not sep or not identity.strip():
            raise ValueError(f"{path}:{ln}: expected 'path,identity', got {line!r}")
        rel = rel.strip()
        key = os.path.normpath(rel)
        if key == ".":
            raise ValueError(f"{path}:{ln}: image path {rel!r} names no file, got {line!r}")
        if key in first_line:
            raise ValueError(f"{path}:{ln}: image {rel!r} is already listed on line {first_line[key]}")
        first_line[key] = ln
        entries.append((rel, identity.strip()))
    if not entries:
        raise ValueError(f"{path}: manifest lists no images")
    manifest = DatasetManifest(entries=entries, root=path.parent, source_tag=source_tag)
    missing = [str(p) for p in manifest.absolute_paths() if not os.path.exists(p)]
    if missing:
        raise FileNotFoundError(f"{path}: missing image files: {', '.join(missing[:5])}")
    return manifest


def save_manifest(manifest, path):
    """Write a manifest CSV next to its images (paths stay relative)."""
    entries = (f"{rel},{identity}" for rel, identity in manifest.entries)
    containers.write_lines(path, [f"# source_tag: {manifest.source_tag}", *entries])


def load_manifest_images(manifest, channels=3):
    """Load every manifest image as a (M, C, H, W) stack (sizes must agree)."""
    images = [imageops.load_image(p, channels) for p in manifest.absolute_paths()]
    shapes = {im.shape for im in images}
    if len(shapes) != 1:
        raise ValueError(f"manifest images have mixed shapes: {sorted(shapes)}")
    return np.stack(images)


# ---------------------------------------------------------------------------
# watermark training
# ---------------------------------------------------------------------------

def _apply_training_augmentation(node, kind, config, rng):
    """One augmentation of the watermarked batch, drawn inside the training graph.

    The strength comes from ``config.<kind>_range``: one ``rng.random()``
    spread over the range, or for JPEG an integer quality drawn inclusively.
    :func:`imageops.transform_batch` then applies it as in a sweep, drawing
    any crop offsets from the same ``rng``.
    """
    lo, hi = getattr(config, f"{kind}_range")
    factor = int(rng.integers(int(lo), int(hi) + 1)) if kind == "jpeg" else float(lo + (hi - lo) * rng.random())
    return imageops.transform_batch(node, kind, factor, rng)


def _train_step(model, config, data, rng):
    """One forward/backward/Adam step on a fresh batch; returns its history row."""
    length = model.config.message_length
    idx = rng.integers(0, data.shape[0], size=config.batch_size)
    batch = data[idx]
    msgs = rng.integers(0, 2, size=(config.batch_size, length)).astype(np.float64)

    watermarked = wm.forward_encoder(model, batch, msgs, mode="train")
    recon = tg.mse_loss(watermarked, tg.leaf(batch))

    decoded_input = watermarked
    if config.p_aug > 0.0 and config.aug_kinds:
        if rng.random() < config.p_aug:
            kind = config.aug_kinds[int(rng.integers(0, len(config.aug_kinds)))]
            decoded_input = _apply_training_augmentation(watermarked, kind, config, rng)
    logits = wm.forward_decoder(model, decoded_input, mode="train")
    decode = tg.bce_logits_loss(logits, msgs)
    total = tg.add(tg.scale(recon, config.recon_weight), decode)
    if not np.isfinite(total.value):
        raise RuntimeError(
            f"training diverged at step {model.step + 1}: "
            f"recon={float(recon.value)}, decode={float(decode.value)}"
        )
    tg.backward(total)
    tg.adam_step(model.params, lr=config.lr)
    model.step += 1

    decisions = (logits.value > 0.0).astype(np.float64)
    psnr_vals = [imageops.psnr(batch[i], watermarked.value[i]) for i in range(config.batch_size)]
    return {
        "step": model.step,
        "recon_loss": float(recon.value),
        "decode_loss": float(decode.value),
        "bit_acc": float(np.mean(decisions == msgs)),
        "psnr": float(np.mean(psnr_vals)),
        "total_loss": float(total.value),
    }


def train_watermark(config, images, model=None, checkpoint_dir=None):
    """Joint encoder/decoder training on random messages; ``images`` pass :func:`imageops.require_images`, match the config.

    Per step: sample a batch, embed a fresh random message per image, with
    probability ``p_aug`` push the watermarked batch through one randomly
    drawn augmentation (the sweep's transforms, through
    :func:`imageops.transform_batch`), decode, and take an Adam step on
    ``recon_weight * mse + bce``. Reconstruction loss always compares the
    pre-transform watermarked batch with the input batch.

    Returns the model and a per-step metrics history (also carrying the
    total loss for bookkeeping beyond the CSV schema). Each step runs in
    :func:`_train_step`, so at most one step's graph is alive at a time;
    a checkpoint is saved after its step's graph has been freed.

    ``checkpoint_dir`` files are for ``extract``, ``sweep`` and evaluation:
    WMF1 keeps no Adam moments or Adam step count, and the rng restarts
    from ``config.seed``, so training a loaded ``model`` restarts Adam's
    bias correction at t=1 rather than resuming the run.
    """
    data = imageops.require_images(images)
    _, c, h, w_ = data.shape
    if c != config.image_channels or h != config.image_size or w_ != config.image_size:
        raise ValueError(
            f"training images are {c}x{h}x{w_}, config expects "
            f"{config.image_channels}x{config.image_size}x{config.image_size}"
        )

    if model is None:
        model = wm.build_model(config.model_config(), seed=config.seed)
    rng = np.random.default_rng(config.seed)
    history = []
    checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir is not None else None
    if checkpoint_dir is not None:
        checkpoint_dir.mkdir(parents=True, exist_ok=True)

    for _ in range(config.steps):
        history.append(_train_step(model, config, data, rng))
        if checkpoint_dir is not None and config.checkpoint_interval > 0 and model.step % config.checkpoint_interval == 0:
            wm.save_model(model, checkpoint_dir / f"checkpoint_step{model.step}.wmf")

    return model, history


def write_history(history, path):
    """Training metrics CSV with the fixed 5-column schema."""
    rows = (f"{r['step']},{r['recon_loss']!r},{r['decode_loss']!r},{r['bit_acc']!r},{r['psnr']!r}" for r in history)
    containers.write_lines(path, [HISTORY_HEADER, *rows])


# ---------------------------------------------------------------------------
# dataset watermarking
# ---------------------------------------------------------------------------

@dataclass
class WatermarkDatasetResult:
    manifest: DatasetManifest
    manifest_path: Path
    mean_psnr: float
    written: int
    failed: list = field(default_factory=list)


def watermark_dataset(model, manifest, message, out_dir):
    """Embed one fixed message into every manifest image.

    Outputs mirror the input tree under ``out_dir`` (same relative paths)
    and the emitted manifest carries the ``watermarked`` source tag.
    Unreadable images are recorded and skipped; more than 10% failures
    aborts. An output path that resolves outside ``out_dir``, or to a
    listed input image, is an error naming the entry, raised before
    anything is encoded or written. The reported PSNR compares each
    original with its 8-bit quantized watermarked copy, i.e. with what
    lands on disk.

    Images are spread over the usable cores (:func:`tensorgrad.map_ordered`),
    each loaded, encoded, written and scored by one thread. The written
    entries, the ``failed`` list and the PSNR values are gathered in
    manifest order, so the output manifest, the failure order and the mean
    PSNR (summed in that order) are those of a serial run.
    """
    msg = msgcodec.validate_message(message, model.config.message_length)
    out_dir = Path(out_dir)
    root = out_dir.resolve()
    sources = {path.resolve() for path in manifest.absolute_paths()}
    for rel, _ in manifest.entries:
        dest = (out_dir / rel).resolve()
        if root not in dest.parents:
            raise ValueError(f"watermark_dataset: manifest entry {rel!r} would be written to {dest}, outside {out_dir}")
        if dest in sources:
            raise ValueError(f"watermark_dataset: output {out_dir / rel} would overwrite a listed input image")
    out_dir.mkdir(parents=True, exist_ok=True)
    channels = model.config.image_channels

    def mark(entry):
        rel, _ = entry
        src = manifest.root / rel
        try:
            image = imageops.load_image(src, channels)
        except (OSError, ValueError) as exc:
            return None, (str(src), str(exc))
        marked = wm.encode(model, image, msg)
        dest = out_dir / rel
        dest.parent.mkdir(parents=True, exist_ok=True)
        imageops.save_image(marked, dest)
        return imageops.psnr(image, imageops.to_8bit(marked) / 255.0), None

    outcomes = tg.map_ordered(mark, manifest.entries)
    written_entries = [entry for entry, (_, failure) in zip(manifest.entries, outcomes) if failure is None]
    failed = [failure for _, failure in outcomes if failure is not None]
    psnrs = [psnr for psnr, failure in outcomes if failure is None]

    total = len(manifest.entries)
    if failed and len(failed) > 0.1 * total:
        raise RuntimeError(
            f"watermark_dataset: {len(failed)}/{total} images unreadable; first: {failed[0][0]}"
        )
    if not written_entries:
        raise RuntimeError("watermark_dataset: no images could be processed")

    out_manifest = DatasetManifest(entries=written_entries, root=out_dir, source_tag="watermarked")
    manifest_path = out_dir / "manifest.csv"
    save_manifest(out_manifest, manifest_path)
    return WatermarkDatasetResult(
        manifest=out_manifest,
        manifest_path=manifest_path,
        mean_psnr=float(np.mean(psnrs)),
        written=len(written_entries),
        failed=failed,
    )


# ---------------------------------------------------------------------------
# robustness sweep
# ---------------------------------------------------------------------------

@dataclass
class SweepCell:
    kind: str
    factor: float
    mean_bit_acc: float
    std: float
    n: int
    reason: str | None = None


def _derive_seed(base_seed, *coordinates):
    """Stable 63-bit seed from the base seed and cell coordinates."""
    text = ":".join([str(base_seed)] + [str(c) for c in coordinates])
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


def run_sweep(model, images_or_manifest, message, spec=SweepSpec()):
    """Bit accuracy per (transform kind, factor) cell over a fixed message, on an image stack or a manifest's images.

    Every image is watermarked once; each cell applies its transform (with
    a per-cell derived seed for random crops) and decodes. A failing cell
    is recorded as NaN with its reason rather than aborting the sweep.

    The encodes, then every (cell, repetition, image) score, are spread
    over the usable cores (:func:`tensorgrad.map_ordered`). Each cell is
    then put together in (repetition, image) order, as a serial loop would
    score it: its mean and std sum in that order, and a failing cell's
    ``n`` counts the images scored before its first failure in that order,
    whose message is its ``reason``.
    """
    msg = msgcodec.validate_message(message, model.config.message_length)
    if isinstance(images_or_manifest, DatasetManifest):
        images_or_manifest = load_manifest_images(images_or_manifest, model.config.image_channels)
    images = imageops.require_images(images_or_manifest)

    marked = tg.map_ordered(lambda image: wm.encode(model, image, msg), images)

    def score(task):
        kind, fi, factor, rep, i = task
        try:
            seed = _derive_seed(spec.seed, kind, fi, rep, i)
            transform = imageops.Transform(kind=kind, factor=float(factor), seed=seed)
            attacked = imageops.apply_transform(marked[i], transform)
            return msgcodec.bit_accuracy(msg, wm.extract(model, attacked))
        except (ValueError, RuntimeError) as exc:
            return exc

    grid_cells = [(kind, fi, factor) for kind, grid in spec.cells for fi, factor in enumerate(grid)]
    per_cell = spec.repetitions * len(marked)
    tasks = [(*cell, rep, i) for cell in grid_cells for rep in range(spec.repetitions) for i in range(len(marked))]
    scores = tg.map_ordered(score, tasks)

    cells = []
    for c, (kind, _, factor) in enumerate(grid_cells):
        accs = []
        reason = None
        for result in scores[c * per_cell : (c + 1) * per_cell]:
            if isinstance(result, Exception):
                reason = str(result)
                break
            accs.append(result)
        if reason is None:
            mean, std = float(np.mean(accs)), float(np.std(accs))
        else:
            mean, std = float("nan"), float("nan")
        cells.append(SweepCell(kind=kind, factor=factor, mean_bit_acc=mean, std=std, n=len(accs), reason=reason))
    return cells


def write_sweep_csv(cells, path):
    """Sweep table CSV with the fixed header ``kind,factor,mean_bit_acc,std,n``."""
    lines = [SWEEP_HEADER]
    for cell in cells:
        factor = repr(int(cell.factor)) if float(cell.factor).is_integer() and cell.kind == "jpeg" else repr(float(cell.factor))
        lines.append(f"{cell.kind},{factor},{cell.mean_bit_acc!r},{cell.std!r},{cell.n}")
    containers.write_lines(path, lines)


# ---------------------------------------------------------------------------
# verification experiments
# ---------------------------------------------------------------------------

def run_verification(embeddings, options=VerifyOptions()):
    """One report per (pairing mode, FAR target), in ``options.modes`` order.

    When the original-original mode is among ``options.modes``, each report
    carries a two-sided Welch t-test of its mode's genuine scores against the
    original-original ones. The test treats the two genuine-score sets as
    independent samples; the pairing modes share identities and images, so
    its p-value overstates the uncertainty of the watermark's effect.

    The embeddings are grouped once (:class:`bioeval.EmbeddingGroups`) and
    every mode is scored from that grouping by :func:`bioeval.pair_scores`.
    A set of more than one embedding dimension fails at that grouping, and a
    mode whose probe or reference source has no embeddings at all fails
    right after it, before any mode is scored. The original-original mode is scored first,
    and only its genuine scores are kept past its reports; each other mode's
    score set lives only while its reports are built.

    A FAR target that the imposter sample cannot resolve, or a t-test that
    is undefined (fewer than 2 genuine scores on a side, or no variance in
    both), yields a report with an error record instead of failing the run;
    the t-test fields then stay ``None``.
    """
    groups = bioeval.EmbeddingGroups(embeddings)
    for mode in options.modes:
        source = groups.missing_source(mode)
        if source is not None:
            raise ValueError(f"pairing mode {mode!r} needs {source!r} embeddings, but there are none")

    reference = None
    by_mode = {}
    for mode in sorted(options.modes, key=lambda m: m != "original-original"):
        scores = bioeval.pair_scores(groups, mode, pairs_per_id=options.pairs_per_id, seed=options.seed,
                                     max_imposter=options.max_imposter)
        if mode == "original-original":
            reference = scores.genuine
        eer_value = bioeval.eer(scores)
        stats = {
            "genuine_mean": float(scores.genuine.mean()),
            "genuine_std": float(scores.genuine.std(ddof=1)) if scores.genuine.size > 1 else 0.0,
            "genuine_count": int(scores.genuine.size),
            "imposter_mean": float(scores.imposter.mean()),
            "imposter_std": float(scores.imposter.std(ddof=1)) if scores.imposter.size > 1 else 0.0,
            "imposter_count": int(scores.imposter.size),
        }
        t_stat = t_df = t_p = welch_error = None
        if reference is not None:
            try:
                t_stat, t_df, t_p = bioeval.welch_t_test(reference, scores.genuine)
            except ValueError as exc:
                welch_error = str(exc)
        reports = by_mode[mode] = []
        for far in options.far_targets:
            report = bioeval.VerificationReport(
                pairing=mode,
                far_target=float(far),
                eer_value=eer_value,
                t_stat=t_stat,
                t_df=t_df,
                t_p=t_p,
                error=welch_error,
                skipped_identities=scores.skipped_identities,
                imposter_candidates=scores.imposter_candidates,
                **stats,
            )
            try:
                tar, tau, achieved = bioeval.tar_at_far(scores, far)
                report.tar, report.tau, report.achieved_far = tar, tau, achieved
            except ValueError as exc:
                report.error = str(exc) if welch_error is None else f"{welch_error}; {exc}"
            reports.append(report)
        del scores  # released before the next mode is scored
    return [report for mode in options.modes for report in by_mode[mode]]


def write_reports(reports, path):
    """Structured text: one ``key: value`` block per report, blank-line separated."""
    lines = []
    for report in reports:
        if lines:
            lines.append("")
        for f in fields(report):
            value = getattr(report, f.name)
            if value is None or f.name in ("skipped_identities", "imposter_candidates"):  # stderr only
                continue
            key = "eer" if f.name == "eer_value" else f.name
            lines.append(f"{key}: {value!r}" if isinstance(value, float) else f"{key}: {value}")
    containers.write_lines(path, lines)

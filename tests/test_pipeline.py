"""Config keys, training reruns with byte-identical outputs at a fixed BLAS thread count,
`train-wm` checkpoints, and training memory that stays at one step's graph."""

import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import pytest

from facemark import bioeval, pipeline

ROOT = Path(__file__).resolve().parents[1]

# Two default-shaped training steps on a small model. p_aug=1 sends every
# step's decoder input through crop or resize, so conv2d also runs at the
# odd spatial sizes those produce.
TRAIN_SCRIPT = """
import sys
from pathlib import Path

from _synth import texture_images
from facemark import pipeline, watermarknet

out = Path(sys.argv[1])
config = pipeline.TrainConfig(
    steps=2, batch_size=4, message_length=8, base_channels=8,
    encoder_blocks=2, decoder_blocks=3, p_aug=1.0, aug_kinds=("crop", "resize"), seed=5,
)
model, history = pipeline.train_watermark(config, texture_images(6, seed=3))
watermarknet.save_model(model, out / "model.wmf")
pipeline.write_history(history, out / "history.csv")
"""


def _train_in_subprocess(out_dir):
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])
    subprocess.run(
        [sys.executable, "-c", TRAIN_SCRIPT, str(out_dir)],
        env=env,
        check=True,
        timeout=300,
    )
    return (out_dir / "model.wmf").read_bytes(), (out_dir / "history.csv").read_bytes()


def test_training_repeats_byte_for_byte_at_one_blas_thread(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    model_a, history_a = _train_in_subprocess(first)
    model_b, history_b = _train_in_subprocess(second)
    assert history_a.count(b"\n") == 3  # header + 2 steps
    assert model_a == model_b
    assert history_a == history_b


def _config_text(value):
    """A default written back as its config-file value."""
    return ",".join(str(v) for v in value) if isinstance(value, tuple) else repr(value)


@pytest.mark.parametrize(
    "cls, build",
    [
        (pipeline.TrainConfig, pipeline.build_train_config),
        (pipeline.VerifyOptions, pipeline.build_verify_options),
        (bioeval.EmbedderTrainConfig, pipeline.build_embedder_train_config),
    ],
    ids=["train", "verify", "embedder"],
)
def test_every_config_field_is_a_key_that_parses_back_to_its_default(cls, build):
    for field in fields(cls):
        parsed = build({field.name: _config_text(field.default)})
        assert getattr(parsed, field.name) == field.default, field.name
    assert build({field.name: _config_text(field.default) for field in fields(cls)}) == cls()


# Two training steps per augmentation kind, each step's decoder input going
# through that kind. The parameter digests were recorded at one BLAS thread;
# a change to an augmentation's draws or arithmetic changes them.
AUGMENTED_SCRIPT = """
import hashlib

from _synth import texture_images
from facemark import pipeline

images = texture_images(6, 16, seed=8)
for kind in ("crop", "resize", "brightness", "contrast", "jpeg"):
    config = pipeline.TrainConfig(
        steps=2, batch_size=3, image_size=16, message_length=4, base_channels=4, encoder_blocks=1,
        decoder_blocks=1, p_aug=1.0, aug_kinds=(kind,), crop_range=(0.5, 1.0), resize_range=(0.5, 1.0),
        brightness_range=(0.5, 3.0), contrast_range=(0.5, 3.0), jpeg_range=(10, 90), seed=4,
    )
    model, _ = pipeline.train_watermark(config, images)
    digest = hashlib.sha256()
    for _, node in model.params.items():
        digest.update(node.value.tobytes())
    print(kind, digest.hexdigest()[:16])
"""
AUGMENTED_DIGESTS = {
    "crop": "de231c9910e5939d",
    "resize": "b924a8a1a2a23f1b",
    "brightness": "3bcc17b017e539ac",
    "contrast": "806e813eeff588be",
    "jpeg": "a50c23e0a3b86e36",
}


def test_one_adam_step_per_training_step(monkeypatch):
    from _synth import texture_images
    from facemark import tensorgrad as tg

    calls = []
    adam_step = tg.adam_step
    monkeypatch.setattr(tg, "adam_step", lambda params, **kw: (calls.append(params), adam_step(params, **kw)))
    config = pipeline.TrainConfig(
        steps=2, batch_size=2, image_size=16, message_length=4, base_channels=3, encoder_blocks=1, decoder_blocks=1,
    )
    model, _ = pipeline.train_watermark(config, texture_images(3, 16, seed=2))
    assert calls == [model.params, model.params]
    assert model.params.step_count == model.step == 2


def test_augmented_training_per_kind_repeats_recorded_parameters():
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])
    result = subprocess.run(
        [sys.executable, "-c", AUGMENTED_SCRIPT], env=env, check=True, timeout=300, capture_output=True, text=True
    )
    assert dict(line.split() for line in result.stdout.splitlines()) == AUGMENTED_DIGESTS


@pytest.mark.parametrize(
    "field, value, match",
    [
        ("crop_range", (0.8, 0.7), "low end above high end"),
        ("resize_range", (0.0, 1.0), "resize ratio must lie in (0, 1]"),
        ("crop_range", (0.75, 1.5), "crop ratio must lie in (0, 1]"),
        ("brightness_range", (float("nan"), 2.0), "brightness factor must be > 0"),
        ("contrast_range", (-1.0, 2.0), "contrast factor must be > 0"),
        ("jpeg_range", (50.5, 90), "jpeg quality must be an integer"),
        ("jpeg_range", (50, float("inf")), "jpeg quality must be an integer"),
        ("crop_range", (0.2, 1.0), "decoder needs at least 8 pixels"),
    ],
    ids=["order", "resize-zero", "crop-above-one", "brightness-nan", "contrast-negative", "jpeg-fraction", "jpeg-inf", "crop-below-decoder"],
)
def test_train_config_range_names_its_field(field, value, match):
    with pytest.raises(ValueError, match=re.escape(f"{field} ({value[0]}, {value[1]}) violates") + ".*" + re.escape(match)):
        pipeline.TrainConfig(**{field: value})


def test_train_wm_cli_writes_checkpoints_at_the_interval(tmp_path):
    from _synth import texture_images
    from facemark import cli, imageops

    lines = []
    for i, image in enumerate(texture_images(4, 16, seed=6)):
        imageops.save_ppm(image, tmp_path / f"img{i}.ppm")
        lines.append(f"img{i}.ppm,id{i}")
    (tmp_path / "train.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (tmp_path / "train.cfg").write_text(
        "steps=4\nbatch_size=2\nimage_size=16\nmessage_length=8\nbase_channels=8\n"
        "encoder_blocks=2\ndecoder_blocks=3\ncheckpoint_interval=2\nseed=1\n",
        encoding="utf-8",
    )
    checkpoints = tmp_path / "ckpt"
    argv = ["train-wm", "--config", str(tmp_path / "train.cfg"), "--checkpoint-dir", str(checkpoints),
            str(tmp_path / "train.csv"), str(tmp_path / "model.wmf")]
    assert cli.cli_dispatch(argv) == 0
    assert sorted(p.name for p in checkpoints.iterdir()) == ["checkpoint_step2.wmf", "checkpoint_step4.wmf"]
    assert (checkpoints / "checkpoint_step4.wmf").read_bytes() == (tmp_path / "model.wmf").read_bytes()


def _traced_peak(fn):
    """Peak bytes the Python allocators (numpy's included) hold while ``fn`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_watermark_training_holds_one_step_graph_at_a_time():
    from _synth import texture_images

    images = texture_images(4, 16, seed=1)

    def train(steps):
        config = pipeline.TrainConfig(
            steps=steps, batch_size=4, image_size=16, message_length=8, base_channels=8,
            encoder_blocks=2, decoder_blocks=3, p_aug=0.0, seed=3,
        )
        return lambda: pipeline.train_watermark(config, images)

    one, three = _traced_peak(train(1)), _traced_peak(train(3))
    assert three <= one * 1.02, (one, three)


def test_embedder_training_holds_one_batch_graph_at_a_time():
    from _synth import identity_images

    images, labels = identity_images(8, 2, size=16, seed=2)

    def train(epochs):  # one batch per epoch: the whole set
        config = bioeval.EmbedderTrainConfig(embed_dim=4, epochs=epochs, batch_size=16, base_channels=2, seed=2)
        return lambda: bioeval.train_embedder(images, labels, config)

    one, three = _traced_peak(train(1)), _traced_peak(train(3))
    assert three <= one * 1.02, (one, three)

"""Config keys, and training reruns with byte-identical outputs at a fixed BLAS thread count."""

import os
import subprocess
import sys
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

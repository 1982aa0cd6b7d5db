"""The watermark encoder/decoder: shapes and ranges of ``encode``/``extract``,
their input checks, seeded construction, and which batchnorm slots a forward
pass of each network fills."""

from pathlib import Path

import numpy as np
import pytest

from _synth import identity_images, texture_images
from facemark import bioeval
from facemark import watermarknet as wm

GOLDEN_MODEL = Path(__file__).resolve().parent / "data" / "golden_model.wmf"  # 8 bits, 3 channels


@pytest.fixture(scope="module")
def model():
    return wm.load_model(GOLDEN_MODEL)


def _message(length, seed=0):
    return np.random.default_rng(seed).integers(0, 2, size=length)


def test_encode_keeps_the_shape_and_stays_in_the_unit_interval(model):
    image = texture_images(1, 20, seed=3)[0]
    marked = wm.encode(model, image, _message(8))
    assert marked.shape == image.shape
    assert 0.0 <= marked.min() and marked.max() <= 1.0


@pytest.mark.parametrize("side", [8, 24])
def test_extract_returns_one_bit_per_message_position(model, side):
    bits = wm.extract(model, texture_images(1, side, seed=side)[0])
    assert bits.shape == (8,)
    assert set(bits.tolist()) <= {0, 1}


def test_decode_logits_rejects_a_side_below_eight_pixels(model):
    with pytest.raises(ValueError, match="at least 8x8 pixels, got 7x8"):
        wm.decode_logits(model, texture_images(1, 8, seed=0)[0][:, :7, :])


def test_decode_logits_rejects_a_wrong_channel_count(model):
    with pytest.raises(ValueError, match="expects 3-channel images, got 1"):
        wm.decode_logits(model, texture_images(1, 8, seed=0, channels=1)[0])


def test_encode_rejects_a_message_of_the_wrong_length(model):
    with pytest.raises(ValueError, match="message has 7 bits, expected 8"):
        wm.encode(model, texture_images(1, 8)[0], _message(7))


def test_encode_rejects_a_bit_that_is_not_0_or_1(model):
    with pytest.raises(ValueError, match="exactly 0 or 1"):
        wm.encode(model, texture_images(1, 8)[0], [0, 1, 2, 0, 1, 0, 1, 0])


def test_build_model_repeats_a_seed_and_differs_between_seeds():
    config = wm.WatermarkConfig(message_length=4, base_channels=3, encoder_blocks=1, decoder_blocks=1)
    a, b, c = wm.build_model(config, seed=5), wm.build_model(config, seed=5), wm.build_model(config, seed=6)
    values = [[(name, node.value) for name, node in m.params.items()] for m in (a, b, c)]
    assert [name for name, _ in values[0]] == [name for name, _ in values[2]]
    assert all(np.array_equal(x, y) for (_, x), (_, y) in zip(values[0], values[1], strict=True))
    weights = [(x, z) for (name, x), (_, z) in zip(values[0], values[2]) if name.endswith(".weight")]
    assert weights and not any(np.array_equal(x, z) for x, z in weights)


def _populated(params):
    return {slot for slot, stats in params.stats.items() if stats.populated}


def test_train_mode_forwards_fill_exactly_the_slots_of_their_layouts():
    config = wm.WatermarkConfig(message_length=4, base_channels=3, encoder_blocks=2, decoder_blocks=3)
    model = wm.build_model(config)
    images = texture_images(2, 8, seed=9)
    assert _populated(model.params) == set()
    wm.forward_encoder(model, images, [[0, 1, 1, 0], [1, 0, 0, 1]], mode="train")
    assert _populated(model.params) == {"enc.block0.bn", "enc.block1.bn"}
    wm.forward_decoder(model, images, mode="train")
    decoder = {"dec.block0.bn", "dec.block1.bn", "dec.block2.bn", "dec.bits.bn"}
    assert _populated(model.params) == set(model.params.stats) == {"enc.block0.bn", "enc.block1.bn"} | decoder

    images, _ = identity_images(2, 2, size=8, seed=1)
    config = bioeval.EmbedderConfig(embed_dim=3, num_classes=2, base_channels=3, image_size=8, class_labels=("a", "b"))
    embedder = bioeval._build_embedder(config, seed=0)
    bioeval.forward_embedder(embedder, images, mode="train")
    assert _populated(embedder.params) == set(embedder.params.stats) == {"emb.block0.bn", "emb.block1.bn", "emb.block2.bn"}

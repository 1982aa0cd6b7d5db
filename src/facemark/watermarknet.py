"""Watermark encoder/decoder networks assembled from tensorgrad layers.

The encoder replicates each message bit into a constant-valued channel at
image resolution, concatenates those channels with the image, runs a stack
of Conv-BN-ReLU blocks, re-concatenates [features, image, message] and maps
back to image channels through a final 3x3 convolution and a sigmoid, so
outputs always land in [0, 1].

The decoder is a deeper Conv-BN-ReLU stack ending in a block with one
channel per message bit, a global average pool (which makes it agnostic to
input size) and a square linear head producing one logit per bit.

A model is one ``containers.Model``, whose ``tg.ParamSet`` holds both
networks' parameters, encoder first, and their batchnorm running
statistics. Training normalizes by batch statistics and updates the running
ones; :func:`encode` and :func:`decode_logits` read them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import containers, imageops, msgcodec
from . import tensorgrad as tg

__all__ = [
    "WatermarkConfig",
    "build_model",
    "forward_encoder",
    "forward_decoder",
    "encode",
    "decode_logits",
    "extract",
    "save_model",
    "load_model",
    "MODEL_MAGIC",
]

MODEL_MAGIC = b"WMF1"

MIN_DECODE_SIDE = 8


@dataclass(frozen=True)
class WatermarkConfig:
    """Architecture constants for one encoder/decoder pair."""

    message_length: int
    base_channels: int = 64
    encoder_blocks: int = 4
    decoder_blocks: int = 7
    image_channels: int = 3

    def __post_init__(self):
        if not (1 <= self.message_length <= 256):
            raise ValueError(f"message_length must lie in [1, 256], got {self.message_length}")
        containers.require_at_least(self, base_channels=1, encoder_blocks=1, decoder_blocks=1)
        if self.image_channels not in (1, 3):
            raise ValueError(f"image_channels must be 1 or 3, got {self.image_channels}")


def _encoder_layout(cfg):
    """Ordered (name, shape) pairs for every encoder parameter."""
    c_msg = cfg.image_channels + cfg.message_length
    return tg.conv_bn_stack_layout("enc", cfg.encoder_blocks, c_msg, cfg.base_channels) + [
        ("enc.out.weight", (cfg.image_channels, cfg.base_channels + c_msg, 3, 3)),
        ("enc.out.bias", (cfg.image_channels,)),
    ]


def _decoder_layout(cfg):
    """Ordered (name, shape) pairs for every decoder parameter."""
    return [
        *tg.conv_bn_stack_layout("dec", cfg.decoder_blocks, cfg.image_channels, cfg.base_channels),
        *tg.conv_bn_layout("dec.bits", cfg.base_channels, cfg.message_length),
        ("dec.fc.weight", (cfg.message_length, cfg.message_length)),
        ("dec.fc.bias", (cfg.message_length,)),
    ]


def _new_model(cfg, rng=None):
    # Encoder first, then decoder, from one rng: this order fixes what a seed builds.
    return containers.Model(cfg, tg.init_params(_encoder_layout(cfg) + _decoder_layout(cfg), rng))


def build_model(config, seed=0):
    """He-initialized encoder/decoder pair; the same seed reproduces it."""
    return _new_model(config, np.random.default_rng(seed))


def _message_planes(messages, n, h, w, length):
    msgs = np.asarray(messages, dtype=np.float64)
    if msgs.shape != (n, length):
        raise ValueError(f"messages must have shape ({n}, {length}), got {msgs.shape}")
    if not np.all((msgs == 0.0) | (msgs == 1.0)):
        raise ValueError("message bits must be exactly 0 or 1")
    # A read-only broadcast view: every concat that reads it copies the values anyway.
    return tg.leaf(np.broadcast_to(msgs[:, :, None, None], (n, length, h, w)))


def forward_encoder(model, images, messages, mode="train"):
    """Batched encoder graph: (N,C,H,W) images + (N,L) bits -> watermarked node.

    In ``train`` mode batch statistics are used and the model's running
    statistics are updated; ``infer`` uses the stored statistics.
    """
    cfg = model.config
    x = images if isinstance(images, tg.Node) else tg.leaf(images)
    n, c, h, w = x.value.shape
    if c != cfg.image_channels:
        raise ValueError(f"encoder expects {cfg.image_channels}-channel images, got {c}")
    msg_node = _message_planes(messages, n, h, w, cfg.message_length)
    out = model.params.stack(tg.concat_channels(x, msg_node), "enc", cfg.encoder_blocks, mode)
    fused = tg.concat_channels(out, x, msg_node)
    final = tg.conv2d(fused, model.params["enc.out.weight"], model.params["enc.out.bias"], pad=1)
    return tg.sigmoid(final)


def forward_decoder(model, images, mode="train"):
    """Batched decoder graph: (N,C,H,W) images -> (N,L) logits node."""
    cfg = model.config
    x = images if isinstance(images, tg.Node) else tg.leaf(images)
    n, c, h, w = x.value.shape
    if c != cfg.image_channels:
        raise ValueError(f"decoder expects {cfg.image_channels}-channel images, got {c}")
    if h < MIN_DECODE_SIDE or w < MIN_DECODE_SIDE:
        raise ValueError(f"decoder needs at least {MIN_DECODE_SIDE}x{MIN_DECODE_SIDE} pixels, got {h}x{w}")
    out = model.params.stack(x, "dec", cfg.decoder_blocks, mode)
    pooled = tg.global_avg_pool(model.params.block(out, "dec.bits", mode))
    return tg.affine(pooled, model.params["dec.fc.weight"], model.params["dec.fc.bias"])


def encode(model, image, message):
    """Embed a message into one image (:func:`imageops.require_image`) on the stored batchnorm statistics; same shape out."""
    img = imageops.require_image(image)
    msg = msgcodec.validate_message(message, model.config.message_length)
    return forward_encoder(model, img[None], msg[None].astype(np.float64), mode="infer").value[0]


def decode_logits(model, image):
    """Raw per-bit logits for one image (:func:`imageops.require_image`, sides >= 8) on the stored batchnorm statistics."""
    img = imageops.require_image(image)
    return forward_decoder(model, img[None], mode="infer").value[0]


def extract(model, image):
    """Hard bit decisions for one :func:`imageops.require_image` image (inference-mode decoding)."""
    return msgcodec.logits_to_message(decode_logits(model, image))


def save_model(model, path):
    """Persist parameters, running statistics, config and step counter."""
    containers.save_model(path, MODEL_MAGIC, model)


def load_model(path):
    """Inverse of :func:`save_model`; validates names and shapes field by field."""
    return containers.load_model(path, MODEL_MAGIC, WatermarkConfig, _new_model)

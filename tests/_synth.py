"""Procedural test data: textures for watermark training, a small
identity-structured face-stand-in set for verification experiments, and
identity-structured embeddings for the verification metrics. Also the
scalar loss the gradient tests backpropagate from, and the tensors of a
model file.

Pixel values stay inside [0.08, 0.92] so the sigmoid-output encoder never
has to chase saturated targets.
"""

from __future__ import annotations

import numpy as np

from facemark import tensorgrad as tg
from facemark.bioeval import Embedding


def texture_images(count, size=32, seed=0, channels=3):
    """Smooth random sinusoid/gradient mixtures, (count, C, size, size)."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:size, 0:size] / size
    images = np.empty((count, channels, size, size))
    for i in range(count):
        fx, fy = rng.uniform(0.5, 4.0, size=2)
        phase = rng.uniform(0.0, 2.0 * np.pi, size=2)
        base = 0.5 + 0.25 * np.sin(2 * np.pi * fx * xx + phase[0]) * np.cos(2 * np.pi * fy * yy + phase[1])
        slope = rng.uniform(-0.2, 0.2, size=2)
        base = base + slope[0] * (xx - 0.5) + slope[1] * (yy - 0.5)
        for c in range(channels):
            fc = rng.uniform(0.5, 3.0)
            ripple = 0.12 * np.sin(2 * np.pi * fc * (xx + yy) + rng.uniform(0.0, 2 * np.pi))
            images[i, c] = base + ripple + rng.uniform(-0.06, 0.06)
    return np.clip(images, 0.08, 0.92)


def identity_images(num_identities, images_per_id, size=32, seed=0, channels=3):
    """An identity-structured synthetic set: each identity is a distinctive
    blob-plus-stripe pattern; its images are photometric/phase jitters of it.

    Returns (images (N, C, size, size), identity labels list[str]).
    """
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:size, 0:size] / size
    images = []
    labels = []
    for ident in range(num_identities):
        cx, cy = rng.uniform(0.25, 0.75, size=2)
        blob_w = rng.uniform(0.05, 0.2)
        stripe_f = rng.uniform(1.0, 5.0)
        stripe_a = rng.uniform(0.0, np.pi)
        color = rng.uniform(0.3, 0.7, size=channels)
        for _ in range(images_per_id):
            jx = cx + rng.uniform(-0.03, 0.03)
            jy = cy + rng.uniform(-0.03, 0.03)
            gain = rng.uniform(0.85, 1.15)
            phase = rng.uniform(-0.3, 0.3)
            blob = np.exp(-(((xx - jx) ** 2 + (yy - jy) ** 2) / (2 * blob_w**2)))
            stripes = 0.5 + 0.5 * np.sin(2 * np.pi * stripe_f * (xx * np.cos(stripe_a) + yy * np.sin(stripe_a)) + phase)
            img = np.empty((channels, size, size))
            for c in range(channels):
                img[c] = gain * (0.35 * blob + 0.3 * stripes * color[c] + 0.35 * color[c])
            img += rng.normal(0.0, 0.01, size=img.shape)
            images.append(np.clip(img, 0.08, 0.92))
            labels.append(f"id{ident:04d}")
    return np.stack(images), labels


def identity_embeddings(num_identities, images_per_id, dim=8, seed=0):
    """Original and watermarked embeddings with identity structure.

    Each identity has a standard-normal centre; each image adds unit noise
    per component and its watermarked copy adds 0.1 on top, so genuine and
    imposter cosine scores overlap. Originals and watermarked copies keep
    the same per-identity order, as positional pairing expects.
    """
    rng = np.random.default_rng(seed)
    out = []
    for ident in range(num_identities):
        label = f"id{ident:04d}"
        originals = rng.standard_normal(dim) + rng.standard_normal((images_per_id, dim))
        marked = originals + 0.1 * rng.standard_normal((images_per_id, dim))
        out += [Embedding(v, label, "original") for v in originals]
        out += [Embedding(v, label, "watermarked") for v in marked]
    return out


def sum_all(x):
    """Sum of all elements of node ``x``, as a scalar node whose vjp broadcasts the gradient back."""
    shape = x.value.shape
    return tg.Node(x.value.sum(), op="sum_all", parents=(x,), requires_grad=x.requires_grad,
                   vjp=(lambda g: (np.broadcast_to(g, shape).copy(),)) if x.requires_grad else None)


def model_tensors(model):
    """The (name, array) list a model file holds for ``model``, in file order.

    Its parameters, then the running mean and variance of every batchnorm
    slot; slot ``k`` gets mean ``k + 0.5`` and variance ``k + 2``, so each
    slot's statistics differ from every other's.
    """
    params = model.params
    tensors = [(name, node.value) for name, node in params.items()]
    for k, slot in enumerate(params.stats):
        shape = params[f"{slot}.gamma"].value.shape
        tensors += [(f"{slot}.running_mean", np.full(shape, k + 0.5)),
                    (f"{slot}.running_var", np.full(shape, k + 2.0))]
    return tensors

"""Seeded input generators for the benchmark.

Everything a workload feeds the program is made here from an integer seed, so
one seed always gives the same inputs and no test edit can move them.
"""

from __future__ import annotations

import numpy as np


CHANNELS = 3
IDENTITY_NOISE = 1.0  # per-component spread of an identity's images around its centre
MARK_NOISE = 0.1  # extra spread of a watermarked copy around its original


def textures(count, size, seed):
    """Smooth plane-wave mixtures, (count, CHANNELS, size, size) in [0.08, 0.92].

    Pixels stay away from 0 and 1 so the sigmoid-output encoder never chases
    saturated targets.
    """
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:size, 0:size] / size
    out = np.empty((count, CHANNELS, size, size))
    for i in range(count):
        angle = rng.uniform(0.0, np.pi, size=2)
        freq = rng.uniform(0.5, 4.0, size=2)
        phase = rng.uniform(0.0, 2.0 * np.pi, size=2)
        waves = [
            np.sin(2 * np.pi * f * (xx * np.cos(a) + yy * np.sin(a)) + p)
            for a, f, p in zip(angle, freq, phase)
        ]
        base = 0.5 + 0.18 * waves[0] + 0.08 * waves[1]
        for c in range(CHANNELS):
            out[i, c] = base * rng.uniform(0.8, 1.2) + rng.uniform(-0.08, 0.08)
    return np.clip(out, 0.08, 0.92)


def message(length, seed):
    """A seeded 0/1 message of ``length`` bits (uint8)."""
    return np.random.default_rng(seed).integers(0, 2, size=length).astype(np.uint8)


def embedding_rows(identities, per_identity, dim, seed):
    """Identity-structured vectors for both sources.

    Each identity has a standard-normal centre; each of its images adds
    IDENTITY_NOISE per component, so same-identity cosine scores centre near
    1 / (1 + IDENTITY_NOISE**2) and scores across identities near 0. The
    watermarked copy of an image adds MARK_NOISE on top. Returns a list of
    ``(identity, source, float32 vector)`` with originals and watermarked
    copies in the same per-identity order, as the program's positional
    pairing expects.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for ident in range(identities):
        label = f"id{ident:04d}"
        centre = rng.standard_normal(dim)
        originals = centre + IDENTITY_NOISE * rng.standard_normal((per_identity, dim))
        marked = originals + MARK_NOISE * rng.standard_normal((per_identity, dim))
        rows += [(label, "original", v.astype(np.float32)) for v in originals]
        rows += [(label, "watermarked", v.astype(np.float32)) for v in marked]
    return rows

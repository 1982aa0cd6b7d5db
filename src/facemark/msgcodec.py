"""Watermark message handling: bitmap signatures, bit decisions, bit accuracy.

Messages are 1-D uint8 arrays over {0, 1}; signature bitmaps are 2-D uint8
arrays whose row-major flattening yields the message, so one fixed mark
can stamp every image.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "bitmap_to_message",
    "logits_to_message",
    "bit_accuracy",
    "validate_message",
    "load_signature",
    "parse_bits",
    "format_bits",
]


def validate_message(msg, length=None):
    """Return ``msg`` as a uint8 {0,1} vector, checking length when given."""
    arr = np.asarray(msg)
    if arr.ndim != 1:
        raise ValueError(f"message must be 1-D, got shape {arr.shape}")
    if not np.all((arr == 0) | (arr == 1)):
        raise ValueError("message bits must be exactly 0 or 1")
    if length is not None and arr.shape[0] != length:
        raise ValueError(f"message has {arr.shape[0]} bits, expected {length}")
    return arr.astype(np.uint8)


def bitmap_to_message(bitmap):
    """Flatten a binary bitmap row-major, top-left bit first."""
    arr = np.asarray(bitmap)
    if arr.ndim != 2:
        raise ValueError(f"signature bitmap must be 2-D, got shape {arr.shape}")
    if not np.all((arr == 0) | (arr == 1)):
        raise ValueError("signature bitmap pixels must be exactly 0 or 1")
    return arr.astype(np.uint8).reshape(-1)


def logits_to_message(logits):
    """Bit i is 1 iff logit i > 0; an exact 0 maps to bit 0."""
    arr = np.asarray(logits, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"logits must be 1-D, got shape {arr.shape}")
    if np.any(np.isnan(arr)):
        raise ValueError("logits contain NaN")
    return (arr > 0.0).astype(np.uint8)


def bit_accuracy(a, b):
    """Fraction of positions where the two messages agree."""
    a = validate_message(a)
    b = validate_message(b)
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"message lengths differ: {a.shape[0]} vs {b.shape[0]}")
    return float(np.mean(a == b))


def load_signature(path):
    """Read a bitmap from text: first line "H W", then H rows of 0/1 chars."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty signature file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"{path}: first line must be 'H W', got {lines[0]!r}")
    h, w = int(head[0]), int(head[1])
    if len(lines) - 1 != h:
        raise ValueError(f"{path}: expected {h} bitmap rows, found {len(lines) - 1}")
    rows = []
    for i, ln in enumerate(lines[1:]):
        row = ln.strip()
        if len(row) != w or set(row) - {"0", "1"}:
            raise ValueError(f"{path}: row {i} must be {w} chars of 0/1, got {row!r}")
        rows.append([int(c) for c in row])
    return np.array(rows, dtype=np.uint8)


def parse_bits(text):
    """Parse a string of 0/1 characters into a message."""
    text = text.strip()
    if not text or set(text) - {"0", "1"}:
        raise ValueError(f"bit string must be non-empty 0/1 characters, got {text!r}")
    return np.array([int(c) for c in text], dtype=np.uint8)


def format_bits(msg):
    """Render a message as a line of 0/1 characters."""
    return "".join(str(int(b)) for b in validate_message(msg))

"""Image ingestion and the post-watermarking transformation suite.

Images are C x H x W float64 arrays with pixels in [0, 1] (C is 1 or 3), checked
by :func:`require_images` (an (M, C, H, W) stack, M >= 1) or :func:`require_image`
at every entry point that takes images: ``train_watermark``, ``run_sweep``,
``train_embedder``, ``embed_images``, ``encode``, ``decode_logits``, ``extract``
and :func:`apply_transform`.
The transforms here serve double duty: evaluation attacks applied after
watermarking (:func:`apply_transform`, one image) and training-time
augmentations (a batch inside the training graph). Both go through
:func:`transform_batch`, which runs the differentiable ``tensorgrad`` ops,
so an attack and its augmentation share one size rule and one kernel.

The JPEG operation is a fidelity simulation of a sequential-DCT codec: color
transform, 8x8 block DCT, quantization by the standard quality-scaled
tables, and reconstruction. Entropy coding is lossless and therefore
omitted; chroma subsampling is not applied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensorgrad as tg

__all__ = [
    "Transform",
    "TRANSFORM_KINDS",
    "load_ppm",
    "save_ppm",
    "load_pgm",
    "save_pgm",
    "image_channels",
    "load_image",
    "save_image",
    "to_8bit",
    "crop_window",
    "jpeg_roundtrip",
    "transform_batch",
    "apply_transform",
    "psnr",
    "require_image",
    "require_images",
    "LUMA_WEIGHTS",
]

LUMA_WEIGHTS = np.array([0.299, 0.587, 0.114])

TRANSFORM_KINDS = ("crop", "resize", "brightness", "contrast", "jpeg")


def require_images(images, min_side=1):
    """Check an (M, C, H, W) stack: M >= 1, C in {1, 3}, sides >= ``min_side``, finite, in [0, 1]; return as float64."""
    arr = np.asarray(images, dtype=np.float64)
    if arr.ndim != 4 or arr.shape[0] == 0:
        raise ValueError(f"images must be a non-empty (M,C,H,W) stack, got shape {arr.shape}")
    if arr.shape[1] not in (1, 3):
        raise ValueError(f"image must be CxHxW with C in {{1,3}}, got shape {arr.shape[1:]}")
    if arr.shape[2] < min_side or arr.shape[3] < min_side:
        raise ValueError(f"image {arr.shape[2]}x{arr.shape[3]} is smaller than {min_side} pixels per side")
    if not np.all(np.isfinite(arr)):
        raise ValueError("image contains NaN or Inf")
    if arr.min() < 0.0 or arr.max() > 1.0:
        raise ValueError("image pixels must lie in [0, 1]")
    return arr


def require_image(img, min_side=1):
    """Check one C x H x W image by the rule of :func:`require_images`; return it as float64."""
    arr = np.asarray(img, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError(f"image must be CxHxW with C in {{1,3}}, got shape {arr.shape}")
    return require_images(arr[None], min_side)[0]


@dataclass(frozen=True)
class Transform:
    """One evaluation attack: a kind, its strength, and a seed for crops."""

    kind: str
    factor: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in TRANSFORM_KINDS:
            raise ValueError(f"unknown transform kind {self.kind!r}; expected one of {TRANSFORM_KINDS}")
        if self.kind in ("crop", "resize") and not (0.0 < self.factor <= 1.0):
            raise ValueError(f"{self.kind} ratio must lie in (0, 1], got {self.factor}")
        if self.kind in ("brightness", "contrast") and not (0.0 < self.factor < np.inf):
            raise ValueError(f"{self.kind} factor must be > 0 and finite, got {self.factor}")
        if self.kind == "jpeg":
            q = self.factor
            if not (1 <= q <= 100) or q != int(q):
                raise ValueError(f"jpeg quality must be an integer in [1, 100], got {self.factor}")


# ---------------------------------------------------------------------------
# PPM / PGM (binary, 8-bit)
# ---------------------------------------------------------------------------

def _read_pnm_header(data, path, magic):
    if data[:2] != magic:
        raise ValueError(f"{path}: expected {magic.decode()} magic at byte 0, got {data[:2]!r}")
    fields = []
    pos = 2
    while len(fields) < 3:
        if pos >= len(data):
            raise ValueError(f"{path}: truncated header at byte {pos}")
        ch = data[pos : pos + 1]
        if ch == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
        elif ch.isspace():
            pos += 1
        elif ch.isdigit():
            start = pos
            while pos < len(data) and data[pos : pos + 1].isdigit():
                pos += 1
            fields.append(int(data[start:pos]))
        else:
            raise ValueError(f"{path}: unexpected byte {ch!r} in header at byte {pos}")
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise ValueError(f"{path}: missing whitespace after maxval at byte {pos}")
    pos += 1
    width, height, maxval = fields
    if maxval != 255:
        raise ValueError(f"{path}: only maxval 255 is supported, got {maxval}")
    if width < 1 or height < 1:
        raise ValueError(f"{path}: bad dimensions {width}x{height}")
    return width, height, pos


def _load_pnm(path, magic, channels):
    """Read a binary PNM file (P6: 3 channels, P5: 1) into a C x H x W image in [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    width, height, pos = _read_pnm_header(data, path, magic)
    need = width * height * channels
    payload = data[pos : pos + need]
    if len(payload) < need:
        raise ValueError(f"{path}: truncated payload at byte {pos + len(payload)}, need {need} bytes")
    arr = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, channels)
    return arr.transpose(2, 0, 1).astype(np.float64) / 255.0


def to_8bit(img):
    """The 8-bit sample levels of a [0, 1] image, as floats: round to nearest, ties up, clamp to 0..255."""
    return np.floor(img * 255.0 + 0.5).clip(0, 255)


def _save_pnm(img, path, magic, channels, name):
    """Write a C x H x W image as binary PNM; rounds to nearest, ties up."""
    arr = require_image(img)
    if arr.shape[0] != channels:
        raise ValueError(f"{name}: expected {channels} channel(s), got {arr.shape[0]}")
    raw = to_8bit(arr).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(magic + f"\n{arr.shape[2]} {arr.shape[1]}\n255\n".encode("ascii"))
        fh.write(raw.transpose(1, 2, 0).tobytes())


def load_ppm(path):
    """Read a binary P6 PPM into a 3 x H x W image in [0, 1]."""
    return _load_pnm(path, b"P6", 3)


def save_ppm(img, path):
    """Write a 3 x H x W image as binary P6; rounds to nearest, ties up."""
    _save_pnm(img, path, b"P6", 3, "save_ppm")


def load_pgm(path):
    """Read a binary P5 PGM into a 1 x H x W image in [0, 1]."""
    return _load_pnm(path, b"P5", 1)


def save_pgm(img, path):
    """Write a 1 x H x W image as binary P5; rounds to nearest, ties up."""
    _save_pnm(img, path, b"P5", 1, "save_pgm")


def image_channels(path):
    """The channel count a binary PNM file's magic declares: 3 for a P6 PPM, 1 for a P5 PGM."""
    with open(path, "rb") as fh:
        magic = fh.read(2)
    if magic not in (b"P6", b"P5"):
        raise ValueError(f"{path}: expected P5 or P6 magic at byte 0, got {magic!r}")
    return 3 if magic == b"P6" else 1


def load_image(path, channels):
    """Read a ``channels``-channel image: a P6 PPM for 3 channels, else a P5 PGM."""
    return load_ppm(path) if channels == 3 else load_pgm(path)


def save_image(img, path):
    """Write a P6 PPM if ``img`` has 3 channels, else a P5 PGM."""
    if np.shape(img)[:1] == (3,):
        save_ppm(img, path)
    else:
        save_pgm(img, path)


# ---------------------------------------------------------------------------
# JPEG quantization round trip
# ---------------------------------------------------------------------------

# Annex-K base quantization tables (luminance, chrominance), natural order.
_JPEG_LUMA_Q = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=np.float64,
)

_JPEG_CHROMA_Q = np.array(
    [
        [17, 18, 24, 47, 99, 99, 99, 99],
        [18, 21, 26, 66, 99, 99, 99, 99],
        [24, 26, 56, 99, 99, 99, 99, 99],
        [47, 66, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
    ],
    dtype=np.float64,
)


def _dct_matrix():
    k = np.arange(8).reshape(-1, 1)
    n = np.arange(8).reshape(1, -1)
    mat = np.cos((2 * n + 1) * k * np.pi / 16.0) * np.sqrt(2.0 / 8.0)
    mat[0] = np.sqrt(1.0 / 8.0)
    return mat


_DCT = _dct_matrix()


def dct2_blocks(blocks):
    """Orthonormal 2-D DCT-II over trailing 8x8 axes."""
    return _DCT @ blocks @ _DCT.T


def idct2_blocks(coeffs):
    """Inverse of :func:`dct2_blocks`."""
    return _DCT.T @ coeffs @ _DCT


def quant_tables(quality):
    """Quality-scaled (luma, chroma) tables per the conventional 5000/q rule."""
    Transform("jpeg", quality)  # validates
    q = int(quality)
    scale = 5000.0 / q if q < 50 else 200.0 - 2.0 * q
    tables = []
    for base in (_JPEG_LUMA_Q, _JPEG_CHROMA_Q):
        t = np.floor((base * scale + 50.0) / 100.0)
        tables.append(np.clip(t, 1.0, 255.0))
    return tables[0], tables[1]


def _to_blocks(plane):
    h, w = plane.shape
    return plane.reshape(h // 8, 8, w // 8, 8).transpose(0, 2, 1, 3)


def _from_blocks(blocks, h, w):
    return blocks.transpose(0, 2, 1, 3).reshape(h, w)


def _quantize_plane(plane, table):
    blocks = _to_blocks(plane - 128.0)
    coeffs = dct2_blocks(blocks)
    quantized = np.round(coeffs / table) * table
    return _from_blocks(idct2_blocks(quantized), plane.shape[0], plane.shape[1]) + 128.0


def jpeg_roundtrip(img, quality):
    """Baseline-JPEG fidelity simulation: quantize in the DCT domain and return.

    Pipeline: scale to integer 0..255 samples, RGB -> YCbCr (BT.601 full
    range), edge-replicate pad to multiples of 8, per-block level shift and
    DCT, quantization by quality-scaled tables, inverse transform, crop,
    YCbCr -> RGB, clamp, round back to integer samples. No 4:2:0
    subsampling; entropy coding is lossless and skipped.
    """
    arr = require_image(img, min_side=8)
    luma_t, chroma_t = quant_tables(quality)

    x = to_8bit(arr)
    if arr.shape[0] == 3:
        r, g, b = x[0], x[1], x[2]
        y = 0.299 * r + 0.587 * g + 0.114 * b
        cb = -0.168736 * r - 0.331264 * g + 0.5 * b + 128.0
        cr = 0.5 * r - 0.418688 * g - 0.081312 * b + 128.0
        planes = [(y, luma_t), (cb, chroma_t), (cr, chroma_t)]
    else:
        planes = [(x[0], luma_t)]

    h, w = arr.shape[1], arr.shape[2]
    pad_h = (-h) % 8
    pad_w = (-w) % 8
    recon = []
    for plane, table in planes:
        if pad_h or pad_w:
            plane = np.pad(plane, ((0, pad_h), (0, pad_w)), mode="edge")
        rec = _quantize_plane(plane, table)
        recon.append(rec[:h, :w])

    if arr.shape[0] == 3:
        y, cb, cr = recon
        r = y + 1.402 * (cr - 128.0)
        g = y - 0.344136 * (cb - 128.0) - 0.714136 * (cr - 128.0)
        b = y + 1.772 * (cb - 128.0)
        out = np.stack([r, g, b])
    else:
        out = recon[0][None]
    out = np.floor(out + 0.5).clip(0, 255)
    return out / 255.0


# ---------------------------------------------------------------------------
# the transform suite
# ---------------------------------------------------------------------------

def crop_window(height, width, ratio):
    """Output size of a crop/resize by ``ratio``: floor per axis, >= 1 required."""
    out_h, out_w = int(ratio * height), int(ratio * width)
    if out_h < 1 or out_w < 1:
        raise ValueError(f"ratio {ratio} collapses {height}x{width} below one pixel")
    return out_h, out_w


def transform_batch(x, kind, factor, rng):
    """Apply one transform to an (N, C, H, W) node; sweeps and training both call this.

    Crop and resize output :func:`crop_window`'s size; a crop draws its top,
    then its left offset from ``rng`` and cuts the whole batch there.
    An output the size of its input, and contrast at exactly 1.0, return
    ``x`` itself. JPEG runs image by image under a straight-through
    estimator; the other kinds are differentiable ``tensorgrad`` ops.
    """
    _, c, h, w = x.value.shape
    if kind in ("crop", "resize"):
        out_h, out_w = crop_window(h, w, factor)
        if (out_h, out_w) == (h, w):
            return x
        if kind == "resize":
            return tg.resize_bilinear(x, out_h, out_w)
        top = int(rng.integers(0, h - out_h + 1))
        left = int(rng.integers(0, w - out_w + 1))
        return tg.crop_spatial(x, top, left, out_h, out_w)
    if kind == "brightness":
        return tg.adjust_brightness(x, factor)
    if kind == "contrast":
        if factor == 1.0:
            return x  # exact identity; mu + (x - mu) would reintroduce rounding
        return tg.adjust_contrast(x, factor, LUMA_WEIGHTS if c == 3 else np.array([1.0]))
    if kind == "jpeg":
        quality = int(factor)
        return tg.straight_through(x, lambda batch: np.stack([jpeg_roundtrip(img, quality) for img in batch]))
    raise ValueError(f"unknown transform kind {kind!r}")


def apply_transform(img, transform):
    """Apply a :class:`Transform` to one image (checked by :func:`require_image`), crop offsets from ``transform.seed``."""
    t = transform
    x = tg.leaf(require_image(img)[None])
    return transform_batch(x, t.kind, t.factor, np.random.default_rng(t.seed)).value[0]


def psnr(a, b):
    """Peak signal-to-noise ratio in dB on the [0, 1] scale; inf when equal."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"psnr: shapes differ: {a.shape} vs {b.shape}")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return float("inf")
    return 10.0 * np.log10(1.0 / mse)

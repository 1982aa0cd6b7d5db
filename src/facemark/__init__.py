"""Invisible image watermarking with robustness and verification evaluation.

Modules by concern:

* :mod:`facemark.tensorgrad` — dense tensors with reverse-mode autodiff,
  the network layers and Adam;
* :mod:`facemark.containers` — the file formats: the tensor container and
  model record of WMF1/EMB1, and the line rule of every plain-text file;
* :mod:`facemark.msgcodec` — watermark messages and bitmap signatures;
* :mod:`facemark.imageops` — PPM/PGM I/O and the transformation suite
  (crop, resize, brightness, contrast, JPEG quantization round trip);
* :mod:`facemark.watermarknet` — the watermark encoder/decoder networks;
* :mod:`facemark.bioeval` — verification scoring, TAR@FAR, EER, Welch's
  t-test, and the toy embedder;
* :mod:`facemark.pipeline` — training loops, dataset watermarking, sweeps
  and verification reports;
* :mod:`facemark.cli` — the ``facemark`` command-line tool, which the
  package does not import: ``python -m facemark`` runs it.

Importing the package sets ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``
and ``MKL_NUM_THREADS`` to ``1`` in ``os.environ``, overriding any value
already there (child processes inherit it). BLAS reads them once, when
numpy first loads, so the pin applies only when facemark is imported
before numpy. The package spreads work over the usable cores itself,
through one ordered map on one thread pool (``tensorgrad.map_ordered``):
the sample ranges of each ``conv2d`` batch, the channel ranges of each
Conv-BN-ReLU block's per-channel work, and the images of a sweep or a
dataset watermarking run. With BLAS at one thread, results are
bit-identical whatever the environment or the core count, and the pool's
threads do not compete with BLAS threads for the same cores.
"""

import os as _os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ[_var] = "1"

from . import bioeval, containers, imageops, msgcodec, pipeline, tensorgrad, watermarknet

__all__ = [
    "bioeval",
    "containers",
    "imageops",
    "msgcodec",
    "pipeline",
    "tensorgrad",
    "watermarknet",
]

__version__ = "0.1.0"

"""Invisible image watermarking with robustness and verification evaluation.

Modules by concern:

* :mod:`facemark.tensorgrad` — dense tensors with reverse-mode autodiff,
  the network layers, Adam, and finite-difference gradient checking;
* :mod:`facemark.msgcodec` — watermark messages and bitmap signatures;
* :mod:`facemark.imageops` — PPM/PGM I/O and the transformation suite
  (crop, resize, brightness, contrast, JPEG quantization round trip);
* :mod:`facemark.watermarknet` — the watermark encoder/decoder networks;
* :mod:`facemark.bioeval` — verification scoring, TAR@FAR, EER, Welch's
  t-test, and the toy embedder;
* :mod:`facemark.pipeline` — training loops, dataset watermarking, sweeps,
  verification reports, and file formats;
* :mod:`facemark.cli` — the ``facemark`` command-line tool.

Importing the package sets ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``
and ``MKL_NUM_THREADS`` to ``1`` in ``os.environ``, overriding any value
already there (child processes inherit it). BLAS reads them once, when
numpy first loads, so the pin applies only when facemark is imported
before numpy. ``tensorgrad.conv2d`` spreads a batch's samples over the
usable cores itself; with BLAS at one thread, results are bit-identical
whatever the environment or the core count, and the pool's threads do not
compete with BLAS threads for the same cores.
"""

import os as _os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ[_var] = "1"

from . import bioeval, cli, containers, imageops, msgcodec, pipeline, tensorgrad, watermarknet

__all__ = [
    "bioeval",
    "cli",
    "containers",
    "imageops",
    "msgcodec",
    "pipeline",
    "tensorgrad",
    "watermarknet",
]

__version__ = "0.1.0"

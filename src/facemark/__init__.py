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

Importing the package also sets three glibc allocator parameters once,
through ``mallopt``, overriding any ``MALLOC_*`` environment value (as the
BLAS pin overrides its variables). glibc maps each block above its mmap
threshold on its own and unmaps it when numpy frees it, and it returns a
freed heap top of more than its trim threshold to the kernel, so the next
training step or verification call faults the same memory in again page by
page. ``M_MMAP_THRESHOLD`` at 32 MiB, glibc's own ceiling for its dynamic
threshold, serves every array at the default shapes (the largest is
8.4 MB) from the heap; ``M_TRIM_THRESHOLD`` at 1 GiB keeps a freed heap top
mapped for the next step or call; ``M_ARENA_MAX`` at 1 makes the pool's
threads share that one heap, which keeps a sweep's peak RSS where it was
(with one arena per thread it rose ~9%). Together they take the minor page
faults of one ``run_verification`` at the benchmark's verify shape from
~2,300 to 0, and of one default training step from ~23,000 to 0. Unlike the
BLAS pin, the settings take effect whenever facemark is imported, before or
after numpy. They apply on glibc only and do nothing elsewhere. They change
no arithmetic, buffer or call order, so no result depends on them.
"""

import os as _os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ[_var] = "1"

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8  # glibc's <malloc.h>


def _pin_heap():
    import ctypes

    libc = ctypes.CDLL(None)
    if not hasattr(libc, "gnu_get_libc_version"):
        return
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    for param, value in ((_M_MMAP_THRESHOLD, 32 << 20), (_M_TRIM_THRESHOLD, 1 << 30), (_M_ARENA_MAX, 1)):
        libc.mallopt(param, value)


_pin_heap()

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

"""Length-prefixed binary tensor container used by the model file formats.

Layout (little-endian throughout):

* 4 magic bytes identifying the format ("WMF1" for watermark models,
  "EMB1" for embedders);
* uint32 byte length of a UTF-8 JSON header;
* the header: ``{"config": {...}, "step": int, "tensors": [[name, [dims]], ...]}``;
* raw float32 values for each tensor in manifest order, C-contiguous.

Weights are persisted at 32-bit precision and widened to float64 on load.

Both model formats hold a state dict (:func:`save_state`, :func:`load_state`):
the parameters in order, then each populated batchnorm's running statistics.
A Conv-BN-ReLU block ``<block>`` has ``<block>.conv.weight/bias``,
``<block>.bn.gamma/beta`` and ``<block>.bn.running_mean/var``.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

__all__ = ["write_container", "read_container", "save_state", "load_state"]


def write_container(path, magic, config, step, tensors):
    """Write named float arrays; ``tensors`` is an ordered list of (name, array)."""
    if len(magic) != 4:
        raise ValueError(f"magic must be 4 bytes, got {magic!r}")
    manifest = [[name, list(np.asarray(arr).shape)] for name, arr in tensors]
    header = json.dumps(
        {"config": config, "step": int(step), "tensors": manifest},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(magic if isinstance(magic, bytes) else magic.encode("ascii"))
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for _, arr in tensors:
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def read_container(path, magic):
    """Read a container back as (config, step, ordered {name: float64 array})."""
    magic_b = magic if isinstance(magic, bytes) else magic.encode("ascii")
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != magic_b:
        raise ValueError(f"{path}: bad magic {data[:4]!r}, expected {magic_b!r}")
    if len(data) < 8:
        raise ValueError(f"{path}: truncated before header length")
    (hlen,) = struct.unpack("<I", data[4:8])
    if len(data) < 8 + hlen:
        raise ValueError(f"{path}: truncated header (need {hlen} bytes)")
    try:
        header = json.loads(data[8 : 8 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"{path}: malformed header: {exc}") from exc
    if not isinstance(header, dict):
        raise ValueError(f"{path}: header is not a JSON object")
    for key in ("config", "step", "tensors"):
        if key not in header:
            raise ValueError(f"{path}: header missing field {key!r}")
    if not isinstance(header["config"], dict):
        raise ValueError(f"{path}: header field 'config' is not a JSON object")
    if type(header["step"]) is not int:
        raise ValueError(f"{path}: header field 'step' is not an integer")
    if not isinstance(header["tensors"], list):
        raise ValueError(f"{path}: header field 'tensors' is not a list")
    pos = 8 + hlen
    tensors: dict[str, np.ndarray] = {}
    for entry in header["tensors"]:
        name, dims = _manifest_entry(path, entry)
        if name in tensors:
            raise ValueError(f"{path}: tensor {name!r} is listed twice")
        nbytes = math.prod(dims) * 4
        if pos + nbytes > len(data):
            raise ValueError(f"{path}: truncated payload in tensor {name!r}")
        flat = np.frombuffer(data[pos : pos + nbytes], dtype="<f4")
        tensors[name] = flat.astype(np.float64).reshape(dims)
        pos += nbytes
    if pos != len(data):
        raise ValueError(f"{path}: {len(data) - pos} trailing bytes after last tensor")
    return header["config"], header["step"], tensors


def _manifest_entry(path, entry):
    """One manifest entry as (name, dims): a string and a list of non-negative ints."""
    if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)):
        raise ValueError(f"{path}: manifest entry {entry!r} is not [name, [dims]]")
    name, dims = entry
    if not (isinstance(dims, list) and all(type(d) is int and d >= 0 for d in dims)):
        raise ValueError(f"{path}: tensor {name!r} has bad dims {dims!r}, expected a list of non-negative ints")
    return name, dims


def save_state(path, magic, config, step, params, stats):
    """Write ``params`` ((name, Node) pairs), then each populated slot of ``stats`` ({slot: RunningStats})."""
    tensors = [(name, node.value) for name, node in params]
    for slot, running in stats.items():
        if running.populated:
            tensors += [(f"{slot}.running_mean", running.mean), (f"{slot}.running_var", running.var)]
    write_container(path, magic, config, step, tensors)


def load_state(path, tensors, params, stats):
    """Fill ``params`` and ``stats`` (as for :func:`save_state`) from ``read_container``'s tensors.

    Any missing, misshapen, unexpected or half-present tensor raises ValueError.
    """
    params = dict(params)
    for name, node in params.items():
        if name not in tensors:
            raise ValueError(f"{path}: missing tensor {name!r}")
        if tensors[name].shape != node.value.shape:
            raise ValueError(f"{path}: tensor {name!r} has shape {tensors[name].shape}, expected {node.value.shape}")
    for name, arr in tensors.items():
        if name in params:
            params[name].value[...] = arr
            continue
        slot, _, kind = name.rpartition(".")
        if slot not in stats or kind not in ("running_mean", "running_var"):
            raise ValueError(f"{path}: unexpected tensor {name!r}")
        setattr(stats[slot], "mean" if kind == "running_mean" else "var", arr)
    for slot, running in stats.items():
        channels = params[f"{slot}.gamma"].value.shape
        if any(arr is not None and arr.shape != channels for arr in (running.mean, running.var)):
            raise ValueError(f"{path}: running statistics for {slot!r} have wrong shape")
        if (running.mean is None) != (running.var is None):
            raise ValueError(f"{path}: running statistics for {slot!r} are incomplete")

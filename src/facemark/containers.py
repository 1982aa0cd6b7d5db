"""File formats: the tensor container of the model files, and the line rule of text files.

Plain-text files (configs, manifests, embeddings, signatures, CSVs, reports) are read
by :func:`read_lines` and written by :func:`write_lines`, and by nothing else. A line
ends at ``\\n``, ``\\r\\n`` or ``\\r``; an undecodable byte is a ValueError naming ``path:line``.

The tensor container's layout (little-endian throughout):

* 4 magic bytes identifying the format ("WMF1" for watermark models,
  "EMB1" for embedders);
* uint32 byte length of a UTF-8 JSON header;
* the header: ``{"config": {...}, "step": int, "tensors": [[name, [dims]], ...]}``;
* raw float32 values for each tensor in manifest order, C-contiguous.

Weights are persisted at 32-bit precision and widened to float64 on load;
a NaN or Inf payload value is rejected.

Both model formats hold one :class:`Model` (:func:`save_model`,
:func:`load_model`): its config dataclass as the header's config block, its
step counter, and its ``tensorgrad.ParamSet`` as the tensors: the
parameters in order, then the running statistics of every batchnorm slot
in ``ParamSet.stats``. A Conv-BN-ReLU block ``<block>`` has
``<block>.conv.weight/bias``, ``<block>.bn.gamma/beta`` and
``<block>.bn.running_mean/var``. Only a trained model, whose every slot
holds statistics, can be saved, and a file must hold them all to load.

Every config dataclass, whether read from a header or a config file, checks its
integer floors with :func:`require_at_least` and its one message.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass
from typing import Any, get_type_hints

import numpy as np

__all__ = ["Model", "write_container", "read_container", "build_config", "require_at_least", "save_model", "load_model",
           "read_lines", "write_lines"]


@dataclass
class Model:
    """One network: its config dataclass, its ``tensorgrad.ParamSet`` and its training step counter."""

    config: Any
    params: Any
    step: int = 0


def write_container(path, magic, config, step, tensors):
    """Write named float arrays under the 4-byte ``magic``; ``tensors`` is an ordered list of (name, array)."""
    if len(magic) != 4:
        raise ValueError(f"magic must be 4 bytes, got {magic!r}")
    manifest = [[name, list(np.asarray(arr).shape)] for name, arr in tensors]
    header = json.dumps(
        {"config": config, "step": int(step), "tensors": manifest},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for _, arr in tensors:
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def read_container(path, magic):
    """Read a container written under the bytes ``magic`` back as (config, step, ordered {name: float64 array})."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != magic:
        raise ValueError(f"{path}: bad magic {data[:4]!r}, expected {magic!r}")
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
        if not np.all(np.isfinite(flat)):
            raise ValueError(f"{path}: tensor {name!r} holds NaN or Inf")
        tensors[name] = flat.astype(np.float64).reshape(dims)
        pos += nbytes
    if pos != len(data):
        raise ValueError(f"{path}: {len(data) - pos} trailing bytes after last tensor")
    return header["config"], header["step"], tensors


def build_config(path, cls, config):
    """``cls(**config)`` for a header's config block, whose int fields must be JSON integers.

    A missing, unknown, mistyped or out-of-range field raises ValueError ("bad config block").
    """
    hints = get_type_hints(cls)
    mistyped = sorted(k for k, v in config.items() if hints.get(k) is int and type(v) is not int)
    if mistyped:
        raise ValueError(f"{path}: bad config block: fields {mistyped} must be JSON integers")
    try:
        return cls(**config)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad config block: {exc}") from exc


def require_at_least(config, **floors):
    """Raise ``<field> must be >= <floor>, got <value>`` for the first field, in argument order, below its floor."""
    for key, floor in floors.items():
        value = getattr(config, key)
        if value < floor:
            raise ValueError(f"{key} must be >= {floor}, got {value}")


def _manifest_entry(path, entry):
    """One manifest entry as (name, dims): a string and a list of non-negative ints."""
    if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)):
        raise ValueError(f"{path}: manifest entry {entry!r} is not [name, [dims]]")
    name, dims = entry
    if not (isinstance(dims, list) and all(type(d) is int and d >= 0 for d in dims)):
        raise ValueError(f"{path}: tensor {name!r} has bad dims {dims!r}, expected a list of non-negative ints")
    return name, dims


def save_model(path, magic, model):
    """Write ``model``: its config and step, its parameters, then the running statistics of every batchnorm slot.

    A slot with no statistics yet (the model was never trained) raises ValueError naming it, before the file is opened.
    """
    params = model.params
    tensors = [(name, node.value) for name, node in params.items()]
    for slot, running in params.stats.items():
        if not running.populated:
            raise ValueError(f"batchnorm slot {slot!r} has no running statistics; only a trained model can be saved")
        tensors += [(f"{slot}.running_mean", running.mean), (f"{slot}.running_var", running.var)]
    write_container(path, magic, asdict(model.config), model.step, tensors)


def load_model(path, magic, config_cls, new_model):
    """Inverse of :func:`save_model`: ``new_model(config)`` is filled from the file.

    ``new_model`` builds the :class:`Model` for a ``config_cls`` config. The
    file must hold exactly the model's parameters and the running mean and
    variance of every batchnorm slot, at the slot's gamma shape; a missing,
    misshapen or unexpected tensor raises ValueError.
    """
    config, step, tensors = read_container(path, magic)
    model = new_model(build_config(path, config_cls, config))
    model.step = step
    nodes, stats = dict(model.params.items()), model.params.stats
    expected = {name: node.value.shape for name, node in nodes.items()}
    for slot in stats:
        expected[f"{slot}.running_mean"] = expected[f"{slot}.running_var"] = expected[f"{slot}.gamma"]
    for name, shape in expected.items():
        if name not in tensors:
            raise ValueError(f"{path}: missing tensor {name!r}")
        if tensors[name].shape != shape:
            raise ValueError(f"{path}: tensor {name!r} has shape {tensors[name].shape}, expected {shape}")
    extra = next((name for name in tensors if name not in expected), None)
    if extra is not None:
        raise ValueError(f"{path}: unexpected tensor {extra!r}")
    for name, node in nodes.items():
        node.value[...] = tensors[name]
    for slot, running in stats.items():
        running.mean, running.var = tensors[f"{slot}.running_mean"], tensors[f"{slot}.running_var"]
    return model


def read_lines(path, encoding="utf-8"):
    """Yield ``(line number, stripped text)`` for each non-blank line; an undecodable byte raises ``path:line: ...``."""
    with open(path, "rb") as fh:
        # A binary line ends at \n; splitlines() of bytes ends one at \r\n or \r as well, and nowhere else.
        for ln, raw in enumerate((part for chunk in fh for part in chunk.splitlines()), 1):
            try:
                line = raw.decode(encoding).strip()
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}:{ln}: {exc}") from exc
            if line:
                yield ln, line


def write_lines(path, lines):
    """Write ``lines`` as UTF-8 text, each followed by ``\\n``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{line}\n" for line in lines)

"""Versioned checkpoint container.

Layout (all integers little-endian):

    bytes 0..7    magic  b"G2GTCKPT"
    bytes 8..11   format version (u32); this module writes version 3
    bytes 12..19  header length H (u64)
    bytes 20..20+H-1  header, UTF-8 JSON
    remainder     parameter payload: raw little-endian float64 buffers,
                  C (row-major) order, concatenated in header order

The header carries the model configuration (architecture settings only),
the token and relation vocabularies, and for each named parameter its
shape, byte offset into the payload and byte length.  Parameters are
listed in the model's registry order and stored back to back, so a
loader accepts exactly that layout.  Raw float64 bytes round-trip
exactly, so a loaded model computes bit-identical forward passes.
Version 3 dropped a ModelConfig key; files of earlier versions are
rejected.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import CheckpointError, UsageError
from .graphs import RelationVocab
from .model import DependencyParserModel, ModelConfig
from .vocab import Vocab

__all__ = ["checkpoint_save", "checkpoint_load", "FORMAT_VERSION"]

MAGIC = b"G2GTCKPT"
FORMAT_VERSION = 3


def _layout(registry) -> list[dict]:
    """The header's parameter table: each parameter's name, shape, and byte
    offset and length in the payload, back to back in registry order."""
    entries, offset = [], 0
    for param in registry:
        nbytes = 8 * param.tensor.data.size
        entries.append({"name": param.name, "shape": list(param.tensor.shape),
                        "offset": offset, "nbytes": nbytes})
        offset += nbytes
    return entries


def checkpoint_save(model: DependencyParserModel, path) -> None:
    path = Path(path)
    header = {
        "model_config": model.cfg.to_dict(),
        "token_vocab": list(model.token_vocab.tokens),
        "relation_labels": list(model.rel_vocab.labels),
        "relation_scheme": model.rel_vocab.scheme,
        "params": _layout(model.registry),
    }
    header_bytes = json.dumps(header, ensure_ascii=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(FORMAT_VERSION.to_bytes(4, "little"))
        fh.write(len(header_bytes).to_bytes(8, "little"))
        fh.write(header_bytes)
        for param in model.registry:
            fh.write(np.ascontiguousarray(param.tensor.data, dtype="<f8").tobytes())


def checkpoint_load(path) -> DependencyParserModel:
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if len(blob) < 20 or blob[:8] != MAGIC:
        raise CheckpointError(f"{path} is not a checkpoint (bad magic)")
    version = int.from_bytes(blob[8:12], "little")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version {version} "
            f"(this build reads version {FORMAT_VERSION})")
    header_len = int.from_bytes(blob[12:20], "little")
    if 20 + header_len > len(blob):
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(blob[20:20 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt header: {exc}") from exc

    try:
        cfg = ModelConfig(**header["model_config"])
        token_vocab = Vocab(header["token_vocab"])
        rel_vocab = RelationVocab(header["relation_labels"],
                                  scheme=header["relation_scheme"])
        model = DependencyParserModel(cfg, token_vocab, rel_vocab, seed=0)
        layout = _layout(model.registry)
        if header["params"] != layout:
            raise CheckpointError(f"{path}: the parameter table disagrees with the "
                                  f"configuration's parameters and shapes")
    except (KeyError, TypeError, ValueError, AttributeError, UsageError) as exc:
        raise CheckpointError(f"{path}: invalid header contents: {exc!r}") from exc
    payload_start = 20 + header_len
    have = len(blob) - payload_start
    needed = sum(entry["nbytes"] for entry in layout)
    if have != needed:
        raise CheckpointError(f"{path}: {'truncated' if have < needed else 'oversized'} "
                              f"payload of {have} bytes; the parameters take {needed}")
    for param, entry in zip(model.registry, layout):
        data = np.frombuffer(blob, dtype="<f8", count=entry["nbytes"] // 8,
                             offset=payload_start + entry["offset"])
        param.tensor.data = data.reshape(entry["shape"]).astype(np.float64)
    return model

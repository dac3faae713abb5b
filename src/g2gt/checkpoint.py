"""Versioned checkpoint container.

Layout (all integers little-endian):

    bytes 0..7    magic  b"G2GTCKPT"
    bytes 8..11   format version (u32); this module writes version 2
    bytes 12..19  header length H (u64)
    bytes 20..20+H-1  header, UTF-8 JSON
    remainder     parameter payload: raw little-endian float64 buffers,
                  C (row-major) order, concatenated in header order

The header carries the model configuration, the token and relation
vocabularies, and for each named parameter its shape, byte offset into
the payload and byte length.  Raw float64 bytes round-trip exactly, so a
loaded model computes bit-identical forward passes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import CheckpointError
from .graphs import RelationVocab
from .model import DependencyParserModel, ModelConfig
from .vocab import Vocab

__all__ = ["checkpoint_save", "checkpoint_load", "FORMAT_VERSION"]

MAGIC = b"G2GTCKPT"
FORMAT_VERSION = 2


def checkpoint_save(model: DependencyParserModel, path) -> None:
    path = Path(path)
    entries = []
    buffers = []
    offset = 0
    for param in model.registry:
        raw = np.ascontiguousarray(param.tensor.data, dtype="<f8").tobytes()
        entries.append({
            "name": param.name,
            "shape": list(param.tensor.shape),
            "offset": offset,
            "nbytes": len(raw),
        })
        buffers.append(raw)
        offset += len(raw)
    header = {
        "model_config": model.cfg.to_dict(),
        "token_vocab": list(model.token_vocab.tokens),
        "relation_labels": list(model.rel_vocab.labels),
        "relation_scheme": model.rel_vocab.scheme,
        "params": entries,
    }
    header_bytes = json.dumps(header, ensure_ascii=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(FORMAT_VERSION.to_bytes(4, "little"))
        fh.write(len(header_bytes).to_bytes(8, "little"))
        fh.write(header_bytes)
        for raw in buffers:
            fh.write(raw)


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
        entries = header["params"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: invalid header contents: {exc}") from exc

    model = DependencyParserModel(cfg, token_vocab, rel_vocab, seed=0)
    by_name = {e["name"]: e for e in entries}
    expected = set(model.registry.names())
    if set(by_name) != expected:
        missing = expected - set(by_name)
        extra = set(by_name) - expected
        raise CheckpointError(
            f"{path}: parameter names disagree with the configuration "
            f"(missing {sorted(missing)}, unexpected {sorted(extra)})")
    payload_start = 20 + header_len
    for param in model.registry:
        entry = by_name[param.name]
        shape = tuple(entry["shape"])
        start = payload_start + entry["offset"]
        stop = start + entry["nbytes"]
        if stop > len(blob):
            raise CheckpointError(f"{path}: truncated payload at {param.name!r}")
        arr = np.frombuffer(blob[start:stop], dtype="<f8").copy().reshape(shape)
        if arr.shape != param.tensor.data.shape:
            raise CheckpointError(
                f"{path}: shape mismatch for {param.name!r}: "
                f"{arr.shape} vs {param.tensor.data.shape}")
        param.tensor.data = arr.astype(np.float64, copy=False)
    return model

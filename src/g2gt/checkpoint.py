"""Versioned checkpoint container.

Layout (all integers little-endian):

    bytes 0..7    magic  b"G2GTCKPT"
    bytes 8..11   format version (u32); this module writes version 4
    bytes 12..19  header length H (u64)
    bytes 20..20+H-1  header, UTF-8 JSON
    remainder     parameter payload: raw little-endian float64 buffers,
                  C (row-major) order, concatenated in header order

The header carries the model configuration (architecture settings only),
the token and relation vocabularies, and for each named parameter its
shape, byte offset into the payload and byte length.  Parameters are
listed in the model's registry order and stored back to back, so a
loader accepts exactly that layout.  The loader builds the model from
the payload rather than from a random draw, one parameter at a time, and
checks each one's table entry and extent before it reads it, so that a
header cannot make it allocate more than the file holds.  Raw float64
bytes round-trip exactly, so a loaded model computes bit-identical
forward passes.
Versions 3 and 4 each dropped a ModelConfig key, 4 the ``single_root``
switch; files of earlier versions are rejected.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import CheckpointError, UsageError
from .graphs import RelationVocab
from .model import DependencyParserModel, ModelConfig
from .vocab import Vocab

__all__ = ["checkpoint_save", "checkpoint_load", "FORMAT_VERSION"]

MAGIC = b"G2GTCKPT"
FORMAT_VERSION = 4


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

    payload_start = 20 + header_len
    have = len(blob) - payload_start
    read = []           # the entries taken so far

    def take(name: str, shape: tuple[int, ...]) -> np.ndarray:
        offset = sum(entry["nbytes"] for entry in read)
        entry = {"name": name, "shape": list(shape), "offset": offset,
                 "nbytes": 8 * math.prod(shape)}
        if len(read) >= len(table) or table[len(read)] != entry:
            raise CheckpointError(f"{path}: the parameter table disagrees with the "
                                  f"configuration's parameters and shapes")
        if offset + entry["nbytes"] > have:
            raise CheckpointError(f"{path}: truncated payload of {have} bytes; "
                                  f"{name} ends at byte {offset + entry['nbytes']}")
        read.append(entry)
        return np.frombuffer(blob, dtype="<f8", count=entry["nbytes"] // 8,
                             offset=payload_start + offset).reshape(shape).astype(np.float64)

    try:
        cfg = ModelConfig(**header["model_config"])
        token_vocab = Vocab(header["token_vocab"])
        rel_vocab = RelationVocab(header["relation_labels"],
                                  scheme=header["relation_scheme"])
        table = list(header["params"])
        model = DependencyParserModel(cfg, token_vocab, rel_vocab, source=take)
    except (KeyError, TypeError, ValueError, AttributeError, UsageError) as exc:
        raise CheckpointError(f"{path}: invalid header contents: {exc!r}") from exc
    if len(read) != len(table):
        raise CheckpointError(f"{path}: the parameter table disagrees with the "
                              f"configuration's parameters and shapes")
    needed = sum(entry["nbytes"] for entry in read)
    if have != needed:
        raise CheckpointError(f"{path}: oversized payload of {have} bytes; the "
                              f"parameters take {needed}")
    return model
